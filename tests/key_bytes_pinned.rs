//! Groth16 keys are pinned byte for byte.
//!
//! The digests below were recorded on the commit *before* `setup_shape`
//! moved from one double-and-add per key element to the fixed-base
//! generator table (`zkvc_curve::fixed_base_mul`). Setup may get faster;
//! it may not change a key byte — every cached key, `vk_sha256` and
//! `proof_sha256` in a determinism report hangs off these.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkvc::core::api::compile_shape;
use zkvc::core::matmul::{MatMulBuilder, Strategy};
use zkvc::ff::{Fr, PrimeField};
use zkvc::groth16::setup_shape;
use zkvc::hash::{sha256, Sha256};

const SETUP_SEED: u64 = 0x6b65_7973; // "keys"

fn hex(digest: [u8; 32]) -> String {
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

/// `(sha256(vk.to_bytes()), sha256(every ProvingKey point, in field order))`
/// for a small matmul statement under a fixed setup seed.
fn key_digests(a: usize, n: usize, b: usize, strategy: Strategy) -> (String, String) {
    let x: Vec<Vec<i64>> = (0..a)
        .map(|i| (0..n).map(|k| (i * n + k) as i64 % 7 - 3).collect())
        .collect();
    let w: Vec<Vec<i64>> = (0..n)
        .map(|k| (0..b).map(|j| (k * b + j) as i64 % 5 - 2).collect())
        .collect();
    let circuit = MatMulBuilder::new(a, n, b)
        .strategy(strategy)
        .public_outputs(false)
        .z(Fr::from_u64(0x5eed))
        .build_circuit_integers(&x, &w);
    let mut rng = StdRng::seed_from_u64(SETUP_SEED);
    let (pk, vk) = setup_shape(Arc::new(compile_shape(&circuit)), &mut rng);

    let mut points = Sha256::new();
    let queries = [
        &pk.a_query,
        &pk.b_g1_query,
        &pk.b_g2_query,
        &pk.h_query,
        &pk.l_query,
    ];
    for p in queries.into_iter().flatten() {
        points.update(&p.to_bytes());
    }
    points.update(&pk.beta_g1.to_bytes());
    points.update(&pk.delta_g1.to_bytes());
    (hex(sha256(&vk.to_bytes())), hex(points.finalize()))
}

#[test]
fn crpc_psq_3x4x3_keys_are_byte_identical_to_the_recorded_ones() {
    let (vk, pk) = key_digests(3, 4, 3, Strategy::CrpcPsq);
    assert_eq!(
        (vk.as_str(), pk.as_str()),
        (
            "0979e2e642de5f35f3dbe06155a821e3de7caa96545da3a0903f1359f8a26483",
            "e3a7f8c464d9a6573725946a6c4a6862c7c32b1b3e362962ba634741090d4edf",
        )
    );
}

#[test]
fn vanilla_2x2x2_keys_are_byte_identical_to_the_recorded_ones() {
    let (vk, pk) = key_digests(2, 2, 2, Strategy::Vanilla);
    assert_eq!(
        (vk.as_str(), pk.as_str()),
        (
            "8c4d9f2c3a6649d665cdc9a11505bdece14ef806ce07a6006d55c7bc6980f1c1",
            "d9accb22dc3a6e1a1f5fe86ec5537702bdf3b4cebca92e954f1fd70deff4c9d5",
        )
    );
}
