//! The verifying key derived alone is the one the full setup makes.
//!
//! `zkvc verify` no longer runs `setup_shape` for its Groth16 key; it
//! calls `verifying_key_for_shape` on the same rng state. The two must
//! agree byte for byte, or every proof a verifier checks would fail.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkvc::core::api::{compile_shape, Circuit};
use zkvc::core::matmul::{MatMulBuilder, Strategy};
use zkvc::ff::{Fr, PrimeField};
use zkvc::groth16::{setup_shape, verifying_key_for_shape};
use zkvc::runtime::{build_statement, JobSpec};

const SETUP_SEED: u64 = 0x6b65_7973; // "keys", as in `key_bytes_pinned.rs`

/// Asserts both derivations agree from one seeded rng and returns the
/// shape's instance count.
fn assert_vk_only_matches_setup(circuit: &dyn Circuit) -> usize {
    let shape = Arc::new(compile_shape(circuit));
    let alone = verifying_key_for_shape(&shape, &mut StdRng::seed_from_u64(SETUP_SEED));
    let (pk, vk) = setup_shape(Arc::clone(&shape), &mut StdRng::seed_from_u64(SETUP_SEED));
    assert_eq!(alone.to_bytes(), vk.to_bytes());
    assert_eq!(alone.alpha_beta_gt, vk.alpha_beta_gt);
    assert_eq!(alone.gamma_abc_g1.len(), pk.num_instance + 1);
    pk.num_instance
}

/// The statements of `key_bytes_pinned.rs`.
fn pinned_matmul(a: usize, n: usize, b: usize, strategy: Strategy) -> impl Circuit {
    let x: Vec<Vec<i64>> = (0..a)
        .map(|i| (0..n).map(|k| (i * n + k) as i64 % 7 - 3).collect())
        .collect();
    let w: Vec<Vec<i64>> = (0..n)
        .map(|k| (0..b).map(|j| (k * b + j) as i64 % 5 - 2).collect())
        .collect();
    MatMulBuilder::new(a, n, b)
        .strategy(strategy)
        .public_outputs(false)
        .z(Fr::from_u64(0x5eed))
        .build_circuit_integers(&x, &w)
}

fn served(spec: &str) -> Box<dyn Circuit> {
    let (spec, _) = JobSpec::parse(spec).expect("a shipped spec");
    build_statement(7, 0, &spec)
}

#[test]
fn vk_only_matches_setup_on_the_pinned_key_shapes() {
    assert_vk_only_matches_setup(&pinned_matmul(3, 4, 3, Strategy::CrpcPsq));
    assert_vk_only_matches_setup(&pinned_matmul(2, 2, 2, Strategy::Vanilla));
}

#[test]
fn vk_only_matches_setup_on_private_and_public_matmuls() {
    // `:private`: no instance variables, so `gamma_abc` is one point.
    assert_eq!(
        assert_vk_only_matches_setup(served("3x4x3:zkvc:g:private").as_ref()),
        0
    );
    assert_eq!(
        assert_vk_only_matches_setup(served("3x4x3:zkvc:g").as_ref()),
        9
    );
}

#[test]
fn vk_only_matches_setup_on_a_model_preset() {
    assert!(assert_vk_only_matches_setup(served("mixer-block:g").as_ref()) > 0);
}
