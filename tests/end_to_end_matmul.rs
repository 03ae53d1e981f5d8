//! Integration tests spanning the whole stack: matmul circuits through both
//! proof-system backends, including adversarial cases.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkvc::core::api::{compile_shape, generate_witness_for};
use zkvc::core::matmul::{CircuitStats, MatMulBuilder, MatMulCircuit, Strategy, ZSource};
use zkvc::core::Backend;
use zkvc::ff::{Field, Fr, PrimeField};

/// Whether the statement's own witness satisfies its compiled shape.
fn is_satisfied(circuit: &MatMulCircuit) -> bool {
    let shape = compile_shape(circuit);
    shape.is_satisfied(&generate_witness_for(circuit, &shape))
}

fn matrices(a: usize, n: usize, b: usize, seed: i64) -> (Vec<Vec<i64>>, Vec<Vec<i64>>) {
    let x = (0..a)
        .map(|i| {
            (0..n)
                .map(|k| ((i as i64 + 1) * (k as i64 + 2) + seed) % 97 - 48)
                .collect()
        })
        .collect();
    let w = (0..n)
        .map(|k| {
            (0..b)
                .map(|j| ((k as i64 + 3) * (j as i64 + 1) - seed) % 89 - 44)
                .collect()
        })
        .collect();
    (x, w)
}

#[test]
fn every_strategy_proves_and_verifies_on_both_backends() {
    let mut rng = StdRng::seed_from_u64(1);
    let (x, w) = matrices(4, 6, 5, 3);
    for strategy in Strategy::ALL {
        let job = MatMulBuilder::new(4, 6, 5)
            .strategy(strategy)
            .build_circuit_integers(&x, &w);
        assert!(is_satisfied(&job), "{strategy:?}");
        for backend in Backend::ALL {
            let system = backend.system();
            let (artifacts, vk) = system.prove_oneshot(&job, &mut rng);
            assert!(
                system.verify(&vk, &artifacts),
                "{strategy:?} on {backend:?}"
            );
        }
    }
}

#[test]
fn zkvc_strategy_reduces_constraints_as_the_paper_claims() {
    let (a, n, b) = (8usize, 12usize, 10usize);
    let (x, w) = matrices(a, n, b, 7);
    let vanilla = MatMulBuilder::new(a, n, b)
        .strategy(Strategy::Vanilla)
        .build_circuit_integers(&x, &w);
    let zkvc = MatMulBuilder::new(a, n, b)
        .strategy(Strategy::CrpcPsq)
        .build_circuit_integers(&x, &w);
    let constraints = |c: &MatMulCircuit| CircuitStats::of(&compile_shape(c)).num_constraints;
    // O(abn) -> O(n)
    assert_eq!(constraints(&vanilla), a * b * n + a * b);
    assert_eq!(constraints(&zkvc), n);
    assert!(constraints(&zkvc) * 50 < constraints(&vanilla));
    // Identical results.
    assert_eq!(vanilla.y, zkvc.y);
}

#[test]
fn groth16_proof_does_not_verify_for_a_different_statement() {
    let mut rng = StdRng::seed_from_u64(2);
    let (x, w) = matrices(3, 4, 3, 1);
    let job = MatMulBuilder::new(3, 4, 3)
        .strategy(Strategy::CrpcPsq)
        .build_circuit_integers(&x, &w);
    let system = Backend::Groth16.system();
    let (artifacts, vk) = system.prove_oneshot(&job, &mut rng);
    assert!(system.verify(&vk, &artifacts));
    // The proof verifies under its own public inputs (there are none
    // beyond the statement structure), but a tampered proof must fail.
    let mut bad = artifacts;
    if let zkvc::core::backend::ProofData::Groth16 { proof } = &mut bad.data {
        proof.a = (proof.a.to_projective() + zkvc::curve::G1Projective::generator()).to_affine();
    }
    assert!(!system.verify(&vk, &bad));
}

#[test]
fn dishonest_witness_cannot_be_proved_with_spartan() {
    // Corrupt one output element of the CRPC job; the prover runs anyway and
    // the verifier must reject.
    let mut rng = StdRng::seed_from_u64(3);
    let (x, w) = matrices(3, 3, 3, 5);
    let job = MatMulBuilder::new(3, 3, 3)
        .strategy(Strategy::CrpcPsq)
        .build_circuit_integers(&x, &w);
    let system = Backend::Spartan.system();
    let shape = Arc::new(compile_shape(&job));
    let (pk, vk) = system.setup_shape(&shape, &mut rng);
    let mut witness = generate_witness_for(&job, &shape);
    let y_index = 3 * 3 + 3 * 3; // first output variable after the inputs
    witness.witness[y_index] += Fr::from_u64(1);
    assert!(!shape.is_satisfied(&witness));
    let artifacts = system.prove_assignment(&pk, &witness, &mut rng);
    assert!(!system.verify(&vk, &artifacts));
}

#[test]
fn fixed_z_matches_transcript_z_semantics() {
    // Completeness does not depend on where Z comes from.
    let (x, w) = matrices(2, 5, 2, 11);
    let fixed = MatMulBuilder::new(2, 5, 2)
        .strategy(Strategy::Crpc)
        .z_source(ZSource::Fixed(Fr::from_u64(31337)))
        .build_circuit_integers(&x, &w);
    let transcript = MatMulBuilder::new(2, 5, 2)
        .strategy(Strategy::Crpc)
        .build_circuit_integers(&x, &w);
    assert!(is_satisfied(&fixed));
    assert!(is_satisfied(&transcript));
    assert_eq!(fixed.y, transcript.y);
    assert_ne!(fixed.z, Fr::zero());
}

#[test]
fn interactive_baseline_agrees_with_snark_statement() {
    // The same product proved by the zkCNN-style interactive protocol and by
    // the zkVC SNARK path.
    let (x, w) = matrices(4, 4, 4, 13);
    let to_field = |m: &Vec<Vec<i64>>| -> Vec<Vec<Fr>> {
        m.iter()
            .map(|r| r.iter().map(|v| Fr::from_i64(*v)).collect())
            .collect()
    };
    let xf = to_field(&x);
    let wf = to_field(&w);
    let claim = zkvc::interactive::MatMulClaim::compute(&xf, &wf);
    let proof = zkvc::interactive::prove_matmul(&xf, &wf, &claim);
    assert!(zkvc::interactive::verify_matmul(&xf, &wf, &claim, &proof));

    let job = MatMulBuilder::new(4, 4, 4)
        .strategy(Strategy::CrpcPsq)
        .build_circuit_integers(&x, &w);
    assert_eq!(job.y, claim.y, "both pipelines attest to the same product");
}
