//! Workspace-level integration test: the batch-proving service consumed
//! through the umbrella crate, the way a downstream user would.

use zkvc::core::matmul::Strategy;
use zkvc::core::{Backend, Circuit};
use zkvc::runtime::{prove_batch, JobSpec, KeyCache, ProofEnvelope};

#[test]
fn batch_service_end_to_end_through_umbrella() {
    // A mixed batch: both backends, a CRPC strategy and a vanilla one.
    let specs = vec![
        JobSpec::new(3, 4, 3),
        JobSpec::new(3, 4, 3),
        JobSpec::new(3, 4, 3).with_backend(Backend::Spartan),
        JobSpec::new(2, 2, 2)
            .with_strategy(Strategy::Vanilla)
            .with_backend(Backend::Spartan),
    ];
    let report = prove_batch(&specs, 2, 123);
    assert!(report.all_verified());
    assert_eq!(report.results.len(), 4);
    assert_eq!(
        report.cache.misses, 3,
        "three distinct (shape, backend) pairs"
    );
    assert_eq!(report.cache.hits, 1);

    // Each proof decodes from bytes and reports the right backend.
    for (result, spec) in report.results.iter().zip(&specs) {
        let envelope = ProofEnvelope::decode(&result.proof_bytes).expect("decodes");
        assert_eq!(envelope.backend(), spec.backend());
    }
}

#[test]
fn shape_digest_drives_key_reuse_across_callers() {
    // Two independently built same-shape circuits digest identically, and
    // the cache hands back the same key object for both.
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use zkvc::core::api::generate_witness_for;
    use zkvc::core::matmul::MatMulBuilder;

    let build = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        MatMulBuilder::new(2, 3, 2)
            .strategy(Strategy::Vanilla)
            .build_circuit_random(&mut rng)
    };
    let c1 = build(1);
    let c2 = build(2);
    assert_eq!(c1.shape_digest(), c2.shape_digest());

    let cache = KeyCache::new();
    let (k1, hit1) = cache.get_or_setup_circuit(Backend::Groth16, &c1);
    let (k2, hit2) = cache.get_or_setup_circuit(Backend::Groth16, &c2);
    assert!(!hit1 && hit2);
    assert_eq!(k1.digest, k2.digest);

    // And the shared key proves/verifies both assignments.
    let mut rng = StdRng::seed_from_u64(3);
    let system = Backend::Groth16.system();
    for circuit in [&c1, &c2] {
        let witness = generate_witness_for(circuit, &k1.shape);
        let artifacts = system.prove_assignment(&k1.prover, &witness, &mut rng);
        assert!(system.verify(&k2.verifier, &artifacts));
    }
}
