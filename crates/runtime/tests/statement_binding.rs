//! Statement-level binding acceptance tests: proving `Y = X * W` with
//! public outputs and then verifying against a tampered `Y'` must fail for
//! both backends and all four circuit strategies — keyed verification,
//! envelope round trips and the pool's rebuilt-statement check included.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkvc_core::api::{compile_shape, generate_witness_for, Circuit, ProofSystem};
use zkvc_core::matmul::{MatMulBuilder, MatMulCircuit, Strategy};
use zkvc_core::{Backend, ProofArtifacts, VerifierKey};
use zkvc_ff::{Field, Fr};
use zkvc_runtime::{build_statement, CircuitKeys, JobSpec, KeyCache, ProofEnvelope};

fn public_job(strategy: Strategy) -> MatMulCircuit {
    let x = vec![vec![2i64, -3, 5], vec![7, 1, -4]];
    let w = vec![vec![6i64, -2], vec![3, 8], vec![-1, 9]];
    MatMulBuilder::new(2, 3, 2)
        .strategy(strategy)
        .public_outputs(true)
        .build_circuit_integers(&x, &w)
}

/// Compile, set up, fill the witness and prove: one honest proof with the
/// key that verifies it.
fn setup_and_prove(
    system: &dyn ProofSystem,
    circuit: &dyn Circuit,
    rng: &mut StdRng,
) -> (VerifierKey, ProofArtifacts) {
    let shape = Arc::new(compile_shape(circuit));
    let (pk, vk) = system.setup_shape(&shape, rng);
    let witness = generate_witness_for(circuit, &shape);
    (vk, system.prove_assignment(&pk, &witness, rng))
}

/// Proves `circuit` against keys a [`KeyCache`] already holds.
fn prove_with(keys: &CircuitKeys, circuit: &dyn Circuit, rng: &mut StdRng) -> ProofArtifacts {
    let witness = generate_witness_for(circuit, &keys.shape);
    keys.backend
        .system()
        .prove_assignment(&keys.prover, &witness, rng)
}

#[test]
fn tampered_y_fails_for_both_backends_and_all_strategies() {
    let mut rng = StdRng::seed_from_u64(71);
    for backend in Backend::ALL {
        let system: &dyn ProofSystem = backend.system();
        for strategy in Strategy::ALL {
            let job = public_job(strategy);
            assert_eq!(job.public_outputs().len(), 4, "Y is 2x2");
            let (vk, artifacts) = setup_and_prove(system, &job, &mut rng);
            assert!(
                system.verify(&vk, &artifacts),
                "honest {backend:?}/{strategy:?}"
            );
            // Tamper each output cell in turn: every one must be bound.
            for idx in 0..4 {
                let mut tampered = artifacts.clone();
                tampered.public_inputs[idx] += Fr::one();
                assert!(
                    !system.verify(&vk, &tampered),
                    "{backend:?}/{strategy:?} accepted tampered y[{idx}]"
                );
            }
        }
    }
}

#[test]
fn fold_preserving_forgery_fails_for_crpc_public_outputs() {
    // CRPC folds Y as `sum Z^{i*b+j} y_ij` with a *public* Z, so
    // `y_0 += Z, y_1 -= 1` preserves the fold. An attacker holding an
    // honest proof could swap in such a Y' if the fold were the only thing
    // binding the outputs; the per-cell binding constraints must reject it
    // on both backends, for both CRPC strategies.
    let mut rng = StdRng::seed_from_u64(73);
    for backend in Backend::ALL {
        let system = backend.system();
        for strategy in [Strategy::Crpc, Strategy::CrpcPsq] {
            let job = public_job(strategy);
            let (vk, artifacts) = setup_and_prove(system, &job, &mut rng);
            assert!(system.verify(&vk, &artifacts), "{backend:?}/{strategy:?}");

            let mut forged = artifacts.clone();
            forged.public_inputs[0] += job.z; // coeff Z^0: fold += Z
            forged.public_inputs[1] -= Fr::one(); // coeff Z^1: fold -= Z
            assert_ne!(forged.public_inputs, artifacts.public_inputs);
            assert!(
                !system.verify(&vk, &forged),
                "{backend:?}/{strategy:?} accepted a fold-preserving forged Y"
            );
        }
    }
}

#[test]
fn tampered_y_fails_through_the_envelope() {
    // The same property across the wire format: decode, swap a public
    // input, re-encode, decode again — still rejected.
    let mut rng = StdRng::seed_from_u64(72);
    for backend in Backend::ALL {
        let system = backend.system();
        let job = public_job(Strategy::CrpcPsq);
        let (vk, artifacts) = setup_and_prove(system, &job, &mut rng);

        let bytes = ProofEnvelope::from_artifacts(&artifacts).to_bytes();
        let mut envelope = ProofEnvelope::decode(&bytes).expect("decodes");
        assert!(envelope.verify_with_key(&vk), "{backend:?}");

        envelope.public_inputs[2] += Fr::one();
        let tampered = ProofEnvelope::decode(&envelope.to_bytes()).expect("tampered still decodes");
        assert!(
            !tampered.verify_with_key(&vk),
            "{backend:?} accepted a tampered envelope Y"
        );
    }
}

#[test]
fn replayed_proof_for_same_shape_but_different_y_is_rejected() {
    // Two pool statements with the same spec share a circuit shape (and
    // keys) but bind different Y matrices. A proof for statement 0 must
    // not pass as a proof for statement 1: the cryptographic check accepts
    // it (same shape, honest proof) but the statement-binding comparison
    // the pool and `zkvc verify` perform must reject it.
    for backend in Backend::ALL {
        let spec = JobSpec::new(3, 2, 3).with_backend(backend);
        let seed = 9;
        let s0 = build_statement(seed, 0, &spec);
        let s1 = build_statement(seed, 1, &spec);
        assert_eq!(s0.shape_digest(), s1.shape_digest(), "{backend:?}");
        assert_ne!(s0.public_outputs(), s1.public_outputs(), "{backend:?}");

        let cache = KeyCache::with_seed(seed);
        let (keys, _) = cache.get_or_setup_circuit(backend, s0.as_ref());
        let mut rng = StdRng::seed_from_u64(5);
        let artifacts = prove_with(&keys, s0.as_ref(), &mut rng);
        let envelope = ProofEnvelope::decode(&ProofEnvelope::from_artifacts(&artifacts).to_bytes())
            .expect("decodes");

        // Shape-level check alone would accept the replay...
        assert!(envelope.verify_with_key(&keys.verifier), "{backend:?}");
        // ...statement binding is what rejects it.
        assert_eq!(envelope.public_inputs, s0.public_outputs());
        assert_ne!(
            envelope.public_inputs,
            s1.public_outputs(),
            "{backend:?} replay would go unnoticed"
        );
    }
}

#[test]
fn private_jobs_still_prove_but_bind_nothing() {
    // The pre-redesign behaviour survives behind `:private` / the builder
    // flag: no public outputs, shape-level binding only.
    let spec = JobSpec::new(2, 2, 2)
        .with_backend(Backend::Spartan)
        .with_private_outputs();
    assert!(!spec.binds_outputs());
    let statement = build_statement(3, 0, &spec);
    assert!(statement.public_outputs().is_empty());
    let cache = KeyCache::new();
    let (keys, _) = cache.get_or_setup_circuit(spec.backend(), statement.as_ref());
    let mut rng = StdRng::seed_from_u64(6);
    let artifacts = prove_with(&keys, statement.as_ref(), &mut rng);
    assert!(spec.backend().system().verify(&keys.verifier, &artifacts));
}
