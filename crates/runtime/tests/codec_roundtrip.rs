//! Canonical-encoding round-trips for the shapes the distributed protocol
//! ships from coordinator to workers.
//!
//! The coordinator sends a [`CompiledShape`] to each worker exactly once
//! per digest; the worker re-derives keys from the decoded bytes and
//! rebuilds each witness from the job spec (no witness crosses the wire).
//! That is only sound if (a) encode/decode is lossless for every shape the
//! fleet can produce — all model presets, all matmul strategies, random
//! dimensions — and (b) a *decoded* shape proves bit-identically to the
//! original under the same deterministic setup and prover randomness
//! (digest stability is key-cache compatibility, so any drift would split
//! the fleet's key material silently).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use zkvc_core::api::{compile_shape, generate_witness_for};
use zkvc_core::matmul::{MatMulBuilder, Strategy};
use zkvc_core::Backend;
use zkvc_ff::Fr;
use zkvc_r1cs::{CompiledShape, WitnessAssignment};
use zkvc_runtime::codec::{decode_shape, decode_shape_expecting, encode_shape};
use zkvc_runtime::{build_statement, JobSpec, KeyCache, ModelPreset, ProofEnvelope};

/// Field-by-field equality for shapes (no `PartialEq` on `CompiledShape`
/// itself: equality is a test concern, not an API promise).
fn assert_shapes_equal(original: &CompiledShape<Fr>, decoded: &CompiledShape<Fr>) {
    assert_eq!(original.digest, decoded.digest, "digest must survive");
    assert_eq!(original.matrices.a, decoded.matrices.a);
    assert_eq!(original.matrices.b, decoded.matrices.b);
    assert_eq!(original.matrices.c, decoded.matrices.c);
    assert_eq!(original.expected_boolean, decoded.expected_boolean);
    assert_eq!(original.provided_boolean, decoded.provided_boolean);
}

/// Proves `spec` at `seed` using keys set up from `shape`, exactly the way
/// a pool worker or remote worker does, and returns the envelope bytes.
fn prove_with_shape(shape: CompiledShape<Fr>, spec: &JobSpec, seed: u64) -> Vec<u8> {
    let backend = spec.backend();
    let statement = build_statement(seed, 0, spec);
    let cache = KeyCache::new();
    let (keys, _hit) = cache.get_or_setup_shape(backend, std::sync::Arc::new(shape), seed);
    let witness = generate_witness_for(statement.as_ref(), &keys.shape);
    let mut prover_rng = StdRng::seed_from_u64(seed ^ 0u64.wrapping_mul(0xD1B5_4A32_D192_ED03));
    let artifacts = backend
        .system()
        .prove_assignment(&keys.prover, &witness, &mut prover_rng);
    let bytes = ProofEnvelope::from_artifacts(&artifacts).to_bytes();
    let envelope = ProofEnvelope::decode(&bytes).expect("own envelope must parse");
    assert!(
        envelope.verify_with_key(&keys.verifier),
        "proof from shape must verify"
    );
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Shape encodings are lossless for random matmul statements across
    /// every strategy and output binding, and the decoded shape is still
    /// satisfied by the statement's witness.
    #[test]
    fn prop_matmul_shape_and_witness_roundtrip(
        a in 1usize..5,
        n in 1usize..5,
        b in 1usize..5,
        seed in 0u64..500,
        strategy_idx in 0usize..4,
        public_idx in 0usize..2,
    ) {
        let strategy = Strategy::ALL[strategy_idx];
        let builder = MatMulBuilder::new(a, n, b)
            .strategy(strategy)
            .public_outputs(public_idx == 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let circuit = builder.build_circuit_random(&mut rng);

        let shape: CompiledShape<Fr> = compile_shape(&circuit);
        let bytes = encode_shape(&shape);
        let decoded: CompiledShape<Fr> = decode_shape(&bytes).expect("decode own encoding");
        prop_assert_eq!(shape.digest, decoded.digest);
        prop_assert_eq!(&shape.matrices.a, &decoded.matrices.a);
        prop_assert_eq!(&shape.matrices.b, &decoded.matrices.b);
        prop_assert_eq!(&shape.matrices.c, &decoded.matrices.c);
        prop_assert_eq!(&shape.expected_boolean, &decoded.expected_boolean);
        prop_assert_eq!(&shape.provided_boolean, &decoded.provided_boolean);
        // The digest-checked decode path (what workers actually run).
        let checked: CompiledShape<Fr> =
            decode_shape_expecting(&bytes, &shape.digest).expect("digest-checked decode");
        prop_assert_eq!(checked.digest, shape.digest);

        let witness: WitnessAssignment<Fr> = generate_witness_for(&circuit, &shape);
        prop_assert!(decoded.is_satisfied(&witness));
    }
}

/// Every model preset's shape survives the canonical encoding, on both
/// backends, and decoded shapes keep their witnesses satisfiable.
#[test]
fn preset_shapes_roundtrip_on_all_backends() {
    for preset in ModelPreset::ALL {
        for backend in Backend::ALL {
            let spec = JobSpec::model(preset).with_backend(backend);
            let statement = build_statement(11, 0, &spec);
            let shape: CompiledShape<Fr> = compile_shape(statement.as_ref());
            let bytes = encode_shape(&shape);
            let decoded: CompiledShape<Fr> =
                decode_shape_expecting(&bytes, &shape.digest).expect("decode preset shape");
            assert_shapes_equal(&shape, &decoded);
            let witness = generate_witness_for(statement.as_ref(), &decoded);
            assert!(
                decoded.is_satisfied(&witness),
                "{spec}: witness must satisfy the decoded shape"
            );
        }
    }
}

/// Digest stability is proof compatibility: keys set up from a shape that
/// crossed the byte boundary produce *bit-identical* proofs to keys set
/// up from the in-memory original — the exact property the distributed
/// protocol relies on when a remote worker proves against shipped bytes
/// while the coordinator's local pool proves against its own compilation.
#[test]
fn decoded_shapes_prove_bit_identically() {
    let mut specs: Vec<JobSpec> = Strategy::ALL
        .iter()
        .map(|&s| JobSpec::new(4, 4, 4).with_strategy(s))
        .collect();
    specs.push(JobSpec::model(ModelPreset::MixerBlock).with_backend(Backend::Spartan));
    for spec in specs {
        let seed = 23;
        let statement = build_statement(seed, 0, &spec);
        let shape: CompiledShape<Fr> = compile_shape(statement.as_ref());
        let shipped: CompiledShape<Fr> =
            decode_shape_expecting(&encode_shape(&shape), &shape.digest)
                .expect("decode shipped shape");
        let local = prove_with_shape(shape, &spec, seed);
        let remote = prove_with_shape(shipped, &spec, seed);
        assert_eq!(
            local, remote,
            "{spec}: decoded shape must prove bit-identically"
        );
    }
}
