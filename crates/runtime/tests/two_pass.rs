//! Compile-once / prove-many pipeline equivalence and digest stability.
//!
//! The two-pass pipeline (witness-free shape pass + witness pass) must be
//! observably identical to the single-pass reference sink
//! (`circuit.synthesize(&mut ConstraintSystem::new())`): same matrices,
//! same public outputs, same shape digests, same full assignment — across
//! random matmul dimensions, strategies, output binding and every model
//! preset.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use zkvc_core::api::{compile_shape, generate_witness_for, Circuit};
use zkvc_core::matmul::{MatMulBuilder, Strategy};
use zkvc_core::Backend;
use zkvc_ff::Fr;
use zkvc_nn::circuit::ModelStatement;
use zkvc_r1cs::{shape_digest, ConstraintSystem};
use zkvc_runtime::{KeyCache, ModelPreset};

/// The oracle: one eager pass recording structure and values together.
fn single_pass(circuit: &dyn Circuit) -> ConstraintSystem<Fr> {
    let mut cs = ConstraintSystem::new();
    circuit.synthesize(&mut cs);
    cs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Two-pass and single-pass produce identical matrices, digests,
    /// public outputs and full assignments for random matmul statements.
    #[test]
    fn prop_two_pass_matches_single_pass_matmul(
        a in 1usize..5,
        n in 1usize..5,
        b in 1usize..5,
        seed in 0u64..500,
        strategy_idx in 0usize..4,
        public_idx in 0usize..2,
    ) {
        let strategy = Strategy::ALL[strategy_idx];
        let public = public_idx == 1;
        let mut rng = StdRng::seed_from_u64(seed);
        let circuit = MatMulBuilder::new(a, n, b)
            .strategy(strategy)
            .public_outputs(public)
            .build_circuit_random(&mut rng);
        let cs = single_pass(&circuit);
        prop_assert!(cs.is_satisfied());

        let shape = compile_shape(&circuit);
        prop_assert_eq!(shape.digest, shape_digest(&cs));
        let reference = cs.to_matrices();
        prop_assert_eq!(&shape.matrices.a, &reference.a);
        prop_assert_eq!(&shape.matrices.b, &reference.b);
        prop_assert_eq!(&shape.matrices.c, &reference.c);
        prop_assert_eq!(&circuit.public_outputs()[..], cs.instance_assignment());

        let witness = generate_witness_for(&circuit, &shape);
        prop_assert_eq!(witness.full(), cs.full_assignment());
        prop_assert!(shape.is_satisfied(&witness));
    }
}

#[test]
fn model_presets_two_pass_matches_single_pass() {
    for preset in ModelPreset::ALL {
        let (model, schedule) = preset.config();
        let z = <Fr as zkvc_ff::PrimeField>::from_u64(0x5EED_0000 + preset as u64);
        let statement = ModelStatement::new(model, schedule, Strategy::CrpcPsq, 3, z);
        let cs = single_pass(&statement);
        let shape = compile_shape(&statement);
        assert_eq!(shape.digest, shape_digest(&cs), "{preset:?} digest");
        assert_eq!(shape.matrices.a, cs.to_matrices().a, "{preset:?} matrices");
        let witness = generate_witness_for(&statement, &shape);
        assert_eq!(witness.full(), cs.full_assignment(), "{preset:?}");
        assert_eq!(
            &statement.public_outputs()[..],
            cs.instance_assignment(),
            "{preset:?} logits"
        );
    }
}

#[test]
fn setup_path_never_materialises_witness_values() {
    // A circuit whose witness closures panic if ever invoked: the cache's
    // setup path (template and digest-keyed) and shape digests must all
    // run clean. Only a witness pass may blow up.
    struct PanickyWitness;
    impl Circuit for PanickyWitness {
        fn synthesize(&self, sink: &mut dyn zkvc_r1cs::ConstraintSink<zkvc_ff::Fr>) {
            use zkvc_ff::PrimeField;
            use zkvc_r1cs::SinkExt;
            let out = sink.alloc_instance_lazy(|| panic!("instance materialised during setup"));
            let x = sink.alloc_witness_lazy(|| panic!("witness materialised during setup"));
            let sq = sink.alloc_witness_opt(
                sink.wants_values()
                    .then(|| panic!("derived witness materialised during setup"))
                    .map(|()| zkvc_ff::Fr::from_u64(0)),
            );
            sink.enforce(x.into(), x.into(), sq.into());
            sink.enforce_equal(sq.into(), out.into());
        }
    }

    let circuit = PanickyWitness;
    let digest = circuit.shape_digest(); // witness-free
    let cache = KeyCache::new();
    for backend in Backend::ALL {
        let (keys, hit) = cache.get_or_setup_template(backend, 0, "panicky", &circuit);
        // Second template with identical structure: digest-level dedup,
        // still no witness values.
        let (_, _) = cache.get_or_setup_circuit(backend, &circuit);
        assert!(!hit, "{backend:?}");
        assert_eq!(keys.digest, digest, "{backend:?}");
        assert_eq!(keys.shape.num_witness(), 2);
    }
    // The witness pass is the only place the closures run.
    let shape = compile_shape(&circuit);
    let result = std::panic::catch_unwind(|| generate_witness_for(&circuit, &shape));
    assert!(result.is_err(), "witness pass must invoke the closures");
}
