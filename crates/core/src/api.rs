//! The circuit half of the proving API: the [`Circuit`] trait, the two
//! passes over it, and the one statement-binding construction. *What* is
//! proved lives here; *how* — setup, prove and verify on Groth16 or
//! Spartan — lives on [`Backend`](crate::Backend) and
//! [`VerifierKey`](crate::VerifierKey).
//!
//! A [`Circuit`] is a *driver*: its [`Circuit::synthesize`] emits the
//! constraint structure (and, when the sink carries values, the witness)
//! into any [`ConstraintSink`]. Running it against a [`ShapeBuilder`]
//! yields a [`CompiledShape`] — flat CSR matrices plus the canonical shape
//! digest — **without ever materialising a witness value**; running it
//! against a [`WitnessFiller`] yields only the flat assignment for a shape
//! compiled earlier. Setup consumes shapes, proving consumes assignments —
//! a [`CompiledShape`] and a [`WitnessAssignment`] are the only things a
//! prover accepts — and a prove-many workload compiles each shape exactly
//! once.
//!
//! A circuit's **public outputs** are its instance assignment: the values a
//! proof *binds*. A circuit with no instance variables (e.g. a matmul with
//! X, W and Y all private) only commits to its shape — any honest proof for
//! the same shape verifies interchangeably. Exposing outputs as public
//! inputs (`MatMulBuilder`'s default, see `MatMulBuilder::public_outputs`)
//! upgrades that to statement-level binding: a proof replayed against
//! different claimed outputs fails verification.
//!
//! ```rust
//! use std::sync::Arc;
//! use zkvc_core::api::{compile_shape, generate_witness_for};
//! use zkvc_core::matmul::{MatMulBuilder, Strategy};
//! use zkvc_core::Backend;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let x = vec![vec![1i64, 2], vec![3, 4]];
//! let w = vec![vec![5i64, 6], vec![7, 8]];
//! let circuit = MatMulBuilder::new(2, 2, 2)
//!     .strategy(Strategy::CrpcPsq)
//!     .build_circuit_integers(&x, &w);
//!
//! // Pick a backend at runtime; once per shape: compile + setup.
//! let backend = Backend::Spartan;
//! let shape = Arc::new(compile_shape(&circuit));
//! let (pk, vk) = backend.setup_shape(&shape, &mut rng);
//! // Once per statement: witness pass + prove.
//! let witness = generate_witness_for(&circuit, &shape);
//! let artifacts = backend.prove_assignment(&pk, &witness, &mut rng);
//! assert!(vk.verify(&artifacts.public_inputs, &artifacts.data));
//!
//! // The proof binds the public outputs: tampering with Y must fail.
//! let mut tampered = artifacts.public_inputs.clone();
//! tampered[0] += zkvc_ff::Fr::one();
//! # use zkvc_ff::Field;
//! assert!(!vk.verify(&tampered, &artifacts.data));
//! ```

use zkvc_ff::Fr;
use zkvc_r1cs::{
    CompiledShape, ConstraintSink, LinearCombination, ShapeBuilder, WitnessAssignment,
    WitnessFiller,
};

/// A statement plus (when asked for) its witness, as a synthesis driver.
///
/// `synthesize` must be **pass-oblivious**: it emits the same allocation
/// and constraint sequence whether or not the sink wants values, and only
/// computes witness data when it does (the `Option`-returning sink
/// evaluators make the skip natural). That contract is what lets
/// [`compile_shape`] run witness-free and [`generate_witness_for`] skip
/// all structural bookkeeping.
pub trait Circuit {
    /// Drives synthesis into the sink: structure always, values only when
    /// `sink.wants_values()`.
    fn synthesize(&self, sink: &mut dyn ConstraintSink<Fr>);

    /// Human-readable label for reports and diagnostics.
    fn name(&self) -> String {
        "r1cs".to_string()
    }

    /// The public outputs this statement binds — the circuit's instance
    /// assignment, in allocation order. Empty for circuits that keep every
    /// value private (shape-level binding only).
    ///
    /// The default runs a witness pass; implementors that cache their
    /// outputs should override it.
    fn public_outputs(&self) -> Vec<Fr> {
        let mut filler = WitnessFiller::new();
        self.synthesize(&mut filler);
        filler.finish().instance
    }

    /// A collision-resistant fingerprint of the circuit *structure* (not
    /// the assignment): the identity under which proving/verifying key
    /// material is reusable. The default compiles the shape — witness-free
    /// — and takes its digest.
    fn shape_digest(&self) -> [u8; 32] {
        compile_shape(self).digest
    }

    /// The number of public outputs this circuit's *statement* exposes —
    /// what the static analyzer checks the compiled shape against. For a
    /// well-formed circuit this equals the instance count; a circuit that
    /// declares more than its shape allocates (a matmul compiled with its
    /// outputs left private) is flagged `unbound-public` by
    /// `CompiledShape::analyze`.
    ///
    /// The default counts [`Circuit::public_outputs`] (a witness pass);
    /// implementors that know their statement arity should override with
    /// the cheap answer.
    fn declared_publics(&self) -> usize {
        self.public_outputs().len()
    }
}

/// Runs the witness-free shape pass over a circuit, producing its
/// [`CompiledShape`]: CSR matrices plus the canonical digest. No witness
/// value is ever materialised.
pub fn compile_shape<C: Circuit + ?Sized>(circuit: &C) -> CompiledShape<Fr> {
    let mut builder = ShapeBuilder::new();
    circuit.synthesize(&mut builder);
    builder.finish()
}

/// Runs the witness pass over a circuit, producing only the flat
/// instance/witness assignment (no constraints are stored), validated
/// against the already-compiled shape the assignment will be proved under.
///
/// # Panics
/// Panics if the circuit's allocation or constraint counts diverge from
/// the shape: either the circuit is not the one the shape was compiled
/// from, or its `synthesize` is not pass-oblivious.
pub fn generate_witness_for<C: Circuit + ?Sized>(
    circuit: &C,
    shape: &CompiledShape<Fr>,
) -> WitnessAssignment<Fr> {
    let mut filler = WitnessFiller::new();
    circuit.synthesize(&mut filler);
    filler.finish_for(shape)
}

/// Pins each value to its public counterpart with one equality constraint
/// per cell: `(value_i - public_i) * 1 = 0`.
///
/// This is the one audited form of the statement-binding construction,
/// shared by the CRPC public-output matmuls and `zkvc-nn`'s logit binding.
/// Per-cell constraints are essential: any single *aggregate* relation
/// over the publics (e.g. the CRPC Z-fold, whose `Z` is public) can be
/// satisfied by a forged assignment with the same aggregate, whereas one
/// constraint per cell gives every public output its own independent
/// column in the verification key.
///
/// # Panics
/// Panics if the two slices differ in length.
pub fn bind_public_outputs<S: ConstraintSink<Fr> + ?Sized>(
    cs: &mut S,
    values: &[LinearCombination<Fr>],
    publics: &[LinearCombination<Fr>],
) {
    assert_eq!(
        values.len(),
        publics.len(),
        "binding requires one public cell per value"
    );
    for (value, public) in values.iter().zip(publics.iter()) {
        cs.enforce_named(
            value.clone() - public,
            LinearCombination::constant(zkvc_ff::Field::one()),
            LinearCombination::zero(),
            "public output binding",
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Backend, ProofArtifacts, ProverKey, VerifierKey};
    use crate::matmul::{MatMulBuilder, MatMulCircuit, Strategy};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::panic::catch_unwind;
    use std::sync::Arc;
    use zkvc_ff::{Field, PrimeField};
    use zkvc_r1cs::{shape_digest, ConstraintSystem, SinkExt};

    /// `coeff * w * w = out` with `out` public: the smallest circuit with
    /// a real public input. Different `coeff`s are different shapes with
    /// identical variable and constraint counts.
    struct Square {
        w: u64,
        coeff: u64,
    }

    impl Square {
        fn of(w: u64) -> Self {
            Square { w, coeff: 1 }
        }
    }

    impl Circuit for Square {
        fn synthesize(&self, sink: &mut dyn ConstraintSink<Fr>) {
            let out = sink.alloc_instance_lazy(|| Fr::from_u64(self.coeff * self.w * self.w));
            let w = sink.alloc_witness_lazy(|| Fr::from_u64(self.w));
            sink.enforce(
                LinearCombination::from(w) * Fr::from_u64(self.coeff),
                w.into(),
                out.into(),
            );
        }

        fn name(&self) -> String {
            "square".to_string()
        }
    }

    fn matmul(strategy: Strategy) -> MatMulCircuit {
        let x = vec![vec![1i64, -2, 3], vec![4, 5, -6]];
        let w = vec![vec![7i64, 8], vec![-9, 10], vec![11, -12]];
        MatMulBuilder::new(2, 3, 2)
            .strategy(strategy)
            .build_circuit_integers(&x, &w)
    }

    /// Compile + setup: the once-per-shape half of the pipeline.
    fn setup(
        backend: Backend,
        circuit: &dyn Circuit,
        rng: &mut StdRng,
    ) -> (Arc<CompiledShape<Fr>>, ProverKey, VerifierKey) {
        let shape = Arc::new(compile_shape(circuit));
        let (pk, vk) = backend.setup_shape(&shape, rng);
        (shape, pk, vk)
    }

    /// [`setup`] plus the verifier key derived alone from the same rng
    /// state, as a verifier holding only the shape and the setup seed
    /// would: the second key every verdict below is checked under.
    fn setup_and_rederive(
        backend: Backend,
        circuit: &dyn Circuit,
        rng: &mut StdRng,
    ) -> (Arc<CompiledShape<Fr>>, ProverKey, [VerifierKey; 2]) {
        let mut verifier_rng = rng.clone();
        let (shape, pk, vk) = setup(backend, circuit, rng);
        let rederived = backend.setup_verifier(&shape, &mut verifier_rng);
        (shape, pk, [vk, rederived])
    }

    #[test]
    fn every_strategy_roundtrips_on_every_backend() {
        let mut rng = StdRng::seed_from_u64(11);
        for backend in Backend::ALL {
            for strategy in Strategy::ALL {
                let circuit = matmul(strategy);
                let (shape, pk, keys) = setup_and_rederive(backend, &circuit, &mut rng);
                assert_eq!(pk.backend(), backend);
                let witness = generate_witness_for(&circuit, &shape);
                let artifacts = backend.prove_assignment(&pk, &witness, &mut rng);
                assert_eq!(artifacts.data.backend(), backend);
                for vk in &keys {
                    assert_eq!(vk.backend(), backend);
                    assert!(
                        vk.verify(&artifacts.public_inputs, &artifacts.data),
                        "{backend:?}/{strategy:?}"
                    );
                }
                assert_eq!(artifacts.public_inputs, witness.instance);

                let size = artifacts.data.size_in_bytes();
                if backend == Backend::Groth16 {
                    assert_eq!(size, 195);
                } else {
                    assert!(size > 0);
                }
            }
        }
    }

    #[test]
    fn one_key_proves_many_statements_of_one_shape() {
        // One setup, many proofs: the core amortisation contract the
        // runtime's KeyCache builds on.
        let mut rng = StdRng::seed_from_u64(21);
        for backend in Backend::ALL {
            let (shape, pk, keys) = setup_and_rederive(backend, &Square::of(12), &mut rng);
            for w in [12, 13] {
                let witness = generate_witness_for(&Square::of(w), &shape);
                let artifacts = backend.prove_assignment(&pk, &witness, &mut rng);
                for vk in &keys {
                    assert!(
                        vk.verify(&artifacts.public_inputs, &artifacts.data),
                        "{backend:?} w={w}"
                    );
                }
                assert_eq!(artifacts.public_inputs, vec![Fr::from_u64(w * w)]);
            }
        }
    }

    #[test]
    fn tampered_public_input_rejected_keyed_and_keyless() {
        // Keyed: under the setup's own key. Keyless: under the key a
        // verifier derives without the prover's keys.
        let mut rng = StdRng::seed_from_u64(14);
        for backend in Backend::ALL {
            let circuit = Square::of(12);
            let (shape, pk, [vk, rederived]) = setup_and_rederive(backend, &circuit, &mut rng);
            let witness = generate_witness_for(&circuit, &shape);
            let mut artifacts = backend.prove_assignment(&pk, &witness, &mut rng);
            let verifies = |vk: &VerifierKey, artifacts: &ProofArtifacts| {
                vk.verify(&artifacts.public_inputs, &artifacts.data)
            };
            assert!(verifies(&rederived, &artifacts), "{backend:?} honest");
            artifacts.public_inputs[0] = Fr::from_u64(143);
            assert!(!verifies(&vk, &artifacts), "{backend:?} keyed");
            assert!(!verifies(&rederived, &artifacts), "{backend:?} keyless");
        }
    }

    #[test]
    fn cross_backend_artifacts_and_keys_are_rejected() {
        // A key/proof mismatch is a `false`, not a panic.
        let mut rng = StdRng::seed_from_u64(13);
        let circuit = matmul(Strategy::CrpcPsq);
        let [(g, vk_g), (s, vk_s)] = Backend::ALL.map(|b| b.prove_oneshot(&circuit, &mut rng));
        assert!(!vk_g.verify(&s.public_inputs, &s.data));
        assert!(!vk_s.verify(&g.public_inputs, &g.data));
        assert!(vk_g.verify(&g.public_inputs, &g.data));
        assert!(vk_s.verify(&s.public_inputs, &s.data));
    }

    #[test]
    #[should_panic(expected = "backend/key mismatch")]
    fn groth16_proving_with_a_spartan_key_panics() {
        let mut rng = StdRng::seed_from_u64(23);
        let circuit = Square::of(4);
        let (shape, pk, _) = setup(Backend::Spartan, &circuit, &mut rng);
        let witness = generate_witness_for(&circuit, &shape);
        Backend::Groth16.prove_assignment(&pk, &witness, &mut rng);
    }

    #[test]
    #[should_panic(expected = "backend/key mismatch")]
    fn spartan_proving_with_a_groth16_key_panics() {
        let mut rng = StdRng::seed_from_u64(33);
        let circuit = Square::of(4);
        let (shape, pk, _) = setup(Backend::Groth16, &circuit, &mut rng);
        let witness = generate_witness_for(&circuit, &shape);
        Backend::Spartan.prove_assignment(&pk, &witness, &mut rng);
    }

    #[test]
    fn shape_mismatch_is_caught_at_witness_or_prove_time() {
        // Every assignment reaches a prover through `generate_witness_for`,
        // so the shape check is unconditional. Two ways to get it wrong:
        let mut rng = StdRng::seed_from_u64(37);
        let honest = Square::of(5);
        for backend in Backend::ALL {
            // (a) different variable counts: the witness pass itself
            // refuses the foreign shape.
            let other_counts = compile_shape(&matmul(Strategy::Vanilla));
            let refused = catch_unwind(|| generate_witness_for(&honest, &other_counts));
            assert!(refused.is_err(), "{backend:?}: foreign shape accepted");

            // (b) same counts, different coefficients: the witness pass
            // cannot tell, and the prover does not check satisfaction, so
            // it returns a proof — one the shape-B key must reject.
            let shape_a = compile_shape(&honest);
            let (shape_b, pk_b, vk_b) = setup(backend, &Square { w: 5, coeff: 3 }, &mut rng);
            assert_ne!(shape_a.digest, shape_b.digest);
            let witness_a = generate_witness_for(&honest, &shape_b);
            assert!(shape_a.is_satisfied(&witness_a) && !shape_b.is_satisfied(&witness_a));
            let artifacts = backend.prove_assignment(&pk_b, &witness_a, &mut rng);
            assert!(
                !vk_b.verify(&artifacts.public_inputs, &artifacts.data),
                "{backend:?}: shape-A witness proved under a shape-B key"
            );
        }
    }

    #[test]
    fn setup_is_witness_free() {
        // A circuit whose witness closures panic when invoked: setup and
        // shape digests must run without touching them.
        struct PanickyWitness;
        impl Circuit for PanickyWitness {
            fn synthesize(&self, sink: &mut dyn ConstraintSink<Fr>) {
                let out = sink.alloc_instance_lazy(|| panic!("instance value materialised"));
                let w = sink.alloc_witness_lazy(|| panic!("witness value materialised"));
                sink.enforce(w.into(), w.into(), out.into());
            }
        }
        let circuit = PanickyWitness;
        let shape = Arc::new(compile_shape(&circuit));
        assert_eq!(shape.num_constraints(), 1);
        assert_eq!(shape.num_instance(), 1);
        assert_eq!(shape.num_witness(), 1);
        assert_eq!(circuit.shape_digest(), shape.digest);
        let mut rng = StdRng::seed_from_u64(36);
        for backend in Backend::ALL {
            let _ = backend.setup_shape(&shape, &mut rng);
        }
        // The witness pass, by contrast, must blow up.
        assert!(catch_unwind(|| generate_witness_for(&circuit, &shape)).is_err());
    }

    #[test]
    fn circuit_defaults_match_the_single_pass_reference() {
        let circuit = Square::of(12);
        assert_eq!(circuit.name(), "square");
        assert_eq!(circuit.public_outputs(), vec![Fr::from_u64(144)]);
        assert_eq!(circuit.declared_publics(), 1);
        let mut cs = ConstraintSystem::<Fr>::new();
        circuit.synthesize(&mut cs);
        assert!(cs.is_satisfied());
        assert_eq!(circuit.shape_digest(), shape_digest(&cs));

        let private = MatMulBuilder::new(2, 3, 2)
            .public_outputs(false)
            .build_circuit_integers(&vec![vec![1; 3]; 2], &vec![vec![1; 2]; 3]);
        assert!(private.name().contains("2x3x2"));
        // Private-output statements bind nothing.
        assert!(private.public_outputs().is_empty());
    }

    #[test]
    fn digest_covers_structure_not_assignment() {
        let digest = |c: &dyn Circuit| c.shape_digest();
        let base = digest(&Square::of(3));
        assert_eq!(base, digest(&Square::of(7)));
        // Different coefficient.
        assert_ne!(base, digest(&Square { w: 3, coeff: 2 }));

        /// `Square::of(3)` plus one structural change.
        struct Variant(u8);
        impl Circuit for Variant {
            fn synthesize(&self, sink: &mut dyn ConstraintSink<Fr>) {
                let nine = || Fr::from_u64(9);
                // Variant 2 moves `out` from the instance to the witness:
                // identical matrices, different instance/witness split.
                let out = if self.0 == 2 {
                    sink.alloc_witness_lazy(nine)
                } else {
                    sink.alloc_instance_lazy(nine)
                };
                let w = sink.alloc_witness_lazy(|| Fr::from_u64(3));
                sink.enforce(w.into(), w.into(), out.into());
                match self.0 {
                    0 => sink.enforce_zero(LinearCombination::zero()), // extra constraint
                    1 => drop(sink.alloc_witness_lazy(Fr::zero)),      // extra variable
                    _ => {}
                }
            }
        }
        for v in 0..3 {
            assert_ne!(base, digest(&Variant(v)), "variant {v}");
        }
    }
}
