//! # zkvc-spartan
//!
//! A Spartan-style transparent zk-SNARK for R1CS (Setty, CRYPTO 2020),
//! used as the `zkVC-S` backend of the paper. No trusted setup: the proof
//! consists of
//!
//! 1. a Pedersen vector commitment to the witness,
//! 2. a degree-3 sum-check reducing `Az ∘ Bz - Cz = 0` to a random point,
//! 3. a degree-2 sum-check reducing the three matrix-vector claims to one
//!    evaluation of the assignment MLE, and
//! 4. a Bulletproofs-style inner-product argument opening that evaluation
//!    against the witness commitment.
//!
//! Deviation from the original Spartan: the verifier evaluates the
//! multilinear extensions of the public R1CS matrices directly (`O(nnz)`
//! field work) instead of via SPARK sparse-polynomial commitments, so
//! verification is linear in the matrix density rather than
//! poly-logarithmic. Prover cost — the quantity the paper's experiments
//! measure — has the same profile as Spartan.
//!
//! ## Example
//!
//! ```rust
//! use zkvc_spartan::SpartanProver;
//! use zkvc_r1cs::{ConstraintSink, ShapeBuilder, SinkExt, WitnessFiller};
//! use zkvc_ff::{Fr, PrimeField};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // x * x = 36 with public 36, written once against the sink trait.
//! fn square(sink: &mut dyn ConstraintSink<Fr>) {
//!     let out = sink.alloc_instance_lazy(|| Fr::from_u64(36));
//!     let x = sink.alloc_witness_lazy(|| Fr::from_u64(6));
//!     sink.enforce(x.into(), x.into(), out.into());
//! }
//!
//! // Shape pass (witness-free) for preprocessing, witness pass for proving.
//! let mut shape = ShapeBuilder::new();
//! square(&mut shape);
//! let shape = shape.finish();
//! let mut witness = WitnessFiller::new();
//! square(&mut witness);
//! let witness = witness.finish_for(&shape);
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let prover = SpartanProver::preprocess_shape(&shape);
//! let proof = prover.prove_assignment(&witness.instance, &witness.witness, &mut rng);
//! assert!(prover.to_verifier().verify(&witness.instance, &proof));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

mod ipa;
mod pedersen;
mod serial;
mod snark;
pub mod sumcheck;

pub use ipa::{InnerProductProof, IpaGenerators};
pub use pedersen::PedersenGenerators;
pub use snark::{SpartanProof, SpartanProver, SpartanVerifier};
