//! # zkvc-groth16
//!
//! A from-scratch implementation of the Groth16 zk-SNARK
//! (J. Groth, "On the Size of Pairing-Based Non-Interactive Arguments",
//! EUROCRYPT 2016) over the zkVC pairing curve. This is the `zkVC-G`
//! backend of the paper: constant-size proofs (3 group elements), constant
//! verification time (one three-pair pairing product + one small MSM), and
//! a prover dominated by four multi-scalar multiplications plus the QAP
//! quotient FFTs.
//!
//! The trusted setup is circuit-specific; `zkvc-core` re-runs it per matrix
//! shape, exactly as libsnark does for the paper's experiments.
//!
//! ## Example
//!
//! ```rust
//! use std::sync::Arc;
//! use zkvc_groth16::{prove_assignment, setup_shape, verify};
//! use zkvc_r1cs::{ConstraintSink, ShapeBuilder, SinkExt, WitnessFiller};
//! use zkvc_ff::{Fr, PrimeField};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // x * x = 25 with public 25, written once against the sink trait.
//! fn square(sink: &mut dyn ConstraintSink<Fr>) {
//!     let out = sink.alloc_instance_lazy(|| Fr::from_u64(25));
//!     let x = sink.alloc_witness_lazy(|| Fr::from_u64(5));
//!     sink.enforce(x.into(), x.into(), out.into());
//! }
//!
//! // Shape pass (witness-free) for setup, witness pass for proving.
//! let mut shape = ShapeBuilder::new();
//! square(&mut shape);
//! let shape = Arc::new(shape.finish());
//! let mut witness = WitnessFiller::new();
//! square(&mut witness);
//! let witness = witness.finish_for(&shape);
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let (pk, vk) = setup_shape(shape, &mut rng);
//! let proof = prove_assignment(&pk, &witness.full(), &mut rng);
//! assert!(verify(&vk, &witness.instance, &proof));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

mod keys;
mod prover;
#[cfg(test)]
mod testutil;
mod verifier;

pub use keys::{setup_shape, verifying_key_for_shape, Proof, ProvingKey, VerifyingKey};
pub use prover::prove_assignment;
pub use verifier::{prepare_inputs, verify};
