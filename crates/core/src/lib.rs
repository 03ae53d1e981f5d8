//! # zkvc-core
//!
//! The paper's contribution: efficient zk-SNARK circuits for matrix
//! multiplication and the non-linear approximations needed to verify
//! Transformer inference.
//!
//! * [`matmul`] — the four circuit strategies compared throughout the
//!   paper's evaluation: the vanilla `O(abn)`-constraint circuit, the
//!   vanilla circuit with **PSQ** (Prefix-Sum Query) accumulation, **CRPC**
//!   (Constraint-Reduced Polynomial Circuits) with `O(n)` constraints, and
//!   CRPC + PSQ (the full zkVC construction).
//! * [`nonlinear`] — SoftMax (max-normalisation + clipped Taylor
//!   exponential), GELU (quadratic polynomial) and reciprocal-square-root
//!   gadgets, all over fixed-point arithmetic.
//! * [`fixed`] — NITI-style fixed-point quantisation shared with `zkvc-nn`.
//! * [`api`] — the circuit half of the proving API: the [`Circuit`]
//!   trait, its witness-free shape pass and its witness pass.
//! * [`backend`] — the proving half: the [`Backend`] enum, a `Copy` tag
//!   whose methods set up and prove on Groth16 or Spartan, and the key and
//!   proof types, with [`VerifierKey::verify`] as the one verifier.
//! * [`schemes`] — the qualitative feature matrix of Table I.
//!
//! ## Example
//!
//! ```rust
//! use zkvc_core::matmul::{MatMulBuilder, Strategy};
//! use zkvc_core::backend::Backend;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! // Y = X * W for a small integer matrix multiplication.
//! let x = vec![vec![1i64, 2], vec![3, 4]];
//! let w = vec![vec![5i64, 6], vec![7, 8]];
//! let circuit = MatMulBuilder::new(2, 2, 2)
//!     .strategy(Strategy::CrpcPsq)
//!     .build_circuit_integers(&x, &w);
//! // Setup + prove in one call (see `zkvc_core::api` for the split,
//! // prove-many sequence), then verify under the setup's verifier key.
//! let (artifacts, vk) = Backend::Groth16.prove_oneshot(&circuit, &mut rng);
//! assert!(vk.verify(&artifacts.public_inputs, &artifacts.data));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod api;
pub mod backend;
pub mod fixed;
pub mod matmul;
pub mod nonlinear;
pub mod schemes;

pub use api::Circuit;
pub use backend::{Backend, ProofArtifacts, ProverKey, UnknownTokenError, VerifierKey};
pub use fixed::FixedPointConfig;
pub use matmul::{MatMulBuilder, MatMulCircuit, Strategy};
