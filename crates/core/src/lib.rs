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
//! * [`api`] — the circuit-generic proving API: the [`Circuit`] and
//!   [`ProofSystem`] traits and their Groth16/Spartan implementations.
//! * [`backend`] — the [`Backend`] enum, a `Copy` tag naming the two
//!   [`ProofSystem`] implementations, plus the key/proof types and the
//!   per-run cost metrics used by the benchmark harnesses.
//! * [`schemes`] — the qualitative feature matrix of Table I.
//!
//! ## Example
//!
//! ```rust
//! use zkvc_core::api::compile_shape;
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
//! // prove-many sequence), then verify against the circuit's shape.
//! let system = Backend::Groth16.system();
//! let artifacts = system.prove_oneshot(&circuit, &mut rng);
//! assert!(system.verify_with_shape(&compile_shape(&circuit), &artifacts));
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

pub use api::{Circuit, ProofSystem};
pub use backend::{
    Backend, ProofArtifacts, ProveMetrics, ProverKey, UnknownTokenError, VerifierKey,
};
pub use fixed::FixedPointConfig;
pub use matmul::{MatMulBuilder, MatMulCircuit, Strategy};
