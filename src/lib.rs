//! # zkVC
//!
//! A from-scratch Rust reproduction of **"zkVC: Fast Zero-Knowledge Proof
//! for Private and Verifiable Computing"** (DAC 2025): efficient zk-SNARK
//! circuits for matrix multiplication (CRPC + PSQ), verified non-linear
//! approximations, and end-to-end verifiable Transformer inference over two
//! proof-system backends built in this workspace (Groth16 and a
//! Spartan-style transparent SNARK).
//!
//! This crate is the umbrella: it re-exports every sub-crate so downstream
//! users can depend on `zkvc` alone.
//!
//! ```rust
//! use std::sync::Arc;
//! use zkvc::core::api::{compile_shape, generate_witness_for};
//! use zkvc::core::matmul::{MatMulBuilder, Strategy};
//! use zkvc::core::Backend;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let x = vec![vec![1i64, 2], vec![3, 4]];
//! let w = vec![vec![5i64, 6], vec![7, 8]];
//! // Public outputs (the default): the proof binds Y, not just the
//! // circuit shape.
//! let circuit = MatMulBuilder::new(2, 2, 2)
//!     .strategy(Strategy::CrpcPsq)
//!     .build_circuit_integers(&x, &w);
//! let backend = Backend::Spartan;
//! // Once per shape: compile + setup. Once per statement: witness + prove.
//! let shape = Arc::new(compile_shape(&circuit));
//! let (pk, vk) = backend.setup_shape(&shape, &mut rng);
//! let witness = generate_witness_for(&circuit, &shape);
//! let proof = backend.prove_assignment(&pk, &witness, &mut rng);
//! assert!(vk.verify(&proof.public_inputs, &proof.data));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

/// Finite fields, polynomials, FFT domains and multilinear extensions.
pub use zkvc_ff as ff;

/// The pairing-friendly curve, MSM and the Tate pairing.
pub use zkvc_curve as curve;

/// SHA-256 and Fiat-Shamir transcripts.
pub use zkvc_hash as hash;

/// R1CS constraint sinks, compiled shapes and the gadget library.
pub use zkvc_r1cs as r1cs;

/// The R1CS-to-QAP reduction.
pub use zkvc_qap as qap;

/// The Groth16 zk-SNARK (the `zkVC-G` backend).
pub use zkvc_groth16 as groth16;

/// The Spartan-style transparent SNARK (the `zkVC-S` backend).
pub use zkvc_spartan as spartan;

/// The interactive sum-check matmul baseline (zkCNN-style).
pub use zkvc_interactive as interactive;

/// The paper's contribution: CRPC, PSQ, non-linear gadgets and the
/// high-level prove/verify API.
pub use zkvc_core as core;

/// The quantised Transformer substrate and model-to-circuit compiler.
pub use zkvc_nn as nn;

/// The batch-proving service: key caching, the concurrent proving pool,
/// proof envelopes, and the `zkvc` CLI's job grammar.
pub use zkvc_runtime as runtime;
