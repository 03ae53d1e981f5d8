//! # zkvc-runtime
//!
//! The batch-proving service layer above the `zkvc-core` proof systems:
//! turns the one-shot prove call into a reusable, concurrent pipeline. The
//! whole layer is **circuit-generic** — jobs route through the
//! [`Circuit`](zkvc_core::Circuit)/[`ProofSystem`](zkvc_core::ProofSystem)
//! traits, so a bare matmul and a whole Transformer-block inference are
//! the same thing to the pool, the cache and the CLI.
//!
//! * [`KeyCache`] — runs
//!   [`ProofSystem::setup_shape`](zkvc_core::ProofSystem::setup_shape)
//!   once per circuit shape (keyed by
//!   [`Circuit::shape_digest`](zkvc_core::Circuit::shape_digest)) and
//!   shares the resulting [`ProverKey`](zkvc_core::ProverKey)/
//!   [`VerifierKey`](zkvc_core::VerifierKey) across every job that proves
//!   that shape (Groth16 CRS and Spartan preprocessing both amortise this
//!   way).
//! * [`derive_verifier_key`] — the verifier key alone, from the same seed
//!   the cache's setup uses: `zkvc verify` re-derives its key from
//!   `(spec, seed)` on every run and reads no key from disk.
//! * [`ProvingPool`] — worker threads fed by a sharded **work-stealing
//!   scheduler** (per-worker deques, steal-on-idle, job priorities,
//!   bounded-queue backpressure, cooperative cancellation, per-job panic
//!   containment) with `submit`/`join` semantics, per-job metrics
//!   ([`JobResult`]) and aggregate throughput stats ([`BatchReport`]).
//! * [`serve`] — the resident `zkvc serve` loop: JSON-lines requests in,
//!   streamed proof responses out, key cache warm across requests.
//! * [`analysis`] — the `zkvc analyze` layer: runs the `zkvc-r1cs`
//!   static soundness lints over the circuit a [`JobSpec`] names, sweeps
//!   the shipping spec matrix for the CI gate, and pre-flights serve
//!   requests (`--analyze-on-compile`).
//! * [`ProofEnvelope`] — the self-describing byte format proofs travel in
//!   (the pool round-trips every proof through it before verifying).
//! * [`JobSpec`] — the job grammar shared with the `zkvc` CLI binary:
//!   `AxNxB` matmuls (public outputs by default, so proofs bind the
//!   concrete `Y`) and [`ModelPreset`] forward passes whose logits are
//!   always bound.
//! * [`Error`] — the typed error surface of the CLI command paths, with
//!   data-driven process exit codes.
//!
//! ## Example
//!
//! ```rust
//! use zkvc_runtime::{prove_batch, JobSpec, ModelPreset};
//! use zkvc_core::Backend;
//!
//! // Four same-shape matmul jobs: one setup, four proofs, two workers.
//! let specs = vec![JobSpec::new(2, 3, 2).with_backend(Backend::Spartan); 4];
//! let report = prove_batch(&specs, 2, 1);
//! assert!(report.all_verified());
//! assert_eq!(report.cache.misses, 1);
//! assert_eq!(report.cache.hits, 3);
//!
//! // A whole model block goes through the same pipeline.
//! let nn = vec![JobSpec::model(ModelPreset::MixerBlock).with_backend(Backend::Spartan)];
//! assert!(prove_batch(&nn, 1, 1).all_verified());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod analysis;
mod cache;
pub mod codec;
mod error;
pub mod fault;
mod job;
pub mod net;
mod pool;
mod sched;
mod serial;
mod serve;
mod spec;
mod util;
pub mod wire;

pub use analysis::{analyze_spec, analyze_specs, Baseline, Preflight, SpecAnalysis};
pub use cache::{derive_verifier_key, CacheStats, CircuitKeys, KeyCache};
pub use error::Error;
pub use job::build_statement;
pub use net::{
    run_client, serve_listener, AnyStream, ClientConfig, ClientReport, ListenAddr, NetConfig,
    NetSummary, SessionReport,
};
pub use pool::{
    prove_batch, prove_batch_serial, BatchKey, BatchReport, JobError, JobOptions, JobResult,
    PoolConfig, ProvingPool, ResultSink, SessionCtl,
};
pub use sched::Priority;
pub use serial::ProofEnvelope;
pub use serve::{serve, ServeConfig, ServeSummary, DEFAULT_CACHE_BYTES};
pub use spec::{JobSpec, ModelPreset, SMALL_MATMUL_CELLS};
/// The proof a [`ProofEnvelope`] holds, under its earlier runtime name;
/// kept for the benchmark under `benchmark/`, which matches on it.
pub use zkvc_core::backend::ProofData as EnvelopeProof;
