//! # zkvc-bench
//!
//! Shared measurement plumbing for the harness binaries that regenerate
//! the paper's tables and figures: each table and figure is reproduced by the binary named after it (`table1`–`table4`,
//! `fig3`, `fig6`).
//!
//! All binaries accept `--full` to run the paper-scale shapes (slow: the
//! substrate here is a portable pure-Rust pairing stack, not libsnark
//! with hand-tuned assembly on a 16-core Threadripper); the default "quick"
//! mode runs reduced shapes with the same structure so that the relative
//! behaviour — who wins and by roughly what factor — is visible in seconds.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkvc_core::api::{compile_shape, generate_witness_for};
use zkvc_core::matmul::{MatMulBuilder, Strategy};
use zkvc_core::Backend;
use zkvc_ff::{Fr, PrimeField};
use zkvc_nn::circuit::ModelStatement;
use zkvc_nn::mixer::MixerSchedule;
use zkvc_nn::models::ModelConfig;

pub mod paper;

/// One measured proving run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Label for the row/series.
    pub label: String,
    /// Setup / preprocessing time.
    pub setup: Duration,
    /// Proving time.
    pub prove: Duration,
    /// Verification time.
    pub verify: Duration,
    /// Proof size in bytes.
    pub proof_bytes: usize,
    /// Number of constraints proved.
    pub constraints: usize,
    /// Whether verification succeeded (must always be true).
    pub ok: bool,
}

impl RunResult {
    /// "Online time": the wall-clock both parties must stay live. For the
    /// non-interactive schemes this is just verification; for the
    /// interactive baseline the caller adds the proving time too.
    pub fn online_time(&self) -> Duration {
        self.verify
    }
}

/// Returns true when `--full` was passed on the command line.
pub fn full_mode() -> bool {
    std::env::args().any(|a| a == "--full")
}

/// The model statement the Table III/IV harnesses prove: synthetic weights
/// from `seed`, and a full-width CRPC challenge derived from it too (the
/// cost profile only needs it not to be small; like the served `Z` it is
/// public before any output exists, see `docs/SOUNDNESS.md`).
pub fn model_statement(
    model: &ModelConfig,
    schedule: &MixerSchedule,
    strategy: Strategy,
    seed: u64,
) -> ModelStatement {
    let z = Fr::from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    ModelStatement::new(model.clone(), schedule.clone(), strategy, seed, z)
}

/// Measures one matmul proving run for a strategy/backend pair.
///
/// Setup (shape compile included) is timed once, separately, and the
/// `prove` column measures proving against the prepared key — so the
/// Figure 3 / Figure 6 numbers report prover cost, not CRS generation.
pub fn run_matmul(
    label: &str,
    dims: (usize, usize, usize),
    strategy: Strategy,
    backend: Backend,
    seed: u64,
) -> RunResult {
    let mut rng = StdRng::seed_from_u64(seed);
    let circuit = MatMulBuilder::new(dims.0, dims.1, dims.2)
        .strategy(strategy)
        .build_circuit_random(&mut rng);
    let t0 = Instant::now();
    let shape = Arc::new(compile_shape(&circuit));
    let (pk, vk) = backend.setup_shape(&shape, &mut rng);
    let setup = t0.elapsed();
    let witness = generate_witness_for(&circuit, &shape);
    let t1 = Instant::now();
    let artifacts = backend.prove_assignment(&pk, &witness, &mut rng);
    let prove = t1.elapsed();
    let t2 = Instant::now();
    let ok = vk.verify(&artifacts.public_inputs, &artifacts.data);
    let verify = t2.elapsed();
    RunResult {
        label: label.to_string(),
        setup,
        prove,
        verify,
        proof_bytes: artifacts.data.size_in_bytes(),
        constraints: shape.num_constraints(),
        ok,
    }
}

/// Measures the interactive (zkCNN-style) sum-check baseline on the same
/// matmul shape.
pub fn run_interactive(label: &str, dims: (usize, usize, usize), seed: u64) -> RunResult {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    let x: Vec<Vec<Fr>> = (0..dims.0)
        .map(|_| {
            (0..dims.1)
                .map(|_| Fr::from_u64(rng.gen_range(0..256)))
                .collect()
        })
        .collect();
    let w: Vec<Vec<Fr>> = (0..dims.1)
        .map(|_| {
            (0..dims.2)
                .map(|_| Fr::from_u64(rng.gen_range(0..256)))
                .collect()
        })
        .collect();
    let claim = zkvc_interactive::MatMulClaim::compute(&x, &w);
    let t0 = Instant::now();
    let proof = zkvc_interactive::prove_matmul(&x, &w, &claim);
    let prove = t0.elapsed();
    let t1 = Instant::now();
    let ok = zkvc_interactive::verify_matmul(&x, &w, &claim, &proof);
    let verify = t1.elapsed();
    RunResult {
        label: label.to_string(),
        setup: Duration::ZERO,
        prove,
        verify,
        proof_bytes: proof.size_in_bytes(),
        constraints: 0,
        ok,
    }
}

/// Formats a duration in seconds with three decimals.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Prints a measured-vs-paper comparison table row by row.
pub fn print_results(title: &str, results: &[RunResult]) {
    println!("\n== {title} ==");
    println!(
        "{:<28} {:>10} {:>10} {:>10} {:>12} {:>12}",
        "series", "setup(s)", "prove(s)", "verify(s)", "proof(B)", "constraints"
    );
    for r in results {
        assert!(r.ok, "verification failed for {}", r.label);
        println!(
            "{:<28} {:>10} {:>10} {:>10} {:>12} {:>12}",
            r.label,
            secs(r.setup),
            secs(r.prove),
            secs(r.verify),
            r.proof_bytes,
            r.constraints
        );
    }
}

/// Computes the speed-up of the last entry relative to the first (used to
/// print "zkVC is N x faster than the baseline").
pub fn speedup(results: &[RunResult]) -> f64 {
    if results.len() < 2 {
        return 1.0;
    }
    let base = results[0].prove.as_secs_f64();
    let last = results[results.len() - 1].prove.as_secs_f64();
    if last == 0.0 {
        f64::INFINITY
    } else {
        base / last
    }
}

/// The matmul dimensions used throughout the paper's micro-benchmarks:
/// `[tokens, dim/2] x [dim/2, dim]` with 49 tokens.
pub fn paper_matmul_dims(embedding_dim: usize) -> (usize, usize, usize) {
    (49, embedding_dim / 2, embedding_dim)
}

/// Reduced version of [`paper_matmul_dims`] for quick mode: same structure,
/// 8 tokens and dimensions divided by 8.
pub fn quick_matmul_dims(embedding_dim: usize) -> (usize, usize, usize) {
    (8, (embedding_dim / 16).max(2), (embedding_dim / 8).max(4))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_run_is_consistent() {
        let r = run_matmul("t", (2, 3, 2), Strategy::CrpcPsq, Backend::Spartan, 1);
        assert!(r.ok);
        // The served statement: n product rows plus a*b binding rows.
        assert_eq!(r.constraints, 3 + 2 * 2);
    }

    #[test]
    fn interactive_run_is_consistent() {
        let r = run_interactive("i", (4, 4, 4), 2);
        assert!(r.ok);
        assert!(r.proof_bytes > 0);
    }

    #[test]
    fn dims_helpers() {
        assert_eq!(paper_matmul_dims(128), (49, 64, 128));
        let (a, n, b) = quick_matmul_dims(64);
        assert!(a > 0 && n > 0 && b > 0);
    }
}
