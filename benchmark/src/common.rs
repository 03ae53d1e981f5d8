//! What every workload shares: the run configuration, host facts, and the
//! sample bookkeeping that turns timed jobs into end-to-end metrics.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use zkvc::core::VerifierKey;
use zkvc::runtime::ProofEnvelope;

use crate::metrics::{Metrics, PER_LAYER};
use crate::stats::{median, quantile};
use crate::trace::{SpanId, Tracer};

#[derive(Clone, Debug)]
pub struct RunConfig {
    pub seed: u64,
    /// Length of the timed section.
    pub seconds: f64,
    pub trace: bool,
    /// Tiny shapes and repetitions: same code paths, no meaningful numbers.
    pub smoke: bool,
}

impl RunConfig {
    /// Set-up is repeated (and its median reported) only while one pass
    /// stays under this, so the large Groth16 keys are generated once.
    pub fn repeats_setup(&self, first_pass: Duration) -> bool {
        !self.smoke && first_pass < Duration::from_millis(2500)
    }

    /// The traced run measures untraced jobs for the first third of its
    /// time, for `bench.trace_overhead_share`, and traced jobs after.
    pub fn phases(&self) -> Vec<(bool, Duration)> {
        let total = Duration::from_secs_f64(self.seconds);
        if self.trace {
            vec![(false, total / 3), (true, total - total / 3)]
        } else {
            vec![(false, total)]
        }
    }
}

/// `benchmark/out/`: traces and the server's scratch directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Peak resident set of a process in MiB (`VmHWM` of `/proc/PID/status`).
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The timed section's samples, one entry per job.
#[derive(Debug, Default)]
pub struct Samples {
    pub job_ms: Vec<f64>,
    pub verify_ms: Vec<f64>,
    pub proof_bytes: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub wall: Duration,
}

impl Samples {
    pub fn record(&mut self, job_ms: f64, verify_ms: f64, proof_bytes: usize, ok: bool) {
        self.attempted += 1;
        if ok {
            self.job_ms.push(job_ms);
            self.verify_ms.push(verify_ms);
            self.proof_bytes.push(proof_bytes as f64);
        } else {
            self.failed += 1;
        }
    }

    pub fn verified(&self) -> u64 {
        self.attempted - self.failed
    }
}

/// Fills in the metrics every workload derives the same way. `untraced`
/// is the phase measured with tracing off; `traced` the phase with spans
/// (absent in an end-to-end run).
pub fn report_common(
    metrics: &mut Metrics,
    untraced: &Samples,
    traced: Option<&Samples>,
    setup_s: &[f64],
    peak_rss_mb: f64,
) {
    metrics.set("job_ms_p50", median(&untraced.job_ms));
    metrics.set("verify_ms_p50", median(&untraced.verify_ms));
    metrics.set(
        "jobs_per_s",
        untraced.verified() as f64 / untraced.wall.as_secs_f64(),
    );
    metrics.set("setup_s", median(setup_s));
    metrics.set("proof_bytes", median(&untraced.proof_bytes));
    metrics.set("peak_rss_mb", peak_rss_mb);

    let Some(traced) = traced else { return };
    metrics.set("bench.job_ms_p90", quantile(&traced.job_ms, 0.9));
    metrics.set("bench.verify_ms_p90", quantile(&traced.verify_ms, 0.9));
    let attempted = untraced.attempted + traced.attempted;
    metrics.set(
        "bench.failed_share",
        (untraced.failed + traced.failed) as f64 / attempted.max(1) as f64,
    );
    metrics.set(
        "bench.trace_overhead_share",
        median(&traced.job_ms) / median(&untraced.job_ms) - 1.0,
    );
    metrics.set("bench.samples", traced.verified() as f64);
}

/// Sets a per-layer timing metric to the median duration of the spans
/// called `span`, in the unit the catalogue declares for it.
pub fn set_span_p50(metrics: &mut Metrics, tracer: &Tracer, span: &str, metric: &'static str) {
    let samples = tracer.durations_ms(span);
    if !samples.is_empty() {
        let in_us = PER_LAYER.iter().any(|d| d.name == metric && d.unit == "us");
        metrics.set(metric, median(&samples) * if in_us { 1e3 } else { 1.0 });
    }
}

/// What the client side of one job produced.
pub struct ClientVerify {
    pub envelope: Option<ProofEnvelope>,
    pub verified: bool,
    /// Decode plus verify: one `verify_ms` sample.
    pub ms: f64,
    /// The verify span, for replays to attach children to.
    pub span: SpanId,
}

/// The client side of every workload: `decode` turns what came over the
/// wire into an envelope, which is then verified under `key`. Both steps
/// are one `client.verify` span and one `verify_ms` sample.
pub fn client_verify(
    tracer: &mut Tracer,
    job: u64,
    key: Option<&VerifierKey>,
    decode: impl FnOnce() -> Option<ProofEnvelope>,
) -> ClientVerify {
    let verify_span = match key {
        Some(VerifierKey::Spartan(_)) => "spartan.verify",
        _ => "groth16.verify",
    };
    let t = Instant::now();
    let client = tracer.open(job, "client.verify", None);
    let (envelope, _) = tracer.span(job, "runtime.serial.decode", Some(client), decode);
    let (verified, span) = tracer.span(job, verify_span, Some(client), || match (&envelope, key) {
        (Some(e), Some(k)) => e.verify_with_key(k),
        _ => false,
    });
    tracer.close(client);
    ClientVerify {
        envelope,
        verified,
        ms: ms(t.elapsed()),
        span,
    }
}

/// `runtime.pool.worker_imbalance`: most ÷ fewest jobs per worker.
pub fn worker_imbalance(per_worker: &[u64]) -> f64 {
    let most = per_worker.iter().max().copied().unwrap_or(0);
    let fewest = per_worker.iter().min().copied().unwrap_or(0);
    most as f64 / fewest.max(1) as f64
}

/// Writes the spans to `benchmark/out/trace-<workload>.jsonl`.
pub fn write_trace(tracer: &Tracer, workload: &str) {
    if !tracer.enabled() {
        return;
    }
    let dir = out_dir();
    let path = dir.join(format!("trace-{workload}.jsonl"));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| tracer.write_jsonl(&path)) {
        eprintln!("zkvc-benchmark: could not write {}: {e}", path.display());
    }
}

/// A deadline-driven loop guard: at least `min_jobs` iterations, then
/// until `budget` has passed.
#[derive(Debug)]
pub struct Budget {
    started: Instant,
    budget: Duration,
    min_jobs: u64,
    done: u64,
}

impl Budget {
    pub fn new(budget: Duration, min_jobs: u64) -> Self {
        Budget {
            started: Instant::now(),
            budget,
            min_jobs,
            done: 0,
        }
    }

    /// Whether another job should start; counts it when so.
    pub fn take(&mut self) -> bool {
        let go = self.done < self.min_jobs || self.started.elapsed() < self.budget;
        self.done += go as u64;
        go
    }

    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }
}
