//! Pool-scaling harness: the acceptance demonstration for the sharded
//! work-stealing scheduler, emitting a machine-readable perf trajectory
//! (`BENCH_pool.json`) alongside the kernel harness's
//! `BENCH_kernels.json`.
//!
//! Two batches are measured, each serially and on the pool:
//!
//! * **uniform** — N same-shape matmul jobs, the classic amortisation
//!   case: serial one-shot proving (setup per job) vs the work-stealing
//!   pool at 1 and K workers.
//! * **skewed** — one model-block job next to a pile of small matmuls,
//!   the balance case the work-stealing + priority design exists for.
//!
//! The harness asserts the acceptance bars: work-stealing at K workers is
//! at least 2x the serial baseline on the uniform batch, and — most
//! importantly — proofs and verdicts are **bit-identical** across worker
//! counts and reruns, and agree with `prove_batch_serial`. Scheduler
//! nondeterminism can never silently change proof outcomes.
//!
//! ```text
//! pool [--smoke] [--full] [--out PATH]
//! ```

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use zkvc_bench::{full_mode, paper_matmul_dims, quick_matmul_dims};
use zkvc_core::matmul::Strategy;
use zkvc_core::Backend;
use zkvc_runtime::{prove_batch, prove_batch_serial, BatchReport, JobSpec, ModelPreset, Priority};

/// Physical core count recorded alongside every measured point.
fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// One measured pool configuration.
struct Run {
    label: &'static str,
    workers: usize,
    wall: Duration,
    jobs_per_sec: f64,
    high_priority_mean_wait: Duration,
}

/// Best-of-`reps` run of one batch at one worker count.
fn run_pool(specs: &[JobSpec], workers: usize, seed: u64, reps: usize, label: &'static str) -> Run {
    let mut best: Option<Run> = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let report = prove_batch(specs, workers, seed);
        let wall = t0.elapsed();
        assert!(report.all_verified(), "{label}: all proofs must verify");
        let candidate = Run {
            label,
            workers,
            wall,
            jobs_per_sec: specs.len() as f64 / wall.as_secs_f64(),
            high_priority_mean_wait: report
                .mean_queue_wait(|r| r.spec.priority() == Priority::High),
        };
        if best.as_ref().is_none_or(|b| candidate.wall < b.wall) {
            best = Some(candidate);
        }
    }
    best.expect("at least one rep")
}

fn run_serial(specs: &[JobSpec], seed: u64, reps: usize) -> (Duration, BatchReport) {
    let mut best: Option<(Duration, BatchReport)> = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let report = prove_batch_serial(specs, seed);
        let wall = t0.elapsed();
        assert!(report.all_verified(), "serial: all proofs must verify");
        if best.as_ref().is_none_or(|(w, _)| wall < *w) {
            best = Some((wall, report));
        }
    }
    best.expect("at least one rep")
}

struct Section {
    name: &'static str,
    spec_labels: Vec<String>,
    jobs: usize,
    workers: usize,
    serial_wall: Duration,
    runs: Vec<Run>,
}

impl Section {
    fn run_of(&self, label: &str) -> &Run {
        self.runs
            .iter()
            .find(|r| r.label == label)
            .expect("known run label")
    }

    fn speedup_vs_serial(&self, label: &str) -> f64 {
        self.serial_wall.as_secs_f64() / self.run_of(label).wall.as_secs_f64()
    }

    fn render_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "  \"{}\": {{", self.name);
        let _ = writeln!(
            out,
            "    \"specs\": [{}],",
            self.spec_labels
                .iter()
                .map(|s| format!("\"{s}\""))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let _ = writeln!(out, "    \"jobs\": {},", self.jobs);
        let _ = writeln!(out, "    \"workers\": {},", self.workers);
        let _ = writeln!(
            out,
            "    \"serial_wall_s\": {:.3},",
            self.serial_wall.as_secs_f64()
        );
        for (i, run) in self.runs.iter().enumerate() {
            let _ = writeln!(
                out,
                "    \"{}\": {{\"workers\": {}, \"cores\": {}, \"wall_s\": {:.3}, \"jobs_per_sec\": {:.2}, \"speedup_vs_serial\": {:.2}, \"high_priority_mean_wait_ms\": {:.2}}}{}",
                run.label,
                run.workers,
                cores(),
                run.wall.as_secs_f64(),
                run.jobs_per_sec,
                self.speedup_vs_serial(run.label),
                run.high_priority_mean_wait.as_secs_f64() * 1e3,
                if i + 1 < self.runs.len() { "," } else { "" }
            );
        }
        let _ = write!(out, "  }}");
        out
    }
}

/// Measures one batch serially and on the pool at 1 and `workers`
/// workers, printing human-readable lines as it goes.
fn measure(
    name: &'static str,
    specs: &[JobSpec],
    workers: usize,
    seed: u64,
    reps: usize,
) -> Section {
    println!("\n== {name}: {} jobs, {workers} workers ==", specs.len());
    let (serial_wall, _serial) = run_serial(specs, seed, reps);
    println!("  serial (one-shot per job)     {serial_wall:>10.3?}");
    let mut runs = Vec::new();
    for (label, w) in [("work_stealing_1w", 1), ("work_stealing", workers)] {
        let run = run_pool(specs, w, seed, reps, label);
        println!(
            "  {label:<28}  {:>10.3?}  ({:.2} jobs/s, {:.2}x vs serial)",
            run.wall,
            run.jobs_per_sec,
            serial_wall.as_secs_f64() / run.wall.as_secs_f64()
        );
        runs.push(run);
    }
    let mut spec_labels: Vec<String> = specs.iter().map(std::string::ToString::to_string).collect();
    spec_labels.dedup();
    Section {
        name,
        spec_labels,
        jobs: specs.len(),
        workers,
        serial_wall,
        runs,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let full = full_mode();
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_pool.json".to_string());

    let mode = if smoke {
        "smoke"
    } else if full {
        "full"
    } else {
        "default"
    };
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let workers = 4;
    let seed = 0xB00570;
    let reps = if smoke { 1 } else { 3 };
    println!("pool bench: mode={mode}, hardware threads={threads}, pool workers={workers}");

    // Uniform batch: same-shape vanilla/Groth16 jobs — vanilla is the
    // setup-heaviest strategy per constraint, i.e. the workload where
    // amortisation matters most.
    let uniform_dims = if full {
        paper_matmul_dims(128)
    } else if smoke {
        (4, 4, 4)
    } else {
        quick_matmul_dims(64)
    };
    let uniform_jobs = 8;
    let uniform = vec![
        JobSpec::new(uniform_dims.0, uniform_dims.1, uniform_dims.2)
            .with_strategy(Strategy::Vanilla)
            .with_backend(Backend::Groth16);
        uniform_jobs
    ];
    let uniform_section = measure("uniform", &uniform, workers, seed, reps);

    // Skewed batch: one model block pins a worker while small matmuls
    // queue behind it — the case sharding + stealing + priorities exist
    // for. Small jobs are High priority by spec size; the model job is
    // Normal.
    let small = if smoke { (2, 2, 2) } else { (3, 3, 3) };
    let small_count = if smoke { 6 } else { 12 };
    let mut skewed = vec![JobSpec::model(ModelPreset::MixerBlock)];
    for _ in 0..small_count {
        skewed.push(JobSpec::new(small.0, small.1, small.2));
    }
    let skewed_section = measure("skewed", &skewed, workers, seed, reps);

    // Determinism: rerunning the skewed batch at another worker count must
    // reproduce every proof byte-for-byte, and pool verdicts must match
    // the serial baseline.
    println!("\n== determinism ==");
    let ws_a = prove_batch(&skewed, workers, seed);
    let ws_b = prove_batch(&skewed, 2, seed);
    let serial = prove_batch_serial(&skewed, seed);
    let rerun_identical = ws_a
        .results
        .iter()
        .zip(ws_b.results.iter())
        .all(|(a, b)| a.id == b.id && a.proof_bytes == b.proof_bytes);
    let verdicts_match_serial = ws_a
        .results
        .iter()
        .zip(serial.results.iter())
        .all(|(p, s)| (p.id, p.verified) == (s.id, s.verified));
    assert!(
        rerun_identical,
        "rerun at different worker count changed proof bytes"
    );
    assert!(verdicts_match_serial, "pool verdicts diverge from serial");
    println!("  rerun identical: {rerun_identical}");
    println!("  verdicts match prove_batch_serial: {verdicts_match_serial}");

    // Acceptance bars. The 2x uniform bar holds even on one hardware
    // thread because the pool amortises setup; the smoke bar is laxer so
    // a noisy shared CI runner cannot flake the step.
    let uniform_speedup = uniform_section.speedup_vs_serial("work_stealing");
    let uniform_bar = if smoke { 1.3 } else { 2.0 };
    assert!(
        uniform_speedup >= uniform_bar,
        "acceptance: work-stealing must be >={uniform_bar}x serial on the uniform batch, got {uniform_speedup:.2}x"
    );
    println!(
        "\nacceptance: work-stealing {uniform_speedup:.2}x vs serial on uniform (bar {uniform_bar}x): PASS"
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"schema\": \"zkvc-bench-pool/v1\",");
    let _ = writeln!(json, "  \"mode\": \"{mode}\",");
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(json, "  \"cores\": {},", cores());
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "{},", uniform_section.render_json());
    let _ = writeln!(json, "{},", skewed_section.render_json());
    let _ = writeln!(
        json,
        "  \"determinism\": {{\"rerun_identical\": {rerun_identical}, \"verdicts_match_serial\": {verdicts_match_serial}}}"
    );
    let _ = writeln!(json, "}}");
    std::fs::write(&out_path, &json).expect("write bench json");
    println!("wrote {out_path}");
}
