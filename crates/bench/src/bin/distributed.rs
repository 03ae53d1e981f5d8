//! Distributed scale-out bench: one coordinator (`zkvc serve`) plus 0, 2
//! and 4 local `zkvc worker` subprocesses, driven by the in-process client
//! library, emitting `BENCH_distributed.json`.
//!
//! What this measures is **coordinator/protocol scale-out**, not raw CPU:
//! each proof is stalled a fixed `pool.prove.delay` fault-injection delay
//! (in the serve pool and in every worker alike), emulating paper-scale
//! proof latency on shapes small enough for CI. Throughput is then bound
//! by concurrent prover *slots* — local threads plus remote capacity — so
//! jobs/sec must rise as workers attach, on any machine, single-core CI
//! runners included. The real-CPU story (where scale-out needs real
//! cores) lives in `BENCH_pool.json`; the injected delay is stamped into
//! the JSON so no reader can mistake this for a CPU benchmark.
//!
//! The run doubles as an acceptance gate: it asserts jobs/sec increases
//! strictly monotonically 0 -> 2 -> 4 workers and that every proof
//! verifies.
//!
//! * default: 24 jobs of `4x4x4:zkvc:g`, 60 ms injected prove latency
//! * `--smoke`: 12 jobs (CI-friendly, same structure)
//! * `--out PATH`: where to write the JSON (default BENCH_distributed.json)
//!
//! The `zkvc` binary is resolved next to this bench binary (same target
//! dir); `ZKVC_BIN` overrides.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use zkvc_runtime::codec::DISTRIBUTED_BENCH_SCHEMA;
use zkvc_runtime::{run_client, ClientConfig, JobSpec, ListenAddr};

/// Worker counts swept, in order; monotone throughput across this sweep
/// is the acceptance bar.
const WORKER_COUNTS: [usize; 3] = [0, 2, 4];
/// Concurrent slots per worker subprocess.
const WORKER_CAPACITY: usize = 2;
/// Local prover threads in the coordinator's own pool.
const LOCAL_THREADS: usize = 1;
/// Injected per-proof latency (ms), identical in pool and workers.
const PROVE_DELAY_MS: u64 = 60;

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// The `zkvc` CLI this bench orchestrates: `$ZKVC_BIN` if set, else the
/// sibling binary in the same target directory.
fn zkvc_bin() -> PathBuf {
    if let Ok(path) = std::env::var("ZKVC_BIN") {
        return PathBuf::from(path);
    }
    let mut path = std::env::current_exe().expect("current_exe");
    path.set_file_name("zkvc");
    path
}

fn fault_schedule() -> String {
    format!("seed=1;pool.prove.delay=1@{PROVE_DELAY_MS}")
}

fn spawn_serve(bin: &PathBuf, sock: &str) -> Child {
    Command::new(bin)
        .args([
            "serve",
            "--listen",
            sock,
            "--workers",
            &LOCAL_THREADS.to_string(),
        ])
        .env("ZKVC_FAULTS", fault_schedule())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn zkvc serve (build release binaries first)")
}

fn spawn_worker(bin: &PathBuf, sock: &str) -> Child {
    Command::new(bin)
        .args([
            "worker",
            "--connect",
            sock,
            "--capacity",
            &WORKER_CAPACITY.to_string(),
        ])
        .env("ZKVC_FAULTS", fault_schedule())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn zkvc worker")
}

fn wait_for_socket(path: &std::path::Path) {
    let t0 = Instant::now();
    while !path.exists() {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "serve did not bind {}",
            path.display()
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

struct Point {
    workers: usize,
    slots: usize,
    wall: Duration,
    jobs_per_sec: f64,
}

/// One sweep point: fresh coordinator, `w` workers, warmup + best-of-reps.
fn measure(bin: &PathBuf, w: usize, spec: JobSpec, jobs: usize, reps: usize) -> Point {
    let sock_path =
        std::env::temp_dir().join(format!("zkvc-bench-dist-{}-{w}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock_path);
    let sock = format!("unix:{}", sock_path.display());
    let mut serve = spawn_serve(bin, &sock);
    wait_for_socket(&sock_path);
    let mut workers: Vec<Child> = (0..w).map(|_| spawn_worker(bin, &sock)).collect();
    // Registration is one line each way on a local socket; give it a beat.
    std::thread::sleep(Duration::from_millis(400));

    let config = ClientConfig::new(ListenAddr::parse(&sock).expect("socket addr"), spec)
        .count(jobs)
        .seed(Some(7))
        .retries(0);

    // Warmup: first batch pays key setup in every process (and ships
    // shapes to every worker); measured reps run warm.
    let warm = run_client(&config).expect("warmup batch");
    assert!(warm.all_ok(), "warmup must verify: {warm:?}");

    let mut best: Option<Duration> = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let report = run_client(&config).expect("measured batch");
        let wall = t0.elapsed();
        assert!(report.all_ok(), "measured batch must verify: {report:?}");
        assert_eq!(report.results(), jobs, "one answer per id");
        if best.is_none_or(|b| wall < b) {
            best = Some(wall);
        }
    }
    let wall = best.expect("at least one rep");

    for child in &mut workers {
        let _ = child.kill();
        let _ = child.wait();
    }
    let _ = serve.kill();
    let _ = serve.wait();
    let _ = std::fs::remove_file(&sock_path);

    Point {
        workers: w,
        slots: LOCAL_THREADS + w * WORKER_CAPACITY,
        wall,
        jobs_per_sec: jobs as f64 / wall.as_secs_f64(),
    }
}

fn render_json(mode: &str, spec: &JobSpec, jobs: usize, reps: usize, points: &[Point]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"{DISTRIBUTED_BENCH_SCHEMA}\",");
    let _ = writeln!(out, "  \"mode\": \"{mode}\",");
    let _ = writeln!(out, "  \"spec\": \"{spec}\",");
    let _ = writeln!(out, "  \"jobs\": {jobs},");
    let _ = writeln!(out, "  \"reps\": {reps},");
    let _ = writeln!(out, "  \"threads\": {},", cores());
    let _ = writeln!(out, "  \"cores\": {},", cores());
    let _ = writeln!(out, "  \"local_threads\": {LOCAL_THREADS},");
    let _ = writeln!(out, "  \"worker_capacity\": {WORKER_CAPACITY},");
    let _ = writeln!(out, "  \"simulated_prove_ms\": {PROVE_DELAY_MS},");
    let _ = writeln!(out, "  \"points\": [");
    let base = points[0].jobs_per_sec;
    for (i, p) in points.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"workers\": {}, \"cores\": {}, \"slots\": {}, \"wall_s\": {:.3}, \"jobs_per_sec\": {:.2}, \"speedup_vs_local_only\": {:.2}}}{}",
            p.workers,
            cores(),
            p.slots,
            p.wall.as_secs_f64(),
            p.jobs_per_sec,
            p.jobs_per_sec / base,
            if i + 1 < points.len() { "," } else { "" }
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_distributed.json".to_string());

    let mode = if smoke { "smoke" } else { "default" };
    let (jobs, reps) = if smoke { (12, 1) } else { (24, 2) };
    let (spec, _) = JobSpec::parse("4x4x4:zkvc:g").expect("spec");
    let bin = zkvc_bin();
    assert!(
        bin.exists(),
        "zkvc binary not found at {} (cargo build --release, or set ZKVC_BIN)",
        bin.display()
    );

    println!(
        "distributed bench: mode={mode}, {jobs} jobs of {spec}, {PROVE_DELAY_MS} ms injected prove latency, cores={}",
        cores()
    );
    let mut points = Vec::new();
    for w in WORKER_COUNTS {
        let p = measure(&bin, w, spec, jobs, reps);
        println!(
            "  workers={:<2} slots={:<2} {:>8.3?}  ({:.2} jobs/s)",
            p.workers, p.slots, p.wall, p.jobs_per_sec
        );
        points.push(p);
    }

    // Acceptance: strictly monotone throughput as workers attach.
    for pair in points.windows(2) {
        assert!(
            pair[1].jobs_per_sec > pair[0].jobs_per_sec,
            "throughput must rise with workers: {} workers {:.2} jobs/s !> {} workers {:.2} jobs/s",
            pair[1].workers,
            pair[1].jobs_per_sec,
            pair[0].workers,
            pair[0].jobs_per_sec
        );
    }

    let json = render_json(mode, &spec, jobs, reps, &points);
    let mut file = std::fs::File::create(&out_path).expect("create output");
    file.write_all(json.as_bytes()).expect("write output");
    println!("wrote {out_path}");
}
