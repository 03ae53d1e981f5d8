//! `serve_window`: the real `zkvc serve` binary as a subprocess on a unix
//! socket, driven closed-loop from this process. Each of `nproc` sessions
//! keeps a window of requests outstanding, so the server's queue is never
//! empty and never grows: queueing and per-request overhead set the rate.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use zkvc::core::VerifierKey;
use zkvc::ff::Fr;
use zkvc::groth16;
use zkvc::runtime::wire::{self, Json};
use zkvc::runtime::{JobResult, ProofEnvelope};

use crate::check;
use crate::common::{
    client_verify, ms, nproc, out_dir, peak_rss_mb, report_common, set_span_p50, worker_imbalance,
    write_trace, RunConfig, Samples,
};
use crate::metrics::{Metrics, Outcome};
use crate::stats::{median, quantile};
use crate::trace::Tracer;

const SOCKET: &str = "zkvc.sock";
/// How many requests each session keeps outstanding.
const SERVE_WINDOW: usize = 4;

/// One of the two request shapes: its spec text, request seed, and the
/// outputs every proof of it must bind.
struct Shape {
    spec: String,
    seed: u64,
    expected: Vec<Fr>,
}

fn shapes(cfg: &RunConfig) -> [Shape; 2] {
    let dims = if cfg.smoke {
        [(3, 3, 4), (4, 4, 6)]
    } else {
        [(8, 8, 16), (16, 16, 32)]
    };
    let mut n = 0u64;
    dims.map(|d| {
        n += 1;
        let seed = cfg.seed.wrapping_mul(1000).wrapping_add(n);
        Shape {
            spec: format!("{}x{}x{}:zkvc:g", d.0, d.1, d.2),
            seed,
            // Served requests pin the statement id to 0.
            expected: check::matmul_outputs(seed, 0, d),
        }
    })
}

/// Request `k` of any session: three small, then one large.
fn shape_index(k: u64) -> usize {
    usize::from(k % 4 == 3)
}

fn request_line(shape: &Shape, id: u64) -> String {
    format!(
        "{{\"spec\":\"{}\",\"id\":{id},\"seed\":{}}}\n",
        shape.spec, shape.seed
    )
}

/// Builds the `zkvc` binary (untimed) next to this one and returns its
/// path. It is built as a dependency's binary from this package's own
/// manifest, so it shares every compiled crate with the benchmark.
fn build_server() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let profile_dir = exe.parent().ok_or("benchmark binary has no parent")?;
    let target_dir = profile_dir.parent().ok_or("profile dir has no parent")?;
    let mut cargo = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()));
    cargo
        .args([
            "build",
            "--quiet",
            "--offline",
            "-p",
            "zkvc-runtime",
            "--bin",
            "zkvc",
        ])
        .args([
            "--manifest-path",
            concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"),
        ])
        .arg("--target-dir")
        .arg(target_dir)
        .stdout(Stdio::null());
    if profile_dir.ends_with("release") {
        cargo.arg("--release");
    }
    let status = cargo.status().map_err(|e| format!("cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building zkvc failed: {status}"));
    }
    Ok(profile_dir.join("zkvc"))
}

/// A running `zkvc serve`, killed on drop so no exit path leaks it.
struct Server {
    child: Child,
}

impl Server {
    /// Spawns the server with nothing of the host in its environment that
    /// could change a number: no tune profile, no key cache, no fault
    /// plan, a scratch home.
    fn spawn(binary: &Path, cfg: &RunConfig) -> Result<Self, String> {
        let _ = std::fs::remove_file(SOCKET);
        let log = std::fs::File::create("server.log").map_err(|e| e.to_string())?;
        let child = Command::new(binary)
            .args(["serve", "--listen", &format!("unix:{SOCKET}")])
            .args(["--workers", &nproc().to_string()])
            .args(["--seed", &cfg.seed.to_string()])
            .args(["--key-cache", "none", "--tune-profile", "none"])
            .env_remove("ZKVC_TUNE")
            .env_remove("ZKVC_FAULTS")
            .env("HOME", "home")
            .env("XDG_CACHE_HOME", "home/.cache")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", binary.display()))?;
        Ok(Server { child })
    }

    fn connect(&mut self) -> Result<UnixStream, String> {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Ok(stream) = UnixStream::connect(SOCKET) {
                return Ok(stream);
            }
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!("zkvc serve exited early: {status}"));
            }
            if Instant::now() > deadline {
                return Err("zkvc serve did not listen within 20 s".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// SIGTERM, then wait for the drain; true when it exited 0 in time.
    fn stop(mut self) -> bool {
        let _ = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status();
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                return status.success();
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        false
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

fn unhex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(s.get(i..i + 2)?, 16).ok())
        .collect()
}

fn str_field<'a>(fields: &'a [(String, Json)], key: &str) -> Option<&'a str> {
    match wire::field(fields, key)? {
        Json::Str(s) => Some(s),
        _ => None,
    }
}

fn num_field(fields: &[(String, Json)], key: &str) -> Option<f64> {
    match wire::field(fields, key)? {
        Json::Num(raw) => raw.parse().ok(),
        _ => None,
    }
}

/// What one session measured.
struct SessionReport {
    samples: Samples,
    /// Requests that got no answer, a second answer, or an `error` line.
    protocol_failures: u64,
    summary_ok: bool,
    /// Results per server worker (the `worker` field), for the imbalance
    /// metric.
    per_worker: Vec<u64>,
    cache_hits: u64,
    /// Server-side busy time summed over results (build+prove+verify).
    busy_ms: f64,
    response_bytes: Vec<f64>,
    last_envelope: Option<(Vec<u8>, VerifierKey)>,
}

struct Pending {
    sent: Instant,
    sent_us: f64,
    shape: usize,
}

/// A result whose key line has not arrived yet (the protocol allows a
/// result from another worker to overtake the announcement).
struct Deferred {
    fields: Vec<(String, Json)>,
    line_len: usize,
    job_ms: f64,
    sent_us: f64,
    root: u32,
    shape: usize,
}

struct Session {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

/// Reads the `ready` handshake of a fresh connection.
fn open_session(stream: UnixStream) -> Result<Session, String> {
    let writer = stream.try_clone().map_err(|e| e.to_string())?;
    // A lost answer must fail the run, not hang it.
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).map_err(|e| e.to_string())?;
    if !line.contains("\"type\":\"ready\"") || !line.contains("zkvc-serve/v1") {
        return Err(format!("bad handshake: {line}"));
    }
    Ok(Session { reader, writer })
}

/// One closed-loop session: keeps `SERVE_WINDOW` requests outstanding
/// until `budget` has passed (and at least `min_requests` were sent),
/// drains, half-closes and checks the `summary` line.
fn run_session(
    session: Session,
    shapes: &[Shape; 2],
    budget: Duration,
    min_requests: u64,
    start: &Barrier,
    mut tracer: Tracer,
) -> Result<(SessionReport, Tracer), String> {
    let Session {
        mut reader,
        mut writer,
    } = session;
    let mut line = String::new();
    let mut report = SessionReport {
        samples: Samples::default(),
        protocol_failures: 0,
        summary_ok: false,
        per_worker: vec![0; nproc()],
        cache_hits: 0,
        busy_ms: 0.0,
        response_bytes: Vec::new(),
        last_envelope: None,
    };
    let mut keys: HashMap<String, VerifierKey> = HashMap::new();
    let mut pending: HashMap<u64, Pending> = HashMap::new();
    let mut deferred: Vec<Deferred> = Vec::new();
    let mut sent = 0u64;

    start.wait();
    let started = Instant::now();
    loop {
        while pending.len() < SERVE_WINDOW && (sent < min_requests || started.elapsed() < budget) {
            let shape = shape_index(sent);
            let request = request_line(&shapes[shape], sent);
            pending.insert(
                sent,
                Pending {
                    sent: Instant::now(),
                    sent_us: tracer.now_us(),
                    shape,
                },
            );
            writer
                .write_all(request.as_bytes())
                .map_err(|e| e.to_string())?;
            sent += 1;
        }
        if pending.is_empty() && deferred.is_empty() {
            break;
        }

        line.clear();
        if reader.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
            return Err("server closed the session mid-run".to_string());
        }
        let received = Instant::now();
        let fields = wire::parse_json_object(line.trim_end())?;
        let id = num_field(&fields, "id").map(|n| n as u64);
        match str_field(&fields, "type") {
            Some("key") => {
                let vk = str_field(&fields, "vk_hex")
                    .and_then(unhex)
                    .and_then(|b| groth16::VerifyingKey::from_bytes(&b))
                    .ok_or("undecodable key line")?;
                let digest = str_field(&fields, "shape_digest").ok_or("key without digest")?;
                keys.insert(digest.to_string(), VerifierKey::Groth16(vk));
            }
            Some("result") => match id.and_then(|id| pending.remove(&id)) {
                Some(p) => {
                    let root = tracer.push(
                        id.unwrap_or(0),
                        "runtime.net.roundtrip",
                        None,
                        p.sent_us,
                        tracer.now_us(),
                    );
                    deferred.push(Deferred {
                        line_len: line.len(),
                        fields,
                        job_ms: ms(received - p.sent),
                        sent_us: p.sent_us,
                        root,
                        shape: p.shape,
                    });
                }
                // An id never sent, or a second answer for a settled one.
                None => report.protocol_failures += 1,
            },
            // A refused request is a failed job, not a protocol fault.
            Some("error") if id.is_some_and(|id| pending.remove(&id).is_some()) => {
                report.samples.record(0.0, 0.0, 0, false);
            }
            other => return Err(format!("unexpected line {other:?}: {line}")),
        }

        // Verify every result whose key has been announced; a result may
        // overtake its key line, so the rest wait for the next line.
        let mut waiting = Vec::new();
        for d in deferred.drain(..) {
            let digest = str_field(&d.fields, "shape_digest").unwrap_or_default();
            match keys.get(digest) {
                Some(key) => settle(&d, key, &shapes[d.shape], &mut report, &mut tracer),
                None if str_field(&d.fields, "error").is_some() => {
                    report.samples.record(0.0, 0.0, 0, false);
                }
                None => waiting.push(d),
            }
        }
        deferred = waiting;
    }
    report.samples.wall = started.elapsed();

    // Half-close; the server drains and answers with the summary line.
    writer
        .shutdown(Shutdown::Write)
        .map_err(|e| e.to_string())?;
    loop {
        line.clear();
        if reader.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
            break;
        }
        let fields = wire::parse_json_object(line.trim_end())?;
        if str_field(&fields, "type") == Some("summary") {
            let count = |key| num_field(&fields, key).map(|n| n as u64);
            report.summary_ok = count("jobs") == Some(sent)
                && count("verified") == Some(sent)
                && count("failed") == Some(0)
                && count("rejected") == Some(0);
        } else {
            // Anything but the summary after the drain is a stray answer.
            report.protocol_failures += 1;
        }
    }
    Ok((report, tracer))
}

/// Client-side acceptance of one result line: hex → envelope → verify
/// against the announced key, and the outputs against plain `Y = XW`.
fn settle(
    d: &Deferred,
    key: &VerifierKey,
    shape: &Shape,
    report: &mut SessionReport,
    tracer: &mut Tracer,
) {
    let job = num_field(&d.fields, "id").unwrap_or(0.0) as u64;
    let mut bytes = None;
    let client = client_verify(tracer, job, Some(key), || {
        let raw = str_field(&d.fields, "proof_hex").and_then(unhex)?;
        let envelope = ProofEnvelope::decode(&raw).ok();
        bytes = Some(raw);
        envelope
    });
    let bytes = bytes.unwrap_or_default();

    let ok = client.verified
        && matches!(wire::field(&d.fields, "verified"), Some(Json::Bool(true)))
        && client
            .envelope
            .is_some_and(|e| e.public_inputs == shape.expected);
    report.samples.record(d.job_ms, client.ms, bytes.len(), ok);
    report.response_bytes.push(d.line_len as f64);

    let phase = |key| num_field(&d.fields, key).unwrap_or(0.0);
    report.busy_ms += phase("build_ms") + phase("prove_ms") + phase("verify_ms");
    if let Some(count) = report.per_worker.get_mut(phase("worker") as usize) {
        *count += 1;
    }
    report.cache_hits += u64::from(matches!(
        wire::field(&d.fields, "cache_hit"),
        Some(Json::Bool(true))
    ));

    if tracer.enabled() {
        // The server's own account of the round trip, laid end to end
        // under it; what is left over is `runtime.net.overhead_ms`.
        tracer.push_sequence(
            job,
            d.root,
            d.sent_us,
            [
                ("runtime.pool.queue", phase("queue_ms") * 1e3),
                ("runtime.pool.build", phase("build_ms") * 1e3),
                ("runtime.pool.prove", phase("prove_ms") * 1e3),
                ("runtime.pool.verify", phase("verify_ms") * 1e3),
            ],
        );
        replay_wire(d, shape, &bytes, tracer);
    }
    if ok {
        report.last_envelope = Some((bytes, key.clone()));
    }
}

/// Times the two wire-codec calls the server made for this request:
/// parsing the request line and rendering the result line.
fn replay_wire(d: &Deferred, shape: &Shape, proof: &[u8], tracer: &mut Tracer) {
    let job = num_field(&d.fields, "id").unwrap_or(0.0) as u64;
    let request = request_line(shape, job);
    let (parsed, _) = tracer.span(job, "runtime.wire.parse_request", Some(d.root), || {
        wire::parse_request(request.trim_end())
    });
    let Ok(parsed) = parsed else { return };
    let duration = |key| Duration::from_secs_f64(num_field(&d.fields, key).unwrap_or(0.0) / 1e3);
    let mut digest = [0u8; 32];
    if let Some(bytes) = str_field(&d.fields, "shape_digest").and_then(unhex) {
        if bytes.len() == 32 {
            digest.copy_from_slice(&bytes);
        }
    }
    let result = JobResult {
        id: num_field(&d.fields, "job").unwrap_or(0.0) as usize,
        spec: parsed.spec,
        seed: shape.seed,
        proof_bytes: proof.to_vec(),
        verified: true,
        error: None,
        cache_hit: true,
        shape_digest: digest,
        worker: num_field(&d.fields, "worker").unwrap_or(0.0) as usize,
        tag: parsed.id_json,
        queue_wait: duration("queue_ms"),
        build_time: duration("build_ms"),
        prove_time: duration("prove_ms"),
        verify_time: duration("verify_ms"),
        num_constraints: num_field(&d.fields, "constraints").unwrap_or(0.0) as usize,
        session_id: None,
    };
    tracer.span(job, "runtime.wire.result_line", Some(d.root), || {
        std::hint::black_box(wire::result_line(&result, true))
    });
}

/// Spawns the server and warms it with one session that proves each
/// shape. Returns the server and the time from spawn to `ready`.
fn start_server(
    binary: &Path,
    cfg: &RunConfig,
    shapes: &[Shape; 2],
) -> Result<(Server, f64), String> {
    let spawned = Instant::now();
    let mut server = Server::spawn(binary, cfg)?;
    let session = open_session(server.connect()?)?;
    let ready_ms = ms(spawned.elapsed());
    // The first four requests of the mix cover both shapes.
    let (warm, _) = run_session(
        session,
        shapes,
        Duration::ZERO,
        4,
        &Barrier::new(1),
        Tracer::new(false, spawned),
    )?;
    if warm.samples.failed > 0 || warm.protocol_failures > 0 || !warm.summary_ok {
        return Err("warm-up session failed".to_string());
    }
    Ok((server, ready_ms))
}

/// One timed phase: `nproc` sessions started together.
fn run_phase(
    server: &mut Server,
    shapes: &Arc<[Shape; 2]>,
    budget: Duration,
    traced: bool,
    epoch: Instant,
) -> Result<(SessionReport, Tracer), String> {
    let sessions = nproc();
    let start = Arc::new(Barrier::new(sessions));
    let mut handles = Vec::new();
    for _ in 0..sessions {
        let session = open_session(server.connect()?)?;
        let (shapes, start) = (Arc::clone(shapes), Arc::clone(&start));
        let tracer = Tracer::new(traced, epoch);
        handles.push(std::thread::spawn(move || {
            run_session(session, &shapes, budget, 2, &start, tracer)
        }));
    }
    let mut total: Option<(SessionReport, Tracer)> = None;
    for handle in handles {
        let (report, tracer) = handle
            .join()
            .map_err(|_| "session thread panicked".to_string())??;
        total = Some(match total {
            None => (report, tracer),
            Some((mut sum, mut spans)) => {
                spans.absorb(tracer);
                sum.merge(report);
                (sum, spans)
            }
        });
    }
    total.ok_or_else(|| "no sessions ran".to_string())
}

impl SessionReport {
    fn merge(&mut self, other: SessionReport) {
        let (a, b) = (&mut self.samples, other.samples);
        a.job_ms.extend(b.job_ms);
        a.verify_ms.extend(b.verify_ms);
        a.proof_bytes.extend(b.proof_bytes);
        a.attempted += b.attempted;
        a.failed += b.failed;
        a.wall = a.wall.max(b.wall);
        self.protocol_failures += other.protocol_failures;
        self.summary_ok &= other.summary_ok;
        for (mine, theirs) in self.per_worker.iter_mut().zip(other.per_worker) {
            *mine += theirs;
        }
        self.cache_hits += other.cache_hits;
        self.busy_ms += other.busy_ms;
        self.response_bytes.extend(other.response_bytes);
        self.last_envelope = other.last_envelope.or(self.last_envelope.take());
    }
}

pub fn run(cfg: &RunConfig, workload: &str) -> Result<Outcome, String> {
    let binary = build_server()?;
    // Unix socket paths are short; work from a scratch directory so the
    // socket, the server log and its home are all relative.
    let scratch = out_dir().join(format!("serve-{}", std::process::id()));
    std::fs::create_dir_all(scratch.join("home")).map_err(|e| e.to_string())?;
    std::env::set_current_dir(&scratch).map_err(|e| e.to_string())?;
    let outcome = run_in_scratch(cfg, workload, &binary);
    let _ = std::env::set_current_dir(out_dir());
    let _ = std::fs::remove_dir_all(&scratch);
    outcome
}

fn run_in_scratch(cfg: &RunConfig, workload: &str, binary: &Path) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let shapes = Arc::new(shapes(cfg));
    let mut metrics = Metrics::new(cfg.trace);

    // Set-up: spawn, `ready`, first result of each shape.
    let mut setup_s = Vec::new();
    let mut ready_ms = Vec::new();
    let mut server: Option<Server> = None;
    while setup_s.len() < 3 {
        if let Some(previous) = server.take() {
            previous.stop();
        }
        let t = Instant::now();
        let (fresh, ready) = start_server(binary, cfg, &shapes)?;
        setup_s.push(t.elapsed().as_secs_f64());
        ready_ms.push(ready);
        server = Some(fresh);
        if !cfg.repeats_setup(t.elapsed()) {
            break;
        }
    }
    let mut server = server.expect("set-up ran at least once");

    let mut phases = Vec::new();
    for (traced, budget) in cfg.phases() {
        phases.push(run_phase(&mut server, &shapes, budget, traced, epoch)?);
    }
    let rss = peak_rss_mb(&server.child.id().to_string());
    let clean_exit = server.stop();

    let (untraced, _) = &phases[0];
    let traced = phases.get(1);
    report_common(
        &mut metrics,
        &untraced.samples,
        traced.map(|(r, _)| &r.samples),
        &setup_s,
        rss,
    );
    if let Some((report, tracer)) = traced {
        report_layers(&mut metrics, report, tracer, median(&ready_ms));
        write_trace(tracer, workload);
    }

    let last = phases.last().expect("at least one phase");
    let tamper_rejected = last
        .0
        .last_envelope
        .as_ref()
        .is_some_and(|(bytes, key)| check::rejects_tampering(bytes, key));
    let protocol_ok = phases
        .iter()
        .all(|(r, _)| r.protocol_failures == 0 && r.summary_ok);
    // The warm-up session of each set-up pass proved four jobs.
    let attempted =
        phases.iter().map(|(r, _)| r.samples.attempted).sum::<u64>() + 4 * setup_s.len() as u64;
    let failed = phases.iter().map(|(r, _)| r.samples.failed).sum::<u64>();
    Ok(Outcome {
        attempted,
        failed,
        correct: failed == 0 && protocol_ok && tamper_rejected && clean_exit,
        metrics,
    })
}

fn report_layers(metrics: &mut Metrics, report: &SessionReport, tracer: &Tracer, ready_ms: f64) {
    for (span, metric) in [
        ("runtime.serial.decode", "runtime.serial.decode_us_p50"),
        ("groth16.verify", "groth16.verify_ms_p50"),
        (
            "runtime.wire.parse_request",
            "runtime.wire.parse_request_us_p50",
        ),
        (
            "runtime.wire.result_line",
            "runtime.wire.result_line_us_p50",
        ),
        ("runtime.pool.queue", "runtime.pool.queue_ms_p50"),
        ("runtime.pool.build", "runtime.pool.build_ms_p50"),
        ("runtime.pool.prove", "runtime.pool.prove_ms_p50"),
        ("runtime.pool.verify", "runtime.pool.verify_ms_p50"),
    ] {
        set_span_p50(metrics, tracer, span, metric);
    }
    metrics.set(
        "runtime.pool.queue_ms_p90",
        quantile(&tracer.durations_ms("runtime.pool.queue"), 0.9),
    );
    metrics.set("runtime.net.ready_ms", ready_ms);
    metrics.set(
        "runtime.net.overhead_ms_p50",
        median(&tracer.self_times_ms("runtime.net.roundtrip")),
    );
    metrics.set(
        "runtime.net.job_ms_p90",
        quantile(&report.samples.job_ms, 0.9),
    );
    metrics.set(
        "runtime.wire.response_bytes_p50",
        median(&report.response_bytes),
    );
    let results = report.per_worker.iter().sum::<u64>().max(1) as f64;
    metrics.set(
        "runtime.cache.hit_share",
        report.cache_hits as f64 / results,
    );
    metrics.set(
        "runtime.pool.busy_share",
        report.busy_ms / (nproc() as f64 * ms(report.samples.wall)),
    );
    metrics.set(
        "runtime.pool.worker_imbalance",
        worker_imbalance(&report.per_worker),
    );
}
