//! Chaos tests: the serving stack under seeded fault injection, per-job
//! deadlines, overload shedding, and graceful drain under pressure.
//!
//! Two kinds of harness:
//!
//! * **In-process** `serve_listener` servers for deadline and shedding
//!   semantics, where the test needs precise control of timing and the
//!   pool (fault schedules stay disarmed — `ZKVC_FAULTS` is process
//!   global and the test binary must not arm it for itself).
//! * **Subprocess** `zkvc serve --listen` servers (via
//!   `CARGO_BIN_EXE_zkvc`) with a `ZKVC_FAULTS` schedule armed in the
//!   child's environment, driven by the retrying client library. The
//!   invariants: no hang, no lost accepted job, exactly one terminal
//!   answer per request id, and the server survives every injected fault
//!   (clean SIGTERM drain, exit 0).

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use zkvc_runtime::{
    run_client, serve_listener, AnyStream, ClientConfig, Error, JobSpec, ListenAddr, NetConfig,
    NetSummary, ServeConfig,
};

/// A spec slow enough (setup included) to hold a one-worker pool while
/// the shed test's clients arrive, which is 150 ms after the hog's
/// submission plus a few retries. The cold setup + prove has to outlast
/// that in both build profiles: `16x16x16:zkvc:g` takes ~0.4 s in debug
/// but only ~45 ms in release, where the one-block MLP-Mixer on Spartan
/// (~0.9 s cold) holds the pool instead.
const SLOW_SPEC: &str = if cfg!(debug_assertions) {
    "16x16x16:zkvc:g"
} else {
    "mixer-block:s"
};
/// The deadline tests' spec and budget. The budget has to land *inside*
/// the warm prove in both build profiles: well above everything that
/// precedes the prove (statement + witness pass: ~1 ms release, ~5 ms
/// debug) and well below the prove itself (~280 ms release, ~2 s debug),
/// whose MSM checkpoints recur in every IPA round down to 64 points.
/// Spartan keeps the cold setup cheap in the debug profile, where a
/// Groth16 CRS of comparable prove time costs tens of seconds.
const DEADLINE_SPEC: &str = "16x16x16:zkvc:s";
const DEADLINE_MS: u64 = 50;
/// Serialises the tests that read `zkvc_ff::cancel::unwound_checkpoints`:
/// the counter is process-wide, so a concurrent interrupted prove would
/// otherwise vouch for the wrong test. The lock guards no data, so a
/// failed holder must not fail the next test too.
fn unwound_counter() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}
/// A spec fast enough to saturate-and-release quickly in shed tests.
const FAST_SPEC: &str = "2x2x2:zkvc:s";

struct Server {
    addr: ListenAddr,
    shutdown: Arc<AtomicBool>,
    handle: thread::JoinHandle<Result<NetSummary, Error>>,
}

impl Server {
    fn start_unix(name: &str, config: NetConfig) -> Server {
        let path =
            std::env::temp_dir().join(format!("zkvc-chaos-{}-{name}.sock", std::process::id()));
        let shutdown = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel();
        let handle = {
            let shutdown = Arc::clone(&shutdown);
            let addr = ListenAddr::Unix(path);
            thread::spawn(move || {
                serve_listener(&addr, config, shutdown, move |bound| {
                    tx.send(bound.clone()).expect("report bound address");
                })
            })
        };
        let addr = rx.recv().expect("server bound");
        Server {
            addr,
            shutdown,
            handle,
        }
    }

    fn finish(self) -> NetSummary {
        self.shutdown.store(true, Ordering::SeqCst);
        self.handle
            .join()
            .expect("server thread")
            .expect("serve_listener")
    }
}

/// Sends one request line and reads lines until one of the given type
/// mentions `id_token` (skipping key announcements), returning that line.
fn roundtrip(
    writer: &mut AnyStream,
    reader: &mut BufReader<AnyStream>,
    request: &str,
    line_type: &str,
    id_token: &str,
) -> String {
    writer
        .write_all(request.as_bytes())
        .and_then(|_| writer.write_all(b"\n"))
        .expect("write request");
    let type_token = format!("\"type\":\"{line_type}\"");
    let mut line = String::new();
    loop {
        line.clear();
        assert_ne!(
            reader.read_line(&mut line).expect("read response"),
            0,
            "eof before the {line_type} line for {id_token}"
        );
        let trimmed = line.trim();
        if trimmed.contains(&type_token) && trimmed.contains(id_token) {
            return trimmed.to_string();
        }
    }
}

/// Proves [`DEADLINE_SPEC`] once without a deadline: pays for setup, warms
/// the key cache, and shows the spec verifies when nothing interrupts it.
fn warm_up(writer: &mut AnyStream, reader: &mut BufReader<AnyStream>) {
    let warm = format!("{{\"spec\":\"{DEADLINE_SPEC}\",\"id\":\"warm\"}}");
    let line = roundtrip(writer, reader, &warm, "result", "\"warm\"");
    assert!(line.contains("\"verified\":true"), "warm-up failed: {line}");
}

/// The deadline-bearing request both deadline tests send.
fn deadline_request() -> String {
    format!("{{\"spec\":\"{DEADLINE_SPEC}\",\"id\":\"ddl\",\"deadline_ms\":{DEADLINE_MS}}}")
}

/// What a job stopped mid-kernel by its deadline looks like from outside:
/// the code-4 `deadline_exceeded` answer, and at least one cancellation
/// checkpoint that unwound while the request was in flight. A proof that
/// ran to completion would answer `"verified":true`; a deadline that
/// expired before the prove started would leave the counter where it was.
fn assert_interrupted_mid_kernel(result: &str, unwound_before: u64) {
    assert!(
        result.contains("\"verified\":false")
            && result.contains("\"code\":4")
            && result.contains("\"kind\":\"deadline_exceeded\""),
        "want a deadline_exceeded answer, got: {result}"
    );
    assert!(
        zkvc_ff::cancel::unwound_checkpoints() > unwound_before,
        "no kernel checkpoint unwound: the deadline was not enforced inside the prove"
    );
}

#[test]
fn deadline_interrupts_mid_kernel_and_answers_deadline_exceeded() {
    let _serial = unwound_counter();
    let server = Server::start_unix("deadline", NetConfig::new(ServeConfig::new(2).seed(3)));
    let stream = AnyStream::connect(&server.addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    warm_up(&mut writer, &mut reader);

    let unwound_before = zkvc_ff::cancel::unwound_checkpoints();
    let line = roundtrip(
        &mut writer,
        &mut reader,
        &deadline_request(),
        "result",
        "\"ddl\"",
    );
    assert_interrupted_mid_kernel(&line, unwound_before);

    writer.shutdown_write().expect("half-close");
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("drain responses");
    assert!(rest.contains("\"type\":\"summary\""));
    let totals = server.finish();
    assert_eq!(totals.jobs, 2);
    assert_eq!(totals.verified, 1);
    assert_eq!(totals.failed, 1, "the deadline job counts as failed");
}

#[test]
fn sigterm_drain_does_not_outwait_a_deadline() {
    let _serial = unwound_counter();
    let server = Server::start_unix("drain-ddl", NetConfig::new(ServeConfig::new(1).seed(3)));
    let stream = AnyStream::connect(&server.addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    warm_up(&mut writer, &mut reader);

    // A deadline-bearing job goes in, followed by a line the session can
    // only reject. Lines are handled in order, so once the rejection comes
    // back the job before it has been admitted to the pool (single worker,
    // empty queue) and its deadline clock is running. The connection stays
    // open — no EOF — so the drain below is triggered purely by the
    // shutdown flag, while the proof is in flight.
    let unwound_before = zkvc_ff::cancel::unwound_checkpoints();
    writer
        .write_all(format!("{}\n", deadline_request()).as_bytes())
        .expect("write deadline job");
    let barrier = "{\"spec\":\"not-a-spec\",\"id\":\"barrier\"}";
    roundtrip(&mut writer, &mut reader, barrier, "error", "\"barrier\"");

    server.shutdown.store(true, Ordering::SeqCst);
    let mut lines = Vec::new();
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line).expect("read response") == 0 {
            break;
        }
        let trimmed = line.trim().to_string();
        let is_summary = trimmed.contains("\"type\":\"summary\"");
        lines.push(trimmed);
        if is_summary {
            break;
        }
    }

    // A drain that waited the proof out would answer `"verified":true`.
    let result = lines
        .iter()
        .find(|l| l.contains("\"type\":\"result\"") && l.contains("\"ddl\""))
        .expect("the accepted job still gets its terminal line");
    assert_interrupted_mid_kernel(result, unwound_before);
    assert!(
        lines.iter().any(|l| l.contains("\"type\":\"summary\"")),
        "the session still gets its summary line on drain"
    );
    let totals = server.finish();
    assert_eq!(totals.jobs, 2);
    assert_eq!(totals.verified, 1);
    assert_eq!(totals.failed, 1);
    assert_eq!(totals.rejected, 1, "the barrier line never became a job");
}

#[test]
fn admission_bound_sheds_and_the_retrying_client_recovers() {
    // One worker, global admission bound of 1: while the slow job below
    // holds the pool, every other request must be answered with a shed
    // error (never queued), and a client with enough retry budget must
    // ride it out and finish clean.
    let server = Server::start_unix(
        "shed",
        NetConfig::new(ServeConfig::new(1).seed(3))
            .admission_bound(Some(1))
            .retry_after_ms(40),
    );

    let stream = AnyStream::connect(&server.addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    writer
        .write_all(format!("{{\"spec\":\"{SLOW_SPEC}\",\"id\":\"hog\"}}\n").as_bytes())
        .expect("write slow job");
    // Admission is synchronous with the session's submit loop; give it a
    // beat so in_flight is 1 before the clients arrive.
    thread::sleep(Duration::from_millis(150));

    // An impatient client exhausts its budget while the pool is held and
    // must surface the availability failure as its own error class.
    let spec = JobSpec::parse(FAST_SPEC).expect("spec").0;
    let impatient = ClientConfig::new(server.addr.clone(), spec)
        .count(1)
        .retries(1)
        .backoff_ms(10)
        .retry_seed(9);
    match run_client(&impatient) {
        Err(Error::RetriesExhausted { attempts, last }) => {
            assert_eq!(attempts, 2);
            assert!(last.contains("shed"), "last failure names the shed: {last}");
            assert_eq!(
                Error::RetriesExhausted { attempts, last }.exit_code(),
                3,
                "exhausted retries are an availability failure, exit 3"
            );
        }
        other => panic!("impatient client should exhaust retries, got {other:?}"),
    }

    // A patient client outlasts the hog: shed at first, then admitted.
    let patient = ClientConfig::new(server.addr.clone(), spec)
        .count(2)
        .retries(8)
        .backoff_ms(100)
        .retry_seed(9);
    let report = run_client(&patient).expect("patient client finishes");
    assert!(report.all_ok(), "after retries everything settles clean");
    assert_eq!(report.results(), 2);
    assert!(report.sheds() >= 1, "the first attempt must have been shed");
    assert!(report.attempts() >= 2);

    // The hog was never shed: it drains normally.
    writer.shutdown_write().expect("half-close");
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("drain hog session");
    assert!(rest.contains("\"hog\"") && rest.contains("\"verified\":true"));
    let totals = server.finish();
    assert!(totals.shed >= 3, "impatient (2 attempts) + patient (>=1)");
    assert_eq!(totals.jobs, 3, "shed requests never became jobs");
}

// ---------------------------------------------------------------------
// Subprocess chaos: a real `zkvc serve --listen` with ZKVC_FAULTS armed.
// ---------------------------------------------------------------------

struct ChaosServer {
    child: Child,
    addr: ListenAddr,
    stderr_path: PathBuf,
    sock_path: PathBuf,
}

impl ChaosServer {
    /// Spawns `zkvc serve --listen unix:...` with the given fault
    /// schedule armed in the child environment, waiting until the socket
    /// accepts.
    fn spawn(name: &str, faults: &str, extra_args: &[&str]) -> ChaosServer {
        let tag = format!("{}-{name}", std::process::id());
        let sock_path = std::env::temp_dir().join(format!("zkvc-chaos-proc-{tag}.sock"));
        let stderr_path = std::env::temp_dir().join(format!("zkvc-chaos-log-{tag}.txt"));
        let _ = std::fs::remove_file(&sock_path);
        let stderr_file = std::fs::File::create(&stderr_path).expect("chaos log file");
        let child = Command::new(env!("CARGO_BIN_EXE_zkvc"))
            .args([
                "serve",
                "--listen",
                &format!("unix:{}", sock_path.display()),
                "--workers",
                "2",
                "--seed",
                "3",
            ])
            .args(extra_args)
            .env("ZKVC_FAULTS", faults)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr_file)
            .spawn()
            .expect("spawn zkvc serve");
        let addr = ListenAddr::Unix(sock_path.clone());
        // The listener is up once a connect succeeds (the socket file
        // alone can exist before the accept loop runs).
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if AnyStream::connect(&addr).is_ok() {
                break;
            }
            assert!(Instant::now() < deadline, "server never came up");
            thread::sleep(Duration::from_millis(50));
        }
        ChaosServer {
            child,
            addr,
            stderr_path,
            sock_path,
        }
    }

    /// SIGTERMs the child and asserts the drain is clean: exit status 0
    /// within a bounded wait. Returns the chaos log (stderr) contents.
    fn terminate(mut self) -> String {
        let pid = self.child.id().to_string();
        let status = Command::new("kill")
            .args(["-TERM", &pid])
            .status()
            .expect("send SIGTERM");
        assert!(status.success(), "kill -TERM failed");
        let deadline = Instant::now() + Duration::from_secs(60);
        let status = loop {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                break status;
            }
            assert!(
                Instant::now() < deadline,
                "server did not drain within 60s of SIGTERM"
            );
            thread::sleep(Duration::from_millis(50));
        };
        assert!(
            status.success(),
            "server must survive every injected fault and drain on SIGTERM, got {status:?}"
        );
        let log = std::fs::read_to_string(&self.stderr_path).unwrap_or_default();
        let _ = std::fs::remove_file(&self.sock_path);
        log
    }
}

/// Checks the per-request invariants on a finished client report: every
/// id answered exactly once, ids unique, nothing from another session.
fn assert_one_terminal_answer_each(report: &zkvc_runtime::ClientReport, expected_jobs: usize) {
    let ids: Vec<&str> = report
        .sessions
        .iter()
        .flat_map(|s| s.jobs.iter().map(|j| j.id.as_str()))
        .collect();
    let unique: HashSet<&str> = ids.iter().copied().collect();
    assert_eq!(
        ids.len(),
        expected_jobs,
        "every accepted request gets exactly one terminal answer"
    );
    assert_eq!(unique.len(), ids.len(), "no id answered twice: {ids:?}");
    assert_eq!(report.id_mismatches(), 0);
    assert!(
        report.sessions.iter().all(|s| s.summary_seen),
        "every session (attempt) still ends with the summary line"
    );
}

#[test]
fn seeded_fault_schedule_is_survived_with_no_lost_jobs() {
    // Four distinct fault points armed in one seeded schedule: stalled
    // reads, short reads, stalled writes, and worker panics at pickup.
    // None of these may lose an accepted job or take the server down.
    let server = ChaosServer::spawn(
        "mixed",
        "seed=7;net.read.delay=0.10@30;net.read.short=0.25;net.write.delay=0.10@20;pool.pickup.panic=0.08",
        &[],
    );

    let spec = JobSpec::parse(FAST_SPEC).expect("spec").0;
    let config = ClientConfig::new(server.addr.clone(), spec)
        .sessions(3)
        .count(6)
        .retries(4)
        .backoff_ms(100)
        .retry_seed(5);
    let report = run_client(&config).expect("client finishes under chaos");

    assert_one_terminal_answer_each(&report, 3 * 6);
    // Injected worker panics surface as honest failed verdicts (kind
    // "panicked"), never as silence; everything that did prove must
    // still verify locally.
    assert_eq!(report.verify_failures(), 0);
    assert_eq!(
        report.results() - report.verdict_failures(),
        report.verified_local(),
        "every verified result's envelope checked out locally"
    );

    let log = server.terminate();
    assert!(
        log.contains("zkvc-fault:"),
        "the armed schedule must actually fire (chaos log):\n{log}"
    );
    assert!(
        log.contains("zkvc serve:"),
        "the drain still prints the totals line:\n{log}"
    );
}

#[test]
fn write_faults_kill_sessions_but_the_retrying_client_recovers() {
    // Only injected write failures: sessions die mid-stream (the server
    // cancels their remaining jobs), and the client's
    // reconnect-and-resubmit path has to deliver every id exactly once
    // anyway.
    let server = ChaosServer::spawn("write-io", "seed=13;net.write.io_error=0.02", &[]);

    let spec = JobSpec::parse(FAST_SPEC).expect("spec").0;
    let config = ClientConfig::new(server.addr.clone(), spec)
        .sessions(2)
        .count(8)
        .retries(8)
        .backoff_ms(100)
        .retry_seed(21);
    let report = run_client(&config).expect("client outlasts the write faults");

    assert_one_terminal_answer_each(&report, 2 * 8);
    assert!(
        report.all_ok(),
        "all proofs verified once resubmitted:\n{}",
        report.render_table()
    );

    let log = server.terminate();
    assert!(log.contains("zkvc serve:"));
}
