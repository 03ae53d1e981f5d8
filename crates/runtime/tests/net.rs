//! Integration tests for the socket listener: concurrent sessions, id
//! scoping, per-connection fault isolation, disconnect cancellation, and
//! graceful drain — all against a real `serve_listener` on a Unix socket
//! (plus one TCP round trip), with raw `AnyStream` clients so the tests
//! exercise the wire, not the client library. The client library's own
//! tests close the file: one against a real server, and two against a
//! scripted server that answers with proofs the client must reject.

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkvc_core::api::{compile_shape, generate_witness_for};
use zkvc_core::{Backend, VerifierKey};
use zkvc_ff::codec::hex;
use zkvc_ff::{Field, Fr};
use zkvc_runtime::codec::SERVE_PROTO;
use zkvc_runtime::{
    build_statement, run_client, serve, serve_listener, AnyStream, ClientConfig, ClientReport,
    Error, JobSpec, KeyCache, ListenAddr, NetConfig, NetSummary, ProofEnvelope, ServeConfig,
    StatementVerifier,
};

struct Server {
    addr: ListenAddr,
    shutdown: Arc<AtomicBool>,
    handle: thread::JoinHandle<Result<NetSummary, Error>>,
}

impl Server {
    /// Starts a listener on a fresh Unix socket; returns once it is
    /// accepting (the `on_bound` callback has fired).
    fn start_unix(name: &str, config: NetConfig) -> Server {
        let path =
            std::env::temp_dir().join(format!("zkvc-net-{}-{name}.sock", std::process::id()));
        Server::start(ListenAddr::Unix(path), config)
    }

    fn start(addr: ListenAddr, config: NetConfig) -> Server {
        let shutdown = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel();
        let handle = {
            let shutdown = Arc::clone(&shutdown);
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

    /// Raises the shutdown flag and returns the aggregate totals.
    fn finish(self) -> NetSummary {
        self.shutdown.store(true, Ordering::SeqCst);
        self.handle
            .join()
            .expect("server thread")
            .expect("serve_listener")
    }
}

/// Reads whole response lines until (and including) the summary line.
fn read_until_summary(reader: &mut impl BufRead) -> Vec<String> {
    let mut lines = Vec::new();
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line).expect("read response") == 0 {
            break;
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let is_summary = trimmed.contains("\"type\":\"summary\"");
        lines.push(trimmed.to_string());
        if is_summary {
            break;
        }
    }
    lines
}

fn count(lines: &[String], needle: &str) -> usize {
    lines.iter().filter(|l| l.contains(needle)).count()
}

/// An in-memory stdout for `serve()`.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn concurrent_sessions_keep_ids_scoped() {
    // 8 concurrent clients, each with its own id space, multiplexed onto
    // one pool + one warm cache. Every client must get back exactly its
    // own ids and nothing from any neighbour.
    let server = Server::start_unix(
        "scoped",
        NetConfig::new(ServeConfig::new(4).seed(7)).session_bound(16),
    );
    let addr = server.addr.clone();
    let clients: Vec<_> = (0..8)
        .map(|k| {
            let addr = addr.clone();
            thread::spawn(move || {
                let stream = AnyStream::connect(&addr).expect("connect");
                let mut writer = stream.try_clone().expect("clone");
                for i in 0..3 {
                    writeln!(writer, "{{\"spec\":\"2x2x2:zkvc:s\",\"id\":\"t{k}-{i}\"}}")
                        .expect("send request");
                }
                writer.shutdown_write().expect("half-close");
                let lines = read_until_summary(&mut BufReader::new(stream));
                (k, lines)
            })
        })
        .collect();

    let mut session_ids = HashSet::new();
    for client in clients {
        let (k, lines) = client.join().expect("client thread");
        assert_eq!(count(&lines, "\"type\":\"ready\""), 1, "{lines:?}");
        assert_eq!(count(&lines, "\"type\":\"result\""), 3, "{lines:?}");
        assert_eq!(count(&lines, "\"verified\":true"), 3, "{lines:?}");
        assert_eq!(count(&lines, "\"type\":\"summary\""), 1, "{lines:?}");
        // All three of this session's ids came back; no foreign ids did.
        for i in 0..3 {
            assert_eq!(count(&lines, &format!("\"id\":\"t{k}-{i}\"")), 1);
        }
        for other in 0..8 {
            if other != k {
                assert_eq!(
                    count(&lines, &format!("\"id\":\"t{other}-")),
                    0,
                    "session {k} saw ids of session {other}: {lines:?}"
                );
            }
        }
        // The handshake names this connection's distinct server-side
        // session id; the summary repeats it.
        let ready = &lines[0];
        let sid = ready
            .split("\"session\":")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .expect("session id in ready line")
            .to_string();
        assert!(
            lines
                .last()
                .unwrap()
                .contains(&format!("\"session\":{sid}")),
            "{lines:?}"
        );
        session_ids.insert(sid);
    }
    assert_eq!(session_ids.len(), 8, "session ids must be distinct");

    let totals = server.finish();
    assert_eq!(totals.sessions, 8);
    assert_eq!(totals.jobs, 24);
    assert_eq!(totals.verified, 24);
    assert_eq!(totals.failed, 0);
    assert_eq!(totals.disconnected, 0);
}

#[test]
fn garbage_poisons_only_its_own_connection() {
    let server = Server::start_unix(
        "garbage",
        NetConfig::new(ServeConfig::new(2).max_request_bytes(256)),
    );

    // Session A: garbage, an oversized line, and one valid request.
    let a = {
        let addr = server.addr.clone();
        thread::spawn(move || {
            let stream = AnyStream::connect(&addr).expect("connect");
            let mut writer = stream.try_clone().expect("clone");
            writeln!(writer, "this is not json").unwrap();
            writeln!(
                writer,
                "{{\"spec\":\"2x2x2:zkvc:s\",\"id\":\"{}\"}}",
                "x".repeat(400)
            )
            .unwrap();
            writeln!(writer, "{{\"spec\":\"2x2x2:zkvc:s\",\"id\":\"a-ok\"}}").unwrap();
            writer.shutdown_write().unwrap();
            read_until_summary(&mut BufReader::new(stream))
        })
    };
    // Session B: only valid requests.
    let b = {
        let addr = server.addr.clone();
        thread::spawn(move || {
            let stream = AnyStream::connect(&addr).expect("connect");
            let mut writer = stream.try_clone().expect("clone");
            writeln!(writer, "{{\"spec\":\"2x2x2:zkvc:s\",\"id\":\"b-ok\"}}").unwrap();
            writer.shutdown_write().unwrap();
            read_until_summary(&mut BufReader::new(stream))
        })
    };

    let a = a.join().expect("session a");
    let b = b.join().expect("session b");

    // A's bad lines are answered in A's stream with code 2; its valid
    // request still proves — one bad line never kills the connection.
    assert_eq!(count(&a, "\"type\":\"error\""), 2, "{a:?}");
    assert_eq!(count(&a, "\"code\":2"), 2, "{a:?}");
    assert_eq!(count(&a, "\"id\":\"a-ok\""), 1, "{a:?}");
    assert_eq!(count(&a, "\"verified\":true"), 1, "{a:?}");
    assert!(a.last().unwrap().contains("\"rejected\":2"), "{a:?}");

    // B saw none of it.
    assert_eq!(count(&b, "\"type\":\"error\""), 0, "{b:?}");
    assert_eq!(count(&b, "\"verified\":true"), 1, "{b:?}");
    assert!(b.last().unwrap().contains("\"rejected\":0"), "{b:?}");

    let totals = server.finish();
    assert_eq!(totals.jobs, 2);
    assert_eq!(totals.verified, 2);
    assert_eq!(totals.rejected, 2);
}

#[test]
fn stale_worker_registration_is_an_ordinary_bad_request() {
    // A listener session is only ever a client session: a registration
    // line from an old remote prover is answered like any other unknown
    // request, and the same session goes on proving.
    let server = Server::start_unix("stale-worker", NetConfig::new(ServeConfig::new(1)));
    let stream = AnyStream::connect(&server.addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    writeln!(
        writer,
        r#"{{"type":"worker_register","proto":"zkvc-worker/v1","capacity":2}}"#
    )
    .unwrap();
    writeln!(writer, r#"{{"spec":"2x2x2:zkvc:s","seed":7}}"#).unwrap();
    writer.shutdown_write().unwrap();
    let lines = read_until_summary(&mut BufReader::new(stream));

    assert_eq!(count(&lines, "\"type\":\"error\""), 1, "{lines:?}");
    assert_eq!(count(&lines, "\"code\":2"), 1, "{lines:?}");
    assert_eq!(count(&lines, "\"type\":\"result\""), 1, "{lines:?}");
    assert_eq!(count(&lines, "\"verified\":true"), 1, "{lines:?}");
    let summary = lines.last().unwrap();
    assert!(summary.contains("\"type\":\"summary\""), "{lines:?}");
    assert!(summary.contains("\"rejected\":1"), "{lines:?}");

    let totals = server.finish();
    assert_eq!((totals.jobs, totals.verified, totals.rejected), (1, 1, 1));
}

#[test]
fn disconnect_mid_batch_cancels_inflight_and_server_survives() {
    // One worker, a deep batch of slow Groth16 jobs, and a client that
    // vanishes right after the handshake. The first result write hits the
    // dead socket, the session's remaining jobs are cancelled (drained
    // unproved, not ground through), and the server keeps serving other
    // clients.
    let server = Server::start_unix(
        "disconnect",
        NetConfig::new(ServeConfig::new(1).queue_bound(64)).session_bound(32),
    );

    {
        let stream = AnyStream::connect(&server.addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        writeln!(
            writer,
            "{{\"spec\":\"8x8x8:vanilla:g:x12\",\"id\":\"doomed\"}}"
        )
        .unwrap();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).expect("ready line");
        assert!(line.contains("\"type\":\"ready\""), "{line}");
        // Drop both halves: the peer is gone mid-batch.
    }

    // A second client gets served while (and after) the wreckage drains.
    let stream = AnyStream::connect(&server.addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    writeln!(writer, "{{\"spec\":\"2x2x2:zkvc:s\",\"id\":\"survivor\"}}").unwrap();
    writer.shutdown_write().unwrap();
    let lines = read_until_summary(&mut BufReader::new(stream));
    assert_eq!(count(&lines, "\"id\":\"survivor\""), 1, "{lines:?}");
    assert_eq!(count(&lines, "\"verified\":true"), 1, "{lines:?}");

    let totals = server.finish();
    assert_eq!(totals.sessions, 2);
    assert_eq!(totals.disconnected, 1);
    // Every accepted job is accounted for: proved before the pipe broke,
    // or drained as cancelled after it.
    assert_eq!(totals.jobs, 13);
    assert_eq!(totals.verified + totals.failed, 13);
    assert!(
        totals.failed >= 1,
        "at least one queued job of the vanished client must be cancelled, got {totals:?}"
    );
    assert!(
        totals.verified >= 1,
        "the survivor's job proved: {totals:?}"
    );
}

#[test]
fn shutdown_drains_every_accepted_job_and_summarises_open_sessions() {
    // A client with its connection still open (no EOF sent) when the
    // server is told to shut down: the session must flush every accepted
    // job's result and its summary line before the listener exits.
    let server = Server::start_unix(
        "drain",
        NetConfig::new(ServeConfig::new(1)).session_bound(16),
    );

    let stream = AnyStream::connect(&server.addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    for i in 0..6 {
        writeln!(writer, "{{\"spec\":\"4x4x4:vanilla:g\",\"id\":\"d-{i}\"}}").unwrap();
    }
    // Note: no shutdown_write — the connection stays open; only the
    // server-side shutdown ends this session. Intake answers lines in
    // order, so once the rejected barrier line has its error, all six
    // requests before it have been admitted.
    writeln!(writer, "{{\"spec\":\"not-a-spec\",\"id\":\"barrier\"}}").unwrap();
    let mut reader = BufReader::new(stream);
    let mut lines = Vec::new();
    while count(&lines, "\"id\":\"barrier\"") == 0 {
        let mut line = String::new();
        assert_ne!(reader.read_line(&mut line).expect("read response"), 0);
        lines.push(line.trim().to_string());
    }

    let reader = thread::spawn(move || read_until_summary(&mut reader));
    let totals = server.finish();
    lines.extend(reader.join().expect("reader thread"));
    assert_eq!(count(&lines, "\"type\":\"result\""), 6, "{lines:?}");
    assert_eq!(count(&lines, "\"verified\":true"), 6, "{lines:?}");
    assert_eq!(count(&lines, "\"type\":\"summary\""), 1, "{lines:?}");
    assert!(lines.last().unwrap().contains("\"jobs\":6"), "{lines:?}");
    assert_eq!(totals.jobs, 6);
    assert_eq!(totals.verified, 6);
    assert_eq!(totals.rejected, 1, "the barrier line never became a job");
    drop(writer);
}

/// A response line with everything a transport or a clock may
/// legitimately change removed: the `session` tag, the worker index, and
/// every `*_ms` / `wall_s` timing.
fn transport_neutral(line: &str) -> String {
    let body = line.trim().trim_start_matches('{').trim_end_matches('}');
    let kept: Vec<&str> = body
        .split(',')
        .filter(|field| {
            let key = field.split(':').next().unwrap_or("").trim_matches('"');
            !(key == "session" || key == "worker" || key == "wall_s" || key.ends_with("_ms"))
        })
        .collect();
    kept.join(",")
}

/// Results land when their proof does, so only the handshake and the
/// summary have a fixed place; the lines in between compare as a set.
fn canonical_transcript(lines: impl Iterator<Item = String>) -> Vec<String> {
    let mut lines: Vec<String> = lines.map(|l| transport_neutral(&l)).collect();
    let last = lines.len() - 1;
    lines[1..last].sort();
    lines
}

#[test]
fn stdin_and_socket_sessions_give_the_same_transcript() {
    // One session loop: a good request, malformed JSON, an unknown field,
    // an oversized line and a `:x` count over the queue bound draw the
    // same response lines from `serve()` over a pipe and from a
    // unix-socket session.
    let config = || {
        ServeConfig::new(1)
            .seed(7)
            .queue_bound(8)
            .max_request_bytes(256)
    };
    let input = format!(
        concat!(
            "{{\"spec\":\"2x2x2:zkvc:g\",\"id\":\"good\"}}\n",
            "not json\n",
            "{{\"spec\":\"2x2x2:zkvc:g\",\"id\":\"extra\",\"frobnicate\":true}}\n",
            "{{\"spec\":\"2x2x2:zkvc:g\",\"id\":\"{}\"}}\n",
            "{{\"spec\":\"2x2x2:zkvc:g:x9\",\"id\":\"flood\"}}\n",
        ),
        "x".repeat(400)
    );

    let piped = SharedBuf::default();
    let summary = serve(input.as_bytes(), piped.clone(), config()).expect("stdin session");
    assert_eq!((summary.verified, summary.rejected), (1, 4));
    let piped = String::from_utf8(piped.0.lock().unwrap().clone()).unwrap();
    let piped = canonical_transcript(piped.lines().map(str::to_string));

    let server = Server::start_unix("parity", NetConfig::new(config()));
    let stream = AnyStream::connect(&server.addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    writer.write_all(input.as_bytes()).unwrap();
    writer.shutdown_write().unwrap();
    let socket = read_until_summary(&mut BufReader::new(stream));
    server.finish();
    assert!(socket[0].contains("\"session\":1,"), "{socket:?}");
    let socket = canonical_transcript(socket.into_iter());

    // ready, key, result, four errors, summary.
    assert_eq!(piped.len(), 8, "{piped:?}");
    assert_eq!(piped, socket);
}

#[test]
fn idle_sessions_are_reaped_but_busy_ones_are_not() {
    let server = Server::start_unix(
        "idle",
        NetConfig::new(ServeConfig::new(1)).idle_timeout(Some(Duration::from_secs(1))),
    );

    // This client connects and then says nothing: reaped after ~1s with
    // an error line and its summary.
    let stream = AnyStream::connect(&server.addr).expect("connect");
    let lines = read_until_summary(&mut BufReader::new(stream));
    assert_eq!(count(&lines, "\"type\":\"error\""), 1, "{lines:?}");
    assert!(lines.iter().any(|l| l.contains("idle")), "{lines:?}");
    assert_eq!(count(&lines, "\"type\":\"summary\""), 1, "{lines:?}");

    let totals = server.finish();
    assert_eq!(totals.reaped_idle, 1);
}

#[test]
fn tcp_transport_round_trips_on_an_ephemeral_port() {
    let server = Server::start(
        ListenAddr::parse("tcp:127.0.0.1:0").unwrap(),
        NetConfig::new(ServeConfig::new(1)),
    );
    // The bound address resolved the ephemeral port.
    let ListenAddr::Tcp(hostport) = &server.addr else {
        panic!("expected tcp addr, got {}", server.addr);
    };
    assert!(!hostport.ends_with(":0"), "resolved port: {hostport}");

    let stream = AnyStream::connect(&server.addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    writeln!(writer, "{{\"spec\":\"2x2x2:zkvc:s\",\"id\":\"tcp-1\"}}").unwrap();
    writer.shutdown_write().unwrap();
    let lines = read_until_summary(&mut BufReader::new(stream));
    assert_eq!(count(&lines, "\"id\":\"tcp-1\""), 1, "{lines:?}");
    assert_eq!(count(&lines, "\"verified\":true"), 1, "{lines:?}");

    let totals = server.finish();
    assert_eq!(totals.jobs, 1);
    assert_eq!(totals.verified, 1);
}

#[test]
fn client_driver_verifies_against_derived_keys_across_sessions() {
    // The library client against a real server: 4 concurrent sessions of
    // Groth16 jobs, envelopes re-verified locally against keys the client
    // derives from `(spec, seed)`; the server's key lines are skipped.
    let server = Server::start_unix(
        "driver",
        NetConfig::new(ServeConfig::new(2).seed(3)).session_bound(16),
    );
    let (spec, _) = JobSpec::parse("3x3x3:zkvc:g").unwrap();
    let report = run_client(
        &ClientConfig::new(server.addr.clone(), spec)
            .sessions(4)
            .count(3)
            .seed(Some(11)),
    )
    .expect("client run");
    assert!(report.all_ok(), "{report:?}");
    assert_eq!(report.results(), 12);
    assert_eq!(report.verified_local(), 12);
    assert_eq!(report.verify_failures(), 0);
    assert_eq!(report.id_mismatches(), 0);
    assert!(report.latency_ms(50.0) > 0.0);
    // The deterministic report carries one record per job with a real
    // digest; all twelve proofs are the same statement, so all digests
    // (and the two same-seed runs CI diffs) agree.
    let json = report.render_report_json();
    assert_eq!(json.matches("\"proof_sha256\":\"").count(), 12);

    let totals = server.finish();
    assert_eq!(totals.sessions, 4);
    assert_eq!(totals.verified, 12);
}

/// An honest Groth16 proof of `spec` job 0 at `seed`, made under the
/// setup for `setup_seed`, and the serve `key` line announcing that
/// setup's vk for `(shape digest, seed)`.
fn groth16_proof(spec: &str, seed: u64, setup_seed: u64) -> (Vec<u8>, String) {
    let (spec, _) = JobSpec::parse(spec).unwrap();
    let statement = build_statement(seed, 0, &spec);
    let shape = Arc::new(compile_shape(statement.as_ref()));
    let (keys, _) = KeyCache::new().get_or_setup_shape(Backend::Groth16, shape, setup_seed);
    let witness = generate_witness_for(statement.as_ref(), &keys.shape);
    let artifacts =
        keys.backend
            .prove_assignment(&keys.prover, &witness, &mut StdRng::seed_from_u64(1));
    let VerifierKey::Groth16(vk) = &keys.verifier else {
        unreachable!("groth16 setup")
    };
    let key_line = format!(
        "{{\"type\":\"key\",\"backend\":\"groth16\",\"shape_digest\":\"{}\",\"seed\":{seed},\"vk_hex\":\"{}\"}}",
        hex(&keys.digest),
        hex(&vk.to_bytes())
    );
    (
        ProofEnvelope::from_artifacts(&artifacts).to_bytes(),
        key_line,
    )
}

/// Runs a one-request `3x3x3:zkvc:g` client at seed 11 against a scripted
/// server on a fresh Unix socket. The server sends `ready`, reads the
/// request, answers `c0-0` with an honest Groth16 proof of `answer_spec`
/// at seed 11 under the setup for `setup_seed` (its `key` line first),
/// then sends `summary`.
fn client_against_scripted_server(name: &str, answer_spec: &str, setup_seed: u64) -> ClientReport {
    let (proof, key_line) = groth16_proof(answer_spec, 11, setup_seed);
    let path = std::env::temp_dir().join(format!("zkvc-net-{}-{name}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let listener = UnixListener::bind(&path).expect("bind scripted server");
    let answer = format!(
        "{{\"type\":\"result\",\"id\":\"c0-0\",\"job\":0,\"spec\":\"{answer_spec}\",\"seed\":11,\"verified\":true,\"proof_hex\":\"{}\"}}",
        hex(&proof)
    );
    let server = thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut writer = stream.try_clone().expect("clone");
        writeln!(
            writer,
            "{{\"type\":\"ready\",\"proto\":\"{SERVE_PROTO}\",\"workers\":1,\"seed\":11,\"queue_bound\":4}}"
        )
        .unwrap();
        let mut request = String::new();
        BufReader::new(stream)
            .read_line(&mut request)
            .expect("read request");
        assert!(request.contains("\"id\":\"c0-0\""), "{request}");
        writeln!(writer, "{key_line}\n{answer}\n{{\"type\":\"summary\"}}").unwrap();
    });
    let (spec, _) = JobSpec::parse("3x3x3:zkvc:g").unwrap();
    let report = run_client(
        &ClientConfig::new(ListenAddr::Unix(path.clone()), spec)
            .count(1)
            .seed(Some(11))
            .retries(0),
    )
    .expect("client run");
    server.join().expect("scripted server");
    let _ = std::fs::remove_file(&path);
    assert_eq!(report.results(), 1, "{report:?}");
    report
}

#[test]
fn client_rejects_a_proof_under_a_prover_picked_key() {
    // Control: the honest setup passes through the scripted server.
    let honest = client_against_scripted_server("honest-key", "3x3x3:zkvc:g", 11);
    assert!(honest.all_ok(), "{honest:?}");
    assert_eq!(honest.verified_local(), 1);
    // The same statement proved under a setup the server picked, with its
    // vk announced on a key line: an honest proof, under the wrong key.
    let picked = client_against_scripted_server("picked-key", "3x3x3:zkvc:g", 12);
    assert_eq!(picked.verify_failures(), 1, "{picked:?}");
    assert_eq!(picked.verified_local(), 0);
    assert!(!picked.all_ok());
}

#[test]
fn client_rejects_an_honest_proof_of_a_cheaper_statement() {
    // Asked for 3x3x3, the server proves 2x2x2 honestly under the honest
    // seed and says so on the result line.
    let report = client_against_scripted_server("cheaper", "2x2x2:zkvc:g", 11);
    assert_eq!(report.verify_failures(), 1, "{report:?}");
    assert_eq!(report.verified_local(), 0);
    assert!(!report.all_ok());
}

#[test]
fn statement_verifier_rejects_picked_keys_and_unexpected_publics() {
    let (spec, _) = JobSpec::parse("3x3x3:zkvc:g").unwrap();
    let verifier = StatementVerifier::new(&spec, 11);
    let (honest, _) = groth16_proof("3x3x3:zkvc:g", 11, 11);
    assert!(verifier.check(&honest).is_ok());
    let (picked, _) = groth16_proof("3x3x3:zkvc:g", 11, 12);
    assert!(matches!(
        verifier.check(&picked),
        Err(Error::VerificationFailed)
    ));

    // A `:private` statement expects no public inputs, so an envelope
    // that carries one fails binding, before any pairing.
    let (spec, _) = JobSpec::parse("3x3x3:zkvc:g:private").unwrap();
    let verifier = StatementVerifier::new(&spec, 11);
    assert!(verifier.expected_outputs().is_empty());
    let (private, _) = groth16_proof("3x3x3:zkvc:g:private", 11, 11);
    assert!(verifier.check(&private).is_ok());
    let mut envelope = ProofEnvelope::decode(&private).unwrap();
    envelope.public_inputs.push(Fr::one());
    assert!(matches!(
        verifier.check(&envelope.to_bytes()),
        Err(Error::StatementMismatch)
    ));
}
