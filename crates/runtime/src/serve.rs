//! The resident proving server behind `zkvc serve`: a long-running
//! process that reads JSON-lines job requests from a stream (stdin in the
//! CLI), proves them on a [`ProvingPool`], and streams JSON-lines
//! responses back **as each proof completes** — out of order, tagged with
//! the request's own `id`. The pool's [`KeyCache`] lives as long as the
//! server, so a repeat circuit shape is O(prove), not O(setup), no matter
//! how many requests ago it was first seen.
//!
//! The wire dialect (flat JSON-lines, `zkvc-serve/v1`) lives in
//! [`crate::wire`]; `docs/PROTOCOL.md` freezes the schema. This module
//! owns the *session semantics* for every transport: `run_session` is
//! the one intake loop — line rejects, the `:xN` bound, admission,
//! pre-flight, submission with backpressure, drain, summary — and
//! [`serve`] runs it over stdin/stdout exactly as each socket connection
//! of [`crate::net`] runs it over its stream, alongside the per-`(shape,
//! seed)` key streaming and the counters behind the summary line.
//!
//! A `key` line is emitted once per new Groth16 `(shape, seed)` — result
//! envelopes are keyless, exactly like pool batches — when the shape's
//! first job completes (results for cache-hit jobs of the same shape may
//! land before it; buffer if verifying online). Malformed, oversized, or
//! unparseable requests are answered with an `error` line carrying the
//! exit-code class the CLI would have used (`2`), and the server keeps
//! running: one bad client line never kills the process.

use std::collections::HashSet;
use std::io::{self, BufRead, Write};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use zkvc_core::{Backend, VerifierKey};
use zkvc_ff::codec::hex;

use crate::analysis::Preflight;
use crate::cache::KeyCache;
use crate::error::Error;
use crate::net::NetConfig;
use crate::pool::{JobOptions, JobResult, PoolConfig, ProvingPool, ResultSink, SessionCtl};
use crate::wire::{error_line, is_poll_tick, parse_request, result_line, LineReader, LineReject};

/// Default byte bound for the resident key cache (see
/// [`ServeConfig::cache_bytes`]).
pub const DEFAULT_CACHE_BYTES: usize = 256 << 20;

/// Configuration for [`serve`] (and, via [`crate::net::NetConfig`], for
/// every socket listener session).
#[derive(Debug)]
pub struct ServeConfig {
    /// Worker threads proving requests.
    pub workers: usize,
    /// Default statement seed for requests that carry none; also seeds
    /// the resident key cache.
    pub seed: u64,
    /// Backpressure bound: request intake blocks (in the pipe) while this
    /// many jobs are queued.
    pub queue_bound: usize,
    /// Maximum accepted request-line length in bytes; longer lines are
    /// discarded whole and answered with an error response.
    pub max_request_bytes: usize,
    /// Whether `result` lines carry the proof envelope as `proof_hex`
    /// (disable for throughput probes that only want verdicts).
    pub include_proofs: bool,
    /// Byte bound on the resident [`KeyCache`]: when the compiled shapes
    /// held alive exceed this, the least-recently-used cold shapes are
    /// evicted (and re-set-up on next use). `None` disables the bound.
    pub cache_bytes: Option<usize>,
    /// When set, every spec is statically analyzed before its first job
    /// is admitted (see [`crate::analysis`]); specs whose shapes carry
    /// deny-severity findings are rejected with an in-stream code-2
    /// error instead of being proved. The verdict is memoised per spec,
    /// so the pre-flight costs one witness-free compile per distinct
    /// circuit per session.
    pub analyze_on_compile: bool,
}

impl ServeConfig {
    /// Defaults: `workers` threads, seed 0, 256-job queue bound, 64 KiB
    /// request lines, proofs included, a 256 MiB
    /// shape-byte bound on the resident key cache.
    pub fn new(workers: usize) -> Self {
        ServeConfig {
            workers: workers.max(1),
            seed: 0,
            queue_bound: 256,
            max_request_bytes: 64 * 1024,
            include_proofs: true,
            cache_bytes: Some(DEFAULT_CACHE_BYTES),
            analyze_on_compile: false,
        }
    }

    /// Sets the default statement seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the backpressure bound (clamped to at least 1).
    pub fn queue_bound(mut self, bound: usize) -> Self {
        self.queue_bound = bound.max(1);
        self
    }

    /// Sets the request-line size limit (clamped to at least 64 bytes).
    pub fn max_request_bytes(mut self, max: usize) -> Self {
        self.max_request_bytes = max.max(64);
        self
    }

    /// Sets whether result lines include the proof bytes.
    pub fn include_proofs(mut self, include: bool) -> Self {
        self.include_proofs = include;
        self
    }

    /// Sets (or disables) the resident key cache's shape-byte bound.
    pub fn cache_bytes(mut self, bytes: Option<usize>) -> Self {
        self.cache_bytes = bytes;
        self
    }

    /// Enables the static-analysis pre-flight on every spec's first job.
    pub fn analyze_on_compile(mut self, enable: bool) -> Self {
        self.analyze_on_compile = enable;
        self
    }

    /// Builds the resident key cache this config describes.
    pub(crate) fn build_cache(&self) -> KeyCache {
        let cache = KeyCache::with_seed(self.seed);
        match self.cache_bytes {
            Some(bytes) => cache.bound_shape_bytes(bytes),
            None => cache,
        }
    }

    /// Builds the resident pool this config describes: results leave
    /// through `sink` as they land and are not retained, so a long-lived
    /// process does not hold every proof it ever made.
    pub(crate) fn build_pool(&self, cache: &Arc<KeyCache>, sink: ResultSink) -> ProvingPool {
        ProvingPool::configured(
            PoolConfig::new(self.workers)
                .seed(self.seed)
                .queue_bound(self.queue_bound)
                .retain_results(false),
            Arc::clone(cache),
            Some(sink),
        )
    }
}

/// What a [`serve`] session did, returned after the input stream ends.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Jobs accepted and run (including cancelled/panicked ones).
    pub jobs: usize,
    /// Jobs whose proof verified.
    pub verified: usize,
    /// Jobs that did not verify (bad proof, cancelled, panicked).
    pub failed: usize,
    /// Request lines rejected before reaching the pool (malformed JSON,
    /// unknown fields, bad specs, oversized lines).
    pub rejected: usize,
}

/// Shared writer: worker sinks and the intake loop interleave whole
/// lines; the first I/O error is latched and ends the session.
pub(crate) struct Output<W: Write> {
    writer: Mutex<W>,
    broken: Mutex<Option<io::Error>>,
}

impl<W: Write> Output<W> {
    pub(crate) fn new(writer: W) -> Self {
        Output {
            writer: Mutex::new(writer),
            broken: Mutex::new(None),
        }
    }

    pub(crate) fn emit(&self, line: &str) {
        // A latched failure condemns the whole stream: nothing written
        // after it can be trusted to arrive in order (the peer is gone,
        // or — under fault injection — the session is being torn down),
        // so later emits are dropped rather than interleaved onto a
        // half-dead connection.
        if self.is_broken() {
            return;
        }
        let mut w = self.writer.lock().expect("serve output poisoned");
        let result = writeln!(w, "{line}").and_then(|_| w.flush());
        if let Err(e) = result {
            let mut broken = self.broken.lock().expect("serve output poisoned");
            broken.get_or_insert(e);
        }
    }

    /// `true` once any emit has failed; the latched error stays put for
    /// [`Output::take_error`] so a broken-pipe session still reports its
    /// root cause at the end.
    pub(crate) fn is_broken(&self) -> bool {
        self.broken.lock().expect("serve output poisoned").is_some()
    }

    pub(crate) fn take_error(&self) -> Option<io::Error> {
        self.broken.lock().expect("serve output poisoned").take()
    }
}

/// One client session: its response plumbing — the latched line writer,
/// the set of `(shape, seed)` pairs whose Groth16 key line already
/// streamed, the jobs/verified counters feeding the summary — and its
/// cancellation/backpressure scope. Shared between the session's intake
/// loop and the pool's result sink.
///
/// The sent-key set (rather than the result's `cache_hit` flag) decides
/// key emission: with a byte-bounded cache a shape can be evicted and
/// re-set-up, which would re-announce the key mid-session otherwise —
/// and each socket session needs its own announcement state anyway.
pub(crate) struct Session<W: Write> {
    pub(crate) out: Output<W>,
    pub(crate) ctl: Arc<SessionCtl>,
    sent_keys: Mutex<HashSet<([u8; 32], u64)>>,
    jobs: AtomicUsize,
    verified: AtomicUsize,
}

impl<W: Write> Session<W> {
    /// A session writing to `writer`, admitting at most `bound` of its
    /// own jobs in flight; `id` tags its results for sink routing.
    pub(crate) fn new(writer: W, id: u64, bound: usize) -> Self {
        Session {
            out: Output::new(writer),
            ctl: Arc::new(SessionCtl::new(id, bound)),
            sent_keys: Mutex::new(HashSet::new()),
            jobs: AtomicUsize::new(0),
            verified: AtomicUsize::new(0),
        }
    }

    /// Streams one job result to this session: the `key` line first if
    /// this is the session's first Groth16 result for its `(shape,
    /// seed)`, then the `result` line; updates the session counters. A
    /// write that fails (the consumer is gone) cancels the session's
    /// remaining jobs right here, from the pool's sink, so they drain
    /// instead of proving into the void.
    pub(crate) fn emit_result(&self, cache: &KeyCache, include_proofs: bool, result: &JobResult) {
        if result.error.is_none() && result.spec.backend() == Backend::Groth16 {
            let key = (result.shape_digest, result.seed);
            let already = self
                .sent_keys
                .lock()
                .expect("sent-keys poisoned")
                .contains(&key);
            if !already {
                // Fetch under no lock (setup can be slow); mark sent only
                // once the vk was actually found and emitted, so an
                // eviction race just retries on the next same-shape result.
                if let Some(keys) = cache.get(&result.shape_digest, Backend::Groth16, result.seed) {
                    if let VerifierKey::Groth16(vk) = &keys.verifier {
                        let first = self
                            .sent_keys
                            .lock()
                            .expect("sent-keys poisoned")
                            .insert(key);
                        if first {
                            self.out.emit(&format!(
                                "{{\"type\":\"key\",\"backend\":\"groth16\",\"shape_digest\":\"{}\",\"seed\":{},\"vk_hex\":\"{}\"}}",
                                hex(&result.shape_digest),
                                result.seed,
                                hex(&vk.to_bytes())
                            ));
                        }
                    }
                }
            }
        }
        self.jobs.fetch_add(1, Ordering::Relaxed);
        if result.verified {
            self.verified.fetch_add(1, Ordering::Relaxed);
        }
        self.out.emit(&result_line(result, include_proofs));
        if self.out.is_broken() {
            self.ctl.cancel();
        }
    }

    /// Renders and emits the session `summary` line; `session` tags it
    /// for multi-session transports.
    fn emit_summary(
        &self,
        session: Option<u64>,
        rejected: usize,
        cache: &KeyCache,
        wall_s: f64,
    ) -> ServeSummary {
        let jobs = self.jobs.load(Ordering::Relaxed);
        let verified = self.verified.load(Ordering::Relaxed);
        let summary = ServeSummary {
            jobs,
            verified,
            failed: jobs - verified,
            rejected,
        };
        let stats = cache.stats();
        let session = match session {
            Some(id) => format!("\"session\":{id},"),
            None => String::new(),
        };
        self.out.emit(&format!(
            "{{\"type\":\"summary\",{session}\"jobs\":{},\"verified\":{},\"failed\":{},\"rejected\":{},\"cache_hits\":{},\"cache_misses\":{},\"wall_s\":{:.3}}}",
            summary.jobs,
            summary.verified,
            summary.failed,
            summary.rejected,
            stats.hits,
            stats.misses,
            wall_s,
        ));
        summary
    }
}

/// Renders the session `ready` line: the protocol handshake every
/// transport opens with.
fn ready_line(session: Option<u64>, workers: usize, seed: u64, bound: usize) -> String {
    let session = match session {
        Some(id) => format!("\"session\":{id},"),
        None => String::new(),
    };
    format!(
        "{{\"type\":\"ready\",\"proto\":\"{}\",{session}\"workers\":{workers},\"seed\":{seed},\"queue_bound\":{bound}}}",
        crate::codec::SERVE_PROTO
    )
}

/// What every session's intake is run with.
pub(crate) struct SessionParams {
    /// The serve settings plus the listener policies (which the stdin
    /// session switches off).
    pub(crate) net: NetConfig,
    /// The memoised `--analyze-on-compile` verdict cache (shared across a
    /// listener's sessions), when the pre-flight is enabled.
    preflight: Option<Preflight>,
    /// A listener connection: its `ready`/`summary` lines carry the
    /// session id. The stdin session's do not.
    listener: bool,
}

impl SessionParams {
    pub(crate) fn new(net: NetConfig, listener: bool) -> Self {
        SessionParams {
            preflight: net.serve.analyze_on_compile.then(Preflight::new),
            net,
            listener,
        }
    }
}

/// How a session's intake ended.
pub(crate) enum SessionEnd {
    /// The input reached EOF (stdin closed, or a socket client
    /// half-closed its write side): the orderly goodbye.
    Eof,
    /// The server-wide shutdown flag was raised.
    Shutdown,
    /// The peer vanished: the response stream broke (`None`), or reading
    /// the input failed with the carried error. The session's remaining
    /// jobs were cancelled.
    Disconnected(Option<io::Error>),
    /// The idle timeout fired with nothing in flight.
    ReapedIdle,
}

/// One session's whole life on any transport: the `ready` handshake,
/// request intake (line rejects, the `:xN` bound, admission, pre-flight,
/// submission under the session's and the queue's backpressure), then the
/// drain of every accepted job and the `summary` line. `session` must
/// already be where the pool's sink finds it. Request problems are
/// answered in-stream and only counted here; returns the session totals,
/// how intake ended, and the requests shed by the admission bound.
pub(crate) fn run_session<R: BufRead, W: Write>(
    reader: &mut R,
    session: &Session<W>,
    pool: &ProvingPool,
    cache: &KeyCache,
    params: &SessionParams,
    shutdown: &AtomicBool,
) -> (ServeSummary, SessionEnd, usize) {
    let started = Instant::now();
    let (net, serve) = (&params.net, &params.net.serve);
    let tag = params.listener.then(|| session.ctl.id());
    let answer =
        |id_json: Option<&str>, error: Error| session.out.emit(&error_line(id_json, &error));
    let mut rejected = 0usize;
    let mut reject = |id_json: Option<&str>, error: Error| {
        rejected += 1;
        answer(id_json, error);
    };
    let (workers, bound) = (serve.workers.max(1), serve.queue_bound);
    session
        .out
        .emit(&ready_line(tag, workers, serve.seed, bound));

    // One stateful reader across ticks: a read timeout mid-line must not
    // tear the partial request (see `wire::LineReader`).
    let mut lines = LineReader::new(serve.max_request_bytes);
    let mut shed = 0usize;
    let mut last_activity = Instant::now();
    let mut end = loop {
        if shutdown.load(Ordering::SeqCst) {
            break SessionEnd::Shutdown;
        }
        if session.out.is_broken() {
            session.ctl.cancel();
            break SessionEnd::Disconnected(None);
        }
        let line = match lines.read_line(reader) {
            Ok(None) => break SessionEnd::Eof,
            Ok(Some(Ok(line))) => line,
            Ok(Some(Err(unreadable))) => {
                last_activity = Instant::now();
                let error = match unreadable {
                    LineReject::TooLarge(actual) => Error::RequestTooLarge {
                        actual,
                        limit: serve.max_request_bytes,
                    },
                    LineReject::NotUtf8 => Error::Request("request line is not valid UTF-8".into()),
                };
                reject(None, error);
                continue;
            }
            Err(e) if is_poll_tick(&e) => {
                // Reap only truly idle sessions: a client quietly waiting
                // for a deep queue of its own jobs is not idle.
                if let Some(idle) = net.idle_timeout {
                    if last_activity.elapsed() >= idle && session.ctl.in_flight() == 0 {
                        let error = Error::Request(format!(
                            "idle for {}s with no in-flight jobs, closing session",
                            idle.as_secs()
                        ));
                        answer(None, error);
                        break SessionEnd::ReapedIdle;
                    }
                }
                continue;
            }
            Err(e) => {
                session.ctl.cancel();
                break SessionEnd::Disconnected(Some(e));
            }
        };
        last_activity = Instant::now();
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let request = match parse_request(line) {
            Ok(request) => request,
            Err((error, id_json)) => {
                reject(id_json.as_deref(), error);
                continue;
            }
        };
        let id_json = request.id_json.as_deref();
        // The repetition count is bounded by the queue: one tiny `:xN`
        // line must not be able to commit the server to an unbounded
        // amount of proving (the request-size bound would be meaningless
        // otherwise).
        if request.count > bound {
            let error = Error::Request(format!(
                "repetition count {} exceeds the queue bound {bound} (send more lines instead)",
                request.count
            ));
            reject(id_json, error);
            continue;
        }
        // Overload shedding: refuse the whole request up front when
        // admitting it would push the pool past the global bound. The
        // refusal is a terminal answer (code 3 with a retry hint), never a
        // queued job — a shed request does not exist as far as the drain
        // path is concerned. The check is admission-time-only and races
        // benignly with other sessions: the bound is a load shed, not a
        // hard capacity invariant.
        if net
            .admission_bound
            .is_some_and(|bound| pool.in_flight() + request.count > bound)
        {
            shed += 1;
            let retry_after_ms = net.retry_after_ms;
            answer(id_json, Error::Shed { retry_after_ms });
            continue;
        }
        let seed = request.seed.unwrap_or(serve.seed);
        if let Some(preflight) = &params.preflight {
            if let Err(reason) = preflight.check(&request.spec, seed) {
                reject(id_json, Error::Request(reason));
                continue;
            }
        }
        let priority = request.priority.unwrap_or(request.spec.priority());
        let deadline = request.deadline_ms.map(Duration::from_millis);
        for _ in 0..request.count {
            // A session cancelled mid-request (peer died while we were
            // blocked on its own bound) stops submitting; the drain below
            // settles what was already accepted.
            if session.ctl.is_cancelled() {
                break;
            }
            pool.submit(
                request.spec,
                JobOptions::new()
                    .seed(seed)
                    .priority(priority)
                    .tag(request.id_json.clone())
                    .session(Arc::clone(&session.ctl))
                    .deadline(deadline),
            );
        }
    };

    // Settle every accepted job before summarising: results flow through
    // the pool sink into this session's writer; `drain` returns only
    // once the last one has been fully emitted. If the peer is gone the
    // first failed write latches the output broken, the sink cancels the
    // session, and the remaining jobs drain unproved — so this never
    // waits on proofs nobody will read.
    session.ctl.drain();
    if matches!(end, SessionEnd::Eof) && session.out.is_broken() {
        end = SessionEnd::Disconnected(None);
    }
    let summary = session.emit_summary(tag, rejected, cache, started.elapsed().as_secs_f64());
    (summary, end, shed)
}

/// Runs one session over `input`/`output` until `input` reaches EOF,
/// then drains the pool, writes the `summary` line, and returns the
/// totals. Fatal errors are I/O errors on the streams themselves (a
/// consumer that hangs up cancels what is still queued); request problems
/// are answered in-stream and never returned.
pub fn serve<R: BufRead, W: Write + Send + 'static>(
    mut input: R,
    output: W,
    config: ServeConfig,
) -> Result<ServeSummary, Error> {
    // The stdin session is a listener session with the listener policies
    // off: no idle reap, no shedding, and a session bound that can never
    // bind before the pool's `queue_bound` does.
    let net = NetConfig {
        serve: config,
        idle_timeout: None,
        session_bound: usize::MAX,
        admission_bound: None,
        retry_after_ms: 0,
    };
    let params = SessionParams::new(net, false);
    let config = &params.net.serve;
    let session = Arc::new(Session::new(output, 0, params.net.session_bound));
    let cache = Arc::new(config.build_cache());
    let sink: ResultSink = {
        let session = Arc::clone(&session);
        let cache = Arc::clone(&cache);
        let include_proofs = config.include_proofs;
        Arc::new(move |result: &JobResult| {
            session.emit_result(&cache, include_proofs, result);
        })
    };
    let pool = config.build_pool(&cache, sink);

    let never = AtomicBool::new(false);
    let (summary, end, _) = run_session(&mut input, &session, &pool, &cache, &params, &never);
    pool.join();
    if let SessionEnd::Disconnected(Some(e)) = end {
        return Err(Error::io("<serve input>", e));
    }
    if let Some(e) = session.out.take_error() {
        return Err(Error::io("<serve output>", e));
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::parse_json_object;
    use std::io::Cursor;
    use std::sync::mpsc;

    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl SharedBuf {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    #[test]
    fn serve_round_trips_requests_and_survives_garbage() {
        // Two good requests (same shape: second must hit the cache), one
        // malformed JSON line, one unknown-field line, one oversized line.
        let oversized = format!(r#"{{"spec": "2x3x2:zkvc:s", "id": "{}"}}"#, "x".repeat(300));
        let input = format!(
            "{}\n{}\nnot json\n{}\n{oversized}\n",
            r#"{"id": "a", "spec": "2x3x2:zkvc:s"}"#,
            r#"{"id": "b", "spec": "2x3x2:zkvc:s"}"#,
            r#"{"id": "c", "spec": "2x3x2:zkvc:s", "frobnicate": true}"#,
        );
        let buf = SharedBuf::default();
        let summary = serve(
            Cursor::new(input.into_bytes()),
            buf.clone(),
            ServeConfig::new(2).seed(7).max_request_bytes(256),
        )
        .unwrap();
        assert_eq!(summary.jobs, 2);
        assert_eq!(summary.verified, 2);
        assert_eq!(summary.failed, 0);
        assert_eq!(summary.rejected, 3);

        let text = buf.text();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("\"type\":\"ready\""), "{text}");
        assert!(
            lines.last().unwrap().contains("\"type\":\"summary\""),
            "{text}"
        );
        assert_eq!(
            lines
                .iter()
                .filter(|l| l.contains("\"type\":\"result\"") && l.contains("\"verified\":true"))
                .count(),
            2,
            "{text}"
        );
        // Request ids are echoed; the cache was warm for one of the two.
        assert!(
            text.contains("\"id\":\"a\"") && text.contains("\"id\":\"b\""),
            "{text}"
        );
        assert_eq!(
            lines
                .iter()
                .filter(|l| l.contains("\"cache_hit\":true"))
                .count(),
            1,
            "{text}"
        );
        assert_eq!(
            lines
                .iter()
                .filter(|l| l.contains("\"type\":\"error\"") && l.contains("\"code\":2"))
                .count(),
            3,
            "{text}"
        );
        assert!(text.contains("request too large"), "{text}");
        // Spartan jobs ship no key lines (no wire form).
        assert!(!text.contains("\"type\":\"key\""), "{text}");

        // Responses are themselves valid flat JSON per this module's own
        // parser (modulo the proof hex payload, which is plain).
        for line in &lines {
            parse_json_object(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
    }

    /// Input that signals when intake has read it to the end, and a
    /// consumer that hangs up on its first `result` line — but only after
    /// that signal, so every request is queued before the pipe breaks.
    struct SignalEof(Cursor<Vec<u8>>, Option<mpsc::Sender<()>>);
    struct HangsUpOnFirstResult(mpsc::Receiver<()>);

    impl io::Read for SignalEof {
        fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
            unreachable!("BufRead only")
        }
    }

    impl BufRead for SignalEof {
        fn fill_buf(&mut self) -> io::Result<&[u8]> {
            let chunk = self.0.fill_buf()?;
            if chunk.is_empty() {
                self.1.take().map(|tx| tx.send(()));
            }
            Ok(chunk)
        }
        fn consume(&mut self, amt: usize) {
            self.0.consume(amt);
        }
    }

    impl Write for HangsUpOnFirstResult {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if String::from_utf8_lossy(buf).contains("\"type\":\"result\"") {
                self.0.recv().expect("intake reaches EOF");
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "consumer gone"));
            }
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn eight_jobs_into_a_closing_pipe() -> (SignalEof, HangsUpOnFirstResult) {
        let input: String = (0..8)
            .map(|i| format!("{{\"spec\": \"2x2x2:zkvc:s\", \"id\": {i}}}\n"))
            .collect();
        let (tx, rx) = mpsc::channel();
        (
            SignalEof(Cursor::new(input.into_bytes()), Some(tx)),
            HangsUpOnFirstResult(rx),
        )
    }

    #[test]
    fn a_closed_stdout_cancels_the_stdin_backlog() {
        // `zkvc serve | head -1`: one worker, eight queued jobs, and a
        // consumer that is gone by the first result. The caller sees the
        // output error...
        let (input, output) = eight_jobs_into_a_closing_pipe();
        match serve(input, output, ServeConfig::new(1)) {
            Err(Error::Io { path, .. }) => assert_eq!(path.to_str(), Some("<serve output>")),
            other => panic!("expected the output I/O error, got {other:?}"),
        }

        // ...and the backlog was cancelled from the result sink, not
        // proved into the void: the same session with a pool that keeps
        // its results shows at most the in-flight job(s) proved.
        let (mut input, output) = eight_jobs_into_a_closing_pipe();
        let params = SessionParams::new(NetConfig::new(ServeConfig::new(1)), false);
        let session = Arc::new(Session::new(output, 0, usize::MAX));
        let cache = Arc::new(params.net.serve.build_cache());
        let sink: ResultSink = {
            let (session, cache) = (Arc::clone(&session), Arc::clone(&cache));
            Arc::new(move |r: &JobResult| session.emit_result(&cache, true, r))
        };
        let pool = ProvingPool::configured(PoolConfig::new(1), Arc::clone(&cache), Some(sink));
        let never = AtomicBool::new(false);
        let (summary, end, _) = run_session(&mut input, &session, &pool, &cache, &params, &never);
        let report = pool.join();
        assert!(matches!(end, SessionEnd::Disconnected(None)));
        assert_eq!(report.results.len(), 8, "every accepted job is answered");
        let proved = report.results.iter().filter(|r| r.verified).count();
        assert!((1..=2).contains(&proved), "{proved} jobs proved");
        assert_eq!(report.cancelled_jobs(), 8 - proved);
        assert_eq!((summary.jobs, summary.verified), (8, proved));
    }

    #[test]
    fn serve_caps_per_request_repetition_at_the_queue_bound() {
        // One tiny `:xN` line must not commit the server to unbounded
        // proving: counts above the queue bound are rejected with a
        // code-2 error and the server keeps serving.
        let input = concat!(
            "{\"spec\": \"2x2x2:zkvc:s:x4000000000\", \"id\": \"flood\"}\n",
            "{\"spec\": \"2x2x2:zkvc:s:x2\", \"id\": \"ok\"}\n",
        );
        let buf = SharedBuf::default();
        let summary = serve(
            Cursor::new(input.as_bytes().to_vec()),
            buf.clone(),
            ServeConfig::new(1).queue_bound(8),
        )
        .unwrap();
        assert_eq!(summary.rejected, 1);
        assert_eq!(summary.jobs, 2, "the in-bound repetition still ran");
        assert_eq!(summary.verified, 2);
        let text = buf.text();
        assert!(
            text.contains("\"id\":\"flood\"")
                && text.contains("exceeds the queue bound")
                && text.contains("\"code\":2"),
            "{text}"
        );
    }

    #[test]
    fn serve_streams_groth16_keys_once_per_shape() {
        let input = concat!(
            "{\"spec\": \"2x2x2:vanilla:g\", \"id\": 1}\n",
            "{\"spec\": \"2x2x2:vanilla:g\", \"id\": 2}\n",
        );
        let buf = SharedBuf::default();
        let summary = serve(
            Cursor::new(input.as_bytes().to_vec()),
            buf.clone(),
            ServeConfig::new(1),
        )
        .unwrap();
        assert_eq!(summary.verified, 2);
        let text = buf.text();
        assert_eq!(
            text.lines()
                .filter(|l| l.contains("\"type\":\"key\""))
                .count(),
            1,
            "one key line per (shape, seed): {text}"
        );
        assert!(text.contains("\"vk_hex\":\""), "{text}");
    }

    #[test]
    fn key_lines_reannounce_after_cache_eviction_only_to_new_sessions() {
        // A byte-bounded resident cache may evict and re-set-up a shape
        // mid-session; the sent-key set must still emit the key exactly
        // once per session. cache_bytes(1) forces every job to re-setup.
        let input = concat!(
            "{\"spec\": \"2x2x2:vanilla:g\", \"id\": 1}\n",
            "{\"spec\": \"3x2x3:vanilla:g\", \"id\": 2}\n",
            "{\"spec\": \"2x2x2:vanilla:g\", \"id\": 3}\n",
        );
        let buf = SharedBuf::default();
        let summary = serve(
            Cursor::new(input.as_bytes().to_vec()),
            buf.clone(),
            ServeConfig::new(1).cache_bytes(Some(1)),
        )
        .unwrap();
        assert_eq!(summary.verified, 3);
        let text = buf.text();
        // Two distinct shapes -> exactly two key lines, even though the
        // 2x2x2 shape was set up twice (evicted in between).
        assert_eq!(
            text.lines()
                .filter(|l| l.contains("\"type\":\"key\""))
                .count(),
            2,
            "{text}"
        );
    }
}
