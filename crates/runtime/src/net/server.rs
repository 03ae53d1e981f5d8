//! The socket listener: accept loop, thread-per-connection sessions, and
//! the connection registry that routes pool results back to the session
//! that submitted them.
//!
//! Every connection gets its own thread running the one session loop
//! (`run_session` in [`crate::serve`] — the very function the stdin
//! session runs), but all sessions feed **one** [`ProvingPool`] and one
//! warm [`KeyCache`]: a shape set up for client A is a cache hit for
//! client B. Isolation is per session — id spaces, key announcements,
//! summary counters, and a [`SessionCtl`](crate::SessionCtl) that (a)
//! bounds the session's in-flight jobs so one greedy client parks in its
//! own socket rather than flooding the shared queue, and (b) cancels the
//! remainder when the client disconnects.
//!
//! Blocking reads with a short timeout double as the poll tick: each
//! tick checks the shutdown flag, the idle deadline, and whether the
//! response stream broke (dead peer). On shutdown the listener stops
//! accepting, every session drains its in-flight jobs, flushes its
//! responses, and emits its summary line before the process exits.

use std::collections::HashMap;
use std::io::{self, BufReader};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use crate::cache::KeyCache;
use crate::error::Error;
use crate::net::addr::{AnyListener, AnyStream, ListenAddr};
use crate::pool::{ProvingPool, ResultSink};
use crate::serve::{run_session, ServeConfig, ServeSummary, Session, SessionEnd, SessionParams};

/// How often a blocked session read wakes to poll shutdown/idle/broken
/// state. This bounds how stale a session's view of the shutdown flag
/// can get, so it is also the floor on SIGTERM drain latency — kept
/// small enough that a drain is dominated by the jobs it flushes (or
/// their deadlines), not by polling.
const READ_TICK: Duration = Duration::from_millis(50);
/// How long the accept loop sleeps when no connection is pending.
const ACCEPT_TICK: Duration = Duration::from_millis(25);

/// Configuration for [`serve_listener`]: the per-session serve settings
/// plus the listener-level policies.
#[derive(Debug)]
pub struct NetConfig {
    /// Per-session settings (workers and queue bound apply to the one
    /// shared pool; seed, request-size bound, proof inclusion and cache
    /// settings apply to every session).
    pub serve: ServeConfig,
    /// Sessions silent for this long (no complete request line) with no
    /// in-flight jobs are reaped: answered with an error line, summarised
    /// and closed. `None` keeps idle connections forever.
    pub idle_timeout: Option<Duration>,
    /// Per-session in-flight job bound: a session blocks in its own
    /// socket once this many of its jobs are queued or running, leaving
    /// the shared queue fair for other sessions.
    pub session_bound: usize,
    /// Global admission bound across *all* sessions: a request that would
    /// push the pool's total in-flight jobs past this is refused with a
    /// code-3 `shed` error (and a `retry_after_ms` hint) instead of
    /// queueing. `None` disables shedding (requests park on the session
    /// and queue bounds instead).
    pub admission_bound: Option<usize>,
    /// The backoff hint a shed response carries, in milliseconds.
    pub retry_after_ms: u64,
}

impl NetConfig {
    /// Defaults: 5-minute idle timeout, 64 in-flight jobs per session, no
    /// global admission bound, a 100 ms shed retry hint.
    pub fn new(serve: ServeConfig) -> Self {
        NetConfig {
            serve,
            idle_timeout: Some(Duration::from_secs(300)),
            session_bound: 64,
            admission_bound: None,
            retry_after_ms: 100,
        }
    }

    /// Sets (or disables) the idle-session reap timeout.
    pub fn idle_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.idle_timeout = timeout;
        self
    }

    /// Sets the per-session in-flight bound (clamped to at least 1).
    pub fn session_bound(mut self, bound: usize) -> Self {
        self.session_bound = bound.max(1);
        self
    }

    /// Sets (or disables) the global admission bound (clamped to at
    /// least 1 when set).
    pub fn admission_bound(mut self, bound: Option<usize>) -> Self {
        self.admission_bound = bound.map(|b| b.max(1));
        self
    }

    /// Sets the `retry_after_ms` hint shed responses carry.
    pub fn retry_after_ms(mut self, ms: u64) -> Self {
        self.retry_after_ms = ms;
        self
    }
}

/// What a whole [`serve_listener`] run did, aggregated over every
/// session it accepted.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct NetSummary {
    /// Connections accepted.
    pub sessions: usize,
    /// Jobs accepted and run across all sessions (cancelled included).
    pub jobs: usize,
    /// Jobs whose proof verified.
    pub verified: usize,
    /// Jobs that did not verify (bad proof, cancelled, panicked).
    pub failed: usize,
    /// Request lines rejected before reaching the pool.
    pub rejected: usize,
    /// Well-formed requests refused by the global admission bound (each
    /// was answered with a code-3 `shed` error, never queued).
    pub shed: usize,
    /// Sessions that ended uncleanly (peer vanished; their in-flight
    /// jobs were cancelled).
    pub disconnected: usize,
    /// Sessions reaped by the idle timeout.
    pub reaped_idle: usize,
}

/// The live sessions, by id: the pool's one result sink routes each
/// result to the session that submitted it by
/// [`JobResult::session_id`](crate::JobResult::session_id).
type Registry = Mutex<HashMap<u64, Arc<Session<AnyStream>>>>;

/// Binds `addr` and serves connections until `shutdown` becomes `true`,
/// then drains: stops accepting, lets every live session flush its
/// in-flight results and summary line, joins the pool, and returns the
/// aggregate totals. `on_bound` runs once with the address actually
/// bound (the resolved port for `tcp:HOST:0`) before the first accept.
///
/// Request problems are answered in-stream per session; a vanished
/// client cancels only its own remaining jobs. The returned `Err` is
/// reserved for listener-level failures (bind errors).
// Config and shutdown flag are taken by value: the server owns both for
// its whole lifetime, and callers hand them over at startup.
#[allow(clippy::needless_pass_by_value)]
pub fn serve_listener(
    addr: &ListenAddr,
    config: NetConfig,
    shutdown: Arc<AtomicBool>,
    on_bound: impl FnOnce(&ListenAddr),
) -> Result<NetSummary, Error> {
    let listener = AnyListener::bind(addr)?;
    on_bound(&listener.bound_addr());

    let params = Arc::new(SessionParams::new(config, true));
    let config = &params.net;
    let cache = Arc::new(config.serve.build_cache());
    let registry: Arc<Registry> = Arc::new(Mutex::new(HashMap::new()));

    // One sink for the whole pool: route each result to its session's
    // writer. A result whose session already deregistered (reaped or
    // long gone) is dropped — there is nowhere left to send it.
    let sink: ResultSink = {
        let registry = Arc::clone(&registry);
        let cache = Arc::clone(&cache);
        let include_proofs = config.serve.include_proofs;
        Arc::new(move |result| {
            let Some(sid) = result.session_id else { return };
            let session = registry
                .lock()
                .expect("session registry poisoned")
                .get(&sid)
                .cloned();
            if let Some(session) = session {
                session.emit_result(&cache, include_proofs, result);
            }
        })
    };

    let pool = Arc::new(config.serve.build_pool(&cache, sink));

    let totals = Arc::new(Mutex::new(NetSummary::default()));
    let mut handles = Vec::new();
    let mut next_sid: u64 = 0;
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok(stream) => {
                next_sid += 1;
                let sid = next_sid;
                let pool = Arc::clone(&pool);
                let cache = Arc::clone(&cache);
                let registry = Arc::clone(&registry);
                let params = Arc::clone(&params);
                let shutdown = Arc::clone(&shutdown);
                let totals = Arc::clone(&totals);
                handles.push(thread::spawn(move || {
                    let (summary, end, shed) =
                        run_connection(stream, sid, &pool, &cache, &registry, &params, &shutdown);
                    let mut totals = totals.lock().expect("net totals poisoned");
                    totals.sessions += 1;
                    totals.jobs += summary.jobs;
                    totals.verified += summary.verified;
                    totals.failed += summary.failed;
                    totals.rejected += summary.rejected;
                    totals.shed += shed;
                    match end {
                        SessionEnd::Disconnected(_) => totals.disconnected += 1,
                        SessionEnd::ReapedIdle => totals.reaped_idle += 1,
                        SessionEnd::Eof | SessionEnd::Shutdown => {}
                    }
                }));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(ACCEPT_TICK),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // Transient accept failures (fd exhaustion, aborted
            // handshakes): back off and keep listening — one hiccup must
            // not take the whole service down.
            Err(_) => thread::sleep(ACCEPT_TICK),
        }
    }

    // Graceful drain: the accept loop has stopped; every session notices
    // the flag within a read tick, drains its in-flight jobs through the
    // sink and writes its summary. Only after all of that does the shared
    // pool join — so every accepted job is answered before exit.
    for handle in handles {
        let _ = handle.join();
    }
    drop(listener);
    Arc::try_unwrap(pool)
        .expect("all session threads joined")
        .join();
    let totals = *totals.lock().expect("net totals poisoned");
    Ok(totals)
}

/// One connection's lifecycle: register the session where the sink finds
/// it, run the session loop over the stream, deregister.
fn run_connection(
    stream: AnyStream,
    sid: u64,
    pool: &ProvingPool,
    cache: &KeyCache,
    registry: &Registry,
    params: &SessionParams,
    shutdown: &AtomicBool,
) -> (ServeSummary, SessionEnd, usize) {
    let _ = stream.set_read_timeout(Some(READ_TICK));
    let Ok(write_half) = stream.try_clone() else {
        return (ServeSummary::default(), SessionEnd::Disconnected(None), 0);
    };
    let session = Arc::new(Session::new(write_half, sid, params.net.session_bound));
    registry
        .lock()
        .expect("session registry poisoned")
        .insert(sid, Arc::clone(&session));

    let mut reader = BufReader::new(stream);
    let (summary, end, shed) = run_session(&mut reader, &session, pool, cache, params, shutdown);
    registry
        .lock()
        .expect("session registry poisoned")
        .remove(&sid);
    (summary, end, shed)
}
