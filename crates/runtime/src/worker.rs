//! The remote proving worker behind `zkvc worker --connect`: dials a
//! `zkvc serve --listen` coordinator, registers on the zkvc-worker/v1
//! dialect, and proves the jobs it is leased.
//!
//! The worker is deliberately stateless between jobs: everything it
//! needs arrives over the wire. Shapes arrive once per `(digest,
//! backend, seed)` in canonical [`crate::codec`] bytes (digest-checked
//! on receipt), and key material is re-derived locally by the same
//! deterministic setup the coordinator ran — so the proof a worker
//! returns is bit-identical to the one the coordinator would have
//! produced itself, and client reports stay byte-diffable however jobs
//! are placed.
//!
//! Proving runs the same job body the pool's local workers run
//! (`crate::job`), looking its keys up by the leased shape digest. A
//! panic or deadline inside a job is contained there and reported as a
//! typed `job_failed` line; it never takes the connection down.

use std::io::BufReader;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use zkvc_core::Backend;
use zkvc_ff::Fr;
use zkvc_r1cs::CompiledShape;

use crate::cache::KeyCache;
use crate::codec::{decode_shape_expecting, SERVE_PROTO};
use crate::job::{self, StopWhen};
use crate::net::{AnyStream, ListenAddr};
use crate::pool::JobError;
use crate::serve::Output;
use crate::spec::JobSpec;
use crate::wire::{
    heartbeat_line, is_poll_tick, job_done_line, job_failed_line, parse_coord_msg,
    worker_register_line, CoordMsg, LineReader,
};
use crate::Error;

/// Read poll tick: how often the connection loop wakes to send a
/// heartbeat or notice a shutdown flag while no line is pending.
const READ_TICK: Duration = Duration::from_millis(50);
/// Heartbeat cadence — well inside the coordinator's 10 s staleness
/// verdict.
const HEARTBEAT_EVERY: Duration = Duration::from_secs(1);
/// Line bound for coordinator messages (shape bytes dominate).
const LINE_BYTES: usize = 64 << 20;

/// Configuration for [`run_worker`].
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Coordinator address (`unix:/path` or `tcp:host:port`), as accepted
    /// by [`ListenAddr`].
    pub addr: String,
    /// Concurrent proving slots to advertise (executor threads).
    pub capacity: usize,
    /// Optional cooperative stop flag (signal handler); the worker exits
    /// cleanly at the next tick when raised.
    pub shutdown: Option<Arc<AtomicBool>>,
}

impl WorkerConfig {
    /// A single-slot worker for `addr`.
    pub fn new(addr: impl Into<String>) -> Self {
        WorkerConfig {
            addr: addr.into(),
            capacity: 1,
            shutdown: None,
        }
    }
}

/// What a worker did over one connection's lifetime.
#[derive(Debug, Clone, Default)]
pub struct WorkerSummary {
    /// Id assigned by the coordinator's ack (0 if never acked).
    pub worker_id: u64,
    /// Jobs proved and answered with `job_done`.
    pub jobs_done: usize,
    /// Jobs answered with `job_failed`.
    pub jobs_failed: usize,
    /// Distinct shapes received over the wire.
    pub shapes_received: usize,
}

/// One leased job as handed to an executor thread.
struct WorkOrder {
    lease: u64,
    spec: String,
    seed: u64,
    statement_id: usize,
    shape_digest: [u8; 32],
    deadline: Option<Instant>,
}

/// Shared executor context: key cache, shared writer, counters.
struct ExecCtx {
    cache: KeyCache,
    out: Output<AnyStream>,
    done: AtomicUsize,
    failed: AtomicUsize,
}

/// Connects to `addr`, registers with `capacity` slots, and proves jobs
/// until the coordinator says goodbye (`worker_shutdown`), the
/// connection drops, or the config's shutdown flag is raised. Returns
/// the connection-lifetime summary; transport-level failures surface as
/// [`Error`].
pub fn run_worker(config: &WorkerConfig) -> Result<WorkerSummary, Error> {
    let addr = ListenAddr::parse(&config.addr)?;
    let stream = AnyStream::connect(&addr)?;
    stream
        .set_read_timeout(Some(READ_TICK))
        .map_err(|e| Error::io("set read timeout", e))?;
    let write_half = stream
        .try_clone()
        .map_err(|e| Error::io("clone worker stream", e))?;
    let capacity = config.capacity.max(1);

    let ctx = Arc::new(ExecCtx {
        cache: KeyCache::new(),
        out: Output::new(write_half),
        done: AtomicUsize::new(0),
        failed: AtomicUsize::new(0),
    });

    let mut reader = BufReader::new(stream);
    let mut lines = LineReader::new(LINE_BYTES);

    // The server greets every connection with its ready line; validate
    // we dialed an actual zkvc-serve endpoint before registering.
    let ready = read_line_blocking(&mut lines, &mut reader, config.shutdown.as_deref())?
        .ok_or_else(|| Error::Request("connection closed before ready line".into()))?;
    match parse_coord_msg(&ready) {
        Ok(CoordMsg::Ready { proto }) if proto == SERVE_PROTO => {}
        Ok(CoordMsg::Ready { proto }) => {
            return Err(Error::Request(format!(
                "server speaks {proto}, expected {SERVE_PROTO}"
            )));
        }
        _ => {
            return Err(Error::Request(format!(
                "unexpected greeting from server: {ready}"
            )));
        }
    }
    ctx.out.emit(&worker_register_line(capacity));

    // Executor threads: a shared mpsc feeds whichever slot is free.
    let (job_tx, job_rx) = channel::<WorkOrder>();
    let job_rx = Arc::new(Mutex::new(job_rx));
    let executors: Vec<_> = (0..capacity)
        .map(|slot| {
            let ctx = Arc::clone(&ctx);
            let job_rx = Arc::clone(&job_rx);
            thread::Builder::new()
                .name(format!("zkvc-worker-exec-{slot}"))
                .spawn(move || run_executor(&ctx, &job_rx))
                .expect("spawn worker executor")
        })
        .collect();

    let mut summary = WorkerSummary::default();
    let mut last_beat = Instant::now();
    loop {
        if config
            .shutdown
            .as_ref()
            .is_some_and(|f| f.load(Ordering::SeqCst))
            || ctx.out.is_broken()
        {
            break;
        }
        if last_beat.elapsed() >= HEARTBEAT_EVERY {
            ctx.out.emit(&heartbeat_line());
            last_beat = Instant::now();
        }
        match lines.read_line(&mut reader) {
            Ok(None) => break, // coordinator hung up
            Ok(Some(Ok(line))) => {
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                match parse_coord_msg(line) {
                    Ok(CoordMsg::Ack { worker }) => {
                        summary.worker_id = worker;
                        eprintln!(
                            "zkvc worker: registered as worker {worker} (capacity {capacity})"
                        );
                    }
                    Ok(CoordMsg::Shape {
                        shape_digest,
                        backend,
                        seed,
                        bytes,
                    }) => {
                        receive_shape(&ctx.cache, &shape_digest, backend, seed, &bytes)?;
                        summary.shapes_received += 1;
                    }
                    Ok(CoordMsg::Job {
                        lease,
                        spec,
                        seed,
                        statement_id,
                        shape_digest,
                        deadline_ms,
                    }) => {
                        let order = WorkOrder {
                            lease,
                            spec,
                            seed,
                            statement_id,
                            shape_digest,
                            deadline: deadline_ms
                                .map(|ms| Instant::now() + Duration::from_millis(ms)),
                        };
                        if job_tx.send(order).is_err() {
                            break; // executors gone — nothing can prove
                        }
                    }
                    Ok(CoordMsg::Shutdown) => break,
                    Ok(CoordMsg::Ready { .. }) => {
                        return Err(Error::Request("duplicate ready line from server".into()));
                    }
                    Err(e) => {
                        return Err(Error::Request(format!("bad coordinator line: {e}")));
                    }
                }
            }
            Ok(Some(Err(reject))) => {
                return Err(Error::Request(format!("unreadable line: {reject:?}")));
            }
            Err(e) if is_poll_tick(&e) => {}
            Err(e) => {
                drop(job_tx);
                for handle in executors {
                    let _ = handle.join();
                }
                return Err(Error::io("read from coordinator", e));
            }
        }
    }

    // Let queued work finish before hanging up: executors drain the
    // channel after the sender drops, answering every accepted lease.
    drop(job_tx);
    for handle in executors {
        let _ = handle.join();
    }
    summary.jobs_done = ctx.done.load(Ordering::Relaxed);
    summary.jobs_failed = ctx.failed.load(Ordering::Relaxed);
    Ok(summary)
}

/// Blocking read of one line, honouring poll ticks and the shutdown flag.
fn read_line_blocking(
    lines: &mut LineReader,
    reader: &mut BufReader<AnyStream>,
    shutdown: Option<&AtomicBool>,
) -> Result<Option<String>, Error> {
    loop {
        if shutdown.is_some_and(|f| f.load(Ordering::SeqCst)) {
            return Ok(None);
        }
        match lines.read_line(reader) {
            Ok(None) => return Ok(None),
            Ok(Some(Ok(line))) => return Ok(Some(line)),
            Ok(Some(Err(reject))) => {
                return Err(Error::Request(format!("unreadable line: {reject:?}")));
            }
            Err(e) if is_poll_tick(&e) => {}
            Err(e) => return Err(Error::io("read from coordinator", e)),
        }
    }
}

/// Decodes and installs one shipped shape: the canonical bytes must
/// round-trip to exactly the advertised digest, then deterministic setup
/// re-derives the same keys the coordinator holds.
fn receive_shape(
    cache: &KeyCache,
    digest: &[u8; 32],
    backend: Backend,
    seed: u64,
    bytes: &[u8],
) -> Result<(), Error> {
    let shape: CompiledShape<Fr> = decode_shape_expecting(bytes, digest)
        .map_err(|e| Error::Request(format!("shape rejected: {e}")))?;
    let _ = cache.get_or_setup_shape(backend, Arc::new(shape), seed);
    Ok(())
}

/// An executor slot: proves work orders until the channel closes.
fn run_executor(ctx: &ExecCtx, jobs: &Mutex<Receiver<WorkOrder>>) {
    loop {
        let order = {
            let rx = jobs.lock().expect("worker job channel poisoned");
            rx.recv()
        };
        let Ok(order) = order else { return };
        match prove_order(&ctx.cache, &order) {
            Ok(done) => {
                ctx.done.fetch_add(1, Ordering::Relaxed);
                ctx.out.emit(&done);
            }
            Err((kind, detail)) => {
                ctx.failed.fetch_add(1, Ordering::Relaxed);
                ctx.out.emit(&job_failed_line(order.lease, kind, &detail));
            }
        }
    }
}

/// Proves one leased job through the job body and renders the
/// `job_done` line. Errors carry the `(kind, detail)` pair for
/// `job_failed`.
fn prove_order(cache: &KeyCache, order: &WorkOrder) -> Result<String, (&'static str, String)> {
    let (spec, _count) = JobSpec::parse(&order.spec)
        .map_err(|e| ("bad_spec", format!("unparseable job spec: {e}")))?;
    // Only the lease's deadline stops a remote job: cancellation reaches
    // a worker as a dropped connection, not as a flag.
    let stop = StopWhen {
        deadline: order.deadline,
        cancelled: Arc::new(|| false),
    };
    let (seed, id, leased) = (order.seed, order.statement_id, &order.shape_digest);
    let proved = job::run(cache, &spec, seed, id, Some(leased), &stop).map_err(|e| {
        let detail = match &e {
            JobError::Panicked(message) => message.clone(),
            other => other.to_string(),
        };
        (e.kind(), detail)
    })?;
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    Ok(job_done_line(
        order.lease,
        proved.verified,
        proved.cache_hit,
        proved.num_constraints,
        ms(proved.build_time),
        ms(proved.prove_time),
        ms(proved.verify_time),
        &proved.proof_bytes,
    ))
}
