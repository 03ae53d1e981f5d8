//! The coordinator side of distributed proving: remote-worker registry,
//! shape-affinity job placement, and heartbeat-driven failure handling.
//!
//! A worker is an ordinary connection to `zkvc serve --listen` whose
//! first line is `worker_register` (see [`crate::wire`]); the session
//! thread that accepted it hands the connection here and becomes the
//! worker's *reader*. One *dispatcher* thread leases queued jobs off the
//! shared [`ProvingPool`] — competing with the local worker threads
//! through the same scheduler — and places each lease on a live remote
//! worker with a free slot, preferring one that already holds the job's
//! compiled shape (ship-once: a shape's canonical bytes cross the wire
//! at most once per worker per `(digest, backend, seed)`).
//!
//! The exactly-once story: a leased job stays counted in flight on the
//! pool, and exactly one of three things happens to it — the reader
//! delivers its remote result through [`ProvingPool::deliver`] (the
//! identical tail local workers use), the job is requeued when its
//! worker dies and some other worker (or the local pool) proves it, or
//! the requeue finds the queue closed and the job is executed inline on
//! the spot. No path drops a lease, and taking the lease out of the
//! worker's in-flight table *before* acting on it makes the paths
//! mutually exclusive — a `job_done` racing a death verdict can never
//! double-answer a client id.
//!
//! Determinism: before dispatching, the coordinator runs the job's
//! witness-free shape pass + setup locally (the serve protocol's `key`
//! lines need the vk resident anyway). Worker-side setup re-derives the
//! same keys from the same `(digest, backend, seed)`-seeded rng, so a
//! proof is bit-identical whoever proves it — which is what keeps
//! same-seed client reports byte-diffable under worker churn.

use std::collections::{HashMap, HashSet};
use std::io::BufReader;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use zkvc_core::Backend;

use crate::cache::KeyCache;
use crate::codec::encode_shape;
use crate::job::{build_statement, Proved};
use crate::net::AnyStream;
use crate::pool::{job_result, JobError, ProvingPool, QueuedJob};
use crate::serve::Output;
use crate::wire::{
    is_poll_tick, job_line, shape_line, worker_ack_line, worker_shutdown_line, LineReader,
    WorkerMsg,
};

/// A worker that misses heartbeats for this long is declared dead and
/// its leases re-queued. Workers beat at ~1 Hz, so this tolerates a few
/// dropped ticks without tolerating a wedged peer for long.
const HEARTBEAT_STALE: Duration = Duration::from_secs(10);
/// Line bound for worker connections in both directions: shape bytes and
/// proof hex dwarf request lines, so the serve request bound must not
/// apply here.
pub(crate) const WORKER_LINE_BYTES: usize = 64 << 20;

/// One remote worker's mutable state, guarded together so the death path
/// can atomically claim every outstanding lease.
struct WorkerState {
    /// Leases dispatched and not yet answered, by lease id.
    inflight: HashMap<u64, Lease>,
    /// `(digest, backend, seed)` triples whose shape bytes this worker
    /// already holds — the ship-once set.
    shipped: HashSet<([u8; 32], Backend, u64)>,
    /// Cleared exactly once, by whichever path declares the worker dead.
    alive: bool,
    /// Stamped on every inbound message (heartbeats included).
    last_seen: Instant,
}

/// One dispatched job: everything needed to deliver (or re-queue) it.
struct Lease {
    job: QueuedJob,
    shape_digest: [u8; 32],
}

/// A registered remote worker: shared writer plus guarded state. The
/// dispatcher writes `shape`/`job` lines; the reader writes the ack and
/// the shutdown goodbye — the [`Output`] latch serialises them.
struct RemoteWorker {
    id: u64,
    capacity: usize,
    out: Output<AnyStream>,
    state: Mutex<WorkerState>,
}

impl RemoteWorker {
    fn free_slots(&self) -> usize {
        let state = self.state.lock().expect("worker state poisoned");
        if state.alive {
            self.capacity.saturating_sub(state.inflight.len())
        } else {
            0
        }
    }

    fn holds_shape(&self, key: &([u8; 32], Backend, u64)) -> bool {
        let state = self.state.lock().expect("worker state poisoned");
        state.alive && state.shipped.contains(key)
    }
}

/// Registry keyed by worker id; the map only holds live workers (death
/// removes the entry, so placement never even sees a dead one).
struct CoordState {
    workers: HashMap<u64, Arc<RemoteWorker>>,
    next_worker: u64,
    next_lease: u64,
}

/// The shared coordinator: worker registry + the dispatcher's wakeup
/// plumbing. Deliberately does **not** hold the pool — the dispatcher
/// thread and each reader borrow their own handles, so joining those
/// threads releases every pool reference before the listener's final
/// `Arc::try_unwrap(pool)`.
pub(crate) struct Coordinator {
    state: Mutex<CoordState>,
    /// Signalled when capacity appears (registration, job answered,
    /// worker death) and on shutdown — everything the parked dispatcher
    /// waits for.
    changed: Condvar,
    shutdown: AtomicBool,
    /// Total workers ever registered (for the listener summary).
    workers_seen: AtomicUsize,
}

impl std::fmt::Debug for Coordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coordinator")
            .field("workers_seen", &self.workers_seen.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Coordinator {
    /// Creates the coordinator and spawns its dispatcher thread. The
    /// returned handle must be joined *after* [`Coordinator::shutdown`] +
    /// [`ProvingPool::close_intake`] and *before* the pool itself is
    /// unwrapped.
    pub(crate) fn start(
        pool: &Arc<ProvingPool>,
        cache: &Arc<KeyCache>,
    ) -> (Arc<Coordinator>, thread::JoinHandle<()>) {
        let coordinator = Arc::new(Coordinator {
            state: Mutex::new(CoordState {
                workers: HashMap::new(),
                next_worker: 0,
                next_lease: 0,
            }),
            changed: Condvar::new(),
            shutdown: AtomicBool::new(false),
            workers_seen: AtomicUsize::new(0),
        });
        let handle = {
            let coordinator = Arc::clone(&coordinator);
            let pool = Arc::clone(pool);
            let cache = Arc::clone(cache);
            thread::Builder::new()
                .name("zkvc-dispatcher".into())
                .spawn(move || coordinator.run_dispatcher(&pool, &cache))
                .expect("spawn coordinator dispatcher")
        };
        (coordinator, handle)
    }

    /// Raises the shutdown flag and wakes the dispatcher. Idempotent.
    pub(crate) fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        drop(self.state.lock().expect("coordinator state poisoned"));
        self.changed.notify_all();
    }

    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn notify(&self) {
        // Empty critical section orders prior state writes before the
        // dispatcher's wakeup re-check.
        drop(self.state.lock().expect("coordinator state poisoned"));
        self.changed.notify_all();
    }

    /// Blocks until some live worker has a free slot; `false` on
    /// shutdown.
    fn wait_for_capacity(&self) -> bool {
        let mut state = self.state.lock().expect("coordinator state poisoned");
        loop {
            if self.is_shutdown() {
                return false;
            }
            if state.workers.values().any(|w| w.free_slots() > 0) {
                return true;
            }
            state = self
                .changed
                .wait(state)
                .expect("coordinator state poisoned");
        }
    }

    /// Picks the placement target for a job on `key`'s shape: a live
    /// worker already holding the shape with a free slot if one exists
    /// (shape affinity — no re-ship, warm remote cache), otherwise the
    /// live worker with the most free slots. `None` when no live worker
    /// has capacity right now.
    fn place(&self, key: &([u8; 32], Backend, u64)) -> Option<Arc<RemoteWorker>> {
        let state = self.state.lock().expect("coordinator state poisoned");
        let with_affinity = state
            .workers
            .values()
            .filter(|w| w.free_slots() > 0 && w.holds_shape(key))
            .max_by_key(|w| w.free_slots());
        if let Some(w) = with_affinity {
            return Some(Arc::clone(w));
        }
        state
            .workers
            .values()
            .filter(|w| w.free_slots() > 0)
            .max_by_key(|w| w.free_slots())
            .map(Arc::clone)
    }

    /// The dispatcher loop: wait for remote capacity, lease a job off the
    /// shared queue, prepare its key material locally, place and ship it.
    /// Exits when the queue closes (lease returns `None`) or shutdown is
    /// raised with nothing left to lease.
    fn run_dispatcher(&self, pool: &Arc<ProvingPool>, cache: &Arc<KeyCache>) {
        loop {
            if !self.wait_for_capacity() {
                // Shutdown: stop leasing. Anything still queued is
                // drained by the local worker threads before the pool's
                // final join, so no accepted job is lost.
                return;
            }
            let Some(job) = pool.lease(0) else { return };
            self.dispatch(pool, cache, job);
        }
    }

    /// Places one leased job (or settles it locally when it is already
    /// doomed / no worker is available).
    fn dispatch(&self, pool: &Arc<ProvingPool>, cache: &Arc<KeyCache>, job: QueuedJob) {
        // A job that is already cancelled or past its deadline is
        // answered inline — the job body short-circuits without proving,
        // and shipping it would only burn a remote slot.
        if pool.job_status(&job).is_some() {
            pool.settle_locally(&job, 0);
            return;
        }

        // Local shape pass + deterministic setup. Required regardless of
        // where the proof runs: the session's `key` line is emitted from
        // this cache, and the digest keys the ship-once set. Worker-side
        // setup derives bit-identical keys from the same seed.
        let statement = build_statement(job.seed, job.statement_id, &job.spec);
        let backend = job.spec.backend();
        let (keys, _) = cache.get_or_setup_template(
            backend,
            job.seed,
            &job.spec.to_string(),
            statement.as_ref(),
        );
        let key = (keys.digest, backend, job.seed);

        loop {
            let Some(worker) = self.place(&key) else {
                // Capacity vanished between the wait and the placement
                // (worker died). Put the job back for the local pool and
                // go back to waiting.
                if let Err(lost) = pool.requeue(job) {
                    pool.settle_locally(&lost, 0);
                }
                return;
            };

            // Ship the shape once per worker per (digest, backend, seed).
            // The shipped-set insert happens before the write so a racing
            // second dispatch never double-ships; on a send failure the
            // whole worker is condemned anyway.
            let needs_shape = {
                let mut state = worker.state.lock().expect("worker state poisoned");
                state.alive && state.shipped.insert(key)
            };
            if needs_shape {
                let bytes = encode_shape(&keys.shape);
                worker
                    .out
                    .emit(&shape_line(&keys.digest, backend, job.seed, &bytes));
            }

            let deadline_ms = job
                .deadline
                .map(|d| d.saturating_duration_since(Instant::now()).as_millis() as u64);
            let lease_id = {
                let mut state = self.state.lock().expect("coordinator state poisoned");
                state.next_lease += 1;
                state.next_lease
            };
            let line = job_line(
                lease_id,
                &job.spec,
                job.seed,
                job.statement_id,
                &keys.digest,
                deadline_ms,
            );
            // Record the lease before sending: once the line is out, a
            // fast answer must find its lease.
            {
                let mut state = worker.state.lock().expect("worker state poisoned");
                if !state.alive {
                    // Died between placement and dispatch: try another.
                    continue;
                }
                state.inflight.insert(
                    lease_id,
                    Lease {
                        job,
                        shape_digest: keys.digest,
                    },
                );
            }
            worker.out.emit(&line);
            if worker.out.is_broken() {
                // The send failed; condemn the worker, which re-queues
                // this lease along with any others.
                self.condemn(pool, &worker);
            }
            return;
        }
    }

    /// Registers a worker connection and runs its read loop until the
    /// worker dies, the coordinator shuts down, or the listener-wide
    /// shutdown flag trips. Called from the session thread that received
    /// the `worker_register` line; returns when the connection is done.
    pub(crate) fn run_worker_connection(
        &self,
        pool: &Arc<ProvingPool>,
        reader: &mut BufReader<AnyStream>,
        out: Output<AnyStream>,
        capacity: usize,
        listener_shutdown: &AtomicBool,
    ) {
        let worker = {
            let mut state = self.state.lock().expect("coordinator state poisoned");
            state.next_worker += 1;
            let worker = Arc::new(RemoteWorker {
                id: state.next_worker,
                capacity: capacity.max(1),
                out,
                state: Mutex::new(WorkerState {
                    inflight: HashMap::new(),
                    shipped: HashSet::new(),
                    alive: true,
                    last_seen: Instant::now(),
                }),
            });
            state.workers.insert(worker.id, Arc::clone(&worker));
            worker
        };
        self.workers_seen.fetch_add(1, Ordering::Relaxed);
        worker.out.emit(&worker_ack_line(worker.id));
        // Fresh capacity: wake the dispatcher.
        self.notify();

        let mut lines = LineReader::new(WORKER_LINE_BYTES);
        loop {
            if self.is_shutdown() || listener_shutdown.load(Ordering::SeqCst) {
                worker.out.emit(&worker_shutdown_line());
                break;
            }
            if worker.out.is_broken() {
                break;
            }
            match lines.read_line(reader) {
                Ok(None) => break, // worker hung up
                Ok(Some(Ok(line))) => {
                    let line = line.trim();
                    if line.is_empty() {
                        continue;
                    }
                    {
                        let mut state = worker.state.lock().expect("worker state poisoned");
                        state.last_seen = Instant::now();
                    }
                    let (lease, outcome) = match crate::wire::parse_worker_msg(line) {
                        Ok(WorkerMsg::Heartbeat) => continue,
                        Ok(WorkerMsg::JobDone {
                            lease,
                            verified,
                            cache_hit,
                            constraints,
                            build_ms,
                            prove_ms,
                            verify_ms,
                            proof_bytes,
                        }) => {
                            let ms = |ms: f64| Duration::from_secs_f64(ms / 1e3);
                            let proved = Proved {
                                proof_bytes,
                                verified,
                                cache_hit,
                                shape_digest: [0; 32], // the lease knows it
                                num_constraints: constraints,
                                build_time: ms(build_ms),
                                prove_time: ms(prove_ms),
                                verify_time: ms(verify_ms),
                            };
                            (lease, Ok(proved))
                        }
                        // A worker-side failure is terminal, not
                        // re-queued: the statement is deterministic, so a
                        // panic would simply repeat wherever it runs
                        // next. Deadline and cancellation kinds keep
                        // their typed identity so clients see the same
                        // error codes as for local execution.
                        Ok(WorkerMsg::JobFailed { lease, kind, error }) => {
                            let job_error = match kind.as_str() {
                                "deadline_exceeded" => JobError::DeadlineExceeded,
                                "cancelled" => JobError::Cancelled,
                                _ => JobError::Panicked(format!(
                                    "remote worker {} ({kind}): {error}",
                                    worker.id
                                )),
                            };
                            (lease, Err(job_error))
                        }
                        // One garbled line condemns the connection:
                        // framing can no longer be trusted.
                        Err(_) => break,
                    };
                    // Claim the lease first: a lease already re-queued by
                    // a death verdict (or never issued) must not deliver
                    // twice.
                    let claimed = worker
                        .state
                        .lock()
                        .expect("worker state poisoned")
                        .inflight
                        .remove(&lease);
                    if let Some(l) = claimed {
                        let waited = l.job.enqueued.elapsed();
                        let mut result = job_result(&l.job, worker.id as usize, waited, outcome);
                        result.shape_digest = l.shape_digest;
                        pool.deliver(&l.job, result);
                        self.notify();
                    }
                }
                Ok(Some(Err(_))) => break, // oversized / non-UTF-8: condemn
                Err(e) if is_poll_tick(&e) => {
                    // Poll tick: staleness check.
                    let stale = {
                        let state = worker.state.lock().expect("worker state poisoned");
                        state.last_seen.elapsed() >= HEARTBEAT_STALE
                    };
                    if stale {
                        break;
                    }
                }
                Err(_) => break,
            }
        }
        self.condemn(pool, &worker);
    }

    /// Declares a worker dead exactly once: removes it from the registry,
    /// claims all its outstanding leases, and puts each back on the queue
    /// (or executes it inline when the queue has closed). Every claimed
    /// lease is settled — this is the no-lost-ids half of exactly-once;
    /// the claim-before-act discipline in the reader is the
    /// no-duplicates half.
    fn condemn(&self, pool: &Arc<ProvingPool>, worker: &Arc<RemoteWorker>) {
        let orphans: Vec<Lease> = {
            let mut state = worker.state.lock().expect("worker state poisoned");
            if !state.alive {
                return; // someone else already settled this worker
            }
            state.alive = false;
            state.inflight.drain().map(|(_, l)| l).collect()
        };
        self.state
            .lock()
            .expect("coordinator state poisoned")
            .workers
            .remove(&worker.id);
        for lease in orphans {
            if let Err(job) = pool.requeue(lease.job) {
                pool.settle_locally(&job, worker.id as usize);
            }
        }
        self.notify();
    }
}
