//! The proving pool: a fixed set of worker threads taking jobs from one
//! two-level FIFO [`Scheduler`](crate::sched::Scheduler), sharing one
//! [`KeyCache`] so each circuit shape pays for setup exactly once across
//! the whole batch.
//!
//! Every job is fully deterministic given `(job seed, statement id)`:
//! inputs, the CRPC folding challenge, setup randomness (via the cache)
//! and prover randomness are all derived from them, so a batch re-run
//! reproduces byte-identical proofs regardless of which worker picks up
//! which job. Proofs additionally make a round trip through the
//! [`ProofEnvelope`](crate::ProofEnvelope) byte format before
//! verification, so the pool continuously exercises the cross-process
//! path.
//!
//! Failure containment: each job runs under the job body's guard
//! (`crate::job`), so a panicking job (or a panicking proving backend)
//! becomes a recorded [`JobError::Panicked`] result instead of unwinding
//! through the worker and aborting the process — one bad job cannot take
//! down a long-running `zkvc serve`. Cooperative cancellation
//! ([`ProvingPool::cancel`]) drains the backlog as
//! [`JobError::Cancelled`] results promptly, without proving them.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use core::fmt;

use zkvc_core::api::{compile_shape, generate_witness_for};
use zkvc_core::VerifierKey;
use zkvc_ff::codec::hex;
use zkvc_hash::sha256;

use crate::cache::{CacheStats, KeyCache};
use crate::job::{self, build_statement, check_envelope, Proved, StopWhen};
use crate::sched::{Priority, Scheduler};
use crate::serial::ProofEnvelope;
use crate::spec::JobSpec;
use crate::util::json_escape;

/// Why a job finished without a proof.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobError {
    /// The pool was cancelled before (or while) the job ran; nothing was
    /// proved.
    Cancelled,
    /// The job's deadline passed before it finished: either it expired in
    /// the queue, or a kernel cancellation checkpoint stopped the prove
    /// mid-flight. Nothing usable was proved.
    DeadlineExceeded,
    /// The job panicked; the payload message is preserved. The worker
    /// thread survives and keeps serving other jobs.
    Panicked(String),
}

impl JobError {
    /// Stable one-word kind, used by machine-readable reports (panic
    /// payloads can carry addresses or line numbers and are not
    /// deterministic enough to diff).
    pub fn kind(&self) -> &'static str {
        match self {
            JobError::Cancelled => "cancelled",
            JobError::DeadlineExceeded => "deadline_exceeded",
            JobError::Panicked(_) => "panicked",
        }
    }
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Cancelled => write!(f, "cancelled before proving"),
            JobError::DeadlineExceeded => write!(f, "deadline exceeded before the proof finished"),
            JobError::Panicked(msg) => write!(f, "job panicked: {msg}"),
        }
    }
}

/// Admission control and cancellation scope for one client session
/// multiplexed onto a shared [`ProvingPool`] (the socket listener in
/// [`crate::net`] creates one per connection).
///
/// Two jobs it does for the network layer:
///
/// * **Per-session backpressure** — [`ProvingPool::submit`] with
///   [`JobOptions::session`] blocks while the session already has `limit`
///   jobs in flight
///   (queued or proving), so one flooding client fills its own pipe
///   instead of monopolising the pool's shared queue bound.
/// * **Cancel-on-disconnect** — [`SessionCtl::cancel`] marks the
///   session; its queued jobs drain as [`JobError::Cancelled`] without
///   proving, and the one in flight stops at its next checkpoint. Other
///   sessions are untouched.
///
/// [`SessionCtl::drain`] blocks until every in-flight job has been
/// *fully processed* (result sink included), which is what lets a
/// session thread flush all of its responses before emitting the
/// summary line.
#[derive(Debug)]
pub struct SessionCtl {
    id: u64,
    cancelled: AtomicBool,
    in_flight: Mutex<usize>,
    changed: Condvar,
    limit: usize,
}

impl SessionCtl {
    /// A session scope admitting at most `limit` in-flight jobs
    /// (clamped to at least 1); `id` tags this session's results.
    pub fn new(id: u64, limit: usize) -> Self {
        SessionCtl {
            id,
            cancelled: AtomicBool::new(false),
            in_flight: Mutex::new(0),
            changed: Condvar::new(),
            limit: limit.max(1),
        }
    }

    /// The session id carried in [`JobResult::session_id`].
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Marks the session cancelled: its queued jobs drain unproved, and
    /// producers blocked on the session bound are released.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
        // Empty critical section orders the store before the wakeups.
        drop(self.in_flight.lock().expect("session state poisoned"));
        self.changed.notify_all();
    }

    /// `true` once [`SessionCtl::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst)
    }

    /// Jobs submitted for this session and not yet fully processed.
    pub fn in_flight(&self) -> usize {
        *self.in_flight.lock().expect("session state poisoned")
    }

    /// Blocks while the session is at its in-flight limit (unless
    /// cancelled — drains must not deadlock), then claims a slot.
    fn acquire(&self) {
        let mut count = self.in_flight.lock().expect("session state poisoned");
        while *count >= self.limit && !self.is_cancelled() {
            count = self.changed.wait(count).expect("session state poisoned");
        }
        *count += 1;
    }

    /// Releases a slot after the job's result has been fully processed.
    fn release(&self) {
        let mut count = self.in_flight.lock().expect("session state poisoned");
        *count -= 1;
        drop(count);
        self.changed.notify_all();
    }

    /// Blocks until every in-flight job of this session has been fully
    /// processed (its result delivered through the pool's sink).
    pub fn drain(&self) {
        let mut count = self.in_flight.lock().expect("session state poisoned");
        while *count > 0 {
            count = self.changed.wait(count).expect("session state poisoned");
        }
    }
}

/// The outcome of one pooled proving job.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// Submission-order id (results are returned sorted by it).
    pub id: usize,
    /// The spec the job ran.
    pub spec: JobSpec,
    /// The determinism seed the job's statement was derived from (the
    /// pool seed for batch jobs; per-request for `zkvc serve` jobs).
    pub seed: u64,
    /// Serialised proof envelope (backend tag, public inputs, proof).
    /// Envelopes carry no key: Groth16 verification keys ship once per
    /// batch in [`BatchReport::key_table`]. Empty when `error` is set.
    pub proof_bytes: Vec<u8>,
    /// Whether the proof — after a bytes round trip — verified against the
    /// cached verifier key. Always `false` when `error` is set.
    pub verified: bool,
    /// Set when the job did not complete (cancelled, or the job panicked).
    pub error: Option<JobError>,
    /// Whether key material came from the cache (`false` exactly once per
    /// circuit shape per batch).
    pub cache_hit: bool,
    /// Digest of the circuit shape this job proved (keys into
    /// [`BatchReport::key_table`]; zero for jobs that never built a
    /// statement).
    pub shape_digest: [u8; 32],
    /// Index of the worker thread that ran (or drained) the job.
    pub worker: usize,
    /// Opaque caller reference carried through the pool untouched
    /// (`zkvc serve` uses it to echo request ids).
    pub tag: Option<String>,
    /// Time from submission until a worker picked the job up.
    pub queue_wait: Duration,
    /// Circuit synthesis time (witness generation included).
    pub build_time: Duration,
    /// Proving time against the cached key.
    pub prove_time: Duration,
    /// Verification time (from the deserialised envelope).
    pub verify_time: Duration,
    /// R1CS constraints proved.
    pub num_constraints: usize,
    /// Id of the [`SessionCtl`] scope the job was submitted under, when
    /// any (the socket listener routes results back to their session's
    /// connection by it).
    pub session_id: Option<u64>,
}

/// One entry of a batch's out-of-band key table: the verification key for
/// every distinct Groth16 circuit shape the batch proved, shipped once per
/// batch, since proof envelopes carry no key.
#[derive(Clone, Debug)]
pub struct BatchKey {
    /// Circuit-shape digest the key belongs to.
    pub digest: [u8; 32],
    /// Setup seed the key was derived under (batch jobs share the pool
    /// seed; `zkvc serve` requests may override it per job).
    pub seed: u64,
    /// Serialised Groth16 verification key
    /// ([`zkvc_groth16::VerifyingKey::to_bytes`]).
    pub vk_bytes: Vec<u8>,
}

/// Aggregate outcome of a batch run.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// Per-job results, sorted by id.
    pub results: Vec<JobResult>,
    /// Wall-clock time from pool creation to the last worker finishing.
    pub wall_time: Duration,
    /// Number of worker threads used.
    pub workers: usize,
    /// The pool's determinism seed.
    pub seed: u64,
    /// Key-cache counters at the end of the batch.
    pub cache: CacheStats,
    /// Groth16 verification keys for the batch's circuit shapes: job
    /// envelopes carry no key, so a consumer verifies them against this
    /// table (Spartan preprocessing is derived from the circuit structure
    /// and has no wire form). Sorted by digest for deterministic reports.
    pub key_table: Vec<BatchKey>,
    /// Worker threads that died outside the per-job panic guard (should
    /// be zero; non-zero means some results may be missing).
    pub worker_panics: usize,
}

impl BatchReport {
    /// `true` iff every job's proof verified.
    pub fn all_verified(&self) -> bool {
        !self.results.is_empty() && self.results.iter().all(|r| r.verified)
    }

    /// End-to-end throughput in jobs per second.
    pub fn jobs_per_sec(&self) -> f64 {
        let secs = self.wall_time.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.results.len() as f64 / secs
        }
    }

    /// Fraction of jobs served key material from the cache.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.results.is_empty() {
            0.0
        } else {
            self.results.iter().filter(|r| r.cache_hit).count() as f64 / self.results.len() as f64
        }
    }

    /// Jobs drained as cancelled.
    pub fn cancelled_jobs(&self) -> usize {
        self.results
            .iter()
            .filter(|r| matches!(r.error, Some(JobError::Cancelled)))
            .count()
    }

    /// Jobs stopped because their deadline passed.
    pub fn deadline_jobs(&self) -> usize {
        self.results
            .iter()
            .filter(|r| matches!(r.error, Some(JobError::DeadlineExceeded)))
            .count()
    }

    /// Jobs that panicked (and were contained).
    pub fn panicked_jobs(&self) -> usize {
        self.results
            .iter()
            .filter(|r| matches!(r.error, Some(JobError::Panicked(_))))
            .count()
    }

    /// Renders the per-job metrics table plus aggregate lines, as printed
    /// by the `zkvc` CLI.
    pub fn render_table(&self, title: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "== {title} ==");
        let _ = writeln!(
            out,
            "{:>4} {:<12} {:<12} {:<8} {:>6} {:>4} {:>10} {:>10} {:>10} {:>9} {:>6}",
            "job",
            "shape",
            "strategy",
            "backend",
            "cache",
            "wkr",
            "build(ms)",
            "prove(ms)",
            "verify(ms)",
            "proof(B)",
            "ok"
        );
        for r in &self.results {
            let ok = match (&r.error, r.verified) {
                (Some(JobError::Cancelled), _) => "cxl",
                (Some(JobError::DeadlineExceeded), _) => "ddl",
                (Some(JobError::Panicked(_)), _) => "panic",
                (None, true) => "yes",
                (None, false) => "NO",
            };
            let _ = writeln!(
                out,
                "{:>4} {:<12} {:<12} {:<8} {:>6} {:>4} {:>10.2} {:>10.2} {:>10.2} {:>9} {:>6}",
                r.id,
                r.spec.shape_label(),
                r.spec.strategy().token(),
                r.spec.backend().name(),
                if r.cache_hit { "hit" } else { "miss" },
                r.worker,
                r.build_time.as_secs_f64() * 1e3,
                r.prove_time.as_secs_f64() * 1e3,
                r.verify_time.as_secs_f64() * 1e3,
                r.proof_bytes.len(),
                ok,
            );
        }
        let _ = writeln!(
            out,
            "jobs: {}  workers: {}  wall: {:.3}s  throughput: {:.2} jobs/s",
            self.results.len(),
            self.workers,
            self.wall_time.as_secs_f64(),
            self.jobs_per_sec()
        );
        let cancelled = self.cancelled_jobs();
        let deadline = self.deadline_jobs();
        let panicked = self.panicked_jobs();
        if cancelled > 0 || deadline > 0 || panicked > 0 || self.worker_panics > 0 {
            let _ = writeln!(
                out,
                "incidents: {} cancelled, {} past deadline, {} panicked job(s), {} worker thread panic(s)",
                cancelled, deadline, panicked, self.worker_panics
            );
        }
        // The percentage must agree with the counters on the same line, so
        // both come from the cache's lifetime stats (a shared or pre-warmed
        // cache can have seen lookups outside this batch); the batch-local
        // rate is reported separately when it differs.
        let _ = writeln!(
            out,
            "key cache: {} hits / {} misses ({:.0}% hit rate), {} entries",
            self.cache.hits,
            self.cache.misses,
            self.cache.hit_rate() * 100.0,
            self.cache.entries
        );
        if !self.key_table.is_empty() {
            let total: usize = self.key_table.iter().map(|k| k.vk_bytes.len()).sum();
            let _ = writeln!(
                out,
                "key table: {} groth16 vk(s), {} B shipped once per batch (job envelopes are keyless)",
                self.key_table.len(),
                total
            );
        }
        if (self.cache.hit_rate() - self.cache_hit_rate()).abs() > 1e-9 {
            let _ = writeln!(
                out,
                "this batch: {:.0}% of jobs hit the cache",
                self.cache_hit_rate() * 100.0
            );
        }
        out
    }

    /// Machine-readable batch report containing **only deterministic
    /// fields** (no timings, no cache hit/miss attribution — which job
    /// wins the setup race depends on scheduling): job ids, specs,
    /// verdicts, error kinds, constraint counts, proof digests, and the
    /// key table. Two runs of the same batch with the same seed must
    /// produce byte-identical output — the CI determinism step runs the
    /// batch twice and diffs exactly this.
    pub fn render_report_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"schema\": \"zkvc-batch-report/v1\",");
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"jobs\": [");
        for (i, r) in self.results.iter().enumerate() {
            let error = match &r.error {
                None => "null".to_string(),
                Some(e) => format!("\"{}\"", e.kind()),
            };
            let _ = writeln!(
                out,
                "    {{\"id\": {}, \"spec\": \"{}\", \"seed\": {}, \"verified\": {}, \"error\": {}, \"constraints\": {}, \"proof_sha256\": \"{}\", \"shape_digest\": \"{}\"}}{}",
                r.id,
                json_escape(&r.spec.to_string()),
                r.seed,
                r.verified,
                error,
                r.num_constraints,
                hex(&sha256(&r.proof_bytes)),
                hex(&r.shape_digest),
                if i + 1 < self.results.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "  ],");
        let _ = writeln!(out, "  \"key_table\": [");
        for (i, k) in self.key_table.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"digest\": \"{}\", \"seed\": {}, \"vk_sha256\": \"{}\"}}{}",
                hex(&k.digest),
                k.seed,
                hex(&sha256(&k.vk_bytes)),
                if i + 1 < self.key_table.len() {
                    ","
                } else {
                    ""
                }
            );
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        out
    }
}

/// Configuration for a [`ProvingPool`]; the two-argument constructors
/// cover the common cases, this covers the rest.
#[derive(Clone, Debug)]
pub struct PoolConfig {
    /// Worker threads (clamped to at least 1).
    pub workers: usize,
    /// Determinism seed: batch jobs derive statements from it.
    pub seed: u64,
    /// Backpressure bound: `submit` blocks while this many jobs are
    /// queued and unclaimed.
    pub queue_bound: usize,
    /// Whether results accumulate for [`ProvingPool::join`]'s report. A
    /// resident `zkvc serve` pool sets this to `false` and consumes
    /// results through its sink instead, so a long-lived process does not
    /// hold every proof it ever made.
    pub retain_results: bool,
}

impl PoolConfig {
    /// Defaults: `workers` threads, seed 0, a 1024-job queue bound,
    /// results retained.
    pub fn new(workers: usize) -> Self {
        PoolConfig {
            workers: workers.max(1),
            seed: 0,
            queue_bound: 1024,
            retain_results: true,
        }
    }

    /// Sets the determinism seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the backpressure bound (clamped to at least 1).
    pub fn queue_bound(mut self, bound: usize) -> Self {
        self.queue_bound = bound.max(1);
        self
    }

    /// Sets whether results accumulate for the final report.
    pub fn retain_results(mut self, retain: bool) -> Self {
        self.retain_results = retain;
        self
    }
}

/// A callback invoked by worker threads as each result lands, in
/// completion order. Used by `zkvc serve` to stream responses.
pub type ResultSink = Arc<dyn Fn(&JobResult) + Send + Sync>;

/// Per-job submission options for [`ProvingPool::submit`] — the one
/// submission surface. Build with the fluent setters; the default is a
/// plain batch job at its spec-derived priority:
///
/// ```rust
/// use zkvc_runtime::{JobOptions, JobSpec, Priority, ProvingPool};
/// let pool = ProvingPool::new(1);
/// // A batch job, spec-derived priority.
/// pool.submit(JobSpec::new(2, 2, 2), JobOptions::new());
/// // A serve-style request: own seed (statement id pinned to 0), an
/// // echoed tag, an explicit priority, and a deadline.
/// pool.submit(
///     JobSpec::new(2, 2, 2),
///     JobOptions::new()
///         .seed(7)
///         .tag(Some("req-1".into()))
///         .priority(Priority::High)
///         .deadline(Some(std::time::Duration::from_secs(30))),
/// );
/// pool.join();
/// ```
#[derive(Clone, Debug, Default)]
pub struct JobOptions {
    priority: Option<Priority>,
    seed: Option<u64>,
    session: Option<Arc<SessionCtl>>,
    deadline: Option<Duration>,
    tag: Option<String>,
}

impl JobOptions {
    /// Default options: batch mode (pool seed, statement id = job id),
    /// spec-derived priority, no session, no deadline, no tag.
    pub fn new() -> Self {
        JobOptions::default()
    }

    /// Overrides the spec-derived scheduling priority.
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = Some(priority);
        self
    }

    /// Makes this a *request-mode* job with its own determinism seed: the
    /// statement id is pinned to 0, so the proof is exactly what
    /// `zkvc prove --spec S --seed N` emits and `zkvc verify` expects —
    /// the `zkvc serve` semantics. Without this, the job is *batch-mode*:
    /// it derives its statement from the pool seed and its job id.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Scopes the job to a client session: submission blocks on the
    /// session's in-flight limit first, the job honours the session's
    /// cancellation, and the result carries the session id.
    pub fn session(mut self, session: Arc<SessionCtl>) -> Self {
        self.session = Some(session);
        self
    }

    /// Gives the job a deadline (or none), measured from admission: once
    /// it passes, the job is answered [`JobError::DeadlineExceeded`] —
    /// unstarted jobs without proving, a running prove at its next kernel
    /// checkpoint.
    pub fn deadline(mut self, deadline: Option<Duration>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Attaches an opaque tag (or none), echoed untouched in
    /// [`JobResult::tag`] (`zkvc serve` uses it to echo request ids).
    pub fn tag(mut self, tag: Option<String>) -> Self {
        self.tag = tag;
        self
    }
}

struct QueuedJob {
    /// Submission-order id (orders the report).
    id: usize,
    /// Statement derivation id: equals `id` for batch jobs; pinned to 0
    /// for `zkvc serve` requests so their proofs match what
    /// `zkvc prove --spec S --seed N` produces and `zkvc verify` expects.
    statement_id: usize,
    /// Determinism seed for this job's statement and prover randomness.
    seed: u64,
    spec: JobSpec,
    tag: Option<String>,
    /// The session scope the job belongs to (socket sessions only): its
    /// cancellation is honoured alongside the pool-wide flag, and its
    /// in-flight slot is released once the result has been processed.
    session: Option<Arc<SessionCtl>>,
    enqueued: Instant,
    /// Absolute time after which the job must stop (converted from the
    /// request's `deadline_ms` at admission). Enforced at worker pickup,
    /// after statement build, and — via the [`zkvc_ff::cancel`]
    /// checkpoints — mid-MSM and mid-FFT inside the prove itself.
    deadline: Option<Instant>,
}

impl QueuedJob {
    /// What stops this job: its deadline, the pool-wide cancel flag, or
    /// its session's.
    fn stop_when(&self, sched: &Arc<Scheduler<QueuedJob>>) -> StopWhen {
        let sched = Arc::clone(sched);
        let session = self.session.clone();
        StopWhen {
            deadline: self.deadline,
            cancelled: Arc::new(move || {
                sched.is_cancelled() || session.as_ref().is_some_and(|s| s.is_cancelled())
            }),
        }
    }
}

/// The result-delivery tail every worker thread runs after each job: sink
/// first, then retention, then the session slot, then the global
/// in-flight count.
struct Deliverer {
    sink: Option<ResultSink>,
    results: Arc<Mutex<Vec<JobResult>>>,
    retain: bool,
    in_flight: Arc<AtomicUsize>,
}

impl Deliverer {
    fn deliver(&self, job: &QueuedJob, result: JobResult) {
        if let Some(sink) = &self.sink {
            sink(&result);
        }
        if self.retain {
            self.results.lock().expect("results poisoned").push(result);
        }
        // Release only after the sink ran: a session drain returning
        // means every response line for that session has been written.
        if let Some(session) = &job.session {
            session.release();
        }
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A worker pool proving jobs concurrently with shared key caching.
pub struct ProvingPool {
    sched: Arc<Scheduler<QueuedJob>>,
    handles: Vec<thread::JoinHandle<()>>,
    results: Arc<Mutex<Vec<JobResult>>>,
    cache: Arc<KeyCache>,
    workers: usize,
    seed: u64,
    next_id: AtomicUsize,
    started: Instant,
    /// Jobs admitted and not yet fully processed (sink included), across
    /// *all* sessions — the load signal the network layer's global
    /// admission bound sheds on.
    in_flight: Arc<AtomicUsize>,
}

impl std::fmt::Debug for ProvingPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProvingPool")
            .field("workers", &self.workers)
            .field("seed", &self.seed)
            .field("in_flight", &self.in_flight.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl ProvingPool {
    /// A pool with `workers` threads, a fresh key cache and seed 0.
    pub fn new(workers: usize) -> Self {
        Self::with_cache(workers, 0, Arc::new(KeyCache::new()))
    }

    /// A pool with `workers` threads, the given determinism seed, and a
    /// (possibly shared) key cache.
    pub fn with_cache(workers: usize, seed: u64, cache: Arc<KeyCache>) -> Self {
        Self::configured(PoolConfig::new(workers).seed(seed), cache, None)
    }

    /// The fully-configurable constructor: queue bound, result retention,
    /// and an optional per-result sink invoked from worker threads as each
    /// job completes.
    // The pool owns its config and cache handle; constructors take them
    // by value so call sites read as hand-offs.
    #[allow(clippy::needless_pass_by_value)]
    pub fn configured(config: PoolConfig, cache: Arc<KeyCache>, sink: Option<ResultSink>) -> Self {
        let workers = config.workers.max(1);
        let sched = Arc::new(Scheduler::<QueuedJob>::new(config.queue_bound));
        let results = Arc::new(Mutex::new(Vec::new()));
        let in_flight = Arc::new(AtomicUsize::new(0));
        let deliverer = Arc::new(Deliverer {
            sink,
            results: Arc::clone(&results),
            retain: config.retain_results,
            in_flight: Arc::clone(&in_flight),
        });
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let sched = Arc::clone(&sched);
            let cache = Arc::clone(&cache);
            let deliverer = Arc::clone(&deliverer);
            handles.push(
                thread::Builder::new()
                    .name(format!("zkvc-pool-{w}"))
                    .spawn(move || {
                        while let Some(job) = sched.next() {
                            deliverer.deliver(&job, execute_job(&job, w, &cache, &sched));
                        }
                    })
                    .expect("spawn pool worker"),
            );
        }
        ProvingPool {
            sched,
            handles,
            results,
            cache,
            workers,
            seed: config.seed,
            next_id: AtomicUsize::new(0),
            started: Instant::now(),
            in_flight,
        }
    }

    /// The pool's one submission entry point: enqueues a job described by
    /// `options`, returning its id (ids are assigned in submission order
    /// and order the results of [`Self::join`]). Blocks on the session's
    /// in-flight limit first (when a session is set), then on the pool's
    /// shared queue bound.
    ///
    /// Without [`JobOptions::seed`] the job is *batch-mode*: its
    /// statement derives from the pool seed and its job id. With it, the
    /// job is *request-mode* (the `zkvc serve` semantics): its statement
    /// derives from the given seed with the statement id pinned to 0, so
    /// the proof is exactly what `zkvc prove --spec S --seed N` emits and
    /// `zkvc verify --spec S --seed N` expects.
    pub fn submit(&self, spec: JobSpec, options: JobOptions) -> usize {
        let JobOptions {
            priority,
            seed,
            session,
            deadline,
            tag,
        } = options;
        // Per-session backpressure gates admission *before* the job id is
        // assigned and before the deadline clock starts.
        if let Some(session) = &session {
            session.acquire();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let now = Instant::now();
        let (seed, statement_id) = match seed {
            Some(seed) => (seed, 0),
            None => (self.seed, id),
        };
        let priority = priority.unwrap_or_else(|| spec.priority());
        self.enqueue(
            QueuedJob {
                id,
                statement_id,
                seed,
                spec,
                tag,
                session,
                enqueued: now,
                deadline: deadline.map(|d| now + d),
            },
            priority,
        )
    }

    /// Counts the job in flight and hands it to the scheduler.
    fn enqueue(&self, job: QueuedJob, priority: Priority) -> usize {
        let id = job.id;
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        if self.sched.submit(job, priority).is_err() {
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
            panic!("pool already joined");
        }
        id
    }

    /// Requests cooperative cancellation: jobs not yet started are
    /// drained as [`JobError::Cancelled`] results (promptly — no proving),
    /// the job in flight stops at its next checkpoint, and any producer
    /// blocked on backpressure is released.
    pub fn cancel(&self) {
        self.sched.cancel();
    }

    /// `true` once the pool has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.sched.is_cancelled()
    }

    /// Jobs admitted (any submit path, any session) and not yet fully
    /// processed — queued, proving, or mid-sink. The network layer sheds
    /// new requests when this crosses its global admission bound.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::SeqCst)
    }

    /// The shared key cache (e.g. to pre-warm it or to read stats).
    pub fn cache(&self) -> &Arc<KeyCache> {
        &self.cache
    }

    /// The pool's determinism seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Closes the queue, waits for every submitted job to finish, and
    /// returns the batch report with results sorted by job id.
    pub fn join(mut self) -> BatchReport {
        self.sched.close();
        let mut worker_panics = 0;
        for handle in self.handles.drain(..) {
            // A worker dying outside the per-job guard (sink or results
            // mutex panic) is recorded, not propagated: the report must
            // come back even from a degraded pool.
            if handle.join().is_err() {
                worker_panics += 1;
            }
        }
        let mut results = std::mem::take(&mut *self.results.lock().expect("results poisoned"));
        results.sort_by_key(|r| r.id);
        // Only the (shape, seed) pairs this batch actually proved: a
        // shared or pre-warmed cache may hold keys for unrelated shapes,
        // which must not leak into this report's table.
        let batch_keys: HashSet<([u8; 32], u64)> = results
            .iter()
            .filter(|r| r.error.is_none())
            .map(|r| (r.shape_digest, r.seed))
            .collect();
        let mut key_table: Vec<BatchKey> = self
            .cache
            .entries()
            .iter()
            .filter(|entry| batch_keys.contains(&(entry.digest, entry.setup_seed)))
            .filter_map(|entry| match &entry.verifier {
                VerifierKey::Groth16(vk) => Some(BatchKey {
                    digest: entry.digest,
                    seed: entry.setup_seed,
                    vk_bytes: vk.to_bytes(),
                }),
                VerifierKey::Spartan(_) => None,
            })
            .collect();
        // The cache map iterates in hash order; reports must not.
        key_table.sort_by_key(|k| (k.digest, k.seed));
        BatchReport {
            wall_time: self.started.elapsed(),
            workers: self.workers,
            seed: self.seed,
            cache: self.cache.stats(),
            results,
            key_table,
            worker_panics,
        }
    }
}

impl Drop for ProvingPool {
    fn drop(&mut self) {
        // `join` drained the handles already; this path only fires when
        // the pool is abandoned (early return, panic). Cancel so workers
        // drain the backlog without proving, then wait for them to exit
        // so no detached thread keeps burning CPU on a discarded batch.
        if self.handles.is_empty() {
            return;
        }
        self.sched.cancel();
        self.sched.close();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Runs one job through the job body on the calling thread and spells
/// out its [`JobResult`]: the job's identity, the worker thread that ran
/// it, and either what the job body proved or why it stopped (nothing
/// proved: empty bytes, zero digest, zero timings). Never panics.
fn execute_job(
    job: &QueuedJob,
    worker: usize,
    cache: &KeyCache,
    sched: &Arc<Scheduler<QueuedJob>>,
) -> JobResult {
    let queue_wait = job.enqueued.elapsed();
    let stop = job.stop_when(sched);
    let (proved, error) = match job::run(cache, &job.spec, job.seed, job.statement_id, &stop) {
        Ok(proved) => (proved, None),
        Err(error) => (Proved::default(), Some(error)),
    };
    JobResult {
        id: job.id,
        spec: job.spec,
        seed: job.seed,
        proof_bytes: proved.proof_bytes,
        verified: proved.verified,
        error,
        cache_hit: proved.cache_hit,
        shape_digest: proved.shape_digest,
        worker,
        tag: job.tag.clone(),
        queue_wait,
        build_time: proved.build_time,
        prove_time: proved.prove_time,
        verify_time: proved.verify_time,
        num_constraints: proved.num_constraints,
        session_id: job.session.as_ref().map(|s| s.id()),
    }
}

/// Proves `specs` on a `workers`-thread pool with a fresh cache; the
/// convenience entry point behind the `zkvc prove-batch` CLI.
pub fn prove_batch(specs: &[JobSpec], workers: usize, seed: u64) -> BatchReport {
    let pool = ProvingPool::with_cache(workers, seed, Arc::new(KeyCache::with_seed(seed)));
    for spec in specs {
        pool.submit(*spec, JobOptions::new());
    }
    pool.join()
}

/// The reference oracle the tier-1 tests compare the pool against: the
/// same deterministic jobs, proved sequentially, each with its own shape
/// compile and setup (no cache, no parallelism).
pub fn prove_batch_serial(specs: &[JobSpec], seed: u64) -> BatchReport {
    let started = Instant::now();
    let mut results = Vec::with_capacity(specs.len());
    for (id, spec) in specs.iter().enumerate() {
        let t0 = Instant::now();
        let statement = build_statement(seed, id, spec);
        let build_time = t0.elapsed();
        let backend = spec.backend();
        let mut rng = job::prover_rng(seed, id);
        // One-shot proving pays compile and setup every time; count them
        // as part of the per-job proving cost, which is exactly the figure
        // the key cache exists to improve.
        let t1 = Instant::now();
        let shape = Arc::new(compile_shape(statement.as_ref()));
        let (pk, vk) = backend.setup_shape(&shape, &mut rng);
        let witness = generate_witness_for(statement.as_ref(), &shape);
        let artifacts = backend.prove_assignment(&pk, &witness, &mut rng);
        let prove_time = t1.elapsed();
        let proof_bytes = ProofEnvelope::from_artifacts(&artifacts).to_bytes();
        let t2 = Instant::now();
        let verified = check_envelope(&proof_bytes, &artifacts.public_inputs, &vk).is_ok();
        let verify_time = t2.elapsed();
        results.push(JobResult {
            id,
            spec: *spec,
            seed,
            proof_bytes,
            verified,
            error: None,
            cache_hit: false,
            shape_digest: shape.digest,
            worker: 0,
            tag: None,
            queue_wait: Duration::ZERO,
            build_time,
            prove_time,
            verify_time,
            num_constraints: shape.num_constraints(),
            session_id: None,
        });
    }
    BatchReport {
        wall_time: started.elapsed(),
        workers: 1,
        seed,
        // One setup per job, none shared.
        cache: CacheStats {
            misses: specs.len() as u64,
            ..CacheStats::default()
        },
        results,
        // Serial Groth16 keys come from per-job one-shot setups, not a
        // shared cache, so there is no key table.
        key_table: Vec::new(),
        worker_panics: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::derive_verifier_key;
    use crate::error::Error;
    use crate::job::StatementVerifier;
    use crate::spec::ModelPreset;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use zkvc_core::matmul::Strategy;
    use zkvc_core::Backend;

    #[test]
    fn pool_proves_mixed_batch_deterministically() {
        // 8 jobs over 4 workers: two shapes x two backends x two strategies.
        let specs: Vec<JobSpec> = vec![
            JobSpec::new(4, 4, 4),
            JobSpec::new(4, 4, 4),
            JobSpec::new(4, 4, 4).with_backend(Backend::Spartan),
            JobSpec::new(4, 4, 4).with_backend(Backend::Spartan),
            JobSpec::new(3, 2, 3).with_strategy(Strategy::Vanilla),
            JobSpec::new(3, 2, 3).with_strategy(Strategy::Vanilla),
            JobSpec::new(3, 2, 3)
                .with_strategy(Strategy::VanillaPsq)
                .with_backend(Backend::Spartan),
            JobSpec::new(4, 4, 4),
        ];
        let report = prove_batch(&specs, 4, 42);
        assert_eq!(report.results.len(), 8);
        assert!(report.all_verified(), "all 8 proofs must verify");
        assert_eq!(report.worker_panics, 0);
        assert_eq!(
            report.results.iter().map(|r| r.id).collect::<Vec<_>>(),
            (0..8).collect::<Vec<_>>(),
            "results ordered by id"
        );
        // 4 distinct (shape, backend) pairs -> 4 misses, 4 hits.
        assert_eq!(report.cache.misses, 4);
        assert_eq!(report.cache.hits, 4);
        assert!((report.cache_hit_rate() - 0.5).abs() < 1e-9);
        assert!(report.jobs_per_sec() > 0.0);

        // Re-running the identical batch reproduces byte-identical proofs,
        // regardless of how many workers share the queue.
        for (label, rerun) in [
            ("2 workers", prove_batch(&specs, 2, 42)),
            ("1 worker", prove_batch(&specs, 1, 42)),
        ] {
            for (a, b) in report.results.iter().zip(rerun.results.iter()) {
                assert_eq!(a.id, b.id);
                assert_eq!(
                    a.proof_bytes, b.proof_bytes,
                    "job {} not deterministic ({label})",
                    a.id
                );
            }
            assert_eq!(
                report.render_report_json(),
                rerun.render_report_json(),
                "deterministic report must be byte-identical ({label})"
            );
        }

        // A different seed produces different proofs.
        let other = prove_batch(&specs, 2, 43);
        assert!(report
            .results
            .iter()
            .zip(other.results.iter())
            .any(|(a, b)| a.proof_bytes != b.proof_bytes));
    }

    #[test]
    fn same_shape_jobs_share_one_setup() {
        let specs = vec![JobSpec::new(3, 3, 3).with_backend(Backend::Spartan); 2];
        let report = prove_batch(&specs, 2, 7);
        assert!(report.all_verified());
        assert_eq!(report.cache.misses, 1, "one setup");
        assert_eq!(report.cache.hits, 1, "second job reuses it");
        let table = report.render_table("test");
        assert!(table.contains("hit") && table.contains("miss"));
    }

    #[test]
    fn model_jobs_flow_through_the_pool() {
        // Two jobs of the same preset (different per-id weights) plus one
        // of another preset: the per-shape challenge lets the same-preset
        // pair share one setup, and every proof still verifies after the
        // envelope round trip, publics binding included.
        let specs = vec![
            JobSpec::model(ModelPreset::MixerBlock).with_backend(Backend::Spartan),
            JobSpec::model(ModelPreset::MixerBlock).with_backend(Backend::Spartan),
            JobSpec::model(ModelPreset::BertBlock).with_backend(Backend::Spartan),
        ];
        let report = prove_batch(&specs, 2, 17);
        assert!(report.all_verified(), "model proofs must verify");
        assert_eq!(report.cache.misses, 2, "one setup per preset");
        assert_eq!(report.cache.hits, 1, "same-preset job reuses it");
        // Different weights per id: the two mixer-block proofs bind
        // different logits.
        let e0 = ProofEnvelope::decode(&report.results[0].proof_bytes).unwrap();
        let e1 = ProofEnvelope::decode(&report.results[1].proof_bytes).unwrap();
        assert!(!e0.public_inputs.is_empty());
        assert_ne!(e0.public_inputs, e1.public_inputs);
        let table = report.render_table("models");
        assert!(table.contains("mixer-block") && table.contains("bert-block"));
    }

    #[test]
    fn pool_rejects_replayed_statement_proofs() {
        // A proof for job id 0 presented as job id 1 (same shape, different
        // Y) must fail the exact acceptance predicate the job body and
        // prove_batch_serial use, under the cached key and under the key
        // `zkvc verify` derives alone from the spec and seed.
        let spec = JobSpec::new(3, 3, 3).with_backend(Backend::Spartan);
        let s0 = build_statement(21, 0, &spec);
        let s1 = build_statement(21, 1, &spec);
        assert_eq!(s0.shape_digest(), s1.shape_digest(), "same shape");
        assert_ne!(s0.public_outputs(), s1.public_outputs(), "different Y");
        let cache = KeyCache::with_seed(21);
        let (keys, _) = cache.get_or_setup_circuit(spec.backend(), s0.as_ref());
        let mut rng = StdRng::seed_from_u64(99);
        let witness = generate_witness_for(s0.as_ref(), &keys.shape);
        let artifacts = spec
            .backend()
            .prove_assignment(&keys.prover, &witness, &mut rng);
        let bytes = ProofEnvelope::from_artifacts(&artifacts).to_bytes();
        let p0 = s0.public_outputs();
        let p1 = s1.public_outputs();
        let derived = derive_verifier_key(spec.backend(), &keys.shape, 21);

        // Honest: accepted for the statement it proves...
        assert!(check_envelope(&bytes, &p0, &keys.verifier).is_ok());
        assert!(check_envelope(&bytes, &p0, &derived).is_ok());
        // ...replayed: rejected for job 1's statement, even though the
        // cryptographic check alone would accept it (same shape and keys).
        assert!(ProofEnvelope::decode(&bytes)
            .unwrap()
            .verify_with_key(&keys.verifier));
        assert!(matches!(
            check_envelope(&bytes, &p1, &keys.verifier),
            Err(Error::StatementMismatch)
        ));
        assert!(matches!(
            check_envelope(&bytes, &p1, &derived),
            Err(Error::StatementMismatch)
        ));
    }

    #[test]
    fn submit_after_results_and_empty_join() {
        let pool = ProvingPool::new(2);
        let report = pool.join();
        assert!(report.results.is_empty());
        assert!(
            !report.all_verified(),
            "empty batch is not vacuously verified"
        );
        assert_eq!(report.jobs_per_sec(), 0.0);
        assert_eq!(report.worker_panics, 0);
    }

    #[test]
    fn abandoned_pool_drains_without_proving() {
        // Dropping a pool without join must not leave workers proving a
        // discarded backlog; the drop blocks only until the queue is
        // drained (skipping the work), which this test bounds implicitly
        // by finishing fast despite 32 queued Groth16 jobs.
        let pool = ProvingPool::new(1);
        for _ in 0..32 {
            pool.submit(
                JobSpec::new(6, 6, 6).with_strategy(Strategy::Vanilla),
                JobOptions::new(),
            );
        }
        let cache = Arc::clone(pool.cache());
        drop(pool);
        // At most the in-flight job ran setup; the drained backlog didn't.
        assert!(cache.stats().misses <= 1);
    }

    #[test]
    fn serial_baseline_matches_pool_verdicts() {
        let specs = vec![
            JobSpec::new(2, 3, 2),
            JobSpec::new(2, 3, 2).with_backend(Backend::Spartan),
        ];
        let serial = prove_batch_serial(&specs, 11);
        assert!(serial.all_verified());
        assert_eq!(serial.workers, 1);
        assert_eq!(
            serial.cache,
            CacheStats {
                misses: 2,
                ..CacheStats::default()
            }
        );

        let pooled = prove_batch(&specs, 2, 11);
        let verdicts = |r: &BatchReport| {
            r.results
                .iter()
                .map(|j| (j.id, j.verified))
                .collect::<Vec<_>>()
        };
        assert_eq!(verdicts(&serial), verdicts(&pooled));
    }

    #[test]
    fn serve_style_requests_match_single_prove() {
        // JobOptions::seed pins the statement id to 0: the proof is
        // byte-identical to job 0 of a fresh batch at the same seed, no
        // matter how many requests preceded it in the resident pool.
        let cache = Arc::new(KeyCache::with_seed(0));
        let pool = ProvingPool::with_cache(1, 0, cache);
        let spec = JobSpec::new(3, 3, 3).with_backend(Backend::Spartan);
        pool.submit(spec, JobOptions::new().seed(5).tag(Some("a".into())));
        pool.submit(spec, JobOptions::new().seed(5).tag(Some("b".into())));
        let report = pool.join();
        assert!(report.all_verified());
        assert_eq!(report.results[0].tag.as_deref(), Some("a"));
        assert_eq!(report.results[1].tag.as_deref(), Some("b"));
        // Same (spec, seed) -> same statement -> identical proofs and one
        // shared setup.
        assert_eq!(report.results[0].proof_bytes, report.results[1].proof_bytes);
        assert_eq!(report.cache.misses, 1);
        // And the proof matches the "job 0 at seed 5" statement exactly.
        assert!(StatementVerifier::new(&spec, 5)
            .check(&report.results[0].proof_bytes)
            .is_ok());
    }

    #[test]
    fn session_cancellation_is_scoped_to_the_session() {
        // Two sessions share one pool; cancelling one must drain only its
        // jobs (as Cancelled, tagged with its session id) while the other
        // session's jobs prove normally. Cancelling *before* submission
        // makes the outcome deterministic: acquire passes through on a
        // cancelled session, and every worker pickup sees it cancelled.
        let pool = ProvingPool::new(2);
        let dead = Arc::new(SessionCtl::new(1, 8));
        let live = Arc::new(SessionCtl::new(2, 8));
        dead.cancel();
        let spec = JobSpec::new(3, 3, 3).with_backend(Backend::Spartan);
        for _ in 0..3 {
            pool.submit(spec, JobOptions::new().seed(5).session(Arc::clone(&dead)));
        }
        for _ in 0..3 {
            pool.submit(spec, JobOptions::new().seed(5).session(Arc::clone(&live)));
        }
        let report = pool.join();
        let by = |sid: u64| {
            report
                .results
                .iter()
                .filter(move |r| r.session_id == Some(sid))
        };
        assert_eq!(by(1).count(), 3);
        assert!(by(1).all(|r| matches!(r.error, Some(JobError::Cancelled)) && !r.verified));
        assert_eq!(by(2).count(), 3);
        assert!(by(2).all(|r| r.verified));
        // Every slot was released through the sink path.
        assert_eq!(dead.in_flight(), 0);
        assert_eq!(live.in_flight(), 0);
    }

    #[test]
    fn session_admission_blocks_at_the_limit_until_release_or_cancel() {
        let ctl = Arc::new(SessionCtl::new(7, 2));
        ctl.acquire();
        ctl.acquire();
        assert_eq!(ctl.in_flight(), 2);

        // A third acquire parks until a slot frees up.
        let acquired = Arc::new(AtomicBool::new(false));
        let waiter = {
            let ctl = Arc::clone(&ctl);
            let acquired = Arc::clone(&acquired);
            thread::spawn(move || {
                ctl.acquire();
                acquired.store(true, Ordering::SeqCst);
            })
        };
        thread::sleep(Duration::from_millis(100));
        assert!(!acquired.load(Ordering::SeqCst), "blocked at the limit");
        ctl.release();
        waiter.join().unwrap();
        assert!(acquired.load(Ordering::SeqCst));
        assert_eq!(ctl.in_flight(), 2);

        // Cancellation lifts the bound so a draining session can never
        // deadlock a producer.
        let post_cancel = {
            let ctl = Arc::clone(&ctl);
            thread::spawn(move || {
                ctl.acquire();
                ctl.acquire();
            })
        };
        thread::sleep(Duration::from_millis(50));
        ctl.cancel();
        post_cancel.join().unwrap();
        assert!(ctl.in_flight() >= 2);
    }
}
