//! The sharded, work-stealing job scheduler underneath
//! [`ProvingPool`](crate::ProvingPool).
//!
//! Jobs land on per-worker shards (round-robin at submission); each shard
//! is a pair of FIFO deques, one per [`Priority`]. A worker drains its own
//! shard first and **steals from the other shards when idle**, so a skewed
//! batch — one model-block job pinning a worker for seconds next to a pile
//! of small matmuls — never leaves runnable work stranded behind a busy
//! worker. Priorities are global: every worker exhausts *all* reachable
//! high-priority work (own shard, then victims) before touching a normal
//! job, which is what keeps small interactive matmuls from starving behind
//! model blocks.
//!
//! Two further properties the proving service needs from its queue:
//!
//! * **Bounded-queue backpressure** — [`Scheduler::submit`] blocks once
//!   `queue_bound` jobs are waiting, so a producer that outpaces the
//!   workers (a client flooding `zkvc serve`) holds its own requests in
//!   the pipe instead of ballooning the process heap.
//! * **Cooperative cancellation** — [`Scheduler::cancel`] flips a flag
//!   that job execution checks at pickup (and at checkpoints inside a
//!   job); queued work keeps flowing to workers so the *caller* can drain
//!   it as recorded-but-unproved results, promptly and accountably.
//!
//! The scheduler is generic over the job type and does no proving itself,
//! so its concurrency semantics are unit-testable without touching a
//! backend.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use crossbeam::deque::{Steal, Stealer, Worker};

/// Scheduling class of one job. High-priority work is dispatched before
/// normal work everywhere (own shard and steals alike).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Priority {
    /// Dispatch ahead of normal work (small interactive statements).
    High,
    /// Default class (bulk and model-block jobs).
    Normal,
}

/// One worker's slice of the queue: a deque per priority level.
struct Shard<T> {
    high: Worker<T>,
    high_stealer: Stealer<T>,
    normal: Worker<T>,
    normal_stealer: Stealer<T>,
}

impl<T> Shard<T> {
    fn new() -> Self {
        let high = Worker::new_fifo();
        let normal = Worker::new_fifo();
        Shard {
            high_stealer: high.stealer(),
            normal_stealer: normal.stealer(),
            high,
            normal,
        }
    }
}

/// Counters guarded by the coordination mutex. `queued` counts accepted
/// jobs not yet handed to a worker; it is incremented *before* the shard
/// push (see [`Scheduler::submit`]) so the idle test in
/// [`Scheduler::next`] can never report "empty" while a publish is in
/// flight.
struct State {
    queued: usize,
    closed: bool,
}

/// A sharded work-stealing scheduler; see the module docs.
pub struct Scheduler<T> {
    shards: Vec<Shard<T>>,
    state: Mutex<State>,
    /// Workers park here when no job is reachable.
    work: Condvar,
    /// Submitters park here when the queue is at its bound.
    space: Condvar,
    cancelled: AtomicBool,
    next_shard: AtomicUsize,
    bound: usize,
}

impl<T> Scheduler<T> {
    /// A scheduler with one shard per worker, blocking submissions once
    /// `bound` jobs are queued (`bound` is clamped to at least 1).
    pub fn new(workers: usize, bound: usize) -> Self {
        let workers = workers.max(1);
        Scheduler {
            shards: (0..workers).map(|_| Shard::new()).collect(),
            state: Mutex::new(State {
                queued: 0,
                closed: false,
            }),
            work: Condvar::new(),
            space: Condvar::new(),
            cancelled: AtomicBool::new(false),
            next_shard: AtomicUsize::new(0),
            bound: bound.max(1),
        }
    }

    /// Jobs accepted but not yet picked up by a worker.
    pub fn queued(&self) -> usize {
        self.state.lock().expect("scheduler state poisoned").queued
    }

    /// Enqueues a job, blocking while the queue is at its bound (the
    /// backpressure path; cancellation lifts the bound so drains can't
    /// deadlock a blocked producer). Returns the job back as `Err` when
    /// the scheduler is already closed.
    pub fn submit(&self, item: T, priority: Priority) -> Result<(), T> {
        {
            let mut st = self.state.lock().expect("scheduler state poisoned");
            loop {
                if st.closed {
                    return Err(item);
                }
                if st.queued < self.bound || self.is_cancelled() {
                    break;
                }
                st = self.space.wait(st).expect("scheduler state poisoned");
            }
            st.queued += 1;
        }
        let shard =
            &self.shards[self.next_shard.fetch_add(1, Ordering::Relaxed) % self.shards.len()];
        match priority {
            Priority::High => shard.high.push(item),
            Priority::Normal => shard.normal.push(item),
        }
        self.work.notify_one();
        Ok(())
    }

    /// One dispatch attempt for `worker`: own shard first (high before
    /// normal), then steal-on-idle from the other shards in ring order —
    /// all reachable high-priority work is preferred over any normal job.
    fn try_pop(&self, worker: usize) -> Option<T> {
        let n = self.shards.len();
        let worker = worker % n;
        if let Some(item) = self.shards[worker].high.pop() {
            return Some(item);
        }
        for k in 1..n {
            if let Steal::Success(item) = self.shards[(worker + k) % n].high_stealer.steal() {
                return Some(item);
            }
        }
        if let Some(item) = self.shards[worker].normal.pop() {
            return Some(item);
        }
        for k in 1..n {
            if let Steal::Success(item) = self.shards[(worker + k) % n].normal_stealer.steal() {
                return Some(item);
            }
        }
        None
    }

    /// Blocks until a job is available for `worker` (own or stolen) and
    /// returns it, or returns `None` when the scheduler is closed and
    /// fully drained — the worker's signal to exit. Cancellation does
    /// *not* stop delivery: remaining jobs still flow out so the caller
    /// can record them as cancelled.
    pub fn next(&self, worker: usize) -> Option<T> {
        loop {
            if let Some(item) = self.try_pop(worker) {
                let mut st = self.state.lock().expect("scheduler state poisoned");
                st.queued -= 1;
                drop(st);
                self.space.notify_one();
                return Some(item);
            }
            let st = self.state.lock().expect("scheduler state poisoned");
            if st.queued == 0 {
                if st.closed {
                    return None;
                }
                // The timeout is a belt-and-braces guard against a missed
                // wakeup; correctness only needs the re-scan on wake.
                let (_g, _) = self
                    .work
                    .wait_timeout(st, Duration::from_millis(50))
                    .expect("scheduler state poisoned");
            } else {
                // A submitter has incremented `queued` but not yet pushed
                // to its shard: spin past the tiny publish window.
                drop(st);
                std::thread::yield_now();
            }
        }
    }

    /// Closes the queue: no new submissions are accepted, workers drain
    /// what is left and then see `None` from [`Scheduler::next`].
    pub fn close(&self) {
        let mut st = self.state.lock().expect("scheduler state poisoned");
        st.closed = true;
        drop(st);
        self.work.notify_all();
        self.space.notify_all();
    }

    /// Requests cooperative cancellation: queued jobs keep draining to
    /// workers (so they can be recorded as cancelled) and any producer
    /// blocked on backpressure is released.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
        // Empty critical section orders the flag store before the wakeups.
        drop(self.state.lock().expect("scheduler state poisoned"));
        self.work.notify_all();
        self.space.notify_all();
    }

    /// `true` once [`Scheduler::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    #[test]
    fn steal_on_idle_balances_a_skewed_backlog() {
        // Four jobs land round-robin on two shards. Worker 0 takes exactly
        // one job and then stalls (a long model block, say). Worker 1 must
        // drain *everything else*, including the jobs parked on shard 0 —
        // that is steal-on-idle, deterministically.
        let sched = Scheduler::new(2, 64);
        for i in 0..4 {
            sched.submit(i, Priority::Normal).unwrap();
        }
        let first = sched.next(0).unwrap();
        let mut worker1 = Vec::new();
        while sched.queued() > 0 {
            worker1.push(sched.next(1).unwrap());
        }
        let mut all: Vec<i32> = worker1.clone();
        all.push(first);
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3]);
        assert_eq!(worker1.len(), 3, "worker 1 stole shard 0's backlog");
    }

    #[test]
    fn high_priority_jobs_jump_normal_backlogs_everywhere() {
        // Normal jobs across both shards, then high-priority ones: every
        // reachable high job must be dispatched before any normal job,
        // from the owner's shard or a victim's.
        let sched = Scheduler::new(2, 64);
        for i in 0..4 {
            sched
                .submit((Priority::Normal, i), Priority::Normal)
                .unwrap();
        }
        for i in 0..3 {
            sched.submit((Priority::High, i), Priority::High).unwrap();
        }
        let order: Vec<(Priority, i32)> = (0..7).map(|_| sched.next(0).unwrap()).collect();
        let highs = order.iter().take(3).map(|(p, _)| *p).collect::<Vec<_>>();
        assert_eq!(highs, vec![Priority::High; 3], "{order:?}");
    }

    #[test]
    fn submit_blocks_at_the_bound_and_unblocks_on_pop() {
        let sched = Arc::new(Scheduler::new(1, 2));
        sched.submit(0, Priority::Normal).unwrap();
        sched.submit(1, Priority::Normal).unwrap();
        assert_eq!(sched.queued(), 2);

        let submitted = Arc::new(AtomicBool::new(false));
        let handle = {
            let sched = Arc::clone(&sched);
            let submitted = Arc::clone(&submitted);
            std::thread::spawn(move || {
                sched.submit(2, Priority::Normal).unwrap();
                submitted.store(true, Ordering::SeqCst);
            })
        };
        // The third submit must still be blocked after a generous delay...
        std::thread::sleep(Duration::from_millis(100));
        assert!(
            !submitted.load(Ordering::SeqCst),
            "submit above the bound must block"
        );
        // ...and must complete promptly once a worker frees a slot.
        assert_eq!(sched.next(0), Some(0));
        let t0 = Instant::now();
        while !submitted.load(Ordering::SeqCst) {
            assert!(t0.elapsed() < Duration::from_secs(5), "submit never woke");
            std::thread::yield_now();
        }
        handle.join().unwrap();
        assert_eq!(sched.next(0), Some(1));
        assert_eq!(sched.next(0), Some(2));
    }

    #[test]
    fn cancel_releases_blocked_producers_and_keeps_draining() {
        let sched = Arc::new(Scheduler::new(1, 1));
        sched.submit(0, Priority::Normal).unwrap();
        let handle = {
            let sched = Arc::clone(&sched);
            std::thread::spawn(move || sched.submit(1, Priority::Normal))
        };
        std::thread::sleep(Duration::from_millis(50));
        sched.cancel();
        // The blocked producer is released (the bound is lifted) and its
        // job is still queued for an accountable cancelled drain.
        handle.join().unwrap().unwrap();
        assert!(sched.is_cancelled());
        assert_eq!(sched.next(0), Some(0));
        assert_eq!(sched.next(0), Some(1));
        assert_eq!(sched.queued(), 0);
    }

    #[test]
    fn close_drains_then_exits_workers() {
        let sched = Arc::new(Scheduler::new(2, 16));
        for i in 0..8 {
            sched.submit(i, Priority::Normal).unwrap();
        }
        sched.close();
        assert!(sched.submit(99, Priority::Normal).is_err(), "closed");
        let mut seen = Vec::new();
        let mut handles = Vec::new();
        for w in 0..2 {
            let sched = Arc::clone(&sched);
            handles.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(item) = sched.next(w) {
                    got.push(item);
                }
                got
            }));
        }
        for h in handles {
            seen.extend(h.join().unwrap());
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn blocked_workers_wake_on_late_submissions() {
        let sched = Arc::new(Scheduler::new(1, 16));
        let worker = {
            let sched = Arc::clone(&sched);
            std::thread::spawn(move || sched.next(0))
        };
        std::thread::sleep(Duration::from_millis(30));
        sched.submit(7, Priority::Normal).unwrap();
        assert_eq!(worker.join().unwrap(), Some(7));
    }
}
