//! The job queue underneath [`ProvingPool`](crate::ProvingPool): one
//! two-level FIFO — a deque per [`Priority`] — under one lock.
//!
//! Every worker asks the same queue, so priority is global by
//! construction: [`Scheduler::next`] hands out the oldest high-priority
//! job while there is one, and only then the oldest normal job. That is
//! what keeps small interactive matmuls from starving behind model
//! blocks, and an idle worker always finds whatever is runnable — no job
//! can be stranded behind a busy worker. Proving jobs take milliseconds
//! to seconds, so a single mutex sees no contention worth designing
//! around, and because a push and the wakeup it sends happen under the
//! same lock, no wakeup can be missed.
//!
//! Two further properties the proving service needs from its queue:
//!
//! * **Bounded-queue backpressure** — [`Scheduler::submit`] blocks once
//!   `bound` jobs are waiting, so a producer that outpaces the workers (a
//!   client flooding `zkvc serve`) holds its own requests in the pipe
//!   instead of ballooning the process heap.
//! * **Cooperative cancellation** — [`Scheduler::cancel`] flips a flag
//!   that job execution checks at pickup (and at checkpoints inside a
//!   job); queued work keeps flowing to workers so the *caller* can drain
//!   it as recorded-but-unproved results, promptly and accountably.
//!
//! The scheduler is generic over the job type and does no proving itself,
//! so its concurrency semantics are unit-testable without touching a
//! backend.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};

/// Scheduling class of one job. High-priority work is dispatched before
/// any normal work.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Priority {
    /// Dispatch ahead of normal work (small interactive statements).
    High,
    /// Default class (bulk and model-block jobs).
    Normal,
}

/// The queued jobs, one FIFO per priority, and whether the queue is
/// closed to new submissions.
struct Queue<T> {
    high: VecDeque<T>,
    normal: VecDeque<T>,
    closed: bool,
}

impl<T> Queue<T> {
    /// Jobs accepted but not yet handed to a worker.
    fn len(&self) -> usize {
        self.high.len() + self.normal.len()
    }
}

/// A bounded two-level FIFO job queue; see the module docs.
pub struct Scheduler<T> {
    queue: Mutex<Queue<T>>,
    /// Workers park here while the queue is empty.
    work: Condvar,
    /// Submitters park here while the queue is at its bound.
    space: Condvar,
    cancelled: AtomicBool,
    bound: usize,
}

impl<T> Scheduler<T> {
    /// An empty queue that blocks submissions once `bound` jobs are
    /// waiting (`bound` is clamped to at least 1).
    pub fn new(bound: usize) -> Self {
        Scheduler {
            queue: Mutex::new(Queue {
                high: VecDeque::new(),
                normal: VecDeque::new(),
                closed: false,
            }),
            work: Condvar::new(),
            space: Condvar::new(),
            cancelled: AtomicBool::new(false),
            bound: bound.max(1),
        }
    }

    /// Enqueues a job, blocking while the queue is at its bound (the
    /// backpressure path; cancellation lifts the bound so drains can't
    /// deadlock a blocked producer). Returns the job back as `Err` when
    /// the scheduler is already closed.
    pub fn submit(&self, item: T, priority: Priority) -> Result<(), T> {
        let mut q = self.queue.lock().expect("scheduler queue poisoned");
        loop {
            if q.closed {
                return Err(item);
            }
            if q.len() < self.bound || self.is_cancelled() {
                break;
            }
            q = self.space.wait(q).expect("scheduler queue poisoned");
        }
        match priority {
            Priority::High => q.high.push_back(item),
            Priority::Normal => q.normal.push_back(item),
        }
        drop(q);
        self.work.notify_one();
        Ok(())
    }

    /// Blocks until a job is queued and returns the oldest high-priority
    /// one, else the oldest normal one; returns `None` once the scheduler
    /// is closed and drained — the worker's signal to exit. Cancellation
    /// does *not* stop delivery: remaining jobs still flow out so the
    /// caller can record them as cancelled.
    pub fn next(&self) -> Option<T> {
        let mut q = self.queue.lock().expect("scheduler queue poisoned");
        loop {
            if let Some(item) = q.high.pop_front().or_else(|| q.normal.pop_front()) {
                drop(q);
                self.space.notify_one();
                return Some(item);
            }
            if q.closed {
                return None;
            }
            q = self.work.wait(q).expect("scheduler queue poisoned");
        }
    }

    /// Closes the queue: no new submissions are accepted, workers drain
    /// what is left and then see `None` from [`Scheduler::next`].
    pub fn close(&self) {
        self.queue.lock().expect("scheduler queue poisoned").closed = true;
        self.work.notify_all();
        self.space.notify_all();
    }

    /// Requests cooperative cancellation: queued jobs keep draining to
    /// workers (so they can be recorded as cancelled) and any producer
    /// blocked on backpressure is released.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
        // Empty critical section orders the flag store before the wakeups.
        drop(self.queue.lock().expect("scheduler queue poisoned"));
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
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    impl<T> Scheduler<T> {
        fn queued(&self) -> usize {
            self.queue.lock().unwrap().len()
        }
    }

    #[test]
    fn fifo_within_a_priority_whoever_asks() {
        let sched = Scheduler::new(64);
        for i in 0..8 {
            sched.submit(i, Priority::Normal).unwrap();
        }
        let order: Vec<i32> = (0..8).map(|_| sched.next().unwrap()).collect();
        assert_eq!(order, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn one_idle_worker_drains_the_whole_backlog() {
        // Worker 0 takes exactly one job and then stalls (a long model
        // block, say). The idle worker must drain *everything else*: no
        // job waits on the busy one.
        let sched = Scheduler::new(64);
        for i in 0..4 {
            sched.submit(i, Priority::Normal).unwrap();
        }
        let first = sched.next().unwrap();
        let mut worker1 = Vec::new();
        while sched.queued() > 0 {
            worker1.push(sched.next().unwrap());
        }
        let mut all: Vec<i32> = worker1.clone();
        all.push(first);
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3]);
        assert_eq!(worker1.len(), 3, "the idle worker drained the backlog");
    }

    #[test]
    fn high_priority_jobs_jump_normal_backlogs_everywhere() {
        // Normal jobs first, then high-priority ones: every queued high
        // job must be dispatched before any normal job.
        let sched = Scheduler::new(64);
        for i in 0..4 {
            sched
                .submit((Priority::Normal, i), Priority::Normal)
                .unwrap();
        }
        for i in 0..3 {
            sched.submit((Priority::High, i), Priority::High).unwrap();
        }
        let order: Vec<(Priority, i32)> = (0..7).map(|_| sched.next().unwrap()).collect();
        let highs = order.iter().take(3).map(|(p, _)| *p).collect::<Vec<_>>();
        assert_eq!(highs, vec![Priority::High; 3], "{order:?}");
    }

    #[test]
    fn submit_blocks_at_the_bound_and_unblocks_on_pop() {
        let sched = Arc::new(Scheduler::new(2));
        sched.submit(0, Priority::Normal).unwrap();
        sched.submit(1, Priority::Normal).unwrap();
        assert_eq!(sched.queued(), 2);

        let (tx, rx) = mpsc::channel();
        let handle = {
            let sched = Arc::clone(&sched);
            std::thread::spawn(move || tx.send(sched.submit(2, Priority::Normal)).unwrap())
        };
        // The third submit must still be blocked after a generous delay...
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(100)),
            Err(mpsc::RecvTimeoutError::Timeout),
            "submit above the bound must block"
        );
        // ...and must complete promptly once a worker frees a slot.
        assert_eq!(sched.next(), Some(0));
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)),
            Ok(Ok(())),
            "submit never woke"
        );
        handle.join().unwrap();
        assert_eq!(sched.next(), Some(1));
        assert_eq!(sched.next(), Some(2));
    }

    #[test]
    fn cancel_releases_blocked_producers_and_keeps_draining() {
        let sched = Arc::new(Scheduler::new(1));
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
        assert_eq!(sched.next(), Some(0));
        assert_eq!(sched.next(), Some(1));
        assert_eq!(sched.queued(), 0);
    }

    #[test]
    fn close_drains_then_exits_workers() {
        let sched = Arc::new(Scheduler::new(16));
        for i in 0..8 {
            sched.submit(i, Priority::Normal).unwrap();
        }
        sched.close();
        assert!(sched.submit(99, Priority::Normal).is_err(), "closed");
        let mut seen = Vec::new();
        let mut handles = Vec::new();
        for _ in 0..2 {
            let sched = Arc::clone(&sched);
            handles.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(item) = sched.next() {
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
    fn close_releases_a_parked_worker_and_a_blocked_producer() {
        // A worker parked on an empty queue and a producer parked on a
        // full one must both wake on close: the worker with `None`, the
        // producer with its job back. Every wait is bounded, so a lost
        // wakeup fails the test instead of hanging it.
        let idle = Arc::new(Scheduler::<i32>::new(1));
        let full = Arc::new(Scheduler::new(1));
        full.submit(0, Priority::Normal).unwrap();
        let (worker_tx, worker_rx) = mpsc::channel();
        let (producer_tx, producer_rx) = mpsc::channel();
        let worker = {
            let idle = Arc::clone(&idle);
            std::thread::spawn(move || worker_tx.send(idle.next()).unwrap())
        };
        let producer = {
            let full = Arc::clone(&full);
            std::thread::spawn(move || producer_tx.send(full.submit(1, Priority::Normal)).unwrap())
        };
        // Give both threads time to park; the verdicts below hold whether
        // or not they have, since a closed queue answers the same way.
        std::thread::sleep(Duration::from_millis(50));
        idle.close();
        full.close();
        let limit = Duration::from_secs(5);
        assert_eq!(worker_rx.recv_timeout(limit), Ok(None), "worker woke");
        assert_eq!(producer_rx.recv_timeout(limit), Ok(Err(1)), "producer woke");
        worker.join().unwrap();
        producer.join().unwrap();
        // The job accepted before close still drains.
        assert_eq!(full.next(), Some(0));
        assert_eq!(full.next(), None);
    }

    #[test]
    fn blocked_workers_wake_on_late_submissions() {
        let sched = Arc::new(Scheduler::new(16));
        let worker = {
            let sched = Arc::clone(&sched);
            std::thread::spawn(move || sched.next())
        };
        std::thread::sleep(Duration::from_millis(30));
        sched.submit(7, Priority::Normal).unwrap();
        assert_eq!(worker.join().unwrap(), Some(7));
    }
}
