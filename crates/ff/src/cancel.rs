//! Cooperative cancellation checkpoints for long-running kernels.
//!
//! The proving pool owns deadlines and cancellation flags, but the time is
//! actually *spent* several crates below it, inside multi-scalar
//! multiplications and FFTs that know nothing about jobs or sessions. This
//! module bridges the two layers without threading a cancel parameter
//! through every kernel signature: the pool [`install`]s a check predicate
//! into a thread-local slot, and kernels call [`checkpoint`] at natural
//! stage boundaries (once per MSM window, once per FFT stage).
//!
//! When the predicate reports cancellation, [`checkpoint`] panics with the
//! [`Cancelled`] marker payload. The pool's existing `catch_unwind` job
//! containment downcasts the payload and records the job as cancelled (or
//! past its deadline) instead of panicked — no kernel returns a `Result`,
//! no proof-system API changes.
//!
//! With no predicate installed (the default, and always the case outside
//! the pool) a checkpoint is a single thread-local read that observes
//! `None` — cheap enough to leave in release builds.
//!
//! Kernels that fan work out over scoped threads must do one of two
//! things: either only checkpoint on the orchestrating thread (thread
//! locals do not propagate into spawned threads, so worker-side
//! checkpoints are inert no-ops), or capture [`current`] before the scope
//! and re-[`install`] it inside each worker — in which case the worker's
//! handle must be joined explicitly and its panic payload re-raised with
//! [`std::panic::resume_unwind`], because an implicitly joined scoped
//! thread replaces the payload with a generic "a scoped thread panicked"
//! message and the marker would be lost.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A shared cancellation predicate: returns `true` once the surrounding
/// job should stop (deadline passed, session cancelled, pool shut down).
///
/// The predicate is called from tight kernel loops, so it should be cheap
/// — typically one or two relaxed atomic loads and an `Instant` compare.
pub type CancelCheck = Arc<dyn Fn() -> bool + Send + Sync>;

/// Marker panic payload raised by [`checkpoint`] when the installed
/// [`CancelCheck`] reports cancellation.
///
/// Catch sites (`catch_unwind` in the proving pool) downcast the payload
/// to this type to distinguish a cooperative stop from a genuine kernel
/// panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

thread_local! {
    static CHECK: RefCell<Option<CancelCheck>> = const { RefCell::new(None) };
}

/// Process-wide count of checkpoints that unwound with [`Cancelled`].
/// A statistic only (it publishes no other data), hence `Relaxed`.
static UNWOUND: AtomicU64 = AtomicU64::new(0);

/// How many [`checkpoint`] calls in this process have unwound with
/// [`Cancelled`] so far. Monotonically increasing; robustness tests read it
/// before and after a request to tell "a kernel was interrupted mid-flight"
/// from "the job finished and its result was discarded" without timing
/// anything.
pub fn unwound_checkpoints() -> u64 {
    UNWOUND.load(Ordering::Relaxed)
}

/// Guard returned by [`install`]; restores the previously installed
/// predicate (usually `None`) when dropped, so nested installs and panics
/// both unwind cleanly.
#[must_use = "dropping the guard immediately uninstalls the cancel check"]
pub struct CancelGuard {
    prev: Option<CancelCheck>,
}

impl core::fmt::Debug for CancelGuard {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // The predicate itself is an opaque closure; show only whether a
        // previous one is being shadowed.
        f.debug_struct("CancelGuard")
            .field("shadows_previous", &self.prev.is_some())
            .finish()
    }
}

impl Drop for CancelGuard {
    fn drop(&mut self) {
        CHECK.with(|c| *c.borrow_mut() = self.prev.take());
    }
}

/// Installs `check` as this thread's cancellation predicate for the
/// lifetime of the returned guard.
pub fn install(check: CancelCheck) -> CancelGuard {
    let prev = CHECK.with(|c| c.borrow_mut().replace(check));
    CancelGuard { prev }
}

/// The predicate currently installed on this thread, if any. Kernels that
/// spawn scoped workers capture this before the scope and re-[`install`]
/// it inside each worker closure.
pub fn current() -> Option<CancelCheck> {
    CHECK.with(|c| c.borrow().clone())
}

/// Cooperative cancellation point. Panics with the [`Cancelled`] marker
/// when the installed predicate reports cancellation; a no-op (one
/// thread-local read) when nothing is installed.
#[inline]
pub fn checkpoint() {
    let cancelled = CHECK.with(|c| c.borrow().as_ref().is_some_and(|f| f()));
    if cancelled {
        UNWOUND.fetch_add(1, Ordering::Relaxed);
        std::panic::panic_any(Cancelled);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn checkpoint_is_a_noop_without_an_installed_check() {
        checkpoint(); // must not panic
    }

    #[test]
    fn checkpoint_raises_the_marker_once_the_check_trips() {
        let flag = Arc::new(AtomicBool::new(false));
        let check = Arc::clone(&flag);
        let guard = install(Arc::new(move || check.load(Ordering::Relaxed)));
        checkpoint(); // not tripped yet
        flag.store(true, Ordering::Relaxed);
        let before = unwound_checkpoints();
        let payload = std::panic::catch_unwind(checkpoint).unwrap_err();
        assert!(payload.downcast_ref::<Cancelled>().is_some());
        // Other tests in this binary trip checkpoints too: at least ours.
        assert!(unwound_checkpoints() > before);
        drop(guard);
        checkpoint(); // uninstalled again: no panic even though flag is set
    }

    #[test]
    fn install_nests_and_restores_the_previous_check() {
        let outer = install(Arc::new(|| false));
        assert!(current().is_some());
        {
            let _inner = install(Arc::new(|| false));
            assert!(current().is_some());
        }
        assert!(current().is_some(), "outer check restored after inner drop");
        drop(outer);
        assert!(current().is_none());
    }

    #[test]
    fn current_propagates_into_spawned_threads_by_hand() {
        let _guard = install(Arc::new(|| true));
        let captured = current().expect("check installed");
        let handle = std::thread::spawn(move || {
            assert!(current().is_none(), "thread locals do not propagate");
            let _g = install(captured);
            std::panic::catch_unwind(checkpoint).is_err()
        });
        assert!(handle.join().unwrap());
    }
}
