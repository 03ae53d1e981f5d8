//! Offline stand-in for the `crossbeam` crate.
//!
//! One piece of crossbeam is used in this workspace: [`thread::scope`]
//! (by the parallel kernels in `zkvc-ff`, `zkvc-curve` and
//! `zkvc-spartan`, and by the `zkvc client` session threads in
//! `zkvc-runtime`). Since Rust 1.63 the standard library provides scoped
//! threads natively, so the shim keeps crossbeam's call-site shape —
//! `scope(|s| { s.spawn(|_| ...); }).expect(...)` — while delegating all
//! the actual work to [`std::thread::scope`].

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

/// Scoped threads, crossbeam-style.
pub mod thread {
    use std::any::Any;

    /// A scope handle passed to [`scope`]'s closure; spawned closures
    /// receive a reference to it (crossbeam convention), enabling nested
    /// spawns.
    #[derive(Debug)]
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawns a scoped thread. The closure receives the scope handle,
        /// matching crossbeam's `|_| ...` call sites.
        pub fn spawn<F, T>(&self, f: F) -> std::thread::ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner = self.inner;
            inner.spawn(move || f(&Scope { inner }))
        }
    }

    /// Runs `f` with a scope in which threads borrowing from the enclosing
    /// stack frame can be spawned; all are joined before `scope` returns.
    ///
    /// With `std::thread::scope` underneath, a panicking child thread is
    /// re-raised at the end of the scope rather than reported through the
    /// `Err` variant, so the result is always `Ok` — callers that `.expect`
    /// it (the crossbeam idiom) behave identically.
    pub fn scope<'env, F, R>(f: F) -> Result<R, Box<dyn Any + Send + 'static>>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        Ok(std::thread::scope(|s| f(&Scope { inner: s })))
    }
}

#[cfg(test)]
mod tests {
    use super::thread;

    #[test]
    fn scoped_threads_join_and_borrow() {
        let data = [1u64, 2, 3, 4];
        let mut out = vec![0u64; 4];
        thread::scope(|s| {
            for (o, d) in out.chunks_mut(2).zip(data.chunks(2)) {
                s.spawn(move |_| {
                    for (x, y) in o.iter_mut().zip(d.iter()) {
                        *x = y * 10;
                    }
                });
            }
        })
        .expect("scope failed");
        assert_eq!(out, vec![10, 20, 30, 40]);
    }

    #[test]
    fn nested_spawn_through_handle() {
        let flag = std::sync::atomic::AtomicBool::new(false);
        thread::scope(|s| {
            s.spawn(|inner| {
                inner.spawn(|_| flag.store(true, std::sync::atomic::Ordering::SeqCst));
            });
        })
        .unwrap();
        assert!(flag.load(std::sync::atomic::Ordering::SeqCst));
    }
}
