//! Scheduler-semantics integration tests for the work-stealing pool:
//! cancellation drains promptly, a panicking job is contained as a
//! recorded result (not a process abort), verdicts are bit-identical
//! across scheduling policies and to the serial baseline, and skewed
//! batches complete under priorities + stealing.

use std::sync::Arc;
use std::time::{Duration, Instant};

use zkvc_core::matmul::Strategy;
use zkvc_core::Backend;
use zkvc_runtime::{
    prove_batch, prove_batch_serial, JobError, JobOptions, JobSpec, KeyCache, ModelPreset,
    PoolConfig, ProvingPool,
};

/// Cancelling a loaded pool must drain the backlog as recorded
/// `Cancelled` results without proving it: every submitted job is
/// accounted for in the report, at most the in-flight jobs ran setup, and
/// the drain completes promptly.
#[test]
fn cancellation_drains_promptly_and_accountably() {
    // 12 *distinct* shapes so every really-executed job costs a cache
    // miss — the miss counter then tells us exactly how many jobs escaped
    // cancellation.
    let pool = ProvingPool::new(1);
    for n in 0..12 {
        pool.submit(
            JobSpec::new(2, 2 + n, 2).with_backend(Backend::Spartan),
            JobOptions::new(),
        );
    }
    pool.cancel();
    let t0 = Instant::now();
    let report = pool.join();
    let drain_time = t0.elapsed();

    assert_eq!(report.results.len(), 12, "every job is accounted for");
    assert!(!report.all_verified());
    assert!(
        report.cancelled_jobs() >= 9,
        "cancellation must catch the backlog, only {} cancelled",
        report.cancelled_jobs()
    );
    // At most the job(s) already in flight when cancel landed ran setup.
    assert!(
        report.cache.misses <= 3,
        "drained jobs must not prove ({} setups ran)",
        report.cache.misses
    );
    assert!(
        drain_time < Duration::from_secs(10),
        "drain took {drain_time:?}"
    );
    // Cancelled results carry the error marker and no proof bytes.
    for r in report.results.iter().filter(|r| r.error.is_some()) {
        assert_eq!(r.error, Some(JobError::Cancelled));
        assert!(r.proof_bytes.is_empty());
        assert!(!r.verified);
    }
}

/// A job that panics (zero-dimension matmul: the builder asserts) becomes
/// a recorded `Panicked` result; the worker thread survives and completes
/// the rest of the batch, and `join` reports no worker-thread losses.
#[test]
fn panicking_job_is_contained_not_fatal() {
    let poison = JobSpec::MatMul {
        dims: (0, 0, 0),
        strategy: Strategy::Vanilla,
        backend: Backend::Spartan,
        public_outputs: true,
    };
    let pool = ProvingPool::new(1);
    pool.submit(poison, JobOptions::new());
    pool.submit(
        JobSpec::new(2, 2, 2).with_backend(Backend::Spartan),
        JobOptions::new(),
    );
    pool.submit(
        JobSpec::new(2, 2, 2).with_backend(Backend::Spartan),
        JobOptions::new(),
    );
    let report = pool.join();

    assert_eq!(report.results.len(), 3);
    assert_eq!(report.worker_panics, 0, "the panic was caught in the job");
    let bad = &report.results[0];
    match &bad.error {
        Some(JobError::Panicked(msg)) => {
            assert!(
                msg.contains("dimensions must be positive"),
                "panic payload preserved, got {msg:?}"
            );
        }
        other => panic!("expected a contained panic, got {other:?}"),
    }
    assert!(!bad.verified);
    // The same worker kept going: both good jobs proved and verified.
    assert!(report.results[1].verified && report.results[2].verified);
    assert_eq!(report.panicked_jobs(), 1);
    let table = report.render_table("contained");
    assert!(table.contains("panic"), "{table}");

    // The deterministic report renders the failure with a stable kind.
    let json = report.render_report_json();
    assert!(json.contains("\"error\": \"panicked\""), "{json}");
}

/// Dropping a pool holding a poison job must not abort the process either
/// (the drop path drains without proving, so the panic never even fires).
#[test]
fn abandoned_pool_with_poison_job_is_safe() {
    let poison = JobSpec::MatMul {
        dims: (0, 0, 0),
        strategy: Strategy::Vanilla,
        backend: Backend::Spartan,
        public_outputs: true,
    };
    let pool = ProvingPool::new(1);
    for _ in 0..4 {
        pool.submit(poison, JobOptions::new());
    }
    drop(pool); // must return, not abort
}

/// The acceptance property behind the whole scheduler rewrite: proofs and
/// verdicts are a function of `(seed, job id)` only. Three workers
/// stealing from each other, one worker with nobody to steal from, and the
/// serial baseline must agree bit-for-bit on a skewed batch (one model
/// block + many small matmuls).
#[test]
fn skewed_batch_verdicts_identical_across_worker_counts_and_serial() {
    let mut specs = vec![JobSpec::model(ModelPreset::MixerBlock).with_backend(Backend::Spartan)];
    for _ in 0..6 {
        specs.push(JobSpec::new(2, 2, 2).with_backend(Backend::Spartan));
    }
    let seed = 0x5EED;

    let ws = prove_batch(&specs, 3, seed);
    let one = prove_batch(&specs, 1, seed);
    let serial = prove_batch_serial(&specs, seed);

    assert!(ws.all_verified(), "three-worker batch verifies");
    assert!(one.all_verified(), "one-worker batch verifies");
    assert!(serial.all_verified(), "serial batch verifies");

    // Pool-vs-pool: byte-identical proofs job by job.
    for (a, b) in ws.results.iter().zip(one.results.iter()) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.proof_bytes, b.proof_bytes, "job {} differs", a.id);
    }
    // Pool-vs-serial: identical verdicts, shapes and proof bytes. The
    // batch is all Spartan, whose prover never reads its rng, so a
    // one-shot setup per job proves the same bytes as the shared key.
    for (p, s) in ws.results.iter().zip(serial.results.iter()) {
        assert_eq!((p.id, p.verified), (s.id, s.verified));
        assert_eq!(p.shape_digest, s.shape_digest, "job {}", p.id);
        assert_eq!(p.proof_bytes, s.proof_bytes, "job {}", p.id);
    }
    // And the machine-readable pool reports agree on everything they
    // print. (Serial Groth16 keys come from per-job one-shot setups, not
    // a shared cache, so serial reports have no key table.)
    assert_eq!(ws.render_report_json(), one.render_report_json());
}

/// Work-stealing spreads a skewed backlog across workers: with the model
/// job submitted first, the small matmuls behind it still complete and
/// the batch verifies end-to-end under priorities + stealing.
#[test]
fn skewed_batch_completes_with_priorities() {
    let mut specs = vec![JobSpec::model(ModelPreset::BertBlock).with_backend(Backend::Spartan)];
    for _ in 0..4 {
        specs.push(JobSpec::new(2, 3, 2).with_backend(Backend::Spartan));
    }
    let report = prove_batch(&specs, 2, 77);
    assert!(report.all_verified());
    assert_eq!(report.results.len(), 5);
    // Small matmuls are high priority, the model job is normal.
    assert_eq!(
        specs[0].priority(),
        zkvc_runtime::Priority::Normal,
        "model blocks are bulk work"
    );
    assert_eq!(specs[1].priority(), zkvc_runtime::Priority::High);
}

/// A shared cache survives the pool that used it: a second pool on the
/// same cache re-proves the same shapes without any new setup (the
/// cross-batch reuse `zkvc serve` relies on).
#[test]
fn cache_stays_warm_across_pools() {
    let cache = Arc::new(KeyCache::with_seed(3));
    let spec = JobSpec::new(3, 2, 3).with_backend(Backend::Spartan);

    let pool = ProvingPool::with_cache(2, 3, Arc::clone(&cache));
    pool.submit(spec, JobOptions::new());
    pool.submit(spec, JobOptions::new());
    let first = pool.join();
    assert!(first.all_verified());
    assert_eq!(first.cache.misses, 1);

    let pool = ProvingPool::with_cache(2, 3, Arc::clone(&cache));
    pool.submit(spec, JobOptions::new());
    pool.submit(spec, JobOptions::new());
    let second = pool.join();
    assert!(second.all_verified());
    assert_eq!(
        second.cache.misses, 1,
        "no new setup: the second batch is O(prove)"
    );
    assert_eq!(second.cache.hits, 3);
}

/// Explicit-config pools honour the queue bound end-to-end: a bound-1
/// pool still completes a deep backlog correctly (submitters just block),
/// proving backpressure composes with real proving work.
#[test]
fn bounded_queue_pool_completes_deep_backlogs() {
    let pool = ProvingPool::configured(
        PoolConfig::new(2).seed(5).queue_bound(1),
        Arc::new(KeyCache::with_seed(5)),
        None,
    );
    for _ in 0..6 {
        pool.submit(
            JobSpec::new(2, 2, 2).with_backend(Backend::Spartan),
            JobOptions::new(),
        );
    }
    let report = pool.join();
    assert_eq!(report.results.len(), 6);
    assert!(report.all_verified());
    assert_eq!(report.cache.misses, 1);
}
