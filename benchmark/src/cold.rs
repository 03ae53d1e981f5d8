//! `cold_shapes`: an in-process `ProvingPool` over a key cache that holds
//! only a few shapes, fed jobs that are each a shape it has never seen.
//! Every job compiles, sets up, inserts and evicts — the write side of the
//! cache that the warm workloads never touch.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zkvc::core::api::compile_shape;
use zkvc::core::Backend;
use zkvc::r1cs::encode_shape;
use zkvc::runtime::{
    build_statement, CircuitKeys, JobOptions, JobResult, JobSpec, KeyCache, PoolConfig,
    ProofEnvelope, ProvingPool, ResultSink,
};

use crate::check;
use crate::common::{
    client_verify, ms, nproc, peak_rss_mb, report_common, set_span_p50, worker_imbalance,
    write_trace, Budget, RunConfig, Samples,
};
use crate::metrics::{Metrics, Outcome};
use crate::stats::{median, quantile};
use crate::trace::Tracer;

/// Shapes the cache can hold at once, in units of the warm-up shape.
const CACHE_SHAPES: usize = 12;
/// The set-up job's shape, kept out of the timed set.
const WARM_DIMS: Dims = (11, 11, 11);
/// Shapes replayed layer by layer after a traced run.
const REPLAYED_SHAPES: usize = 16;

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// Every `AxNxB` with dims in `lo..=hi` except the warm-up shape, each
/// once, in an order drawn from the seed; the timed jobs take them from
/// the front. The order is stratified: it is a sequence of blocks, each
/// holding every `(A, B)` pair once with the `N` values spread evenly, so
/// any run covers the same mix of job sizes whatever the seed, and only
/// the order within a block and the pairing with `N` change.
fn shape_order(cfg: &RunConfig) -> Vec<Dims> {
    let (lo, hi) = if cfg.smoke { (2, 5) } else { (6, 16) };
    let side = hi - lo + 1;
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x00C0_1D54_A9E5);
    let mut offsets: Vec<usize> = (0..side).collect();
    shuffle(&mut offsets, &mut rng);
    let mut order = Vec::with_capacity(side * side * side);
    for offset in offsets {
        let mut pairs: Vec<(usize, usize)> = (0..side)
            .flat_map(|a| (0..side).map(move |b| (a, b)))
            .collect();
        shuffle(&mut pairs, &mut rng);
        order.extend(
            pairs
                .into_iter()
                .map(|(a, b)| (lo + a, lo + (a + b + offset) % side, lo + b))
                .filter(|dims| *dims != WARM_DIMS),
        );
    }
    order
}

fn spec_of(dims: Dims) -> JobSpec {
    JobSpec::new(dims.0, dims.1, dims.2)
}

type Dims = (usize, usize, usize);
type Delivery = (JobResult, Option<Arc<CircuitKeys>>);

/// A pool whose results come back over a channel together with the keys
/// the job proved under, fetched the moment the job lands: the cache is
/// small, so by the time the caller verifies they may be evicted.
struct Pool {
    pool: ProvingPool,
    results: mpsc::Receiver<Delivery>,
}

fn build_pool(cfg: &RunConfig, cache_bytes: usize) -> Pool {
    let cache = Arc::new(KeyCache::with_seed(cfg.seed).bound_shape_bytes(cache_bytes));
    let (tx, results) = mpsc::channel();
    let sink_cache = Arc::clone(&cache);
    let sink: ResultSink = Arc::new(move |r: &JobResult| {
        let keys = sink_cache.get(&r.shape_digest, r.spec.backend(), r.seed);
        let _ = tx.send((r.clone(), keys));
    });
    let pool = ProvingPool::configured(
        PoolConfig::new(nproc())
            .seed(cfg.seed)
            .retain_results(false),
        cache,
        Some(sink),
    );
    Pool { pool, results }
}

/// Verifies one delivered job from its bytes and checks its outputs
/// against plain `Y = XW`. Returns `(verify_ms, ok)`.
fn accept(cfg: &RunConfig, delivery: &Delivery, dims: Dims, tracer: &mut Tracer) -> (f64, bool) {
    let (result, keys) = delivery;
    let key = keys.as_ref().map(|k| &k.verifier);
    let client = client_verify(tracer, result.id as u64, key, || {
        ProofEnvelope::decode(&result.proof_bytes).ok()
    });
    // Batch-mode pool jobs derive their statement from (pool seed, job id).
    let ok = client.verified
        && result.verified
        && result.error.is_none()
        && client
            .envelope
            .is_some_and(|e| e.public_inputs == check::matmul_outputs(cfg.seed, result.id, dims));
    (client.ms, ok)
}

pub fn run(cfg: &RunConfig, workload: &str) -> Outcome {
    let epoch = Instant::now();
    let mut tracer = Tracer::new(cfg.trace, epoch);
    let mut metrics = Metrics::new(cfg.trace);
    let order = shape_order(cfg);
    let cache_bytes = CACHE_SHAPES
        * compile_shape(build_statement(cfg.seed, 0, &spec_of(WARM_DIMS)).as_ref()).approx_bytes();
    let mut failed_setup = 0u64;

    // Set-up: pool and cache construction plus one throw-away job.
    let mut setup_s = Vec::new();
    let mut pool: Option<Pool> = None;
    while setup_s.len() < 3 {
        drop(pool.take().map(|p| p.pool.join()));
        let t = Instant::now();
        let fresh = build_pool(cfg, cache_bytes);
        fresh.pool.submit(spec_of(WARM_DIMS), JobOptions::new());
        let warm = fresh.results.recv().expect("pool answers the warm-up job");
        let (_, ok) = accept(cfg, &warm, WARM_DIMS, &mut Tracer::new(false, epoch));
        failed_setup += !ok as u64;
        setup_s.push(t.elapsed().as_secs_f64());
        pool = Some(fresh);
        if !cfg.repeats_setup(t.elapsed()) {
            break;
        }
    }
    let Pool { pool, results } = pool.expect("set-up ran at least once");

    // Closed loop: two jobs per worker outstanding, one running and one
    // queued, each a shape the pool has not seen.
    let window = 2 * nproc();
    let mut shapes = order.iter().copied();
    let mut in_flight: HashMap<usize, (Instant, f64, Dims)> = HashMap::new();
    let mut phases: Vec<(bool, Samples)> = Vec::new();
    let mut busy_ms = 0.0;
    let mut per_worker = vec![0u64; nproc()];
    let mut last: Option<Delivery> = None;
    for (traced, budget) in cfg.phases() {
        let mut off = Tracer::new(false, epoch);
        let mut samples = Samples::default();
        let mut budget = Budget::new(budget, 2);
        loop {
            while in_flight.len() < window && budget.take() {
                let Some(dims) = shapes.next() else { break };
                let (sent, sent_us) = (Instant::now(), tracer.now_us());
                let id = pool.submit(spec_of(dims), JobOptions::new());
                in_flight.insert(id, (sent, sent_us, dims));
            }
            if in_flight.is_empty() {
                break;
            }
            let delivery = results.recv().expect("pool answers every job");
            let received = Instant::now();
            let Some((sent, sent_us, dims)) = in_flight.remove(&delivery.0.id) else {
                samples.record(0.0, 0.0, 0, false);
                continue;
            };
            let t = if traced { &mut tracer } else { &mut off };
            let r = &delivery.0;
            let root = t.push(r.id as u64, "job", None, sent_us, t.now_us());
            let us = |d: std::time::Duration| d.as_secs_f64() * 1e6;
            t.push_sequence(
                r.id as u64,
                root,
                sent_us,
                [
                    ("runtime.pool.queue", us(r.queue_wait)),
                    ("runtime.pool.build", us(r.build_time)),
                    ("runtime.pool.prove", us(r.prove_time)),
                    ("runtime.pool.verify", us(r.verify_time)),
                ],
            );
            let (verify_ms, ok) = accept(cfg, &delivery, dims, t);
            samples.record(ms(received - sent), verify_ms, r.proof_bytes.len(), ok);
            if traced {
                busy_ms += ms(r.build_time + r.prove_time + r.verify_time);
                per_worker[r.worker] += 1;
            }
            last = Some(delivery);
        }
        samples.wall = budget.elapsed();
        phases.push((traced, samples));
    }
    let tamper_rejected = last.as_ref().is_some_and(|(r, keys)| {
        keys.as_ref()
            .is_some_and(|k| check::rejects_tampering(&r.proof_bytes, &k.verifier))
    });
    let rss = peak_rss_mb("self");
    let cache = pool.join().cache;

    let untraced = &phases[0].1;
    let traced = phases.get(1).map(|(_, s)| s);
    report_common(&mut metrics, untraced, traced, &setup_s, rss);
    if let Some(traced) = traced {
        let shape_bytes = replay_layers(cfg, &order, &mut tracer);
        metrics.set("runtime.codec.shape_bytes", shape_bytes);
        for (span, metric) in [
            ("runtime.serial.decode", "runtime.serial.decode_us_p50"),
            ("groth16.verify", "groth16.verify_ms_p50"),
            ("runtime.pool.queue", "runtime.pool.queue_ms_p50"),
            ("runtime.pool.build", "runtime.pool.build_ms_p50"),
            ("runtime.pool.prove", "runtime.pool.prove_ms_p50"),
            ("runtime.pool.verify", "runtime.pool.verify_ms_p50"),
            ("r1cs.shape_compile", "r1cs.shape_compile_ms"),
            (
                "runtime.codec.encode_shape",
                "runtime.codec.encode_shape_ms",
            ),
            ("runtime.cache.setup", "runtime.cache.setup_ms_p50"),
        ] {
            set_span_p50(&mut metrics, &tracer, span, metric);
        }
        metrics.set(
            "runtime.pool.queue_ms_p90",
            quantile(&tracer.durations_ms("runtime.pool.queue"), 0.9),
        );
        metrics.set(
            "runtime.pool.busy_share",
            busy_ms / (nproc() as f64 * ms(traced.wall)),
        );
        metrics.set(
            "runtime.pool.worker_imbalance",
            worker_imbalance(&per_worker),
        );
        metrics.set("runtime.cache.hit_share", cache.hit_rate());
        metrics.set("runtime.cache.evictions", cache.evictions as f64);
        write_trace(&tracer, workload);
    }

    let attempted = phases.iter().map(|(_, s)| s.attempted).sum::<u64>() + setup_s.len() as u64;
    let failed = phases.iter().map(|(_, s)| s.failed).sum::<u64>() + failed_setup;
    Outcome {
        attempted,
        failed,
        correct: failed == 0 && tamper_rejected,
        metrics,
    }
}

/// After the timed loop: what one cold shape costs in each layer the pool
/// goes through on a miss, for the first few shapes of the run. Returns
/// the median encoded shape size.
fn replay_layers(cfg: &RunConfig, order: &[Dims], tracer: &mut Tracer) -> f64 {
    let scratch = KeyCache::with_seed(cfg.seed);
    let mut shape_bytes = Vec::new();
    for (i, dims) in order.iter().take(REPLAYED_SHAPES).enumerate() {
        let job = i as u64;
        let statement = build_statement(cfg.seed, i, &spec_of(*dims));
        let (shape, _) = tracer.span(job, "r1cs.shape_compile", None, || {
            compile_shape(statement.as_ref())
        });
        let (bytes, _) = tracer.span(job, "runtime.codec.encode_shape", None, || {
            encode_shape(&shape)
        });
        shape_bytes.push(bytes.len() as f64);
        tracer.span(job, "runtime.cache.setup", None, || {
            black_box(scratch.get_or_setup_circuit(Backend::Groth16, statement.as_ref()))
        });
    }
    median(&shape_bytes)
}
