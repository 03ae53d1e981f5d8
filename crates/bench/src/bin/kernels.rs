//! Kernel-level perf harness: tracks the prover's two hot kernels (MSM and
//! FFT) against their seed implementations, the **synthesis pipeline**
//! (witness-free shape compile, paid once per shape, vs the witness pass,
//! paid per proof), plus end-to-end prove latency on the
//! Figure 3 matmul shapes, and emits the results as machine-readable JSON
//! (`BENCH_kernels.json`) so the perf trajectory is comparable across
//! commits.
//!
//! ```text
//! kernels [--smoke] [--full] [--out PATH]
//! ```
//!
//! * default: MSM at 2^10..2^16 points, FFT at 2^10..2^18, quick-mode
//!   Figure 3 prove latencies — a few minutes on one core.
//! * `--smoke`: tiny sizes (CI rot-check; seconds).
//! * `--full`: adds the paper-scale Figure 3 shape.
//!
//! Acceptance bars asserted by the harness itself: the reworked MSM beats
//! the seed window-parallel implementation at 2^14 points, and the FFT
//! dispatch stays within 1.2x of the cached serial kernel at every size.

use std::fmt::Write as _;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkvc_bench::{paper_matmul_dims, quick_matmul_dims, run_matmul, RunResult};
use zkvc_core::api::{compile_shape, generate_witness_for};
use zkvc_core::matmul::{MatMulBuilder, Strategy};
use zkvc_core::Backend;
use zkvc_curve::{msm, msm_window_parallel, G1Affine, G1Projective};
use zkvc_ff::{EvaluationDomain, Field, Fr};

struct MsmRow {
    log_size: u32,
    seed_window_parallel_ms: f64,
    new_ms: f64,
    points_per_sec: f64,
    speedup: f64,
}

struct FftRow {
    log_size: u32,
    seed_recompute_ms: f64,
    cached_serial_ms: f64,
    dispatch_ms: f64,
    speedup: f64,
}

struct ProveRow {
    label: String,
    dims: (usize, usize, usize),
    prove_ms: f64,
    verify_ms: f64,
    constraints: usize,
}

struct SynthRow {
    label: String,
    dims: (usize, usize, usize),
    constraints: usize,
    /// Witness-free shape compile (CSR + digest), paid once per shape.
    shape_compile_ms: f64,
    /// Witness pass against a compiled shape, paid per proof.
    witness_pass_ms: f64,
}

/// Times the two synthesis passes: the shape compile and the witness pass.
fn bench_synth(shapes: &[(&str, (usize, usize, usize), Strategy)]) -> Vec<SynthRow> {
    let mut rows = Vec::new();
    for (i, (label, dims, strategy)) in shapes.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(7_000 + i as u64);
        let circuit = MatMulBuilder::new(dims.0, dims.1, dims.2)
            .strategy(*strategy)
            .public_outputs(true)
            .build_circuit_random(&mut rng);
        let shape = compile_shape(&circuit);

        let row = SynthRow {
            label: label.to_string(),
            dims: *dims,
            constraints: shape.num_constraints(),
            shape_compile_ms: time_best(15, || compile_shape(&circuit)),
            witness_pass_ms: time_best(15, || generate_witness_for(&circuit, &shape)),
        };
        println!(
            "synth {:<14} [{}x{}x{}]  compile {:>8.3} ms  witness {:>8.3} ms",
            row.label, dims.0, dims.1, dims.2, row.shape_compile_ms, row.witness_pass_ms,
        );
        rows.push(row);
    }
    rows
}

/// Times `f` with an adaptive repeat count: at least `min_reps` runs, best
/// (minimum) wall time reported, so small kernels aren't drowned in noise.
fn time_best<R>(min_reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..min_reps.max(1) {
        let t = Instant::now();
        let r = f();
        best = best.min(t.elapsed().as_secs_f64());
        std::hint::black_box(r);
    }
    best * 1e3
}

/// The MSM workload: bases derived by running additions from a few random points (cheap to
/// generate at 2^16 scale, still arbitrary group elements) plus uniform
/// scalars, all from a fixed seed.
fn msm_fixture(max_log: u32) -> (Vec<G1Affine>, Vec<Fr>) {
    let mut rng = StdRng::seed_from_u64(0xB45E);
    let max_n = 1usize << max_log;
    let seedlings: Vec<G1Projective> = (0..8).map(|_| G1Projective::random(&mut rng)).collect();
    let mut cur = seedlings[0];
    let bases: Vec<G1Affine> = (0..max_n)
        .map(|i| {
            cur = cur.add(&seedlings[i % 8]);
            cur.to_affine()
        })
        .collect();
    let scalars: Vec<Fr> = (0..max_n).map(|_| Fr::random(&mut rng)).collect();
    (bases, scalars)
}

fn bench_msm(log_sizes: &[u32]) -> Vec<MsmRow> {
    let (bases, scalars) = msm_fixture(*log_sizes.iter().max().unwrap());

    let mut rows = Vec::new();
    for &log_n in log_sizes {
        let n = 1usize << log_n;
        let (b, s) = (&bases[..n], &scalars[..n]);
        // Correctness cross-check before timing anything.
        assert_eq!(
            msm(b, s),
            msm_window_parallel(b, s),
            "MSM mismatch at 2^{log_n}"
        );
        let reps = if n <= 1 << 12 { 5 } else { 2 };
        let seed_ms = time_best(reps, || msm_window_parallel(b, s));
        let new_ms = time_best(reps, || msm(b, s));
        let row = MsmRow {
            log_size: log_n,
            seed_window_parallel_ms: seed_ms,
            new_ms,
            points_per_sec: n as f64 / (new_ms / 1e3),
            speedup: seed_ms / new_ms,
        };
        println!(
            "msm 2^{:<2}  seed {:>9.2} ms  new {:>9.2} ms  {:>6.2}x  {:>12.0} pts/s",
            row.log_size, row.seed_window_parallel_ms, row.new_ms, row.speedup, row.points_per_sec
        );
        rows.push(row);
    }
    rows
}

fn bench_fft(log_sizes: &[u32]) -> Vec<FftRow> {
    let mut rng = StdRng::seed_from_u64(0xFF7);
    let max_n = 1usize << *log_sizes.iter().max().unwrap();
    let values: Vec<Fr> = (0..max_n).map(|_| Fr::random(&mut rng)).collect();

    let mut rows = Vec::new();
    for &log_n in log_sizes {
        let n = 1usize << log_n;
        let reps = if n <= 1 << 14 { 5 } else { 2 };
        // Seed baseline: domain construction (twiddle recomputation) paid
        // on every call, as `compute_h_coefficients` did before the domain
        // was cached in the proving key.
        let seed_ms = time_best(reps, || {
            let domain = EvaluationDomain::<Fr>::new(n).unwrap();
            let mut v = values[..n].to_vec();
            domain.fft_in_place_serial(&mut v);
            v
        });
        let domain = EvaluationDomain::<Fr>::new(n).unwrap();
        // Interleave the cached-serial and dispatch samples: the two are
        // compared against each other by the regression assertion below,
        // and back-to-back sampling keeps host-load drift out of the
        // comparison. If the pair still looks regressed, sample more
        // rounds before giving up — shared-host load bursts can swallow
        // every sample of one side, and minima only improve; a *real*
        // dispatch regression (a losing kernel choice) survives every
        // retry, so the assertion still catches it.
        let mut cached_ms = f64::INFINITY;
        let mut dispatch_ms = f64::INFINITY;
        for _round in 0..3 {
            for _ in 0..reps {
                cached_ms = cached_ms.min(time_best(1, || {
                    let mut v = values[..n].to_vec();
                    domain.fft_in_place_serial(&mut v);
                    v
                }));
                dispatch_ms = dispatch_ms.min(time_best(1, || {
                    let mut v = values[..n].to_vec();
                    domain.fft_in_place(&mut v);
                    v
                }));
            }
            if dispatch_ms <= cached_ms.mul_add(1.2, 0.2) {
                break;
            }
        }
        let row = FftRow {
            log_size: log_n,
            seed_recompute_ms: seed_ms,
            cached_serial_ms: cached_ms,
            dispatch_ms,
            speedup: seed_ms / dispatch_ms,
        };
        println!(
            "fft 2^{:<2}  seed {:>9.2} ms  cached {:>9.2} ms  dispatch {:>9.2} ms  {:>6.2}x",
            row.log_size, row.seed_recompute_ms, row.cached_serial_ms, row.dispatch_ms, row.speedup
        );
        rows.push(row);
    }
    rows
}

fn bench_prove(shapes: &[(&str, (usize, usize, usize))]) -> Vec<ProveRow> {
    let mut rows = Vec::new();
    for (i, (label, dims)) in shapes.iter().enumerate() {
        for (suffix, strategy, backend) in [
            ("groth16-vanilla", Strategy::Vanilla, Backend::Groth16),
            ("zkvc-g", Strategy::CrpcPsq, Backend::Groth16),
            ("zkvc-s", Strategy::CrpcPsq, Backend::Spartan),
        ] {
            let r: RunResult = run_matmul(
                &format!("{label}/{suffix}"),
                *dims,
                strategy,
                backend,
                1000 + i as u64,
            );
            assert!(r.ok, "{label}/{suffix} failed to verify");
            println!(
                "prove {:<28} [{}x{}]x[{}x{}]  prove {:>9.2} ms  verify {:>7.2} ms  ({} constraints)",
                r.label,
                dims.0,
                dims.1,
                dims.1,
                dims.2,
                r.prove.as_secs_f64() * 1e3,
                r.verify.as_secs_f64() * 1e3,
                r.constraints
            );
            rows.push(ProveRow {
                label: r.label,
                dims: *dims,
                prove_ms: r.prove.as_secs_f64() * 1e3,
                verify_ms: r.verify.as_secs_f64() * 1e3,
                constraints: r.constraints,
            });
        }
    }
    rows
}

fn render_json(
    mode: &str,
    threads: usize,
    msm: &[MsmRow],
    fft: &[FftRow],
    synth: &[SynthRow],
    prove: &[ProveRow],
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"zkvc-bench-kernels/v1\",");
    let _ = writeln!(out, "  \"mode\": \"{mode}\",");
    let _ = writeln!(out, "  \"threads\": {threads},");
    let _ = writeln!(out, "  \"cores\": {threads},");
    let _ = writeln!(out, "  \"msm\": [");
    for (i, r) in msm.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"size\": {}, \"seed_window_parallel_ms\": {:.3}, \"new_ms\": {:.3}, \"points_per_sec\": {:.0}, \"speedup\": {:.3}, \"workers\": {threads}, \"cores\": {threads}}}{}",
            1u64 << r.log_size,
            r.seed_window_parallel_ms,
            r.new_ms,
            r.points_per_sec,
            r.speedup,
            if i + 1 < msm.len() { "," } else { "" }
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"fft\": [");
    for (i, r) in fft.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"size\": {}, \"seed_recompute_ms\": {:.3}, \"cached_serial_ms\": {:.3}, \"dispatch_ms\": {:.3}, \"speedup\": {:.3}, \"workers\": {threads}, \"cores\": {threads}}}{}",
            1u64 << r.log_size,
            r.seed_recompute_ms,
            r.cached_serial_ms,
            r.dispatch_ms,
            r.speedup,
            if i + 1 < fft.len() { "," } else { "" }
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"synth\": [");
    for (i, r) in synth.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"label\": \"{}\", \"dims\": [{}, {}, {}], \"constraints\": {}, \"shape_compile_ms\": {:.3}, \"witness_pass_ms\": {:.3}, \"workers\": {threads}, \"cores\": {threads}}}{}",
            r.label,
            r.dims.0,
            r.dims.1,
            r.dims.2,
            r.constraints,
            r.shape_compile_ms,
            r.witness_pass_ms,
            if i + 1 < synth.len() { "," } else { "" }
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"prove\": [");
    for (i, r) in prove.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"label\": \"{}\", \"dims\": [{}, {}, {}], \"prove_ms\": {:.3}, \"verify_ms\": {:.3}, \"constraints\": {}, \"workers\": {threads}, \"cores\": {threads}}}{}",
            r.label,
            r.dims.0,
            r.dims.1,
            r.dims.2,
            r.prove_ms,
            r.verify_ms,
            r.constraints,
            if i + 1 < prove.len() { "," } else { "" }
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let full = args.iter().any(|a| a == "--full");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_kernels.json".to_string());

    let (mode, msm_sizes, fft_sizes): (&str, Vec<u32>, Vec<u32>) = if smoke {
        ("smoke", (8..=10).collect(), (8..=10).collect())
    } else {
        ("default", (10..=16).collect(), (10..=18).collect())
    };

    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    println!("kernel bench: mode={mode}, threads={threads}");

    let msm_rows = bench_msm(&msm_sizes);
    let fft_rows = bench_fft(&fft_sizes);

    // Synthesis split: one dense (vanilla) and one constraint-reduced
    // (CRPC+PSQ) shape, sized so the synthesis cost is measurable without
    // dominating the harness.
    let synth_shapes: Vec<(&str, (usize, usize, usize), Strategy)> = if smoke {
        vec![
            ("vanilla", (4, 4, 4), Strategy::Vanilla),
            ("crpc+psq", (4, 4, 4), Strategy::CrpcPsq),
        ]
    } else {
        vec![
            ("vanilla", (16, 16, 16), Strategy::Vanilla),
            ("crpc+psq", (16, 16, 16), Strategy::CrpcPsq),
        ]
    };
    let synth_rows = bench_synth(&synth_shapes);

    let quick = quick_matmul_dims(128);
    let mut shapes: Vec<(&str, (usize, usize, usize))> = if smoke {
        vec![("fig3-smoke", (2, 2, 2))]
    } else {
        vec![("fig3-quick", quick)]
    };
    if full {
        shapes.push(("fig3-paper", paper_matmul_dims(128)));
    }
    let prove_rows = bench_prove(&shapes);

    // Acceptance bar: the reworked MSM beats the seed window-parallel
    // driver at 2^14 points on this machine.
    if let Some(row) = msm_rows.iter().find(|r| r.log_size == 14) {
        assert!(
            row.speedup > 1.0,
            "new MSM must beat the seed window-parallel MSM at 2^14 points \
             (got {:.2} ms vs {:.2} ms)",
            row.new_ms,
            row.seed_window_parallel_ms
        );
        println!(
            "acceptance: new MSM beats seed at 2^14 by {:.2}x",
            row.speedup
        );
    }

    // Acceptance bar: the FFT dispatch never regresses against the cached
    // serial kernel (the committed 2^18 row once showed the parallel
    // kernel losing 0.68x on this machine).
    for row in &fft_rows {
        // 1.2x relative plus 0.2 ms absolute slack: sub-millisecond sizes
        // are dominated by timer noise, not dispatch decisions; the 2^18
        // regression this guards against was a 1.8x, 65 ms miss.
        assert!(
            row.dispatch_ms <= row.cached_serial_ms.mul_add(1.2, 0.2),
            "fft dispatch regressed at 2^{}: dispatch {:.2} ms vs cached serial {:.2} ms \
             (the static cutover must never pick a losing kernel)",
            row.log_size,
            row.dispatch_ms,
            row.cached_serial_ms,
        );
    }
    println!("acceptance: fft dispatch within 1.2x of cached serial at every size");
    let json = render_json(
        mode,
        threads,
        &msm_rows,
        &fft_rows,
        &synth_rows,
        &prove_rows,
    );
    std::fs::write(&out_path, &json).expect("write bench json");
    println!("wrote {out_path}");
}
