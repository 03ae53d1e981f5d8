//! Criterion bench for Figure 6: zkVC proving time across embedding
//! dimensions, plus the interactive baseline (reduced shapes; the `fig6`
//! binary prints the full four-panel comparison).

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zkvc_core::api::{compile_shape, generate_witness_for};
use zkvc_core::matmul::{MatMulBuilder, Strategy};
use zkvc_core::Backend;
use zkvc_ff::{Fr, PrimeField};

fn bench_prover_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig6_zkvc_prove_by_dim");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));

    for dim in [64usize, 128, 320, 512] {
        let dims = (8, (dim / 16).max(2), (dim / 8).max(4));
        for (name, backend, seed) in [
            ("zkvc_g", Backend::Groth16, 2),
            ("zkvc_s", Backend::Spartan, 3),
        ] {
            group.bench_with_input(BenchmarkId::new(name, dim), &dims, |b, dims| {
                let mut rng = StdRng::seed_from_u64(seed);
                let circuit = MatMulBuilder::new(dims.0, dims.1, dims.2)
                    .strategy(Strategy::CrpcPsq)
                    .build_circuit_random(&mut rng);
                // Setup amortises per shape; measure proving only.
                let system = backend.system();
                let shape = Arc::new(compile_shape(&circuit));
                let (pk, _vk) = system.setup_shape(&shape, &mut rng);
                let witness = generate_witness_for(&circuit, &shape);
                b.iter(|| system.prove_assignment(&pk, &witness, &mut rng));
            });
        }
    }
    group.finish();
}

fn bench_interactive_baseline(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig6_interactive_baseline");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));

    let mut rng = StdRng::seed_from_u64(4);
    let dims = (8usize, 32usize, 64usize);
    let x: Vec<Vec<Fr>> = (0..dims.0)
        .map(|_| {
            (0..dims.1)
                .map(|_| Fr::from_u64(rng.gen_range(0..256)))
                .collect()
        })
        .collect();
    let w: Vec<Vec<Fr>> = (0..dims.1)
        .map(|_| {
            (0..dims.2)
                .map(|_| Fr::from_u64(rng.gen_range(0..256)))
                .collect()
        })
        .collect();
    let claim = zkvc_interactive::MatMulClaim::compute(&x, &w);
    group.bench_function("zkcnn_style_prove", |b| {
        b.iter(|| zkvc_interactive::prove_matmul(&x, &w, &claim));
    });
    let proof = zkvc_interactive::prove_matmul(&x, &w, &claim);
    group.bench_function("zkcnn_style_verify", |b| {
        b.iter(|| assert!(zkvc_interactive::verify_matmul(&x, &w, &claim, &proof)));
    });
    group.finish();
}

criterion_group!(benches, bench_prover_scaling, bench_interactive_baseline);
criterion_main!(benches);
