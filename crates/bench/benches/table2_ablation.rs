//! Criterion bench for Table II: the CRPC x PSQ ablation on both backends
//! (reduced shape; the `table2` binary prints the full paper comparison).

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use zkvc_core::api::{compile_shape, generate_witness_for};
use zkvc_core::matmul::{MatMulBuilder, Strategy};
use zkvc_core::Backend;

fn bench_ablation(c: &mut Criterion) {
    let dims = (8usize, 16usize, 16usize);
    let mut group = c.benchmark_group("table2_ablation_prove");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));

    for strategy in Strategy::ALL {
        for backend in Backend::ALL {
            let id = BenchmarkId::new(backend.name(), strategy.name());
            group.bench_function(id, |b| {
                let mut rng = StdRng::seed_from_u64(5);
                let circuit = MatMulBuilder::new(dims.0, dims.1, dims.2)
                    .strategy(strategy)
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

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
