//! Criterion bench for Figure 3: proving time of the `[49,64] x [64,128]`
//! matmul shape (reduced here to keep `cargo bench` fast; the `fig3` binary
//! runs the larger shapes).

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use zkvc_core::api::{compile_shape, generate_witness_for};
use zkvc_core::matmul::{MatMulBuilder, Strategy};
use zkvc_core::Backend;

fn bench_fig3(c: &mut Criterion) {
    let dims = (8usize, 8usize, 16usize);
    let mut group = c.benchmark_group("fig3_matmul_prove");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));

    for (name, strategy, backend) in [
        ("groth16_vanilla", Strategy::Vanilla, Backend::Groth16),
        ("spartan_vanilla", Strategy::Vanilla, Backend::Spartan),
        ("zkvc_g", Strategy::CrpcPsq, Backend::Groth16),
        ("zkvc_s", Strategy::CrpcPsq, Backend::Spartan),
    ] {
        group.bench_function(name, |b| {
            let mut rng = StdRng::seed_from_u64(1);
            let circuit = MatMulBuilder::new(dims.0, dims.1, dims.2)
                .strategy(strategy)
                .build_circuit_random(&mut rng);
            // Setup (CRS generation / preprocessing) is amortised per
            // circuit shape in practice, so it stays outside the hot loop:
            // the bench measures proving, not setup.
            let system = backend.system();
            let shape = Arc::new(compile_shape(&circuit));
            let (pk, _vk) = system.setup_shape(&shape, &mut rng);
            let witness = generate_witness_for(&circuit, &shape);
            b.iter(|| system.prove_assignment(&pk, &witness, &mut rng));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig3);
criterion_main!(benches);
