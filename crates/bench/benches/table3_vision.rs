//! Criterion bench for Table III: proving a reduced-scale ViT block slice
//! under each token-mixer schedule (the `table3` binary prints the full
//! dataset-by-dataset table).

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use zkvc_bench::model_statement;
use zkvc_core::api::{compile_shape, generate_witness_for};
use zkvc_core::matmul::Strategy;
use zkvc_core::Backend;
use zkvc_nn::mixer::MixerSchedule;
use zkvc_nn::models::VitConfig;

fn bench_vision(c: &mut Criterion) {
    let model = VitConfig::custom(2, 2, 16, 4, 4).to_model();
    let mut group = c.benchmark_group("table3_vit_slice_prove");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(3));

    for schedule in [
        MixerSchedule::soft_approx(2),
        MixerSchedule::soft_free_s(2),
        MixerSchedule::soft_free_p(2),
        MixerSchedule::zkvc_hybrid(2),
    ] {
        let statement = model_statement(&model, &schedule, Strategy::CrpcPsq, 7);
        let shape = Arc::new(compile_shape(&statement));
        let witness = generate_witness_for(&statement, &shape);
        assert!(shape.is_satisfied(&witness));
        group.bench_function(BenchmarkId::new("spartan", schedule.name), |b| {
            let mut rng = StdRng::seed_from_u64(6);
            // Preprocessing amortises per model; measure proving only.
            let system = Backend::Spartan.system();
            let (pk, _vk) = system.setup_shape(&shape, &mut rng);
            b.iter(|| system.prove_assignment(&pk, &witness, &mut rng));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_vision);
criterion_main!(benches);
