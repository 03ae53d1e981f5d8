//! Criterion bench for Table IV: proving a reduced-scale BERT block slice
//! under each token-mixer schedule (the `table4` binary prints the full
//! comparison with GLUE accuracy context).

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
use zkvc_nn::models::{BertConfig, ModelConfig};

fn bench_nlp(c: &mut Criterion) {
    let base = BertConfig::paper().to_model().scaled_down(16);
    let model = ModelConfig {
        name: base.name.clone(),
        input_dim: base.input_dim,
        layers: base.layers.into_iter().take(2).collect(),
        num_classes: base.num_classes,
    };
    let mut group = c.benchmark_group("table4_bert_slice_prove");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(3));

    for schedule in [
        MixerSchedule::soft_approx(2),
        MixerSchedule::soft_free_s(2),
        MixerSchedule::soft_free_l(2),
        MixerSchedule::zkvc_hybrid_nlp(2),
    ] {
        let statement = model_statement(&model, &schedule, Strategy::CrpcPsq, 9);
        let shape = Arc::new(compile_shape(&statement));
        let witness = generate_witness_for(&statement, &shape);
        assert!(shape.is_satisfied(&witness));
        group.bench_function(BenchmarkId::new("spartan", schedule.name), |b| {
            let mut rng = StdRng::seed_from_u64(8);
            // Preprocessing amortises per model; measure proving only.
            let system = Backend::Spartan.system();
            let (pk, _vk) = system.setup_shape(&shape, &mut rng);
            b.iter(|| system.prove_assignment(&pk, &witness, &mut rng));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_nlp);
criterion_main!(benches);
