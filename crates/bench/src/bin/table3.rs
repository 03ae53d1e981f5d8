//! Table III: end-to-end ViT proving time for the four token-mixer
//! schedules on the CIFAR-10, Tiny-ImageNet and ImageNet architectures.
//!
//! Quick mode (default) proves a two-block slice of each architecture at
//! 1/8 scale — enough to show the SoftApprox > SoftFree-S > zkVC >
//! SoftFree-P ordering the paper reports — and prints the per-schedule
//! constraint counts of the slice. `--full` builds and proves the full
//! paper-scale models (very slow on this pure-Rust substrate).
//!
//! Accuracy columns are echoed from the paper: they are a property of
//! training, which is out of scope here (weights are synthetically
//! initialised, see `zkvc_nn`).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkvc_bench::{full_mode, model_statement, paper, secs};
use zkvc_core::api::{compile_shape, generate_witness_for};
use zkvc_core::matmul::Strategy;
use zkvc_core::Backend;
use zkvc_nn::mixer::MixerSchedule;
use zkvc_nn::models::{ModelConfig, VitConfig};

fn schedules(n: usize) -> Vec<MixerSchedule> {
    vec![
        MixerSchedule::soft_approx(n),
        MixerSchedule::soft_free_s(n),
        MixerSchedule::soft_free_p(n),
        MixerSchedule::zkvc_hybrid(n),
    ]
}

fn prepare(model: ModelConfig) -> ModelConfig {
    if full_mode() {
        model
    } else {
        // quick mode: 1/8 scale, two-block slice
        let scaled = model.scaled_down(8);
        ModelConfig {
            name: scaled.name.clone(),
            input_dim: scaled.input_dim,
            layers: scaled.layers.into_iter().take(2).collect(),
            num_classes: scaled.num_classes,
        }
    }
}

fn main() {
    let datasets: Vec<(&str, ModelConfig)> = vec![
        ("CIFAR-10", prepare(VitConfig::cifar10().to_model())),
        (
            "Tiny-ImageNet",
            prepare(VitConfig::tiny_imagenet().to_model()),
        ),
        (
            "ImageNet",
            prepare(VitConfig::imagenet_hierarchical().to_model()),
        ),
    ];
    println!(
        "Table III — verifiable ViT inference ({})",
        if full_mode() {
            "paper-scale models"
        } else {
            "quick mode: 1/8-scale two-block slices; pass --full for paper scale"
        }
    );
    println!(
        "{:<15} {:<12} {:>12} {:>10} {:>10} {:>10}",
        "dataset", "schedule", "constraints", "P_G (s)", "P_S (s)", "verify(s)"
    );

    let mut rng = StdRng::seed_from_u64(99);
    for (dataset, model) in &datasets {
        for schedule in schedules(model.num_layers()) {
            let statement = model_statement(model, &schedule, Strategy::CrpcPsq, 7);
            let shape = compile_shape(&statement);
            assert!(
                shape.is_satisfied(&generate_witness_for(&statement, &shape)),
                "{dataset}/{}",
                schedule.name
            );

            // One-shot per backend: setup + prove, as the paper times it.
            let [(pg, gv), (ps, _sv)] = Backend::ALL.map(|backend| {
                let system = backend.system();
                let t0 = Instant::now();
                let (artifacts, vk) = system.prove_oneshot(&statement, &mut rng);
                let prove = t0.elapsed();
                let t1 = Instant::now();
                assert!(system.verify(&vk, &artifacts), "{backend}");
                (prove, t1.elapsed())
            });

            println!(
                "{:<15} {:<12} {:>12} {:>10} {:>10} {:>10}",
                dataset,
                schedule.name,
                shape.num_constraints(),
                secs(pg),
                secs(ps),
                secs(gv)
            );
        }
    }

    println!("\npaper-reported Table III (accuracy echoed, not re-measured):");
    println!(
        "{:<15} {:<12} {:>8} {:>10} {:>10}",
        "dataset", "schedule", "top1(%)", "P_G (s)", "P_S (s)"
    );
    for (dataset, schedule, acc, pg, ps) in paper::TABLE_III {
        println!("{dataset:<15} {schedule:<12} {acc:>8} {pg:>10} {ps:>10}");
    }
}
