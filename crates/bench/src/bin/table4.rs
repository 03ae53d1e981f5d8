//! Table IV: end-to-end BERT proving time for the four token-mixer
//! schedules (SoftApprox, SoftFree-S, SoftFree-L, zkVC hybrid).
//!
//! Quick mode proves a 1/8-scale two-block slice of the paper's BERT;
//! `--full` runs the full 4-layer, 256-dim, 128-token model. GLUE accuracy
//! columns are echoed from the paper (substitution S4).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkvc_bench::{full_mode, model_statement, paper, secs};
use zkvc_core::api::{compile_shape, generate_witness_for};
use zkvc_core::matmul::Strategy;
use zkvc_core::Backend;
use zkvc_nn::mixer::MixerSchedule;
use zkvc_nn::models::{BertConfig, ModelConfig};

fn main() {
    let base = BertConfig::paper().to_model();
    let model: ModelConfig = if full_mode() {
        base
    } else {
        let scaled = base.scaled_down(8);
        ModelConfig {
            name: scaled.name.clone(),
            input_dim: scaled.input_dim,
            layers: scaled.layers.into_iter().take(2).collect(),
            num_classes: scaled.num_classes,
        }
    };
    let n = model.num_layers();
    let schedules = vec![
        MixerSchedule::soft_approx(n),
        MixerSchedule::soft_free_s(n),
        MixerSchedule::soft_free_l(n),
        MixerSchedule::zkvc_hybrid_nlp(n),
    ];

    println!(
        "Table IV — verifiable BERT inference ({})",
        if full_mode() {
            "paper-scale model"
        } else {
            "quick mode: 1/8-scale two-block slice; pass --full for paper scale"
        }
    );
    println!(
        "{:<12} {:>12} {:>10} {:>10}",
        "schedule", "constraints", "P_G (s)", "P_S (s)"
    );

    let mut rng = StdRng::seed_from_u64(123);
    for schedule in &schedules {
        let statement = model_statement(&model, schedule, Strategy::CrpcPsq, 13);
        let shape = compile_shape(&statement);
        assert!(
            shape.is_satisfied(&generate_witness_for(&statement, &shape)),
            "{}",
            schedule.name
        );

        // One-shot per backend: setup + prove, as the paper times it.
        let [pg, ps] = Backend::ALL.map(|backend| {
            let t0 = Instant::now();
            let (artifacts, vk) = backend.prove_oneshot(&statement, &mut rng);
            let prove = t0.elapsed();
            assert!(
                vk.verify(&artifacts.public_inputs, &artifacts.data),
                "{backend}"
            );
            prove
        });

        println!(
            "{:<12} {:>12} {:>10} {:>10}",
            schedule.name,
            shape.num_constraints(),
            secs(pg),
            secs(ps)
        );
    }

    println!("\npaper-reported Table IV (GLUE accuracy echoed, not re-measured):");
    println!(
        "{:<12} {:>6} {:>6} {:>6} {:>6} {:>10} {:>10}",
        "schedule", "MNLI", "QNLI", "SST-2", "MRPC", "P_G (s)", "P_S (s)"
    );
    for (schedule, acc, pg, ps) in paper::TABLE_IV {
        println!(
            "{:<12} {:>6} {:>6} {:>6} {:>6} {:>10} {:>10}",
            schedule, acc[0], acc[1], acc[2], acc[3], pg, ps
        );
    }
}
