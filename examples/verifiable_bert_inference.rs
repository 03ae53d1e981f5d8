//! Verifiable BERT-style inference: compare token-mixer schedules on a
//! reduced BERT and prove the cheapest and the hybrid one.
//!
//! Run with: `cargo run --release --example verifiable_bert_inference`

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkvc::core::api::{compile_shape, generate_witness_for};
use zkvc::core::matmul::Strategy;
use zkvc::core::Backend;
use zkvc::ff::{Fr, PrimeField};
use zkvc::nn::circuit::ModelStatement;
use zkvc::nn::mixer::MixerSchedule;
use zkvc::nn::models::{BertConfig, ModelConfig};

fn main() {
    // Reduce the paper's BERT (4 layers, 256 dim, 128 tokens) to 1/16 scale
    // so the example runs in seconds.
    let base = BertConfig::paper().to_model().scaled_down(16);
    let model = ModelConfig {
        name: "BERT (example scale)".to_string(),
        input_dim: base.input_dim,
        layers: base.layers,
        num_classes: 3,
    };
    let n = model.num_layers();

    println!(
        "Constraint cost of each token-mixer schedule on {}:",
        model.name
    );
    let schedules = [
        MixerSchedule::soft_approx(n),
        MixerSchedule::soft_free_s(n),
        MixerSchedule::soft_free_l(n),
        MixerSchedule::zkvc_hybrid_nlp(n),
    ];
    // Synthetic weights from seed 31; the CRPC challenge is fixed up front
    // (a deployment samples it at setup time or from a transcript over the
    // committed weights).
    let z = Fr::from_u64(0x9E37_79B9_7F4A_7C15);
    let mut compiled = Vec::new();
    for schedule in schedules {
        let name = schedule.name;
        let statement = ModelStatement::new(model.clone(), schedule, Strategy::CrpcPsq, 31, z);
        let shape = compile_shape(&statement);
        assert!(shape.is_satisfied(&generate_witness_for(&statement, &shape)));
        println!("  {:<12} {:>9} constraints", name, shape.num_constraints());
        compiled.push((name, statement));
    }

    // Prove the zkVC hybrid with the transparent backend.
    let (name, statement) = compiled.last().unwrap();
    let mut rng = StdRng::seed_from_u64(77);
    let system = Backend::Spartan.system();
    let (artifacts, vk) = system.prove_oneshot(statement, &mut rng);
    let ok = system.verify(&vk, &artifacts);
    println!(
        "\nProved the '{name}' schedule with the Spartan backend in {:.3?} ({} byte proof). Verified: {ok}",
        artifacts.metrics.prove_time, artifacts.metrics.proof_size_bytes
    );
    assert!(ok);
}
