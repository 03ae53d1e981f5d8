//! End-to-end verifiable Vision-Transformer inference: compile a (small)
//! ViT with the zkVC hybrid token-mixer schedule into a circuit, prove the
//! forward pass with both backends and verify the proofs.
//!
//! Run with: `cargo run --release --example verifiable_vit_inference`
//! The model here is a reduced ViT so the example finishes in seconds; the
//! `table3` harness in `zkvc-bench` runs the paper's configurations.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

use zkvc::core::api::{compile_shape, generate_witness_for};
use zkvc::core::matmul::Strategy;
use zkvc::core::Backend;
use zkvc::ff::{Fr, PrimeField};
use zkvc::nn::circuit::ModelStatement;
use zkvc::nn::mixer::MixerSchedule;
use zkvc::nn::models::VitConfig;

fn main() {
    // A ViT with 3 layers, 2 heads, hidden dim 16, 8 tokens, 10 classes.
    let model = VitConfig::custom(3, 2, 16, 8, 10).to_model();
    let schedule = MixerSchedule::zkvc_hybrid(3);
    println!(
        "Compiling {} with the '{}' mixer schedule...",
        model.name, schedule.name
    );

    // Synthetic weights from seed 2024; the CRPC challenge is fixed up front
    // (a deployment samples it at setup time or from a transcript over the
    // committed weights).
    let z = Fr::from_u64(0x9E37_79B9_7F4A_7C15);
    let statement = ModelStatement::new(model, schedule, Strategy::CrpcPsq, 2024, z);
    let shape = compile_shape(&statement);
    let witness = generate_witness_for(&statement, &shape);
    assert!(
        shape.is_satisfied(&witness),
        "the forward pass must satisfy its own circuit"
    );

    println!("Per-layer constraint breakdown:");
    for layer in &statement.layer_stats() {
        println!(
            "  {:<28} {:>8} constraints  {:>8} variables",
            layer.label, layer.constraints, layer.variables
        );
    }
    println!(
        "  {:<28} {:>8} constraints  {:>8} variables",
        "TOTAL",
        shape.num_constraints(),
        shape.num_variables()
    );
    println!(
        "Class logits (fixed-point field elements): {:?}",
        witness.instance
    );

    let mut rng = StdRng::seed_from_u64(9);
    for backend in Backend::ALL {
        let system = backend.system();
        let (artifacts, vk) = system.prove_oneshot(&statement, &mut rng);
        let t0 = Instant::now();
        let ok = system.verify(&vk, &artifacts);
        let verify_time = t0.elapsed();
        println!(
            "{:<8}  setup: {:>8.3?}  prove: {:>8.3?}  verify: {:>8.3?}  proof: {:>7} bytes  ok: {}",
            backend.name(),
            artifacts.metrics.setup_time,
            artifacts.metrics.prove_time,
            verify_time,
            artifacts.metrics.proof_size_bytes,
            ok
        );
        assert!(ok);
    }
}
