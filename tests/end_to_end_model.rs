//! Integration tests for verifiable Transformer inference: model circuits
//! compiled with `zkvc-nn`, proved and verified with both backends.

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkvc::core::api::{compile_shape, generate_witness_for};
use zkvc::core::matmul::Strategy;
use zkvc::core::Backend;
use zkvc::ff::{Fr, PrimeField};
use zkvc::nn::circuit::ModelStatement;
use zkvc::nn::mixer::{MixerSchedule, TokenMixer};
use zkvc::nn::models::{BertConfig, ModelConfig, VitConfig};

/// A statement with synthetic weights from `seed` and a fixed CRPC
/// challenge.
fn statement(
    model: &ModelConfig,
    schedule: &MixerSchedule,
    strategy: Strategy,
    seed: u64,
) -> ModelStatement {
    let z = Fr::from_u64(0x9E37_79B9_7F4A_7C15);
    ModelStatement::new(model.clone(), schedule.clone(), strategy, seed, z)
}

fn num_constraints(statement: &ModelStatement) -> usize {
    compile_shape(statement).num_constraints()
}

/// Checks the statement's own witness satisfies its shape, proves it
/// one-shot with Spartan and verifies under the setup's key.
fn prove_and_verify_spartan(statement: &ModelStatement, rng: &mut StdRng) {
    let shape = compile_shape(statement);
    assert!(shape.is_satisfied(&generate_witness_for(statement, &shape)));
    let system = Backend::Spartan.system();
    let (artifacts, vk) = system.prove_oneshot(statement, rng);
    assert!(system.verify(&vk, &artifacts));
}

fn tiny_vit() -> ModelConfig {
    VitConfig::custom(2, 2, 8, 4, 3).to_model()
}

/// A minimal single-block model small enough to prove under the unoptimised
/// debug profile used by `cargo test`; the release-mode harnesses and
/// examples exercise larger shapes.
fn micro_vit() -> ModelConfig {
    VitConfig::custom(1, 1, 4, 2, 2).to_model()
}

#[test]
fn micro_vit_end_to_end_spartan() {
    // Groth16 on model-sized circuits is exercised by the release-mode
    // examples and harnesses; under the debug profile used by `cargo test`
    // the transparent backend keeps this integration test fast.
    let mut rng = StdRng::seed_from_u64(41);
    let circuit = statement(
        &micro_vit(),
        &MixerSchedule::soft_free_p(1),
        Strategy::CrpcPsq,
        1,
    );
    prove_and_verify_spartan(&circuit, &mut rng);
}

#[test]
fn mixer_cost_ordering_matches_table_iii() {
    // SoftApprox > SoftFree-S (scaling) > SoftFree-P (pooling) in constraint
    // count, with the zkVC hybrid between scaling and SoftApprox — the
    // ordering behind the proving times of Table III.
    let model = VitConfig::custom(3, 2, 8, 6, 3).to_model();
    let count = |s: &MixerSchedule| num_constraints(&statement(&model, s, Strategy::CrpcPsq, 2));
    let soft = count(&MixerSchedule::soft_approx(3));
    let scaling = count(&MixerSchedule::soft_free_s(3));
    let pooling = count(&MixerSchedule::soft_free_p(3));
    let hybrid = count(&MixerSchedule::zkvc_hybrid(3));
    assert!(
        soft > hybrid,
        "SoftApprox {soft} must exceed hybrid {hybrid}"
    );
    assert!(
        hybrid > scaling,
        "hybrid {hybrid} must exceed pure scaling {scaling}"
    );
    assert!(
        scaling > pooling,
        "scaling {scaling} must exceed pooling {pooling}"
    );
}

#[test]
fn crpc_psq_reduces_model_circuit_size() {
    let model = tiny_vit();
    let schedule = MixerSchedule::soft_free_s(2);
    let vanilla = num_constraints(&statement(&model, &schedule, Strategy::Vanilla, 3));
    let zkvc = num_constraints(&statement(&model, &schedule, Strategy::CrpcPsq, 3));
    assert!(
        zkvc < vanilla,
        "zkVC {zkvc} must be smaller than vanilla {vanilla}"
    );
}

#[test]
fn bert_slice_with_linear_mixer_builds_and_proves() {
    let mut rng = StdRng::seed_from_u64(43);
    // Constraint-count comparison on a 1/16-scale single-layer BERT slice
    // (structure only — proving this size is left to the release harness),
    // plus a Spartan proof of a micro slice.
    let base = BertConfig::paper().to_model().scaled_down(16);
    let model = ModelConfig {
        name: base.name.clone(),
        input_dim: base.input_dim,
        layers: base.layers.into_iter().take(1).collect(),
        num_classes: 2,
    };
    let schedule = MixerSchedule {
        layers: vec![TokenMixer::LinearMixing],
        name: "SoftFree-L",
    };
    let circuit = statement(&model, &schedule, Strategy::CrpcPsq, 4);
    let shape = compile_shape(&circuit);
    assert!(shape.is_satisfied(&generate_witness_for(&circuit, &shape)));
    assert!(shape.num_constraints() > 0);

    let micro = ModelConfig {
        name: "bert-micro".to_string(),
        input_dim: 4,
        layers: vec![zkvc::nn::models::LayerSpec {
            seq_len: 2,
            dim: 4,
            num_heads: 1,
            mlp_dim: 4,
        }],
        num_classes: 2,
    };
    prove_and_verify_spartan(
        &statement(&micro, &schedule, Strategy::CrpcPsq, 4),
        &mut rng,
    );
}

#[test]
fn per_layer_stats_sum_to_total() {
    let circuit = statement(
        &tiny_vit(),
        &MixerSchedule::soft_approx(2),
        Strategy::CrpcPsq,
        5,
    );
    let sum: usize = circuit.layer_stats().iter().map(|l| l.constraints).sum();
    assert_eq!(sum, num_constraints(&circuit));
}
