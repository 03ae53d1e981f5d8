//! The model-to-circuit compiler: turns a [`ModelConfig`] plus a
//! [`MixerSchedule`] into one R1CS covering the whole forward pass
//! (embedding, every Transformer block, pooling and the classifier head),
//! together with per-layer constraint statistics.
//!
//! [`ModelStatement`] holds only the configuration, weight seed and CRPC
//! challenge, and synthesises on demand into any [`ConstraintSink`]. A
//! shape pass over it generates **no weight tensors at all**; a witness
//! pass computes exactly the flat assignment.
//!
//! The class logits of the reference run are bound as **public instance
//! variables**, so a proof commits to the concrete inference result:
//! verifying the same proof against different claimed logits fails.

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkvc_core::api::Circuit;
use zkvc_core::fixed::FixedPointConfig;
use zkvc_core::matmul::Strategy;
use zkvc_core::nonlinear::SoftmaxConfig;
use zkvc_ff::Fr;
use zkvc_r1cs::{ConstraintSink, ShapeBuilder};

use crate::layers::{
    alloc_tensor_opt, linear, transformer_block_opt, BlockDims, BlockWeights, LcMatrix,
};
use crate::mixer::MixerSchedule;
use crate::models::ModelConfig;
use crate::tensor::Tensor;

/// Per-layer constraint accounting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LayerStats {
    /// Layer label ("embed", "block 3 (SoftFree-S)", "classifier").
    pub label: String,
    /// Constraints added by this layer.
    pub constraints: usize,
    /// Variables added by this layer.
    pub variables: usize,
}

/// A verifiable-inference *statement*: model + schedule + strategy + weight
/// seed + CRPC challenge, synthesised on demand. Implements [`Circuit`], so
/// the runtime can compile its shape witness-free and then run only the
/// witness pass per proof.
#[derive(Clone, Debug)]
pub struct ModelStatement {
    model: ModelConfig,
    schedule: MixerSchedule,
    strategy: Strategy,
    weight_seed: u64,
    z: Fr,
    name: String,
}

impl ModelStatement {
    /// Creates the statement. Because `z` is baked into the constraint
    /// coefficients, every statement built with the same
    /// `(model, schedule, strategy, z)` shares one shape — which is what
    /// lets a batch of per-`weight_seed` model jobs share a single setup
    /// in the runtime's key cache.
    ///
    /// # Panics
    /// Panics if the schedule does not cover every model layer.
    pub fn new(
        model: ModelConfig,
        schedule: MixerSchedule,
        strategy: Strategy,
        weight_seed: u64,
        z: Fr,
    ) -> Self {
        assert_eq!(
            schedule.num_layers(),
            model.num_layers(),
            "mixer schedule must cover every layer"
        );
        let name = format!("{} / {}", model.name, schedule.name);
        ModelStatement {
            model,
            schedule,
            strategy,
            weight_seed,
            z,
            name,
        }
    }

    /// Per-layer constraint accounting (embedding, one entry per block,
    /// classifier), from one witness-free shape pass.
    pub fn layer_stats(&self) -> Vec<LayerStats> {
        let mut stats = Vec::new();
        self.emit(&mut ShapeBuilder::new(), Some(&mut stats));
        stats
    }

    /// Emits the whole forward pass into `sink`. Weight/input tensors are
    /// generated (from the seeded rng, in a fixed order) only when the sink
    /// carries values; the structure is identical either way. Appends
    /// per-layer stats when a collector is supplied.
    fn emit(&self, sink: &mut dyn ConstraintSink<Fr>, mut stats: Option<&mut Vec<LayerStats>>) {
        let model = &self.model;
        let strategy = self.strategy;
        let z = self.z;
        let wants = sink.wants_values();
        let cfg = FixedPointConfig::default();
        let softmax_cfg = SoftmaxConfig::default();
        let mut rng = StdRng::seed_from_u64(self.weight_seed);
        let record = |stats: &mut Option<&mut Vec<LayerStats>>,
                      label: String,
                      before: (usize, usize),
                      sink: &dyn ConstraintSink<Fr>| {
            if let Some(stats) = stats.as_deref_mut() {
                stats.push(LayerStats {
                    label,
                    constraints: sink.num_constraints() - before.0,
                    variables: sink.num_variables() - before.1,
                });
            }
        };

        let first = &model.layers[0];
        // Synthetic input tokens and embedding.
        let input = wants.then(|| Tensor::random(first.seq_len, model.input_dim, &cfg, &mut rng));
        let w_embed = wants.then(|| Tensor::random(model.input_dim, first.dim, &cfg, &mut rng));
        let before = (sink.num_constraints(), sink.num_variables());
        let input_lcs = alloc_tensor_opt(sink, first.seq_len, model.input_dim, input.as_ref());
        let w_embed_lcs = alloc_tensor_opt(sink, model.input_dim, first.dim, w_embed.as_ref());
        let mut tokens: LcMatrix = linear(sink, &input_lcs, &w_embed_lcs, strategy, z, &cfg);
        record(&mut stats, "embed".to_string(), before, sink);

        // Transformer blocks.
        for (idx, (spec, mixer)) in model
            .layers
            .iter()
            .zip(self.schedule.layers.iter())
            .enumerate()
        {
            // When the spec's sequence length or dim changes between stages
            // (hierarchical ViT), downsample tokens by truncation/projection.
            tokens = resize_tokens(
                sink,
                &tokens,
                spec.seq_len,
                spec.dim,
                strategy,
                z,
                &cfg,
                &mut rng,
            );
            let weights = wants.then(|| {
                BlockWeights::random(spec.seq_len, spec.dim, spec.mlp_dim, &cfg, &mut rng)
            });
            let before = (sink.num_constraints(), sink.num_variables());
            tokens = transformer_block_opt(
                sink,
                &tokens,
                weights.as_ref(),
                BlockDims {
                    seq: spec.seq_len,
                    dim: spec.dim,
                    mlp_dim: spec.mlp_dim,
                },
                *mixer,
                spec.num_heads,
                strategy,
                z,
                &cfg,
                &softmax_cfg,
            );
            record(
                &mut stats,
                format!("block {idx} ({})", mixer.name()),
                before,
                sink,
            );
        }

        // Classifier: mean-pool tokens (linear), then a projection to
        // `num_classes` logits.
        let last = model.layers.last().expect("at least one layer");
        let before = (sink.num_constraints(), sink.num_variables());
        let mut pooled: LcMatrix = vec![Vec::with_capacity(last.dim)];
        for c in 0..tokens[0].len() {
            let mut acc = zkvc_r1cs::LinearCombination::zero();
            for row in &tokens {
                acc = acc + &row[c];
            }
            pooled[0].push(acc);
        }
        let head_dim = tokens[0].len();
        let w_head = wants.then(|| Tensor::random(head_dim, model.num_classes, &cfg, &mut rng));
        let w_head_lcs = alloc_tensor_opt(sink, head_dim, model.num_classes, w_head.as_ref());
        let logits_lcs = linear(sink, &pooled, &w_head_lcs, strategy, z, &cfg);
        let logits: Option<Vec<Fr>> = wants.then(|| {
            logits_lcs[0]
                .iter()
                .map(|lc| sink.lc_value(lc).expect("sink carries values"))
                .collect()
        });
        // Bind the inference result: each logit becomes a public instance
        // variable constrained to equal the classifier output, so the proof
        // commits to the concrete logits, not just the circuit shape.
        let public_logits: Vec<zkvc_r1cs::LinearCombination<Fr>> = (0..model.num_classes)
            .map(|i| {
                sink.alloc_instance_opt(logits.as_ref().map(|l| l[i]))
                    .into()
            })
            .collect();
        zkvc_core::api::bind_public_outputs(sink, &logits_lcs[0], &public_logits);
        record(&mut stats, "classifier".to_string(), before, sink);
    }
}

impl Circuit for ModelStatement {
    fn synthesize(&self, sink: &mut dyn ConstraintSink<Fr>) {
        self.emit(sink, None);
    }

    fn name(&self) -> String {
        self.name.clone()
    }

    fn declared_publics(&self) -> usize {
        // One public logit per class, always bound.
        self.model.num_classes
    }
}

/// Adjusts the token matrix to a target `(seq, dim)` shape between stages:
/// sequences are shortened by merging adjacent tokens (sum), dimensions are
/// changed with a verified linear projection.
#[allow(clippy::too_many_arguments)]
fn resize_tokens(
    sink: &mut dyn ConstraintSink<Fr>,
    tokens: &LcMatrix,
    target_seq: usize,
    target_dim: usize,
    strategy: Strategy,
    z: Fr,
    cfg: &FixedPointConfig,
    rng: &mut StdRng,
) -> LcMatrix {
    let cur_seq = tokens.len();
    let cur_dim = tokens[0].len();
    let mut out: LcMatrix = tokens.clone();
    if target_seq < cur_seq {
        let merge = cur_seq.div_ceil(target_seq);
        out = (0..target_seq)
            .map(|t| {
                let mut merged = vec![zkvc_r1cs::LinearCombination::zero(); cur_dim];
                for s in 0..merge {
                    let idx = t * merge + s;
                    if idx < cur_seq {
                        for (c, m) in merged.iter_mut().enumerate() {
                            *m = m.clone() + &out[idx][c];
                        }
                    }
                }
                merged
            })
            .collect();
    }
    if target_dim != cur_dim {
        let proj = sink
            .wants_values()
            .then(|| Tensor::random(cur_dim, target_dim, cfg, rng));
        let proj_lcs = alloc_tensor_opt(sink, cur_dim, target_dim, proj.as_ref());
        out = linear(sink, &out, &proj_lcs, strategy, z, cfg);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::VitConfig;
    use zkvc_core::api::{compile_shape, generate_witness_for};
    use zkvc_ff::{Field, PrimeField};
    use zkvc_r1cs::{shape_digest, ConstraintSystem};

    fn statement(
        model: &ModelConfig,
        schedule: &MixerSchedule,
        strategy: Strategy,
        seed: u64,
    ) -> ModelStatement {
        let z = Fr::from_u64(0x9E37_79B9_7F4A_7C15);
        ModelStatement::new(model.clone(), schedule.clone(), strategy, seed, z)
    }

    /// The statement synthesised into the single-pass reference sink.
    fn single_pass(statement: &ModelStatement) -> ConstraintSystem<Fr> {
        let mut cs = ConstraintSystem::new();
        statement.synthesize(&mut cs);
        cs
    }

    fn num_constraints(statement: &ModelStatement) -> usize {
        compile_shape(statement).num_constraints()
    }

    #[test]
    fn tiny_vit_circuit_is_satisfiable_for_all_schedules() {
        let cfg = VitConfig::custom(2, 2, 8, 4, 4).to_model();
        for schedule in [
            MixerSchedule::soft_approx(2),
            MixerSchedule::soft_free_s(2),
            MixerSchedule::soft_free_p(2),
            MixerSchedule::zkvc_hybrid(2),
        ] {
            let circuit = statement(&cfg, &schedule, Strategy::CrpcPsq, 7);
            let cs = single_pass(&circuit);
            assert!(cs.is_satisfied(), "{}", schedule.name);
            assert_eq!(cs.num_instance(), 4, "one public logit per class");
            // embed + 2 blocks + classifier, summing to the whole circuit.
            let layers = circuit.layer_stats();
            assert_eq!(layers.len(), 4);
            let total: usize = layers.iter().map(|l| l.constraints).sum();
            assert_eq!(total, cs.num_constraints());
            assert!(total > 0);
        }
    }

    #[test]
    fn two_pass_matches_the_single_pass_reference() {
        // The shape pass (no weights generated) and the witness pass must
        // reproduce the single pass exactly: same digest, same flat
        // assignment.
        let cfg = VitConfig::custom(2, 2, 8, 4, 4).to_model();
        let circuit = statement(&cfg, &MixerSchedule::zkvc_hybrid(2), Strategy::CrpcPsq, 9);
        let cs = single_pass(&circuit);

        let shape = compile_shape(&circuit);
        assert_eq!(shape.digest, shape_digest(&cs));
        assert_eq!(shape.num_constraints(), cs.num_constraints());

        let witness = generate_witness_for(&circuit, &shape);
        assert_eq!(witness.full(), cs.full_assignment());
        assert_eq!(witness.instance, circuit.public_outputs());
        assert!(shape.is_satisfied(&witness));
    }

    #[test]
    fn zkvc_strategy_shrinks_the_circuit() {
        let cfg = VitConfig::custom(2, 2, 8, 4, 4).to_model();
        let schedule = MixerSchedule::soft_approx(2);
        let vanilla = statement(&cfg, &schedule, Strategy::Vanilla, 7);
        let zkvc = statement(&cfg, &schedule, Strategy::CrpcPsq, 7);
        assert!(num_constraints(&zkvc) < num_constraints(&vanilla));
        assert!(single_pass(&vanilla).is_satisfied() && single_pass(&zkvc).is_satisfied());
    }

    #[test]
    fn softmax_schedule_costs_more_than_hybrid() {
        let cfg = VitConfig::custom(3, 2, 8, 6, 4).to_model();
        let count = |s: &MixerSchedule| num_constraints(&statement(&cfg, s, Strategy::CrpcPsq, 3));
        let soft = count(&MixerSchedule::soft_approx(3));
        let hybrid = count(&MixerSchedule::zkvc_hybrid(3));
        let pool = count(&MixerSchedule::soft_free_p(3));
        assert!(soft > hybrid);
        assert!(hybrid > pool);
    }

    #[test]
    fn logits_are_bound_as_public_outputs() {
        let cfg = VitConfig::custom(1, 1, 4, 2, 3).to_model();
        let circuit = statement(&cfg, &MixerSchedule::soft_free_p(1), Strategy::CrpcPsq, 5);
        let mut cs = single_pass(&circuit);
        assert!(cs.is_satisfied());
        // The instance assignment is exactly the logits, in order.
        assert_eq!(circuit.declared_publics(), 3);
        assert_eq!(cs.instance_assignment(), &circuit.public_outputs()[..]);
        // Claiming different logits breaks the circuit.
        let mut instance = cs.instance_assignment().to_vec();
        instance[1] += Fr::one();
        cs.set_instance_assignment(instance);
        assert!(!cs.is_satisfied(), "tampered logit accepted");
    }

    #[test]
    fn statements_share_a_shape_across_weight_seeds() {
        // Same (model, schedule, strategy, z), different weights: one
        // circuit shape — the property the runtime key cache relies on.
        let cfg = VitConfig::custom(1, 1, 4, 2, 2).to_model();
        let schedule = MixerSchedule::soft_free_p(1);
        let z = Fr::from_u64(0xABCD_1234);
        let build = |weight_seed, z| {
            ModelStatement::new(
                cfg.clone(),
                schedule.clone(),
                Strategy::CrpcPsq,
                weight_seed,
                z,
            )
        };
        let (c1, c2) = (build(1, z), build(2, z));
        assert!(single_pass(&c1).is_satisfied() && single_pass(&c2).is_satisfied());
        assert_eq!(c1.shape_digest(), c2.shape_digest());
        assert_ne!(
            c1.public_outputs(),
            c2.public_outputs(),
            "different weights, different result"
        );
        // A different challenge is a different shape (z sits in the
        // constraint coefficients).
        assert_ne!(c1.shape_digest(), build(1, z + Fr::one()).shape_digest());
    }

    #[test]
    fn hierarchical_resize_keeps_satisfiability() {
        // Two layers with different seq/dim force a resize between them.
        use crate::models::{LayerSpec, ModelConfig};
        let model = ModelConfig {
            name: "mini-hierarchical".to_string(),
            input_dim: 12,
            layers: vec![
                LayerSpec {
                    seq_len: 8,
                    dim: 8,
                    num_heads: 2,
                    mlp_dim: 16,
                },
                LayerSpec {
                    seq_len: 2,
                    dim: 12,
                    num_heads: 2,
                    mlp_dim: 24,
                },
            ],
            num_classes: 3,
        };
        let circuit = statement(
            &model,
            &MixerSchedule::zkvc_hybrid(2),
            Strategy::CrpcPsq,
            11,
        );
        let cs = single_pass(&circuit);
        assert!(cs.is_satisfied());
        assert_eq!(circuit.public_outputs().len(), 3);
        // The hierarchical resize path is pass-oblivious too.
        assert_eq!(compile_shape(&circuit).digest, shape_digest(&cs));
    }
}
