//! Verify a SoftMax computation in zero knowledge: the non-linear
//! approximation pipeline of §III-C in isolation (max check, clipped Taylor
//! exponential, verified division), proved with the Groth16 backend.
//!
//! Run with: `cargo run --release --example softmax_verification`

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkvc::core::api::{bind_public_outputs, compile_shape, generate_witness_for, Circuit};
use zkvc::core::fixed::FixedPointConfig;
use zkvc::core::nonlinear::{synthesize_softmax, SoftmaxConfig};
use zkvc::core::Backend;
use zkvc::ff::{Fr, PrimeField};
use zkvc::r1cs::{ConstraintSink, LinearCombination, SinkExt};

/// SoftMax over private quantised logits, with the outputs bound as public
/// instance variables so the proof commits to the probabilities.
struct SoftmaxCircuit {
    quantised: Vec<i64>,
    cfg: SoftmaxConfig,
}

impl Circuit for SoftmaxCircuit {
    fn synthesize(&self, sink: &mut dyn ConstraintSink<Fr>) {
        let inputs: Vec<LinearCombination<Fr>> = self
            .quantised
            .iter()
            .map(|q| sink.alloc_witness_lazy(|| Fr::from_i64(*q)).into())
            .collect();
        let outputs: Vec<LinearCombination<Fr>> = synthesize_softmax(sink, &inputs, &self.cfg)
            .expect("inputs are in range")
            .into_iter()
            .map(Into::into)
            .collect();
        let publics: Vec<LinearCombination<Fr>> = outputs
            .iter()
            .map(|out| sink.alloc_instance_opt(sink.lc_value(out)).into())
            .collect();
        bind_public_outputs(sink, &outputs, &publics);
    }
}

fn main() {
    let fixed = FixedPointConfig::default();
    let logits = [1.25f64, -0.5, 0.75, 2.0, -1.0, 0.0];
    let circuit = SoftmaxCircuit {
        quantised: logits.iter().map(|v| fixed.quantize(*v)).collect(),
        cfg: SoftmaxConfig::default(),
    };

    println!("Logits: {logits:?}");
    println!(
        "Quantised (scale 2^{}): {:?}",
        fixed.fraction_bits, circuit.quantised
    );

    let shape = compile_shape(&circuit);
    let witness = generate_witness_for(&circuit, &shape);
    assert!(shape.is_satisfied(&witness));
    println!(
        "SoftMax circuit: {} constraints, {} variables",
        shape.num_constraints(),
        shape.num_variables()
    );

    // Compare the in-circuit approximation against the real softmax.
    let exp: Vec<f64> = logits.iter().map(|v| v.exp()).collect();
    let total: f64 = exp.iter().sum();
    println!("{:<8} {:>12} {:>12}", "index", "true", "in-circuit");
    for (i, out) in witness.instance.iter().enumerate() {
        let circuit_val = out.to_canonical()[0] as f64 / fixed.scale() as f64;
        println!("{:<8} {:>12.4} {:>12.4}", i, exp[i] / total, circuit_val);
    }

    let mut rng = StdRng::seed_from_u64(5);
    let system = Backend::Groth16.system();
    let (artifacts, vk) = system.prove_oneshot(&circuit, &mut rng);
    let ok = system.verify(&vk, &artifacts);
    println!(
        "\nGroth16 proof of the SoftMax evaluation: {} bytes, proved in {:.3?}, verified: {ok}",
        artifacts.metrics.proof_size_bytes, artifacts.metrics.prove_time
    );
    assert!(ok);
}
