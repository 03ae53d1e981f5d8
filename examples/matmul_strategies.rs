//! Compare the four matrix-multiplication circuit strategies of the paper
//! (vanilla, vanilla+PSQ, CRPC, CRPC+PSQ) on the same statement: constraint
//! counts, wire counts and proving time.
//!
//! Run with: `cargo run --release --example matmul_strategies`

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkvc::core::api::{compile_shape, generate_witness_for};
use zkvc::core::matmul::{CircuitStats, MatMulBuilder, Strategy};
use zkvc::core::Backend;

fn main() {
    let mut rng = StdRng::seed_from_u64(7);
    let (a, n, b) = (16usize, 24usize, 32usize);
    println!("Matrix multiplication [{a}x{n}] x [{n}x{b}], Groth16 backend\n");
    println!(
        "{:<20} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "strategy", "constraints", "variables", "left wires", "setup(s)", "prove(s)"
    );

    let mut baseline = None;
    for strategy in Strategy::ALL {
        let circuit = MatMulBuilder::new(a, n, b)
            .strategy(strategy)
            .build_circuit_random(&mut rng);
        let shape = compile_shape(&circuit);
        assert!(shape.is_satisfied(&generate_witness_for(&circuit, &shape)));
        let stats = CircuitStats::of(&shape);
        let system = Backend::Groth16.system();
        let t = Instant::now();
        let (artifacts, vk) = system.prove_oneshot(&circuit, &mut rng);
        let total = t.elapsed();
        assert!(system.verify(&vk, &artifacts));
        println!(
            "{:<20} {:>12} {:>12} {:>12} {:>12.3} {:>12.3}",
            strategy.name(),
            stats.num_constraints,
            stats.num_variables,
            stats.num_left_wires,
            artifacts.metrics.setup_time.as_secs_f64(),
            artifacts.metrics.prove_time.as_secs_f64(),
        );
        if strategy == Strategy::Vanilla {
            baseline = Some(total);
        } else if strategy == Strategy::CrpcPsq {
            if let Some(base) = baseline {
                println!(
                    "\nzkVC (CRPC+PSQ) end-to-end speed-up over vanilla: {:.1}x",
                    base.as_secs_f64() / total.as_secs_f64()
                );
            }
        }
    }
}
