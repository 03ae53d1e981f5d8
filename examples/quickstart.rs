//! Quickstart: prove and verify a single matrix multiplication with zkVC
//! through the circuit-generic API: a `Circuit`, a `Backend` that sets up
//! and proves, and the `VerifierKey` that verifies.
//!
//! Run with: `cargo run --release --example quickstart`

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkvc::core::api::{compile_shape, generate_witness_for};
use zkvc::core::matmul::{MatMulBuilder, Strategy};
use zkvc::core::Backend;
use zkvc::ff::Field;

fn main() {
    let mut rng = StdRng::seed_from_u64(42);

    // The server computed Y = X * W and wants to convince the client without
    // revealing W. The builder's outputs are public, so the proof *binds*
    // Y: it is part of the statement, not the witness.
    let x = vec![vec![3i64, -1, 4], vec![1, 5, -9], vec![2, 6, 5]];
    let w = vec![vec![2i64, 7], vec![1, -8], vec![-2, 8]];

    println!("Building the CRPC+PSQ circuit for a 3x3 * 3x2 multiplication...");
    let circuit = MatMulBuilder::new(3, 3, 2)
        .strategy(Strategy::CrpcPsq)
        .build_circuit_integers(&x, &w);
    // The witness-free shape pass: everything setup needs, no values.
    let shape = Arc::new(compile_shape(&circuit));
    println!(
        "  constraints: {}   variables: {}   public outputs: {}   (a vanilla circuit would need {} constraints)",
        shape.num_constraints(),
        shape.num_variables(),
        shape.num_instance(),
        3 * 3 * 2 + 3 * 2,
    );
    // The witness pass: the flat assignment, checked against the shape.
    let witness = generate_witness_for(&circuit, &shape);

    for backend in Backend::ALL {
        // Either backend takes the same shape and assignment.
        let (pk, vk) = backend.setup_shape(&shape, &mut rng);
        let t0 = Instant::now();
        let artifacts = backend.prove_assignment(&pk, &witness, &mut rng);
        let prove_time = t0.elapsed();
        let ok = vk.verify(&artifacts.public_inputs, &artifacts.data);
        println!(
            "{:<8}  prove: {:>8.3?}  proof: {:>6} bytes  verified: {}",
            backend.name(),
            prove_time,
            artifacts.data.size_in_bytes(),
            ok
        );
        assert!(ok, "verification must succeed for an honest prover");

        // Statement binding: the same proof against a tampered Y fails.
        let mut tampered = artifacts.public_inputs.clone();
        tampered[0] += zkvc::ff::Fr::one();
        assert!(
            !vk.verify(&tampered, &artifacts.data),
            "a tampered Y must be rejected"
        );
    }

    println!("\nThe product the proof binds (and attests to):");
    for row in &circuit.y {
        println!("  {row:?}");
    }
    println!("Tampering with any bound output makes verification fail.");
}
