//! Figure 6: matmul comparison across ViT embedding dimensions
//! {64, 128, 320, 512} — prover time, verifier time, proof size and online
//! time for the baselines, the interactive scheme and zkVC on both
//! backends.
//!
//! Measured series: vanilla groth16 / Spartan baselines (vCNN proves its
//! matmuls as a plain Groth16 R1CS, so vanilla groth16 stands in for it),
//! the interactive sum-check baseline standing in for zkCNN, and zkVC-G /
//! zkVC-S. ZEN / zkML are not re-implemented.

use zkvc_bench::{
    full_mode, paper, paper_matmul_dims, print_results, quick_matmul_dims, run_interactive,
    run_matmul,
};
use zkvc_core::matmul::Strategy;
use zkvc_core::Backend;

fn main() {
    let dims_list = [64usize, 128, 320, 512];
    let full = full_mode();
    println!(
        "Figure 6 — matmul benchmark across embedding dimensions ({})",
        if full {
            "paper scale"
        } else {
            "quick mode; pass --full for paper scale"
        }
    );
    println!(
        "paper-reported zkVC speed-up over the vanilla baselines: {:.0}x to {:.0}x",
        paper::FIG6_SPEEDUP_RANGE.0,
        paper::FIG6_SPEEDUP_RANGE.1
    );

    for dim in dims_list {
        let dims = if full {
            paper_matmul_dims(dim)
        } else {
            quick_matmul_dims(dim)
        };
        let results = vec![
            run_matmul(
                "groth16 (vanilla, ~vCNN)",
                dims,
                Strategy::Vanilla,
                Backend::Groth16,
                10,
            ),
            run_matmul(
                "spartan (vanilla)",
                dims,
                Strategy::Vanilla,
                Backend::Spartan,
                11,
            ),
            run_interactive("zkCNN-style (interactive)", dims, 12),
            run_matmul("zkVC-G", dims, Strategy::CrpcPsq, Backend::Groth16, 13),
            run_matmul("zkVC-S", dims, Strategy::CrpcPsq, Backend::Spartan, 14),
        ];
        // Online time of the interactive scheme includes the prover's time
        // because both parties must stay connected for the whole exchange.
        let title = format!(
            "embedding dim {dim}: [{}x{}] x [{}x{}]",
            dims.0, dims.1, dims.1, dims.2
        );
        print_results(&title, &results);
        let interactive_online = results[2].prove + results[2].verify;
        println!(
            "online time: interactive = {:.3}s (prover+verifier live), non-interactive = verify only",
            interactive_online.as_secs_f64()
        );
    }
}
