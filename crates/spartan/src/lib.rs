//! # zkvc-spartan
//!
//! A Spartan-style transparent SNARK for R1CS (Setty, CRYPTO 2020),
//! used as the `zkVC-S` backend of the paper. No trusted setup: the proof
//! consists of
//!
//! 1. one vector commitment per row of the witness, laid out as an
//!    `R x C` matrix (Hyrax, Wahby et al., S&P 2018; generators hashed
//!    from a label, [`IpaGenerators::commit`]),
//! 2. a degree-3 sum-check reducing `Az ∘ Bz - Cz = 0` to a random point,
//! 3. a degree-2 sum-check reducing the three matrix-vector claims to one
//!    evaluation of the assignment MLE, and
//! 4. a Bulletproofs-style inner-product argument ([`InnerProductProof`])
//!    opening that evaluation: `log C` rounds, two group elements each.
//!
//! Row layout. The padded witness (length `n`, a power of two) is read
//! row-major, `index = row * C + col`, with `log R = floor(log2(n) / 3)`:
//! `R = 1` below `n = 8`, `8 x 256` at 2 048, `16 x 256` at 4 096. Both
//! sides compute `R` from the shape, and a proof with another number of
//! rows is rejected. The evaluation point splits as
//! `eq(r) = eq(r_row) ⊗ eq(r_col)`, so the prover opens the combined row
//! `v = Σ_i eq(r_row)_i · row_i` (`O(n)` field work) against `eq(r_col)`,
//! and the verifier commits to `v` itself as the `R`-point MSM
//! `Σ_i eq(r_row)_i · C_i`.
//!
//! Opening cost. A round needs `L = <a_L, g_R>`, `R = <a_R, g_L>` over
//! generators folded as `g' = x^-1 * (g_L + x^2 * g_R)`. The prover keeps
//! the factors `x^-1` and `x^2` in the MSM scalars and re-materialises the
//! bases only every third round (one shared-scalar 8-block
//! [`zkvc_curve::fold_bases`]), so opening a length-`C` vector costs three
//! rounds of two `C/2`-point MSMs, one `C/8`-output fold, and an eighth
//! of that per later stride. The verifier builds its `s` vector in `O(C)`
//! and checks the opening with one `C`-point MSM over the generators and
//! one `2 log C + 1`-point MSM over the proof's points and `Q`. Generator
//! tables are derived once per process and label.
//!
//! The transcript starts with the shape digest
//! ([`CompiledShape::digest`](zkvc_r1cs::CompiledShape)), so a proof does
//! not verify under another shape that has the same counts and `io`.
//!
//! Deviations from the original Spartan. (a) The verifier evaluates the
//! multilinear extensions of the public R1CS matrices directly (`O(nnz)`
//! field work) instead of via SPARK sparse-polynomial commitments, so
//! verification is linear in the matrix density rather than
//! poly-logarithmic. Prover cost — the quantity the paper's experiments
//! measure — has the same profile as Spartan. (b) The commitments and the
//! opening are **non-hiding**: there is no blinding generator,
//! `prove_assignment` ignores its `rng`, and the sum-check messages are
//! sent in the clear, so a proof is succinct and sound but not
//! zero-knowledge. (c) The row split is `R <= C` with `R ≈ n^(1/3)`
//! (`16 x 256` at 4 096), not Hyrax's square `√n x √n`: each row
//! commitment costs 65 proof bytes, and a square `64 x 64` split at 4 096
//! would send 64 of them instead of 16. The opening is still a Bulletproofs IPA over the
//! combined row, not Hyrax's blinded dot-product proof.
//!
//! ## Example
//!
//! ```rust
//! use zkvc_spartan::SpartanProver;
//! use zkvc_r1cs::{ConstraintSink, ShapeBuilder, SinkExt, WitnessFiller};
//! use zkvc_ff::{Fr, PrimeField};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // x * x = 36 with public 36, written once against the sink trait.
//! fn square(sink: &mut dyn ConstraintSink<Fr>) {
//!     let out = sink.alloc_instance_lazy(|| Fr::from_u64(36));
//!     let x = sink.alloc_witness_lazy(|| Fr::from_u64(6));
//!     sink.enforce(x.into(), x.into(), out.into());
//! }
//!
//! // Shape pass (witness-free) for preprocessing, witness pass for proving.
//! let mut shape = ShapeBuilder::new();
//! square(&mut shape);
//! let shape = shape.finish();
//! let mut witness = WitnessFiller::new();
//! square(&mut witness);
//! let witness = witness.finish_for(&shape);
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let prover = SpartanProver::preprocess_shape(&shape);
//! let proof = prover.prove_assignment(&witness.instance, &witness.witness, &mut rng);
//! assert!(prover.to_verifier().verify(&witness.instance, &proof));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

mod ipa;
mod serial;
mod snark;
pub mod sumcheck;

pub use ipa::{InnerProductProof, IpaGenerators};
pub use serial::SPARTAN_PROOF_VERSION;
pub use snark::{SpartanProof, SpartanProver, SpartanVerifier};
