//! # zkvc-spartan
//!
//! A Spartan-style transparent SNARK for R1CS (Setty, CRYPTO 2020),
//! used as the `zkVC-S` backend of the paper. No trusted setup: the proof
//! consists of
//!
//! 1. a vector commitment `<w, G>` to the witness
//!    ([`IpaGenerators::commit`], generators hashed from a label),
//! 2. a degree-3 sum-check reducing `Az ∘ Bz - Cz = 0` to a random point,
//! 3. a degree-2 sum-check reducing the three matrix-vector claims to one
//!    evaluation of the assignment MLE, and
//! 4. a Bulletproofs-style inner-product argument ([`InnerProductProof`])
//!    opening that evaluation against the witness commitment: `log n`
//!    rounds, two group elements each.
//!
//! Opening cost. A round needs `L = <a_L, g_R>`, `R = <a_R, g_L>` over
//! generators folded as `g' = x^-1 * (g_L + x^2 * g_R)`. The prover keeps
//! the factors `x^-1` and `x^2` in the MSM scalars and re-materialises the
//! bases only every third round (one shared-scalar 8-block
//! [`zkvc_curve::fold_bases`]), so opening a length-`n` vector costs three
//! rounds of two `n/2`-point MSMs, one `n/8`-output fold, and an
//! eighth of that per later stride. In the first three rounds the MSM
//! scalars would be the witness mixed with challenges, full width. The
//! prover instead splits the witness once into narrow entries (below
//! `2^32`) and a wide residual. Round `r`'s narrow share is then `2·4^r`
//! MSMs of `n/2^(r+1)` points over the raw entries, and
//! [`zkvc_curve::msm`] stops at their highest set bit. A quantised
//! witness of `b`-bit values pays `b/8` windows per point instead of 31.
//! The residual, the partial sums and `Q` go into one short MSM, which
//! gives the same `L` and `R`. The fold's outputs are split across
//! threads once there are at least 256 per thread (`n = 4 096` splits in
//! two), with the same bytes on any host. The verifier builds its `s`
//! vector in `O(n)` and checks the opening with one `n`-point MSM over the
//! generators and one `2 log n + 1`-point MSM over the proof's points and
//! `Q`. Generator tables are derived once per process and label.
//!
//! Deviations from the original Spartan. (a) The verifier evaluates the
//! multilinear extensions of the public R1CS matrices directly (`O(nnz)`
//! field work) instead of via SPARK sparse-polynomial commitments, so
//! verification is linear in the matrix density rather than
//! poly-logarithmic. Prover cost — the quantity the paper's experiments
//! measure — has the same profile as Spartan. (b) The commitment and its
//! opening are **non-hiding**: there is no blinding generator,
//! `prove_assignment` ignores its `rng`, and the sum-check messages are
//! sent in the clear, so a proof is succinct and sound but not
//! zero-knowledge. (c) The witness is committed as one length-`n` vector
//! and opened with a linear-size IPA, not as a `√n x √n` matrix.
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
pub use snark::{SpartanProof, SpartanProver, SpartanVerifier};
