//! # zkvc-curve
//!
//! The elliptic-curve layer of the zkVC stack: the supersingular curve
//! `E: y^2 = x^3 + x` over the 252-bit base field `Fq`, its prime-order
//! subgroup `G1` (order `r`, the scalar field), the Type-1 (symmetric)
//! reduced Tate pairing into `Fq2`, Pippenger multi-scalar multiplication
//! ([`msm`]) and two lock-step batch-affine kernels beside it:
//! [`fold_bases`] (many bases, shared scalars — the IPA generator fold) and
//! [`fixed_base_mul`] (one base, many scalars — the Groth16 setup).
//!
//! The fixed-base kernel is what makes a trusted setup cheap: every CRS
//! element is a multiple of the same generator, so
//! [`G1Affine::generator_table`] holds, once per process, the 31 x 128
//! affine multiples `d * 2^(8w) * G` (signed radix-2^8 digits, ~280 KB,
//! ~2 ms to build) and each key element is then at most 31 batch-affine
//! additions of table entries — no doublings, no final normalisation, and
//! long slices split across threads. Scalar multiplication by
//! double-and-add (`G1Projective * Fr`) stays the reference the kernels
//! are tested against.
//!
//! The pairing ([`pairing`], and [`pairing_product`] for several pairs
//! under one final exponentiation) runs an inversion-free Miller loop: with
//! embedding degree 2 every vertical line and every projective scale factor
//! lies in `Fq` and is erased by the final exponentiation (argument in
//! `pairing.rs`).
//!
//! This substitutes for libsnark's ALT_BN128 backend used by the paper: the
//! cost profile of Groth16 — MSMs over the group plus a constant number of
//! pairings — is preserved, while the whole tower stays at `Fq2` instead of
//! `Fq12`.
//!
//! ## Example
//!
//! ```rust
//! use zkvc_curve::{pairing, G1Affine, G1Projective};
//! use zkvc_ff::{Fr, PrimeField, Field};
//!
//! let g = G1Projective::generator();
//! let a = Fr::from_u64(6);
//! let b = Fr::from_u64(7);
//! // e(aG, bG) == e(G, G)^(ab) == e(abG, G)
//! let lhs = pairing(&(g * a).to_affine(), &(g * b).to_affine());
//! let rhs = pairing(&(g * (a * b)).to_affine(), &G1Affine::generator());
//! assert_eq!(lhs, rhs);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

mod g1;
mod group;
mod msm;
mod pairing;
pub mod tune;

pub use g1::{G1Affine, G1Projective};
pub use group::{AffinePoint, CurveGroup};
pub use msm::{fixed_base_mul, fold_bases, msm, msm_serial, msm_window_parallel, FixedBaseTable};
pub use pairing::{pairing, pairing_product, Gt};
