//! # zkvc-curve
//!
//! The elliptic-curve layer of the zkVC stack: the supersingular curve
//! `E: y^2 = x^3 + x` over the 252-bit base field `Fq`, its prime-order
//! subgroup `G1` (order `r`, the scalar field), the Type-1 (symmetric)
//! reduced Tate pairing into `Fq2`, and Pippenger multi-scalar
//! multiplication.
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
pub use msm::{fold_bases, msm, msm_serial, msm_window_parallel};
pub use pairing::{pairing, pairing_miller_loop, Gt};
