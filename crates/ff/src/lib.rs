//! # zkvc-ff
//!
//! Finite-field arithmetic, univariate polynomials, radix-2 FFT evaluation
//! domains and multilinear extensions — the algebraic substrate underneath
//! every proof system in the zkVC workspace.
//!
//! The two concrete prime fields are generated by `scripts/gen_params.py`:
//! a ~246-bit scalar field [`Fr`] with 2-adicity 32 (so circuits
//! of up to 2^32 constraints can be interpolated with radix-2 FFTs) and a
//! 252-bit base field [`Fq`] for the pairing-friendly curve.
//!
//! ## Example
//!
//! ```rust
//! use zkvc_ff::{Field, PrimeField, fields::Fr};
//!
//! let a = Fr::from_u64(7);
//! let b = a.inverse().unwrap();
//! assert_eq!(a * b, Fr::one());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod arith;
pub mod cancel;
pub mod codec;
pub mod fp;
pub mod par;
pub mod traits;

pub mod fields;
pub mod poly;

pub use fields::{Fq, Fq2, Fr};
pub use fp::{Fp, FpParams};
pub use poly::{DensePolynomial, EvaluationDomain, MultilinearPolynomial, SparsePolynomial};
pub use traits::{batch_inverse, Field, PrimeField};
