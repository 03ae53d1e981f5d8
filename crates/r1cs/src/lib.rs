//! # zkvc-r1cs
//!
//! A Rank-1 Constraint System (R1CS) implementation with the gadget library
//! needed by zkVC's matrix-multiplication circuits and non-linear
//! approximations: boolean constraints, bit decomposition, comparisons,
//! equality/zero tests, selection and range checks.
//!
//! An R1CS instance is a list of constraints `<A_i, z> * <B_i, z> = <C_i, z>`
//! over the full assignment `z = (1, instance, witness)`. The paper's CRPC
//! and PSQ optimisations are expressed purely at this layer — they change
//! *which* constraints are generated for a matrix multiplication, not the
//! proof systems underneath.
//!
//! ## Example
//!
//! ```rust
//! use zkvc_r1cs::{ConstraintSystem, LinearCombination};
//! use zkvc_ff::{Fr, PrimeField};
//!
//! // Prove knowledge of x such that x * x = 9.
//! let mut cs = ConstraintSystem::<Fr>::new();
//! let nine = cs.alloc_instance(Fr::from_u64(9));
//! let x = cs.alloc_witness(Fr::from_u64(3));
//! cs.enforce(
//!     LinearCombination::from(x),
//!     LinearCombination::from(x),
//!     LinearCombination::from(nine),
//! );
//! assert!(cs.is_satisfied());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

mod analyze;
mod cs;
mod encode;
mod lc;
mod matrices;
mod sink;

pub mod gadgets;

pub use analyze::{Finding, Rule, Severity, ShapeReport};
pub use cs::{ConstraintSystem, SynthesisError};
pub use encode::{decode_shape, decode_shape_expecting, encode_shape, SHAPE_ENCODING_VERSION};
pub use lc::{LinearCombination, Variable};
pub use matrices::{R1csMatrices, SparseMatrix};
pub use sink::{
    shape_digest, CompiledShape, ConstraintSink, ShapeBuilder, SinkExt, WitnessAssignment,
    WitnessFiller,
};
