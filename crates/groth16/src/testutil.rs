//! How this crate's unit tests hand their hand-built single-pass
//! [`ConstraintSystem`]s to the shape/assignment entry points.

use std::sync::Arc;

use rand::Rng;
use zkvc_ff::Fr;
use zkvc_r1cs::{CompiledShape, ConstraintSystem};

use crate::{prove_assignment, setup_shape, Proof, ProvingKey, VerifyingKey};

pub(crate) fn setup<R: Rng + ?Sized>(
    cs: &ConstraintSystem<Fr>,
    rng: &mut R,
) -> (ProvingKey, VerifyingKey) {
    setup_shape(Arc::new(CompiledShape::from_cs(cs)), rng)
}

pub(crate) fn prove<R: Rng + ?Sized>(
    pk: &ProvingKey,
    cs: &ConstraintSystem<Fr>,
    rng: &mut R,
) -> Proof {
    prove_assignment(pk, &cs.full_assignment(), rng)
}
