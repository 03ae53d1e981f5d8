//! How this crate's unit tests hand their hand-built single-pass
//! [`ConstraintSystem`]s to the shape/assignment entry points, and the
//! three-pairing verdict `verify` is checked against.

use std::sync::Arc;

use rand::Rng;
use zkvc_curve::pairing;
use zkvc_ff::Fr;
use zkvc_r1cs::{CompiledShape, ConstraintSystem};

use crate::{prepare_inputs, prove_assignment, setup_shape, Proof, ProvingKey, VerifyingKey};

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

/// The verdict as `verify` reached it before the pairing product: three
/// separate pairings, each with its own final exponentiation, against the
/// cached fourth. The oracle for the product form.
pub(crate) fn verify_three_pairings(
    vk: &VerifyingKey,
    public_inputs: &[Fr],
    proof: &Proof,
) -> bool {
    let acc = prepare_inputs(vk, public_inputs).to_affine();
    let lhs = pairing(&proof.a, &proof.b);
    let rhs = vk.alpha_beta_gt + pairing(&acc, &vk.gamma_g2) + pairing(&proof.c, &vk.delta_g2);
    lhs == rhs
}
