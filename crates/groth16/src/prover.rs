//! The Groth16 prover.
//!
//! Cost profile: one QAP quotient computation (three iFFTs + three coset
//! FFTs over the constraint domain) and four multi-scalar multiplications
//! over the CRS (`A`, `B`, `H` and `L` queries). This is exactly the cost
//! the paper's CRPC/PSQ optimisations shrink, by reducing the number of
//! constraints (FFT size, `H` length) and the witness/wire count (MSM
//! lengths).

use rand::Rng;
use zkvc_curve::msm;
use zkvc_ff::{Field, Fr};
use zkvc_qap::compute_h_coefficients_in;

use crate::keys::{Proof, ProvingKey};

/// Produces a proof from a flat assignment `z = (1, instance, witness)`
/// against the shape compiled into the proving key. This is the whole
/// prove-many hot path: no constraint synthesis, no matrix extraction —
/// just the QAP quotient FFTs and the four MSMs.
///
/// # Panics
/// Panics if `z` does not match the key's variable count or does not
/// satisfy the compiled constraints (the quotient division would not be
/// exact).
pub fn prove_assignment<R: Rng + ?Sized>(pk: &ProvingKey, z: &[Fr], rng: &mut R) -> Proof {
    assert_eq!(
        pk.a_query.len(),
        z.len(),
        "assignment length does not match the proving key"
    );
    let matrices = &pk.shape.matrices;

    // Quotient polynomial H(X), over the domain cached in the proving key
    // (twiddle tables are built once per key, not once per proof).
    let h = compute_h_coefficients_in(&pk.h_domain, matrices, z);

    // Zero-knowledge blinders.
    let r = Fr::random(rng);
    let s = Fr::random(rng);

    let num_instance = pk.num_instance;
    let witness = &z[num_instance + 1..];

    // A = alpha + sum_i z_i A_i(tau) + r * delta
    let a_acc = msm(&pk.a_query, z);
    let a = a_acc + pk.vk.alpha_g1.to_projective() + pk.delta_g1.to_projective() * r;

    // B = beta + sum_i z_i B_i(tau) + s * delta. `G2 = G1` on this curve,
    // so the G1 copy of B that C needs is the same group element: one MSM.
    let b_acc = msm(&pk.b_g2_query, z);
    let b = b_acc + pk.vk.beta_g2.to_projective() + pk.vk.delta_g2.to_projective() * s;

    // C = sum_w z_w L_w + sum_i h_i [tau^i Z/delta] + s*A + r*B - r*s*delta
    let l_acc = msm(&pk.l_query, witness);
    let h_acc = msm(&pk.h_query[..h.len()], &h);
    let c = l_acc + h_acc + a * s + b * r - pk.delta_g1.to_projective() * (r * s);

    Proof {
        a: a.to_affine(),
        b: b.to_affine(),
        c: c.to_affine(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{prove, setup};
    use crate::verifier::verify;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use zkvc_ff::PrimeField;
    use zkvc_r1cs::{ConstraintSystem, LinearCombination};

    /// Build the cubic circuit x^3 + x + 5 = out.
    fn cubic(x_val: u64) -> ConstraintSystem<Fr> {
        let out_val = x_val * x_val * x_val + x_val + 5;
        let mut cs = ConstraintSystem::<Fr>::new();
        let out = cs.alloc_instance(Fr::from_u64(out_val));
        let x = cs.alloc_witness(Fr::from_u64(x_val));
        let x2 = cs.alloc_witness(Fr::from_u64(x_val * x_val));
        let x3 = cs.alloc_witness(Fr::from_u64(x_val * x_val * x_val));
        cs.enforce(x.into(), x.into(), x2.into());
        cs.enforce(x2.into(), x.into(), x3.into());
        cs.enforce(
            LinearCombination::from(x3)
                + LinearCombination::from(x)
                + LinearCombination::constant(Fr::from_u64(5)),
            LinearCombination::constant(Fr::one()),
            out.into(),
        );
        cs
    }

    #[test]
    fn prove_and_verify_roundtrip() {
        let mut rng = StdRng::seed_from_u64(42);
        let cs = cubic(3);
        let (pk, vk) = setup(&cs, &mut rng);
        let proof = prove(&pk, &cs, &mut rng);
        assert!(verify(&vk, cs.instance_assignment(), &proof));
    }

    #[test]
    fn verification_rejects_wrong_public_input() {
        let mut rng = StdRng::seed_from_u64(43);
        let cs = cubic(3);
        let (pk, vk) = setup(&cs, &mut rng);
        let proof = prove(&pk, &cs, &mut rng);
        assert!(!verify(&vk, &[Fr::from_u64(36)], &proof));
    }

    #[test]
    fn verification_rejects_tampered_proof() {
        let mut rng = StdRng::seed_from_u64(44);
        let cs = cubic(3);
        let (pk, vk) = setup(&cs, &mut rng);
        let mut proof = prove(&pk, &cs, &mut rng);
        proof.a = (proof.a.to_projective() + zkvc_curve::G1Projective::generator()).to_affine();
        assert!(!verify(&vk, cs.instance_assignment(), &proof));
    }

    #[test]
    fn proofs_are_randomised_but_all_verify() {
        let mut rng = StdRng::seed_from_u64(45);
        let cs = cubic(5);
        let (pk, vk) = setup(&cs, &mut rng);
        let p1 = prove(&pk, &cs, &mut rng);
        let p2 = prove(&pk, &cs, &mut rng);
        // zero-knowledge blinding makes proofs distinct
        assert_ne!(p1, p2);
        assert!(verify(&vk, cs.instance_assignment(), &p1));
        assert!(verify(&vk, cs.instance_assignment(), &p2));
    }

    #[test]
    fn different_witnesses_same_statement() {
        // x^2 = 49 has two witnesses (7 and -7); both must prove.
        let mut rng = StdRng::seed_from_u64(46);
        let make = |x: Fr| {
            let mut cs = ConstraintSystem::<Fr>::new();
            let out = cs.alloc_instance(Fr::from_u64(49));
            let xv = cs.alloc_witness(x);
            cs.enforce(xv.into(), xv.into(), out.into());
            cs
        };
        let cs = make(Fr::from_u64(7));
        let (pk, vk) = setup(&cs, &mut rng);
        let p1 = prove(&pk, &cs, &mut rng);
        let cs2 = make(-Fr::from_u64(7));
        let p2 = prove(&pk, &cs2, &mut rng);
        assert!(verify(&vk, &[Fr::from_u64(49)], &p1));
        assert!(verify(&vk, &[Fr::from_u64(49)], &p2));
    }
}
