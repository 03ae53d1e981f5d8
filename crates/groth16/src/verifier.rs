//! The Groth16 verifier: one small MSM over the public inputs plus one
//! three-pair pairing product compared against `e(alpha, beta)`, which is
//! cached in the verification key.

use zkvc_curve::{msm, pairing_product, G1Projective};
use zkvc_ff::Fr;

use crate::keys::{Proof, VerifyingKey};

/// Aggregates the public inputs into the single group element
/// `sum_i x_i * gamma_abc_i` (with `x_0 = 1`).
///
/// # Panics
/// Panics if the number of public inputs does not match the verification
/// key.
pub fn prepare_inputs(vk: &VerifyingKey, public_inputs: &[Fr]) -> G1Projective {
    assert_eq!(
        public_inputs.len() + 1,
        vk.gamma_abc_g1.len(),
        "public input count does not match the verification key"
    );
    let mut scalars = Vec::with_capacity(public_inputs.len() + 1);
    scalars.push(zkvc_ff::Field::one());
    scalars.extend_from_slice(public_inputs);
    msm(&vk.gamma_abc_g1, &scalars)
}

/// Verifies a proof against the public inputs.
///
/// Checks the Groth16 equation
/// `e(A, B) = e(alpha, beta) * e(sum_i x_i gamma_abc_i, gamma) * e(C, delta)`
/// as `e(A, B) * e(-acc, gamma) * e(-C, delta) = e(alpha, beta)`: one shared
/// Miller loop and one final exponentiation. Proof points need only be on
/// the curve; a degenerate product (see `zkvc_curve`'s pairing docs) equals
/// no cached `e(alpha, beta)` and is rejected.
pub fn verify(vk: &VerifyingKey, public_inputs: &[Fr], proof: &Proof) -> bool {
    if public_inputs.len() + 1 != vk.gamma_abc_g1.len() {
        return false;
    }
    if !proof.a.is_on_curve() || !proof.b.is_on_curve() || !proof.c.is_on_curve() {
        return false;
    }
    let acc = prepare_inputs(vk, public_inputs).to_affine();

    pairing_product(&[
        (proof.a, proof.b),
        (acc.neg_point(), vk.gamma_g2),
        (proof.c.neg_point(), vk.delta_g2),
    ]) == vk.alpha_beta_gt
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{prove, setup, verify_three_pairings};
    use crate::Proof;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use zkvc_ff::{Field, PrimeField};
    use zkvc_r1cs::ConstraintSystem;

    #[test]
    fn wrong_input_count_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut cs = ConstraintSystem::<Fr>::new();
        let out = cs.alloc_instance(Fr::from_u64(4));
        let x = cs.alloc_witness(Fr::from_u64(2));
        cs.enforce(x.into(), x.into(), out.into());
        let (pk, vk) = setup(&cs, &mut rng);
        let proof = prove(&pk, &cs, &mut rng);
        assert!(verify(&vk, &[Fr::from_u64(4)], &proof));
        // too many / too few public inputs
        assert!(!verify(&vk, &[Fr::from_u64(4), Fr::from_u64(1)], &proof));
        assert!(!verify(&vk, &[], &proof));
    }

    #[test]
    fn multi_instance_circuit() {
        // public (p, q), witness (a, b) with a*b = p and a+b = q
        let mut rng = StdRng::seed_from_u64(6);
        let mut cs = ConstraintSystem::<Fr>::new();
        let p = cs.alloc_instance(Fr::from_u64(21));
        let q = cs.alloc_instance(Fr::from_u64(10));
        let a = cs.alloc_witness(Fr::from_u64(3));
        let b = cs.alloc_witness(Fr::from_u64(7));
        cs.enforce(a.into(), b.into(), p.into());
        cs.enforce(
            zkvc_r1cs::LinearCombination::from(a) + zkvc_r1cs::LinearCombination::from(b),
            zkvc_r1cs::LinearCombination::constant(Fr::one()),
            q.into(),
        );
        assert!(cs.is_satisfied());
        let (pk, vk) = setup(&cs, &mut rng);
        let proof = prove(&pk, &cs, &mut rng);
        assert!(verify(&vk, &[Fr::from_u64(21), Fr::from_u64(10)], &proof));
        // swapped public inputs must fail
        assert!(!verify(&vk, &[Fr::from_u64(10), Fr::from_u64(21)], &proof));
    }

    #[test]
    fn product_verdict_matches_three_pairings() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut cs = ConstraintSystem::<Fr>::new();
        let out = cs.alloc_instance(Fr::from_u64(9));
        let x = cs.alloc_witness(Fr::from_u64(3));
        cs.enforce(x.into(), x.into(), out.into());
        let (pk, vk) = setup(&cs, &mut rng);
        let Proof { a, b, c } = prove(&pk, &cs, &mut rng);
        // (0,0), the on-curve point the affine Miller loop could not pair
        let two_torsion = zkvc_curve::G1Affine {
            x: zkvc_ff::Fq::zero(),
            y: zkvc_ff::Fq::zero(),
            infinity: false,
        };
        let cases = [
            (true, Fr::from_u64(9), Proof { a, b, c }),
            (false, Fr::from_u64(10), Proof { a, b, c }),
            (false, Fr::from_u64(9), Proof { a: c, b, c: a }),
            // the pairing is symmetric, so A and B may trade places
            (true, Fr::from_u64(9), Proof { a: b, b: a, c }),
            (
                false,
                Fr::from_u64(9),
                Proof {
                    a: a.neg_point(),
                    b,
                    c,
                },
            ),
            (
                false,
                Fr::from_u64(9),
                Proof {
                    a,
                    b,
                    c: c.neg_point(),
                },
            ),
            (
                false,
                Fr::from_u64(9),
                Proof {
                    a,
                    b: two_torsion,
                    c,
                },
            ),
            (
                false,
                Fr::from_u64(9),
                Proof {
                    a: two_torsion,
                    b: two_torsion,
                    c: two_torsion,
                },
            ),
        ];
        for (i, (expected, input, proof)) in cases.iter().enumerate() {
            assert_eq!(verify(&vk, &[*input], proof), *expected, "case {i}");
            assert_eq!(
                verify_three_pairings(&vk, &[*input], proof),
                *expected,
                "case {i}"
            );
        }
    }
}
