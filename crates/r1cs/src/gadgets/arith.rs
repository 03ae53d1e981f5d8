//! Arithmetic helper gadgets: multiplication, inversion, zero / equality
//! tests, conditional selection and product-of-many-terms.
//!
//! Every gadget is written against [`ConstraintSink`], so the same code
//! drives the single-pass reference sink, the witness-free shape pass and the
//! witness pass (values are computed only when the sink carries them).

use zkvc_ff::Field;

use crate::lc::{LinearCombination, Variable};
use crate::sink::{ConstraintSink, SinkExt};

/// Allocates `a * b` as a new witness and enforces the product constraint.
pub fn mul<F: Field, S: ConstraintSink<F> + ?Sized>(
    cs: &mut S,
    a: &LinearCombination<F>,
    b: &LinearCombination<F>,
) -> Variable {
    let val = cs.lc_product(a, b);
    let out = cs.alloc_witness_opt(val);
    cs.enforce_named(a.clone(), b.clone(), out.into(), "mul");
    out
}

/// Allocates the multiplicative inverse of `a` and enforces `a * inv = 1`.
///
/// If the assigned value is zero the inverse witness is set to zero and the
/// resulting system is unsatisfiable — callers that allow zero should use
/// [`is_zero`] first.
pub fn inverse<F: Field, S: ConstraintSink<F> + ?Sized>(
    cs: &mut S,
    a: &LinearCombination<F>,
) -> Variable {
    let inv_val = cs
        .lc_value(a)
        .map(|val| val.inverse().unwrap_or_else(F::zero));
    let inv = cs.alloc_witness_opt(inv_val);
    cs.enforce_named(
        a.clone(),
        inv.into(),
        LinearCombination::constant(F::one()),
        "inverse",
    );
    inv
}

/// Returns a boolean variable that is 1 iff `a == 0`.
///
/// Uses the classic trick: allocate `inv`, enforce `a * inv = 1 - b` and
/// `a * b = 0`.
pub fn is_zero<F: Field, S: ConstraintSink<F> + ?Sized>(
    cs: &mut S,
    a: &LinearCombination<F>,
) -> Variable {
    let val = cs.lc_value(a);
    let b = cs.alloc_witness_opt(val.map(|v| if v.is_zero() { F::one() } else { F::zero() }));
    let inv = cs.alloc_witness_opt(val.map(|v| v.inverse().unwrap_or_else(F::zero)));
    // a * inv = 1 - b
    cs.enforce_named(
        a.clone(),
        inv.into(),
        LinearCombination::constant(F::one()) - LinearCombination::from(b),
        "is_zero: a*inv",
    );
    // a * b = 0
    cs.enforce_named(
        a.clone(),
        b.into(),
        LinearCombination::zero(),
        "is_zero: a*b",
    );
    // The two rows jointly force b ∈ {0, 1} without a literal
    // x·(x−1) = 0 row: a = 0 gives b = 1 (first row), a ≠ 0 gives b = 0
    // (second row).
    cs.provide_boolean(b);
    b
}

/// Returns a boolean variable that is 1 iff `a == b`.
pub fn is_equal<F: Field, S: ConstraintSink<F> + ?Sized>(
    cs: &mut S,
    a: &LinearCombination<F>,
    b: &LinearCombination<F>,
) -> Variable {
    is_zero(cs, &(a.clone() - b))
}

/// Returns `cond ? x : y` as a new witness, where `cond` must already be
/// constrained boolean. Adds a single constraint
/// `cond * (x - y) = out - y`.
pub fn select<F: Field, S: ConstraintSink<F> + ?Sized>(
    cs: &mut S,
    cond: Variable,
    x: &LinearCombination<F>,
    y: &LinearCombination<F>,
) -> Variable {
    let out_val = cs.var_value(cond).map(|c| {
        if c == F::one() {
            cs.lc_value(x).expect("sink carries values")
        } else {
            cs.lc_value(y).expect("sink carries values")
        }
    });
    let out = cs.alloc_witness_opt(out_val);
    cs.expect_boolean(cond);
    cs.enforce_named(
        cond.into(),
        x.clone() - y,
        LinearCombination::from(out) - y,
        "select",
    );
    out
}

/// Enforces that the product of all `terms` is zero (i.e. at least one term
/// vanishes). This is the membership check the paper uses to verify
/// `x_max ∈ x`: `prod_j (x_max - x_j) = 0`.
///
/// Uses a chain of `terms.len() - 1` multiplication constraints.
pub fn enforce_product_is_zero<F: Field, S: ConstraintSink<F> + ?Sized>(
    cs: &mut S,
    terms: &[LinearCombination<F>],
) {
    if terms.is_empty() {
        return;
    }
    if terms.len() == 1 {
        cs.enforce_zero(terms[0].clone());
        return;
    }
    if terms.len() == 2 {
        // directly enforce t0 * t1 = 0
        cs.enforce_named(
            terms[0].clone(),
            terms[1].clone(),
            LinearCombination::zero(),
            "product_zero",
        );
        return;
    }
    // acc_1 = t0 * t1; acc_i = acc_{i-1} * t_i; last product must be 0.
    let mut acc_val = cs.lc_product(&terms[0], &terms[1]);
    let v = cs.alloc_witness_opt(acc_val);
    cs.enforce_named(
        terms[0].clone(),
        terms[1].clone(),
        v.into(),
        "product_zero step",
    );
    let mut acc: LinearCombination<F> = v.into();
    for (i, t) in terms.iter().enumerate().skip(2) {
        acc_val = acc_val.and_then(|a| cs.lc_value(t).map(|tv| a * tv));
        if i + 1 == terms.len() {
            cs.enforce_named(
                acc,
                t.clone(),
                LinearCombination::zero(),
                "product_zero final",
            );
            return;
        }
        let v = cs.alloc_witness_opt(acc_val);
        cs.enforce_named(acc, t.clone(), v.into(), "product_zero step");
        acc = v.into();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cs::ConstraintSystem;
    use zkvc_ff::{Fr, PrimeField};

    #[test]
    fn mul_gadget() {
        let mut cs = ConstraintSystem::<Fr>::new();
        let a = cs.alloc_witness(Fr::from_u64(6));
        let b = cs.alloc_witness(Fr::from_u64(7));
        let c = mul(&mut cs, &a.into(), &b.into());
        assert_eq!(cs.value(c), Fr::from_u64(42));
        assert!(cs.is_satisfied());
    }

    #[test]
    fn inverse_gadget() {
        let mut cs = ConstraintSystem::<Fr>::new();
        let a = cs.alloc_witness(Fr::from_u64(5));
        let inv = inverse(&mut cs, &a.into());
        assert_eq!(cs.value(inv) * Fr::from_u64(5), Fr::one());
        assert!(cs.is_satisfied());

        // inverse of zero cannot be satisfied
        let mut cs = ConstraintSystem::<Fr>::new();
        let z = cs.alloc_witness(Fr::zero());
        inverse(&mut cs, &z.into());
        assert!(!cs.is_satisfied());
    }

    #[test]
    fn is_zero_gadget() {
        let mut cs = ConstraintSystem::<Fr>::new();
        let z = cs.alloc_witness(Fr::zero());
        let nz = cs.alloc_witness(Fr::from_u64(11));
        let b1 = is_zero(&mut cs, &z.into());
        let b2 = is_zero(&mut cs, &nz.into());
        assert_eq!(cs.value(b1), Fr::one());
        assert_eq!(cs.value(b2), Fr::zero());
        assert!(cs.is_satisfied());
    }

    #[test]
    fn is_zero_soundness_against_lying_prover() {
        // A prover who claims a non-zero value is zero cannot satisfy the
        // constraints no matter what inverse value they pick.
        let mut cs = ConstraintSystem::<Fr>::new();
        let nz = cs.alloc_witness(Fr::from_u64(11));
        let b = is_zero(&mut cs, &nz.into());
        assert!(cs.is_satisfied());
        // tamper: claim b = 1
        let mut w = cs.witness_assignment().to_vec();
        let crate::lc::Variable::Witness(b_index) = b else {
            unreachable!()
        };
        w[b_index] = Fr::one();
        cs.set_witness_assignment(w);
        assert!(!cs.is_satisfied());
    }

    #[test]
    fn is_equal_gadget() {
        let mut cs = ConstraintSystem::<Fr>::new();
        let a = cs.alloc_witness(Fr::from_u64(9));
        let b = cs.alloc_witness(Fr::from_u64(9));
        let c = cs.alloc_witness(Fr::from_u64(10));
        let eq = is_equal(&mut cs, &a.into(), &b.into());
        let ne = is_equal(&mut cs, &a.into(), &c.into());
        assert_eq!(cs.value(eq), Fr::one());
        assert_eq!(cs.value(ne), Fr::zero());
        assert!(cs.is_satisfied());
    }

    #[test]
    fn select_gadget() {
        let mut cs = ConstraintSystem::<Fr>::new();
        let t = crate::gadgets::alloc_bit(&mut cs, true);
        let f = crate::gadgets::alloc_bit(&mut cs, false);
        let x = cs.alloc_witness(Fr::from_u64(100));
        let y = cs.alloc_witness(Fr::from_u64(200));
        let s1 = select(&mut cs, t, &x.into(), &y.into());
        let s2 = select(&mut cs, f, &x.into(), &y.into());
        assert_eq!(cs.value(s1), Fr::from_u64(100));
        assert_eq!(cs.value(s2), Fr::from_u64(200));
        assert!(cs.is_satisfied());
    }

    #[test]
    fn product_is_zero() {
        // one of the terms is zero -> satisfiable
        let mut cs = ConstraintSystem::<Fr>::new();
        let vals = [3u64, 0, 7, 9];
        let lcs: Vec<LinearCombination<Fr>> = vals
            .iter()
            .map(|v| cs.alloc_witness(Fr::from_u64(*v)).into())
            .collect();
        enforce_product_is_zero(&mut cs, &lcs);
        assert!(cs.is_satisfied());

        // no zero term -> unsatisfiable
        let mut cs = ConstraintSystem::<Fr>::new();
        let lcs: Vec<LinearCombination<Fr>> = [3u64, 2, 7, 9]
            .iter()
            .map(|v| cs.alloc_witness(Fr::from_u64(*v)).into())
            .collect();
        enforce_product_is_zero(&mut cs, &lcs);
        assert!(!cs.is_satisfied());
    }

    #[test]
    fn product_is_zero_short_lists() {
        // single zero term
        let mut cs = ConstraintSystem::<Fr>::new();
        let z: LinearCombination<Fr> = cs.alloc_witness(Fr::zero()).into();
        enforce_product_is_zero(&mut cs, std::slice::from_ref(&z));
        assert!(cs.is_satisfied());
        // two terms, one zero
        let mut cs = ConstraintSystem::<Fr>::new();
        let a: LinearCombination<Fr> = cs.alloc_witness(Fr::from_u64(5)).into();
        let z: LinearCombination<Fr> = cs.alloc_witness(Fr::zero()).into();
        enforce_product_is_zero(&mut cs, &[a, z]);
        assert!(cs.is_satisfied());
        // empty list is a no-op
        let mut cs = ConstraintSystem::<Fr>::new();
        enforce_product_is_zero::<Fr, _>(&mut cs, &[]);
        assert!(cs.is_satisfied());
        assert_eq!(cs.num_constraints(), 0);
    }

    #[test]
    fn gadgets_are_pass_oblivious() {
        // The same gadget calls produce the same structure on a shape pass
        // (no values) as on the single pass, and the witness pass matches.
        use crate::sink::{shape_digest, ShapeBuilder, WitnessFiller};

        fn emit(sink: &mut dyn ConstraintSink<Fr>) {
            let a = sink.alloc_witness_lazy(|| Fr::from_u64(6));
            let b = sink.alloc_witness_lazy(|| Fr::from_u64(7));
            let p = mul(sink, &a.into(), &b.into());
            inverse(sink, &b.into());
            let z = is_zero(
                sink,
                &(LinearCombination::from(p) - LinearCombination::from(p)),
            );
            select(sink, z, &a.into(), &b.into());
            enforce_product_is_zero(
                sink,
                &[
                    LinearCombination::from(a),
                    LinearCombination::from(a) - LinearCombination::from(a),
                    LinearCombination::from(b),
                ],
            );
        }

        let mut cs = ConstraintSystem::<Fr>::new();
        emit(&mut cs);
        assert!(cs.is_satisfied());

        let mut sb = ShapeBuilder::<Fr>::new();
        emit(&mut sb);
        let shape = sb.finish();
        assert_eq!(shape.digest, shape_digest(&cs));

        let mut wf = WitnessFiller::<Fr>::new();
        emit(&mut wf);
        let w = wf.finish_for(&shape);
        assert_eq!(w.full(), cs.full_assignment());
        assert!(shape.is_satisfied(&w));
    }
}
