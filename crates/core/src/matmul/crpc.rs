//! Constraint-Reduced Polynomial Circuits (CRPC), with and without PSQ.
//!
//! CRPC folds the whole matrix multiplication into the single polynomial
//! identity (paper §III-A):
//!
//! ```text
//!   sum_{j<b} sum_{i<a} Z^{ib+j} y_ij
//!     = sum_{k<n} ( sum_{i<a} Z^{ib} x_ik ) * ( sum_{j<b} Z^j w_kj )
//! ```
//!
//! Because the coefficients `Z^m` are field constants of the linear
//! combinations, each `k`-term costs exactly one multiplication constraint:
//! `n` constraints instead of `a*b*n`. The products are accumulated either
//! with one extra long-addition constraint (plain CRPC, `n + 1` constraints)
//! or with PSQ prefix sums folded into the product constraints (`n`
//! constraints — the full zkVC encoding).
//!
//! Emission is written against [`ConstraintSink`]; the challenge powers
//! `Z^m` are *structural* (they live in the constraint coefficients), so
//! the shape pass computes them while all witness values stay unevaluated.

use zkvc_ff::{Field, Fr};
use zkvc_r1cs::{ConstraintSink, LinearCombination, SinkExt};

use super::powers_of;

/// Allocates the output matrix as witness variables holding the honest
/// product values, and returns (y LCs, folded-output LC `sum Z^{ib+j} y_ij`).
fn allocate_outputs<S: ConstraintSink<Fr> + ?Sized>(
    cs: &mut S,
    x: &[Vec<LinearCombination<Fr>>],
    w: &[Vec<LinearCombination<Fr>>],
    zp: &[Fr],
) -> (Vec<Vec<LinearCombination<Fr>>>, LinearCombination<Fr>) {
    let a = x.len();
    let n = w.len();
    let b = w[0].len();
    let mut y = Vec::with_capacity(a);
    let mut folded = LinearCombination::zero();
    for (i, xi) in x.iter().enumerate() {
        let mut row = Vec::with_capacity(b);
        for j in 0..b {
            let val = cs.wants_values().then(|| {
                let mut acc = Fr::zero();
                for (k, wk) in w.iter().enumerate().take(n) {
                    acc += cs.lc_value(&xi[k]).expect("sink carries values")
                        * cs.lc_value(&wk[j]).expect("sink carries values");
                }
                acc
            });
            let v = cs.alloc_witness_opt(val);
            folded.push(v, zp[i * b + j]);
            row.push(LinearCombination::from(v));
        }
        y.push(row);
    }
    (y, folded)
}

/// Builds the folded column polynomial of `X` and row polynomial of `W` for
/// inner index `k`: `( sum_i Z^{ib} x_ik , sum_j Z^j w_kj )`.
fn folded_operands(
    x: &[Vec<LinearCombination<Fr>>],
    w: &[Vec<LinearCombination<Fr>>],
    k: usize,
    zp: &[Fr],
    b: usize,
) -> (LinearCombination<Fr>, LinearCombination<Fr>) {
    let mut xcol = LinearCombination::zero();
    for (i, xi) in x.iter().enumerate() {
        xcol = xcol + xi[k].scale(&zp[i * b]);
    }
    let mut wrow = LinearCombination::zero();
    for (j, wkj) in w[k].iter().enumerate() {
        wrow = wrow + wkj.scale(&zp[j]);
    }
    (xcol, wrow)
}

/// CRPC without PSQ: `n` product constraints plus one long addition that
/// equates the accumulated products with the folded output (Table II row
/// 3), `n + 1` constraints. With `y_out`, the fold runs over freshly
/// allocated output witnesses and each is pinned to its supplied cell
/// ([`bind_outputs`]): `n + 1 + a*b` constraints.
pub(super) fn synthesize<S: ConstraintSink<Fr> + ?Sized>(
    cs: &mut S,
    x: &[Vec<LinearCombination<Fr>>],
    w: &[Vec<LinearCombination<Fr>>],
    y_out: Option<&[Vec<LinearCombination<Fr>>]>,
    z: Fr,
) -> Vec<Vec<LinearCombination<Fr>>> {
    let b = w[0].len();
    let zp = powers_of(z, x.len() * b);
    let (y, folded) = allocate_outputs(cs, x, w, &zp);
    // long addition: sum_k t_k = folded output
    let mut sum_lc = LinearCombination::zero();
    for k in 0..w.len() {
        let (xcol, wrow) = folded_operands(x, w, k, &zp, b);
        let val = cs.lc_product(&xcol, &wrow);
        let t = cs.alloc_witness_opt(val);
        cs.enforce_named(xcol, wrow, t.into(), "crpc product");
        sum_lc.push(t, Fr::one());
    }
    cs.enforce_named(
        sum_lc,
        LinearCombination::constant(Fr::one()),
        folded,
        "crpc fold equality",
    );
    bind_outputs(cs, &y, y_out);
    y
}

/// CRPC + PSQ — the full zkVC encoding: the `n` folded products are chained
/// as prefix sums, and the final product constraint writes directly into the
/// folded output, so exactly `n` constraints are emitted (Table II row 4).
/// With `y_out`, each output witness is pinned to its supplied cell:
/// `n + a*b` constraints.
pub(super) fn synthesize_psq<S: ConstraintSink<Fr> + ?Sized>(
    cs: &mut S,
    x: &[Vec<LinearCombination<Fr>>],
    w: &[Vec<LinearCombination<Fr>>],
    y_out: Option<&[Vec<LinearCombination<Fr>>]>,
    z: Fr,
) -> Vec<Vec<LinearCombination<Fr>>> {
    let n = w.len();
    let b = w[0].len();
    let zp = powers_of(z, x.len() * b);
    let (y, folded) = allocate_outputs(cs, x, w, &zp);
    let mut prev_lc = LinearCombination::zero();
    let mut prev_val = cs.wants_values().then(Fr::zero);
    for k in 0..n {
        let (xcol, wrow) = folded_operands(x, w, k, &zp, b);
        if k + 1 == n {
            // last step: xcol * wrow = folded - acc_{n-2}
            cs.enforce_named(
                xcol,
                wrow,
                folded.clone() - &prev_lc,
                "crpc+psq final product",
            );
        } else {
            let val = prev_val.and_then(|p| cs.lc_product(&xcol, &wrow).map(|t| p + t));
            let acc = cs.alloc_witness_opt(val);
            cs.enforce_named(
                xcol,
                wrow,
                LinearCombination::from(acc) - &prev_lc,
                "crpc+psq product",
            );
            prev_lc = acc.into();
            prev_val = val;
        }
    }
    bind_outputs(cs, &y, y_out);
    y
}

/// Binds each caller-supplied output cell, if any, to the corresponding
/// witness output with its own equality constraint (`a*b` constraints).
///
/// The per-cell constraints are what make public CRPC outputs *bind*: the
/// Z-fold alone is a single public linear relation with a publicly known
/// `Z`, so any `Y'` with the same fold (e.g. `y_0 + Z, y_1 - 1`) would
/// satisfy it — a verifier checking only the fold could be handed an
/// honest proof with forged outputs. The constraint form lives in
/// [`crate::api::bind_public_outputs`].
fn bind_outputs<S: ConstraintSink<Fr> + ?Sized>(
    cs: &mut S,
    y_wit: &[Vec<LinearCombination<Fr>>],
    y_out: Option<&[Vec<LinearCombination<Fr>>]>,
) {
    for (wit_row, out_row) in y_wit.iter().zip(y_out.unwrap_or_default()) {
        crate::api::bind_public_outputs(cs, wit_row, out_row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::tests::single_pass;
    use crate::matmul::{synthesize_matmul, MatMulBuilder, Strategy};
    use proptest::prelude::*;
    use zkvc_ff::PrimeField;
    use zkvc_r1cs::ConstraintSystem;

    fn alloc_matrix(
        cs: &mut ConstraintSystem<Fr>,
        vals: &[Vec<u64>],
    ) -> Vec<Vec<LinearCombination<Fr>>> {
        vals.iter()
            .map(|r| {
                r.iter()
                    .map(|v| cs.alloc_witness(Fr::from_u64(*v)).into())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn crpc_matches_vanilla_outputs() {
        let x_vals = vec![
            vec![3u64, 1, 4],
            vec![1, 5, 9],
            vec![2, 6, 5],
            vec![3, 5, 8],
        ];
        let w_vals = vec![vec![9u64, 7], vec![9, 3], vec![2, 3]];

        let mut cs_v = ConstraintSystem::<Fr>::new();
        let xv = alloc_matrix(&mut cs_v, &x_vals);
        let wv = alloc_matrix(&mut cs_v, &w_vals);
        let y_v = synthesize_matmul(&mut cs_v, &xv, &wv, Strategy::Vanilla, Fr::zero());

        for (strategy, expected_constraints) in [(Strategy::Crpc, 3 + 1), (Strategy::CrpcPsq, 3)] {
            let mut cs = ConstraintSystem::<Fr>::new();
            let x = alloc_matrix(&mut cs, &x_vals);
            let w = alloc_matrix(&mut cs, &w_vals);
            let input_constraints = cs.num_constraints();
            let y = synthesize_matmul(&mut cs, &x, &w, strategy, Fr::from_u64(7919));
            assert!(cs.is_satisfied(), "{strategy:?}");
            assert_eq!(
                cs.num_constraints() - input_constraints,
                expected_constraints
            );
            for i in 0..4 {
                for j in 0..2 {
                    assert_eq!(
                        cs.eval_lc(&y[i][j]),
                        cs_v.eval_lc(&y_v[i][j]),
                        "{strategy:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn paper_figure4_example() {
        // Figure 4(b): a 3x2 by 2x2 product needs only 2 multiplications in
        // CRPC+PSQ.
        let x_vals = vec![vec![1u64, 2], vec![3, 4], vec![5, 6]];
        let w_vals = vec![vec![7u64, 8], vec![9, 10]];
        let mut cs = ConstraintSystem::<Fr>::new();
        let x = alloc_matrix(&mut cs, &x_vals);
        let w = alloc_matrix(&mut cs, &w_vals);
        synthesize_psq(&mut cs, &x, &w, None, Fr::from_u64(65537));
        assert!(cs.is_satisfied());
        assert_eq!(cs.num_constraints(), 2);
    }

    #[test]
    fn wrong_y_is_rejected_for_random_z() {
        // An honest-Z completeness check, not an attack: a Y corrupted
        // after Z is fixed breaks the fold (Schwartz-Zippel). The outputs
        // stay private so that the fold, not a binding row, catches it.
        let x = vec![vec![1i64, 2, 3], vec![4, 5, 6]];
        let w = vec![vec![7i64, 8], vec![9, 10], vec![11, 12]];
        for strategy in [Strategy::Crpc, Strategy::CrpcPsq] {
            let job = MatMulBuilder::new(2, 3, 2)
                .strategy(strategy)
                .public_outputs(false)
                .build_circuit_integers(&x, &w);
            let num_inputs = 2 * 3 + 3 * 2;
            for y_idx in 0..4 {
                let mut cs = single_pass(&job);
                let mut witness = cs.witness_assignment().to_vec();
                witness[num_inputs + y_idx] -= Fr::from_u64(1);
                cs.set_witness_assignment(witness);
                assert!(!cs.is_satisfied(), "{strategy:?} accepted wrong y[{y_idx}]");
            }
        }
    }

    #[test]
    fn degenerate_z_values_still_complete() {
        // Completeness must hold for any Z, even degenerate ones like 0/1
        // (soundness of course requires random Z).
        let x = vec![vec![2i64, 3], vec![4, 5]];
        let w = vec![vec![1i64, 2], vec![3, 4]];
        for z in [0u64, 1, 2] {
            let job = MatMulBuilder::new(2, 2, 2)
                .strategy(Strategy::CrpcPsq)
                .z(Fr::from_u64(z))
                .build_circuit_integers(&x, &w);
            assert!(single_pass(&job).is_satisfied(), "z={z}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// CRPC and vanilla accept exactly the same (honest) statements and
        /// produce identical output values, for random small matrices.
        #[test]
        fn prop_crpc_equivalent_to_vanilla(
            a in 1usize..4, n in 1usize..4, b in 1usize..4, seed in 0u64..1000
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let x: Vec<Vec<i64>> = (0..a).map(|_| (0..n).map(|_| rng.gen_range(-50i64..50)).collect()).collect();
            let w: Vec<Vec<i64>> = (0..n).map(|_| (0..b).map(|_| rng.gen_range(-50i64..50)).collect()).collect();
            let vanilla = MatMulBuilder::new(a, n, b).strategy(Strategy::Vanilla).build_circuit_integers(&x, &w);
            let zkvc = MatMulBuilder::new(a, n, b).strategy(Strategy::CrpcPsq).build_circuit_integers(&x, &w);
            prop_assert!(single_pass(&vanilla).is_satisfied());
            prop_assert!(single_pass(&zkvc).is_satisfied());
            prop_assert_eq!(vanilla.y, zkvc.y);
        }
    }
}
