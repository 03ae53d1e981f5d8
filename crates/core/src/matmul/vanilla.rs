//! The vanilla matrix-multiplication circuit and its PSQ variant.
//!
//! Emission is written against [`ConstraintSink`], so one copy of each
//! loop serves the legacy single pass, the witness-free shape pass and the
//! witness pass.

use zkvc_ff::{Field, Fr};
use zkvc_r1cs::{ConstraintSink, LinearCombination, SinkExt};

/// Vanilla encoding: one multiplication constraint per scalar product
/// `x_ik * w_kj`, followed by one long-addition constraint per output
/// element summing the `n` intermediate products (Figure 4(a) / Figure 5(a)
/// of the paper).
///
/// Cost: `a*b*n + a*b` constraints. The long addition writes into the
/// supplied cell `y_out[i][j]` when given (typically a public instance
/// variable holding the honest product), or into a fresh witness
/// otherwise; the addition rows carry `n` left wires each.
pub(super) fn synthesize<S: ConstraintSink<Fr> + ?Sized>(
    cs: &mut S,
    x: &[Vec<LinearCombination<Fr>>],
    w: &[Vec<LinearCombination<Fr>>],
    y_out: Option<&[Vec<LinearCombination<Fr>>]>,
) -> Vec<Vec<LinearCombination<Fr>>> {
    let n = w.len();
    let b = w[0].len();
    let mut y = Vec::with_capacity(x.len());
    for (i, xi) in x.iter().enumerate() {
        let mut row = Vec::with_capacity(b);
        for j in 0..b {
            let mut sum_val = cs.wants_values().then(Fr::zero);
            let mut sum_lc = LinearCombination::zero();
            for (k, wk) in w.iter().enumerate().take(n) {
                let val = cs.lc_product(&xi[k], &wk[j]);
                if let (Some(acc), Some(v)) = (sum_val.as_mut(), val.as_ref()) {
                    *acc += *v;
                }
                let p = cs.alloc_witness_opt(val);
                cs.enforce_named(xi[k].clone(), wk[j].clone(), p.into(), "vanilla product");
                sum_lc.push(p, Fr::one());
            }
            // long addition: (sum of products) * 1 = y_ij
            let y_ij = match y_out {
                Some(out) => out[i][j].clone(),
                None => cs.alloc_witness_opt(sum_val).into(),
            };
            cs.enforce_named(
                sum_lc,
                LinearCombination::constant(Fr::one()),
                y_ij.clone(),
                "vanilla long addition",
            );
            row.push(y_ij);
        }
        y.push(row);
    }
    y
}

/// Vanilla products with Prefix-Sum Query accumulation (Figure 5(b)): the
/// running sums `acc_k = acc_{k-1} + x_ik * w_kj` are stored instead of the
/// individual products, so the long addition row disappears and each
/// constraint keeps a single left wire.
///
/// Cost: `a*b*n` constraints. The last prefix-sum constraint writes
/// `y_out[i][j] - acc_{n-2}` when a cell is supplied, or allocates the
/// final accumulator (which *is* the output) otherwise.
pub(super) fn synthesize_psq<S: ConstraintSink<Fr> + ?Sized>(
    cs: &mut S,
    x: &[Vec<LinearCombination<Fr>>],
    w: &[Vec<LinearCombination<Fr>>],
    y_out: Option<&[Vec<LinearCombination<Fr>>]>,
) -> Vec<Vec<LinearCombination<Fr>>> {
    let n = w.len();
    let b = w[0].len();
    let mut y = Vec::with_capacity(x.len());
    for (i, xi) in x.iter().enumerate() {
        let mut row = Vec::with_capacity(b);
        for j in 0..b {
            let mut prev_lc = LinearCombination::zero();
            let mut prev_val = cs.wants_values().then(Fr::zero);
            let mut last = LinearCombination::zero();
            for (k, wk) in w.iter().enumerate().take(n) {
                // last step with a supplied cell: x_ik * w_kj = y_ij - acc_{n-2}
                if k + 1 == n {
                    if let Some(out) = y_out {
                        cs.enforce_named(
                            xi[k].clone(),
                            wk[j].clone(),
                            out[i][j].clone() - &prev_lc,
                            "psq final product",
                        );
                        last = out[i][j].clone();
                        continue;
                    }
                }
                let acc_val = prev_val.and_then(|p| cs.lc_product(&xi[k], &wk[j]).map(|t| p + t));
                let acc = cs.alloc_witness_opt(acc_val);
                // x_ik * w_kj = acc_k - acc_{k-1}
                cs.enforce_named(
                    xi[k].clone(),
                    wk[j].clone(),
                    LinearCombination::from(acc) - &prev_lc,
                    "psq product",
                );
                prev_lc = acc.into();
                prev_val = acc_val;
                last = acc.into();
            }
            row.push(last);
        }
        y.push(row);
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkvc_ff::PrimeField;
    use zkvc_r1cs::{CompiledShape, ConstraintSystem};

    type LcMatrix = Vec<Vec<LinearCombination<Fr>>>;

    fn inputs(cs: &mut ConstraintSystem<Fr>) -> (LcMatrix, LcMatrix) {
        // X = [[1,2,3],[4,5,6]]  W = [[1,4],[2,5],[3,6]]
        let x_vals = [[1u64, 2, 3], [4, 5, 6]];
        let w_vals = [[1u64, 4], [2, 5], [3, 6]];
        let x = x_vals
            .iter()
            .map(|r| {
                r.iter()
                    .map(|v| cs.alloc_witness(Fr::from_u64(*v)).into())
                    .collect()
            })
            .collect();
        let w = w_vals
            .iter()
            .map(|r| {
                r.iter()
                    .map(|v| cs.alloc_witness(Fr::from_u64(*v)).into())
                    .collect()
            })
            .collect();
        (x, w)
    }

    #[test]
    fn vanilla_computes_correct_values() {
        let mut cs = ConstraintSystem::<Fr>::new();
        let (x, w) = inputs(&mut cs);
        let y = synthesize(&mut cs, &x, &w, None);
        assert!(cs.is_satisfied());
        // Y = [[14, 32], [32, 77]]
        assert_eq!(cs.eval_lc(&y[0][0]), Fr::from_u64(14));
        assert_eq!(cs.eval_lc(&y[0][1]), Fr::from_u64(32));
        assert_eq!(cs.eval_lc(&y[1][0]), Fr::from_u64(32));
        assert_eq!(cs.eval_lc(&y[1][1]), Fr::from_u64(77));
        // 2*2*3 products + 2*2 additions
        assert_eq!(cs.num_constraints(), 16);
    }

    #[test]
    fn psq_matches_vanilla_values_with_fewer_wires() {
        let mut cs_v = ConstraintSystem::<Fr>::new();
        let (x, w) = inputs(&mut cs_v);
        let y_v = synthesize(&mut cs_v, &x, &w, None);

        let mut cs_p = ConstraintSystem::<Fr>::new();
        let (x2, w2) = inputs(&mut cs_p);
        let y_p = synthesize_psq(&mut cs_p, &x2, &w2, None);

        assert!(cs_v.is_satisfied());
        assert!(cs_p.is_satisfied());
        for i in 0..2 {
            for j in 0..2 {
                assert_eq!(cs_v.eval_lc(&y_v[i][j]), cs_p.eval_lc(&y_p[i][j]));
            }
        }
        assert_eq!(cs_p.num_constraints(), 12); // abn only
        let left_wires =
            |cs: &ConstraintSystem<Fr>| CompiledShape::from_cs(cs).matrices.a.num_nonzero();
        assert!(left_wires(&cs_p) < left_wires(&cs_v));
        assert!(cs_p.num_variables() < cs_v.num_variables());
    }

    #[test]
    fn psq_rejects_tampered_prefix_sum() {
        let mut cs = ConstraintSystem::<Fr>::new();
        let (x, w) = inputs(&mut cs);
        synthesize_psq(&mut cs, &x, &w, None);
        assert!(cs.is_satisfied());
        let mut witness = cs.witness_assignment().to_vec();
        // first prefix-sum variable sits right after the 12 input variables
        witness[12] += Fr::one();
        cs.set_witness_assignment(witness);
        assert!(!cs.is_satisfied());
    }
}
