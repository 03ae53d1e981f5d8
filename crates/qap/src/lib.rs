//! # zkvc-qap
//!
//! Reduction from R1CS to a Quadratic Arithmetic Program (QAP) over a
//! radix-2 FFT domain, exactly as required by the Groth16 setup and prover.
//!
//! Given an R1CS with `m` constraints over variables `z`, the QAP assigns to
//! each variable `i` three polynomials `A_i, B_i, C_i` of degree `< d`
//! (where `d` is the FFT-domain size `>= m`), defined by interpolation over
//! the domain: `A_i(w_j) = A[j][i]` and likewise for `B, C`. The R1CS is
//! satisfied iff the polynomial
//! `P(X) = (sum_i z_i A_i(X)) (sum_i z_i B_i(X)) - (sum_i z_i C_i(X))`
//! is divisible by the vanishing polynomial `Z(X) = X^d - 1`, and the prover
//! exhibits the quotient `H(X) = P(X) / Z(X)`.
//!
//! Two entry points:
//! * [`evaluate_qap_at_point`] — evaluates every variable polynomial at a
//!   secret point `tau` (used by the trusted setup, through
//!   [`evaluate_qap_at_point_in`] and the domain it keeps for the prover);
//! * [`compute_h_coefficients`] — computes the quotient polynomial `H` from
//!   a full assignment (used by the prover), via coset FFTs in
//!   `O(d log d)` time; [`compute_h_coefficients_in`] is the same against a
//!   caller-cached [`EvaluationDomain`] (no per-proof twiddle rebuild).

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

use zkvc_ff::{EvaluationDomain, PrimeField};
use zkvc_r1cs::R1csMatrices;

/// The per-variable QAP evaluations at a fixed point, plus domain metadata.
#[derive(Clone, Debug)]
pub struct QapEvaluations<F: PrimeField> {
    /// `A_i(tau)` for every variable `i` (column order of the R1CS).
    pub a: Vec<F>,
    /// `B_i(tau)` for every variable `i`.
    pub b: Vec<F>,
    /// `C_i(tau)` for every variable `i`.
    pub c: Vec<F>,
    /// The vanishing polynomial evaluated at the point, `Z(tau)`.
    pub zt: F,
    /// The FFT-domain size `d` (number of interpolation points).
    pub domain_size: usize,
}

/// Returns the FFT domain used for an R1CS with the given number of
/// constraints (the smallest radix-2 domain of size at least
/// `max(num_constraints, 2)`), or `None` if it exceeds the field's
/// 2-adicity.
pub fn qap_domain<F: PrimeField>(num_constraints: usize) -> Option<EvaluationDomain<F>> {
    EvaluationDomain::new(num_constraints.max(2))
}

/// Panics unless `domain` has the size [`qap_domain`] would pick for
/// `matrices`. The expected size is computed arithmetically — building a
/// throwaway domain to compare against would re-pay the twiddle tables the
/// `_in` entry points exist to avoid.
fn assert_is_qap_domain<F: PrimeField>(domain: &EvaluationDomain<F>, matrices: &R1csMatrices<F>) {
    assert_eq!(
        domain.size(),
        matrices.num_constraints().max(2).next_power_of_two(),
        "domain does not match the R1CS constraint count"
    );
}

/// Evaluates every QAP variable polynomial at the point `tau`.
///
/// Runs in `O(d + nnz)` field operations, where `nnz` is the number of
/// non-zero R1CS matrix entries.
///
/// # Panics
/// Panics if the constraint count exceeds the supported FFT-domain size.
pub fn evaluate_qap_at_point<F: PrimeField>(
    matrices: &R1csMatrices<F>,
    tau: &F,
) -> QapEvaluations<F> {
    let domain = qap_domain::<F>(matrices.num_constraints())
        .expect("constraint count exceeds the field's FFT capacity");
    evaluate_qap_at_point_in(&domain, matrices, tau)
}

/// [`evaluate_qap_at_point`] against a caller-supplied domain, so the
/// Groth16 setup builds the QAP domain — and its twiddle tables — once and
/// keeps it in the `ProvingKey` instead of building it here and again for
/// the prover.
///
/// # Panics
/// Panics if `domain` is not the QAP domain for `matrices` (wrong size).
pub fn evaluate_qap_at_point_in<F: PrimeField>(
    domain: &EvaluationDomain<F>,
    matrices: &R1csMatrices<F>,
    tau: &F,
) -> QapEvaluations<F> {
    assert_is_qap_domain(domain, matrices);
    let lagrange = domain.lagrange_coefficients_at(tau);
    let num_vars = matrices.num_variables();

    let mut a = vec![F::zero(); num_vars];
    let mut b = vec![F::zero(); num_vars];
    let mut c = vec![F::zero(); num_vars];

    // One flat pass per CSR matrix: entry k of row j contributes
    // `lagrange[j] * coeff` to its variable's column accumulator.
    let accumulate = |matrix: &zkvc_r1cs::SparseMatrix<F>, out: &mut [F]| {
        for (j, lj) in lagrange.iter().copied().enumerate().take(matrix.num_rows) {
            for (col, coeff) in matrix.row(j) {
                out[col] += lj * *coeff;
            }
        }
    };
    accumulate(&matrices.a, &mut a);
    accumulate(&matrices.b, &mut b);
    accumulate(&matrices.c, &mut c);

    QapEvaluations {
        a,
        b,
        c,
        zt: domain.evaluate_vanishing_polynomial(tau),
        domain_size: domain.size(),
    }
}

/// Computes the coefficients of the quotient polynomial
/// `H(X) = (A(X) B(X) - C(X)) / Z(X)` for a full assignment `z`.
///
/// Returns `d - 1` coefficients (degree `<= d - 2`). For an assignment
/// that does not satisfy the R1CS the division is not exact: the result is
/// the truncated quotient, and a proof built on it fails verification.
/// Use [`R1csMatrices::is_satisfied`] first when unsure.
///
/// # Panics
/// Panics if `z.len()` does not match the number of R1CS variables.
pub fn compute_h_coefficients<F: PrimeField>(matrices: &R1csMatrices<F>, z: &[F]) -> Vec<F> {
    let domain = qap_domain::<F>(matrices.num_constraints())
        .expect("constraint count exceeds the field's FFT capacity");
    compute_h_coefficients_in(&domain, matrices, z)
}

/// [`compute_h_coefficients`] against a caller-supplied domain, so a prover
/// that proves many statements of one shape (e.g. through the runtime's key
/// cache) builds the domain — and its twiddle tables — once instead of per
/// proof. The Groth16 `ProvingKey` carries this domain.
///
/// # Panics
/// Panics if `domain` is not the QAP domain for `matrices` (wrong size), in
/// addition to the conditions on [`compute_h_coefficients`].
pub fn compute_h_coefficients_in<F: PrimeField>(
    domain: &EvaluationDomain<F>,
    matrices: &R1csMatrices<F>,
    z: &[F],
) -> Vec<F> {
    assert_eq!(
        z.len(),
        matrices.num_variables(),
        "assignment length must match the R1CS variable count"
    );
    assert_is_qap_domain(domain, matrices);
    let d = domain.size();

    // Evaluations of A(X), B(X), C(X) over the domain: entry j is <M_j, z>.
    let mut az = matrices.a.mul_vector(z);
    let mut bz = matrices.b.mul_vector(z);
    let mut cz = matrices.c.mul_vector(z);
    az.resize(d, F::zero());
    bz.resize(d, F::zero());
    cz.resize(d, F::zero());

    // Move to coefficient form.
    domain.ifft_in_place(&mut az);
    domain.ifft_in_place(&mut bz);
    domain.ifft_in_place(&mut cz);

    // Evaluate on the coset gH, where Z(X) is the nonzero constant g^d - 1.
    domain.coset_fft_in_place(&mut az);
    domain.coset_fft_in_place(&mut bz);
    domain.coset_fft_in_place(&mut cz);

    let z_on_coset_inv = domain
        .vanishing_on_coset()
        .inverse()
        .expect("coset vanishing value is non-zero");
    let mut h: Vec<F> = az
        .iter()
        .zip(bz.iter())
        .zip(cz.iter())
        .map(|((a, b), c)| (*a * *b - *c) * z_on_coset_inv)
        .collect();

    // Back to coefficient form.
    domain.coset_ifft_in_place(&mut h);

    // Degree must be <= d - 2; the top coefficient is zero for satisfying
    // assignments, and dropped unchecked otherwise.
    h.truncate(d - 1);
    h
}

/// Checks the QAP divisibility identity directly at a random point:
/// `A(t) B(t) - C(t) == H(t) Z(t)`. Used in tests and as a cheap self-check.
pub fn check_qap_identity_at<F: PrimeField>(
    matrices: &R1csMatrices<F>,
    z: &[F],
    h: &[F],
    t: &F,
) -> bool {
    let evals = evaluate_qap_at_point(matrices, t);
    let dot = |polys: &[F]| -> F { polys.iter().zip(z.iter()).map(|(p, zi)| *p * *zi).sum() };
    let at = dot(&evals.a);
    let bt = dot(&evals.b);
    let ct = dot(&evals.c);
    let ht: F = h
        .iter()
        .rev()
        .fold(F::zero(), |acc, coeff| acc * *t + *coeff);
    at * bt - ct == ht * evals.zt
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use zkvc_ff::{Field, Fr};
    use zkvc_r1cs::{ConstraintSystem, LinearCombination};

    /// x^3 + x + 5 = 35, plus some padding constraints to vary sizes.
    fn test_cs(x_val: u64, extra: usize) -> ConstraintSystem<Fr> {
        let mut cs = ConstraintSystem::<Fr>::new();
        let out = cs.alloc_instance(Fr::from_u64(x_val * x_val * x_val + x_val + 5));
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
        for i in 0..extra {
            let v = cs.alloc_witness(Fr::from_u64(i as u64 * i as u64));
            let w = cs.alloc_witness(Fr::from_u64(i as u64));
            cs.enforce(w.into(), w.into(), v.into());
        }
        cs
    }

    #[test]
    fn qap_identity_holds_for_satisfying_assignment() {
        let mut rng = StdRng::seed_from_u64(10);
        for extra in [0usize, 1, 5, 13] {
            let cs = test_cs(3, extra);
            assert!(cs.is_satisfied());
            let m = cs.to_matrices();
            let z = cs.full_assignment();
            let h = compute_h_coefficients(&m, &z);
            for _ in 0..4 {
                let t = Fr::random(&mut rng);
                assert!(check_qap_identity_at(&m, &z, &h, &t), "extra={extra}");
            }
        }
    }

    #[test]
    fn qap_identity_fails_for_bad_assignment() {
        let mut rng = StdRng::seed_from_u64(11);
        let cs = test_cs(3, 2);
        let m = cs.to_matrices();
        let mut z = cs.full_assignment();
        let h = compute_h_coefficients(&m, &z);
        // corrupt a witness value after computing h
        z[2] = Fr::from_u64(999);
        let t = Fr::random(&mut rng);
        assert!(!check_qap_identity_at(&m, &z, &h, &t));
    }

    #[test]
    fn setup_evaluations_match_lagrange_interpolation() {
        // A_i(tau) computed sparsely must equal direct interpolation of the
        // i-th column.
        let cs = test_cs(3, 3);
        let m = cs.to_matrices();
        let tau = Fr::from_u64(987654321);
        let evals = evaluate_qap_at_point(&m, &tau);
        let domain = qap_domain::<Fr>(m.num_constraints()).unwrap();
        let lag = domain.lagrange_coefficients_at(&tau);
        // pick a few columns and check directly
        for col in 0..m.num_variables() {
            let mut expect = Fr::zero();
            for (j, lj) in lag.iter().enumerate().take(m.a.num_rows) {
                for (c, v) in m.a.row(j) {
                    if c == col {
                        expect += *lj * *v;
                    }
                }
            }
            assert_eq!(evals.a[col], expect);
        }
        assert_eq!(evals.domain_size, domain.size());
        assert_eq!(evals.zt, domain.evaluate_vanishing_polynomial(&tau));
    }

    #[test]
    fn h_degree_is_bounded() {
        let cs = test_cs(3, 9);
        let m = cs.to_matrices();
        let z = cs.full_assignment();
        let h = compute_h_coefficients(&m, &z);
        let domain = qap_domain::<Fr>(m.num_constraints()).unwrap();
        assert_eq!(h.len(), domain.size() - 1);
    }
}
