//! # zkvc-interactive
//!
//! Thaler's interactive sum-check protocol for matrix multiplication
//! (J. Thaler, "Time-Optimal Interactive Proofs for Circuit Evaluation",
//! CRYPTO 2013), which is the core of how zkCNN-style GKR systems prove
//! matmul layers. It plays the role of the paper's **interactive baseline**
//! in Fig. 6: very fast proving, but the verifier must stay online, do work
//! linear in the matrix size, and exchange `O(log n)` messages.
//!
//! The claim `Y = X * W` is reduced to
//! `Y~(rx, ry) = sum_k X~(rx, k) * W~(k, ry)`, a single sum-check over the
//! inner dimension. Here it is made non-interactive with the shared
//! Fiat-Shamir transcript so the same harness can time it; the "online
//! time" reported by the Fig. 6 harness counts both prover and verifier
//! work, reflecting that both parties must be live in the interactive
//! setting.
//!
//! Nothing on the proving service path calls this crate. It has two roles:
//!
//! * **The Fig. 6 baseline** — the `fig6` harness times it against zkVC-G
//!   and zkVC-S on the same matmul shapes.
//! * **A verdict oracle** — it decides `Y = X * W` without any circuit, so
//!   soundness tests can check that Groth16, Spartan and this protocol
//!   agree on accept/reject for the same claim (ROADMAP item 1(a);
//!   `tests/end_to_end_matmul.rs` already compares honest verdicts).
//!
//! ## Example
//!
//! ```rust
//! use zkvc_interactive::{prove_matmul, verify_matmul, MatMulClaim};
//! use zkvc_ff::{Fr, PrimeField};
//!
//! // 2x2 matrices
//! let x = vec![vec![Fr::from_u64(1), Fr::from_u64(2)],
//!              vec![Fr::from_u64(3), Fr::from_u64(4)]];
//! let w = vec![vec![Fr::from_u64(5), Fr::from_u64(6)],
//!              vec![Fr::from_u64(7), Fr::from_u64(8)]];
//! let claim = MatMulClaim::compute(&x, &w);
//! let proof = prove_matmul(&x, &w, &claim);
//! assert!(verify_matmul(&x, &w, &claim, &proof));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

use zkvc_ff::poly::eq_evals;
use zkvc_ff::{Field, Fr, MultilinearPolynomial};
use zkvc_hash::Transcript;
use zkvc_spartan::sumcheck::{self, SumcheckProof};

const LABEL: &[u8] = b"zkvc-interactive-matmul";

/// A matrix-multiplication statement `Y = X * W` with `X: a x n`,
/// `W: n x b`, together with the product matrix the prover claims.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MatMulClaim {
    /// Number of rows of `X` (and `Y`).
    pub a: usize,
    /// Inner dimension.
    pub n: usize,
    /// Number of columns of `W` (and `Y`).
    pub b: usize,
    /// The claimed product matrix `Y`, row-major.
    pub y: Vec<Vec<Fr>>,
}

impl MatMulClaim {
    /// Computes the true product and wraps it as a claim.
    ///
    /// # Panics
    /// Panics if the dimensions are inconsistent.
    pub fn compute(x: &[Vec<Fr>], w: &[Vec<Fr>]) -> Self {
        let a = x.len();
        let n = w.len();
        assert!(a > 0 && n > 0, "matrices must be non-empty");
        assert!(x.iter().all(|r| r.len() == n), "X column count mismatch");
        let b = w[0].len();
        assert!(w.iter().all(|r| r.len() == b), "W column count mismatch");
        let mut y = vec![vec![Fr::zero(); b]; a];
        for (i, yi) in y.iter_mut().enumerate() {
            for (j, yij) in yi.iter_mut().enumerate() {
                let mut acc = Fr::zero();
                for k in 0..n {
                    acc += x[i][k] * w[k][j];
                }
                *yij = acc;
            }
        }
        MatMulClaim { a, n, b, y }
    }
}

/// The proof: one sum-check over the inner dimension plus the two final
/// evaluations of `X~` and `W~` at the random point.
#[derive(Clone, Debug)]
pub struct MatMulProof {
    /// The sum-check messages.
    pub sumcheck: SumcheckProof,
    /// `X~(rx, rk)`.
    pub x_eval: Fr,
    /// `W~(rk, ry)`.
    pub w_eval: Fr,
}

impl MatMulProof {
    /// Proof size in bytes (field elements only — the matrices themselves
    /// are known to the verifier in this baseline).
    pub fn size_in_bytes(&self) -> usize {
        32 * (self.sumcheck.num_field_elements() + 2)
    }
}

fn log2_ceil(x: usize) -> usize {
    x.max(1).next_power_of_two().trailing_zeros() as usize
}

/// Evaluates the MLE of a matrix at `(row_point, col_point)`.
fn matrix_eval(m: &[Vec<Fr>], rows: usize, cols: usize, rp: &[Fr], cp: &[Fr]) -> Fr {
    let chi_r = eq_evals(rp);
    let chi_c = eq_evals(cp);
    let mut acc = Fr::zero();
    for (i, row) in m.iter().enumerate().take(rows) {
        for (j, v) in row.iter().enumerate().take(cols) {
            if v.is_zero() {
                continue;
            }
            acc += chi_r[i] * chi_c[j] * *v;
        }
    }
    acc
}

/// Produces the interactive (Fiat-Shamir compressed) proof that
/// `claim.y == x * w`.
pub fn prove_matmul(x: &[Vec<Fr>], w: &[Vec<Fr>], claim: &MatMulClaim) -> MatMulProof {
    let mut transcript = Transcript::new(LABEL);
    bind_statement(&mut transcript, claim);

    let log_a = log2_ceil(claim.a);
    let log_b = log2_ceil(claim.b);
    let log_n = log2_ceil(claim.n);

    // Verifier's random point on Y.
    let rx = transcript.challenge_fields(b"rx", log_a);
    let ry = transcript.challenge_fields(b"ry", log_b);

    // Claimed value Y~(rx, ry).
    let y_eval = matrix_eval(&claim.y, claim.a, claim.b, &rx, &ry);

    // Build the two inner-dimension polynomials:
    //   f(k) = X~(rx, k)   and   g(k) = W~(k, ry)
    let chi_rx = eq_evals(&rx);
    let chi_ry = eq_evals(&ry);
    let n_pad = claim.n.max(1).next_power_of_two();
    let mut f = vec![Fr::zero(); n_pad];
    let mut g = vec![Fr::zero(); n_pad];
    for k in 0..claim.n {
        let mut fx = Fr::zero();
        for i in 0..claim.a {
            fx += chi_rx[i] * x[i][k];
        }
        f[k] = fx;
        let mut gx = Fr::zero();
        for j in 0..claim.b {
            gx += chi_ry[j] * w[k][j];
        }
        g[k] = gx;
    }
    let f_poly = MultilinearPolynomial::from_evaluations(f);
    let g_poly = MultilinearPolynomial::from_evaluations(g);

    let (sc, _rk, (x_eval, w_eval)) =
        sumcheck::prove_quadratic(&y_eval, &f_poly, &g_poly, &mut transcript);
    debug_assert_eq!(sc.round_polys.len(), log_n);

    MatMulProof {
        sumcheck: sc,
        x_eval,
        w_eval,
    }
}

/// Verifies the matmul proof. The verifier reads the input matrices itself
/// (they are public in this baseline) and pays `O(a n + n b + a b)` field
/// work plus the online interaction — exactly the trade-off Table I and
/// Fig. 6 attribute to interactive schemes.
pub fn verify_matmul(
    x: &[Vec<Fr>],
    w: &[Vec<Fr>],
    claim: &MatMulClaim,
    proof: &MatMulProof,
) -> bool {
    let mut transcript = Transcript::new(LABEL);
    bind_statement(&mut transcript, claim);

    let log_a = log2_ceil(claim.a);
    let log_b = log2_ceil(claim.b);
    let log_n = log2_ceil(claim.n);

    let rx = transcript.challenge_fields(b"rx", log_a);
    let ry = transcript.challenge_fields(b"ry", log_b);
    let y_eval = matrix_eval(&claim.y, claim.a, claim.b, &rx, &ry);

    let Some(sub) = sumcheck::verify(&y_eval, log_n, 2, &proof.sumcheck, &mut transcript) else {
        return false;
    };
    if sub.expected_evaluation != proof.x_eval * proof.w_eval {
        return false;
    }
    // Check the final evaluations against the (public) inputs.
    let rk = &sub.point;
    proof.x_eval == matrix_eval(x, claim.a, claim.n, &rx, rk)
        && proof.w_eval == matrix_eval(w, claim.n, claim.b, rk, &ry)
}

fn bind_statement(t: &mut Transcript, claim: &MatMulClaim) {
    t.append_u64(b"a", claim.a as u64);
    t.append_u64(b"n", claim.n as u64);
    t.append_u64(b"b", claim.b as u64);
    for row in &claim.y {
        t.append_fields(b"y row", row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use zkvc_ff::PrimeField;

    fn random_matrix(rows: usize, cols: usize, rng: &mut StdRng) -> Vec<Vec<Fr>> {
        (0..rows)
            .map(|_| {
                (0..cols)
                    .map(|_| Fr::from_u64(rng.gen_range(0..1000)))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn correct_product_verifies() {
        let mut rng = StdRng::seed_from_u64(7);
        for (a, n, b) in [(1, 1, 1), (2, 2, 2), (3, 5, 4), (8, 8, 8), (7, 13, 9)] {
            let x = random_matrix(a, n, &mut rng);
            let w = random_matrix(n, b, &mut rng);
            let claim = MatMulClaim::compute(&x, &w);
            let proof = prove_matmul(&x, &w, &claim);
            assert!(verify_matmul(&x, &w, &claim, &proof), "dims {a}x{n}x{b}");
            assert!(proof.size_in_bytes() > 0);
        }
    }

    #[test]
    fn wrong_product_rejected() {
        let mut rng = StdRng::seed_from_u64(8);
        let x = random_matrix(4, 6, &mut rng);
        let w = random_matrix(6, 5, &mut rng);
        let mut claim = MatMulClaim::compute(&x, &w);
        claim.y[2][3] += Fr::one();
        let proof = prove_matmul(&x, &w, &claim);
        assert!(!verify_matmul(&x, &w, &claim, &proof));
    }

    #[test]
    fn tampered_proof_rejected() {
        let mut rng = StdRng::seed_from_u64(9);
        let x = random_matrix(4, 4, &mut rng);
        let w = random_matrix(4, 4, &mut rng);
        let claim = MatMulClaim::compute(&x, &w);
        let mut proof = prove_matmul(&x, &w, &claim);
        proof.x_eval += Fr::one();
        assert!(!verify_matmul(&x, &w, &claim, &proof));

        let mut proof = prove_matmul(&x, &w, &claim);
        proof.sumcheck.round_polys[0][0] += Fr::one();
        assert!(!verify_matmul(&x, &w, &claim, &proof));
    }

    #[test]
    fn mismatched_inputs_rejected() {
        // Proof generated for one X must not verify against a different X.
        let mut rng = StdRng::seed_from_u64(10);
        let x = random_matrix(4, 4, &mut rng);
        let w = random_matrix(4, 4, &mut rng);
        let claim = MatMulClaim::compute(&x, &w);
        let proof = prove_matmul(&x, &w, &claim);
        let x2 = random_matrix(4, 4, &mut rng);
        assert!(!verify_matmul(&x2, &w, &claim, &proof));
    }
}
