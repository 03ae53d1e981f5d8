//! The sum-check protocol over multilinear polynomials.
//!
//! Two specialisations are provided, matching the two phases of the
//! Spartan-style SNARK (and reused by `zkvc-interactive`'s matmul protocol):
//!
//! * degree-2: `sum_x P(x) * Q(x)`
//! * degree-3: `sum_x E(x) * (A(x) * B(x) - C(x))`
//!
//! Each round the prover sends the round polynomial as its evaluations at
//! `0, 1, ..., degree`; the verifier checks `g(0) + g(1) = claim`, samples a
//! challenge through the Fiat-Shamir transcript and continues with
//! `claim' = g(r)`.

use zkvc_ff::{Field, Fr, MultilinearPolynomial};
use zkvc_hash::Transcript;

/// The prover messages of one sum-check execution: one vector of round
/// polynomial evaluations (at `0..=degree`) per variable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SumcheckProof {
    /// `round_polys[j][k]` is the j-th round polynomial evaluated at `k`.
    pub round_polys: Vec<Vec<Fr>>,
}

impl SumcheckProof {
    /// Number of field elements in the proof (for proof-size accounting).
    pub fn num_field_elements(&self) -> usize {
        self.round_polys.iter().map(Vec::len).sum()
    }
}

/// Result of verifying a sum-check proof: the challenges used and the
/// claimed evaluation of the combined polynomial at that random point.
#[derive(Clone, Debug)]
pub struct SumcheckSubclaim {
    /// The random point built from the per-round challenges.
    pub point: Vec<Fr>,
    /// The value the combined polynomial must take at `point`.
    pub expected_evaluation: Fr,
}

/// Evaluates a univariate polynomial given by its evaluations at
/// `0, 1, ..., d` at an arbitrary point `x` (Lagrange interpolation).
fn interpolate_uni(evals: &[Fr], x: &Fr) -> Fr {
    let d = evals.len();
    let mut result = Fr::zero();
    for (i, yi) in evals.iter().enumerate() {
        let mut num = Fr::one();
        let mut den = Fr::one();
        let xi = Fr::from_u64(i as u64);
        for j in 0..d {
            if i == j {
                continue;
            }
            let xj = Fr::from_u64(j as u64);
            num *= *x - xj;
            den *= xi - xj;
        }
        result += *yi * num * den.inverse().expect("distinct interpolation nodes");
    }
    result
}

use zkvc_ff::PrimeField;

/// Below this many index pairs a parallel round evaluation is all spawn
/// overhead.
const PAR_ROUND_MIN: usize = 1 << 12;

/// Splits `0..half` across `threads` workers, runs `fold` on each range and
/// sums the per-range partial vectors in range order. Field addition is
/// exact (associative and commutative), so the result — and therefore the
/// Fiat-Shamir transcript built from it — is bit-identical to a serial
/// fold regardless of the thread count.
fn parallel_fold_sum<const K: usize, F>(half: usize, threads: usize, fold: F) -> [Fr; K]
where
    F: Fn(core::ops::Range<usize>) -> [Fr; K] + Send + Sync,
{
    if half < PAR_ROUND_MIN || threads <= 1 {
        return fold(0..half);
    }
    let chunk = half.div_ceil(threads);
    let starts: Vec<usize> = (0..half).step_by(chunk).collect();
    let mut partials = vec![[Fr::zero(); K]; starts.len()];
    crossbeam::thread::scope(|s| {
        for (slot, &start) in partials.iter_mut().zip(starts.iter()) {
            let fold = &fold;
            s.spawn(move |_| *slot = fold(start..(start + chunk).min(half)));
        }
    })
    .expect("sumcheck fold worker panicked");
    let mut total = [Fr::zero(); K];
    for part in &partials {
        for (t, v) in total.iter_mut().zip(part.iter()) {
            *t += *v;
        }
    }
    total
}

/// One round of the degree-2 sum-check: evaluations of the round polynomial
/// at `t = 0, 1, 2`, accumulated chunk-parallel for large tables.
fn quadratic_round_evals(
    p: &MultilinearPolynomial<Fr>,
    q: &MultilinearPolynomial<Fr>,
    threads: usize,
) -> [Fr; 3] {
    let half = p.len() / 2;
    let pe = p.evaluations();
    let qe = q.evaluations();
    parallel_fold_sum(half, threads, |range| {
        let (mut e0, mut e1, mut e2) = (Fr::zero(), Fr::zero(), Fr::zero());
        for i in range {
            let p0 = pe[2 * i];
            let p1 = pe[2 * i + 1];
            let q0 = qe[2 * i];
            let q1 = qe[2 * i + 1];
            e0 += p0 * q0;
            e1 += p1 * q1;
            // evaluation at t=2: p(2) = 2*p1 - p0 (linear extrapolation)
            let p2 = p1.double() - p0;
            let q2 = q1.double() - q0;
            e2 += p2 * q2;
        }
        [e0, e1, e2]
    })
}

/// One round of the degree-3 sum-check: evaluations at `t = 0, 1, 2, 3`.
fn cubic_round_evals(
    e: &MultilinearPolynomial<Fr>,
    a: &MultilinearPolynomial<Fr>,
    b: &MultilinearPolynomial<Fr>,
    c: &MultilinearPolynomial<Fr>,
    threads: usize,
) -> [Fr; 4] {
    let half = e.len() / 2;
    let (ee, ae, be, ce) = (
        e.evaluations(),
        a.evaluations(),
        b.evaluations(),
        c.evaluations(),
    );
    parallel_fold_sum(half, threads, |range| {
        let mut evals = [Fr::zero(); 4];
        for i in range {
            let (e0, e1) = (ee[2 * i], ee[2 * i + 1]);
            let (a0, a1) = (ae[2 * i], ae[2 * i + 1]);
            let (b0, b1) = (be[2 * i], be[2 * i + 1]);
            let (c0, c1) = (ce[2 * i], ce[2 * i + 1]);
            // linear in t: v(t) = v0 + t*(v1 - v0)
            let de = e1 - e0;
            let da = a1 - a0;
            let db = b1 - b0;
            let dc = c1 - c0;
            let mut et = e0;
            let mut at = a0;
            let mut bt = b0;
            let mut ct = c0;
            evals[0] += et * (at * bt - ct);
            for item in evals.iter_mut().skip(1) {
                et += de;
                at += da;
                bt += db;
                ct += dc;
                *item += et * (at * bt - ct);
            }
        }
        evals
    })
}

/// Proves `claim = sum_{x in {0,1}^v} P(x) * Q(x)`.
///
/// Returns the proof, the challenge point and the final evaluations
/// `(P(r), Q(r))` that the caller must justify to the verifier.
pub fn prove_quadratic(
    claim: &Fr,
    p: &MultilinearPolynomial<Fr>,
    q: &MultilinearPolynomial<Fr>,
    transcript: &mut Transcript,
) -> (SumcheckProof, Vec<Fr>, (Fr, Fr)) {
    prove_quadratic_with_threads(claim, p, q, transcript, zkvc_ff::par::num_threads())
}

/// [`prove_quadratic`] with an explicit worker count (`1` forces the serial
/// reference path; the tests assert transcript equality across counts).
fn prove_quadratic_with_threads(
    claim: &Fr,
    p: &MultilinearPolynomial<Fr>,
    q: &MultilinearPolynomial<Fr>,
    transcript: &mut Transcript,
    threads: usize,
) -> (SumcheckProof, Vec<Fr>, (Fr, Fr)) {
    assert_eq!(p.num_vars(), q.num_vars(), "operand arity mismatch");
    let mut p = p.clone();
    let mut q = q.clone();
    let num_vars = p.num_vars();
    let mut round_polys = Vec::with_capacity(num_vars);
    let mut point = Vec::with_capacity(num_vars);
    let mut claim = *claim;

    for _ in 0..num_vars {
        let evals = quadratic_round_evals(&p, &q, threads).to_vec();
        transcript.append_fields(b"sumcheck round", &evals);
        let r = transcript.challenge_field(b"sumcheck challenge");
        claim = interpolate_uni(&evals, &r);
        round_polys.push(evals);
        point.push(r);
        p.fix_first_variable(r);
        q.fix_first_variable(r);
    }
    let final_evals = (p.evaluations()[0], q.evaluations()[0]);
    debug_assert_eq!(final_evals.0 * final_evals.1, claim);
    (SumcheckProof { round_polys }, point, final_evals)
}

/// Proves `claim = sum_{x in {0,1}^v} E(x) * (A(x) * B(x) - C(x))`.
///
/// Returns the proof, the challenge point and the final evaluations
/// `(E(r), A(r), B(r), C(r))`.
pub fn prove_cubic(
    claim: &Fr,
    e: &MultilinearPolynomial<Fr>,
    a: &MultilinearPolynomial<Fr>,
    b: &MultilinearPolynomial<Fr>,
    c: &MultilinearPolynomial<Fr>,
    transcript: &mut Transcript,
) -> (SumcheckProof, Vec<Fr>, (Fr, Fr, Fr, Fr)) {
    prove_cubic_with_threads(claim, e, a, b, c, transcript, zkvc_ff::par::num_threads())
}

/// [`prove_cubic`] with an explicit worker count (`1` forces the serial
/// reference path; the tests assert transcript equality across counts).
#[allow(clippy::too_many_arguments)]
fn prove_cubic_with_threads(
    claim: &Fr,
    e: &MultilinearPolynomial<Fr>,
    a: &MultilinearPolynomial<Fr>,
    b: &MultilinearPolynomial<Fr>,
    c: &MultilinearPolynomial<Fr>,
    transcript: &mut Transcript,
    threads: usize,
) -> (SumcheckProof, Vec<Fr>, (Fr, Fr, Fr, Fr)) {
    let num_vars = e.num_vars();
    assert!(
        a.num_vars() == num_vars && b.num_vars() == num_vars && c.num_vars() == num_vars,
        "operand arity mismatch"
    );
    let mut e = e.clone();
    let mut a = a.clone();
    let mut b = b.clone();
    let mut c = c.clone();
    let mut round_polys = Vec::with_capacity(num_vars);
    let mut point = Vec::with_capacity(num_vars);
    let mut claim = *claim;

    for _ in 0..num_vars {
        let evals = cubic_round_evals(&e, &a, &b, &c, threads).to_vec();
        transcript.append_fields(b"sumcheck round", &evals);
        let r = transcript.challenge_field(b"sumcheck challenge");
        claim = interpolate_uni(&evals, &r);
        round_polys.push(evals);
        point.push(r);
        e.fix_first_variable(r);
        a.fix_first_variable(r);
        b.fix_first_variable(r);
        c.fix_first_variable(r);
    }
    let final_evals = (
        e.evaluations()[0],
        a.evaluations()[0],
        b.evaluations()[0],
        c.evaluations()[0],
    );
    debug_assert_eq!(
        final_evals.0 * (final_evals.1 * final_evals.2 - final_evals.3),
        claim
    );
    (SumcheckProof { round_polys }, point, final_evals)
}

/// Verifies a sum-check proof of the given degree against an initial claim.
///
/// Returns the sub-claim (random point + expected evaluation of the combined
/// polynomial there); the caller is responsible for checking that
/// evaluation.
pub fn verify(
    claim: &Fr,
    num_vars: usize,
    degree: usize,
    proof: &SumcheckProof,
    transcript: &mut Transcript,
) -> Option<SumcheckSubclaim> {
    if proof.round_polys.len() != num_vars {
        return None;
    }
    let mut claim = *claim;
    let mut point = Vec::with_capacity(num_vars);
    for evals in &proof.round_polys {
        if evals.len() != degree + 1 {
            return None;
        }
        // consistency: g(0) + g(1) == claim
        if evals[0] + evals[1] != claim {
            return None;
        }
        transcript.append_fields(b"sumcheck round", evals);
        let r = transcript.challenge_field(b"sumcheck challenge");
        claim = interpolate_uni(evals, &r);
        point.push(r);
    }
    Some(SumcheckSubclaim {
        point,
        expected_evaluation: claim,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use zkvc_ff::poly::eq_evals;

    fn random_mle(n: usize, rng: &mut StdRng) -> MultilinearPolynomial<Fr> {
        MultilinearPolynomial::from_evaluations((0..n).map(|_| Fr::random(rng)).collect())
    }

    #[test]
    fn quadratic_sumcheck_roundtrip() {
        let mut rng = StdRng::seed_from_u64(21);
        for log_n in [1usize, 3, 5] {
            let n = 1 << log_n;
            let p = random_mle(n, &mut rng);
            let q = random_mle(n, &mut rng);
            let claim: Fr = (0..n)
                .map(|i| p.evaluations()[i] * q.evaluations()[i])
                .sum();

            let mut tp = Transcript::new(b"test");
            let (proof, point, (pv, qv)) = prove_quadratic(&claim, &p, &q, &mut tp);

            let mut tv = Transcript::new(b"test");
            let sub = verify(&claim, log_n, 2, &proof, &mut tv).expect("should verify");
            assert_eq!(sub.point, point);
            assert_eq!(sub.expected_evaluation, pv * qv);
            assert_eq!(p.evaluate(&point), pv);
            assert_eq!(q.evaluate(&point), qv);
        }
    }

    #[test]
    fn cubic_sumcheck_roundtrip() {
        let mut rng = StdRng::seed_from_u64(22);
        let log_n = 4usize;
        let n = 1 << log_n;
        let tau: Vec<Fr> = (0..log_n).map(|_| Fr::random(&mut rng)).collect();
        let e = MultilinearPolynomial::from_evaluations(eq_evals(&tau));
        let a = random_mle(n, &mut rng);
        let b = random_mle(n, &mut rng);
        // make A*B = C pointwise so the claim is zero (like a satisfied R1CS)
        let c = MultilinearPolynomial::from_evaluations(
            (0..n)
                .map(|i| a.evaluations()[i] * b.evaluations()[i])
                .collect(),
        );
        let claim = Fr::zero();
        let mut tp = Transcript::new(b"cubic");
        let (proof, point, (ev, av, bv, cv)) = prove_cubic(&claim, &e, &a, &b, &c, &mut tp);

        let mut tv = Transcript::new(b"cubic");
        let sub = verify(&claim, log_n, 3, &proof, &mut tv).expect("should verify");
        assert_eq!(sub.point, point);
        assert_eq!(sub.expected_evaluation, ev * (av * bv - cv));
        assert_eq!(e.evaluate(&point), ev);
        assert_eq!(a.evaluate(&point), av);
    }

    #[test]
    fn tampered_round_poly_rejected() {
        let mut rng = StdRng::seed_from_u64(23);
        let n = 8;
        let p = random_mle(n, &mut rng);
        let q = random_mle(n, &mut rng);
        let claim: Fr = (0..n)
            .map(|i| p.evaluations()[i] * q.evaluations()[i])
            .sum();
        let mut tp = Transcript::new(b"t");
        let (mut proof, _, _) = prove_quadratic(&claim, &p, &q, &mut tp);
        proof.round_polys[1][0] += Fr::one();
        let mut tv = Transcript::new(b"t");
        assert!(verify(&claim, 3, 2, &proof, &mut tv).is_none());
    }

    #[test]
    fn wrong_claim_rejected() {
        let mut rng = StdRng::seed_from_u64(24);
        let n = 8;
        let p = random_mle(n, &mut rng);
        let q = random_mle(n, &mut rng);
        let claim: Fr = (0..n)
            .map(|i| p.evaluations()[i] * q.evaluations()[i])
            .sum();
        let mut tp = Transcript::new(b"t");
        let (proof, _, _) = prove_quadratic(&claim, &p, &q, &mut tp);
        let mut tv = Transcript::new(b"t");
        assert!(verify(&(claim + Fr::one()), 3, 2, &proof, &mut tv).is_none());
    }

    #[test]
    fn parallel_sumcheck_transcript_matches_serial_byte_for_byte() {
        // Table large enough that the chunked fold actually engages
        // (half == PAR_ROUND_MIN); proofs, challenge points, final claims
        // and the post-protocol transcript state must all be identical to
        // the single-threaded reference.
        let mut rng = StdRng::seed_from_u64(25);
        let n = 2 * PAR_ROUND_MIN;
        let log_n = n.trailing_zeros() as usize;
        let p = random_mle(n, &mut rng);
        let q = random_mle(n, &mut rng);
        let claim: Fr = (0..n)
            .map(|i| p.evaluations()[i] * q.evaluations()[i])
            .sum();

        let mut t_serial = Transcript::new(b"par");
        let serial = prove_quadratic_with_threads(&claim, &p, &q, &mut t_serial, 1);
        let serial_tail = t_serial.challenge_field(b"tail");
        for threads in [2usize, 3, 8] {
            let mut t_par = Transcript::new(b"par");
            let par = prove_quadratic_with_threads(&claim, &p, &q, &mut t_par, threads);
            assert_eq!(par.0, serial.0, "round polys, threads={threads}");
            assert_eq!(par.1, serial.1, "challenge point");
            assert_eq!(par.2, serial.2, "final evaluations");
            assert_eq!(
                t_par.challenge_field(b"tail"),
                serial_tail,
                "transcript state diverged (threads={threads})"
            );
        }
        let mut tv = Transcript::new(b"par");
        assert!(verify(&claim, log_n, 2, &serial.0, &mut tv).is_some());
    }

    #[test]
    fn parallel_cubic_sumcheck_matches_serial() {
        let mut rng = StdRng::seed_from_u64(26);
        let n = 2 * PAR_ROUND_MIN;
        let e = random_mle(n, &mut rng);
        let a = random_mle(n, &mut rng);
        let b = random_mle(n, &mut rng);
        let c = random_mle(n, &mut rng);
        let claim: Fr = (0..n)
            .map(|i| {
                e.evaluations()[i] * (a.evaluations()[i] * b.evaluations()[i] - c.evaluations()[i])
            })
            .sum();
        let mut t_serial = Transcript::new(b"cpar");
        let serial = prove_cubic_with_threads(&claim, &e, &a, &b, &c, &mut t_serial, 1);
        let mut t_par = Transcript::new(b"cpar");
        let par = prove_cubic_with_threads(&claim, &e, &a, &b, &c, &mut t_par, 4);
        assert_eq!(par.0, serial.0);
        assert_eq!(par.1, serial.1);
        assert_eq!(par.2, serial.2);
        assert_eq!(
            t_par.challenge_field(b"tail"),
            t_serial.challenge_field(b"tail")
        );
    }

    #[test]
    fn interpolation_helper() {
        // g(t) = 2 + 3t + t^2 from evaluations at 0,1,2
        let evals: Vec<Fr> = vec![Fr::from_u64(2), Fr::from_u64(6), Fr::from_u64(12)];
        assert_eq!(interpolate_uni(&evals, &Fr::from_u64(3)), Fr::from_u64(20));
        assert_eq!(interpolate_uni(&evals, &Fr::from_u64(0)), Fr::from_u64(2));
    }
}
