//! A Bulletproofs-style inner-product argument (non-hiding).
//!
//! Proves knowledge of a vector `a` such that `P = <a, G> + <a, b> * Q` for
//! public generators `G`, `Q` and a public vector `b`, with a proof of
//! `2 log n` group elements. The Spartan-style SNARK uses it to open the
//! multilinear evaluation of the committed witness at the random point
//! produced by the second sum-check.
//!
//! Each round folds the generators as `g' = x^-1 * (g_L + x^2 * g_R)`. The
//! prover never does that per round: the scale `x^-1` and the fold
//! coefficients `x^2` are carried in the *scalars* of the round's two
//! cross-term MSMs (a field multiplication each instead of a group one),
//! and the bases are re-materialised only every [`FOLD_STRIDE`] rounds.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use zkvc_curve::{fold_bases, msm, G1Affine, G1Projective};
use zkvc_ff::{batch_inverse, cancel, Field, Fr};
use zkvc_hash::Transcript;

/// Rounds between two materialisations of the folded generators: the
/// cross-term MSMs stay at the size of the last materialised vector, and a
/// materialisation folds `2^FOLD_STRIDE` blocks into one.
const FOLD_STRIDE: usize = 3;

/// `Q` and the longest `G` derived so far, per label. `hash_to_curve` of
/// `(label, i)` is a pure function, so every point is derived at most once
/// per process and instances of any length share one table by prefix. One
/// entry per distinct label, never freed.
type Table = (G1Affine, Arc<[G1Affine]>);
static TABLES: Mutex<BTreeMap<Vec<u8>, Table>> = Mutex::new(BTreeMap::new());

/// Generators for the inner-product argument.
#[derive(Clone, Debug)]
pub struct IpaGenerators {
    /// The label's shared table; the first `n` entries are the vector bases.
    table: Arc<[G1Affine]>,
    /// Vector length (a power of two).
    n: usize,
    /// The base that carries the inner-product value.
    q: G1Affine,
}

impl IpaGenerators {
    /// Derives generators from a label; `n` is rounded up to a power of two.
    pub fn new(n: usize, label: &[u8]) -> Self {
        let n = n.max(1).next_power_of_two();
        let derive = |suffix: &[u8]| G1Projective::hash_to_curve(&[label, suffix].concat());
        let mut tables = TABLES.lock().expect("generator derivation does not panic");
        let (q, table) = tables
            .entry(label.to_vec())
            .or_insert_with(|| (derive(b"/ipa-q").to_affine(), Arc::from([])));
        if table.len() < n {
            let fresh = (table.len()..n)
                .map(|i| derive(&[&b"/ipa-g/"[..], &(i as u64).to_le_bytes()].concat()));
            let fresh = G1Projective::batch_to_affine(&fresh.collect::<Vec<_>>());
            *table = table.iter().copied().chain(fresh).collect();
        }
        IpaGenerators {
            table: Arc::clone(table),
            n,
            q: *q,
        }
    }

    /// The vector bases.
    fn g(&self) -> &[G1Affine] {
        &self.table[..self.n]
    }

    /// The (padded) vector length supported by these generators.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the generator vector is empty (never true after `new`).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Commits to the vector `a`: `<a, G>` (no blinding).
    pub fn commit(&self, a: &[Fr]) -> G1Projective {
        assert!(a.len() <= self.n, "vector longer than generators");
        msm(&self.g()[..a.len()], a)
    }
}

/// A logarithmic-size inner-product proof.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InnerProductProof {
    /// Left cross terms, one per round.
    pub l_vec: Vec<G1Affine>,
    /// Right cross terms, one per round.
    pub r_vec: Vec<G1Affine>,
    /// The single remaining vector entry after all folding rounds.
    pub a_final: Fr,
}

impl InnerProductProof {
    /// Size of [`Self::to_bytes`] in bytes: the round count, 65 bytes per
    /// point and 32 for the scalar.
    pub fn size_in_bytes(&self) -> usize {
        4 + (self.l_vec.len() + self.r_vec.len()) * 65 + 32
    }

    /// Proves that the committed vector `a` satisfies `<a, b> = c`, where the
    /// verifier knows `commit = <a, G>`, the public vector `b` and `c`.
    ///
    /// # Panics
    /// Panics if `a.len() != b.len()` or the length is not a power of two
    /// matching the generators.
    pub fn prove(
        gens: &IpaGenerators,
        transcript: &mut Transcript,
        a: &[Fr],
        b: &[Fr],
    ) -> InnerProductProof {
        assert_eq!(a.len(), b.len(), "vector length mismatch");
        assert!(a.len().is_power_of_two(), "length must be a power of two");
        assert_eq!(a.len(), gens.len(), "generator length mismatch");

        let mut a = a.to_vec();
        let mut b = b.to_vec();
        let mut l_vec = Vec::new();
        let mut r_vec = Vec::new();

        // With `m = a.len()`, the round's generators are
        //   g_i = mu * sum_p coeffs[p] * bases[p*m + i]
        // over the last materialised `bases`: `mu` is the product of every
        // x^-1 so far, `coeffs[p]` the product of x_j^2 over the rounds j
        // since the materialisation whose bit is set in `p` (first round =
        // most significant bit).
        let mut bases = Cow::Borrowed(gens.g());
        let mut mu = Fr::one();
        let mut coeffs = vec![Fr::one()];
        // Gather buffers of the cross-term MSMs: never more than half the
        // original length plus `Q`, reused by every round.
        let mut points = Vec::with_capacity(a.len() / 2 + 1);
        let mut scalars = Vec::with_capacity(a.len() / 2 + 1);

        while a.len() > 1 {
            cancel::checkpoint();
            if coeffs.len() == 1 << FOLD_STRIDE {
                bases = Cow::Owned(fold_bases(&bases, &coeffs));
                coeffs = vec![Fr::one()];
            }
            let m = a.len();
            let half = m / 2;
            let (a_l, a_r) = a.split_at(half);
            let (b_l, b_r) = b.split_at(half);
            let c_l: Fr = a_l.iter().zip(b_r.iter()).map(|(x, y)| *x * *y).sum();
            let c_r: Fr = a_r.iter().zip(b_l.iter()).map(|(x, y)| *x * *y).sum();

            // <a_half, g_other_half> + c * Q as one MSM over the gathered
            // blocks of `bases`.
            let mut cross_term = |a_half: &[Fr], offset: usize, c: Fr| {
                points.clear();
                scalars.clear();
                for (p, t) in coeffs.iter().enumerate() {
                    let scale = mu * *t;
                    points.extend_from_slice(&bases[p * m + offset..][..half]);
                    scalars.extend(a_half.iter().map(|x| scale * *x));
                }
                points.push(gens.q);
                scalars.push(c);
                msm(&points, &scalars).to_affine()
            };
            let l_aff = cross_term(a_l, half, c_l);
            let r_aff = cross_term(a_r, 0, c_r);
            transcript.append_point(b"ipa L", &l_aff);
            transcript.append_point(b"ipa R", &r_aff);
            l_vec.push(l_aff);
            r_vec.push(r_aff);

            let x = transcript.challenge_field(b"ipa x");
            let x_inv = x.inverse().expect("challenge is non-zero w.o.p.");
            for i in 0..half {
                a[i] = a[i] * x + a[half + i] * x_inv;
                b[i] = b[i] * x_inv + b[half + i] * x;
            }
            a.truncate(half);
            b.truncate(half);
            mu *= x_inv;
            let x_sq = x.square();
            coeffs = coeffs.iter().flat_map(|t| [*t, *t * x_sq]).collect();
        }

        InnerProductProof {
            l_vec,
            r_vec,
            a_final: a[0],
        }
    }

    /// Verifies the proof against `commit = <a, G>`, the public vector `b`
    /// and the claimed inner product `c`.
    pub fn verify(
        &self,
        gens: &IpaGenerators,
        transcript: &mut Transcript,
        commit: &G1Projective,
        b: &[Fr],
        c: &Fr,
    ) -> bool {
        let n = gens.len();
        if b.len() != n || !n.is_power_of_two() {
            return false;
        }
        let rounds = n.trailing_zeros() as usize;
        if self.l_vec.len() != rounds || self.r_vec.len() != rounds {
            return false;
        }

        // Reconstruct challenges.
        let mut challenges = Vec::with_capacity(rounds);
        for (l, r) in self.l_vec.iter().zip(self.r_vec.iter()) {
            if !l.is_on_curve() || !r.is_on_curve() {
                return false;
            }
            transcript.append_point(b"ipa L", l);
            transcript.append_point(b"ipa R", r);
            challenges.push(transcript.challenge_field(b"ipa x"));
        }
        let mut challenges_inv = challenges.clone();
        batch_inverse(&mut challenges_inv);

        // s_i = prod_j x_j^{+1 or -1} by bit (rounds-1-j) of i (round 0
        // pairs i with i+n/2, the top bit). Built by doubling from
        // s_0 = prod_j x_j^-1: setting the bit of round j multiplies by x_j^2.
        let mut s = Vec::with_capacity(n);
        s.push(challenges_inv.iter().copied().product::<Fr>());
        for x in challenges.iter().rev() {
            let x_sq = x.square();
            for i in 0..s.len() {
                s.push(s[i] * x_sq);
            }
        }

        // b folds exactly like G, so b_final = <b, s>.
        let b_final: Fr = b.iter().zip(s.iter()).map(|(bi, si)| *bi * *si).sum();

        // commit + c*Q + sum_j (x_j^2 L_j + x_j^-2 R_j)
        //     == a_final * <s, G> + (a_final * b_final) * Q
        // with everything but `commit` on one side: an MSM over `G` in
        // place (copying it to append 2 log n + 1 points showed in peak
        // RSS) and a short one over the rest. The proof's own points keep
        // their positive scalars: they are only known to be on the curve,
        // and off the prime-order subgroup `-(k * P) != (r - k) * P`.
        let mut g_scalars = s;
        for si in &mut g_scalars {
            *si *= -self.a_final;
        }
        let mut points = vec![gens.q];
        let mut scalars = vec![*c - self.a_final * b_final];
        for ((l, r), (x, x_inv)) in (self.l_vec.iter().zip(self.r_vec.iter()))
            .zip(challenges.iter().zip(challenges_inv.iter()))
        {
            points.extend([*l, *r]);
            scalars.extend([x.square(), x_inv.square()]);
        }
        msm(gens.g(), &g_scalars) + msm(&points, &scalars) == -*commit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use zkvc_ff::PrimeField;

    /// The per-round generator fold `g' = x^-1 * g_L + x * g_R` the prover
    /// replaced, kept as the byte-identity oracle.
    fn prove_reference(
        gens: &IpaGenerators,
        transcript: &mut Transcript,
        a: &[Fr],
        b: &[Fr],
    ) -> InnerProductProof {
        let mut a = a.to_vec();
        let mut b = b.to_vec();
        let mut g = gens.g().to_vec();
        let q = gens.q.to_projective();
        let mut l_vec = Vec::new();
        let mut r_vec = Vec::new();
        while a.len() > 1 {
            let half = a.len() / 2;
            let (a_l, a_r) = a.split_at(half);
            let (b_l, b_r) = b.split_at(half);
            let (g_l, g_r) = g.split_at(half);
            let c_l: Fr = a_l.iter().zip(b_r.iter()).map(|(x, y)| *x * *y).sum();
            let c_r: Fr = a_r.iter().zip(b_l.iter()).map(|(x, y)| *x * *y).sum();
            let l_aff = (msm(g_r, a_l) + q * c_l).to_affine();
            let r_aff = (msm(g_l, a_r) + q * c_r).to_affine();
            transcript.append_point(b"ipa L", &l_aff);
            transcript.append_point(b"ipa R", &r_aff);
            l_vec.push(l_aff);
            r_vec.push(r_aff);
            let x = transcript.challenge_field(b"ipa x");
            let x_inv = x.inverse().expect("challenge is non-zero w.o.p.");
            let fold = |i: usize| {
                (
                    a_l[i] * x + a_r[i] * x_inv,
                    b_l[i] * x_inv + b_r[i] * x,
                    (g_l[i].to_projective() * x_inv + g_r[i].to_projective() * x).to_affine(),
                )
            };
            (a, (b, g)) = (0..half).map(fold).map(|(a, b, g)| (a, (b, g))).unzip();
        }
        InnerProductProof {
            l_vec,
            r_vec,
            a_final: a[0],
        }
    }

    /// The verifier before the O(n) `s` table and the single MSM, kept as
    /// the accept/reject oracle.
    fn verify_reference(
        proof: &InnerProductProof,
        gens: &IpaGenerators,
        transcript: &mut Transcript,
        commit: &G1Projective,
        b: &[Fr],
        c: &Fr,
    ) -> bool {
        let rounds = gens.len().trailing_zeros() as usize;
        let mut challenges = Vec::new();
        for (l, r) in proof.l_vec.iter().zip(proof.r_vec.iter()) {
            transcript.append_point(b"ipa L", l);
            transcript.append_point(b"ipa R", r);
            challenges.push(transcript.challenge_field(b"ipa x"));
        }
        let mut s = vec![Fr::one(); gens.len()];
        for (i, si) in s.iter_mut().enumerate() {
            for (j, x) in challenges.iter().enumerate() {
                let bit = (i >> (rounds - 1 - j)) & 1;
                *si *= if bit == 1 { *x } else { x.inverse().unwrap() };
            }
        }
        let b_final: Fr = b.iter().zip(s.iter()).map(|(bi, si)| *bi * *si).sum();
        let q = gens.q.to_projective();
        let mut p = *commit + q * *c;
        for ((l, r), x) in proof.l_vec.iter().zip(proof.r_vec.iter()).zip(&challenges) {
            let x_sq = x.square();
            p = p + l.to_projective() * x_sq + r.to_projective() * x_sq.inverse().unwrap();
        }
        p == msm(gens.g(), &s) * proof.a_final + q * (proof.a_final * b_final)
    }

    /// The verdict of `verify`, asserted equal to the reference verifier's.
    fn verdict(
        proof: &InnerProductProof,
        gens: &IpaGenerators,
        commit: &G1Projective,
        b: &[Fr],
        c: &Fr,
    ) -> bool {
        let accepted = proof.verify(gens, &mut Transcript::new(b"ipa"), commit, b, c);
        let reference = verify_reference(proof, gens, &mut Transcript::new(b"ipa"), commit, b, c);
        assert_eq!(accepted, reference, "verifiers disagree");
        accepted
    }

    fn prove(gens: &IpaGenerators, a: &[Fr], b: &[Fr]) -> InnerProductProof {
        InnerProductProof::prove(gens, &mut Transcript::new(b"ipa"), a, b)
    }

    fn inner(a: &[Fr], b: &[Fr]) -> Fr {
        a.iter().zip(b.iter()).map(|(x, y)| *x * *y).sum()
    }

    fn random_vec(n: usize, rng: &mut StdRng) -> Vec<Fr> {
        (0..n).map(|_| Fr::random(rng)).collect()
    }

    #[test]
    fn prove_verify_roundtrip() {
        let mut rng = StdRng::seed_from_u64(100);
        for log_n in [0usize, 1, 3, 5, 7] {
            let n = 1 << log_n;
            let gens = IpaGenerators::new(n, b"ipa test");
            let a = random_vec(n, &mut rng);
            let b = random_vec(n, &mut rng);
            let proof = prove(&gens, &a, &b);
            assert!(
                verdict(&proof, &gens, &gens.commit(&a), &b, &inner(&a, &b)),
                "n={n}"
            );
            assert!(proof.size_in_bytes() > 0);
        }
    }

    /// `n` small entries, as a quantised witness holds them: up to 19
    /// bits, some zero.
    fn small_vec(n: usize, rng: &mut StdRng) -> Vec<Fr> {
        (0..n)
            .map(|i| Fr::from_u64(rng.gen::<u64>() >> (45 + i % 19)))
            .collect()
    }

    #[test]
    fn lazy_prover_matches_the_reference_fold_byte_for_byte() {
        // n = 1..=8 never materialise, 8 and 64 end exactly on a stride,
        // the rest end in a partial stride; 16 and up materialise at least
        // once, 128 and up twice. Besides random (full-width), zero,
        // single and zero-padded vectors, quantised-witness shapes whose
        // cross-term scalars start short (`msm` stops at their highest
        // set bit): all small, small with a few full-width entries (in
        // the left and the right half of every early round), both sides
        // of 2^32, and small negatives, which are full width.
        let mut rng = StdRng::seed_from_u64(104);
        let edge = Fr::from_u64(1 << 32);
        for log_n in 0..=9usize {
            let n = 1 << log_n;
            let gens = IpaGenerators::new(n, b"ipa test");
            let b = random_vec(n, &mut rng);
            let mut single = vec![Fr::zero(); n];
            single[n / 3] = Fr::random(&mut rng);
            let mut padded = random_vec(n, &mut rng);
            padded[n / 2 + n / 8..].fill(Fr::zero());
            let mut few_wide = small_vec(n, &mut rng);
            for i in [0, n / 2, n / 4 + n / 8, n - 1, 3 * n / 8 + 1] {
                few_wide[i.min(n - 1)] = Fr::random(&mut rng);
            }
            let mut at_edge = small_vec(n, &mut rng);
            for (i, x) in at_edge.iter_mut().enumerate().filter(|(i, _)| i % 3 != 1) {
                *x = if i % 3 == 0 { edge - Fr::one() } else { edge };
            }
            let mut negatives = small_vec(n, &mut rng);
            for (i, x) in negatives.iter_mut().enumerate().step_by(5) {
                *x = -Fr::from_u64(i as u64 % 7 + 1);
            }
            let shapes = [
                random_vec(n, &mut rng),
                vec![Fr::zero(); n],
                single,
                padded,
                small_vec(n, &mut rng),
                few_wide,
                at_edge,
                negatives,
            ];
            for a in shapes {
                let (mut t_new, mut t_ref) = (Transcript::new(b"ipa"), Transcript::new(b"ipa"));
                let proof = InnerProductProof::prove(&gens, &mut t_new, &a, &b);
                assert_eq!(proof, prove_reference(&gens, &mut t_ref, &a, &b), "n={n}");
                assert_eq!(
                    t_new.challenge_field(b"after"),
                    t_ref.challenge_field(b"after")
                );
            }
        }
    }

    #[test]
    fn generators_are_shared_by_prefix_across_lengths() {
        let long = IpaGenerators::new(32, b"ipa prefix test");
        let short = IpaGenerators::new(8, b"ipa prefix test");
        assert!(Arc::ptr_eq(&long.table, &short.table));
        assert_eq!((short.len(), short.g()), (8, &long.g()[..8]));
        let longer = IpaGenerators::new(64, b"ipa prefix test");
        assert_eq!((&longer.g()[..32], longer.q), (long.g(), long.q));
        assert_ne!(longer.g()[0], IpaGenerators::new(1, b"ipa test").g()[0]);
    }

    #[test]
    fn cancellation_unwinds_from_inside_the_materialisation() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // n = 16: four per-round checkpoints precede the only fold, whose
        // MSMs are too short to checkpoint, so the 10th call is one of the
        // fold's per-bit checkpoints.
        let n = 16;
        let gens = IpaGenerators::new(n, b"ipa test");
        let a = random_vec(n, &mut StdRng::seed_from_u64(105));
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&calls);
        let _guard = cancel::install(Arc::new(move || {
            seen.fetch_add(1, Ordering::Relaxed) + 1 >= 10
        }));
        let before = cancel::unwound_checkpoints();
        let payload = std::panic::catch_unwind(|| prove(&gens, &a, &a))
            .expect_err("the 10th checkpoint cancels");
        assert!(payload.downcast_ref::<cancel::Cancelled>().is_some());
        assert_eq!(calls.load(Ordering::Relaxed), 10);
        assert!(cancel::unwound_checkpoints() > before);
    }

    #[test]
    fn wrong_claim_rejected() {
        let mut rng = StdRng::seed_from_u64(101);
        let n = 8;
        let gens = IpaGenerators::new(n, b"ipa test");
        let a = random_vec(n, &mut rng);
        let b = random_vec(n, &mut rng);
        let proof = prove(&gens, &a, &b);
        let wrong = inner(&a, &b) + Fr::one();
        assert!(!verdict(&proof, &gens, &gens.commit(&a), &b, &wrong));
    }

    #[test]
    fn wrong_commitment_rejected() {
        let mut rng = StdRng::seed_from_u64(102);
        let n = 4;
        let gens = IpaGenerators::new(n, b"ipa test");
        let a = random_vec(n, &mut rng);
        let b = random_vec(n, &mut rng);
        let proof = prove(&gens, &a, &b);
        let bad_commit = gens.commit(&a) + G1Projective::generator();
        assert!(!verdict(&proof, &gens, &bad_commit, &b, &inner(&a, &b)));
    }

    #[test]
    fn tampered_proof_rejected() {
        let mut rng = StdRng::seed_from_u64(103);
        let n = 8;
        let gens = IpaGenerators::new(n, b"ipa test");
        let a = random_vec(n, &mut rng);
        let b = random_vec(n, &mut rng);
        let (commit, c) = (gens.commit(&a), inner(&a, &b));
        let proof = prove(&gens, &a, &b);
        let mut bad = proof.clone();
        bad.a_final += Fr::one();
        assert!(!verdict(&bad, &gens, &commit, &b, &c));
        let mut bad = proof;
        bad.l_vec[1] = bad.r_vec[1];
        assert!(!verdict(&bad, &gens, &commit, &b, &c));
    }
}
