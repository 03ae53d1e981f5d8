//! Radix-2 FFT evaluation domains over a prime field.
//!
//! A domain of size `n = 2^k` is the set of `n`-th roots of unity
//! `{1, w, w^2, ...}`. It supports forward/inverse FFTs, evaluation of the
//! vanishing polynomial `Z(X) = X^n - 1`, Lagrange-coefficient computation
//! and coset FFTs — everything the QAP reduction and the Groth16 prover need.
//!
//! Construction precomputes the forward and inverse twiddle tables (the
//! first `n/2` powers of the group generator and of its inverse), so every
//! FFT over the domain does one table lookup per butterfly instead of a
//! running multiplication, and [`EvaluationDomain::element`] answers in
//! `O(1)`. Domains are meant to be built once per circuit shape and reused
//! — the Groth16 `ProvingKey` carries its quotient-domain instance so the
//! runtime key cache amortises the tables across every proof of a shape.
//! Large FFTs additionally split the butterfly work across scoped worker
//! threads.

use crate::par::{for_chunks_mut, num_threads};
use crate::traits::PrimeField;

/// Below this size a parallel FFT is all spawn overhead: the dispatch
/// cutover of [`EvaluationDomain::fft_in_place`] and
/// [`EvaluationDomain::ifft_in_place`].
const PAR_FFT_MIN: usize = 1 << 12;

/// Whether an FFT over `size` points splits its butterflies across
/// `threads` workers rather than running serially.
fn fft_is_parallel(size: usize, threads: usize) -> bool {
    threads > 1 && size >= PAR_FFT_MIN
}

/// Minimum elements per thread for the data-parallel loops (power
/// distribution, iFFT normalisation).
const PAR_CHUNK_MIN: usize = 1 << 12;

/// A multiplicative subgroup of order `2^k` used for polynomial interpolation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EvaluationDomain<F: PrimeField> {
    size: usize,
    log_size: u32,
    /// Primitive `size`-th root of unity.
    pub group_gen: F,
    /// Inverse of `group_gen`.
    pub group_gen_inv: F,
    /// `size` as a field element, inverted (for iFFT normalisation).
    pub size_inv: F,
    /// Multiplicative coset shift used by [`Self::coset_fft_in_place`].
    pub coset_shift: F,
    /// `[w^0, w^1, ..., w^{n/2-1}]` — forward FFT twiddles.
    twiddles: Vec<F>,
    /// `[w^0, w^-1, ..., w^-(n/2-1)]` — inverse FFT twiddles.
    inv_twiddles: Vec<F>,
}

impl<F: PrimeField> EvaluationDomain<F> {
    /// Creates the smallest power-of-two domain with at least `min_size`
    /// elements, or `None` if the field's 2-adicity is insufficient.
    ///
    /// Costs `O(n)` multiplications for the twiddle tables; build a domain
    /// once per shape and reuse it across FFT calls.
    pub fn new(min_size: usize) -> Option<Self> {
        let size = min_size.max(1).next_power_of_two();
        let log_size = size.trailing_zeros();
        if log_size > F::TWO_ADICITY {
            return None;
        }
        let group_gen = F::nth_root_of_unity(size as u64)?;
        let group_gen_inv = group_gen.inverse()?;
        let size_inv = F::from_u64(size as u64).inverse()?;
        Some(EvaluationDomain {
            size,
            log_size,
            group_gen,
            group_gen_inv,
            size_inv,
            coset_shift: F::multiplicative_generator(),
            twiddles: power_table(group_gen, size / 2),
            inv_twiddles: power_table(group_gen_inv, size / 2),
        })
    }

    /// The number of elements in the domain.
    pub fn size(&self) -> usize {
        self.size
    }

    /// log2 of the domain size.
    pub fn log_size(&self) -> u32 {
        self.log_size
    }

    /// The `i`-th domain element `w^(i mod n)`, answered from the twiddle
    /// table in `O(1)` (the second half of the domain is the negation of
    /// the first, since `w^(n/2) = -1`).
    pub fn element(&self, i: usize) -> F {
        let i = i & (self.size - 1);
        if i < self.twiddles.len() {
            self.twiddles[i]
        } else if i == 0 {
            F::one() // size 1: empty table
        } else {
            -self.twiddles[i - self.twiddles.len()]
        }
    }

    /// All domain elements in order.
    pub fn elements(&self) -> Vec<F> {
        let mut out = Vec::with_capacity(self.size);
        let mut cur = F::one();
        for _ in 0..self.size {
            out.push(cur);
            cur *= self.group_gen;
        }
        out
    }

    /// Evaluates the vanishing polynomial `Z(X) = X^n - 1` at `x`.
    pub fn evaluate_vanishing_polynomial(&self, x: &F) -> F {
        x.pow(&[self.size as u64]) - F::one()
    }

    /// In-place forward FFT: coefficients -> evaluations over the domain.
    /// Domains of `2^12` points and up split the butterfly work across
    /// worker threads when more than one is available; results are
    /// bit-identical to [`Self::fft_in_place_serial`] either way.
    ///
    /// # Panics
    /// Panics if `values.len() != self.size()`.
    pub fn fft_in_place(&self, values: &mut [F]) {
        assert_eq!(values.len(), self.size, "FFT input must match domain size");
        // Size first, thread count second: small FFTs never pay the
        // `available_parallelism` syscall.
        let threads = if self.size >= PAR_FFT_MIN {
            num_threads()
        } else {
            1
        };
        if fft_is_parallel(self.size, threads) {
            parallel_radix2_fft(values, &self.twiddles, threads);
        } else {
            radix2_fft(values, &self.twiddles);
        }
    }

    /// In-place inverse FFT: evaluations -> coefficients, with the same
    /// serial/parallel cutover as [`Self::fft_in_place`].
    pub fn ifft_in_place(&self, values: &mut [F]) {
        assert_eq!(values.len(), self.size, "iFFT input must match domain size");
        let threads = num_threads();
        if fft_is_parallel(self.size, threads) {
            parallel_radix2_fft(values, &self.inv_twiddles, threads);
        } else {
            radix2_fft(values, &self.inv_twiddles);
        }
        let size_inv = self.size_inv;
        for_chunks_mut(values, PAR_CHUNK_MIN, threads, |_, chunk| {
            for v in chunk.iter_mut() {
                *v *= size_inv;
            }
        });
    }

    /// Single-threaded forward FFT: the reference implementation the
    /// parallel path is property-tested (and benchmarked) against.
    pub fn fft_in_place_serial(&self, values: &mut [F]) {
        assert_eq!(values.len(), self.size, "FFT input must match domain size");
        radix2_fft(values, &self.twiddles);
    }

    /// Single-threaded inverse FFT (reference implementation).
    pub fn ifft_in_place_serial(&self, values: &mut [F]) {
        assert_eq!(values.len(), self.size, "iFFT input must match domain size");
        radix2_fft(values, &self.inv_twiddles);
        for v in values.iter_mut() {
            *v *= self.size_inv;
        }
    }

    /// Forward FFT over the coset `shift * H`.
    pub fn coset_fft_in_place(&self, values: &mut [F]) {
        Self::distribute_powers(values, self.coset_shift);
        self.fft_in_place(values);
    }

    /// Inverse FFT over the coset `shift * H`.
    pub fn coset_ifft_in_place(&self, values: &mut [F]) {
        self.ifft_in_place(values);
        let shift_inv = self.coset_shift.inverse().expect("coset shift is non-zero");
        Self::distribute_powers(values, shift_inv);
    }

    /// Evaluates the vanishing polynomial on the coset `shift * H`, where it
    /// is the constant `shift^n - 1`.
    pub fn vanishing_on_coset(&self) -> F {
        self.coset_shift.pow(&[self.size as u64]) - F::one()
    }

    /// Evaluates all `n` Lagrange basis polynomials at the point `tau`.
    ///
    /// `L_i(tau) = Z(tau) / (n * (tau - w^i)) * w^i`.
    pub fn lagrange_coefficients_at(&self, tau: &F) -> Vec<F> {
        let z = self.evaluate_vanishing_polynomial(tau);
        if z.is_zero() {
            // tau is in the domain: indicator vector.
            return self
                .elements()
                .iter()
                .map(|e| if e == tau { F::one() } else { F::zero() })
                .collect();
        }
        let mut denoms: Vec<F> = self.elements().iter().map(|e| *tau - *e).collect();
        crate::traits::batch_inverse(&mut denoms);
        let zn = z * self.size_inv;
        self.elements()
            .iter()
            .zip(denoms.iter())
            .map(|(e, d)| zn * *e * *d)
            .collect()
    }

    /// Interpolates evaluations over the domain into coefficient form.
    pub fn interpolate(&self, mut evals: Vec<F>) -> Vec<F> {
        evals.resize(self.size, F::zero());
        self.ifft_in_place(&mut evals);
        evals
    }

    /// Evaluates coefficient-form polynomial over the whole domain.
    pub fn evaluate_all(&self, coeffs: &[F]) -> Vec<F> {
        let mut vals = coeffs.to_vec();
        vals.resize(self.size, F::zero());
        self.fft_in_place(&mut vals);
        vals
    }

    /// Multiplies `values[i]` by `g^i`, in parallel for large inputs (each
    /// chunk starts from `g^offset` and runs its own running product).
    fn distribute_powers(values: &mut [F], g: F) {
        for_chunks_mut(values, PAR_CHUNK_MIN, num_threads(), |offset, chunk| {
            let mut pow = g.pow(&[offset as u64]);
            for v in chunk.iter_mut() {
                *v *= pow;
                pow *= g;
            }
        });
    }
}

/// `[1, g, g^2, ..., g^{len-1}]`.
fn power_table<F: PrimeField>(g: F, len: usize) -> Vec<F> {
    let mut out = Vec::with_capacity(len);
    let mut cur = F::one();
    for _ in 0..len {
        out.push(cur);
        cur *= g;
    }
    out
}

/// In-place bit-reversal permutation.
fn bit_reverse<F>(values: &mut [F]) {
    let n = values.len() as u64;
    if n <= 1 {
        return; // also avoids the 64-bit shift below overflowing
    }
    let log_n = n.trailing_zeros();
    for i in 0..n {
        let r = i.reverse_bits() >> (64 - log_n);
        if i < r {
            values.swap(i as usize, r as usize);
        }
    }
}

/// One stage's worth of butterflies over paired slices: `lo[j]`/`hi[j]`
/// combine with twiddle `twiddles[(j0 + j) * stride]`.
fn butterflies<F: PrimeField>(
    lo: &mut [F],
    hi: &mut [F],
    twiddles: &[F],
    stride: usize,
    j0: usize,
) {
    for (j, (l, h)) in lo.iter_mut().zip(hi.iter_mut()).enumerate() {
        let t = *h * twiddles[(j0 + j) * stride];
        let u = *l;
        *l = u + t;
        *h = u - t;
    }
}

/// Iterative in-place Cooley-Tukey radix-2 FFT driven by a precomputed
/// twiddle table (`twiddles[j] = omega^j`, `values.len() / 2` entries):
/// one multiplication per butterfly, no per-stage root recomputation.
fn radix2_fft<F: PrimeField>(values: &mut [F], twiddles: &[F]) {
    let n = values.len();
    let log_n = n.trailing_zeros();
    debug_assert_eq!(1 << log_n, n);
    debug_assert_eq!(twiddles.len(), n / 2);

    bit_reverse(values);
    let mut m = 1usize;
    for _ in 0..log_n {
        // Cooperative cancellation point once per stage (log2(n) per FFT),
        // a no-op unless the proving pool installed a deadline check.
        crate::cancel::checkpoint();
        let stride = n / (2 * m);
        for block in values.chunks_mut(2 * m) {
            let (lo, hi) = block.split_at_mut(m);
            butterflies(lo, hi, twiddles, stride, 0);
        }
        m *= 2;
    }
}

/// Parallel radix-2 FFT. Two phases after the bit-reversal permutation:
///
/// 1. stages whose blocks fit inside one contiguous chunk run fully local
///    to a worker thread (no synchronisation between stages);
/// 2. the remaining `log2(chunks)` cross-chunk stages split every block's
///    butterfly range across the workers, one scope per stage.
///
/// Identical arithmetic to [`radix2_fft`] — field addition is exact, so
/// results are bit-equal regardless of thread count.
fn parallel_radix2_fft<F: PrimeField>(values: &mut [F], twiddles: &[F], threads: usize) {
    let n = values.len();
    // Power-of-two chunk count, at least two local stages per chunk.
    let chunks = threads
        .next_power_of_two()
        .min(n / PAR_FFT_MIN.min(n / 2).max(1))
        .max(1);
    if chunks <= 1 {
        radix2_fft(values, twiddles);
        return;
    }
    let chunk_len = n / chunks;

    bit_reverse(values);
    crate::cancel::checkpoint();

    // Phase 1: all stages with block size <= chunk_len, local per chunk.
    crossbeam::thread::scope(|s| {
        for chunk in values.chunks_mut(chunk_len) {
            s.spawn(move |_| {
                let mut m = 1usize;
                while 2 * m <= chunk_len {
                    let stride = n / (2 * m);
                    for block in chunk.chunks_mut(2 * m) {
                        let (lo, hi) = block.split_at_mut(m);
                        butterflies(lo, hi, twiddles, stride, 0);
                    }
                    m *= 2;
                }
            });
        }
    })
    .expect("fft worker panicked");

    // Phase 2: cross-chunk stages; split each block's butterflies. The
    // cancellation checkpoints sit on the orchestrating thread, between
    // stages — spawned workers are not joined individually, so they must
    // not raise the marker themselves (checkpoints there would be inert
    // anyway: thread locals do not propagate into scoped spawns).
    let mut m = chunk_len;
    while m < n {
        crate::cancel::checkpoint();
        let stride = n / (2 * m);
        let num_blocks = n / (2 * m);
        let pieces = (threads / num_blocks).max(1);
        let piece_len = (m / pieces).max(1);
        crossbeam::thread::scope(|s| {
            for block in values.chunks_mut(2 * m) {
                let (lo, hi) = block.split_at_mut(m);
                for (pi, (lp, hp)) in lo
                    .chunks_mut(piece_len)
                    .zip(hi.chunks_mut(piece_len))
                    .enumerate()
                {
                    s.spawn(move |_| butterflies(lp, hp, twiddles, stride, pi * piece_len));
                }
            }
        })
        .expect("fft worker panicked");
        m *= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields::Fr;
    use crate::poly::DensePolynomial;
    use crate::traits::Field;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn domain_sizes() {
        assert_eq!(EvaluationDomain::<Fr>::new(1).unwrap().size(), 1);
        assert_eq!(EvaluationDomain::<Fr>::new(3).unwrap().size(), 4);
        assert_eq!(EvaluationDomain::<Fr>::new(16).unwrap().size(), 16);
        assert_eq!(EvaluationDomain::<Fr>::new(17).unwrap().size(), 32);
        // The field supports 2^32; anything above that must fail.
        assert!(EvaluationDomain::<Fr>::new(1usize << 33).is_none());
    }

    #[test]
    fn element_is_constant_time_table_lookup() {
        for n in [1usize, 2, 8, 32, 64] {
            let domain = EvaluationDomain::<Fr>::new(n).unwrap();
            for i in 0..domain.size() {
                assert_eq!(
                    domain.element(i),
                    domain.group_gen.pow(&[i as u64]),
                    "n={n} i={i}"
                );
            }
            // Indices wrap around the domain (w^n = 1).
            assert_eq!(
                domain.element(domain.size() + 3),
                domain.element(3 % domain.size())
            );
        }
    }

    #[test]
    fn parallel_cutover_reproduces_historical_threshold() {
        for log2 in 0..12 {
            assert!(!fft_is_parallel(1 << log2, 8), "2^{log2} must stay serial");
        }
        for log2 in 12..=28 {
            assert!(fft_is_parallel(1 << log2, 8), "2^{log2} must go parallel");
            assert!(
                !fft_is_parallel(1 << log2, 1),
                "one thread is always serial"
            );
        }
    }

    #[test]
    fn parallel_fft_matches_serial_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(77);
        // 11 and 12 sit on either side of the PAR_FFT_MIN dispatch cutover.
        for log_n in [6usize, 9, 11, 12, 13] {
            let n = 1usize << log_n;
            let domain = EvaluationDomain::<Fr>::new(n).unwrap();
            let original: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();

            let mut serial = original.clone();
            domain.fft_in_place_serial(&mut serial);
            for threads in [2usize, 3, 8] {
                let mut par = original.clone();
                parallel_radix2_fft(&mut par, &domain.twiddles, threads);
                assert_eq!(par, serial, "fft log_n={log_n} threads={threads}");
            }
            // The dispatching entry points agree regardless of which path
            // they take on this machine.
            let mut v = original.clone();
            domain.fft_in_place(&mut v);
            assert_eq!(v, serial);

            let mut iserial = original.clone();
            domain.ifft_in_place_serial(&mut iserial);
            let mut v = original.clone();
            domain.ifft_in_place(&mut v);
            assert_eq!(v, iserial, "ifft dispatch log_n={log_n}");
            let mut ipar = original.clone();
            parallel_radix2_fft(&mut ipar, &domain.inv_twiddles, 4);
            for x in &mut ipar {
                *x *= domain.size_inv;
            }
            assert_eq!(ipar, iserial, "ifft log_n={log_n}");
        }
    }

    #[test]
    fn size_one_domain_fft_is_identity() {
        let domain = EvaluationDomain::<Fr>::new(1).unwrap();
        let mut v = vec![Fr::from_u64(5)];
        domain.fft_in_place(&mut v);
        domain.ifft_in_place(&mut v);
        assert_eq!(v, vec![Fr::from_u64(5)]);
    }

    #[test]
    fn fft_ifft_roundtrip() {
        let mut rng = StdRng::seed_from_u64(7);
        let domain = EvaluationDomain::<Fr>::new(64).unwrap();
        let original: Vec<Fr> = (0..64).map(|_| Fr::random(&mut rng)).collect();
        let mut v = original.clone();
        domain.fft_in_place(&mut v);
        domain.ifft_in_place(&mut v);
        assert_eq!(v, original);
    }

    #[test]
    fn coset_fft_roundtrip() {
        let mut rng = StdRng::seed_from_u64(8);
        let domain = EvaluationDomain::<Fr>::new(32).unwrap();
        let original: Vec<Fr> = (0..32).map(|_| Fr::random(&mut rng)).collect();
        let mut v = original.clone();
        domain.coset_fft_in_place(&mut v);
        domain.coset_ifft_in_place(&mut v);
        assert_eq!(v, original);
    }

    #[test]
    fn fft_agrees_with_direct_evaluation() {
        let domain = EvaluationDomain::<Fr>::new(8).unwrap();
        let coeffs: Vec<Fr> = (1..=8).map(Fr::from_u64).collect();
        let poly = DensePolynomial::from_coeffs(coeffs.clone());
        let evals = domain.evaluate_all(&coeffs);
        for (i, e) in evals.iter().enumerate() {
            assert_eq!(*e, poly.evaluate(&domain.element(i)));
        }
    }

    #[test]
    fn vanishing_polynomial_zero_on_domain() {
        let domain = EvaluationDomain::<Fr>::new(16).unwrap();
        for e in domain.elements() {
            assert!(domain.evaluate_vanishing_polynomial(&e).is_zero());
        }
        assert!(!domain
            .evaluate_vanishing_polynomial(&Fr::from_u64(12345))
            .is_zero());
        // On the coset, the vanishing polynomial is the nonzero constant.
        let c = domain.vanishing_on_coset();
        assert!(!c.is_zero());
        let x = domain.coset_shift * domain.element(3);
        assert_eq!(domain.evaluate_vanishing_polynomial(&x), c);
    }

    #[test]
    fn lagrange_coefficients_interpolate() {
        let mut rng = StdRng::seed_from_u64(9);
        let domain = EvaluationDomain::<Fr>::new(8).unwrap();
        let evals: Vec<Fr> = (0..8).map(|_| Fr::random(&mut rng)).collect();
        let coeffs = domain.interpolate(evals.clone());
        let poly = DensePolynomial::from_coeffs(coeffs);
        let tau = Fr::random(&mut rng);
        let lag = domain.lagrange_coefficients_at(&tau);
        let via_lagrange: Fr = lag.iter().zip(evals.iter()).map(|(l, e)| *l * *e).sum();
        assert_eq!(via_lagrange, poly.evaluate(&tau));
    }

    #[test]
    fn lagrange_at_domain_point_is_indicator() {
        let domain = EvaluationDomain::<Fr>::new(8).unwrap();
        let tau = domain.element(5);
        let lag = domain.lagrange_coefficients_at(&tau);
        for (i, l) in lag.iter().enumerate() {
            assert_eq!(*l, if i == 5 { Fr::one() } else { Fr::zero() });
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_interpolate_evaluate_roundtrip(vals in prop::collection::vec(0u64..1_000_000, 1..33)) {
            let domain = EvaluationDomain::<Fr>::new(vals.len()).unwrap();
            let evals: Vec<Fr> = vals.iter().map(|v| Fr::from_u64(*v))
                .chain(std::iter::repeat(Fr::zero()))
                .take(domain.size())
                .collect();
            let coeffs = domain.interpolate(evals.clone());
            let back = domain.evaluate_all(&coeffs);
            prop_assert_eq!(back, evals);
        }
    }
}
