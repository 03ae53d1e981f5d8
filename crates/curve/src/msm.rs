//! Multi-scalar multiplication (Pippenger's bucket method).
//!
//! The dominant cost of the Groth16 prover is five large MSMs over the CRS.
//! The fast path here ([`msm`]) combines three classic optimisations on top
//! of the bucketed window method:
//!
//! 1. **Signed-digit windows** — scalars are decomposed into digits in
//!    `(-2^(c-1), 2^(c-1)]`, halving the bucket count per window (negative
//!    digits add the negated point, which is free in affine coordinates).
//! 2. **Chunk-parallel scheduling** — the *points* are split across worker
//!    threads; each chunk computes partial bucket sums for every window, so
//!    total work scales with cores instead of every thread walking all `N`
//!    points (the seed implementation, [`msm_window_parallel`], parallelises
//!    only across the ~30 windows; it stays the driver below
//!    `AFFINE_MSM_MIN` = 4 096 points).
//! 3. **Batch-affine bucket accumulation** — bucket additions are performed
//!    in affine coordinates with the per-addition field inversion amortised
//!    across a whole round of independent bucket updates via
//!    [`batch_inverse`] (Montgomery's trick), making each digit addition
//!    several times cheaper than a mixed projective addition.
//!
//! Everything is generic over [`AffinePoint`]/[`CurveGroup`], so the `G1`
//! and `G2` MSMs of the prover share this single implementation.

use crossbeam::thread;
use zkvc_ff::{batch_inverse, cancel, Field, PrimeField};

use crate::group::{AffinePoint, CurveGroup};

/// Computes `sum_i scalars[i] * bases[i]` with Pippenger's algorithm,
/// single-threaded, using unsigned digits and projective buckets, with no
/// window above the largest scalar's highest set bit. Kept as the simple
/// reference implementation (and the small-input path).
///
/// # Panics
/// Panics if `bases.len() != scalars.len()`.
pub fn msm_serial<A: AffinePoint>(bases: &[A], scalars: &[A::Scalar]) -> A::Projective {
    assert_eq!(bases.len(), scalars.len(), "bases/scalars length mismatch");
    if bases.is_empty() {
        return A::Projective::identity();
    }
    let c = unsigned_window_size(bases.len());
    let (canon, num_bits) = canonical_scalars(scalars);
    let windows: Vec<usize> = (0..num_bits).step_by(c).collect();

    let window_sums: Vec<A::Projective> = windows
        .iter()
        .map(|&w_start| unsigned_window_sum(bases, &canon, w_start, c))
        .collect();

    combine_windows(&window_sums, c)
}

/// The seed parallel driver: Pippenger with unsigned digits, projective
/// buckets and the *windows* split across worker threads. Every thread
/// still walks all `N` points, so total work is `N x windows` regardless
/// of core count; the windows stop at the largest scalar's highest set
/// bit, so `b`-bit scalars cost `b / c` windows, not `MODULUS_BITS / c`. [`msm`]
/// runs it below 4 096 points, and the kernels bench times the
/// chunk-parallel driver against it above.
///
/// # Panics
/// Panics if `bases.len() != scalars.len()`.
pub fn msm_window_parallel<A: AffinePoint>(bases: &[A], scalars: &[A::Scalar]) -> A::Projective {
    assert_eq!(bases.len(), scalars.len(), "bases/scalars length mismatch");
    if bases.is_empty() {
        return A::Projective::identity();
    }
    if bases.len() < 64 {
        return msm_serial(bases, scalars);
    }
    // Small-MSM path: one checkpoint on the orchestrating thread per call
    // (the window workers below are not joined individually, so they must
    // not raise the cancellation marker themselves).
    cancel::checkpoint();
    let c = unsigned_window_size(bases.len());
    let (canon, num_bits) = canonical_scalars(scalars);
    let windows: Vec<usize> = (0..num_bits).step_by(c).collect();
    if windows.is_empty() {
        return A::Projective::identity();
    }
    let n_threads = zkvc_ff::par::num_threads().min(windows.len());

    let mut window_sums = vec![A::Projective::identity(); windows.len()];
    let chunk = windows.len().div_ceil(n_threads);
    thread::scope(|s| {
        for (out_chunk, win_chunk) in window_sums.chunks_mut(chunk).zip(windows.chunks(chunk)) {
            let canon = &canon;
            s.spawn(move |_| {
                for (out, &w_start) in out_chunk.iter_mut().zip(win_chunk.iter()) {
                    *out = unsigned_window_sum(bases, canon, w_start, c);
                }
            });
        }
    })
    .expect("msm worker thread panicked");

    combine_windows(&window_sums, c)
}

/// The cutover of [`msm`]: from this many points up it takes the
/// batch-affine chunk-parallel driver, below it [`msm_window_parallel`].
/// With fewer points the batched inversions amortise over too few bucket
/// additions per round to beat plain projective buckets.
const AFFINE_MSM_MIN: usize = 1 << 12;

/// Computes `sum_i scalars[i] * bases[i]`: signed-digit windows,
/// batch-affine buckets, and the points chunked across worker threads so
/// the work scales with available cores. Inputs below 4 096 points go to
/// [`msm_window_parallel`] instead; the result is identical either way.
///
/// # Panics
/// Panics if `bases.len() != scalars.len()`.
pub fn msm<A: AffinePoint>(bases: &[A], scalars: &[A::Scalar]) -> A::Projective {
    assert_eq!(bases.len(), scalars.len(), "bases/scalars length mismatch");
    let n = bases.len();
    if n < AFFINE_MSM_MIN {
        return msm_window_parallel(bases, scalars);
    }
    msm_with_chunks(bases, scalars, default_num_chunks(n))
}

/// The chunk count [`msm`] splits `n` points into on this host: one chunk
/// per available thread, shrunk so no chunk drops below ~`MIN_CHUNK`
/// points (spawn + bucket-merge overhead dominates tiny chunks).
fn default_num_chunks(n: usize) -> usize {
    const MIN_CHUNK: usize = 1 << 8;
    zkvc_ff::par::num_threads()
        .min(n.div_ceil(MIN_CHUNK))
        .max(1)
}

/// Runs `f` over `num_chunks` contiguous index ranges covering `0..n` and
/// returns the results in range order: inline for a single chunk, one
/// fresh thread per range otherwise.
///
/// Workers are fresh threads, so the caller's cancellation check (if any)
/// is re-installed in each; handles are joined explicitly and panic
/// payloads re-raised intact so a `cancel::Cancelled` marker thrown
/// mid-kernel reaches the pool's catch site undisturbed.
fn map_chunks<R: Send>(
    n: usize,
    num_chunks: usize,
    f: impl Fn(core::ops::Range<usize>) -> R + Sync,
) -> Vec<R> {
    if num_chunks <= 1 || n == 0 {
        return vec![f(0..n)];
    }
    let chunk_len = n.div_ceil(num_chunks);
    let cancel_check = cancel::current();
    let mut parts = Vec::with_capacity(num_chunks);
    thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .step_by(chunk_len)
            .map(|start| {
                let cancel_check = cancel_check.clone();
                let f = &f;
                s.spawn(move |_| {
                    let _guard = cancel_check.map(cancel::install);
                    f(start..(start + chunk_len).min(n))
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(part) => parts.push(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    })
    .expect("chunk scope failed");
    parts
}

/// The batch-affine chunk-parallel driver with an explicit chunk count and
/// the window width from the cost model in [`signed_window_size`] (the
/// tests call it directly so the multi-chunk path is exercised
/// deterministically).
fn msm_with_chunks<A: AffinePoint>(
    bases: &[A],
    scalars: &[A::Scalar],
    num_chunks: usize,
) -> A::Projective {
    let c = signed_window_size(bases.len(), num_chunks);
    let num_windows = (A::Scalar::MODULUS_BITS as usize + 1).div_ceil(c);
    let window_sums = map_chunks(bases.len(), num_chunks, |r| {
        chunk_window_sums(&bases[r.clone()], &scalars[r], c, num_windows)
    })
    .into_iter()
    .reduce(|mut sums, part| {
        for (sum, p) in sums.iter_mut().zip(part.iter()) {
            *sum = sum.add(p);
        }
        sums
    })
    .expect("at least one chunk");
    combine_windows(&window_sums, c)
}

/// High bit of a pair code: the point enters its bucket negated.
const SIGN_BIT: u32 = 1 << 31;

/// Per-chunk work: decompose the chunk's scalars into signed digits once
/// (column-major, so each window scans a contiguous slice), then accumulate
/// every window's buckets batch-affine and collapse each window to a single
/// partial sum.
///
/// Pending bucket additions travel through the scheduler as compact
/// `(bucket, point-index | sign)` codes — 8 bytes instead of a full affine
/// point — so deferring conflicted additions across rounds moves almost no
/// memory; the point itself is fetched from `bases` exactly once, when the
/// addition is actually scheduled.
fn chunk_window_sums<A: AffinePoint>(
    bases: &[A],
    scalars: &[A::Scalar],
    c: usize,
    num_windows: usize,
) -> Vec<A::Projective> {
    let n = bases.len();
    let half = 1usize << (c - 1);
    let mut digits = vec![0i32; n * num_windows];
    let mut row = vec![0i32; num_windows];
    for (i, s) in scalars.iter().enumerate() {
        if bases[i].is_identity() {
            continue; // leave the digit column zero: identity adds nothing
        }
        signed_digits(&s.to_canonical(), c, &mut row);
        for (w, &d) in row.iter().enumerate() {
            digits[w * n + i] = d;
        }
    }

    let mut acc = BatchAffineBuckets::<A>::new(half);
    let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(n);
    let mut out = Vec::with_capacity(num_windows);
    for w in 0..num_windows {
        // One cooperative cancellation point per window (~20-90 per MSM):
        // granular enough that a deadline interrupts a multi-second prove
        // mid-kernel, coarse enough to be free when nothing is installed.
        cancel::checkpoint();
        pairs.clear();
        for (i, &d) in digits[w * n..(w + 1) * n].iter().enumerate() {
            match d.cmp(&0) {
                core::cmp::Ordering::Greater => pairs.push((d as u32 - 1, i as u32)),
                core::cmp::Ordering::Less => pairs.push(((-d) as u32 - 1, i as u32 | SIGN_BIT)),
                core::cmp::Ordering::Equal => {}
            }
        }
        acc.accumulate(&mut pairs, bases);
        out.push(acc.window_sum_and_reset());
    }
    out
}

/// Decodes a scheduler pair code back into the (possibly negated) point.
#[inline]
fn resolve<A: AffinePoint>(bases: &[A], code: u32) -> A {
    let base = &bases[(code & !SIGN_BIT) as usize];
    if code & SIGN_BIT != 0 {
        base.neg_point()
    } else {
        *base
    }
}

/// Affine buckets with batched-inversion addition.
///
/// Buckets are plain affine points (`identity` marks an empty bucket). Each
/// scheduling round picks at most one pending addition per bucket, computes
/// all the addition-slope denominators, inverts them together with one
/// [`batch_inverse`] call, and completes every addition with a couple of
/// multiplications. Conflicting additions are deferred to the next round;
/// once too few independent additions remain for batching to pay off (a
/// pathological digit distribution, e.g. thousands of identical scalars),
/// the tail is flushed through ordinary projective mixed additions into a
/// lazily-allocated overflow table, so the worst case degrades to the seed
/// algorithm's cost instead of one inversion per addition.
struct BatchAffineBuckets<A: AffinePoint> {
    buckets: Vec<A>,
    overflow: Option<Vec<A::Projective>>,
    /// Round stamp per bucket (avoids clearing a bitset every round).
    stamp: Vec<u32>,
    round: u32,
    jobs: Vec<(u32, A)>,
    denoms: Vec<A::Base>,
}

/// Below this many independent additions per round, batching no longer
/// amortises the inversion; flush the remainder projectively.
const MIN_BATCH: usize = 16;

impl<A: AffinePoint> BatchAffineBuckets<A> {
    fn new(num_buckets: usize) -> Self {
        Self::with_buckets(vec![A::identity(); num_buckets])
    }

    /// A table whose buckets start at the given points.
    fn with_buckets(buckets: Vec<A>) -> Self {
        BatchAffineBuckets {
            stamp: vec![0; buckets.len()],
            buckets,
            overflow: None,
            round: 0,
            jobs: Vec::new(),
            denoms: Vec::new(),
        }
    }

    /// Adds every `(bucket, code)` pair into the buckets; `pending` is
    /// drained. Referenced points must not be the identity.
    ///
    /// Streaming scheduler: each round first replays the retry list, then
    /// consumes up to half-a-bucket-table's worth of fresh pairs (so the
    /// expected conflict rate stays low — streaming to bucket saturation
    /// would defer most of the tail), scheduling at most one addition per
    /// bucket per round via the stamps. Conflicting pairs go to the retry
    /// list and get first pick next round, so each pair is visited O(1)
    /// times amortised and the scheduler stays linear even when points
    /// vastly outnumber buckets. If the retry list outgrows the bucket
    /// count (a degenerate digit distribution, e.g. thousands of identical
    /// scalars), it is flushed through ordinary projective additions.
    fn accumulate(&mut self, pending: &mut Vec<(u32, u32)>, bases: &[A]) {
        let num_buckets = self.buckets.len();
        let quota = (num_buckets / 2).clamp(MIN_BATCH, 1024);
        let retry_cap = num_buckets.max(4 * MIN_BATCH);
        let mut retry: Vec<(u32, u32)> = Vec::new();
        let mut next: Vec<(u32, u32)> = Vec::new();
        let mut i = 0;
        while i < pending.len() || !retry.is_empty() {
            self.round += 1;
            self.jobs.clear();
            self.denoms.clear();
            next.clear();
            for &(b, code) in &retry {
                if self.stamp[b as usize] == self.round {
                    next.push((b, code));
                } else {
                    self.stamp[b as usize] = self.round;
                    self.schedule(b, resolve(bases, code));
                }
            }
            for &(b, code) in pending.iter().skip(i).take(quota) {
                if self.stamp[b as usize] == self.round {
                    next.push((b, code));
                } else {
                    self.stamp[b as usize] = self.round;
                    self.schedule(b, resolve(bases, code));
                }
            }
            i += quota.min(pending.len() - i);
            self.apply_batch();
            core::mem::swap(&mut retry, &mut next);
            if retry.len() > retry_cap {
                self.flush_projective(&mut retry, bases);
            }
        }
        pending.clear();
    }

    /// Adds `points[i]` into bucket `i` for every `i`, as one batched round
    /// (the lock-step use of the table by [`fold_bases`] and
    /// [`fixed_base_mul`]).
    fn add_each(&mut self, points: impl Iterator<Item = A>) {
        self.jobs.clear();
        self.denoms.clear();
        for (i, p) in points.enumerate() {
            if !p.is_identity() {
                self.schedule(i as u32, p);
            }
        }
        self.apply_batch();
    }

    /// Phase A of a round: either resolve the addition immediately (empty
    /// bucket, or cancellation to the identity) or queue it with its slope
    /// denominator for the batched inversion.
    fn schedule(&mut self, b: u32, p: A) {
        let bucket = &mut self.buckets[b as usize];
        if bucket.is_identity() {
            *bucket = p;
            return;
        }
        let (x1, y1) = bucket.xy().expect("non-identity bucket");
        let (x2, y2) = p.xy().expect("non-identity point");
        if x1 == x2 {
            if y1 == y2 && !y1.is_zero() {
                // Doubling: slope = (3*x1^2 + a) / (2*y1).
                self.denoms.push(y1.double());
                self.jobs.push((b, p));
            } else {
                // Opposite points (or a 2-torsion point): sum is identity.
                *bucket = A::identity();
            }
        } else {
            self.denoms.push(x2 - x1);
            self.jobs.push((b, p));
        }
    }

    /// Phase B: one batched inversion, then finish every queued addition
    /// with the affine chord/tangent formulas.
    fn apply_batch(&mut self) {
        batch_inverse(&mut self.denoms);
        for (&(b, p), inv) in self.jobs.iter().zip(self.denoms.iter()) {
            let bucket = &mut self.buckets[b as usize];
            let (x1, y1) = bucket.xy().expect("job bucket is non-identity");
            let (x2, y2) = p.xy().expect("job point is non-identity");
            let lambda = if x1 == x2 {
                let xx = x1.square();
                (xx.double() + xx + A::coeff_a()) * *inv
            } else {
                (y2 - y1) * *inv
            };
            let x3 = lambda.square() - x1 - x2;
            let y3 = lambda * (x1 - x3) - y1;
            *bucket = A::from_xy_unchecked(x3, y3);
        }
    }

    /// Tail path for conflict-heavy digit distributions: ordinary mixed
    /// projective additions into an overflow table.
    fn flush_projective(&mut self, pending: &mut Vec<(u32, u32)>, bases: &[A]) {
        let overflow = self
            .overflow
            .get_or_insert_with(|| vec![A::Projective::identity(); self.buckets.len()]);
        for (b, code) in pending.drain(..) {
            let p = resolve(bases, code);
            let idx = b as usize;
            let mut t = overflow[idx];
            if !self.buckets[idx].is_identity() {
                t = t.add_affine(&self.buckets[idx]);
                self.buckets[idx] = A::identity();
            }
            overflow[idx] = t.add_affine(&p);
        }
    }

    /// The window's `sum_k k * bucket_k` via the running-sum trick, leaving
    /// the accumulator empty for the next window.
    fn window_sum_and_reset(&mut self) -> A::Projective {
        let mut running = A::Projective::identity();
        let mut acc = A::Projective::identity();
        for idx in (0..self.buckets.len()).rev() {
            if let Some(ov) = &mut self.overflow {
                if !ov[idx].is_identity() {
                    running = running.add(&ov[idx]);
                    ov[idx] = A::Projective::identity();
                }
            }
            if !self.buckets[idx].is_identity() {
                running = running.add_affine(&self.buckets[idx]);
                self.buckets[idx] = A::identity();
            }
            acc = acc.add(&running);
        }
        acc
    }
}

/// Folds `coeffs.len()` equal blocks of `bases` into one block with the
/// same scalars for every output: `out[i] = sum_p coeffs[p] * bases[p*m + i]`
/// where `m = bases.len() / coeffs.len()`.
///
/// This is the generator fold of a Bulletproofs-style inner-product
/// argument after several rounds at once. The coefficients are recoded to
/// non-adjacent form once; all `m` outputs then walk that one
/// double-and-add schedule in lock-step, in affine coordinates, so every
/// doubling or addition step shares a single batched inversion across the
/// outputs. One cancellation checkpoint per scalar bit.
///
/// The outputs are independent, so they are split into contiguous ranges
/// across threads, each range walking the schedule over its own buckets:
/// one range per available thread, but at least 256 outputs each, since
/// the batched inversions amortise over a range's outputs. A short fold
/// (or a single-core host) stays on the caller's thread. The result does
/// not depend on the split.
///
/// # Panics
/// Panics if `coeffs` is empty or `bases.len()` is not a multiple of it.
pub fn fold_bases<A: AffinePoint>(bases: &[A], coeffs: &[A::Scalar]) -> Vec<A> {
    assert!(
        !coeffs.is_empty() && bases.len().is_multiple_of(coeffs.len()),
        "bases must split into one equal block per coefficient"
    );
    let m = bases.len() / coeffs.len();
    let num_chunks = zkvc_ff::par::num_threads().min(m / FOLD_CHUNK_MIN);
    fold_bases_with_chunks(bases, coeffs, num_chunks)
}

/// Fewest outputs a thread of [`fold_bases`] takes on.
const FOLD_CHUNK_MIN: usize = 1 << 8;

/// [`fold_bases`] with an explicit chunk count (exposed to the tests so
/// the multi-chunk path is exercised deterministically).
fn fold_bases_with_chunks<A: AffinePoint>(
    bases: &[A],
    coeffs: &[A::Scalar],
    num_chunks: usize,
) -> Vec<A> {
    let m = bases.len() / coeffs.len();
    let nafs: Vec<Vec<i8>> = coeffs.iter().map(|c| naf(&c.to_canonical())).collect();
    let top = nafs.iter().map(Vec::len).max().unwrap_or(0);
    map_chunks(m, num_chunks, |outputs| {
        let mut acc = BatchAffineBuckets::<A>::new(outputs.len());
        let mut doubled = Vec::with_capacity(outputs.len());
        for bit in (0..top).rev() {
            cancel::checkpoint();
            doubled.clone_from(&acc.buckets);
            acc.add_each(doubled.iter().copied());
            for (p, naf) in nafs.iter().enumerate() {
                let block = &bases[p * m..][outputs.clone()];
                match naf.get(bit) {
                    Some(1) => acc.add_each(block.iter().copied()),
                    Some(-1) => acc.add_each(block.iter().map(AffinePoint::neg_point)),
                    _ => {}
                }
            }
        }
        acc.buckets
    })
    .concat()
}

/// Window width of a [`FixedBaseTable`]: signed radix-2^8 digits. A
/// constant: the table is built once per process and every key element
/// of every shape walks the same schedule.
const FIXED_WINDOW: usize = 8;

/// Outputs of [`fixed_base_mul`] advance in blocks of this many, so the
/// accumulators and digit columns of one block stay cache-resident and a
/// long slice needs no more scratch than a short one.
const FIXED_BLOCK: usize = 1 << 10;

/// Precomputed multiples of one base point: for every signed radix-2^8
/// window `w` of a scalar and every digit magnitude `d` in `1..=128`, the
/// affine point `d * 2^(8w) * base`. For the 246-bit `Fr` that is
/// 31 windows x 128 points (~280 KB), after which `s * base` is at most 31
/// table lookups and additions — no doublings — for any `s`.
#[derive(Clone, Debug)]
pub struct FixedBaseTable<A: AffinePoint> {
    /// `multiples[(d - 1) * WINDOWS + w] = d * 2^(8w) * base`.
    multiples: Vec<A>,
}

impl<A: AffinePoint> FixedBaseTable<A> {
    /// Signed windows per scalar; the extra bit leaves room for the final
    /// digit carry, as in [`signed_digits`].
    const WINDOWS: usize = (A::Scalar::MODULUS_BITS as usize + 1).div_ceil(FIXED_WINDOW);

    /// Builds the table for `base`: the `d = 1` row by repeated doubling,
    /// then rows `k+1..=2k` as rows `1..=k` plus row `k`, every row of a
    /// step in one lock-step batch-affine round (seven inversions in all).
    pub fn new(base: &A) -> Self {
        let len = Self::WINDOWS << (FIXED_WINDOW - 1);
        let mut multiples = Vec::with_capacity(len);
        let mut shifted = base.to_projective();
        for _ in 0..Self::WINDOWS {
            multiples.push(shifted.to_affine());
            for _ in 0..FIXED_WINDOW {
                shifted = shifted.double();
            }
        }
        while multiples.len() < len {
            let top = multiples[multiples.len() - Self::WINDOWS..].to_vec();
            let mut acc = BatchAffineBuckets::with_buckets(multiples.clone());
            acc.add_each(top.iter().copied().cycle().take(multiples.len()));
            multiples.append(&mut acc.buckets);
        }
        FixedBaseTable { multiples }
    }

    /// `digit * 2^(8 * window) * base` for a signed digit in `[-128, 128]`.
    #[inline]
    fn multiple(&self, window: usize, digit: i32) -> A {
        let at = |d: i32| self.multiples[(d as usize - 1) * Self::WINDOWS + window];
        match digit.cmp(&0) {
            core::cmp::Ordering::Greater => at(digit),
            core::cmp::Ordering::Less => at(-digit).neg_point(),
            core::cmp::Ordering::Equal => A::identity(),
        }
    }

    /// One chunk of [`fixed_base_mul`], serial: block by block, recode the
    /// scalars to signed digits (column-major, so each window reads a
    /// contiguous slice), then add every output's window-`w` table entry in
    /// one batched round per window. One cancellation checkpoint per round.
    fn mul_chunk(&self, scalars: &[A::Scalar]) -> Vec<A> {
        let block_len = FIXED_BLOCK.min(scalars.len());
        let mut out = Vec::with_capacity(scalars.len());
        let mut acc = BatchAffineBuckets::<A>::new(block_len);
        let mut digits = vec![0i32; Self::WINDOWS * block_len];
        let mut row = vec![0i32; Self::WINDOWS];
        for block in scalars.chunks(FIXED_BLOCK) {
            let n = block.len();
            for (i, s) in block.iter().enumerate() {
                signed_digits(&s.to_canonical(), FIXED_WINDOW, &mut row);
                for (w, &d) in row.iter().enumerate() {
                    digits[w * n + i] = d;
                }
            }
            for (w, column) in digits.chunks(n).take(Self::WINDOWS).enumerate() {
                cancel::checkpoint();
                acc.add_each(column.iter().map(|&d| self.multiple(w, d)));
            }
            out.extend_from_slice(&acc.buckets[..n]);
            acc.buckets[..n].fill(A::identity());
        }
        out
    }
}

/// Computes `scalars[i] * base` for every `i`, for the base `table` was
/// built from; the results are born affine, in input order.
///
/// This is the Groth16 setup kernel: every CRS element is a multiple of
/// the same generator, so instead of one double-and-add per element (~250
/// doublings and ~120 additions) each output is the sum of at most 31
/// table entries, one per signed radix-2^8 digit. All outputs of a block
/// advance window by window in lock step, so each addition is a
/// batch-affine one (~6 field multiplications) and no final normalisation
/// pass exists. The slice is split across threads, at least one full block
/// each: short slices come from pool workers that already fill the cores,
/// where a spawn buys no time and costs resident memory (`cold_shapes`
/// `peak_rss_mb` 8.5 vs 9.3 MiB). The result does not depend on the chunk
/// count.
pub fn fixed_base_mul<A: AffinePoint>(table: &FixedBaseTable<A>, scalars: &[A::Scalar]) -> Vec<A> {
    let num_chunks = zkvc_ff::par::num_threads().min(scalars.len() / FIXED_BLOCK);
    fixed_base_mul_with_chunks(table, scalars, num_chunks)
}

/// [`fixed_base_mul`] with an explicit chunk count (exposed to the tests so
/// the multi-chunk path is exercised deterministically).
fn fixed_base_mul_with_chunks<A: AffinePoint>(
    table: &FixedBaseTable<A>,
    scalars: &[A::Scalar],
    num_chunks: usize,
) -> Vec<A> {
    map_chunks(scalars.len(), num_chunks, |r| table.mul_chunk(&scalars[r])).concat()
}

/// Non-adjacent form of a canonical scalar, least significant digit first
/// and without trailing zeros: digit `i` is `bit(3k, i+1) - bit(k, i+1)`.
fn naf(k: &[u64; 4]) -> Vec<i8> {
    let mut triple = [0u64; 5];
    let mut carry = 0u128;
    for (t, limb) in triple.iter_mut().zip(k.iter()) {
        let v = u128::from(*limb) * 3 + carry;
        *t = v as u64; // low 64 bits; the rest is the carry
        carry = v >> 64;
    }
    triple[4] = carry as u64;
    let bit = |limbs: &[u64], i: usize| limbs.get(i / 64).map_or(0, |l| (l >> (i % 64)) & 1) as i8;
    let mut digits: Vec<i8> = (1..=257).map(|i| bit(&triple, i) - bit(k, i)).collect();
    while digits.last() == Some(&0) {
        digits.pop();
    }
    digits
}

/// Window width for the unsigned serial/window-parallel drivers (the seed
/// heuristic).
fn unsigned_window_size(n: usize) -> usize {
    match n {
        0..=31 => 3,
        32..=255 => 5,
        256..=4095 => 8,
        4096..=65535 => 11,
        65536..=1048575 => 14,
        _ => 16,
    }
}

/// Window width for the signed chunk-parallel driver, chosen by a small
/// cost model in field-multiplication units: each window costs `n` digit
/// additions — a batch-affine addition is ~6 muls plus a share of one
/// batched inversion (~512 muls spread over up to `half/2` additions per
/// round, so narrow windows amortise it poorly) — plus, per chunk, a
/// projective running sum over the `2^(c-1)` buckets at ~32 muls per
/// bucket. Splitting points across more chunks pushes the optimum towards
/// narrower windows; weak inversion amortisation pushes it wider.
fn signed_window_size(n: usize, num_chunks: usize) -> usize {
    (3..=15usize)
        .min_by_key(|&c| {
            let windows = 256usize.div_ceil(c);
            let half = 1usize << (c - 1);
            windows * (n * (6 * half + 512) / half + 32 * num_chunks * half)
        })
        .expect("non-empty window range")
}

/// Reads `width` bits starting at bit `start` (little-endian); bits past
/// the 256-bit representation read as zero.
fn extract_window(canon: &[u64; 4], start: usize, width: usize) -> u64 {
    let limb = start / 64;
    if limb >= 4 {
        return 0;
    }
    let shift = start % 64;
    let mut v = canon[limb] >> shift;
    if shift + width > 64 && limb + 1 < 4 {
        v |= canon[limb + 1] << (64 - shift);
    }
    v & ((1u64 << width) - 1)
}

/// Decomposes a canonical scalar into `out.len()` signed base-`2^c` digits
/// in `(-2^(c-1), 2^(c-1)]` with `sum_w digit_w * 2^(c*w)` equal to the
/// scalar. The caller sizes `out` to `ceil((MODULUS_BITS + 1) / c)` windows
/// so the final carry always lands inside the top window.
fn signed_digits(canon: &[u64; 4], c: usize, out: &mut [i32]) {
    let half = 1i64 << (c - 1);
    let full = 1i64 << c;
    let mut carry = 0i64;
    for (w, slot) in out.iter_mut().enumerate() {
        let raw = extract_window(canon, w * c, c) as i64 + carry;
        if raw > half {
            *slot = (raw - full) as i32;
            carry = 1;
        } else {
            *slot = raw as i32;
            carry = 0;
        }
    }
    debug_assert_eq!(carry, 0, "signed-digit carry escaped the top window");
}

/// The scalars in canonical form, and the bit length of the largest. The
/// unsigned drivers stop their windows there: every digit above it is
/// zero, so narrow scalars pay only for the bits they have.
fn canonical_scalars<S: PrimeField>(scalars: &[S]) -> (Vec<[u64; 4]>, usize) {
    let canon: Vec<[u64; 4]> = scalars.iter().map(PrimeField::to_canonical).collect();
    let num_bits = canon.iter().map(zkvc_ff::arith::num_bits_4).max();
    (canon, num_bits.unwrap_or(0) as usize)
}

fn unsigned_window_sum<A: AffinePoint>(
    bases: &[A],
    canon: &[[u64; 4]],
    w_start: usize,
    c: usize,
) -> A::Projective {
    let mut buckets = vec![A::Projective::identity(); (1 << c) - 1];
    for (base, scalar) in bases.iter().zip(canon.iter()) {
        let idx = extract_window(scalar, w_start, c) as usize;
        if idx != 0 {
            buckets[idx - 1] = buckets[idx - 1].add_affine(base);
        }
    }
    // running-sum trick: sum_k k * bucket_k
    let mut running = A::Projective::identity();
    let mut acc = A::Projective::identity();
    for b in buckets.iter().rev() {
        running = running.add(b);
        acc = acc.add(&running);
    }
    acc
}

fn combine_windows<P: CurveGroup>(window_sums: &[P], c: usize) -> P {
    let mut total = P::identity();
    for w in window_sums.iter().rev() {
        for _ in 0..c {
            total = total.double();
        }
        total = total.add(w);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::g1::{G1Affine, G1Projective};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use zkvc_ff::{Field, Fr};

    fn naive_msm(bases: &[G1Affine], scalars: &[Fr]) -> G1Projective {
        bases
            .iter()
            .zip(scalars.iter())
            .map(|(b, s)| b.to_projective().mul_scalar(s))
            .fold(G1Projective::identity(), |a, b| a + b)
    }

    fn random_bases(n: usize, rng: &mut StdRng) -> Vec<G1Affine> {
        // Derive the points cheaply from a few random ones so large-n tests
        // stay fast; distinctness is not required for correctness.
        let seedlings: Vec<G1Projective> = (0..8).map(|_| G1Projective::random(rng)).collect();
        let mut cur = seedlings[0];
        (0..n)
            .map(|i| {
                cur = cur.add(&seedlings[i % 8]);
                CurveGroup::to_affine(&cur)
            })
            .collect()
    }

    #[test]
    fn empty_msm_is_identity() {
        assert!(msm::<G1Affine>(&[], &[]).is_identity());
        assert!(msm_serial::<G1Affine>(&[], &[]).is_identity());
        assert!(msm_window_parallel::<G1Affine>(&[], &[]).is_identity());
    }

    #[test]
    fn msm_matches_naive_small() {
        let mut rng = StdRng::seed_from_u64(1);
        for n in [1usize, 2, 3, 17, 33, 65] {
            let bases: Vec<G1Affine> = (0..n)
                .map(|_| G1Projective::random(&mut rng).to_affine())
                .collect();
            let scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
            let expect = naive_msm(&bases, &scalars);
            assert_eq!(msm_serial(&bases, &scalars), expect, "serial n={n}");
            assert_eq!(msm_window_parallel(&bases, &scalars), expect, "wp n={n}");
            assert_eq!(msm(&bases, &scalars), expect, "fast n={n}");
        }
    }

    #[test]
    fn msm_matches_naive_with_edge_scalars() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 200;
        let bases = random_bases(n, &mut rng);
        // zeros, ones, small values, -1, +/- window-boundary values and the
        // identity point: all the bucket/digit edge cases at once.
        let scalars: Vec<Fr> = (0..n)
            .map(|i| match i % 8 {
                0 => Fr::zero(),
                1 => Fr::one(),
                2 => Fr::from_u64(i as u64),
                3 => -Fr::one(),
                4 => Fr::from_u64(1 << 7),        // +half for c=8
                5 => -Fr::from_u64((1 << 7) + 1), // just past -half
                6 => Fr::from_u64((1 << 8) - 1),
                _ => Fr::random(&mut rng),
            })
            .collect();
        let mut bases = bases;
        bases[7] = G1Affine::identity();
        let expect = naive_msm(&bases, &scalars);
        assert_eq!(msm(&bases, &scalars), expect);
        assert_eq!(msm_serial(&bases, &scalars), expect);
        assert_eq!(msm_with_chunks(&bases, &scalars, 4), expect);

        // The unsigned drivers stop at the largest scalar's highest set
        // bit: every bit length around a window edge (c = 5 at 63 and 64
        // points), the narrow widths of a quantised witness, and full
        // width. 63 points run `msm_serial`, 64 `msm_window_parallel`.
        let c = unsigned_window_size(64);
        assert_eq!(c, unsigned_window_size(63));
        let full = Fr::MODULUS_BITS as usize;
        for bits in [0, 1, c - 1, c, c + 1, 19, 32, full] {
            for n in [63usize, 64] {
                let mut scalars: Vec<Fr> = (0..n)
                    .map(|_| match bits {
                        0 => Fr::zero(),
                        b if b < 64 => Fr::from_u64(rng.gen::<u64>() >> (64 - b)),
                        _ => Fr::random(&mut rng),
                    })
                    .collect();
                scalars[n / 2] = match bits {
                    0 => Fr::zero(),
                    b if b < 64 => Fr::from_u64(1 << (b - 1)),
                    _ => -Fr::one(),
                };
                let top = scalars.iter().map(PrimeField::num_bits).max();
                assert_eq!(top, Some(bits as u32), "bits={bits}");
                let expect = naive_msm(&bases[..n], &scalars);
                assert_eq!(
                    msm_serial(&bases[..n], &scalars),
                    expect,
                    "bits={bits} n={n}"
                );
                assert_eq!(
                    msm_window_parallel(&bases[..n], &scalars),
                    expect,
                    "bits={bits} n={n}"
                );
                assert_eq!(msm(&bases[..n], &scalars), expect, "bits={bits} n={n}");
            }
        }
    }

    #[test]
    fn msm_identical_scalars_hit_the_flush_path() {
        // Every point lands in the same bucket of every window, so the
        // batch-affine scheduler defers almost everything and must fall back
        // to the projective flush without losing points.
        let mut rng = StdRng::seed_from_u64(3);
        let n = 150;
        let bases = random_bases(n, &mut rng);
        for s in [Fr::one(), Fr::from_u64(5), -Fr::from_u64(3)] {
            let scalars = vec![s; n];
            assert_eq!(msm(&bases, &scalars), naive_msm(&bases, &scalars));
            assert_eq!(
                msm_with_chunks(&bases, &scalars, 3),
                naive_msm(&bases, &scalars)
            );
        }
    }

    #[test]
    fn chunked_msm_matches_unchunked() {
        let mut rng = StdRng::seed_from_u64(4);
        let n = 513; // deliberately not a multiple of the chunk count
        let bases = random_bases(n, &mut rng);
        let scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
        let expect = naive_msm(&bases, &scalars);
        for chunks in [1usize, 2, 3, 8] {
            assert_eq!(
                msm_with_chunks(&bases, &scalars, chunks),
                expect,
                "{chunks}"
            );
        }
    }

    #[test]
    fn msm_matches_serial_on_both_sides_of_the_cutover() {
        // The last size `msm` sends to the projective driver and the first
        // it sends to the batch-affine one, through the public entry point.
        let mut rng = StdRng::seed_from_u64(12);
        let n = AFFINE_MSM_MIN;
        let bases = random_bases(n, &mut rng);
        let scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
        for n in [n - 1, n] {
            let (b, s) = (&bases[..n], &scalars[..n]);
            assert_eq!(msm(b, s), msm_serial(b, s), "n={n}");
        }
    }

    #[test]
    fn signed_digits_reconstruct_scalar() {
        let mut rng = StdRng::seed_from_u64(5);
        for c in [3usize, 7, 8, 13, 15] {
            let num_windows = (Fr::MODULUS_BITS as usize + 1).div_ceil(c);
            let mut digits = vec![0i32; num_windows];
            for case in 0..20 {
                let s = match case {
                    0 => Fr::zero(),
                    1 => Fr::one(),
                    2 => -Fr::one(),
                    3 => Fr::from_u64((1 << c) as u64),
                    _ => Fr::random(&mut rng),
                };
                signed_digits(&s.to_canonical(), c, &mut digits);
                let mut acc = Fr::zero();
                let radix = Fr::from_u64(1u64 << c);
                for &d in digits.iter().rev() {
                    acc = acc * radix + Fr::from_i64(d as i64);
                }
                assert_eq!(acc, s, "c={c} case={case}");
                let half = 1i64 << (c - 1);
                assert!(digits
                    .iter()
                    .all(|&d| (d as i64) > -half && (d as i64) <= half));
            }
        }
    }

    #[test]
    fn naf_reconstructs_scalar_without_adjacent_digits() {
        let mut rng = StdRng::seed_from_u64(6);
        for case in 0..20 {
            let s = match case {
                0 => Fr::zero(),
                1 => Fr::one(),
                2 => -Fr::one(),
                3 => Fr::from_u64(3),
                _ => Fr::random(&mut rng),
            };
            let digits = naf(&s.to_canonical());
            let value = digits.iter().rev().fold(Fr::zero(), |acc, d| {
                acc.double() + Fr::from_i64(i64::from(*d))
            });
            assert_eq!(value, s, "case={case}");
            assert!(digits.windows(2).all(|w| w[0] == 0 || w[1] == 0));
            assert_ne!(digits.last(), Some(&0));
        }
    }

    /// The fold oracle: one naive MSM per output over its column of blocks.
    fn naive_fold(bases: &[G1Affine], coeffs: &[Fr]) -> Vec<G1Affine> {
        let m = bases.len() / coeffs.len();
        let block_sum = |i: usize| {
            let column: Vec<G1Affine> = bases.iter().skip(i).step_by(m).copied().collect();
            naive_msm(&column, coeffs).to_affine()
        };
        (0..m).map(block_sum).collect()
    }

    /// `blocks * m` bases where base 5 is the identity and, with unit
    /// coefficients, output 1 adds a point to itself (the doubling branch)
    /// and output 2 adds a point to its negation.
    fn fold_edge_bases(blocks: usize, m: usize, rng: &mut StdRng) -> Vec<G1Affine> {
        let mut bases = random_bases(blocks * m, rng);
        bases[5] = G1Affine::identity();
        bases[m + 1] = bases[1];
        bases[m + 2] = bases[2].neg_point();
        bases
    }

    #[test]
    fn fold_bases_matches_naive_block_sums() {
        let mut rng = StdRng::seed_from_u64(7);
        let bases = fold_edge_bases(2, 12, &mut rng);
        let units = [Fr::one(), Fr::one()];
        assert_eq!(fold_bases(&bases, &units), naive_fold(&bases, &units));
        for k in [1usize, 2, 3, 8, 24] {
            let mut coeffs: Vec<Fr> = (0..k).map(|_| Fr::random(&mut rng)).collect();
            coeffs[k / 2] = Fr::zero();
            coeffs[0] = Fr::one();
            assert_eq!(
                fold_bases(&bases, &coeffs),
                naive_fold(&bases, &coeffs),
                "k={k}"
            );
        }
    }

    #[test]
    fn fold_bases_is_independent_of_the_chunk_count() {
        // 13 outputs: no chunk count here divides them, so every split
        // ends in a short range.
        let mut rng = StdRng::seed_from_u64(13);
        let bases = fold_edge_bases(4, 13, &mut rng);
        let mixed = [Fr::one(), Fr::random(&mut rng), Fr::zero(), -Fr::one()];
        for coeffs in [[Fr::one(); 4], mixed] {
            let expect = naive_fold(&bases, &coeffs);
            for chunks in [1usize, 2, 3, 8] {
                let got = fold_bases_with_chunks(&bases, &coeffs, chunks);
                assert_eq!(got, expect, "{chunks} chunks");
            }
        }
        for chunks in [1usize, 2, 3, 8] {
            assert!(fold_bases_with_chunks::<G1Affine>(&[], &mixed, chunks).is_empty());
        }
    }

    #[test]
    fn cancellation_inside_a_split_fold_keeps_its_marker() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        // 8 blocks x 512 outputs over two threads; the shared predicate
        // trips on its 6th call, a few bits into the fold, in whichever
        // worker gets there first.
        let mut rng = StdRng::seed_from_u64(14);
        let bases = random_bases(8 * 512, &mut rng);
        let coeffs: Vec<Fr> = (0..8).map(|_| Fr::random(&mut rng)).collect();
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&calls);
        let _guard = cancel::install(Arc::new(move || {
            seen.fetch_add(1, Ordering::Relaxed) + 1 >= 6
        }));
        let before = cancel::unwound_checkpoints();
        let payload = std::panic::catch_unwind(|| fold_bases_with_chunks(&bases, &coeffs, 2))
            .expect_err("the 6th checkpoint cancels");
        assert!(
            payload.downcast_ref::<cancel::Cancelled>().is_some(),
            "payload replaced: {:?}",
            payload.downcast_ref::<&str>()
        );
        assert!(calls.load(Ordering::Relaxed) >= 6);
        assert!(cancel::unwound_checkpoints() > before);
    }

    /// The oracle: one MSB-first double-and-add per scalar.
    fn naive_fixed_base(base: &G1Affine, scalars: &[Fr]) -> Vec<G1Affine> {
        let products: Vec<G1Projective> = scalars
            .iter()
            .map(|s| base.to_projective().mul_scalar(s))
            .collect();
        G1Projective::batch_to_affine(&products)
    }

    /// `n` full-width scalars in arithmetic progression with their
    /// generator multiples, the latter from two naive multiplications and
    /// one projective addition per element — an oracle cheap enough for
    /// slices of a thousand in a debug build.
    fn progression(n: usize, rng: &mut StdRng) -> (Vec<Fr>, Vec<G1Affine>) {
        let (start, step) = (Fr::random(rng), Fr::random(rng));
        let g = G1Projective::generator();
        let (mut s, mut p, step_p) = (start, g.mul_scalar(&start), g.mul_scalar(&step));
        let mut scalars = Vec::with_capacity(n);
        let mut points = Vec::with_capacity(n);
        for _ in 0..n {
            scalars.push(s);
            points.push(p);
            s += step;
            p = p.add(&step_p);
        }
        (scalars, G1Projective::batch_to_affine(&points))
    }

    fn pow2(bits: usize) -> Fr {
        (0..bits).fold(Fr::one(), |p, _| p.double())
    }

    #[test]
    fn fixed_base_mul_matches_naive_on_every_digit_edge() {
        let table = G1Affine::generator_table();
        let windows = FixedBaseTable::<G1Affine>::WINDOWS;
        assert_eq!(windows, 31);
        let mut scalars = vec![
            Fr::zero(),
            Fr::one(),
            Fr::from_u64(2),
            -Fr::one(),
            -Fr::from_u64(2),
        ];
        // Around every window boundary: all-ones below it (a carry chain
        // through every lower window, into the top one for k = 30), the
        // boundary itself, and +half / just past +half of the window below.
        for k in 1..windows {
            scalars.push(pow2(8 * k) - Fr::one());
            scalars.push(pow2(8 * k));
            scalars.push(pow2(8 * k - 1));
            scalars.push(pow2(8 * k - 1) + Fr::one());
        }
        let got = fixed_base_mul(table, &scalars);
        assert_eq!(got, naive_fixed_base(&G1Affine::generator(), &scalars));
        assert!(got[0].is_identity());
        assert_eq!(got[1], G1Affine::generator());
    }

    #[test]
    fn fixed_base_mul_degenerate_slices() {
        // All-equal scalars keep every accumulator of a round on the same
        // point; all-zero scalars give rounds with nothing to invert.
        let table = G1Affine::generator_table();
        let mut rng = StdRng::seed_from_u64(8);
        let s = Fr::random(&mut rng);
        let sg = naive_fixed_base(&G1Affine::generator(), &[s])[0];
        assert_eq!(fixed_base_mul(table, &[s; 40]), vec![sg; 40]);
        assert_eq!(
            fixed_base_mul(table, &[Fr::zero(); 40]),
            vec![G1Affine::identity(); 40]
        );
    }

    #[test]
    fn fixed_base_mul_lengths_around_chunk_and_block_boundaries() {
        // Below, at and above one lock-step block, and the same around two
        // blocks, where a second thread first gets a block of its own; plus
        // empty and one.
        let table = G1Affine::generator_table();
        let mut rng = StdRng::seed_from_u64(9);
        let (scalars, points) = progression(2 * FIXED_BLOCK + 1, &mut rng);
        for n in [
            0,
            1,
            FIXED_BLOCK - 1,
            FIXED_BLOCK,
            FIXED_BLOCK + 1,
            2 * FIXED_BLOCK - 1,
            2 * FIXED_BLOCK,
            2 * FIXED_BLOCK + 1,
        ] {
            assert_eq!(fixed_base_mul(table, &scalars[..n]), points[..n], "n={n}");
        }
    }

    #[test]
    fn fixed_base_mul_is_independent_of_the_chunk_count() {
        let table = G1Affine::generator_table();
        let mut rng = StdRng::seed_from_u64(10);
        let (scalars, points) = progression(700, &mut rng);
        for chunks in [1usize, 2, 3] {
            let got = fixed_base_mul_with_chunks(table, &scalars, chunks);
            assert_eq!(got, points, "{chunks} chunks");
        }
        assert!(fixed_base_mul_with_chunks(table, &[], 3).is_empty());
    }

    #[test]
    fn fixed_base_table_of_any_base_matches_naive() {
        // Not only the generator: a random point (digits of both signs
        // across windows) and the identity, whose table is all identities.
        let mut rng = StdRng::seed_from_u64(11);
        let base = G1Projective::random(&mut rng).to_affine();
        let table = FixedBaseTable::new(&base);
        for (w, d) in [(0usize, 1i32), (0, 128), (7, -77), (30, 64), (30, -1)] {
            let s = Fr::from_i64(i64::from(d)) * pow2(8 * w);
            assert_eq!(table.multiple(w, d), naive_fixed_base(&base, &[s])[0]);
        }
        let scalars: Vec<Fr> = (0..9).map(|_| Fr::random(&mut rng)).collect();
        assert_eq!(
            fixed_base_mul(&table, &scalars),
            naive_fixed_base(&base, &scalars)
        );
        let at_infinity = FixedBaseTable::new(&G1Affine::identity());
        assert_eq!(
            fixed_base_mul(&at_infinity, &scalars),
            vec![G1Affine::identity(); 9]
        );
    }

    #[test]
    fn extract_window_crosses_limbs() {
        let canon = [u64::MAX, 0b1011, 0, 0];
        // 8-bit window starting at bit 60: low 4 bits are 1111 (from limb 0),
        // upper 4 bits are 1011 (from limb 1) -> 0b1011_1111
        assert_eq!(extract_window(&canon, 60, 8), 0b1011_1111);
        // Reads past the representation are zero.
        assert_eq!(extract_window(&canon, 256, 8), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn prop_msm_equals_naive(raw in prop::collection::vec(0u64..u64::MAX, 1..48)) {
            let seed = raw.iter().fold(0u64, |a, v| a.wrapping_add(*v)) ^ raw.len() as u64;
            let mut rng = StdRng::seed_from_u64(seed);
            let bases = random_bases(raw.len(), &mut rng);
            // Mix raw u64 values with structured negatives of them.
            let scalars: Vec<Fr> = raw
                .iter()
                .enumerate()
                .map(|(i, v)| if i % 3 == 0 { -Fr::from_u64(*v) } else { Fr::from_u64(*v) })
                .collect();
            let expect = naive_msm(&bases, &scalars);
            prop_assert_eq!(msm(&bases, &scalars), expect);
            prop_assert_eq!(msm_serial(&bases, &scalars), expect);
            prop_assert_eq!(msm_window_parallel(&bases, &scalars), expect);
            prop_assert_eq!(msm_with_chunks(&bases, &scalars, 2), expect);
        }

        #[test]
        fn prop_fixed_base_mul_equals_naive(seed in 0u64..u64::MAX, n in 0usize..40) {
            let mut rng = StdRng::seed_from_u64(seed);
            // Full-width scalars, with a few small and negated-small ones.
            let scalars: Vec<Fr> = (0..n)
                .map(|i| match i % 5 {
                    3 => Fr::from_u64(seed >> (i % 64)),
                    4 => -Fr::from_u64(seed >> (i % 64)),
                    _ => Fr::random(&mut rng),
                })
                .collect();
            let expect = naive_fixed_base(&G1Affine::generator(), &scalars);
            let table = G1Affine::generator_table();
            prop_assert_eq!(&fixed_base_mul(table, &scalars), &expect);
            prop_assert_eq!(&fixed_base_mul_with_chunks(table, &scalars, 2), &expect);
        }
    }
}
