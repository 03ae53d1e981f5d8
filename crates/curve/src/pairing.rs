//! The Type-1 (symmetric) reduced Tate pairing.
//!
//! For the supersingular curve `E: y^2 = x^3 + x` over `Fq` with
//! `p = 3 mod 4`, the distortion map `phi(x, y) = (-x, i*y)` sends `E(Fq)`
//! points into `E(Fq2) \ E(Fq)`. The modified Tate pairing
//! `e(P, Q) = f_{r,P}(phi(Q))^((p^2 - 1)/r)` is a non-degenerate symmetric
//! bilinear map `G1 x G1 -> GT`, where `GT` is the order-`r` subgroup of
//! `Fq2*`.
//!
//! # The Miller loop has no inversions
//!
//! `p = 84 r - 1`, so the final exponent is `(p^2 - 1)/r = (p - 1) * 84`
//! and raising to it sends every element of `Fq*` to `1`. Two things
//! follow for embedding degree 2 with this distortion map:
//!
//! * **Vertical lines vanish.** `S = phi(Q)` has `x_S = -x_Q` in `Fq`, so
//!   every vertical `x_S - x_T` is an `Fq` value and the textbook
//!   denominator accumulator is erased by the final exponentiation.
//! * **Projective scale factors vanish.** The running multiple `T` is kept
//!   in the Jacobian coordinates of [`G1Projective`]. The tangent at `T`
//!   is evaluated as `2YZ^3 * l(S)` and the chord through `T` and `P` as
//!   `ZH * l(S)` (`H = x_P Z^2 - X`): the factors clear the slope's
//!   denominator, lie in `Fq`, and are erased the same way.
//!
//! A doubling step is 8 squarings and 5 multiplications in `Fq` for `T`
//! and the line, plus one `Fq2` multiplication into the accumulator
//! (~16 `Fq` multiplications against ~285 for an affine step that inverts
//! `2y`); the accumulator is squared once per bit for all pairs of a
//! [`pairing_product`], and `r` has only nine set bits below the top one,
//! so addition steps are noise. The final exponentiation is
//! `(conj(f) / f)^84`: one `Fq2` inversion per product, because `conj` is
//! the `p`-power Frobenius.
//!
//! When a scale factor is itself zero the scaled line degenerates to an
//! `Fq` multiple of the vertical the affine formulas would have used
//! (`Y = 0`: tangent at the 2-torsion point `(0,0)`; `H = 0`: `T = -P`), and
//! `T` becomes the identity, after which the pair contributes nothing.
//! Inputs are only required to be on the curve, not in the order-`r`
//! subgroup (cofactor 84). A line value can be zero only for `Q = (0,0)`
//! (otherwise `y_S = i*y_Q` has a non-zero imaginary part and `-x_Q` is the
//! abscissa of no `Fq` point); the accumulator is then zero, has no
//! inverse, and the product is `Gt(0)` — a value outside `GT` that equals
//! no honest pairing, so verification fails instead of panicking.

use core::fmt;
use core::ops::{Add, AddAssign, Mul};

use zkvc_ff::fields::params;
use zkvc_ff::{Field, Fq, Fq2, Fr, PrimeField};

use crate::g1::{G1Affine, G1Projective};

/// An element of the pairing target group `GT` (the order-`r` subgroup of
/// `Fq2*`), written additively to mirror how Groth16 equations are stated.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub struct Gt(pub Fq2);

impl Gt {
    /// The identity element (multiplicative `1` in `Fq2`).
    pub fn identity() -> Self {
        Gt(Fq2::one())
    }

    /// Returns `true` iff this is the identity.
    pub fn is_identity(&self) -> bool {
        self.0 == Fq2::one()
    }

    /// Scalar multiplication (exponentiation of the underlying `Fq2` value).
    pub fn mul_scalar(&self, k: &Fr) -> Self {
        Gt(self.0.pow(&k.to_canonical()))
    }
}

impl fmt::Display for Gt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gt({})", self.0)
    }
}

// `Gt` is written additively although its representation is the
// multiplicative subgroup of Fq2, hence the "suspicious" `*` underneath.
#[allow(clippy::suspicious_arithmetic_impl)]
impl Add for Gt {
    type Output = Gt;
    fn add(self, rhs: Gt) -> Gt {
        Gt(self.0 * rhs.0)
    }
}
#[allow(clippy::suspicious_op_assign_impl)]
impl AddAssign for Gt {
    fn add_assign(&mut self, rhs: Gt) {
        self.0 *= rhs.0;
    }
}
impl Mul<Fr> for Gt {
    type Output = Gt;
    fn mul(self, rhs: Fr) -> Gt {
        self.mul_scalar(&rhs)
    }
}

/// One pair of a [`pairing_product`]: the running multiple `T = [k]P` and
/// the coordinates of `phi(Q) = (-x_Q, i*y_Q)` the lines are evaluated at.
struct MillerPair {
    t: G1Projective,
    p: G1Affine,
    xq: Fq,
    yq: Fq,
}

impl MillerPair {
    /// `T <- 2T`; returns the tangent at `T` evaluated at `phi(Q)`, scaled
    /// by `2YZ^3`. Requires `T` not the identity.
    fn double_step(&mut self) -> Fq2 {
        let G1Projective { x, y, z } = self.t;
        // Same doubling as `G1Projective::double`, sharing its
        // intermediates with the line:
        //   2YZ^3 * l(S) = Z3*ZZ*y_S - 2YY - M*(ZZ*x_S - X)
        let xx = x.square();
        let yy = y.square();
        let yyyy = yy.square();
        let zz = z.square();
        let s = ((x + yy).square() - xx - yyyy).double();
        let m = xx.double() + xx + zz.square();
        let x3 = m.square() - s.double();
        let z3 = (y + z).square() - yy - zz;
        self.t = G1Projective {
            x: x3,
            y: m * (s - x3) - yyyy.double().double().double(),
            z: z3,
        };
        Fq2::new(m * (x + zz * self.xq) - yy.double(), z3 * zz * self.yq)
    }

    /// `T <- T + P`; returns the chord through `T` and `P` evaluated at
    /// `phi(Q)`, scaled by `ZH`. Requires `T` not the identity.
    fn add_step(&mut self) -> Fq2 {
        let zz = self.t.z.square();
        let h = self.p.x * zz - self.t.x;
        let rr = self.p.y * zz * self.t.z - self.t.y;
        if h.is_zero() && rr.is_zero() {
            // T == P (reachable when P has small odd order): the chord is
            // the tangent.
            return self.double_step();
        }
        //   ZH * l(S) = Z3*(y_S - y_P) - RR*(x_S - x_P),  Z3 = ZH
        let z3 = self.t.z * h;
        self.t = self.t.add_affine(&self.p);
        Fq2::new(rr * (self.xq + self.p.x) - z3 * self.p.y, z3 * self.yq)
    }
}

/// Final exponentiation `f -> f^((p^2 - 1)/r) = (f^(p-1))^84`, with
/// `f^(p-1) = conj(f) / f`. Zero (no inverse) maps to zero.
fn final_exponentiation(f: &Fq2) -> Fq2 {
    match f.inverse() {
        Some(inv) => (f.conjugate() * inv).pow(&[params::COFACTOR]),
        None => Fq2::zero(),
    }
}

/// The product `sum_i e(P_i, Q_i)` (additive `Gt` notation) of reduced Tate
/// pairings: one Miller accumulator squared once per bit of `r` for all
/// pairs, one final exponentiation.
///
/// Pairs containing the point at infinity contribute the identity. Points
/// must be on the curve; see the module docs for inputs outside the
/// order-`r` subgroup.
pub fn pairing_product(pairs: &[(G1Affine, G1Affine)]) -> Gt {
    let mut live: Vec<MillerPair> = pairs
        .iter()
        .filter(|(p, q)| !p.is_identity() && !q.is_identity())
        .map(|(p, q)| MillerPair {
            t: p.to_projective(),
            p: *p,
            xq: q.x,
            yq: q.y,
        })
        .collect();

    let r = <Fr as PrimeField>::MODULUS;
    let mut f = Fq2::one();
    for i in (0..zkvc_ff::arith::num_bits_4(&r) - 1).rev() {
        f = f.square();
        let add = zkvc_ff::arith::bit_4(&r, i);
        for pair in &mut live {
            // Once T is the identity the pair is spent.
            if pair.t.is_identity() {
                continue;
            }
            f *= pair.double_step();
            if add && !pair.t.is_identity() {
                f *= pair.add_step();
            }
        }
    }
    Gt(final_exponentiation(&f))
}

/// The reduced Tate pairing `e(P, Q)`.
///
/// Symmetric (`e(P, Q) == e(Q, P)`) and bilinear on the order-`r` subgroup;
/// returns the identity when either argument is the point at infinity.
pub fn pairing(p: &G1Affine, q: &G1Affine) -> Gt {
    pairing_product(&[(*p, *q)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xBEEF)
    }

    /// Applies the distortion map `phi(x, y) = (-x, i*y)`, producing the `Fq2`
    /// coordinates of the image point.
    fn distort(q: &G1Affine) -> (Fq2, Fq2) {
        let x = Fq2::new(-q.x, Fq::zero());
        let y = Fq2::new(Fq::zero(), q.y);
        (x, y)
    }

    /// The (un-exponentiated) Miller loop `f_{r, P}(phi(Q))` with `T` in affine
    /// coordinates and the vertical lines in a denominator accumulator.
    ///
    /// Returns `Fq2::one()` when either input is the identity, so that the full
    /// pairing of an identity point is the identity of `GT`.
    fn oracle_miller_loop(p: &G1Affine, q: &G1Affine) -> Fq2 {
        if p.is_identity() || q.is_identity() {
            return Fq2::one();
        }
        let (sx, sy) = distort(q);

        // Accumulators: f = num / den, updated per Miller step.
        let mut num = Fq2::one();
        let mut den = Fq2::one();

        // Current multiple T = [k]P in affine coordinates.
        let mut tx = p.x;
        let mut ty = p.y;
        let mut t_infinity = false;

        let r = <Fr as PrimeField>::MODULUS;
        let nbits = zkvc_ff::arith::num_bits_4(&r);

        for i in (0..nbits - 1).rev() {
            // --- doubling step ---
            num = num.square();
            den = den.square();
            if !t_infinity {
                if ty.is_zero() {
                    // Tangent is vertical: line = x(S) - x(T), T becomes infinity.
                    num *= Fq2::new(-tx, Fq::zero()) + sx;
                    t_infinity = true;
                } else {
                    // lambda = (3 x^2 + 1) / (2 y)   (curve a = 1)
                    let lambda = (tx.square() * Fq::from_u64(3) + Fq::one())
                        * (ty.double()).inverse().expect("ty != 0");
                    let x3 = lambda.square() - tx.double();
                    let y3 = lambda * (tx - x3) - ty;
                    // line through T with slope lambda, evaluated at S:
                    //   l(S) = y_S - y_T - lambda (x_S - x_T)
                    let l = sy
                        - Fq2::new(ty, Fq::zero())
                        - Fq2::new(lambda, Fq::zero()) * (sx - Fq2::new(tx, Fq::zero()));
                    // vertical at 2T: v(S) = x_S - x_{2T}
                    let v = sx - Fq2::new(x3, Fq::zero());
                    num *= l;
                    den *= v;
                    tx = x3;
                    ty = y3;
                }
            }

            // --- addition step ---
            if zkvc_ff::arith::bit_4(&r, i) && !t_infinity {
                if tx == p.x && ty == -p.y {
                    // T + P = infinity: line is the vertical through T.
                    num *= sx - Fq2::new(tx, Fq::zero());
                    t_infinity = true;
                } else if tx == p.x {
                    // T == P: tangent line (same as doubling).
                    let lambda = (tx.square() * Fq::from_u64(3) + Fq::one())
                        * (ty.double()).inverse().expect("ty != 0");
                    let x3 = lambda.square() - tx.double();
                    let y3 = lambda * (tx - x3) - ty;
                    let l = sy
                        - Fq2::new(ty, Fq::zero())
                        - Fq2::new(lambda, Fq::zero()) * (sx - Fq2::new(tx, Fq::zero()));
                    let v = sx - Fq2::new(x3, Fq::zero());
                    num *= l;
                    den *= v;
                    tx = x3;
                    ty = y3;
                } else {
                    let lambda = (p.y - ty) * (p.x - tx).inverse().expect("tx != p.x");
                    let x3 = lambda.square() - tx - p.x;
                    let y3 = lambda * (tx - x3) - ty;
                    let l = sy
                        - Fq2::new(ty, Fq::zero())
                        - Fq2::new(lambda, Fq::zero()) * (sx - Fq2::new(tx, Fq::zero()));
                    let v = sx - Fq2::new(x3, Fq::zero());
                    num *= l;
                    den *= v;
                    tx = x3;
                    ty = y3;
                }
            }
        }

        num * den
            .inverse()
            .expect("denominator never vanishes for valid inputs")
    }

    /// The pairing as it was computed before the projective loop: affine
    /// Miller loop, then the direct 8-limb power `(p^2 - 1)/r`. Panics when a
    /// vertical through `phi(Q)` vanishes (`Q = (0,0)` and a multiple of `P`
    /// equal to it).
    fn oracle(p: &G1Affine, q: &G1Affine) -> Gt {
        Gt(oracle_miller_loop(p, q).pow(&params::FINAL_EXP))
    }

    /// A point of `E(Fq)` with no cofactor clearing (order divides `84 r`).
    fn curve_point(seed: u64) -> G1Projective {
        let mut x = Fq::from_u64(seed);
        loop {
            if let Some(y) = (x.square() * x + x).sqrt() {
                return G1Projective { x, y, z: Fq::one() };
            }
            x += Fq::one();
        }
    }

    /// A point of exact order `n`, for `n` a divisor of the cofactor 84.
    fn point_of_order(n: u64) -> G1Affine {
        assert_eq!(params::COFACTOR % n, 0);
        (1u64..)
            .map(|seed| {
                curve_point(seed * 1000)
                    .mul_by_fr_order()
                    .mul_small(params::COFACTOR / n)
            })
            .find(|p| {
                [2, 3, 7]
                    .iter()
                    .all(|q| !n.is_multiple_of(*q) || !p.mul_small(n / q).is_identity())
            })
            .expect("E(Fq) is cyclic, so every divisor of 84 is an order")
            .to_affine()
    }

    /// On-curve inputs `verify` does not exclude: every small order, small
    /// order mixed into the subgroup, and full order `84 r`.
    fn points_outside_the_subgroup() -> Vec<G1Affine> {
        let g = G1Projective::generator();
        let mut points: Vec<G1Affine> = [2, 3, 4, 6, 7, 12, 21, 28, 84]
            .iter()
            .map(|&n| point_of_order(n))
            .collect();
        assert_eq!((points[0].x, points[0].y), (Fq::zero(), Fq::zero()));
        let mixed: Vec<G1Affine> = points
            .iter()
            .map(|p| (g * Fr::from_u64(5) + p.to_projective()).to_affine())
            .collect();
        points.extend(mixed);
        points.push(curve_point(7).to_affine());
        assert!(points
            .iter()
            .all(|p| p.is_on_curve() && !p.is_in_subgroup()));
        points
    }

    /// `pairing == oracle`, except where the oracle's denominator vanishes:
    /// there the projective loop must meet a zero line and return `Gt(0)`.
    fn assert_matches_oracle(p: &G1Affine, q: &G1Affine) {
        match std::panic::catch_unwind(|| oracle(p, q)) {
            Ok(expected) => assert_eq!(pairing(p, q), expected, "e({p}, {q})"),
            Err(_) => {
                assert!(q.x.is_zero() && q.y.is_zero(), "oracle panicked on Q = {q}");
                assert_eq!(pairing(p, q), Gt(Fq2::zero()), "e({p}, {q})");
            }
        }
    }

    #[test]
    fn pairing_matches_oracle_on_the_subgroup() {
        let mut r = rng();
        let id = G1Affine::identity();
        for _ in 0..6 {
            let p = G1Projective::random(&mut r).to_affine();
            let q = G1Projective::random(&mut r).to_affine();
            assert_matches_oracle(&p, &q);
            assert_matches_oracle(&p, &p);
            assert_matches_oracle(&p, &p.neg_point());
            assert_matches_oracle(&p, &id);
            assert_matches_oracle(&id, &q);
        }
        assert_matches_oracle(&id, &id);
    }

    #[test]
    fn pairing_matches_oracle_outside_the_subgroup() {
        let g = G1Affine::generator();
        let points = points_outside_the_subgroup();
        for p in &points {
            assert_matches_oracle(p, &g);
            assert_matches_oracle(&g, p);
            assert_matches_oracle(p, &p.neg_point());
            for q in &points {
                assert_matches_oracle(p, q);
            }
        }
    }

    #[test]
    fn order_four_point_against_two_torsion_is_zero_not_a_panic() {
        // 2 * P4 = (0,0) = phi((0,0)): the tangent at P4 passes through the
        // evaluation point. The affine loop divided by the vertical there.
        let p4 = point_of_order(4);
        let p2 = point_of_order(2);
        assert!(std::panic::catch_unwind(|| oracle(&p4, &p2)).is_err());
        assert_eq!(pairing(&p4, &p2), Gt(Fq2::zero()));
        // (0,0) against itself is a zero vertical in both loops.
        assert_eq!(oracle(&p2, &p2), Gt(Fq2::zero()));
        assert_eq!(pairing(&p2, &p2), Gt(Fq2::zero()));
        let g = G1Affine::generator();
        assert_eq!(pairing_product(&[(g, g), (p4, p2)]), Gt(Fq2::zero()));
    }

    #[test]
    fn pairing_product_is_the_sum_of_oracle_pairings() {
        let mut r = rng();
        let outside = points_outside_the_subgroup();
        let mut pool: Vec<G1Affine> = (0..4)
            .map(|_| G1Projective::random(&mut r).to_affine())
            .collect();
        pool.push(G1Affine::identity());
        // orders 3, 4, 7, 5G + order 12, full order; (0,0) is covered above
        pool.extend([1, 2, 4, 14, 18].map(|i| outside[i]));
        assert_eq!(pairing_product(&[]), Gt::identity());
        for len in 1..=4 {
            for start in 0..pool.len() {
                let pairs: Vec<(G1Affine, G1Affine)> = (0..len)
                    .map(|k| {
                        let p = pool[(start + k) % pool.len()];
                        let q = pool[(start + 3 * k + len) % pool.len()];
                        (p, q)
                    })
                    .collect();
                let expected = pairs
                    .iter()
                    .fold(Gt::identity(), |acc, (p, q)| acc + oracle(p, q));
                assert_eq!(
                    pairing_product(&pairs),
                    expected,
                    "{len} pairs from {start}"
                );
            }
        }
    }

    #[test]
    fn pairing_of_the_generator_is_pinned() {
        // e(G, G) as `c0 || c1`, canonical little-endian: the function
        // itself may not drift, whatever computes it.
        let g = G1Affine::generator();
        let e = pairing(&g, &g);
        assert_eq!(e, oracle(&g, &g));
        let hex: String = [e.0.c0, e.0.c1]
            .iter()
            .flat_map(PrimeField::to_bytes_le)
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(
            hex,
            "6fba875d1187b4259928b25e144614e245b2f68c5445816c206896323d1ddd09\
             70c8c500d64ae4337aae7ec2f2f7fbbe78c4ec79c54ac874f313726d22128d04"
        );
    }

    #[test]
    fn pairing_is_non_degenerate() {
        let g = G1Affine::generator();
        let e = pairing(&g, &g);
        assert!(!e.is_identity());
        // e(G, G) has order r: e^r == 1
        assert!(e.mul_scalar(&-Fr::one()) + e == Gt::identity());
    }

    #[test]
    fn pairing_with_identity_is_identity() {
        let g = G1Affine::generator();
        let id = G1Affine::identity();
        assert!(pairing(&g, &id).is_identity());
        assert!(pairing(&id, &g).is_identity());
    }

    #[test]
    fn pairing_is_bilinear() {
        let mut r = rng();
        let g = G1Projective::generator();
        let a = Fr::random(&mut r);
        let b = Fr::random(&mut r);
        let ga = (g * a).to_affine();
        let gb = (g * b).to_affine();
        let gab = (g * (a * b)).to_affine();
        let e1 = pairing(&ga, &gb);
        let e2 = pairing(&gab, &G1Affine::generator());
        let e3 = pairing(&G1Affine::generator(), &gab);
        assert_eq!(e1, e2);
        assert_eq!(e1, e3);
        // e(G,G)^(ab) computed in GT
        let base = pairing(&G1Affine::generator(), &G1Affine::generator());
        assert_eq!(base.mul_scalar(&(a * b)), e1);
    }

    #[test]
    fn pairing_is_symmetric() {
        let mut r = rng();
        let p = G1Projective::random(&mut r).to_affine();
        let q = G1Projective::random(&mut r).to_affine();
        assert_eq!(pairing(&p, &q), pairing(&q, &p));
    }

    #[test]
    fn pairing_additivity_in_first_argument() {
        let mut r = rng();
        let g = G1Projective::generator();
        let a = Fr::random(&mut r);
        let b = Fr::random(&mut r);
        let q = G1Projective::random(&mut r).to_affine();
        let lhs = pairing(&(g * (a + b)).to_affine(), &q);
        let rhs = pairing(&(g * a).to_affine(), &q) + pairing(&(g * b).to_affine(), &q);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn pairing_respects_negation() {
        let mut r = rng();
        let p = G1Projective::random(&mut r).to_affine();
        let q = G1Projective::random(&mut r).to_affine();
        let e = pairing(&p, &q);
        let e_neg = pairing(&p.neg_point(), &q);
        assert_eq!(e + e_neg, Gt::identity());
    }
}
