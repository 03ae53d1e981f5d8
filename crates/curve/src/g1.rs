//! The prime-order group `G1` on `E: y^2 = x^3 + x` over `Fq`.
//!
//! Affine and Jacobian-projective representations with complete handling of
//! the point at infinity, scalar multiplication by `Fr` elements, and
//! cofactor clearing / subgroup membership checks.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};
use std::sync::OnceLock;

use rand::Rng;
use zkvc_ff::codec::{ByteReader, DecodeError};
use zkvc_ff::fields::params;
use zkvc_ff::{Field, Fq, Fr, PrimeField};

use crate::group::{AffinePoint, CurveGroup};
use crate::msm::FixedBaseTable;

/// A point on `E(Fq)` in affine coordinates (or the point at infinity).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct G1Affine {
    /// x-coordinate (meaningless when `infinity` is set).
    pub x: Fq,
    /// y-coordinate (meaningless when `infinity` is set).
    pub y: Fq,
    /// Marker for the point at infinity (the group identity).
    pub infinity: bool,
}

/// A point on `E(Fq)` in Jacobian projective coordinates `(X : Y : Z)` with
/// `x = X/Z^2`, `y = Y/Z^3`; the identity is encoded by `Z = 0`.
#[derive(Copy, Clone, Debug)]
pub struct G1Projective {
    /// Jacobian X.
    pub x: Fq,
    /// Jacobian Y.
    pub y: Fq,
    /// Jacobian Z (zero encodes the identity).
    pub z: Fq,
}

impl G1Affine {
    /// The group identity (point at infinity).
    pub fn identity() -> Self {
        G1Affine {
            x: Fq::zero(),
            y: Fq::one(),
            infinity: true,
        }
    }

    /// The fixed generator of the order-`r` subgroup.
    pub fn generator() -> Self {
        G1Affine {
            x: Fq::from_canonical_reduced(params::G1_GENERATOR_X),
            y: Fq::from_canonical_reduced(params::G1_GENERATOR_Y),
            infinity: false,
        }
    }

    /// The process-wide [`FixedBaseTable`] of [`Self::generator`], built on
    /// first use (a few milliseconds, ~280 KB) and shared by every Groth16
    /// setup afterwards.
    pub fn generator_table() -> &'static FixedBaseTable<G1Affine> {
        static TABLE: OnceLock<FixedBaseTable<G1Affine>> = OnceLock::new();
        TABLE.get_or_init(|| FixedBaseTable::new(&G1Affine::generator()))
    }

    /// Returns `true` iff this is the identity.
    pub fn is_identity(&self) -> bool {
        self.infinity
    }

    /// Checks the affine curve equation `y^2 = x^3 + x`.
    pub fn is_on_curve(&self) -> bool {
        self.infinity || self.y.square() == self.x.square() * self.x + self.x
    }

    /// Checks membership in the order-`r` subgroup (identity included).
    pub fn is_in_subgroup(&self) -> bool {
        if self.infinity {
            return true;
        }
        self.to_projective().mul_by_fr_order().is_identity()
    }

    /// Converts to projective coordinates.
    pub fn to_projective(&self) -> G1Projective {
        if self.infinity {
            G1Projective::identity()
        } else {
            G1Projective {
                x: self.x,
                y: self.y,
                z: Fq::one(),
            }
        }
    }

    /// Negates the point.
    pub fn neg_point(&self) -> Self {
        G1Affine {
            x: self.x,
            y: -self.y,
            infinity: self.infinity,
        }
    }

    /// Serialises the point as 65 bytes (`x || y || infinity-flag`).
    pub fn to_bytes(&self) -> [u8; 65] {
        let mut out = [0u8; 65];
        out[..32].copy_from_slice(&self.x.to_bytes_le());
        out[32..64].copy_from_slice(&self.y.to_bytes_le());
        out[64] = self.infinity as u8;
        out
    }

    /// Reads a point written by [`Self::to_bytes`]: canonical coordinates
    /// on the curve. Flag 1 is the identity and any other flag reads as a
    /// finite point; subgroup membership is not checked.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let p = G1Affine {
            x: r.field("point x")?,
            y: r.field("point y")?,
            infinity: r.u8("point flag")? == 1,
        };
        if !p.is_on_curve() {
            return Err(DecodeError::Malformed {
                context: "point",
                detail: "not on the curve".into(),
            });
        }
        Ok(p)
    }
}

impl AffinePoint for G1Affine {
    type Base = Fq;
    type Scalar = Fr;
    type Projective = G1Projective;

    fn coeff_a() -> Fq {
        // E: y^2 = x^3 + x
        Fq::one()
    }

    fn identity() -> Self {
        G1Affine::identity()
    }

    fn is_identity(&self) -> bool {
        self.infinity
    }

    fn xy(&self) -> Option<(Fq, Fq)> {
        if self.infinity {
            None
        } else {
            Some((self.x, self.y))
        }
    }

    fn from_xy_unchecked(x: Fq, y: Fq) -> Self {
        G1Affine {
            x,
            y,
            infinity: false,
        }
    }

    fn neg_point(&self) -> Self {
        G1Affine::neg_point(self)
    }

    fn to_projective(&self) -> G1Projective {
        G1Affine::to_projective(self)
    }
}

impl CurveGroup for G1Projective {
    type Base = Fq;
    type Scalar = Fr;
    type Affine = G1Affine;

    fn identity() -> Self {
        G1Projective::identity()
    }

    fn is_identity(&self) -> bool {
        G1Projective::is_identity(self)
    }

    fn double(&self) -> Self {
        G1Projective::double(self)
    }

    fn add(&self, other: &Self) -> Self {
        G1Projective::add(self, other)
    }

    fn add_affine(&self, other: &G1Affine) -> Self {
        G1Projective::add_affine(self, other)
    }

    fn neg_point(&self) -> Self {
        G1Projective::neg_point(self)
    }

    fn to_affine(&self) -> G1Affine {
        G1Projective::to_affine(self)
    }

    fn mul_scalar(&self, scalar: &Fr) -> Self {
        G1Projective::mul_scalar(self, scalar)
    }
}

impl Default for G1Affine {
    fn default() -> Self {
        Self::identity()
    }
}

impl fmt::Display for G1Affine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.infinity {
            write!(f, "G1(infinity)")
        } else {
            write!(f, "G1({}, {})", self.x, self.y)
        }
    }
}

impl Neg for G1Affine {
    type Output = G1Affine;
    fn neg(self) -> G1Affine {
        self.neg_point()
    }
}

impl G1Projective {
    /// The group identity.
    pub fn identity() -> Self {
        G1Projective {
            x: Fq::one(),
            y: Fq::one(),
            z: Fq::zero(),
        }
    }

    /// The fixed generator of the order-`r` subgroup.
    pub fn generator() -> Self {
        G1Affine::generator().to_projective()
    }

    /// Returns `true` iff this is the identity.
    pub fn is_identity(&self) -> bool {
        self.z.is_zero()
    }

    /// Converts to affine coordinates (one field inversion).
    pub fn to_affine(&self) -> G1Affine {
        if self.is_identity() {
            return G1Affine::identity();
        }
        let z_inv = self.z.inverse().expect("non-identity point has z != 0");
        let z_inv2 = z_inv.square();
        let z_inv3 = z_inv2 * z_inv;
        G1Affine {
            x: self.x * z_inv2,
            y: self.y * z_inv3,
            infinity: false,
        }
    }

    /// Batch conversion to affine with a single inversion (Montgomery trick).
    pub fn batch_to_affine(points: &[G1Projective]) -> Vec<G1Affine> {
        let mut zs: Vec<Fq> = points.iter().map(|p| p.z).collect();
        zkvc_ff::batch_inverse(&mut zs);
        points
            .iter()
            .zip(zs.iter())
            .map(|(p, zi)| {
                if p.is_identity() {
                    G1Affine::identity()
                } else {
                    let zi2 = zi.square();
                    G1Affine {
                        x: p.x * zi2,
                        y: p.y * zi2 * *zi,
                        infinity: false,
                    }
                }
            })
            .collect()
    }

    /// Point doubling (Jacobian, curve coefficient `a = 1`).
    pub fn double(&self) -> Self {
        if self.is_identity() {
            return *self;
        }
        // Standard dbl-2007-bl-like formulas for general a:
        // M = 3*X^2 + a*Z^4, with a = 1.
        let xx = self.x.square();
        let yy = self.y.square();
        let yyyy = yy.square();
        let zz = self.z.square();
        let s = ((self.x + yy).square() - xx - yyyy).double();
        let m = xx.double() + xx + zz.square(); // 3*XX + a*ZZ^2, a = 1
        let t = m.square() - s.double();
        let x3 = t;
        let y3 = m * (s - t) - yyyy.double().double().double(); // 8*YYYY
        let z3 = (self.y + self.z).square() - yy - zz;
        G1Projective {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Mixed addition with an affine point.
    pub fn add_affine(&self, other: &G1Affine) -> Self {
        if other.infinity {
            return *self;
        }
        if self.is_identity() {
            return other.to_projective();
        }
        // madd-2007-bl
        let z1z1 = self.z.square();
        let u2 = other.x * z1z1;
        let s2 = other.y * self.z * z1z1;
        if u2 == self.x && s2 == self.y {
            return self.double();
        }
        let h = u2 - self.x;
        let hh = h.square();
        let i = hh.double().double();
        let j = h * i;
        let rr = (s2 - self.y).double();
        if h.is_zero() && rr.is_zero() {
            return self.double();
        }
        if h.is_zero() {
            // x equal, y opposite -> identity
            return G1Projective::identity();
        }
        let v = self.x * i;
        let x3 = rr.square() - j - v.double();
        let y3 = rr * (v - x3) - (self.y * j).double();
        let z3 = (self.z + h).square() - z1z1 - hh;
        G1Projective {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Full projective addition.
    pub fn add(&self, other: &G1Projective) -> Self {
        if self.is_identity() {
            return *other;
        }
        if other.is_identity() {
            return *self;
        }
        // add-2007-bl
        let z1z1 = self.z.square();
        let z2z2 = other.z.square();
        let u1 = self.x * z2z2;
        let u2 = other.x * z1z1;
        let s1 = self.y * other.z * z2z2;
        let s2 = other.y * self.z * z1z1;
        if u1 == u2 {
            if s1 == s2 {
                return self.double();
            }
            return G1Projective::identity();
        }
        let h = u2 - u1;
        let i = h.double().square();
        let j = h * i;
        let rr = (s2 - s1).double();
        let v = u1 * i;
        let x3 = rr.square() - j - v.double();
        let y3 = rr * (v - x3) - (s1 * j).double();
        let z3 = ((self.z + other.z).square() - z1z1 - z2z2) * h;
        G1Projective {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Scalar multiplication by an `Fr` element (double-and-add, MSB first).
    pub fn mul_scalar(&self, scalar: &Fr) -> Self {
        let bits = scalar.num_bits();
        if bits == 0 {
            return G1Projective::identity();
        }
        let mut acc = G1Projective::identity();
        for i in (0..bits).rev() {
            acc = acc.double();
            if scalar.bit(i) {
                acc = acc.add(self);
            }
        }
        acc
    }

    /// Multiplies by the subgroup order `r` (used in subgroup checks).
    pub fn mul_by_fr_order(&self) -> Self {
        let r = <Fr as PrimeField>::MODULUS;
        let mut acc = G1Projective::identity();
        let nbits = zkvc_ff::arith::num_bits_4(&r);
        for i in (0..nbits).rev() {
            acc = acc.double();
            if zkvc_ff::arith::bit_4(&r, i) {
                acc = acc.add(self);
            }
        }
        acc
    }

    /// Negates the point.
    pub fn neg_point(&self) -> Self {
        G1Projective {
            x: self.x,
            y: -self.y,
            z: self.z,
        }
    }

    /// Samples a uniformly random subgroup element (random scalar times the
    /// generator).
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self::generator().mul_scalar(&Fr::random(rng))
    }

    /// Hashes arbitrary bytes onto the curve subgroup (try-and-increment on
    /// the x-coordinate followed by cofactor clearing). Not constant time;
    /// used only for deriving public Pedersen bases.
    pub fn hash_to_curve(seed: &[u8]) -> Self {
        // A tiny deterministic PRG from the seed via repeated squaring of a
        // field element; adequate for public parameter derivation.
        let mut acc = Fq::from_u64(0x5eed_0000_0001);
        for (i, b) in seed.iter().enumerate() {
            acc = acc * Fq::from_u64(257) + Fq::from_u64(*b as u64 + 1 + i as u64);
        }
        loop {
            let rhs = acc.square() * acc + acc; // x^3 + x
            if let Some(y) = rhs.sqrt() {
                let p = G1Affine {
                    x: acc,
                    y,
                    infinity: false,
                };
                // clear the cofactor to land in the order-r subgroup
                let q = p.to_projective().mul_small(params::COFACTOR);
                if !q.is_identity() {
                    return q;
                }
            }
            acc += Fq::one();
        }
    }

    /// Multiplication by a small `u64` scalar.
    pub fn mul_small(&self, k: u64) -> Self {
        let mut acc = G1Projective::identity();
        if k == 0 {
            return acc;
        }
        for i in (0..64 - k.leading_zeros()).rev() {
            acc = acc.double();
            if (k >> i) & 1 == 1 {
                acc = acc.add(self);
            }
        }
        acc
    }
}

impl Default for G1Projective {
    fn default() -> Self {
        Self::identity()
    }
}

impl PartialEq for G1Projective {
    fn eq(&self, other: &Self) -> bool {
        // (X1/Z1^2, Y1/Z1^3) == (X2/Z2^2, Y2/Z2^3)
        if self.is_identity() {
            return other.is_identity();
        }
        if other.is_identity() {
            return false;
        }
        let z1z1 = self.z.square();
        let z2z2 = other.z.square();
        self.x * z2z2 == other.x * z1z1 && self.y * z2z2 * other.z == other.y * z1z1 * self.z
    }
}
impl Eq for G1Projective {}

impl fmt::Display for G1Projective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_affine())
    }
}

impl Add for G1Projective {
    type Output = G1Projective;
    fn add(self, rhs: Self) -> Self {
        G1Projective::add(&self, &rhs)
    }
}
impl Add<&G1Projective> for G1Projective {
    type Output = G1Projective;
    fn add(self, rhs: &G1Projective) -> Self {
        G1Projective::add(&self, rhs)
    }
}
impl AddAssign for G1Projective {
    fn add_assign(&mut self, rhs: Self) {
        *self = G1Projective::add(self, &rhs);
    }
}
impl Sub for G1Projective {
    type Output = G1Projective;
    fn sub(self, rhs: Self) -> Self {
        G1Projective::add(&self, &rhs.neg_point())
    }
}
impl SubAssign for G1Projective {
    fn sub_assign(&mut self, rhs: Self) {
        *self = G1Projective::add(self, &rhs.neg_point());
    }
}
impl Neg for G1Projective {
    type Output = G1Projective;
    fn neg(self) -> Self {
        self.neg_point()
    }
}
impl Mul<Fr> for G1Projective {
    type Output = G1Projective;
    fn mul(self, rhs: Fr) -> Self {
        self.mul_scalar(&rhs)
    }
}
impl Mul<&Fr> for G1Projective {
    type Output = G1Projective;
    fn mul(self, rhs: &Fr) -> Self {
        self.mul_scalar(rhs)
    }
}
impl Mul<Fr> for G1Affine {
    type Output = G1Projective;
    fn mul(self, rhs: Fr) -> G1Projective {
        self.to_projective().mul_scalar(&rhs)
    }
}
impl Sum for G1Projective {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(G1Projective::identity(), |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xC0FFEE)
    }

    #[test]
    fn generator_is_on_curve_and_in_subgroup() {
        let g = G1Affine::generator();
        assert!(g.is_on_curve());
        assert!(!g.is_identity());
        assert!(g.to_projective().mul_by_fr_order().is_identity());
    }

    #[test]
    fn identity_behaviour() {
        let id = G1Projective::identity();
        let g = G1Projective::generator();
        assert_eq!(id + g, g);
        assert_eq!(g + id, g);
        assert_eq!(id.double(), id);
        assert!(id.to_affine().is_identity());
        assert!((g - g).is_identity());
    }

    #[test]
    fn add_matches_double() {
        let g = G1Projective::generator();
        assert_eq!(g + g, g.double());
        assert_eq!(g.add_affine(&g.to_affine()), g.double());
    }

    #[test]
    fn mixed_addition_matches_projective() {
        let mut r = rng();
        for _ in 0..8 {
            let a = G1Projective::random(&mut r);
            let b = G1Projective::random(&mut r);
            assert_eq!(a.add(&b), a.add_affine(&b.to_affine()));
        }
    }

    #[test]
    fn scalar_multiplication_properties() {
        let mut r = rng();
        let g = G1Projective::generator();
        let a = Fr::random(&mut r);
        let b = Fr::random(&mut r);
        // (a+b)G = aG + bG
        assert_eq!(g * (a + b), g * a + g * b);
        // (ab)G = a(bG)
        assert_eq!(g * (a * b), (g * b) * a);
        // rG = O
        assert!(g.mul_by_fr_order().is_identity());
        // 0 * G = O, 1 * G = G
        assert!((g * Fr::zero()).is_identity());
        assert_eq!(g * Fr::one(), g);
    }

    #[test]
    fn associativity_and_commutativity() {
        let mut r = rng();
        let a = G1Projective::random(&mut r);
        let b = G1Projective::random(&mut r);
        let c = G1Projective::random(&mut r);
        assert_eq!((a + b) + c, a + (b + c));
        assert_eq!(a + b, b + a);
    }

    fn decode(bytes: &[u8]) -> Result<G1Affine, DecodeError> {
        zkvc_ff::codec::decode_exact(bytes, G1Affine::decode)
    }

    #[test]
    fn affine_roundtrip_and_serialization() {
        let mut r = rng();
        for _ in 0..4 {
            let p = G1Projective::random(&mut r);
            let aff = p.to_affine();
            assert!(aff.is_on_curve());
            assert_eq!(aff.to_projective(), p);
            let bytes = aff.to_bytes();
            assert_eq!(decode(&bytes).unwrap(), aff);
        }
        // Corrupted bytes must be rejected (point off curve).
        let mut bytes = G1Affine::generator().to_bytes();
        bytes[0] ^= 1;
        assert!(decode(&bytes).is_err());
        // Identity round-trips.
        let id = G1Affine::identity().to_bytes();
        assert!(decode(&id).unwrap().is_identity());
        // Short input is truncated, not a panic.
        assert!(decode(&id[..64]).is_err());
    }

    #[test]
    fn batch_to_affine_matches_individual() {
        let mut r = rng();
        let pts: Vec<G1Projective> = (0..10)
            .map(|i| {
                if i == 4 {
                    G1Projective::identity()
                } else {
                    G1Projective::random(&mut r)
                }
            })
            .collect();
        let batch = G1Projective::batch_to_affine(&pts);
        for (p, a) in pts.iter().zip(batch.iter()) {
            assert_eq!(p.to_affine(), *a);
        }
    }

    #[test]
    fn hash_to_curve_lands_in_subgroup() {
        let p = G1Projective::hash_to_curve(b"zkvc pedersen basis 0");
        let q = G1Projective::hash_to_curve(b"zkvc pedersen basis 1");
        assert!(p.to_affine().is_on_curve());
        assert!(p.mul_by_fr_order().is_identity());
        assert_ne!(p, q);
        // deterministic
        assert_eq!(p, G1Projective::hash_to_curve(b"zkvc pedersen basis 0"));
    }

    #[test]
    fn negation() {
        let mut r = rng();
        let p = G1Projective::random(&mut r);
        assert!((p + (-p)).is_identity());
        let aff = p.to_affine();
        assert!(aff.neg_point().is_on_curve());
    }
}
