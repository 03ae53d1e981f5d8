//! Variables and linear combinations.

use core::ops::{Add, Mul, Neg, Sub};

use zkvc_ff::Field;

/// A variable in the constraint system.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Variable {
    /// The constant `1` wire.
    One,
    /// The `i`-th public-input (instance) variable.
    Instance(usize),
    /// The `i`-th private witness variable.
    Witness(usize),
}

/// A linear combination `sum_i coeff_i * var_i`.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct LinearCombination<F: Field> {
    /// The terms of the combination (unordered; duplicates allowed and
    /// summed on evaluation).
    pub terms: Vec<(Variable, F)>,
}

impl<F: Field> LinearCombination<F> {
    /// The empty (zero) linear combination.
    pub fn zero() -> Self {
        LinearCombination { terms: vec![] }
    }

    /// A linear combination consisting of the constant `c`.
    pub fn constant(c: F) -> Self {
        LinearCombination {
            terms: vec![(Variable::One, c)],
        }
    }

    /// Returns `true` if the combination has no terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Number of terms (including any duplicate variables).
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Adds `coeff * var` to the combination.
    pub fn push(&mut self, var: Variable, coeff: F) {
        if !coeff.is_zero() {
            self.terms.push((var, coeff));
        }
    }

    /// Returns a new combination equal to `self + coeff * var`.
    pub fn with_term(mut self, var: Variable, coeff: F) -> Self {
        self.push(var, coeff);
        self
    }

    /// Multiplies every coefficient by `k`.
    pub fn scale(&self, k: &F) -> Self {
        if k.is_zero() {
            return Self::zero();
        }
        LinearCombination {
            terms: self.terms.iter().map(|(v, c)| (*v, *c * *k)).collect(),
        }
    }

    /// Merges duplicate variables and removes zero coefficients. The number
    /// of *distinct* variables is what PSQ counts as "left wires".
    pub fn normalize(&self) -> Self {
        let mut map: std::collections::BTreeMap<Variable, F> = std::collections::BTreeMap::new();
        for (v, c) in &self.terms {
            let e = map.entry(*v).or_insert_with(F::zero);
            *e += *c;
        }
        LinearCombination {
            terms: map.into_iter().filter(|(_, c)| !c.is_zero()).collect(),
        }
    }
}

impl<F: Field> From<Variable> for LinearCombination<F> {
    fn from(v: Variable) -> Self {
        LinearCombination {
            terms: vec![(v, F::one())],
        }
    }
}

impl<F: Field> Add for LinearCombination<F> {
    type Output = LinearCombination<F>;
    fn add(mut self, rhs: Self) -> Self {
        self.terms.extend(rhs.terms);
        self
    }
}

impl<F: Field> Add<&LinearCombination<F>> for LinearCombination<F> {
    type Output = LinearCombination<F>;
    fn add(mut self, rhs: &Self) -> Self {
        self.terms.extend(rhs.terms.iter().copied());
        self
    }
}

impl<F: Field> Sub for LinearCombination<F> {
    type Output = LinearCombination<F>;
    fn sub(mut self, rhs: Self) -> Self {
        self.terms
            .extend(rhs.terms.into_iter().map(|(v, c)| (v, -c)));
        self
    }
}

impl<F: Field> Sub<&LinearCombination<F>> for LinearCombination<F> {
    type Output = LinearCombination<F>;
    fn sub(mut self, rhs: &Self) -> Self {
        self.terms.extend(rhs.terms.iter().map(|(v, c)| (*v, -*c)));
        self
    }
}

impl<F: Field> Neg for LinearCombination<F> {
    type Output = LinearCombination<F>;
    fn neg(self) -> Self {
        LinearCombination {
            terms: self.terms.into_iter().map(|(v, c)| (v, -c)).collect(),
        }
    }
}

impl<F: Field> Mul<F> for LinearCombination<F> {
    type Output = LinearCombination<F>;
    fn mul(self, k: F) -> Self {
        self.scale(&k)
    }
}

impl<F: Field> Add<LinearCombination<F>> for Variable {
    type Output = LinearCombination<F>;
    fn add(self, rhs: LinearCombination<F>) -> LinearCombination<F> {
        LinearCombination::from(self) + rhs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkvc_ff::{Fr, PrimeField};

    #[test]
    fn build_and_normalize() {
        let x = Variable::Witness(0);
        let y = Variable::Witness(1);
        let lc: LinearCombination<Fr> = LinearCombination::from(x)
            + LinearCombination::from(y).scale(&Fr::from_u64(3))
            + LinearCombination::from(x);
        let n = lc.normalize();
        assert_eq!(n.terms.len(), 2);
        assert!(n
            .terms
            .iter()
            .any(|(v, c)| *v == x && *c == Fr::from_u64(2)));
    }

    #[test]
    fn zero_coefficients_are_dropped() {
        let x = Variable::Witness(0);
        let lc: LinearCombination<Fr> = LinearCombination::from(x) - LinearCombination::from(x);
        assert!(lc.normalize().terms.is_empty());
        let mut lc2 = LinearCombination::<Fr>::zero();
        lc2.push(x, Fr::zero());
        assert!(lc2.is_empty());
    }

    #[test]
    fn scale_and_neg() {
        let x = Variable::Instance(0);
        let lc: LinearCombination<Fr> = LinearCombination::from(x) * Fr::from_u64(5);
        assert_eq!(lc.terms[0].1, Fr::from_u64(5));
        let neg = -lc;
        assert_eq!(neg.terms[0].1, -Fr::from_u64(5));
        let zero = LinearCombination::<Fr>::from(x) * Fr::zero();
        assert!(zero.is_empty());
    }

    #[test]
    fn constant_combination() {
        let c: LinearCombination<Fr> = LinearCombination::constant(Fr::from_u64(7));
        assert_eq!(c.terms, vec![(Variable::One, Fr::from_u64(7))]);
    }
}
