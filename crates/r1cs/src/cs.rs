//! The constraint system: variable allocation, constraint enforcement,
//! satisfiability checking and statistics.

use core::fmt;

use zkvc_ff::Field;

use crate::lc::{LinearCombination, Variable};
use crate::matrices::R1csMatrices;

/// Errors produced while synthesising or checking a constraint system.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SynthesisError {
    /// A constraint `A * B = C` does not hold under the current assignment;
    /// carries the index of the first violated constraint.
    Unsatisfied(usize),
    /// A referenced variable has no assigned value.
    AssignmentMissing,
    /// A value exceeded the range a gadget was told to assume.
    ValueOutOfRange(&'static str),
}

impl fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthesisError::Unsatisfied(i) => write!(f, "constraint {i} is not satisfied"),
            SynthesisError::AssignmentMissing => write!(f, "variable assignment is missing"),
            SynthesisError::ValueOutOfRange(what) => {
                write!(f, "value out of range for gadget: {what}")
            }
        }
    }
}

impl std::error::Error for SynthesisError {}

/// Borrowed `(A, B, C)` rows of a constraint system, as returned by
/// [`ConstraintSystem::constraints`].
pub type ConstraintTriples<'a, F> = (
    &'a [LinearCombination<F>],
    &'a [LinearCombination<F>],
    &'a [LinearCombination<F>],
);

/// A rank-1 constraint system with its witness assignment.
///
/// The full assignment vector is `z = (1, instance..., witness...)`; every
/// constraint states `<a_i, z> * <b_i, z> = <c_i, z>`.
#[derive(Clone, Debug, Default)]
pub struct ConstraintSystem<F: Field> {
    instance: Vec<F>,
    witness: Vec<F>,
    a: Vec<LinearCombination<F>>,
    b: Vec<LinearCombination<F>>,
    c: Vec<LinearCombination<F>>,
    names: Vec<&'static str>,
    expected_boolean: Vec<Variable>,
    provided_boolean: Vec<Variable>,
}

impl<F: Field> ConstraintSystem<F> {
    /// Creates an empty constraint system.
    pub fn new() -> Self {
        ConstraintSystem {
            instance: vec![],
            witness: vec![],
            a: vec![],
            b: vec![],
            c: vec![],
            names: vec![],
            expected_boolean: vec![],
            provided_boolean: vec![],
        }
    }

    /// Records that downstream logic assumes `v` is boolean — analysis
    /// metadata consumed by the shape analyzer, never a constraint. See
    /// [`ConstraintSink::expect_boolean`](crate::ConstraintSink::expect_boolean).
    pub fn expect_boolean(&mut self, v: Variable) {
        self.expected_boolean.push(v);
    }

    /// Records that `v` is boolean by construction. See
    /// [`ConstraintSink::provide_boolean`](crate::ConstraintSink::provide_boolean).
    pub fn provide_boolean(&mut self, v: Variable) {
        self.provided_boolean.push(v);
    }

    /// The recorded boolean hints, as `(expected, provided)` variable
    /// lists in recording order.
    pub fn boolean_hints(&self) -> (&[Variable], &[Variable]) {
        (&self.expected_boolean, &self.provided_boolean)
    }

    /// Allocates a public-input variable with the given value.
    pub fn alloc_instance(&mut self, value: F) -> Variable {
        self.instance.push(value);
        Variable::Instance(self.instance.len() - 1)
    }

    /// Allocates a private witness variable with the given value.
    pub fn alloc_witness(&mut self, value: F) -> Variable {
        self.witness.push(value);
        Variable::Witness(self.witness.len() - 1)
    }

    /// Enforces the constraint `a * b = c`.
    pub fn enforce(
        &mut self,
        a: LinearCombination<F>,
        b: LinearCombination<F>,
        c: LinearCombination<F>,
    ) {
        self.enforce_named(a, b, c, "constraint");
    }

    /// Enforces a named constraint (the name shows up in diagnostics).
    pub fn enforce_named(
        &mut self,
        a: LinearCombination<F>,
        b: LinearCombination<F>,
        c: LinearCombination<F>,
        name: &'static str,
    ) {
        self.a.push(a);
        self.b.push(b);
        self.c.push(c);
        self.names.push(name);
    }

    /// Enforces that a linear combination equals zero
    /// (encoded as `lc * 1 = 0`).
    pub fn enforce_zero(&mut self, lc: LinearCombination<F>) {
        self.enforce(
            lc,
            LinearCombination::constant(F::one()),
            LinearCombination::zero(),
        );
    }

    /// Enforces equality of two linear combinations.
    pub fn enforce_equal(&mut self, a: LinearCombination<F>, b: LinearCombination<F>) {
        self.enforce_zero(a - b);
    }

    /// The value currently assigned to a variable.
    pub fn value(&self, v: Variable) -> F {
        match v {
            Variable::One => F::one(),
            Variable::Instance(i) => self.instance[i],
            Variable::Witness(i) => self.witness[i],
        }
    }

    /// Evaluates a linear combination under the current assignment.
    pub fn eval_lc(&self, lc: &LinearCombination<F>) -> F {
        lc.terms.iter().map(|(v, c)| self.value(*v) * *c).sum()
    }

    /// Returns `true` iff every constraint is satisfied.
    pub fn is_satisfied(&self) -> bool {
        self.which_unsatisfied().is_none()
    }

    /// Returns the index and name of the first violated constraint, if any.
    pub fn which_unsatisfied(&self) -> Option<(usize, &'static str)> {
        for i in 0..self.a.len() {
            let a = self.eval_lc(&self.a[i]);
            let b = self.eval_lc(&self.b[i]);
            let c = self.eval_lc(&self.c[i]);
            if a * b != c {
                return Some((i, self.names[i]));
            }
        }
        None
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.a.len()
    }

    /// Number of public-input variables (excluding the constant one).
    pub fn num_instance(&self) -> usize {
        self.instance.len()
    }

    /// Number of private witness variables.
    pub fn num_witness(&self) -> usize {
        self.witness.len()
    }

    /// Total number of variables including the constant one wire.
    pub fn num_variables(&self) -> usize {
        1 + self.instance.len() + self.witness.len()
    }

    /// The instance (public input) assignment, without the leading constant.
    pub fn instance_assignment(&self) -> &[F] {
        &self.instance
    }

    /// The witness assignment.
    pub fn witness_assignment(&self) -> &[F] {
        &self.witness
    }

    /// The full assignment `z = (1, instance, witness)`.
    pub fn full_assignment(&self) -> Vec<F> {
        let mut z = Vec::with_capacity(self.num_variables());
        z.push(F::one());
        z.extend_from_slice(&self.instance);
        z.extend_from_slice(&self.witness);
        z
    }

    /// Overwrites the witness assignment (used when re-running a fixed
    /// circuit structure with new values).
    ///
    /// # Panics
    /// Panics if the length differs from the allocated witness count.
    pub fn set_witness_assignment(&mut self, witness: Vec<F>) {
        assert_eq!(witness.len(), self.witness.len(), "witness length mismatch");
        self.witness = witness;
    }

    /// Overwrites the instance assignment.
    ///
    /// # Panics
    /// Panics if the length differs from the allocated instance count.
    pub fn set_instance_assignment(&mut self, instance: Vec<F>) {
        assert_eq!(
            instance.len(),
            self.instance.len(),
            "instance length mismatch"
        );
        self.instance = instance;
    }

    /// Borrow the constraint triples.
    pub fn constraints(&self) -> ConstraintTriples<'_, F> {
        (&self.a, &self.b, &self.c)
    }

    /// Maps a variable to its column index in the full assignment vector.
    pub fn variable_index(&self, v: Variable) -> usize {
        match v {
            Variable::One => 0,
            Variable::Instance(i) => 1 + i,
            Variable::Witness(i) => 1 + self.instance.len() + i,
        }
    }

    /// Extracts the sparse `A`, `B`, `C` matrices (used by the QAP reduction
    /// and the Spartan-style SNARK).
    pub fn to_matrices(&self) -> R1csMatrices<F> {
        R1csMatrices::from_constraint_system(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkvc_ff::{Fr, PrimeField};

    /// x^3 + x + 5 = 35 (the classic toy circuit), x = 3.
    fn cubic_circuit(x_val: u64, out_val: u64) -> ConstraintSystem<Fr> {
        let mut cs = ConstraintSystem::<Fr>::new();
        let x = cs.alloc_witness(Fr::from_u64(x_val));
        let out = cs.alloc_instance(Fr::from_u64(out_val));
        let x_sq = cs.alloc_witness(Fr::from_u64(x_val * x_val));
        let x_cube = cs.alloc_witness(Fr::from_u64(x_val * x_val * x_val));
        cs.enforce(x.into(), x.into(), x_sq.into());
        cs.enforce(x_sq.into(), x.into(), x_cube.into());
        // x_cube + x + 5 = out  ->  (x_cube + x + 5) * 1 = out
        cs.enforce(
            LinearCombination::from(x_cube)
                + LinearCombination::from(x)
                + LinearCombination::constant(Fr::from_u64(5)),
            LinearCombination::constant(Fr::one()),
            out.into(),
        );
        cs
    }

    #[test]
    fn satisfied_circuit() {
        let cs = cubic_circuit(3, 35);
        assert!(cs.is_satisfied());
        assert_eq!(cs.num_constraints(), 3);
        assert_eq!(cs.num_instance(), 1);
        assert_eq!(cs.num_witness(), 3);
        assert_eq!(cs.num_variables(), 5);
    }

    #[test]
    fn unsatisfied_circuit_reports_index() {
        let cs = cubic_circuit(4, 35);
        assert!(!cs.is_satisfied());
        assert!(cs.which_unsatisfied().is_some());
    }

    #[test]
    fn enforce_zero_and_equal() {
        let mut cs = ConstraintSystem::<Fr>::new();
        let a = cs.alloc_witness(Fr::from_u64(9));
        let b = cs.alloc_witness(Fr::from_u64(9));
        cs.enforce_equal(a.into(), b.into());
        assert!(cs.is_satisfied());
        cs.enforce_zero(LinearCombination::from(a) - LinearCombination::from(b));
        assert!(cs.is_satisfied());
        cs.enforce_zero(LinearCombination::from(a));
        assert!(!cs.is_satisfied());
    }

    #[test]
    fn full_assignment_layout() {
        let mut cs = ConstraintSystem::<Fr>::new();
        let i0 = cs.alloc_instance(Fr::from_u64(10));
        let w0 = cs.alloc_witness(Fr::from_u64(20));
        let z = cs.full_assignment();
        assert_eq!(z, vec![Fr::one(), Fr::from_u64(10), Fr::from_u64(20)]);
        assert_eq!(cs.variable_index(Variable::One), 0);
        assert_eq!(cs.variable_index(i0), 1);
        assert_eq!(cs.variable_index(w0), 2);
    }

    #[test]
    fn reassigning_witness() {
        let mut cs = cubic_circuit(3, 35);
        // break it
        cs.set_witness_assignment(vec![Fr::from_u64(4), Fr::from_u64(16), Fr::from_u64(64)]);
        assert!(!cs.is_satisfied());
        // fix it again
        cs.set_witness_assignment(vec![Fr::from_u64(3), Fr::from_u64(9), Fr::from_u64(27)]);
        assert!(cs.is_satisfied());
    }
}
