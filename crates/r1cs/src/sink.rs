//! Two-pass circuit synthesis: the [`ConstraintSink`] driver trait and its
//! three drivers.
//!
//! Synthesis code (matmul strategies, gadgets, whole model compilers) is
//! written once against `ConstraintSink` and can then run in three modes:
//!
//! * **Single pass** — [`ConstraintSystem`] implements the trait: values
//!   and structure are recorded together. No prover accepts one; it is the
//!   reference sink gadget unit tests check satisfiability with and the
//!   two-pass pipeline is compared against.
//! * **Shape pass** — [`ShapeBuilder`] records the constraint structure
//!   (variable layout, every linear combination) with *no field values*:
//!   [`ConstraintSink::lc_value`] returns `None`, so witness computation is
//!   skipped entirely. Finishing the pass yields a [`CompiledShape`]: flat
//!   CSR matrices plus the canonical shape digest. Setup and shape-digest
//!   computation run on this pass and never touch a witness.
//! * **Witness pass** — [`WitnessFiller`] evaluates the same synthesis code
//!   against an already-compiled shape, collecting only the flat
//!   instance/witness assignment ([`WitnessAssignment`]); constraints are
//!   counted but not stored, so a prove-many workload pays the nested
//!   linear-combination bookkeeping once per *shape*, not once per proof.
//!
//! The digest produced by the shape pass is byte-identical to
//! [`shape_digest`] over a single-pass [`ConstraintSystem`] for the same
//! circuit, which is what lets tests use the single pass as an oracle.

use zkvc_ff::{Field, PrimeField};
use zkvc_hash::Sha256;

use crate::cs::ConstraintSystem;
use crate::lc::{LinearCombination, Variable};
use crate::matrices::{R1csMatrices, SparseMatrix};

/// Domain-separation prefix for shape digests (kept verbatim from the
/// digest's previous homes in `zkvc-runtime` and `zkvc-core`, so digests —
/// and everything keyed by them, like deterministically derived CRS
/// material — survive the two-pass refactor).
const DIGEST_DOMAIN: &[u8] = b"zkvc-runtime-circuit-shape-v1";

/// The driver interface of circuit synthesis: allocation, constraint
/// emission, and (optionally) value evaluation.
///
/// Written-once synthesis code takes `&mut dyn ConstraintSink<F>` (or a
/// generic `S: ConstraintSink<F> + ?Sized`) and works under all three
/// drivers. The contract: the *structure* a circuit emits (allocation
/// order, constraint order, linear combinations) must not depend on
/// whether the sink materialises values — witness data may only influence
/// the `Option` payloads.
pub trait ConstraintSink<F: Field> {
    /// Whether this pass materialises witness values. Shape passes return
    /// `false`; synthesis code should skip all value computation then
    /// (the `Option`-returning evaluators below already do).
    fn wants_values(&self) -> bool;

    /// Allocates a public-input variable. `value` must be `Some` whenever
    /// [`Self::wants_values`] is `true`.
    fn alloc_instance_opt(&mut self, value: Option<F>) -> Variable;

    /// Allocates a private witness variable. `value` must be `Some`
    /// whenever [`Self::wants_values`] is `true`.
    fn alloc_witness_opt(&mut self, value: Option<F>) -> Variable;

    /// Emits the constraint `a * b = c` (the name shows up in single-pass
    /// diagnostics and is ignored by the split passes).
    fn enforce_named(
        &mut self,
        a: LinearCombination<F>,
        b: LinearCombination<F>,
        c: LinearCombination<F>,
        name: &'static str,
    );

    /// Evaluates a linear combination under the current assignment, or
    /// `None` when this pass carries no values.
    fn lc_value(&self, lc: &LinearCombination<F>) -> Option<F>;

    /// The value assigned to a variable, or `None` when this pass carries
    /// no values.
    fn var_value(&self, v: Variable) -> Option<F>;

    /// Constraints emitted so far.
    fn num_constraints(&self) -> usize;

    /// Instance variables allocated so far.
    fn num_instance(&self) -> usize;

    /// Witness variables allocated so far.
    fn num_witness(&self) -> usize;

    /// Total variables allocated so far, including the constant-one wire.
    fn num_variables(&self) -> usize {
        1 + self.num_instance() + self.num_witness()
    }

    /// Records that downstream logic *assumes* this variable carries a
    /// boolean (0/1) value — e.g. a gadget that multiplies by it as a
    /// selector. The hint is pure analysis metadata: it emits no
    /// constraint, does not enter the shape digest, and defaults to a
    /// no-op so value-only passes can ignore it. The static analyzer
    /// flags every expected-boolean variable that is neither provided
    /// boolean nor pinned by an `x · (x − 1) = 0`-shaped row
    /// (`missing-booleanity`).
    fn expect_boolean(&mut self, _v: Variable) {}

    /// Records that this variable is boolean *by construction* — a gadget
    /// output whose booleanity follows from its defining constraints even
    /// though no literal `x · (x − 1) = 0` row exists (e.g. `is_zero`,
    /// whose output is forced to 0/1 by its two rows jointly). Like
    /// [`Self::expect_boolean`] this is analysis metadata only: no
    /// constraint, no digest contribution, default no-op.
    fn provide_boolean(&mut self, _v: Variable) {}

    /// Emits `a * b = c` under the generic constraint name.
    fn enforce(
        &mut self,
        a: LinearCombination<F>,
        b: LinearCombination<F>,
        c: LinearCombination<F>,
    ) {
        self.enforce_named(a, b, c, "constraint");
    }

    /// Emits `lc * 1 = 0`.
    fn enforce_zero(&mut self, lc: LinearCombination<F>) {
        self.enforce(
            lc,
            LinearCombination::constant(F::one()),
            LinearCombination::zero(),
        );
    }

    /// Emits `(a - b) * 1 = 0`.
    fn enforce_equal(&mut self, a: LinearCombination<F>, b: LinearCombination<F>) {
        self.enforce_zero(a - b);
    }
}

/// Convenience extension methods that take closures (kept out of the core
/// trait so it stays object-safe).
pub trait SinkExt<F: Field>: ConstraintSink<F> {
    /// Allocates a witness whose value is computed by `f` — but only when
    /// this pass wants values, so a shape pass never runs witness code.
    fn alloc_witness_lazy(&mut self, f: impl FnOnce() -> F) -> Variable {
        let value = self.wants_values().then(f);
        self.alloc_witness_opt(value)
    }

    /// Allocates an instance variable whose value is computed by `f` only
    /// when this pass wants values.
    fn alloc_instance_lazy(&mut self, f: impl FnOnce() -> F) -> Variable {
        let value = self.wants_values().then(f);
        self.alloc_instance_opt(value)
    }

    /// `Some(a * b)` of two linear combinations when values are carried,
    /// `None` otherwise — the common product-witness hint.
    fn lc_product(&self, a: &LinearCombination<F>, b: &LinearCombination<F>) -> Option<F> {
        Some(self.lc_value(a)? * self.lc_value(b)?)
    }
}

impl<F: Field, S: ConstraintSink<F> + ?Sized> SinkExt<F> for S {}

/// The single-pass reference driver: structure and assignment recorded
/// together in a full [`ConstraintSystem`].
impl<F: Field> ConstraintSink<F> for ConstraintSystem<F> {
    fn wants_values(&self) -> bool {
        true
    }

    fn alloc_instance_opt(&mut self, value: Option<F>) -> Variable {
        self.alloc_instance(value.expect("single-pass synthesis requires an instance value"))
    }

    fn alloc_witness_opt(&mut self, value: Option<F>) -> Variable {
        self.alloc_witness(value.expect("single-pass synthesis requires a witness value"))
    }

    fn enforce_named(
        &mut self,
        a: LinearCombination<F>,
        b: LinearCombination<F>,
        c: LinearCombination<F>,
        name: &'static str,
    ) {
        ConstraintSystem::enforce_named(self, a, b, c, name);
    }

    fn lc_value(&self, lc: &LinearCombination<F>) -> Option<F> {
        Some(self.eval_lc(lc))
    }

    fn var_value(&self, v: Variable) -> Option<F> {
        Some(self.value(v))
    }

    fn num_constraints(&self) -> usize {
        ConstraintSystem::num_constraints(self)
    }

    fn num_instance(&self) -> usize {
        ConstraintSystem::num_instance(self)
    }

    fn num_witness(&self) -> usize {
        ConstraintSystem::num_witness(self)
    }

    fn expect_boolean(&mut self, v: Variable) {
        ConstraintSystem::expect_boolean(self, v);
    }

    fn provide_boolean(&mut self, v: Variable) {
        ConstraintSystem::provide_boolean(self, v);
    }
}

/// Raw (insertion-order, un-normalised) linear combinations of one matrix,
/// stored flat: `terms` is the concatenation of every row's terms and
/// `bounds[i]` is the end offset of row `i`.
#[derive(Clone, Debug, Default)]
struct RawMatrix<F: Field> {
    terms: Vec<(Variable, F)>,
    bounds: Vec<usize>,
}

impl<F: Field> RawMatrix<F> {
    fn push_lc(&mut self, lc: LinearCombination<F>) {
        self.terms.extend(lc.terms);
        self.bounds.push(self.terms.len());
    }
}

/// The witness-free shape pass: records variable layout and constraint
/// structure, never touching a value. [`ShapeBuilder::finish`] converts the
/// recording into a [`CompiledShape`].
#[derive(Clone, Debug, Default)]
pub struct ShapeBuilder<F: Field> {
    num_instance: usize,
    num_witness: usize,
    a: RawMatrix<F>,
    b: RawMatrix<F>,
    c: RawMatrix<F>,
    expected_boolean: Vec<Variable>,
    provided_boolean: Vec<Variable>,
}

impl<F: PrimeField> ShapeBuilder<F> {
    /// An empty shape recording.
    pub fn new() -> Self {
        ShapeBuilder {
            num_instance: 0,
            num_witness: 0,
            a: RawMatrix::default(),
            b: RawMatrix::default(),
            c: RawMatrix::default(),
            expected_boolean: Vec::new(),
            provided_boolean: Vec::new(),
        }
    }

    /// Finishes the pass: computes the canonical shape digest over the raw
    /// recording (byte-identical to [`shape_digest`] of an equivalent
    /// single-pass [`ConstraintSystem`]) and lowers the three matrices to
    /// normalised CSR form.
    pub fn finish(self) -> CompiledShape<F> {
        let ni = self.num_instance;
        let nw = self.num_witness;
        let num_rows = self.a.bounds.len();
        let num_cols = 1 + ni + nw;

        let mut h = Sha256::new();
        absorb_header(&mut h, ni, nw, num_rows);
        for (tag, m) in [(b'A', &self.a), (b'B', &self.b), (b'C', &self.c)] {
            h.update(&[tag]);
            let mut start = 0;
            for &end in &m.bounds {
                absorb_lc(&mut h, &m.terms[start..end], ni);
                start = end;
            }
        }
        let digest = h.finalize();

        let lower = |m: RawMatrix<F>| -> SparseMatrix<F> {
            let mut sm = SparseMatrix::with_capacity(num_rows, num_cols, m.terms.len());
            let mut scratch: Vec<(usize, F)> = Vec::new();
            let mut start = 0;
            for &end in &m.bounds {
                scratch.clear();
                scratch.extend(
                    m.terms[start..end]
                        .iter()
                        .map(|(v, coeff)| (variable_column(*v, ni), *coeff)),
                );
                sm.push_row_normalizing(&mut scratch);
                start = end;
            }
            sm
        };

        CompiledShape {
            matrices: R1csMatrices {
                a: lower(self.a),
                b: lower(self.b),
                c: lower(self.c),
                num_instance: ni,
                num_witness: nw,
            },
            digest,
            expected_boolean: hint_columns(&self.expected_boolean, ni),
            provided_boolean: hint_columns(&self.provided_boolean, ni),
        }
    }
}

/// Lowers recorded boolean-hint variables to a sorted, deduplicated list
/// of assignment-vector columns. Hints are analysis metadata and are
/// deliberately *not* part of the shape digest.
fn hint_columns(vars: &[Variable], num_instance: usize) -> Vec<usize> {
    let mut cols: Vec<usize> = vars
        .iter()
        .map(|v| variable_column(*v, num_instance))
        .collect();
    cols.sort_unstable();
    cols.dedup();
    cols
}

impl<F: PrimeField> ConstraintSink<F> for ShapeBuilder<F> {
    fn wants_values(&self) -> bool {
        false
    }

    fn alloc_instance_opt(&mut self, _value: Option<F>) -> Variable {
        self.num_instance += 1;
        Variable::Instance(self.num_instance - 1)
    }

    fn alloc_witness_opt(&mut self, _value: Option<F>) -> Variable {
        self.num_witness += 1;
        Variable::Witness(self.num_witness - 1)
    }

    fn enforce_named(
        &mut self,
        a: LinearCombination<F>,
        b: LinearCombination<F>,
        c: LinearCombination<F>,
        _name: &'static str,
    ) {
        self.a.push_lc(a);
        self.b.push_lc(b);
        self.c.push_lc(c);
    }

    fn lc_value(&self, _lc: &LinearCombination<F>) -> Option<F> {
        None
    }

    fn var_value(&self, _v: Variable) -> Option<F> {
        None
    }

    fn num_constraints(&self) -> usize {
        self.a.bounds.len()
    }

    fn num_instance(&self) -> usize {
        self.num_instance
    }

    fn num_witness(&self) -> usize {
        self.num_witness
    }

    fn expect_boolean(&mut self, v: Variable) {
        self.expected_boolean.push(v);
    }

    fn provide_boolean(&mut self, v: Variable) {
        self.provided_boolean.push(v);
    }
}

/// The witness pass: evaluates synthesis against an already-compiled shape,
/// collecting only the flat assignment. Constraints are counted (so the
/// result can be validated against the shape) but never stored.
///
/// Linear-combination evaluation is memoised per pass: synthesis code that
/// reuses a folded combination many times (CRPC's `x_i`/`w_k` row folds are
/// evaluated once per output cell) pays the term-by-term sum once and a
/// hash lookup thereafter. Variable values are append-only within a pass,
/// so a cached sum can never go stale; the cache dies with the pass. The
/// memoised value is the *same field element* the uncached walk produces —
/// field addition is exact — so assignments are bit-identical either way
/// (asserted in tests).
#[derive(Clone, Debug, Default)]
pub struct WitnessFiller<F: Field> {
    instance: Vec<F>,
    witness: Vec<F>,
    constraints: usize,
    lc_cache: core::cell::RefCell<std::collections::HashMap<LinearCombination<F>, F>>,
    lc_cache_hits: core::cell::Cell<usize>,
}

/// Linear combinations shorter than this are evaluated directly: a one-term
/// sum is cheaper than hashing it.
const LC_CACHE_MIN_TERMS: usize = 2;

impl<F: Field> WitnessFiller<F> {
    /// An empty witness pass.
    pub fn new() -> Self {
        WitnessFiller::default()
    }

    /// How many [`ConstraintSink::lc_value`] calls were answered from the
    /// per-pass evaluation cache (diagnostics for benches and tests).
    pub fn lc_cache_hits(&self) -> usize {
        self.lc_cache_hits.get()
    }

    /// Evaluates a linear combination term by term, with no memoisation.
    fn eval_lc_uncached(&self, lc: &LinearCombination<F>) -> F {
        lc.terms
            .iter()
            .map(|(v, c)| self.var_value(*v).expect("witness pass carries values") * *c)
            .sum()
    }

    /// Finishes the pass without shape validation.
    pub fn finish(self) -> WitnessAssignment<F> {
        WitnessAssignment {
            instance: self.instance,
            witness: self.witness,
        }
    }

    /// Finishes the pass, validating the layout against a compiled shape.
    ///
    /// # Panics
    /// Panics if the allocation or constraint counts diverge from the
    /// shape — which means the circuit's `synthesize` is not
    /// pass-oblivious (a bug in the circuit implementation).
    pub fn finish_for(self, shape: &CompiledShape<F>) -> WitnessAssignment<F> {
        assert_eq!(
            (self.instance.len(), self.witness.len(), self.constraints),
            (
                shape.num_instance(),
                shape.num_witness(),
                shape.num_constraints()
            ),
            "witness pass diverged from the compiled shape"
        );
        self.finish()
    }
}

impl<F: Field> ConstraintSink<F> for WitnessFiller<F> {
    fn wants_values(&self) -> bool {
        true
    }

    fn alloc_instance_opt(&mut self, value: Option<F>) -> Variable {
        self.instance
            .push(value.expect("witness pass requires an instance value"));
        Variable::Instance(self.instance.len() - 1)
    }

    fn alloc_witness_opt(&mut self, value: Option<F>) -> Variable {
        self.witness
            .push(value.expect("witness pass requires a witness value"));
        Variable::Witness(self.witness.len() - 1)
    }

    fn enforce_named(
        &mut self,
        _a: LinearCombination<F>,
        _b: LinearCombination<F>,
        _c: LinearCombination<F>,
        _name: &'static str,
    ) {
        self.constraints += 1;
    }

    fn lc_value(&self, lc: &LinearCombination<F>) -> Option<F> {
        if lc.terms.len() < LC_CACHE_MIN_TERMS {
            return Some(self.eval_lc_uncached(lc));
        }
        if let Some(v) = self.lc_cache.borrow().get(lc) {
            self.lc_cache_hits.set(self.lc_cache_hits.get() + 1);
            return Some(*v);
        }
        let v = self.eval_lc_uncached(lc);
        self.lc_cache.borrow_mut().insert(lc.clone(), v);
        Some(v)
    }

    fn var_value(&self, v: Variable) -> Option<F> {
        Some(match v {
            Variable::One => F::one(),
            Variable::Instance(i) => self.instance[i],
            Variable::Witness(i) => self.witness[i],
        })
    }

    fn num_constraints(&self) -> usize {
        self.constraints
    }

    fn num_instance(&self) -> usize {
        self.instance.len()
    }

    fn num_witness(&self) -> usize {
        self.witness.len()
    }
}

/// The output of a witness pass: the flat instance and witness assignment
/// of one statement, against a shape compiled once elsewhere.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WitnessAssignment<F: Field> {
    /// Public-input values, in allocation order.
    pub instance: Vec<F>,
    /// Private witness values, in allocation order.
    pub witness: Vec<F>,
}

impl<F: Field> WitnessAssignment<F> {
    /// The full assignment vector `z = (1, instance, witness)`.
    pub fn full(&self) -> Vec<F> {
        let mut z = Vec::with_capacity(1 + self.instance.len() + self.witness.len());
        z.push(F::one());
        z.extend_from_slice(&self.instance);
        z.extend_from_slice(&self.witness);
        z
    }
}

/// A circuit structure compiled by the witness-free shape pass (or lowered
/// from a single-pass [`ConstraintSystem`]): normalised CSR matrices plus the
/// canonical shape digest. This is the reusable artifact proof-system
/// setup consumes and key caches store beside the keys.
#[derive(Clone, Debug)]
pub struct CompiledShape<F: Field> {
    /// The `A`, `B`, `C` matrices in flat CSR form.
    pub matrices: R1csMatrices<F>,
    /// The canonical shape digest (see [`shape_digest`]).
    pub digest: [u8; 32],
    /// Assignment-vector columns synthesis declared boolean-*expected*
    /// (sorted, deduplicated). Analysis metadata only: the digest does not
    /// cover it, so hint changes never invalidate cached key material.
    pub expected_boolean: Vec<usize>,
    /// Assignment-vector columns synthesis declared boolean *by
    /// construction* (sorted, deduplicated). Same metadata-only status as
    /// [`Self::expected_boolean`].
    pub provided_boolean: Vec<usize>,
}

impl<F: PrimeField> CompiledShape<F> {
    /// Lowers a single-pass constraint system into a compiled shape — how
    /// unit tests with a hand-built system cross over to the provers. The
    /// digest equals [`shape_digest`] of `cs`.
    pub fn from_cs(cs: &ConstraintSystem<F>) -> Self {
        let ni = cs.num_instance();
        let (expected, provided) = cs.boolean_hints();
        CompiledShape {
            matrices: cs.to_matrices(),
            digest: shape_digest(cs),
            expected_boolean: hint_columns(expected, ni),
            provided_boolean: hint_columns(provided, ni),
        }
    }
}

impl<F: Field> CompiledShape<F> {
    /// Number of constraints (rows).
    pub fn num_constraints(&self) -> usize {
        self.matrices.num_constraints()
    }

    /// Number of variables (columns), including the constant one.
    pub fn num_variables(&self) -> usize {
        self.matrices.num_variables()
    }

    /// Number of instance variables (excluding the constant one).
    pub fn num_instance(&self) -> usize {
        self.matrices.num_instance
    }

    /// Number of witness variables.
    pub fn num_witness(&self) -> usize {
        self.matrices.num_witness
    }

    /// Checks `Az ∘ Bz = Cz` for an assignment produced by the witness
    /// pass.
    pub fn is_satisfied(&self, assignment: &WitnessAssignment<F>) -> bool {
        self.matrices.is_satisfied(&assignment.full())
    }

    /// Approximate heap footprint of the compiled CSR buffers in bytes —
    /// what a byte-bounded key cache charges this shape against its budget.
    pub fn approx_bytes(&self) -> usize {
        self.matrices.approx_bytes()
    }
}

/// Column index of a variable in the full assignment vector, given the
/// final instance count.
fn variable_column(v: Variable, num_instance: usize) -> usize {
    match v {
        Variable::One => 0,
        Variable::Instance(i) => 1 + i,
        Variable::Witness(i) => 1 + num_instance + i,
    }
}

fn absorb_header(h: &mut Sha256, num_instance: usize, num_witness: usize, num_constraints: usize) {
    h.update(DIGEST_DOMAIN);
    h.update(&(num_instance as u64).to_le_bytes());
    h.update(&(num_witness as u64).to_le_bytes());
    h.update(&(num_constraints as u64).to_le_bytes());
}

fn absorb_lc<F: PrimeField>(h: &mut Sha256, terms: &[(Variable, F)], num_instance: usize) {
    h.update(&(terms.len() as u64).to_le_bytes());
    for (var, coeff) in terms {
        h.update(&(variable_column(*var, num_instance) as u64).to_le_bytes());
        h.update(&coeff.to_bytes_le());
    }
}

/// Computes the canonical shape digest of a constraint system: a
/// collision-resistant fingerprint of the R1CS *structure* (constraint
/// matrices, coefficient values and the instance/witness split — not the
/// assignment).
///
/// Two constraint systems get the same digest iff Groth16 CRS material and
/// Spartan preprocessed state are interchangeable between them. The
/// encoding is injective: every section is length-prefixed and each
/// linear-combination term serialises its resolved column index alongside
/// the canonical coefficient bytes. [`ShapeBuilder::finish`] computes the
/// same digest from a witness-free shape pass.
pub fn shape_digest<F: PrimeField>(cs: &ConstraintSystem<F>) -> [u8; 32] {
    let ni = cs.num_instance();
    let mut h = Sha256::new();
    absorb_header(&mut h, ni, cs.num_witness(), cs.num_constraints());
    let (a, b, c) = cs.constraints();
    for (tag, lcs) in [(b'A', a), (b'B', b), (b'C', c)] {
        h.update(&[tag]);
        for lc in lcs {
            absorb_lc(&mut h, &lc.terms, ni);
        }
    }
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkvc_ff::Fr;

    /// Emits the cubic circuit x^3 + x + 5 = out through any sink — the
    /// same code drives all three passes.
    fn emit_cubic(sink: &mut dyn ConstraintSink<Fr>, x_val: u64) {
        let out = sink.alloc_instance_lazy(|| Fr::from_u64(x_val * x_val * x_val + x_val + 5));
        let x = sink.alloc_witness_lazy(|| Fr::from_u64(x_val));
        let x2 = sink.alloc_witness_lazy(|| Fr::from_u64(x_val * x_val));
        let x3_val = sink.lc_value(&x2.into()).map(|v| v * Fr::from_u64(x_val));
        let x3 = sink.alloc_witness_opt(x3_val);
        sink.enforce(x.into(), x.into(), x2.into());
        sink.enforce(x2.into(), x.into(), x3.into());
        sink.enforce(
            LinearCombination::from(x3)
                + LinearCombination::from(x)
                + LinearCombination::constant(Fr::from_u64(5)),
            LinearCombination::constant(Fr::one()),
            out.into(),
        );
    }

    #[test]
    fn three_passes_agree() {
        // Single pass.
        let mut cs = ConstraintSystem::<Fr>::new();
        emit_cubic(&mut cs, 3);
        assert!(cs.is_satisfied());

        // Shape pass: no values requested, same structure, same digest.
        let mut sb = ShapeBuilder::<Fr>::new();
        emit_cubic(&mut sb, 3);
        let shape = sb.finish();
        assert_eq!(shape.num_constraints(), cs.num_constraints());
        assert_eq!(shape.num_instance(), cs.num_instance());
        assert_eq!(shape.num_witness(), cs.num_witness());
        assert_eq!(shape.digest, shape_digest(&cs));
        assert_eq!(shape.matrices.a, cs.to_matrices().a);
        assert_eq!(shape.matrices.b, cs.to_matrices().b);
        assert_eq!(shape.matrices.c, cs.to_matrices().c);

        // Witness pass: values only, validated against the shape.
        let mut wf = WitnessFiller::<Fr>::new();
        emit_cubic(&mut wf, 3);
        let w = wf.finish_for(&shape);
        assert_eq!(w.full(), cs.full_assignment());
        assert!(shape.is_satisfied(&w));

        // A different statement of the same shape.
        let mut wf = WitnessFiller::<Fr>::new();
        emit_cubic(&mut wf, 5);
        let w5 = wf.finish_for(&shape);
        assert!(shape.is_satisfied(&w5));
        assert_ne!(w5.instance, w.instance);
    }

    #[test]
    fn shape_pass_never_materialises_values() {
        struct Bomb;
        let mut sb = ShapeBuilder::<Fr>::new();
        let sink: &mut dyn ConstraintSink<Fr> = &mut sb;
        assert!(!sink.wants_values());
        let w = sink.alloc_witness_lazy(|| {
            let _bomb = Bomb;
            panic!("witness closure invoked during the shape pass")
        });
        assert!(sink.lc_value(&w.into()).is_none());
        assert!(sink.var_value(w).is_none());
        sink.enforce_zero(LinearCombination::from(w) - LinearCombination::from(w));
        let shape = sb.finish();
        assert_eq!(shape.num_constraints(), 1);
        assert_eq!(shape.num_witness(), 1);
    }

    #[test]
    fn compiled_shape_from_cs_matches_shape_pass() {
        let mut cs = ConstraintSystem::<Fr>::new();
        emit_cubic(&mut cs, 6);
        let from_cs = CompiledShape::from_cs(&cs);
        let mut sb = ShapeBuilder::<Fr>::new();
        emit_cubic(&mut sb, 9);
        let from_pass = sb.finish();
        assert_eq!(from_cs.digest, from_pass.digest);
        assert_eq!(from_cs.matrices.a, from_pass.matrices.a);
        assert_eq!(from_cs.matrices.c, from_pass.matrices.c);
    }

    #[test]
    fn witness_pass_divergence_is_detected() {
        let mut sb = ShapeBuilder::<Fr>::new();
        emit_cubic(&mut sb, 3);
        let shape = sb.finish();
        let mut wf = WitnessFiller::<Fr>::new();
        emit_cubic(&mut wf, 3);
        wf.alloc_witness_opt(Some(Fr::zero())); // extra allocation
        let result = std::panic::catch_unwind(move || wf.finish_for(&shape));
        assert!(result.is_err());
    }

    /// A circuit that re-evaluates one shared multi-term combination per
    /// output — the access pattern the `lc_value` memo exists for.
    fn emit_shared_lc(sink: &mut dyn ConstraintSink<Fr>, seed: u64, uses: usize) {
        let vars: Vec<Variable> = (0..6)
            .map(|i| sink.alloc_witness_lazy(|| Fr::from_u64(seed.wrapping_mul(i + 3) ^ i)))
            .collect();
        let shared = vars
            .iter()
            .enumerate()
            .fold(LinearCombination::<Fr>::zero(), |lc, (i, v)| {
                lc.with_term(*v, Fr::from_u64(i as u64 + 1))
            });
        for _ in 0..uses {
            let prod = sink.lc_product(&shared, &shared);
            let sq = sink.alloc_witness_opt(prod);
            sink.enforce(shared.clone(), shared.clone(), sq.into());
        }
    }

    #[test]
    fn lc_memoisation_is_bit_identical_and_hits() {
        // Reference: the single pass (no memo) and a shape to
        // validate against.
        let mut cs = ConstraintSystem::<Fr>::new();
        emit_shared_lc(&mut cs, 0xfeed, 8);
        assert!(cs.is_satisfied());
        let mut sb = ShapeBuilder::<Fr>::new();
        emit_shared_lc(&mut sb, 0xfeed, 8);
        let shape = sb.finish();

        let mut wf = WitnessFiller::<Fr>::new();
        emit_shared_lc(&mut wf, 0xfeed, 8);
        // `lc_product` evaluates the shared LC twice per use; only the
        // first call pays the term walk.
        assert!(wf.lc_cache_hits() >= 15, "hits = {}", wf.lc_cache_hits());
        let w = wf.finish_for(&shape);
        assert_eq!(
            w.full(),
            cs.full_assignment(),
            "memoised pass must be bit-identical to the uncached pass"
        );
        assert!(shape.is_satisfied(&w));
    }

    #[test]
    fn lc_memo_matches_uncached_evaluation_per_call() {
        let mut wf = WitnessFiller::<Fr>::new();
        emit_shared_lc(&mut wf, 0x5eed, 3);
        // Every cached entry equals a fresh uncached evaluation of its key.
        let cache = wf.lc_cache.borrow();
        assert!(!cache.is_empty());
        for (lc, v) in cache.iter() {
            assert_eq!(*v, wf.eval_lc_uncached(lc));
        }
    }

    #[test]
    fn digest_normalisation_is_not_applied() {
        // The digest covers the raw emission order (insertion-order terms,
        // duplicates kept), matching the pre-split encoding exactly: two
        // structurally identical circuits emitted with different raw term
        // orders digest differently, while the CSR matrices normalise.
        let x = Variable::Witness(0);
        let y = Variable::Witness(1);
        let build = |swap: bool| {
            let mut sb = ShapeBuilder::<Fr>::new();
            sb.alloc_witness_opt(None);
            sb.alloc_witness_opt(None);
            let lc = if swap {
                LinearCombination::from(y) + LinearCombination::from(x)
            } else {
                LinearCombination::from(x) + LinearCombination::from(y)
            };
            sb.enforce_zero(lc);
            sb.finish()
        };
        let a = build(false);
        let b = build(true);
        assert_ne!(a.digest, b.digest);
        assert_eq!(a.matrices.a, b.matrices.a);
    }
}
