//! Static soundness analysis over compiled circuit shapes.
//!
//! Under-constrained circuits are the canonical ZKP soundness bug class:
//! a prover can satisfy the R1CS with values the statement never meant to
//! admit, and no amount of honest-path testing notices, because honest
//! witnesses satisfy under-constrained systems too. This module lints a
//! [`CompiledShape`] — the flat CSR matrices every shipping circuit is
//! already lowered to — for the structural signatures of that bug class,
//! entirely witness-free.
//!
//! The entry point is [`CompiledShape::analyze`], which takes the number
//! of public outputs the circuit *declares* (its statement-level
//! interface, independent of how many instance columns synthesis actually
//! allocated) and runs the full lint catalog:
//!
//! | rule id                 | severity | fires when                                   |
//! |-------------------------|----------|----------------------------------------------|
//! | `unconstrained-witness` | deny     | a witness column no constraint can pin       |
//! | `unbound-public`        | deny     | a declared public output no constraint pins  |
//! | `constant-violation`    | deny     | a row unsatisfiable on constants alone       |
//! | `missing-booleanity`    | deny     | a boolean-expected column with no 0/1 proof  |
//! | `dead-constraint`       | warn     | a row trivially satisfied for every `z`      |
//! | `duplicate-constraint`  | warn     | two rows identical up to the `A`/`B` swap    |
//!
//! Every finding carries a stable rule id, a severity, and the constraint
//! row / variable column it anchors to, so reports are machine-checkable
//! (the `zkvc analyze` CLI gates CI on them).

use zkvc_ff::PrimeField;

use crate::sink::CompiledShape;

/// How bad a finding is. Ordered: `Info < Warn < Deny`.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational; never gates.
    Info,
    /// Suspicious structure that wastes constraints but cannot break
    /// soundness by itself.
    Warn,
    /// A soundness hole: the shape admits assignments the statement
    /// forbids, or can never be satisfied at all.
    Deny,
}

impl Severity {
    /// The lowercase token used in reports and CLI flags.
    pub fn token(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }

    /// Parses the token produced by [`Severity::token`].
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "info" => Some(Severity::Info),
            "warn" => Some(Severity::Warn),
            "deny" => Some(Severity::Deny),
            _ => None,
        }
    }
}

impl core::fmt::Display for Severity {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.token())
    }
}

/// The lint catalog: every rule the analyzer knows, with a stable id.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Rule {
    /// A witness column appears in no constraint that can pin its value:
    /// either in no row at all, or only on the `A` side of rows whose `B`
    /// is identically zero (and vice versa), where the product vanishes
    /// regardless of the column's value.
    UnconstrainedWitness,
    /// A declared public output is not pinned: the circuit declares more
    /// public outputs than it allocates instance columns (shape-only
    /// binding — a forgeable statement), or an allocated instance column
    /// appears in no constraint that can pin it.
    UnboundPublic,
    /// A row that holds for **no** assignment: both sides and the target
    /// are statically constant and `a · b ≠ c`. The circuit can never be
    /// satisfied, so every proof attempt fails.
    ConstantViolation,
    /// A column synthesis marked boolean-expected has neither a
    /// boolean-by-construction marker nor any row forcing it into
    /// `{0, 1}` (an `x · (x − 1) = 0`-shaped row, up to scaling and the
    /// `A`/`B` swap — `x · x = x` included).
    MissingBooleanity,
    /// A row satisfied by **every** assignment: both sides' product and
    /// the target are statically constant and equal. Wastes a constraint
    /// and usually signals a gadget emitting vacuous rows.
    DeadConstraint,
    /// Two rows with identical `(A, B, C)` triples (up to the commutative
    /// `A`/`B` swap): the second pins nothing new.
    DuplicateConstraint,
}

impl Rule {
    /// Every rule, in report order (denies first).
    pub const ALL: [Rule; 6] = [
        Rule::UnconstrainedWitness,
        Rule::UnboundPublic,
        Rule::ConstantViolation,
        Rule::MissingBooleanity,
        Rule::DeadConstraint,
        Rule::DuplicateConstraint,
    ];

    /// The stable rule id used in reports.
    pub fn id(self) -> &'static str {
        match self {
            Rule::UnconstrainedWitness => "unconstrained-witness",
            Rule::UnboundPublic => "unbound-public",
            Rule::ConstantViolation => "constant-violation",
            Rule::MissingBooleanity => "missing-booleanity",
            Rule::DeadConstraint => "dead-constraint",
            Rule::DuplicateConstraint => "duplicate-constraint",
        }
    }

    /// The severity every finding of this rule carries.
    pub fn severity(self) -> Severity {
        match self {
            Rule::UnconstrainedWitness
            | Rule::UnboundPublic
            | Rule::ConstantViolation
            | Rule::MissingBooleanity => Severity::Deny,
            Rule::DeadConstraint | Rule::DuplicateConstraint => Severity::Warn,
        }
    }
}

impl core::fmt::Display for Rule {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.id())
    }
}

/// One structured lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Which lint fired.
    pub rule: Rule,
    /// The rule's severity (denormalised for report consumers).
    pub severity: Severity,
    /// Human-readable description naming the offender.
    pub message: String,
    /// The constraint row the finding anchors to, if row-scoped.
    pub constraint: Option<usize>,
    /// The assignment-vector column the finding anchors to, if
    /// variable-scoped.
    pub column: Option<usize>,
}

impl Finding {
    fn new(rule: Rule, message: String) -> Self {
        Finding {
            rule,
            severity: rule.severity(),
            message,
            constraint: None,
            column: None,
        }
    }

    fn at_row(mut self, row: usize) -> Self {
        self.constraint = Some(row);
        self
    }

    fn at_column(mut self, col: usize) -> Self {
        self.column = Some(col);
        self
    }
}

/// The result of analyzing one compiled shape: shape statistics plus every
/// finding, ordered denies-first in catalog order.
#[derive(Clone, Debug, Default)]
pub struct ShapeReport {
    /// All findings, worst first.
    pub findings: Vec<Finding>,
    /// Constraint rows analyzed.
    pub num_constraints: usize,
    /// Variables analyzed (including the constant-one column).
    pub num_variables: usize,
    /// Instance columns the shape allocates.
    pub num_instance: usize,
    /// Witness columns the shape allocates.
    pub num_witness: usize,
    /// Public outputs the circuit declared to the analyzer.
    pub declared_publics: usize,
}

impl ShapeReport {
    /// `true` when no finding of any severity was produced.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The worst severity present, or `None` on a clean report.
    pub fn worst(&self) -> Option<Severity> {
        self.findings.iter().map(|f| f.severity).max()
    }

    /// Findings at or above `threshold`.
    pub fn at_least(&self, threshold: Severity) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(move |f| f.severity >= threshold)
    }

    /// Number of findings at or above `threshold`.
    pub fn count_at_least(&self, threshold: Severity) -> usize {
        self.at_least(threshold).count()
    }
}

/// A human name for an assignment-vector column.
fn describe_column(col: usize, num_instance: usize) -> String {
    if col == 0 {
        "the constant-one column".to_string()
    } else if col <= num_instance {
        format!("public output i{} (column {col})", col - 1)
    } else {
        format!("witness w{} (column {col})", col - 1 - num_instance)
    }
}

/// Per-row static summary of one matrix side.
#[derive(Clone, Debug)]
struct SideSummary<F> {
    /// `Some(k)` when the side evaluates to the constant `k` for every
    /// assignment: the row is empty (`k = 0`) or touches only column 0.
    constant: Option<F>,
    /// Whether the side has any term at all.
    empty: bool,
}

fn summarise_side<F: PrimeField>(terms: &[(usize, F)]) -> SideSummary<F> {
    let empty = terms.is_empty();
    let constant = if empty {
        Some(F::zero())
    } else if terms.len() == 1 && terms[0].0 == 0 {
        Some(terms[0].1)
    } else {
        None
    };
    SideSummary { constant, empty }
}

impl<F: PrimeField> CompiledShape<F> {
    /// Runs the full lint catalog over this shape. `declared_publics` is
    /// the number of public outputs the circuit's *statement* exposes —
    /// `Circuit::declared_publics` in `zkvc-core` — which may exceed the
    /// shape's instance count when a circuit was (mis)compiled with its
    /// outputs left private.
    ///
    /// The pass is witness-free and linear in the number of non-zero
    /// matrix entries (plus a hash-map pass for duplicate detection).
    pub fn analyze(&self, declared_publics: usize) -> ShapeReport {
        let m = &self.matrices;
        let ni = m.num_instance;
        let rows = self.num_constraints();
        let cols = self.num_variables();

        // Single sweep: per-row side summaries, per-column effective
        // occurrence counts, row fingerprints for duplicate detection and
        // single-variable rows for booleanity proofs.
        let mut effective = vec![0usize; cols];
        let mut row_findings: Vec<Finding> = Vec::new();
        let mut seen_rows: std::collections::HashMap<Vec<u8>, usize> =
            std::collections::HashMap::new();
        let mut duplicate_findings: Vec<Finding> = Vec::new();
        let mut proven_boolean: std::collections::HashSet<usize> = std::collections::HashSet::new();

        for i in 0..rows {
            let a: Vec<(usize, F)> = m.a.row(i).map(|(c, v)| (c, *v)).collect();
            let b: Vec<(usize, F)> = m.b.row(i).map(|(c, v)| (c, *v)).collect();
            let c: Vec<(usize, F)> = m.c.row(i).map(|(c, v)| (c, *v)).collect();
            let sa = summarise_side(&a);
            let sb = summarise_side(&b);
            let sc = summarise_side(&c);

            // Effective occurrences: a term can pin its variable unless it
            // sits on a multiplicative side whose partner is identically
            // zero (then the product vanishes for every assignment and the
            // term constrains nothing).
            for &(col, _) in &c {
                effective[col] += 1;
            }
            if !sb.empty {
                for &(col, _) in &a {
                    effective[col] += 1;
                }
            }
            if !sa.empty {
                for &(col, _) in &b {
                    effective[col] += 1;
                }
            }

            // Dead rows and constant violations: the product is statically
            // known when both sides are, or when either side is the
            // constant zero.
            let product = match (sa.constant, sb.constant) {
                (Some(x), Some(y)) => Some(x * y),
                (Some(x), None) | (None, Some(x)) if x == F::zero() => Some(F::zero()),
                _ => None,
            };
            if let (Some(p), Some(t)) = (product, sc.constant) {
                if p == t {
                    row_findings.push(
                        Finding::new(
                            Rule::DeadConstraint,
                            format!(
                                "constraint {i} is satisfied by every assignment \
                                 (both sides are constant and agree)"
                            ),
                        )
                        .at_row(i),
                    );
                } else {
                    row_findings.push(
                        Finding::new(
                            Rule::ConstantViolation,
                            format!(
                                "constraint {i} is unsatisfiable: its sides are \
                                 constant and a\u{b7}b \u{2260} c"
                            ),
                        )
                        .at_row(i),
                    );
                }
            }

            // Duplicate detection: canonical row key, A/B ordered so the
            // commutative swap collides.
            let key = row_key(&a, &b, &c);
            if let Some(&first) = seen_rows.get(&key) {
                duplicate_findings.push(
                    Finding::new(
                        Rule::DuplicateConstraint,
                        format!("constraint {i} duplicates constraint {first}"),
                    )
                    .at_row(i),
                );
            } else {
                seen_rows.insert(key, i);
            }

            // Booleanity proof: a row touching exactly one non-constant
            // column x encodes a univariate p(x) = (a0 + a1·x)(b0 + b1·x)
            // − (c0 + c1·x); it forces x ∈ {0, 1} iff p(0) = p(1) = 0 with
            // a genuinely quadratic leading term.
            if let Some(x) = single_variable(&a, &b, &c) {
                let (a0, a1) = const_and_var(&a, x);
                let (b0, b1) = const_and_var(&b, x);
                let (c0, c1) = const_and_var(&c, x);
                let p0 = a0 * b0 - c0;
                let p1 = (a0 + a1) * (b0 + b1) - (c0 + c1);
                if p0 == F::zero() && p1 == F::zero() && a1 * b1 != F::zero() {
                    proven_boolean.insert(x);
                }
            }
        }

        let mut findings: Vec<Finding> = Vec::new();

        // unconstrained-witness: witness columns nothing can pin.
        for (col, &uses) in effective.iter().enumerate().skip(1 + ni) {
            if uses == 0 {
                findings.push(
                    Finding::new(
                        Rule::UnconstrainedWitness,
                        format!(
                            "{} appears in no constraint that can pin its value",
                            describe_column(col, ni)
                        ),
                    )
                    .at_column(col),
                );
            }
        }

        // unbound-public: declared outputs the shape never allocated
        // (statement left private — the forgeable-binding class), then
        // allocated instance columns nothing pins.
        if declared_publics > ni {
            findings.push(Finding::new(
                Rule::UnboundPublic,
                format!(
                    "circuit declares {declared_publics} public output(s) but the shape \
                     allocates only {ni} instance column(s): the statement is not bound \
                     by any constraint"
                ),
            ));
        }
        for (col, &uses) in effective.iter().enumerate().take(1 + ni).skip(1) {
            if uses == 0 {
                findings.push(
                    Finding::new(
                        Rule::UnboundPublic,
                        format!(
                            "{} appears in no constraint that can pin it to the witness",
                            describe_column(col, ni)
                        ),
                    )
                    .at_column(col),
                );
            }
        }

        // missing-booleanity: expected columns with neither a provider
        // marker nor a pattern proof.
        let provided: std::collections::HashSet<usize> =
            self.provided_boolean.iter().copied().collect();
        for &col in &self.expected_boolean {
            if !provided.contains(&col) && !proven_boolean.contains(&col) {
                findings.push(
                    Finding::new(
                        Rule::MissingBooleanity,
                        format!(
                            "{} is consumed as a boolean but no x\u{b7}(x\u{2212}1)=0 \
                             constraint pins it to {{0, 1}}",
                            describe_column(col, ni)
                        ),
                    )
                    .at_column(col),
                );
            }
        }

        findings.extend(row_findings);
        findings.extend(duplicate_findings);
        // Report order: denies first, then catalog order, then anchor.
        findings.sort_by_key(|f| {
            (
                core::cmp::Reverse(f.severity),
                Rule::ALL.iter().position(|r| *r == f.rule),
                f.constraint,
                f.column,
            )
        });

        ShapeReport {
            findings,
            num_constraints: rows,
            num_variables: cols,
            num_instance: ni,
            num_witness: m.num_witness,
            declared_publics,
        }
    }
}

/// The constant-column coefficient and the `x`-column coefficient of one
/// side (CSR rows hold at most one term per column).
fn const_and_var<F: PrimeField>(terms: &[(usize, F)], x: usize) -> (F, F) {
    let mut k = F::zero();
    let mut v = F::zero();
    for &(col, coeff) in terms {
        if col == 0 {
            k = coeff;
        } else if col == x {
            v = coeff;
        }
    }
    (k, v)
}

/// `Some(x)` when the union of non-constant columns across all three
/// sides is exactly `{x}`.
fn single_variable<F: PrimeField>(
    a: &[(usize, F)],
    b: &[(usize, F)],
    c: &[(usize, F)],
) -> Option<usize> {
    let mut var: Option<usize> = None;
    for &(col, _) in a.iter().chain(b).chain(c) {
        if col == 0 {
            continue;
        }
        match var {
            None => var = Some(col),
            Some(v) if v == col => {}
            Some(_) => return None,
        }
    }
    var
}

/// Serialises one side into length-prefixed canonical bytes.
fn side_bytes<F: PrimeField>(terms: &[(usize, F)], out: &mut Vec<u8>) {
    out.extend_from_slice(&(terms.len() as u64).to_le_bytes());
    for &(col, coeff) in terms {
        out.extend_from_slice(&(col as u64).to_le_bytes());
        out.extend_from_slice(&coeff.to_bytes_le());
    }
}

/// A canonical key for one `(A, B, C)` row triple: the `A` and `B` sides
/// are ordered lexicographically so the commutative swap maps both
/// orientations to one key.
fn row_key<F: PrimeField>(a: &[(usize, F)], b: &[(usize, F)], c: &[(usize, F)]) -> Vec<u8> {
    let mut ab = Vec::new();
    side_bytes(a, &mut ab);
    let mut bb = Vec::new();
    side_bytes(b, &mut bb);
    let (first, second) = if ab <= bb { (ab, bb) } else { (bb, ab) };
    let mut key = first;
    key.extend_from_slice(&second);
    side_bytes(c, &mut key);
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cs::ConstraintSystem;
    use crate::lc::LinearCombination;
    use crate::sink::CompiledShape;
    use zkvc_ff::{Field, Fr};

    fn analyze(cs: &ConstraintSystem<Fr>) -> ShapeReport {
        let shape = CompiledShape::from_cs(cs);
        shape.analyze(cs.num_instance())
    }

    fn rules(report: &ShapeReport) -> Vec<Rule> {
        report.findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn clean_circuit_is_clean() {
        let mut cs = ConstraintSystem::<Fr>::new();
        let x = cs.alloc_witness(Fr::from_u64(3));
        let y = cs.alloc_instance(Fr::from_u64(9));
        cs.enforce(x.into(), x.into(), y.into());
        let report = analyze(&cs);
        assert!(report.is_clean(), "{:?}", report.findings);
        assert_eq!(report.worst(), None);
        assert_eq!(report.num_constraints, 1);
        assert_eq!(report.declared_publics, 1);
    }

    #[test]
    fn unconstrained_witness_fires() {
        let mut cs = ConstraintSystem::<Fr>::new();
        let x = cs.alloc_witness(Fr::from_u64(3));
        let _orphan = cs.alloc_witness(Fr::from_u64(7));
        let y = cs.alloc_instance(Fr::from_u64(9));
        cs.enforce(x.into(), x.into(), y.into());
        let report = analyze(&cs);
        assert_eq!(rules(&report), vec![Rule::UnconstrainedWitness]);
        let f = &report.findings[0];
        assert_eq!(f.severity, Severity::Deny);
        assert_eq!(f.column, Some(3), "orphan is column 3 (1 + ni=1 + idx 1)");
        assert_eq!(f.constraint, None, "column-anchored");
    }

    #[test]
    fn witness_only_against_zero_side_is_unconstrained() {
        // x appears only on the B side of a row whose A side is empty:
        // 0 · x = 0 holds for every x.
        let mut cs = ConstraintSystem::<Fr>::new();
        let x = cs.alloc_witness(Fr::from_u64(5));
        cs.enforce(
            LinearCombination::zero(),
            x.into(),
            LinearCombination::zero(),
        );
        let report = analyze(&cs);
        assert!(rules(&report).contains(&Rule::UnconstrainedWitness));
        // The vacuous row is also dead: 0 · (anything) = 0.
        assert!(rules(&report).contains(&Rule::DeadConstraint));
    }

    #[test]
    fn unbound_public_fires_on_missing_declaration() {
        // The `:private` miscompile: statement says one public output,
        // shape allocated none.
        let mut cs = ConstraintSystem::<Fr>::new();
        let x = cs.alloc_witness(Fr::from_u64(3));
        let y = cs.alloc_witness(Fr::from_u64(9));
        cs.enforce(x.into(), x.into(), y.into());
        let report = CompiledShape::from_cs(&cs).analyze(1);
        assert_eq!(rules(&report), vec![Rule::UnboundPublic]);
        let f = &report.findings[0];
        assert_eq!((f.constraint, f.column), (None, None), "shape-level");
    }

    #[test]
    fn unbound_public_fires_on_unpinned_instance_column() {
        // The PR-3 class: an instance variable exists but no constraint
        // pins it.
        let mut cs = ConstraintSystem::<Fr>::new();
        let x = cs.alloc_witness(Fr::from_u64(3));
        let _floating = cs.alloc_instance(Fr::from_u64(9));
        cs.enforce(x.into(), x.into(), x.into());
        let report = analyze(&cs);
        assert_eq!(rules(&report), vec![Rule::UnboundPublic]);
        assert_eq!(report.findings[0].column, Some(1));
    }

    #[test]
    fn constant_violation_fires() {
        let mut cs = ConstraintSystem::<Fr>::new();
        cs.enforce(
            LinearCombination::constant(Fr::from_u64(2)),
            LinearCombination::constant(Fr::from_u64(3)),
            LinearCombination::constant(Fr::from_u64(7)),
        );
        let report = analyze(&cs);
        assert_eq!(rules(&report), vec![Rule::ConstantViolation]);
        assert_eq!(report.findings[0].constraint, Some(0));
        assert_eq!(report.worst(), Some(Severity::Deny));
    }

    #[test]
    fn dead_constraint_fires() {
        let mut cs = ConstraintSystem::<Fr>::new();
        let x = cs.alloc_witness(Fr::from_u64(3));
        let y = cs.alloc_instance(Fr::from_u64(9));
        cs.enforce(x.into(), x.into(), y.into());
        cs.enforce(
            LinearCombination::constant(Fr::from_u64(2)),
            LinearCombination::constant(Fr::from_u64(3)),
            LinearCombination::constant(Fr::from_u64(6)),
        );
        let report = analyze(&cs);
        assert!(rules(&report).contains(&Rule::DeadConstraint));
        assert_eq!(report.count_at_least(Severity::Deny), 0);
        assert_eq!(report.count_at_least(Severity::Warn), 1);
    }

    #[test]
    fn duplicate_constraint_fires_up_to_the_ab_swap() {
        let mut cs = ConstraintSystem::<Fr>::new();
        let x = cs.alloc_witness(Fr::from_u64(2));
        let y = cs.alloc_witness(Fr::from_u64(3));
        let z = cs.alloc_witness(Fr::from_u64(6));
        cs.enforce(x.into(), y.into(), z.into());
        cs.enforce(y.into(), x.into(), z.into()); // commuted duplicate
        let report = analyze(&cs);
        assert_eq!(rules(&report), vec![Rule::DuplicateConstraint]);
        assert_eq!(report.findings[0].constraint, Some(1));
        assert!(report.findings[0].message.contains("constraint 0"));
    }

    #[test]
    fn different_rows_are_not_duplicates() {
        let mut cs = ConstraintSystem::<Fr>::new();
        let x = cs.alloc_witness(Fr::from_u64(2));
        let y = cs.alloc_witness(Fr::from_u64(4));
        let z = cs.alloc_witness(Fr::from_u64(16));
        cs.enforce(x.into(), x.into(), y.into());
        cs.enforce(y.into(), y.into(), z.into());
        assert!(analyze(&cs).is_clean());
    }

    #[test]
    fn missing_booleanity_fires_without_a_pinning_row() {
        let mut cs = ConstraintSystem::<Fr>::new();
        let b = cs.alloc_witness(Fr::from_u64(1));
        let out = cs.alloc_instance(Fr::from_u64(5));
        // b is used as a selector but never pinned to {0, 1}.
        cs.enforce(
            b.into(),
            LinearCombination::constant(Fr::from_u64(5)),
            out.into(),
        );
        cs.expect_boolean(b);
        let report = analyze(&cs);
        assert_eq!(rules(&report), vec![Rule::MissingBooleanity]);
        assert_eq!(report.findings[0].column, Some(2));
    }

    #[test]
    fn booleanity_row_satisfies_the_expectation() {
        for scale in [1u64, 3] {
            let mut cs = ConstraintSystem::<Fr>::new();
            let b = cs.alloc_witness(Fr::from_u64(1));
            let out = cs.alloc_instance(Fr::from_u64(5));
            // k·b · (1 − b) = 0, scaled: still proves b ∈ {0, 1}.
            cs.enforce(
                LinearCombination::from(b).scale(&Fr::from_u64(scale)),
                LinearCombination::constant(Fr::one()) - LinearCombination::from(b),
                LinearCombination::zero(),
            );
            cs.enforce(
                b.into(),
                LinearCombination::constant(Fr::from_u64(5)),
                out.into(),
            );
            cs.expect_boolean(b);
            assert!(analyze(&cs).is_clean(), "scale {scale}");
        }
    }

    #[test]
    fn x_squared_equals_x_satisfies_the_expectation() {
        let mut cs = ConstraintSystem::<Fr>::new();
        let b = cs.alloc_witness(Fr::from_u64(1));
        let out = cs.alloc_instance(Fr::from_u64(5));
        cs.enforce(b.into(), b.into(), b.into()); // x·x = x
        cs.enforce(
            b.into(),
            LinearCombination::constant(Fr::from_u64(5)),
            out.into(),
        );
        cs.expect_boolean(b);
        assert!(analyze(&cs).is_clean());
    }

    #[test]
    fn a_lookalike_row_does_not_satisfy_booleanity() {
        // x · (2 − x) = 0 pins x to {0, 2}, not {0, 1}.
        let mut cs = ConstraintSystem::<Fr>::new();
        let b = cs.alloc_witness(Fr::from_u64(0));
        let out = cs.alloc_instance(Fr::from_u64(0));
        cs.enforce(
            b.into(),
            LinearCombination::constant(Fr::from_u64(2)) - LinearCombination::from(b),
            LinearCombination::zero(),
        );
        cs.enforce(
            b.into(),
            LinearCombination::constant(Fr::from_u64(5)),
            out.into(),
        );
        cs.expect_boolean(b);
        let report = analyze(&cs);
        assert_eq!(rules(&report), vec![Rule::MissingBooleanity]);
    }

    #[test]
    fn provider_hint_satisfies_the_expectation() {
        let mut cs = ConstraintSystem::<Fr>::new();
        let b = cs.alloc_witness(Fr::from_u64(1));
        let out = cs.alloc_instance(Fr::from_u64(5));
        cs.enforce(
            b.into(),
            LinearCombination::constant(Fr::from_u64(5)),
            out.into(),
        );
        cs.expect_boolean(b);
        cs.provide_boolean(b);
        assert!(analyze(&cs).is_clean());
    }

    #[test]
    fn severity_order_and_tokens() {
        assert!(Severity::Info < Severity::Warn && Severity::Warn < Severity::Deny);
        for sev in [Severity::Info, Severity::Warn, Severity::Deny] {
            assert_eq!(Severity::parse(sev.token()), Some(sev));
        }
        assert_eq!(Severity::parse("DENY"), Some(Severity::Deny));
        assert_eq!(Severity::parse("nope"), None);
    }

    #[test]
    fn findings_sort_denies_first() {
        let mut cs = ConstraintSystem::<Fr>::new();
        let x = cs.alloc_witness(Fr::from_u64(3));
        let _orphan = cs.alloc_witness(Fr::from_u64(7));
        let y = cs.alloc_witness(Fr::from_u64(9));
        cs.enforce(x.into(), x.into(), y.into());
        cs.enforce(
            LinearCombination::constant(Fr::one()),
            LinearCombination::constant(Fr::one()),
            LinearCombination::constant(Fr::one()),
        ); // dead (warn)
        let report = analyze(&cs);
        assert_eq!(
            rules(&report),
            vec![Rule::UnconstrainedWitness, Rule::DeadConstraint]
        );
    }
}
