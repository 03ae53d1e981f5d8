//! Matrix-multiplication circuit strategies.
//!
//! This module is the heart of the paper: four interchangeable ways of
//! encoding `Y = X * W` (`X: a x n`, `W: n x b`) as R1CS constraints.
//!
//! | Strategy | Multiplication constraints | Notes |
//! |----------|---------------------------|-------|
//! | [`Strategy::Vanilla`]    | `a*b*n + a*b` | one constraint per scalar product plus one long addition per output |
//! | [`Strategy::VanillaPsq`] | `a*b*n`       | PSQ folds the long addition into the product constraints |
//! | [`Strategy::Crpc`]       | `n + 1`       | CRPC folds columns/rows into polynomials of the challenge `Z` |
//! | [`Strategy::CrpcPsq`]    | `n`           | the full zkVC construction |
//!
//! CRPC soundness rests on the Schwartz–Zippel lemma: the folded identity
//! is an equality of polynomials in `Z` of degree `< a*b`, so a `Y` fixed
//! before a random `Z` is drawn from the 246-bit scalar field passes with
//! probability at most `(a*b)/|F|`. The builder's `Z` is one public field
//! element set by [`MatMulBuilder::z`], defaulting to a value derived from
//! `(a, n, b)` alone; the served path sets the runtime's `fixed_z`. Either
//! way `Z` is known before `Y` exists, so CRPC statements are
//! soundness-BROKEN against a malicious prover (`docs/SOUNDNESS.md`).

mod crpc;
mod vanilla;

use core::fmt;
use std::str::FromStr;

use rand::Rng;
use zkvc_ff::{Field, Fr, PrimeField};
use zkvc_hash::Transcript;
use zkvc_r1cs::{CompiledShape, ConstraintSink, LinearCombination};

use crate::api::Circuit;
use crate::backend::UnknownTokenError;

/// The matrix-multiplication circuit encodings compared in the paper.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// One multiplication constraint per scalar product, plus a long
    /// addition per output element (the groth16/Spartan baselines of
    /// Fig. 3 and Fig. 6).
    Vanilla,
    /// Vanilla products with Prefix-Sum Query accumulation (ablation row 2
    /// of Table II).
    VanillaPsq,
    /// Constraint-Reduced Polynomial Circuits (ablation row 3 of Table II).
    Crpc,
    /// CRPC + PSQ — the full zkVC construction (ablation row 4 of Table II).
    CrpcPsq,
}

impl Strategy {
    /// All strategies, in the order used by the Table II ablation.
    pub const ALL: [Strategy; 4] = [
        Strategy::Vanilla,
        Strategy::VanillaPsq,
        Strategy::Crpc,
        Strategy::CrpcPsq,
    ];

    /// Human-readable name used by the benchmark harnesses.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Vanilla => "vanilla",
            Strategy::VanillaPsq => "vanilla+psq",
            Strategy::Crpc => "crpc",
            Strategy::CrpcPsq => "crpc+psq (zkVC)",
        }
    }

    /// Whether the strategy uses the CRPC polynomial folding (and therefore
    /// a challenge `Z`).
    pub fn uses_crpc(&self) -> bool {
        matches!(self, Strategy::Crpc | Strategy::CrpcPsq)
    }

    /// The machine-friendly spec token (unlike [`Strategy::name`], which is
    /// a display label containing spaces); also what [`fmt::Display`]
    /// prints.
    pub fn token(&self) -> &'static str {
        match self {
            Strategy::Vanilla => "vanilla",
            Strategy::VanillaPsq => "vanilla+psq",
            Strategy::Crpc => "crpc",
            Strategy::CrpcPsq => "crpc+psq",
        }
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

impl FromStr for Strategy {
    type Err = UnknownTokenError;

    /// Parses a strategy token as used in job specs: `vanilla`,
    /// `vanilla+psq` (aliases `vanilla-psq`, `psq`), `crpc`, `crpc+psq`
    /// (aliases `crpc-psq`, `zkvc`), case-insensitive.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "vanilla" => Ok(Strategy::Vanilla),
            "vanilla+psq" | "vanilla-psq" | "psq" => Ok(Strategy::VanillaPsq),
            "crpc" => Ok(Strategy::Crpc),
            "crpc+psq" | "crpc-psq" | "zkvc" => Ok(Strategy::CrpcPsq),
            _ => Err(UnknownTokenError {
                what: "strategy",
                token: s.to_string(),
            }),
        }
    }
}

/// Synthesises the chosen matmul encoding over existing linear combinations
/// and returns the output cells as linear combinations.
///
/// `x` must be `a x n` and `w` must be `n x b`; the result is `a x b`.
/// `z` is the CRPC challenge (ignored by the vanilla strategies).
///
/// # Panics
/// Panics if the matrix dimensions are inconsistent or empty.
pub fn synthesize_matmul<S: ConstraintSink<Fr> + ?Sized>(
    cs: &mut S,
    x: &[Vec<LinearCombination<Fr>>],
    w: &[Vec<LinearCombination<Fr>>],
    strategy: Strategy,
    z: Fr,
) -> Vec<Vec<LinearCombination<Fr>>> {
    validate_dims(x, w);
    synthesize(cs, x, w, None, strategy, z)
}

/// Synthesises the chosen matmul encoding with the output cells *supplied
/// by the caller* instead of freshly allocated: each `y[i][j]` is a linear
/// combination (typically a public instance variable) whose assigned value
/// must already equal the honest product, and the emitted constraints force
/// it to — **per cell**, so every output is independently bound.
///
/// This is the statement-binding variant: with `y` allocated as instance
/// variables, a proof commits to the concrete output matrix, not just the
/// circuit shape. The vanilla strategies bind at no extra cost (their
/// final per-cell sums write directly into `y`); the CRPC strategies add
/// `a*b` per-cell equality constraints on top of the paper counts, because
/// the Z-fold alone is a single public linear relation that a same-fold
/// `Y'` could satisfy (see `crpc::bind_outputs`).
///
/// # Panics
/// Panics if the matrix dimensions are inconsistent or empty, or if `y` is
/// not `a x b`.
pub fn synthesize_matmul_into<S: ConstraintSink<Fr> + ?Sized>(
    cs: &mut S,
    x: &[Vec<LinearCombination<Fr>>],
    w: &[Vec<LinearCombination<Fr>>],
    y: &[Vec<LinearCombination<Fr>>],
    strategy: Strategy,
    z: Fr,
) {
    validate_dims(x, w);
    let (a, b) = (x.len(), w[0].len());
    assert!(
        y.len() == a && y.iter().all(|r| r.len() == b),
        "output matrix must be {a} x {b}"
    );
    synthesize(cs, x, w, Some(y), strategy, z);
}

/// The one strategy dispatch: each strategy's single emission loop writes
/// its outputs into `y_out` when supplied, or into fresh witnesses.
fn synthesize<S: ConstraintSink<Fr> + ?Sized>(
    cs: &mut S,
    x: &[Vec<LinearCombination<Fr>>],
    w: &[Vec<LinearCombination<Fr>>],
    y_out: Option<&[Vec<LinearCombination<Fr>>]>,
    strategy: Strategy,
    z: Fr,
) -> Vec<Vec<LinearCombination<Fr>>> {
    match strategy {
        Strategy::Vanilla => vanilla::synthesize(cs, x, w, y_out),
        Strategy::VanillaPsq => vanilla::synthesize_psq(cs, x, w, y_out),
        Strategy::Crpc => crpc::synthesize(cs, x, w, y_out, z),
        Strategy::CrpcPsq => crpc::synthesize_psq(cs, x, w, y_out, z),
    }
}

fn validate_dims(x: &[Vec<LinearCombination<Fr>>], w: &[Vec<LinearCombination<Fr>>]) {
    assert!(!x.is_empty() && !w.is_empty(), "matrices must be non-empty");
    let n = x[0].len();
    assert!(
        n > 0 && x.iter().all(|r| r.len() == n),
        "X rows must have equal length"
    );
    assert_eq!(w.len(), n, "inner dimensions must agree");
    let b = w[0].len();
    assert!(
        b > 0 && w.iter().all(|r| r.len() == b),
        "W rows must have equal length"
    );
}

/// Computes `powers[m] = z^m` for `m < count`.
pub(crate) fn powers_of(z: Fr, count: usize) -> Vec<Fr> {
    let mut out = Vec::with_capacity(count);
    let mut cur = Fr::one();
    for _ in 0..count {
        out.push(cur);
        cur *= z;
    }
    out
}

/// Aggregate circuit statistics read off a compiled shape; the quantities
/// the paper's §III analyses (constraints for CRPC, left wires / variables
/// for PSQ).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CircuitStats {
    /// Number of R1CS constraints.
    pub num_constraints: usize,
    /// Number of variables (constant + instance + witness).
    pub num_variables: usize,
    /// Total distinct left-wire occurrences (`A`-matrix density).
    pub num_left_wires: usize,
    /// Total distinct right-wire occurrences (`B`-matrix density).
    pub num_right_wires: usize,
}

impl CircuitStats {
    /// Collects statistics from a compiled shape. CSR rows are normalised
    /// (one entry per distinct variable, no zero coefficients), so a
    /// matrix's non-zero count *is* its wire count.
    pub fn of(shape: &CompiledShape<Fr>) -> Self {
        CircuitStats {
            num_constraints: shape.num_constraints(),
            num_variables: shape.num_variables(),
            num_left_wires: shape.matrices.a.num_nonzero(),
            num_right_wires: shape.matrices.b.num_nonzero(),
        }
    }
}

/// A matrix-multiplication *statement*: the concrete `X`, `W`, honest
/// product `Y`, strategy and CRPC challenge — everything needed to drive
/// synthesis, with no constraint system built up front.
///
/// A [`compile_shape`](crate::api::compile_shape) over it is witness-free,
/// and on a warm shape only the witness pass
/// ([`generate_witness_for`](crate::api::generate_witness_for)) runs.
#[derive(Clone, Debug)]
pub struct MatMulCircuit {
    x: Vec<Vec<Fr>>,
    w: Vec<Vec<Fr>>,
    /// The honest product matrix.
    pub y: Vec<Vec<Fr>>,
    /// `(a, n, b)` dimensions.
    pub dims: (usize, usize, usize),
    /// The strategy used.
    pub strategy: Strategy,
    /// The CRPC challenge (unused by the vanilla strategies).
    pub z: Fr,
    /// Whether `Y` is allocated as public instance variables.
    pub outputs_public: bool,
}

impl Circuit for MatMulCircuit {
    /// Inputs and (when public) outputs are allocated, then the strategy's
    /// constraints. Pass-oblivious by construction — the shape pass
    /// allocates the same variables without reading a single value.
    fn synthesize(&self, cs: &mut dyn ConstraintSink<Fr>) {
        let wants = cs.wants_values();
        let alloc_witness_matrix =
            |cs: &mut dyn ConstraintSink<Fr>, m: &[Vec<Fr>]| -> Vec<Vec<LinearCombination<Fr>>> {
                m.iter()
                    .map(|row| {
                        row.iter()
                            .map(|v| cs.alloc_witness_opt(wants.then_some(*v)).into())
                            .collect()
                    })
                    .collect()
            };
        let x_lcs = alloc_witness_matrix(cs, &self.x);
        let w_lcs = alloc_witness_matrix(cs, &self.w);
        if self.outputs_public {
            let y_lcs: Vec<Vec<LinearCombination<Fr>>> = self
                .y
                .iter()
                .map(|row| {
                    row.iter()
                        .map(|v| cs.alloc_instance_opt(wants.then_some(*v)).into())
                        .collect()
                })
                .collect();
            synthesize_matmul_into(cs, &x_lcs, &w_lcs, &y_lcs, self.strategy, self.z);
        } else {
            let _y_lcs = synthesize_matmul(cs, &x_lcs, &w_lcs, self.strategy, self.z);
        }
    }

    fn name(&self) -> String {
        format!(
            "matmul {}x{}x{} ({})",
            self.dims.0, self.dims.1, self.dims.2, self.strategy
        )
    }

    fn public_outputs(&self) -> Vec<Fr> {
        if self.outputs_public {
            self.y.iter().flatten().copied().collect()
        } else {
            Vec::new()
        }
    }

    fn declared_publics(&self) -> usize {
        // The matmul *statement* always has a·b outputs, even when the
        // circuit was compiled with them left private — that gap is
        // exactly what the analyzer's `unbound-public` lint reports.
        self.dims.0 * self.dims.2
    }
}

/// Builder for matrix-multiplication statements.
#[derive(Clone, Debug)]
pub struct MatMulBuilder {
    a: usize,
    n: usize,
    b: usize,
    strategy: Strategy,
    z: Fr,
    public_outputs: bool,
}

impl MatMulBuilder {
    /// Creates a builder for `Y[a x b] = X[a x n] * W[n x b]`, defaulting to
    /// the statement `zkvc prove` serves: the full zkVC strategy (CRPC +
    /// PSQ) with public outputs, and a shape-level `Z` derived from
    /// `(a, n, b)` alone. Like the served `Z`, that default is public before
    /// any `Y` exists, so CRPC is soundness-BROKEN against a prover that
    /// writes its own witness (`docs/SOUNDNESS.md`).
    pub fn new(a: usize, n: usize, b: usize) -> Self {
        assert!(a > 0 && n > 0 && b > 0, "dimensions must be positive");
        let mut t = Transcript::new(b"zkvc-matmul-default-z");
        t.append_u64(b"a", a as u64);
        t.append_u64(b"n", n as u64);
        t.append_u64(b"b", b as u64);
        MatMulBuilder {
            a,
            n,
            b,
            strategy: Strategy::CrpcPsq,
            z: t.challenge_field(b"z"),
            public_outputs: true,
        }
    }

    /// Selects the circuit strategy.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// When `true` (the default), allocates `Y` as *public instance*
    /// variables, each bound by its own constraint, so the proof binds the
    /// concrete output matrix (statement-level binding); a proof for the
    /// same shape but a different `Y` then fails verification. Vanilla
    /// strategies keep their constraint counts; CRPC strategies pay `a*b`
    /// extra per-cell binding constraints (see [`synthesize_matmul_into`]).
    /// When `false`, `Y` stays a private witness and the proof binds only
    /// the circuit shape, which the all-zero assignment satisfies (the
    /// analyzer's `unbound-public` rule denies it).
    pub fn public_outputs(mut self, public_outputs: bool) -> Self {
        self.public_outputs = public_outputs;
        self
    }

    /// Sets the CRPC challenge `Z` (ignored by the vanilla strategies).
    pub fn z(mut self, z: Fr) -> Self {
        self.z = z;
        self
    }

    /// The `(a, n, b)` dimensions.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.a, self.n, self.b)
    }

    /// Builds the statement from signed-integer matrices (e.g. quantised
    /// model weights and activations).
    ///
    /// # Panics
    /// Panics if the matrix dimensions do not match the builder.
    pub fn build_circuit_integers(&self, x: &[Vec<i64>], w: &[Vec<i64>]) -> MatMulCircuit {
        let conv = |m: &[Vec<i64>]| -> Vec<Vec<Fr>> {
            m.iter()
                .map(|row| row.iter().map(|v| Fr::from_i64(*v)).collect())
                .collect()
        };
        self.build_circuit_field(&conv(x), &conv(w))
    }

    /// Builds the statement with uniformly random matrices (used by the
    /// benchmark harnesses, where only the cost profile matters).
    pub fn build_circuit_random<R: Rng + ?Sized>(&self, rng: &mut R) -> MatMulCircuit {
        let x: Vec<Vec<Fr>> = (0..self.a)
            .map(|_| {
                (0..self.n)
                    .map(|_| Fr::from_u64(rng.gen_range(0..256)))
                    .collect()
            })
            .collect();
        let w: Vec<Vec<Fr>> = (0..self.n)
            .map(|_| {
                (0..self.b)
                    .map(|_| Fr::from_u64(rng.gen_range(0..256)))
                    .collect()
            })
            .collect();
        self.build_circuit_field(&x, &w)
    }

    /// Builds the statement from field-element matrices: the honest product
    /// is computed, and synthesis is deferred to the two-pass pipeline
    /// (shape pass for setup/digests, witness pass for proving).
    ///
    /// # Panics
    /// Panics if the matrix dimensions do not match the builder.
    pub fn build_circuit_field(&self, x: &[Vec<Fr>], w: &[Vec<Fr>]) -> MatMulCircuit {
        assert_eq!(x.len(), self.a, "X row count mismatch");
        assert!(
            x.iter().all(|r| r.len() == self.n),
            "X column count mismatch"
        );
        assert_eq!(w.len(), self.n, "W row count mismatch");
        assert!(
            w.iter().all(|r| r.len() == self.b),
            "W column count mismatch"
        );

        // The honest product.
        let mut y = vec![vec![Fr::zero(); self.b]; self.a];
        for i in 0..self.a {
            for j in 0..self.b {
                let mut acc = Fr::zero();
                for k in 0..self.n {
                    acc += x[i][k] * w[k][j];
                }
                y[i][j] = acc;
            }
        }

        MatMulCircuit {
            x: x.to_vec(),
            w: w.to_vec(),
            y,
            dims: (self.a, self.n, self.b),
            strategy: self.strategy,
            z: self.z,
            outputs_public: self.public_outputs,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::api::compile_shape;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use zkvc_r1cs::ConstraintSystem;

    /// The statement synthesised into the single-pass reference sink, for
    /// satisfiability checks and witness tampering.
    pub(crate) fn single_pass(circuit: &MatMulCircuit) -> ConstraintSystem<Fr> {
        let mut cs = ConstraintSystem::new();
        circuit.synthesize(&mut cs);
        cs
    }

    fn stats(circuit: &MatMulCircuit) -> CircuitStats {
        CircuitStats::of(&compile_shape(circuit))
    }

    fn small_matrices() -> (Vec<Vec<i64>>, Vec<Vec<i64>>) {
        // 3x2 * 2x2 example from the paper's Figure 4.
        let x = vec![vec![1i64, 2], vec![3, 4], vec![5, 6]];
        let w = vec![vec![7i64, 8], vec![9, 10]];
        (x, w)
    }

    #[test]
    fn all_strategies_accept_honest_witness() {
        let (x, w) = small_matrices();
        for strategy in Strategy::ALL {
            let job = MatMulBuilder::new(3, 2, 2)
                .strategy(strategy)
                .build_circuit_integers(&x, &w);
            assert!(single_pass(&job).is_satisfied(), "{strategy:?}");
            // The product is the true product.
            assert_eq!(job.y[0][0], Fr::from_u64(7 + 2 * 9));
            assert_eq!(job.y[2][1], Fr::from_u64(5 * 8 + 6 * 10));
        }
    }

    #[test]
    fn constraint_counts_match_paper_formulas() {
        let (a, n, b) = (3usize, 4usize, 5usize);
        let mut rng = StdRng::seed_from_u64(1);
        let counts: Vec<(Strategy, usize)> = Strategy::ALL
            .iter()
            .map(|s| {
                let job = MatMulBuilder::new(a, n, b)
                    .strategy(*s)
                    .public_outputs(false)
                    .build_circuit_random(&mut rng);
                assert!(single_pass(&job).is_satisfied());
                (*s, stats(&job).num_constraints)
            })
            .collect();
        assert_eq!(
            counts[0].1,
            a * b * n + a * b,
            "vanilla: abn products + ab additions"
        );
        assert_eq!(counts[1].1, a * b * n, "vanilla+psq: abn products only");
        assert_eq!(counts[2].1, n + 1, "crpc: n products + 1 fold");
        assert_eq!(counts[3].1, n, "crpc+psq: n products");
    }

    #[test]
    fn psq_reduces_left_wires_and_variables() {
        let (a, n, b) = (4usize, 6usize, 5usize);
        let mut rng = StdRng::seed_from_u64(2);
        let vanilla = MatMulBuilder::new(a, n, b)
            .strategy(Strategy::Vanilla)
            .build_circuit_random(&mut rng);
        let psq = MatMulBuilder::new(a, n, b)
            .strategy(Strategy::VanillaPsq)
            .build_circuit_random(&mut rng);
        assert!(stats(&psq).num_left_wires < stats(&vanilla).num_left_wires);
        assert!(stats(&psq).num_variables <= stats(&vanilla).num_variables);

        let crpc = MatMulBuilder::new(a, n, b)
            .strategy(Strategy::Crpc)
            .build_circuit_random(&mut rng);
        let crpc_psq = MatMulBuilder::new(a, n, b)
            .strategy(Strategy::CrpcPsq)
            .build_circuit_random(&mut rng);
        assert!(stats(&crpc_psq).num_variables < stats(&crpc).num_variables);
        assert!(stats(&crpc_psq).num_constraints < stats(&crpc).num_constraints);
    }

    #[test]
    fn figure5_left_wire_example() {
        // The paper's Figure 5: a single dot product of length 3 uses 6 left
        // wires with the long addition but only 3 with PSQ.
        let x = vec![vec![2i64, 3, 4]];
        let w = vec![vec![5i64], vec![6], vec![7]];
        let vanilla = MatMulBuilder::new(1, 3, 1)
            .strategy(Strategy::Vanilla)
            .build_circuit_integers(&x, &w);
        let psq = MatMulBuilder::new(1, 3, 1)
            .strategy(Strategy::VanillaPsq)
            .build_circuit_integers(&x, &w);
        assert_eq!(stats(&vanilla).num_left_wires, 6);
        assert_eq!(stats(&psq).num_left_wires, 3);
    }

    #[test]
    fn corrupted_product_rejected_by_every_strategy() {
        let (x, w) = small_matrices();
        for strategy in Strategy::ALL {
            let job = MatMulBuilder::new(3, 2, 2)
                .strategy(strategy)
                .public_outputs(false)
                .build_circuit_integers(&x, &w);
            // Find the first witness variable holding a Y value and corrupt it.
            // Y variables are allocated by the strategy after the 6 + 4 input
            // variables; corrupting any later witness must break satisfaction
            // for vanilla strategies, and break the folded identity for CRPC.
            let mut cs = single_pass(&job);
            let mut witness = cs.witness_assignment().to_vec();
            let idx = witness.len() - 1;
            witness[idx] += Fr::one();
            cs.set_witness_assignment(witness);
            assert!(
                !cs.is_satisfied(),
                "{strategy:?} accepted a corrupted witness"
            );
        }
    }

    #[test]
    fn crpc_soundness_random_tampering() {
        // Tamper with each Y entry in turn; the CRPC identity must catch it.
        let (x, w) = small_matrices();
        let job = MatMulBuilder::new(3, 2, 2)
            .strategy(Strategy::CrpcPsq)
            .public_outputs(false)
            .build_circuit_integers(&x, &w);
        let num_inputs = 3 * 2 + 2 * 2;
        for y_idx in 0..6 {
            let mut cs = single_pass(&job);
            let mut witness = cs.witness_assignment().to_vec();
            witness[num_inputs + y_idx] += Fr::from_u64(3);
            cs.set_witness_assignment(witness);
            assert!(!cs.is_satisfied(), "tampered y[{y_idx}] accepted");
        }
    }

    #[test]
    fn default_z_is_shape_level_and_explicit_z_is_honoured() {
        // The default Z depends on (a, n, b) only: two statements of one
        // shape with different X and W compile to one shape, whatever the
        // strategy, so they share keys exactly as served jobs do.
        let (x, w) = small_matrices();
        let (mut x2, mut w2) = (x.clone(), w.clone());
        x2[0][0] += 1;
        w2[1][1] -= 3;
        for strategy in Strategy::ALL {
            let builder = MatMulBuilder::new(3, 2, 2).strategy(strategy);
            let j1 = builder.build_circuit_integers(&x, &w);
            let j2 = builder.build_circuit_integers(&x2, &w2);
            assert_ne!(j1.y, j2.y, "{strategy:?}");
            assert_eq!(j1.z, j2.z, "{strategy:?}");
            assert_eq!(
                compile_shape(&j1).digest,
                compile_shape(&j2).digest,
                "{strategy:?}"
            );
        }
        // An explicit Z is honoured, and for CRPC it is part of the shape.
        let j3 = MatMulBuilder::new(3, 2, 2)
            .z(Fr::from_u64(1234))
            .build_circuit_integers(&x, &w);
        assert_eq!(j3.z, Fr::from_u64(1234));
        let j1 = MatMulBuilder::new(3, 2, 2).build_circuit_integers(&x, &w);
        assert_ne!(compile_shape(&j3).digest, compile_shape(&j1).digest);
    }

    #[test]
    fn strategies_compose_over_existing_variables() {
        // synthesize_matmul can be chained: Y1 = X*W1 then Y2 = Y1*W2.
        let mut rng = StdRng::seed_from_u64(5);
        let mut cs = ConstraintSystem::<Fr>::new();
        let rand_lc = |cs: &mut ConstraintSystem<Fr>, rng: &mut StdRng| -> LinearCombination<Fr> {
            cs.alloc_witness(Fr::from_u64(rng.gen_range(0..100))).into()
        };
        let x: Vec<Vec<LinearCombination<Fr>>> = (0..2)
            .map(|_| (0..3).map(|_| rand_lc(&mut cs, &mut rng)).collect())
            .collect();
        let w1: Vec<Vec<LinearCombination<Fr>>> = (0..3)
            .map(|_| (0..2).map(|_| rand_lc(&mut cs, &mut rng)).collect())
            .collect();
        let w2: Vec<Vec<LinearCombination<Fr>>> = (0..2)
            .map(|_| (0..2).map(|_| rand_lc(&mut cs, &mut rng)).collect())
            .collect();
        let y1 = synthesize_matmul(&mut cs, &x, &w1, Strategy::CrpcPsq, Fr::from_u64(99991));
        let y2 = synthesize_matmul(&mut cs, &y1, &w2, Strategy::CrpcPsq, Fr::from_u64(77773));
        assert_eq!(y2.len(), 2);
        assert_eq!(y2[0].len(), 2);
        assert!(cs.is_satisfied());
    }

    #[test]
    #[should_panic(expected = "inner dimensions must agree")]
    fn dimension_mismatch_panics() {
        let mut cs = ConstraintSystem::<Fr>::new();
        let x: Vec<Vec<LinearCombination<Fr>>> =
            vec![vec![cs.alloc_witness(Fr::one()).into(); 3]; 2];
        let w: Vec<Vec<LinearCombination<Fr>>> =
            vec![vec![cs.alloc_witness(Fr::one()).into(); 2]; 2];
        synthesize_matmul(&mut cs, &x, &w, Strategy::Vanilla, Fr::one());
    }

    #[test]
    fn public_outputs_constraint_counts() {
        // Exposing Y as instance variables keeps the vanilla counts
        // unchanged (their per-cell sums write into the public cells
        // directly) and adds exactly a*b per-cell binding constraints for
        // the CRPC strategies — the price of sound statement binding, and
        // still O(n + ab) vs the vanilla O(abn).
        let (a, n, b) = (3usize, 4usize, 5usize);
        let mut rng = StdRng::seed_from_u64(8);
        let expected = [
            (Strategy::Vanilla, a * b * n + a * b),
            (Strategy::VanillaPsq, a * b * n),
            (Strategy::Crpc, n + 1 + a * b),
            (Strategy::CrpcPsq, n + a * b),
        ];
        for (strategy, count) in expected {
            // No setter: public outputs are the default.
            let job = MatMulBuilder::new(a, n, b)
                .strategy(strategy)
                .build_circuit_random(&mut rng);
            let cs = single_pass(&job);
            assert!(cs.is_satisfied(), "{strategy:?}");
            assert!(job.outputs_public);
            assert_eq!(stats(&job).num_constraints, count, "{strategy:?}");
            assert_eq!(cs.num_instance(), a * b, "{strategy:?}");
            // The instance assignment is exactly the flattened product.
            let flat: Vec<Fr> = job.y.iter().flatten().copied().collect();
            assert_eq!(cs.instance_assignment(), &flat[..], "{strategy:?}");
        }
    }

    #[test]
    fn tampered_public_output_breaks_satisfiability() {
        let (x, w) = small_matrices();
        for strategy in Strategy::ALL {
            let job = MatMulBuilder::new(3, 2, 2)
                .strategy(strategy)
                .build_circuit_integers(&x, &w);
            let honest = single_pass(&job);
            assert!(honest.is_satisfied(), "{strategy:?}");
            for idx in 0..6 {
                let mut instance = honest.instance_assignment().to_vec();
                instance[idx] += Fr::one();
                let mut cs = honest.clone();
                cs.set_instance_assignment(instance);
                assert!(
                    !cs.is_satisfied(),
                    "{strategy:?} accepted a tampered public y[{idx}]"
                );
            }
        }
    }

    #[test]
    fn fold_preserving_tamper_breaks_public_crpc_outputs() {
        // The CRPC fold `sum Z^{i*b+j} y_ij` is a single public linear
        // relation with a publicly known Z, so `y_0 += Z, y_1 -= 1` leaves
        // the fold unchanged. Without the per-cell binding constraints
        // such a compensated tamper would still satisfy the circuit —
        // regression test for the fold-only binding gap.
        let (x, w) = small_matrices();
        for strategy in [Strategy::Crpc, Strategy::CrpcPsq] {
            let job = MatMulBuilder::new(3, 2, 2)
                .strategy(strategy)
                .build_circuit_integers(&x, &w);
            let mut cs = single_pass(&job);
            assert!(cs.is_satisfied(), "{strategy:?}");
            let mut instance = cs.instance_assignment().to_vec();
            // coeff(y[0]) = Z^0 = 1, coeff(y[1]) = Z^1: net fold delta is
            // 1*Z + Z*(-1) = 0.
            instance[0] += job.z;
            instance[1] -= Fr::one();
            cs.set_instance_assignment(instance);
            assert!(
                !cs.is_satisfied(),
                "{strategy:?} accepted a fold-preserving tamper"
            );
        }
    }

    #[test]
    fn public_and_private_outputs_compute_identical_products() {
        let (x, w) = small_matrices();
        for strategy in Strategy::ALL {
            let private = MatMulBuilder::new(3, 2, 2)
                .strategy(strategy)
                .public_outputs(false)
                .build_circuit_integers(&x, &w);
            let public = MatMulBuilder::new(3, 2, 2)
                .strategy(strategy)
                .build_circuit_integers(&x, &w);
            assert_eq!(private.y, public.y, "{strategy:?}");
            // Vanilla public-output circuits drop the Y witnesses; CRPC
            // ones keep them (the fold runs over witnesses, each pinned to
            // a public cell), so witness counts never grow.
            assert!(
                compile_shape(&public).num_witness() <= compile_shape(&private).num_witness(),
                "{strategy:?}"
            );
            if !strategy.uses_crpc() {
                assert!(
                    compile_shape(&public).num_witness() < compile_shape(&private).num_witness(),
                    "{strategy:?}"
                );
            }
        }
    }

    #[test]
    fn powers_helper() {
        let p = powers_of(Fr::from_u64(3), 5);
        assert_eq!(
            p,
            vec![
                Fr::one(),
                Fr::from_u64(3),
                Fr::from_u64(9),
                Fr::from_u64(27),
                Fr::from_u64(81)
            ]
        );
    }
}
