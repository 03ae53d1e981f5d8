//! The Spartan-style transparent SNARK for R1CS.
//!
//! See the crate-level docs for the protocol outline and the deviation from
//! the original Spartan construction.

use rand::Rng;
use zkvc_curve::{msm, G1Affine, G1Projective};
use zkvc_ff::poly::eq_evals;
use zkvc_ff::{Field, Fr, MultilinearPolynomial};
use zkvc_hash::Transcript;
use zkvc_r1cs::{CompiledShape, SparseMatrix};

use crate::ipa::{InnerProductProof, IpaGenerators};
use crate::sumcheck::{self, SumcheckProof};

const TRANSCRIPT_LABEL: &[u8] = b"zkvc-spartan-v2";

/// The padded witness viewed as an `R x C` matrix, row-major
/// (`index = row * C + col`), with one commitment `<row_i, G[..C]>` per
/// row. `R` is a fixed function of the padded length `n`:
/// `log R = floor(log2(n) / 3)`, so `R = 1` below `n = 8`, `16 x 256` at
/// `n = 4 096`.
#[derive(Clone, Debug)]
struct Rows {
    log_rows: usize,
    /// The first `C` generators: every row is committed over them.
    gens: IpaGenerators,
}

impl Rows {
    fn new(n: usize) -> Self {
        let log_rows = n.trailing_zeros() as usize / 3;
        Rows {
            log_rows,
            gens: IpaGenerators::new(n >> log_rows, b"zkvc-spartan-witness"),
        }
    }

    fn count(&self) -> usize {
        1 << self.log_rows
    }

    /// One commitment per row of the padded witness.
    fn commit(&self, witness: &[Fr]) -> Vec<G1Projective> {
        witness
            .chunks_exact(self.gens.len())
            .map(|row| self.gens.commit(row))
            .collect()
    }

    /// `eq(point)` over the matrix as `(eq_row, eq_col)`, with
    /// `eq(point)[row * C + col] = eq_row[row] * eq_col[col]`: `eq_evals`
    /// puts the first variable in the low bit, so the first `log C`
    /// coordinates pick the column.
    fn split_eq(&self, point: &[Fr]) -> (Vec<Fr>, Vec<Fr>) {
        let (col, row) = point.split_at(point.len() - self.log_rows);
        (eq_evals(row), eq_evals(col))
    }

    /// Opens the witness at `point`: the evaluation, and a length-`C`
    /// inner-product proof of `<v, eq_col> = eval` for the combined row
    /// `v = sum_i eq_row_i * row_i`.
    fn open(&self, t: &mut Transcript, witness: &[Fr], point: &[Fr]) -> (Fr, InnerProductProof) {
        let (eq_row, eq_col) = self.split_eq(point);
        let mut v = vec![Fr::zero(); self.gens.len()];
        for (row, e) in witness.chunks_exact(v.len()).zip(&eq_row) {
            for (vi, w) in v.iter_mut().zip(row) {
                *vi += *e * *w;
            }
        }
        let eval = v.iter().zip(&eq_col).map(|(x, y)| *x * *y).sum();
        t.append_field(b"eval_w", &eval);
        (eval, InnerProductProof::prove(&self.gens, t, &v, &eq_col))
    }

    /// Checks an opening against the row commitments: the combined row's
    /// commitment `sum_i eq_row_i * C_i` is one `R`-point MSM. The caller
    /// has checked that there are `R` of them.
    fn verify(
        &self,
        t: &mut Transcript,
        rows: &[G1Affine],
        (eq_row, eq_col): (&[Fr], &[Fr]),
        eval: &Fr,
        ipa: &InnerProductProof,
    ) -> bool {
        t.append_field(b"eval_w", eval);
        ipa.verify(&self.gens, t, &msm(rows, eq_row), eq_col, eval)
    }
}

/// The shared, transparently-derived instance description: the remapped
/// R1CS matrices (witness columns moved to the upper half of the variable
/// space), the shape digest and the row commitment generators.
#[derive(Clone, Debug)]
struct Instance {
    a: SparseMatrix<Fr>,
    b: SparseMatrix<Fr>,
    c: SparseMatrix<Fr>,
    /// [`CompiledShape::digest`], bound into every transcript.
    digest: [u8; 32],
    num_io: usize,
    num_witness: usize,
    /// Half the padded variable-space size; public part occupies
    /// `[0, n_half)`, witness occupies `[n_half, 2 n_half)`.
    n_half: usize,
    /// Padded constraint count.
    m_pad: usize,
    log_m: usize,
    log_cols: usize,
    rows: Rows,
}

impl Instance {
    /// Builds the remapped instance from a compiled shape. Column remapping
    /// is monotone (instance columns keep their index, witness columns
    /// shift up into the upper half), so the CSR rows stay sorted.
    fn from_shape(shape: &CompiledShape<Fr>) -> Self {
        let m = &shape.matrices;
        let num_io = m.num_instance;
        let num_witness = m.num_witness;
        let n_half = (num_io + 1).max(num_witness).max(2).next_power_of_two();
        let num_cols = 2 * n_half;
        let m_pad = m.num_constraints().max(2).next_power_of_two();
        let log_m = m_pad.trailing_zeros() as usize;
        let log_cols = num_cols.trailing_zeros() as usize;

        let remap = |mat: &SparseMatrix<Fr>| SparseMatrix {
            num_rows: mat.num_rows,
            num_cols,
            row_ptr: mat.row_ptr.clone(),
            col_idx: mat
                .col_idx
                .iter()
                .map(|col| {
                    if *col <= num_io {
                        *col
                    } else {
                        n_half + (*col - num_io - 1)
                    }
                })
                .collect(),
            vals: mat.vals.clone(),
        };

        Instance {
            a: remap(&m.a),
            b: remap(&m.b),
            c: remap(&m.c),
            digest: shape.digest,
            num_io,
            num_witness,
            n_half,
            m_pad,
            log_m,
            log_cols,
            rows: Rows::new(n_half),
        }
    }

    /// Builds the full (remapped, padded) assignment vector from io + witness.
    fn build_z(&self, io: &[Fr], witness: &[Fr]) -> Vec<Fr> {
        let mut z = vec![Fr::zero(); 2 * self.n_half];
        z[0] = Fr::one();
        z[1..1 + io.len()].copy_from_slice(io);
        z[self.n_half..self.n_half + witness.len()].copy_from_slice(witness);
        z
    }

    /// The transcript after the statement and the row commitments.
    fn start_transcript(&self, io: &[Fr], rows: &[G1Affine]) -> Transcript {
        let mut t = Transcript::new(TRANSCRIPT_LABEL);
        t.append_bytes(b"shape digest", &self.digest);
        t.append_u64(b"num constraints", self.a.num_rows as u64);
        t.append_u64(b"num io", self.num_io as u64);
        t.append_u64(b"num witness", self.num_witness as u64);
        t.append_fields(b"io", io);
        for row in rows {
            t.append_point(b"comm_row", row);
        }
        t
    }
}

/// A Spartan-style proof.
#[derive(Clone, Debug)]
pub struct SpartanProof {
    /// Commitments to the rows of the (padded) witness matrix.
    pub comm_rows: Vec<G1Projective>,
    /// First (degree-3) sum-check proof.
    pub sc1: SumcheckProof,
    /// Claimed evaluations `(Az)(rx)`, `(Bz)(rx)`, `(Cz)(rx)`.
    pub claims: (Fr, Fr, Fr),
    /// Second (degree-2) sum-check proof.
    pub sc2: SumcheckProof,
    /// Claimed witness-MLE evaluation at `ry[..last]`.
    pub eval_w: Fr,
    /// Opening of the combined row at that point.
    pub ipa: InnerProductProof,
}

impl SpartanProof {
    /// Size of [`Self::to_bytes`] in bytes: the version byte, the row
    /// commitments with their count, both sum-checks, three claims, the
    /// witness evaluation and the IPA.
    pub fn size_in_bytes(&self) -> usize {
        1 + 4
            + 65 * self.comm_rows.len()
            + self.sc1.size_in_bytes()
            + 3 * 32
            + self.sc2.size_in_bytes()
            + 32
            + self.ipa.size_in_bytes()
    }
}

/// Prover-side preprocessed state for a fixed circuit structure. The
/// instance is behind an `Arc` so the matching verifier (and any clones
/// held by a key cache) share one copy of the remapped matrices and
/// commitment generators.
#[derive(Clone, Debug)]
pub struct SpartanProver {
    instance: std::sync::Arc<Instance>,
}

/// Verifier-side preprocessed state for a fixed circuit structure.
#[derive(Clone, Debug)]
pub struct SpartanVerifier {
    instance: std::sync::Arc<Instance>,
}

impl SpartanProver {
    /// Preprocesses a compiled shape (no trusted setup — everything is
    /// derived transparently, and nothing here ever sees an assignment).
    pub fn preprocess_shape(shape: &CompiledShape<Fr>) -> Self {
        SpartanProver {
            instance: std::sync::Arc::new(Instance::from_shape(shape)),
        }
    }

    /// Number of constraints in the preprocessed structure.
    pub fn num_constraints(&self) -> usize {
        self.instance.a.num_rows
    }

    /// Number of variables (constant + instance + witness) in the original
    /// (un-padded) circuit.
    pub fn num_variables(&self) -> usize {
        1 + self.instance.num_io + self.instance.num_witness
    }

    /// Builds the matching verifier, sharing the already-preprocessed
    /// instance instead of running the matrix remap and generator
    /// derivation a second time.
    pub fn to_verifier(&self) -> SpartanVerifier {
        SpartanVerifier {
            instance: std::sync::Arc::clone(&self.instance),
        }
    }

    /// Produces a proof from a flat instance/witness assignment against the
    /// preprocessed structure — the prove-many hot path: no constraint
    /// system, no matrix extraction, just the sum-checks and the opening.
    /// Nothing is blinded, so `_rng` is never read and the proof is a
    /// function of the assignment alone (see the crate docs).
    ///
    /// # Panics
    /// Panics if the assignment lengths differ from the preprocessed
    /// structure.
    pub fn prove_assignment<R: Rng + ?Sized>(
        &self,
        io: &[Fr],
        witness: &[Fr],
        _rng: &mut R,
    ) -> SpartanProof {
        let inst = &self.instance;
        assert_eq!(io.len(), inst.num_io, "instance count mismatch");
        assert_eq!(witness.len(), inst.num_witness, "witness count mismatch");

        let io = io.to_vec();
        let mut witness = witness.to_vec();
        witness.resize(inst.n_half, Fr::zero());
        let z = inst.build_z(&io, &witness);

        // 1. commit to the witness rows
        let comm_rows = inst.rows.commit(&witness);
        let mut transcript = inst.start_transcript(&io, &G1Projective::batch_to_affine(&comm_rows));

        // 2. first sum-check: sum_x eq(tau,x) (Az(x) Bz(x) - Cz(x)) = 0
        let tau = transcript.challenge_fields(b"tau", inst.log_m);
        let mut az = inst.a.mul_vector(&z);
        let mut bz = inst.b.mul_vector(&z);
        let mut cz = inst.c.mul_vector(&z);
        az.resize(inst.m_pad, Fr::zero());
        bz.resize(inst.m_pad, Fr::zero());
        cz.resize(inst.m_pad, Fr::zero());
        let e = MultilinearPolynomial::from_evaluations(eq_evals(&tau));
        let az_p = MultilinearPolynomial::from_evaluations(az);
        let bz_p = MultilinearPolynomial::from_evaluations(bz);
        let cz_p = MultilinearPolynomial::from_evaluations(cz);
        let (sc1, rx, (_e_eval, va, vb, vc)) =
            sumcheck::prove_cubic(&Fr::zero(), &e, &az_p, &bz_p, &cz_p, &mut transcript);

        transcript.append_field(b"va", &va);
        transcript.append_field(b"vb", &vb);
        transcript.append_field(b"vc", &vc);

        // 3. second sum-check: batch the three claims into one
        let r_a = transcript.challenge_field(b"r_a");
        let r_b = transcript.challenge_field(b"r_b");
        let r_c = transcript.challenge_field(b"r_c");
        let claim2 = r_a * va + r_b * vb + r_c * vc;

        let chi_rx = eq_evals(&rx);
        let mut m_vec = vec![Fr::zero(); 2 * inst.n_half];
        for (mat, weight) in [(&inst.a, r_a), (&inst.b, r_b), (&inst.c, r_c)] {
            for (x, chi) in chi_rx.iter().enumerate().take(mat.num_rows) {
                let w = weight * *chi;
                if w.is_zero() {
                    continue;
                }
                for (col, val) in mat.row(x) {
                    m_vec[col] += w * *val;
                }
            }
        }
        let m_poly = MultilinearPolynomial::from_evaluations(m_vec);
        let z_poly = MultilinearPolynomial::from_evaluations(z);
        let (sc2, ry, (_m_eval, _z_eval)) =
            sumcheck::prove_quadratic(&claim2, &m_poly, &z_poly, &mut transcript);

        // 4. open the witness MLE at ry[..last]
        let (eval_w, ipa) = inst
            .rows
            .open(&mut transcript, &witness, &ry[..inst.log_cols - 1]);

        SpartanProof {
            comm_rows,
            sc1,
            claims: (va, vb, vc),
            sc2,
            eval_w,
            ipa,
        }
    }
}

impl SpartanVerifier {
    /// Preprocesses a compiled shape for verification (witness-free).
    pub fn preprocess_shape(shape: &CompiledShape<Fr>) -> Self {
        SpartanVerifier {
            instance: std::sync::Arc::new(Instance::from_shape(shape)),
        }
    }

    /// Verifies a proof against the public inputs.
    pub fn verify(&self, io: &[Fr], proof: &SpartanProof) -> bool {
        let inst = &self.instance;
        if io.len() != inst.num_io || proof.comm_rows.len() != inst.rows.count() {
            return false;
        }
        let comm_rows = G1Projective::batch_to_affine(&proof.comm_rows);
        let mut transcript = inst.start_transcript(io, &comm_rows);

        // 1. first sum-check
        let tau = transcript.challenge_fields(b"tau", inst.log_m);
        let Some(sub1) = sumcheck::verify(&Fr::zero(), inst.log_m, 3, &proof.sc1, &mut transcript)
        else {
            return false;
        };
        let (va, vb, vc) = proof.claims;
        // eq(tau, rx)
        let eq_tau_rx: Fr = tau
            .iter()
            .zip(sub1.point.iter())
            .map(|(t, r)| *t * *r + (Fr::one() - *t) * (Fr::one() - *r))
            .product();
        if sub1.expected_evaluation != eq_tau_rx * (va * vb - vc) {
            return false;
        }
        transcript.append_field(b"va", &va);
        transcript.append_field(b"vb", &vb);
        transcript.append_field(b"vc", &vc);

        // 2. second sum-check
        let r_a = transcript.challenge_field(b"r_a");
        let r_b = transcript.challenge_field(b"r_b");
        let r_c = transcript.challenge_field(b"r_c");
        let claim2 = r_a * va + r_b * vb + r_c * vc;
        let Some(sub2) = sumcheck::verify(&claim2, inst.log_cols, 2, &proof.sc2, &mut transcript)
        else {
            return false;
        };
        let rx = &sub1.point;
        let ry = &sub2.point;

        // 3. evaluate the public matrices at (rx, ry) — the O(nnz) step that
        //    substitutes for Spartan's SPARK commitments.
        let m_eval = r_a * inst.a.evaluate_mle(rx, ry)
            + r_b * inst.b.evaluate_mle(rx, ry)
            + r_c * inst.c.evaluate_mle(rx, ry);

        // 4. evaluate the assignment MLE: public half directly (laid out
        //    like the witness matrix), witness half from the claimed (and
        //    opened) evaluation.
        let ry_last = ry[inst.log_cols - 1];
        let (eq_row, eq_col) = inst.rows.split_eq(&ry[..inst.log_cols - 1]);
        let cols = eq_col.len();
        let eval_pub: Fr = std::iter::once(&Fr::one())
            .chain(io)
            .enumerate()
            .map(|(k, p)| *p * eq_row[k / cols] * eq_col[k % cols])
            .sum();
        let z_eval = (Fr::one() - ry_last) * eval_pub + ry_last * proof.eval_w;
        if sub2.expected_evaluation != m_eval * z_eval {
            return false;
        }

        // 5. check the witness opening
        inst.rows.verify(
            &mut transcript,
            &comm_rows,
            (&eq_row, &eq_col),
            &proof.eval_w,
            &proof.ipa,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use zkvc_ff::PrimeField;
    use zkvc_r1cs::{ConstraintSystem, LinearCombination};

    /// Hand-built single-pass systems cross over through their lowered
    /// shape and flat assignment.
    fn preprocess(cs: &ConstraintSystem<Fr>) -> (SpartanProver, SpartanVerifier) {
        let shape = CompiledShape::from_cs(cs);
        (
            SpartanProver::preprocess_shape(&shape),
            SpartanVerifier::preprocess_shape(&shape),
        )
    }

    fn prove(prover: &SpartanProver, cs: &ConstraintSystem<Fr>, rng: &mut StdRng) -> SpartanProof {
        prover.prove_assignment(cs.instance_assignment(), cs.witness_assignment(), rng)
    }

    fn cubic_cs(x_val: u64) -> ConstraintSystem<Fr> {
        let out_val = x_val * x_val * x_val + x_val + 5;
        let mut cs = ConstraintSystem::<Fr>::new();
        let out = cs.alloc_instance(Fr::from_u64(out_val));
        let x = cs.alloc_witness(Fr::from_u64(x_val));
        let x2 = cs.alloc_witness(Fr::from_u64(x_val * x_val));
        let x3 = cs.alloc_witness(Fr::from_u64(x_val * x_val * x_val));
        cs.enforce(x.into(), x.into(), x2.into());
        cs.enforce(x2.into(), x.into(), x3.into());
        cs.enforce(
            LinearCombination::from(x3)
                + LinearCombination::from(x)
                + LinearCombination::constant(Fr::from_u64(5)),
            LinearCombination::constant(Fr::one()),
            out.into(),
        );
        cs
    }

    #[test]
    fn prove_and_verify() {
        let mut rng = StdRng::seed_from_u64(77);
        let cs = cubic_cs(3);
        assert!(cs.is_satisfied());
        let (prover, verifier) = preprocess(&cs);
        let proof = prove(&prover, &cs, &mut rng);
        assert!(verifier.verify(cs.instance_assignment(), &proof));
        assert!(proof.size_in_bytes() > 0);
    }

    #[test]
    fn wrong_public_input_rejected() {
        let mut rng = StdRng::seed_from_u64(78);
        let cs = cubic_cs(3);
        let (prover, verifier) = preprocess(&cs);
        let proof = prove(&prover, &cs, &mut rng);
        assert!(!verifier.verify(&[Fr::from_u64(36)], &proof));
        assert!(!verifier.verify(&[], &proof));
    }

    #[test]
    fn tampered_proof_rejected() {
        let mut rng = StdRng::seed_from_u64(79);
        let cs = cubic_cs(4);
        let (prover, verifier) = preprocess(&cs);
        let base = prove(&prover, &cs, &mut rng);
        assert!(verifier.verify(cs.instance_assignment(), &base));

        let mut p = base.clone();
        p.claims.0 += Fr::one();
        assert!(!verifier.verify(cs.instance_assignment(), &p));

        let mut p = base.clone();
        p.eval_w += Fr::one();
        assert!(!verifier.verify(cs.instance_assignment(), &p));

        let mut p = base.clone();
        p.comm_rows[0] += G1Projective::generator();
        assert!(!verifier.verify(cs.instance_assignment(), &p));

        let mut p = base;
        p.sc2.round_polys[0][1] += Fr::one();
        assert!(!verifier.verify(cs.instance_assignment(), &p));
    }

    #[test]
    fn cheating_witness_rejected() {
        // A witness that does not satisfy the R1CS must not verify even if
        // the prover runs honestly on it.
        let mut rng = StdRng::seed_from_u64(80);
        let mut cs = cubic_cs(3);
        // corrupt the witness: x3 wrong
        let mut w = cs.witness_assignment().to_vec();
        w[2] = Fr::from_u64(28);
        cs.set_witness_assignment(w);
        assert!(!cs.is_satisfied());
        let (prover, verifier) = preprocess(&cs);
        let proof = prove(&prover, &cs, &mut rng);
        assert!(!verifier.verify(cs.instance_assignment(), &proof));
    }

    /// A chain of multiplications `x_{i+1} = x_i * x_i`, `steps` long.
    fn chain_cs(steps: usize) -> ConstraintSystem<Fr> {
        let mut cs = ConstraintSystem::<Fr>::new();
        let mut val = Fr::from_u64(3);
        let mut cur = cs.alloc_instance(val);
        for _ in 0..steps {
            let next_val = val * val;
            let next = cs.alloc_witness(next_val);
            cs.enforce(cur.into(), cur.into(), next.into());
            cur = next;
            val = next_val;
        }
        cs
    }

    #[test]
    fn larger_circuit_roundtrip() {
        let mut rng = StdRng::seed_from_u64(81);
        let cs = chain_cs(20);
        assert!(cs.is_satisfied());
        let (prover, verifier) = preprocess(&cs);
        let proof = prove(&prover, &cs, &mut rng);
        assert!(verifier.verify(cs.instance_assignment(), &proof));
    }

    /// A proof whose witness is committed as more than one row: 20
    /// witnesses pad to 32, two rows of 16.
    fn two_row_proof() -> (ConstraintSystem<Fr>, SpartanVerifier, SpartanProof) {
        let cs = chain_cs(20);
        let (prover, verifier) = preprocess(&cs);
        let proof = prove(&prover, &cs, &mut StdRng::seed_from_u64(82));
        assert_eq!(proof.comm_rows.len(), 2);
        assert!(verifier.verify(cs.instance_assignment(), &proof));
        (cs, verifier, proof)
    }

    #[test]
    fn a_row_count_off_the_shape_rule_is_rejected() {
        let (cs, verifier, base) = two_row_proof();
        let io = cs.instance_assignment();
        let mut p = base.clone();
        p.comm_rows.push(G1Projective::generator());
        assert!(!verifier.verify(io, &p));
        let mut p = base.clone();
        p.comm_rows.pop();
        assert!(!verifier.verify(io, &p));
        let mut p = base;
        p.comm_rows.clear();
        assert!(!verifier.verify(io, &p));
    }

    #[test]
    fn swapped_or_shifted_rows_are_rejected() {
        let (cs, verifier, base) = two_row_proof();
        let io = cs.instance_assignment();
        let mut p = base.clone();
        p.comm_rows.swap(0, 1);
        assert!(!verifier.verify(io, &p));
        for row in 0..base.comm_rows.len() {
            let mut p = base.clone();
            p.comm_rows[row] += G1Projective::generator();
            assert!(!verifier.verify(io, &p), "row {row} moved by G");
        }
    }

    fn random_point(len: usize, rng: &mut StdRng) -> Vec<Fr> {
        (0..len).map(|_| Fr::random(&mut *rng)).collect()
    }

    #[test]
    fn combined_row_commitment_is_the_commitment_of_the_combined_row() {
        let mut rng = StdRng::seed_from_u64(83);
        for log_n in [1usize, 3, 6, 12] {
            let rows = Rows::new(1 << log_n);
            let w = random_point(1 << log_n, &mut rng);
            let point = random_point(log_n, &mut rng);
            let (eq_row, eq_col) = rows.split_eq(&point);
            let eq = eq_evals(&point);
            for (i, e) in eq.iter().enumerate() {
                assert_eq!(*e, eq_row[i / eq_col.len()] * eq_col[i % eq_col.len()]);
            }
            let mut v = vec![Fr::zero(); eq_col.len()];
            for (i, x) in w.iter().enumerate() {
                v[i % eq_col.len()] += eq_row[i / eq_col.len()] * *x;
            }
            let comms = G1Projective::batch_to_affine(&rows.commit(&w));
            assert_eq!(msm(&comms, &eq_row), rows.gens.commit(&v), "n = 2^{log_n}");
        }
    }

    #[test]
    fn row_opening_round_trips_at_every_length() {
        let mut rng = StdRng::seed_from_u64(84);
        for log_n in 1..=13usize {
            let n = 1 << log_n;
            let rows = Rows::new(n);
            let expected = match log_n {
                1 | 2 => (1, n),
                11 => (8, 256),
                12 => (16, 256),
                _ => (1 << (log_n / 3), n >> (log_n / 3)),
            };
            assert_eq!((rows.count(), rows.gens.len()), expected, "n = {n}");
            let w = random_point(n, &mut rng);
            let point = random_point(log_n, &mut rng);
            let (eval, ipa) = rows.open(&mut Transcript::new(b"rows"), &w, &point);
            let direct: Fr = w.iter().zip(eq_evals(&point)).map(|(x, e)| *x * e).sum();
            assert_eq!(eval, direct, "n = {n}");
            let comms = G1Projective::batch_to_affine(&rows.commit(&w));
            let (eq_row, eq_col) = rows.split_eq(&point);
            let check = |eval: &Fr| {
                let mut t = Transcript::new(b"rows");
                rows.verify(&mut t, &comms, (&eq_row, &eq_col), eval, &ipa)
            };
            assert!(check(&eval), "n = {n}");
            assert!(!check(&(eval + Fr::one())), "n = {n}");
        }
    }

    #[test]
    fn a_proof_is_bound_to_its_shape() {
        // Shape B has A's counts and io but multiplies `x2 * x` the other
        // way round; shape C is A with another digest. Only the digest in
        // the transcript tells C from A.
        let cs_a = cubic_cs(3);
        let mut cs_b = ConstraintSystem::<Fr>::new();
        let out = cs_b.alloc_instance(cs_a.instance_assignment()[0]);
        let w = cs_a.witness_assignment();
        let (x, x2, x3) = (
            cs_b.alloc_witness(w[0]),
            cs_b.alloc_witness(w[1]),
            cs_b.alloc_witness(w[2]),
        );
        cs_b.enforce(x.into(), x.into(), x2.into());
        cs_b.enforce(x.into(), x2.into(), x3.into());
        cs_b.enforce(
            LinearCombination::from(x3)
                + LinearCombination::from(x)
                + LinearCombination::constant(Fr::from_u64(5)),
            LinearCombination::constant(Fr::one()),
            out.into(),
        );
        assert!(cs_b.is_satisfied());
        let shape_a = CompiledShape::from_cs(&cs_a);
        let shape_b = CompiledShape::from_cs(&cs_b);
        assert_eq!(
            (shape_b.num_instance(), shape_b.num_witness()),
            (shape_a.num_instance(), shape_a.num_witness())
        );
        assert_eq!(
            shape_b.matrices.num_constraints(),
            shape_a.matrices.num_constraints()
        );
        assert_ne!(shape_a.digest, shape_b.digest);
        let mut shape_c = shape_a.clone();
        shape_c.digest[0] ^= 1;

        let io = cs_a.instance_assignment();
        let proof = SpartanProver::preprocess_shape(&shape_a).prove_assignment(
            io,
            cs_a.witness_assignment(),
            &mut StdRng::seed_from_u64(85),
        );
        assert!(SpartanVerifier::preprocess_shape(&shape_a).verify(io, &proof));
        assert!(!SpartanVerifier::preprocess_shape(&shape_b).verify(io, &proof));
        assert!(!SpartanVerifier::preprocess_shape(&shape_c).verify(io, &proof));
    }
}
