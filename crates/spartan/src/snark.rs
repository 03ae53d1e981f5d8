//! The Spartan-style transparent SNARK for R1CS.
//!
//! See the crate-level docs for the protocol outline and the deviation from
//! the original Spartan construction.

use rand::Rng;
use zkvc_curve::G1Projective;
use zkvc_ff::poly::eq_evals;
use zkvc_ff::{Field, Fr, MultilinearPolynomial};
use zkvc_hash::Transcript;
use zkvc_r1cs::{CompiledShape, R1csMatrices, SparseMatrix};

use crate::ipa::{InnerProductProof, IpaGenerators};
use crate::sumcheck::{self, SumcheckProof};

const TRANSCRIPT_LABEL: &[u8] = b"zkvc-spartan-v1";

/// The shared, transparently-derived instance description: the remapped
/// R1CS matrices (witness columns moved to the upper half of the variable
/// space) and the commitment generators.
#[derive(Clone, Debug)]
struct Instance {
    a: SparseMatrix<Fr>,
    b: SparseMatrix<Fr>,
    c: SparseMatrix<Fr>,
    num_io: usize,
    num_witness: usize,
    /// Half the padded variable-space size; public part occupies
    /// `[0, n_half)`, witness occupies `[n_half, 2 n_half)`.
    n_half: usize,
    /// Padded constraint count.
    m_pad: usize,
    log_m: usize,
    log_cols: usize,
    ipa_gens: IpaGenerators,
}

impl Instance {
    /// Builds the remapped instance from CSR matrices. Column remapping is
    /// monotone (instance columns keep their index, witness columns shift
    /// up into the upper half), so the CSR rows stay sorted.
    fn from_matrices(m: &R1csMatrices<Fr>) -> Self {
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
            num_io,
            num_witness,
            n_half,
            m_pad,
            log_m,
            log_cols,
            ipa_gens: IpaGenerators::new(n_half, b"zkvc-spartan-witness"),
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

    fn start_transcript(&self, io: &[Fr]) -> Transcript {
        let mut t = Transcript::new(TRANSCRIPT_LABEL);
        t.append_u64(b"num constraints", self.a.num_rows as u64);
        t.append_u64(b"num io", self.num_io as u64);
        t.append_u64(b"num witness", self.num_witness as u64);
        t.append_fields(b"io", io);
        t
    }
}

/// A Spartan-style proof.
#[derive(Clone, Debug)]
pub struct SpartanProof {
    /// Commitment to the (padded) witness vector.
    pub comm_w: G1Projective,
    /// First (degree-3) sum-check proof.
    pub sc1: SumcheckProof,
    /// Claimed evaluations `(Az)(rx)`, `(Bz)(rx)`, `(Cz)(rx)`.
    pub claims: (Fr, Fr, Fr),
    /// Second (degree-2) sum-check proof.
    pub sc2: SumcheckProof,
    /// Claimed witness-MLE evaluation at `ry[..last]`.
    pub eval_w: Fr,
    /// Opening of the witness commitment at that point.
    pub ipa: InnerProductProof,
}

impl SpartanProof {
    /// Serialised proof size in bytes: one commitment point, the sum-check
    /// field elements, three claims, the witness evaluation and the IPA.
    pub fn size_in_bytes(&self) -> usize {
        65 + 32 * (self.sc1.num_field_elements() + self.sc2.num_field_elements() + 4)
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
            instance: std::sync::Arc::new(Instance::from_matrices(&shape.matrices)),
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

        let mut transcript = inst.start_transcript(&io);

        // 1. commit to the witness
        let comm_w = inst.ipa_gens.commit(&witness);
        transcript.append_point(b"comm_w", &comm_w.to_affine());

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
        let ry_w = &ry[..inst.log_cols - 1];
        let chi_ry_w = eq_evals(ry_w);
        let eval_w: Fr = witness
            .iter()
            .zip(chi_ry_w.iter())
            .map(|(w, c)| *w * *c)
            .sum();
        transcript.append_field(b"eval_w", &eval_w);
        let ipa = InnerProductProof::prove(&inst.ipa_gens, &mut transcript, &witness, &chi_ry_w);

        SpartanProof {
            comm_w,
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
            instance: std::sync::Arc::new(Instance::from_matrices(&shape.matrices)),
        }
    }

    /// Verifies a proof against the public inputs.
    pub fn verify(&self, io: &[Fr], proof: &SpartanProof) -> bool {
        let inst = &self.instance;
        if io.len() != inst.num_io {
            return false;
        }
        let mut transcript = inst.start_transcript(io);
        transcript.append_point(b"comm_w", &proof.comm_w.to_affine());

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

        // 4. evaluate the assignment MLE: public half directly, witness half
        //    from the claimed (and IPA-opened) evaluation.
        let ry_last = ry[inst.log_cols - 1];
        let ry_low = &ry[..inst.log_cols - 1];
        let mut pub_vec = vec![Fr::zero(); inst.n_half];
        pub_vec[0] = Fr::one();
        pub_vec[1..1 + io.len()].copy_from_slice(io);
        let chi_low = eq_evals(ry_low);
        let eval_pub: Fr = pub_vec
            .iter()
            .zip(chi_low.iter())
            .map(|(p, c)| *p * *c)
            .sum();
        let z_eval = (Fr::one() - ry_last) * eval_pub + ry_last * proof.eval_w;
        if sub2.expected_evaluation != m_eval * z_eval {
            return false;
        }

        // 5. check the witness opening
        transcript.append_field(b"eval_w", &proof.eval_w);
        proof.ipa.verify(
            &inst.ipa_gens,
            &mut transcript,
            &proof.comm_w,
            &chi_low,
            &proof.eval_w,
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
        p.comm_w += G1Projective::generator();
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

    #[test]
    fn larger_circuit_roundtrip() {
        // chain of multiplications: x_{i+1} = x_i * x_i, 20 steps
        let mut rng = StdRng::seed_from_u64(81);
        let mut cs = ConstraintSystem::<Fr>::new();
        let mut val = Fr::from_u64(3);
        let mut cur = cs.alloc_instance(val);
        for _ in 0..20 {
            let next_val = val * val;
            let next = cs.alloc_witness(next_val);
            cs.enforce(cur.into(), cur.into(), next.into());
            cur = next;
            val = next_val;
        }
        assert!(cs.is_satisfied());
        let (prover, verifier) = preprocess(&cs);
        let proof = prove(&prover, &cs, &mut rng);
        assert!(verifier.verify(cs.instance_assignment(), &proof));
    }
}
