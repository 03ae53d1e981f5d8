//! Key material: the circuit-specific CRS (proving key + verifying key) and
//! the proof object.
//!
//! [`setup_shape`] makes both keys. It samples the toxic waste, builds the
//! QAP domain once (it is kept in the [`ProvingKey`] for the prover),
//! evaluates every QAP polynomial at `tau`, and turns the resulting scalar
//! batches — `a_query`, `b_query`, `h_query`, `l_query`, `gamma_abc_g1` and
//! the four singleton points — into group elements with
//! [`zkvc_curve::fixed_base_mul`] over the process-wide generator table:
//! about 31 batch-affine additions per element instead of a 246-bit
//! double-and-add, with the points born affine. The keys are byte for byte
//! those of the naive `g * s` (pinned in `tests/key_bytes_pinned.rs`; the
//! naive form survives only as this module's test oracle).
//!
//! [`verifying_key_for_shape`] makes the verifying key alone from the same
//! rng state: the same toxic-waste draw and QAP evaluation, but only the
//! `gamma_abc_g1` batch and the singletons go through the group. Its key is
//! byte-equal to [`setup_shape`]'s (pinned in `tests/vk_only_oracle.rs`).

use std::sync::Arc;

use rand::Rng;
use zkvc_curve::{fixed_base_mul, pairing, G1Affine, Gt};
use zkvc_ff::codec::{decode_exact, ByteReader, DecodeError};
use zkvc_ff::{Field, Fr};
use zkvc_qap::{evaluate_qap_at_point_in, QapEvaluations};
use zkvc_r1cs::CompiledShape;

/// A Groth16 proof: three group elements, independent of circuit size.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Proof {
    /// `[A]_1`.
    pub a: G1Affine,
    /// `[B]_2` (same group as G1 for the Type-1 pairing).
    pub b: G1Affine,
    /// `[C]_1`.
    pub c: G1Affine,
}

impl Proof {
    /// Serialised proof size in bytes (uncompressed points).
    pub fn size_in_bytes(&self) -> usize {
        3 * 65
    }

    /// Serialises the proof.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.size_in_bytes());
        out.extend_from_slice(&self.a.to_bytes());
        out.extend_from_slice(&self.b.to_bytes());
        out.extend_from_slice(&self.c.to_bytes());
        out
    }

    /// Reads a proof, validating that all points are on the curve.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(Proof {
            a: G1Affine::decode(r)?,
            b: G1Affine::decode(r)?,
            c: G1Affine::decode(r)?,
        })
    }
}

/// The verification key: enough to check proofs for one circuit.
#[derive(Clone, Debug)]
pub struct VerifyingKey {
    /// `[alpha]_1`.
    pub alpha_g1: G1Affine,
    /// `[beta]_2`.
    pub beta_g2: G1Affine,
    /// `[gamma]_2`.
    pub gamma_g2: G1Affine,
    /// `[delta]_2`.
    pub delta_g2: G1Affine,
    /// `[(beta A_i(tau) + alpha B_i(tau) + C_i(tau)) / gamma]_1` for the
    /// constant-one wire and every instance variable.
    pub gamma_abc_g1: Vec<G1Affine>,
    /// Cached `e(alpha, beta)` used by every verification.
    pub alpha_beta_gt: Gt,
}

impl VerifyingKey {
    /// Serialised size in bytes (used for the paper's proof-size/verifier
    /// cost accounting).
    pub fn size_in_bytes(&self) -> usize {
        (4 + self.gamma_abc_g1.len()) * 65 + 64
    }

    /// Canonical byte serialisation (layout in [`zkvc_ff::codec`]). The
    /// cached pairing `e(alpha, beta)` is *not* stored; [`Self::decode`]
    /// recomputes it, so a deserialised key cannot carry an inconsistent
    /// cache.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity((4 + self.gamma_abc_g1.len()) * 65 + 4);
        out.extend_from_slice(&self.alpha_g1.to_bytes());
        out.extend_from_slice(&self.beta_g2.to_bytes());
        out.extend_from_slice(&self.gamma_g2.to_bytes());
        out.extend_from_slice(&self.delta_g2.to_bytes());
        out.extend_from_slice(&(self.gamma_abc_g1.len() as u32).to_le_bytes());
        for p in &self.gamma_abc_g1 {
            out.extend_from_slice(&p.to_bytes());
        }
        out
    }

    /// Reads a key written by [`Self::to_bytes`], validating that every
    /// point is on the curve and recomputing the cached pairing.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let alpha_g1 = G1Affine::decode(r)?;
        let beta_g2 = G1Affine::decode(r)?;
        let gamma_g2 = G1Affine::decode(r)?;
        let delta_g2 = G1Affine::decode(r)?;
        let count = r.count_u32(65, "gamma_abc count")?;
        let gamma_abc_g1 = r.items(count, G1Affine::decode)?;
        Ok(VerifyingKey {
            alpha_g1,
            beta_g2,
            gamma_g2,
            delta_g2,
            gamma_abc_g1,
            alpha_beta_gt: pairing(&alpha_g1, &beta_g2),
        })
    }

    /// [`Self::decode`] over exactly `bytes`; `None` on any malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        decode_exact(bytes, Self::decode).ok()
    }
}

/// The proving key (CRS): everything the prover needs.
#[derive(Clone, Debug)]
pub struct ProvingKey {
    /// The verification key (the prover embeds it in proofs' metadata).
    pub vk: VerifyingKey,
    /// The compiled circuit shape (CSR matrices) the CRS was generated
    /// for. Proving consumes it directly, so a statement only supplies its
    /// flat witness assignment — no per-proof constraint synthesis or
    /// matrix extraction.
    pub shape: Arc<CompiledShape<Fr>>,
    /// The QAP quotient domain (with its precomputed twiddle tables), built
    /// once at setup so repeated proofs against this key skip the per-proof
    /// domain construction.
    pub h_domain: zkvc_ff::EvaluationDomain<Fr>,
    /// `[beta]_1`.
    pub beta_g1: G1Affine,
    /// `[delta]_1`.
    pub delta_g1: G1Affine,
    /// `[A_i(tau)]_1` for every variable.
    pub a_query: Vec<G1Affine>,
    /// `[B_i(tau)]_1` for every variable: equal to `b_g2_query` (`G2 = G1`)
    /// and no longer read by the prover; kept until the benchmark that
    /// names the field can be edited.
    pub b_g1_query: Vec<G1Affine>,
    /// `[B_i(tau)]_2` for every variable.
    pub b_g2_query: Vec<G1Affine>,
    /// `[tau^i Z(tau) / delta]_1` for `i = 0..d-1`.
    pub h_query: Vec<G1Affine>,
    /// `[(beta A_i + alpha B_i + C_i) / delta]_1` for witness variables.
    pub l_query: Vec<G1Affine>,
    /// Number of instance variables (excluding the constant one).
    pub num_instance: usize,
}

impl ProvingKey {
    /// Total number of group elements in the CRS (a proxy for CRS size).
    pub fn num_elements(&self) -> usize {
        self.a_query.len()
            + self.b_g1_query.len()
            + self.b_g2_query.len()
            + self.h_query.len()
            + self.l_query.len()
            + self.vk.gamma_abc_g1.len()
            + 6
    }
}

/// The toxic waste, drawn from the setup rng in one fixed order: `tau`,
/// `alpha`, `beta`, then `gamma` and `delta` (each redrawn while zero).
/// [`setup_shape`] and [`verifying_key_for_shape`] both draw through here,
/// so the two cannot disagree on which scalar is which.
struct ToxicWaste {
    tau: Fr,
    alpha: Fr,
    beta: Fr,
    gamma: Fr,
    delta: Fr,
}

impl ToxicWaste {
    fn draw<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let nonzero = |rng: &mut R| loop {
            let s = Fr::random(rng);
            if !s.is_zero() {
                break s;
            }
        };
        let tau = Fr::random(rng);
        let alpha = Fr::random(rng);
        let beta = Fr::random(rng);
        let gamma = nonzero(rng);
        let delta = nonzero(rng);
        ToxicWaste {
            tau,
            alpha,
            beta,
            gamma,
            delta,
        }
    }

    /// `beta A_i(tau) + alpha B_i(tau) + C_i(tau)` for variable `i`.
    fn combined(&self, qap: &QapEvaluations<Fr>, i: usize) -> Fr {
        self.beta * qap.a[i] + self.alpha * qap.b[i] + qap.c[i]
    }

    /// The verifying key: the `num_instance + 1` `gamma_abc` points, the
    /// four singletons and the one pairing.
    fn verifying_key(&self, qap: &QapEvaluations<Fr>, num_instance: usize) -> VerifyingKey {
        let gamma_inv = self.gamma.inverse().expect("gamma != 0");
        let gamma_abc_s: Vec<Fr> = (0..=num_instance)
            .map(|i| self.combined(qap, i) * gamma_inv)
            .collect();
        let gamma_abc_g1 = in_g1(&gamma_abc_s);
        let [alpha_g1, beta_g2, gamma_g2, delta_g2] =
            in_g1(&[self.alpha, self.beta, self.gamma, self.delta])[..]
        else {
            unreachable!("one point per scalar");
        };
        VerifyingKey {
            alpha_g1,
            beta_g2,
            gamma_g2,
            delta_g2,
            gamma_abc_g1,
            alpha_beta_gt: pairing(&alpha_g1, &beta_g2),
        }
    }
}

/// Every key element is a multiple of the one generator: scalar batches go
/// through its fixed-base table and come back affine.
fn in_g1(scalars: &[Fr]) -> Vec<G1Affine> {
    fixed_base_mul(G1Affine::generator_table(), scalars)
}

/// Runs the circuit-specific trusted setup against a compiled shape,
/// producing a proving key and a verification key. This is the witness-free
/// entry point: nothing here ever sees an assignment, only the CSR
/// constraint matrices. Group-side cost is one [`fixed_base_mul`] pass per
/// query over the shared generator table (see the module docs).
pub fn setup_shape<R: Rng + ?Sized>(
    shape: Arc<CompiledShape<Fr>>,
    rng: &mut R,
) -> (ProvingKey, VerifyingKey) {
    let matrices = &shape.matrices;
    let toxic = ToxicWaste::draw(rng);
    let delta_inv = toxic.delta.inverse().expect("delta != 0");

    let h_domain = zkvc_qap::qap_domain::<Fr>(matrices.num_constraints())
        .expect("constraint count exceeds the field's FFT capacity");
    let qap = evaluate_qap_at_point_in(&h_domain, matrices, &toxic.tau);
    let num_instance = matrices.num_instance;
    let vk = toxic.verifying_key(&qap, num_instance);

    let l_query_s: Vec<Fr> = (num_instance + 1..matrices.num_variables())
        .map(|i| toxic.combined(&qap, i) * delta_inv)
        .collect();

    // h_query scalars: tau^i * Z(tau) / delta for i in 0..d-1
    let d = qap.domain_size;
    let zt_over_delta = qap.zt * delta_inv;
    let mut h_query_s = Vec::with_capacity(d - 1);
    let mut tau_pow = Fr::one();
    for _ in 0..d - 1 {
        h_query_s.push(tau_pow * zt_over_delta);
        tau_pow *= toxic.tau;
    }

    let a_query = in_g1(&qap.a);
    let b_query = in_g1(&qap.b);
    let h_query = in_g1(&h_query_s);
    let l_query = in_g1(&l_query_s);

    let pk = ProvingKey {
        vk: vk.clone(),
        shape,
        h_domain,
        beta_g1: vk.beta_g2,
        delta_g1: vk.delta_g2,
        a_query,
        b_g1_query: b_query.clone(),
        b_g2_query: b_query,
        h_query,
        l_query,
        num_instance,
    };

    (pk, vk)
}

/// The verifying key [`setup_shape`] would return for the same shape and
/// rng state, without the proving key: the same toxic waste and QAP
/// evaluation, but group work only for the `num_instance + 1` `gamma_abc`
/// points and the four singletons. A verifier that knows the setup seed
/// re-derives its key with this instead of trusting a stored one.
pub fn verifying_key_for_shape<R: Rng + ?Sized>(
    shape: &CompiledShape<Fr>,
    rng: &mut R,
) -> VerifyingKey {
    let toxic = ToxicWaste::draw(rng);
    let qap = zkvc_qap::evaluate_qap_at_point(&shape.matrices, &toxic.tau);
    toxic.verifying_key(&qap, shape.matrices.num_instance)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{prove, setup, verify_three_pairings};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use zkvc_ff::PrimeField;
    use zkvc_r1cs::{ConstraintSystem, LinearCombination};

    fn square_circuit() -> ConstraintSystem<Fr> {
        let mut cs = ConstraintSystem::<Fr>::new();
        let out = cs.alloc_instance(Fr::from_u64(49));
        let x = cs.alloc_witness(Fr::from_u64(7));
        cs.enforce(x.into(), x.into(), out.into());
        cs
    }

    fn decode_proof(bytes: &[u8]) -> Option<Proof> {
        decode_exact(bytes, Proof::decode).ok()
    }

    #[test]
    fn known_break_6_trapdoor_from_the_setup_seed_forges_a_false_claim() {
        // KNOWN BREAK, docs/SOUNDNESS.md "Below the circuits" item 6. Setup
        // runs from a seeded rng, so whoever knows the seed redraws the
        // toxic waste and runs the simulator: for any a, b and public
        // input x,
        //   A = a·G, B = b·G,
        //   C = (a·b − α·β − Σ_i x_i·(β·u_i(τ) + α·v_i(τ) + w_i(τ))) / δ
        // satisfies the verification equation with no witness at all.
        // The runtime's `known_break_6_*` test aims this at a served key.
        //
        // The circuit pins `out` to 1 (`1 · 1 = out`), so `out = 2` is
        // false for every witness.
        let mut cs = ConstraintSystem::<Fr>::new();
        let out = cs.alloc_instance(Fr::one());
        let x = cs.alloc_witness(Fr::one());
        cs.enforce(x.into(), x.into(), out.into());
        let one = LinearCombination::constant(Fr::one());
        cs.enforce(one.clone(), one, out.into());
        assert!(cs.is_satisfied());

        const SEED: u64 = 0x5eed;
        let (pk, vk) = setup(&cs, &mut StdRng::seed_from_u64(SEED));
        let toxic = ToxicWaste::draw(&mut StdRng::seed_from_u64(SEED));
        let qap = zkvc_qap::evaluate_qap_at_point(&pk.shape.matrices, &toxic.tau);

        let claim = [Fr::from_u64(2)];
        let mut rng = StdRng::seed_from_u64(SEED + 1);
        let (a, b) = (Fr::random(&mut rng), Fr::random(&mut rng));
        let inputs = [Fr::one()]
            .iter()
            .chain(&claim)
            .enumerate()
            .fold(Fr::zero(), |acc, (i, x)| acc + *x * toxic.combined(&qap, i));
        let c = (a * b - toxic.alpha * toxic.beta - inputs) * toxic.delta.inverse().unwrap();
        let g = zkvc_curve::G1Projective::generator();
        let forged = Proof {
            a: (g * a).to_affine(),
            b: (g * b).to_affine(),
            c: (g * c).to_affine(),
        };
        assert!(
            crate::verify(&vk, &claim, &forged),
            "the trapdoor forgery is rejected: item 6's known break is fixed, flip this test"
        );
        assert!(verify_three_pairings(&vk, &claim, &forged));
        // The forgery is made for its claim: it fails for the true `out = 1`.
        assert!(!crate::verify(&vk, &[Fr::one()], &forged));
    }

    #[test]
    fn setup_shapes() {
        let cs = square_circuit();
        let mut rng = StdRng::seed_from_u64(3);
        let (pk, vk) = setup(&cs, &mut rng);
        assert_eq!(pk.a_query.len(), cs.num_variables());
        assert_eq!(pk.b_g2_query.len(), cs.num_variables());
        assert_eq!(vk.gamma_abc_g1.len(), cs.num_instance() + 1);
        assert_eq!(pk.l_query.len(), cs.num_witness());
        assert!(pk.num_elements() > 0);
        assert!(vk.size_in_bytes() > 0);
    }

    #[test]
    fn setup_points_are_the_naive_generator_multiples() {
        // The oracle the fixed-base kernel replaced: replay the toxic waste
        // from the same seed and multiply the generator out by
        // double-and-add.
        let cs = square_circuit();
        let (pk, vk) = setup(&cs, &mut StdRng::seed_from_u64(6));
        let mut rng = StdRng::seed_from_u64(6);
        let [tau, alpha, beta, gamma, delta] = [(); 5].map(|()| Fr::random(&mut rng));
        let g = zkvc_curve::G1Projective::generator();
        assert_eq!(vk.alpha_g1, (g * alpha).to_affine());
        assert_eq!(vk.beta_g2, (g * beta).to_affine());
        assert_eq!(vk.gamma_g2, (g * gamma).to_affine());
        assert_eq!(vk.delta_g2, (g * delta).to_affine());
        assert_eq!(pk.beta_g1, vk.beta_g2);
        assert_eq!(pk.delta_g1, vk.delta_g2);
        // h_query[i] = tau^i * Z(tau) / delta over the size-2 domain.
        let zt_over_delta = (tau.square() - Fr::one()) * delta.inverse().unwrap();
        assert_eq!(pk.h_query, [(g * zt_over_delta).to_affine()]);
        // x is witness variable 2 with A_2 = B_2 = L_0(tau) = (1 + tau) / 2.
        let l0 = (Fr::one() + tau) * Fr::from_u64(2).inverse().unwrap();
        assert_eq!(pk.a_query[2], (g * l0).to_affine());
        assert_eq!(pk.b_g1_query, pk.b_g2_query);
    }

    #[test]
    fn proof_serialization_roundtrip() {
        let g = G1Affine::generator();
        let p = Proof { a: g, b: g, c: g };
        let bytes = p.to_bytes();
        assert_eq!(bytes.len(), p.size_in_bytes());
        assert_eq!(decode_proof(&bytes).unwrap(), p);
        assert!(decode_proof(&bytes[..100]).is_none());
        let mut corrupted = bytes;
        corrupted[1] ^= 0xff;
        assert!(decode_proof(&corrupted).is_none());
    }

    #[test]
    fn verifying_key_serialization_roundtrip() {
        let cs = square_circuit();
        let mut rng = StdRng::seed_from_u64(4);
        let (_pk, vk) = setup(&cs, &mut rng);
        let bytes = vk.to_bytes();
        let back = VerifyingKey::from_bytes(&bytes).expect("round trip");
        assert_eq!(back.alpha_g1, vk.alpha_g1);
        assert_eq!(back.beta_g2, vk.beta_g2);
        assert_eq!(back.gamma_g2, vk.gamma_g2);
        assert_eq!(back.delta_g2, vk.delta_g2);
        assert_eq!(back.gamma_abc_g1, vk.gamma_abc_g1);
        // The pairing cache must be recomputed, not trusted from the wire.
        assert_eq!(back.alpha_beta_gt, vk.alpha_beta_gt);
        // Truncated and padded inputs are rejected.
        assert!(VerifyingKey::from_bytes(&bytes[..bytes.len() - 1]).is_none());
        let mut padded = bytes;
        padded.push(0);
        assert!(VerifyingKey::from_bytes(&padded).is_none());
    }

    #[test]
    fn deserialized_key_verifies_real_proof_and_flips_fail() {
        // End-to-end: proof + vk cross a byte boundary, then every
        // single-bit flip of the proof is either rejected at decode time or
        // fails verification.
        let cs = square_circuit();
        let mut rng = StdRng::seed_from_u64(5);
        let (pk, vk) = setup(&cs, &mut rng);
        let proof = prove(&pk, &cs, &mut rng);

        let vk2 = VerifyingKey::from_bytes(&vk.to_bytes()).unwrap();
        let proof_bytes = proof.to_bytes();
        let proof2 = decode_proof(&proof_bytes).unwrap();
        assert!(crate::verify(&vk2, cs.instance_assignment(), &proof2));
        assert!(verify_three_pairings(
            &vk2,
            cs.instance_assignment(),
            &proof2
        ));

        for byte_idx in 0..proof_bytes.len() {
            let mut tampered = proof_bytes.clone();
            tampered[byte_idx] ^= 1;
            match decode_proof(&tampered) {
                None => {} // rejected by curve-membership validation
                Some(p) => {
                    assert!(
                        !crate::verify(&vk2, cs.instance_assignment(), &p),
                        "flipped byte {byte_idx} still verified"
                    );
                    assert!(!verify_three_pairings(&vk2, cs.instance_assignment(), &p));
                }
            }
        }
    }
}
