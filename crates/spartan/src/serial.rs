//! Canonical byte serialisation for Spartan proofs, so `zkVC-S` proofs can
//! cross process boundaries (the `zkvc` CLI, the batch-proving service, or
//! any wire protocol). The layout is in [`zkvc_ff::codec`].
//!
//! Decoding validates every group element against the curve equation and
//! every scalar against the field modulus, so a tampered encoding either
//! fails to decode or decodes to a proof that the verifier rejects via
//! Fiat-Shamir. A proof starts with [`SPARTAN_PROOF_VERSION`]; any other
//! leading byte fails closed with a typed error before the body is read.

use zkvc_curve::{G1Affine, G1Projective};
use zkvc_ff::codec::{ByteReader, DecodeError};
use zkvc_ff::{Fr, PrimeField};

use crate::ipa::InnerProductProof;
use crate::snark::SpartanProof;
use crate::sumcheck::SumcheckProof;

/// The version byte at the head of every encoded [`SpartanProof`]. The
/// unversioned layout before it, one witness commitment opened by a
/// linear-size IPA, counts as version 1.
pub const SPARTAN_PROOF_VERSION: u8 = 2;

fn write_fr(out: &mut Vec<u8>, v: &Fr) {
    out.extend_from_slice(&v.to_bytes_le());
}

impl SumcheckProof {
    /// Size of [`Self::to_bytes`] in bytes.
    pub fn size_in_bytes(&self) -> usize {
        4 + self
            .round_polys
            .iter()
            .map(|r| 4 + 32 * r.len())
            .sum::<usize>()
    }

    /// Serialises the round polynomials.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.size_in_bytes());
        out.extend_from_slice(&(self.round_polys.len() as u32).to_le_bytes());
        for round in &self.round_polys {
            out.extend_from_slice(&(round.len() as u32).to_le_bytes());
            for v in round {
                write_fr(&mut out, v);
            }
        }
        out
    }

    /// Reads the round polynomials, validating every scalar.
    pub(crate) fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        // Each round needs at least its 4-byte length prefix.
        let rounds = r.count_u32(4, "sum-check rounds")?;
        let round_polys = r.items(rounds, |r| {
            let len = r.count_u32(32, "sum-check round")?;
            r.items(len, |r| r.field("sum-check coefficient"))
        })?;
        Ok(SumcheckProof { round_polys })
    }
}

impl InnerProductProof {
    /// Serialises the folding cross-terms and final scalar.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.size_in_bytes());
        out.extend_from_slice(&(self.l_vec.len() as u32).to_le_bytes());
        for p in &self.l_vec {
            out.extend_from_slice(&p.to_bytes());
        }
        for p in &self.r_vec {
            out.extend_from_slice(&p.to_bytes());
        }
        write_fr(&mut out, &self.a_final);
        out
    }

    /// Reads the folding cross-terms and final scalar, validating every
    /// point and scalar.
    pub(crate) fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        // Each round carries an L and an R point.
        let rounds = r.count_u32(2 * 65, "IPA rounds")?;
        Ok(InnerProductProof {
            l_vec: r.items(rounds, G1Affine::decode)?,
            r_vec: r.items(rounds, G1Affine::decode)?,
            a_final: r.field("IPA final scalar")?,
        })
    }
}

impl SpartanProof {
    /// Canonical byte serialisation of the whole proof.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.size_in_bytes());
        out.push(SPARTAN_PROOF_VERSION);
        out.extend_from_slice(&(self.comm_rows.len() as u32).to_le_bytes());
        for row in G1Projective::batch_to_affine(&self.comm_rows) {
            out.extend_from_slice(&row.to_bytes());
        }
        out.extend_from_slice(&self.sc1.to_bytes());
        write_fr(&mut out, &self.claims.0);
        write_fr(&mut out, &self.claims.1);
        write_fr(&mut out, &self.claims.2);
        out.extend_from_slice(&self.sc2.to_bytes());
        write_fr(&mut out, &self.eval_w);
        out.extend_from_slice(&self.ipa.to_bytes());
        out
    }

    /// Reads a proof written by [`Self::to_bytes`], validating every group
    /// element and field element. A newer version byte is
    /// [`DecodeError::FutureVersion`], an older one a `Malformed` "Spartan
    /// proof version", as for the shape.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let version = r.u8("Spartan proof version")?;
        if version > SPARTAN_PROOF_VERSION {
            return Err(DecodeError::FutureVersion {
                context: "Spartan proof",
                found: version,
                supported: SPARTAN_PROOF_VERSION,
            });
        }
        if version != SPARTAN_PROOF_VERSION {
            return Err(DecodeError::Malformed {
                context: "Spartan proof version",
                detail: format!(
                    "stale version {version} (this build reads version {SPARTAN_PROOF_VERSION})"
                ),
            });
        }
        let rows = r.count_u32(65, "Spartan row commitments")?;
        Ok(SpartanProof {
            comm_rows: r.items(rows, |r| Ok(G1Affine::decode(r)?.to_projective()))?,
            sc1: SumcheckProof::decode(r)?,
            claims: (
                r.field("Spartan claim")?,
                r.field("Spartan claim")?,
                r.field("Spartan claim")?,
            ),
            sc2: SumcheckProof::decode(r)?,
            eval_w: r.field("Spartan eval_w")?,
            ipa: InnerProductProof::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SpartanProver, SpartanVerifier};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use zkvc_ff::codec::decode_exact;
    use zkvc_ff::Field;
    use zkvc_r1cs::{CompiledShape, ConstraintSystem, LinearCombination};

    fn decode(bytes: &[u8]) -> Option<SpartanProof> {
        decode_exact(bytes, SpartanProof::decode).ok()
    }

    fn proof_fixture() -> (ConstraintSystem<Fr>, SpartanProof) {
        let x_val = 5u64;
        let out_val = x_val * x_val * x_val + 7;
        let mut cs = ConstraintSystem::<Fr>::new();
        let out = cs.alloc_instance(Fr::from_u64(out_val));
        let x = cs.alloc_witness(Fr::from_u64(x_val));
        let x2 = cs.alloc_witness(Fr::from_u64(x_val * x_val));
        let x3 = cs.alloc_witness(Fr::from_u64(x_val * x_val * x_val));
        cs.enforce(x.into(), x.into(), x2.into());
        cs.enforce(x2.into(), x.into(), x3.into());
        cs.enforce(
            LinearCombination::from(x3) + LinearCombination::constant(Fr::from_u64(7)),
            LinearCombination::constant(Fr::one()),
            out.into(),
        );
        let mut rng = StdRng::seed_from_u64(0x5EB1A1);
        let proof = SpartanProver::preprocess_shape(&CompiledShape::from_cs(&cs)).prove_assignment(
            cs.instance_assignment(),
            cs.witness_assignment(),
            &mut rng,
        );
        (cs, proof)
    }

    #[test]
    fn roundtrip_preserves_proof_and_verifies() {
        let (cs, proof) = proof_fixture();
        let bytes = proof.to_bytes();
        let back = decode(&bytes).expect("round trip");
        assert_eq!(back.comm_rows, proof.comm_rows);
        assert_eq!(back.sc1, proof.sc1);
        assert_eq!(back.claims, proof.claims);
        assert_eq!(back.sc2, proof.sc2);
        assert_eq!(back.eval_w, proof.eval_w);
        assert_eq!(back.ipa, proof.ipa);
        let verifier = SpartanVerifier::preprocess_shape(&CompiledShape::from_cs(&cs));
        assert!(verifier.verify(cs.instance_assignment(), &back));
        // Serialisation is stable.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn size_in_bytes_is_the_encoded_length() {
        let (_cs, proof) = proof_fixture();
        assert_eq!(proof.to_bytes().len(), proof.size_in_bytes());
        assert_eq!(proof.sc1.to_bytes().len(), proof.sc1.size_in_bytes());
        assert_eq!(proof.ipa.to_bytes().len(), proof.ipa.size_in_bytes());
    }

    #[test]
    fn other_versions_fail_closed_with_typed_errors() {
        let (_cs, proof) = proof_fixture();
        let mut bytes = proof.to_bytes();
        assert_eq!(bytes[0], SPARTAN_PROOF_VERSION);
        bytes[0] = SPARTAN_PROOF_VERSION + 1;
        assert!(matches!(
            decode_exact(&bytes, SpartanProof::decode),
            Err(DecodeError::FutureVersion {
                context: "Spartan proof",
                found: 3,
                supported: SPARTAN_PROOF_VERSION,
            })
        ));
        for stale in [0, 1] {
            bytes[0] = stale;
            assert!(matches!(
                decode_exact(&bytes, SpartanProof::decode),
                Err(DecodeError::Malformed {
                    context: "Spartan proof version",
                    ..
                })
            ));
        }
    }

    #[test]
    fn truncated_and_padded_encodings_rejected() {
        let (_cs, proof) = proof_fixture();
        let bytes = proof.to_bytes();
        assert!(decode(&bytes[..bytes.len() - 1]).is_none());
        assert!(decode(&[]).is_none());
        let mut padded = bytes;
        padded.push(0);
        assert!(decode(&padded).is_none());
    }

    #[test]
    fn bit_flipped_proof_bytes_fail_verification() {
        let (cs, proof) = proof_fixture();
        let verifier = SpartanVerifier::preprocess_shape(&CompiledShape::from_cs(&cs));
        let bytes = proof.to_bytes();
        // Walk a deterministic sample of byte positions (every 13th, plus
        // both ends): each flip must fail to decode or fail to verify.
        let positions: Vec<usize> = (0..bytes.len())
            .step_by(13)
            .chain([bytes.len() - 1])
            .collect();
        for pos in positions {
            let mut tampered = bytes.clone();
            tampered[pos] ^= 1;
            match decode(&tampered) {
                None => {} // rejected by point/scalar validation
                Some(p) => assert!(
                    !verifier.verify(cs.instance_assignment(), &p),
                    "flipped byte {pos} still verified"
                ),
            }
        }
    }

    #[test]
    fn huge_length_prefixes_rejected_without_allocation() {
        // rounds = 2^20 in an 8-byte sumcheck encoding.
        let mut bytes = (1u32 << 20).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 4]);
        assert!(decode_exact(&bytes, SumcheckProof::decode).is_err());
        // Same header as an IPA proof (each claimed round needs 130 bytes).
        assert!(decode_exact(&bytes, InnerProductProof::decode).is_err());
        // And embedded mid-proof: the row commitments followed by a huge
        // count, and a huge row count.
        let (_cs, proof) = proof_fixture();
        let rows = 5 + 65 * proof.comm_rows.len();
        let mut embedded = proof.to_bytes()[..rows].to_vec();
        embedded.extend_from_slice(&(1u32 << 20).to_le_bytes());
        assert!(decode(&embedded).is_none());
        embedded[1..5].copy_from_slice(&(1u32 << 20).to_le_bytes());
        assert!(decode(&embedded).is_none());
    }

    #[test]
    fn sumcheck_and_ipa_roundtrip_standalone() {
        let (_cs, proof) = proof_fixture();
        let sc = decode_exact(&proof.sc1.to_bytes(), SumcheckProof::decode).unwrap();
        assert_eq!(sc, proof.sc1);
        let ipa = decode_exact(&proof.ipa.to_bytes(), InnerProductProof::decode).unwrap();
        assert_eq!(ipa, proof.ipa);
        // Mismatched L/R length prefix is caught.
        let mut bytes = proof.ipa.to_bytes();
        bytes[0] = bytes[0].wrapping_add(1);
        assert!(decode_exact(&bytes, InnerProductProof::decode).is_err());
    }
}
