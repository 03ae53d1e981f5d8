//! Canonical byte serialisation for Spartan proofs, so `zkVC-S` proofs can
//! cross process boundaries (the `zkvc` CLI, the batch-proving service, or
//! any wire protocol).
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! SpartanProof := comm_w:point
//!               | sumcheck(sc1) | claims:3*fr | sumcheck(sc2) | eval_w:fr
//!               | ipa_rounds:u32 | L:point*rounds | R:point*rounds | a_final:fr
//! sumcheck     := rounds:u32 | (len:u32 | fr*len)*rounds
//! point        := 65 bytes (uncompressed affine, validated on decode)
//! fr           := 32 bytes (canonical little-endian, validated on decode)
//! ```
//!
//! Decoding validates every group element against the curve equation and
//! every scalar against the field modulus, and rejects trailing bytes, so a
//! tampered encoding either fails to decode or decodes to a proof that the
//! verifier rejects via Fiat-Shamir.

use zkvc_curve::G1Affine;
use zkvc_ff::{Fr, PrimeField};

use crate::ipa::InnerProductProof;
use crate::snark::SpartanProof;
use crate::sumcheck::SumcheckProof;

/// Incremental reader with validation; all methods return `None` on
/// malformed input.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let out = self.bytes.get(self.pos..self.pos + n)?;
        self.pos += n;
        Some(out)
    }

    fn u32(&mut self) -> Option<u32> {
        let b: [u8; 4] = self.take(4)?.try_into().ok()?;
        Some(u32::from_le_bytes(b))
    }

    fn fr(&mut self) -> Option<Fr> {
        let b: [u8; 32] = self.take(32)?.try_into().ok()?;
        Fr::from_bytes_le(&b)
    }

    fn point(&mut self) -> Option<G1Affine> {
        let b: [u8; 65] = self.take(65)?.try_into().ok()?;
        G1Affine::from_bytes(&b)
    }

    fn finished(&self) -> bool {
        self.pos == self.bytes.len()
    }

    /// Reads a `u32` count and rejects it unless the remaining buffer can
    /// hold `count * min_item_size` bytes — so a malicious length prefix
    /// can never force a large up-front allocation.
    fn bounded_count(&mut self, min_item_size: usize) -> Option<usize> {
        let count = self.u32()? as usize;
        let remaining = self.bytes.len().saturating_sub(self.pos);
        if count > remaining / min_item_size {
            return None;
        }
        Some(count)
    }
}

fn write_fr(out: &mut Vec<u8>, v: &Fr) {
    out.extend_from_slice(&v.to_bytes_le());
}

impl SumcheckProof {
    /// Serialises the round polynomials.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            4 + self
                .round_polys
                .iter()
                .map(|r| 4 + 32 * r.len())
                .sum::<usize>(),
        );
        out.extend_from_slice(&(self.round_polys.len() as u32).to_le_bytes());
        for round in &self.round_polys {
            out.extend_from_slice(&(round.len() as u32).to_le_bytes());
            for v in round {
                write_fr(&mut out, v);
            }
        }
        out
    }

    fn read(r: &mut Reader<'_>) -> Option<Self> {
        // Each round needs at least its 4-byte length prefix; each round
        // element is a 32-byte scalar.
        let rounds = r.bounded_count(4)?;
        let mut round_polys = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let len = r.bounded_count(32)?;
            let mut round = Vec::with_capacity(len);
            for _ in 0..len {
                round.push(r.fr()?);
            }
            round_polys.push(round);
        }
        Some(SumcheckProof { round_polys })
    }

    /// Deserialises a sum-check proof, validating every scalar.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        let proof = Self::read(&mut r)?;
        r.finished().then_some(proof)
    }
}

impl InnerProductProof {
    /// Serialises the folding cross-terms and final scalar.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + 65 * (self.l_vec.len() + self.r_vec.len()) + 32);
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

    fn read(r: &mut Reader<'_>) -> Option<Self> {
        // Each round carries an L and an R point (2 * 65 bytes).
        let rounds = r.bounded_count(2 * 65)?;
        let mut l_vec = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            l_vec.push(r.point()?);
        }
        let mut r_vec = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            r_vec.push(r.point()?);
        }
        let a_final = r.fr()?;
        Some(InnerProductProof {
            l_vec,
            r_vec,
            a_final,
        })
    }

    /// Deserialises an inner-product proof, validating every point and
    /// scalar.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        let proof = Self::read(&mut r)?;
        r.finished().then_some(proof)
    }
}

impl SpartanProof {
    /// Canonical byte serialisation of the whole proof.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.comm_w.to_affine().to_bytes());
        out.extend_from_slice(&self.sc1.to_bytes());
        write_fr(&mut out, &self.claims.0);
        write_fr(&mut out, &self.claims.1);
        write_fr(&mut out, &self.claims.2);
        out.extend_from_slice(&self.sc2.to_bytes());
        write_fr(&mut out, &self.eval_w);
        out.extend_from_slice(&self.ipa.to_bytes());
        out
    }

    /// Deserialises a proof written by [`Self::to_bytes`], validating every
    /// group element and field element and rejecting trailing bytes.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        let comm_w = r.point()?.to_projective();
        let sc1 = SumcheckProof::read(&mut r)?;
        let claims = (r.fr()?, r.fr()?, r.fr()?);
        let sc2 = SumcheckProof::read(&mut r)?;
        let eval_w = r.fr()?;
        let ipa = InnerProductProof::read(&mut r)?;
        if !r.finished() {
            return None;
        }
        Some(SpartanProof {
            comm_w,
            sc1,
            claims,
            sc2,
            eval_w,
            ipa,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SpartanProver, SpartanVerifier};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use zkvc_ff::Field;
    use zkvc_r1cs::{CompiledShape, ConstraintSystem, LinearCombination};

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
        let back = SpartanProof::from_bytes(&bytes).expect("round trip");
        assert_eq!(back.comm_w, proof.comm_w);
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
    fn truncated_and_padded_encodings_rejected() {
        let (_cs, proof) = proof_fixture();
        let bytes = proof.to_bytes();
        assert!(SpartanProof::from_bytes(&bytes[..bytes.len() - 1]).is_none());
        assert!(SpartanProof::from_bytes(&[]).is_none());
        let mut padded = bytes;
        padded.push(0);
        assert!(SpartanProof::from_bytes(&padded).is_none());
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
            match SpartanProof::from_bytes(&tampered) {
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
        assert!(SumcheckProof::from_bytes(&bytes).is_none());
        // Same header as an IPA proof (each claimed round needs 130 bytes).
        assert!(InnerProductProof::from_bytes(&bytes).is_none());
        // And embedded mid-proof: a valid point followed by a huge count.
        let (_cs, proof) = proof_fixture();
        let mut embedded = proof.comm_w.to_affine().to_bytes().to_vec();
        embedded.extend_from_slice(&(1u32 << 20).to_le_bytes());
        assert!(SpartanProof::from_bytes(&embedded).is_none());
    }

    #[test]
    fn sumcheck_and_ipa_roundtrip_standalone() {
        let (_cs, proof) = proof_fixture();
        let sc = SumcheckProof::from_bytes(&proof.sc1.to_bytes()).unwrap();
        assert_eq!(sc, proof.sc1);
        let ipa = InnerProductProof::from_bytes(&proof.ipa.to_bytes()).unwrap();
        assert_eq!(ipa, proof.ipa);
        // Mismatched L/R length prefix is caught.
        let mut bytes = proof.ipa.to_bytes();
        bytes[0] = bytes[0].wrapping_add(1);
        assert!(InnerProductProof::from_bytes(&bytes).is_none());
    }
}
