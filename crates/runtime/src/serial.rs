//! A self-describing wire envelope for proofs produced by either backend:
//! public inputs, backend tag and proof.
//!
//! An envelope carries no key material. A verifier checks it against a
//! key derived from the spec and seed: the
//! [`StatementVerifier`](crate::StatementVerifier) that `zkvc verify` and
//! `zkvc client` use, or the pool's self-check with its cached key. The
//! Groth16 keys a server announces (serve `key` lines, the
//! [`BatchReport::key_table`](crate::BatchReport)) are the prover's word
//! for what it proves, like a key riding inside every envelope would be,
//! and no verifier in this crate reads them. Such a key is large besides:
//! at 1 568 publics the Groth16 vk is ≈ 102 KB against a 195-byte proof.

use zkvc_core::backend::ProofData;
use zkvc_core::{Backend, ProofArtifacts, VerifierKey};
use zkvc_ff::codec::{decode_exact, ByteReader, DecodeError};
use zkvc_ff::{Fr, PrimeField};
use zkvc_groth16 as groth16;
use zkvc_spartan::SpartanProof;

use crate::codec::{ENVELOPE_FORMAT_VERSION, ENVELOPE_MAGIC as MAGIC, ENVELOPE_MAGIC_PREFIX};
use crate::error::Error;

/// Backend tags on the wire. Tag 1, a Groth16 envelope with its vk
/// embedded, is retired: it decodes as an unknown tag and must not be
/// reused.
const TAG_SPARTAN: u8 = 2;
const TAG_GROTH16_PROOF: u8 = 3;

/// A decoded proof envelope: the public inputs and the proof that binds
/// them. The verifier supplies the key.
#[derive(Clone, Debug)]
pub struct ProofEnvelope {
    /// The public inputs the proof binds.
    pub public_inputs: Vec<Fr>,
    /// The proof; its variant names the backend.
    pub proof: ProofData,
}

impl ProofEnvelope {
    /// Wraps prover output for the wire.
    pub fn from_artifacts(artifacts: &ProofArtifacts) -> Self {
        ProofEnvelope {
            public_inputs: artifacts.public_inputs.clone(),
            proof: artifacts.data.clone(),
        }
    }

    /// Returns the envelope unchanged: envelopes carry no verifying key.
    /// A no-op kept only because the benchmark under `benchmark/` calls
    /// it; it goes with that package's next contract change.
    pub fn without_vk(self) -> Self {
        self
    }

    /// Which backend produced the proof.
    pub fn backend(&self) -> Backend {
        self.proof.backend()
    }

    /// Serialises the envelope.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(self.public_inputs.len() as u32).to_le_bytes());
        for v in &self.public_inputs {
            out.extend_from_slice(&v.to_bytes_le());
        }
        match &self.proof {
            ProofData::Groth16 { proof } => {
                out.push(TAG_GROTH16_PROOF);
                out.extend_from_slice(&proof.to_bytes());
            }
            ProofData::Spartan { proof } => {
                out.push(TAG_SPARTAN);
                out.extend_from_slice(&proof.to_bytes());
            }
        }
        out
    }

    /// Parses an envelope, validating every field element and group
    /// element, with a typed error surface: future-versioned bytes (a
    /// `ZKVCPRF` magic with a newer version digit) are reported as
    /// [`Error::FutureVersion`] — the payload may be fine, the decoder is
    /// too old — while everything else malformed is
    /// [`Error::MalformedEnvelope`].
    pub fn decode(bytes: &[u8]) -> Result<Self, Error> {
        decode_exact(bytes, Self::read).map_err(|e| match e {
            DecodeError::FutureVersion { .. } => e.into(),
            _ => Error::MalformedEnvelope,
        })
    }

    fn read(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let magic: [u8; 8] = r.array("envelope magic")?;
        let version = magic[7].wrapping_sub(b'0');
        if magic[..7] == ENVELOPE_MAGIC_PREFIX[..]
            && magic[7].is_ascii_digit()
            && version > ENVELOPE_FORMAT_VERSION
        {
            return Err(DecodeError::FutureVersion {
                context: "proof envelope",
                found: version,
                supported: ENVELOPE_FORMAT_VERSION,
            });
        }
        if magic != *MAGIC {
            return Err(DecodeError::Malformed {
                context: "envelope magic",
                detail: "not a ZKVCPRF1 envelope".into(),
            });
        }
        let count = r.count_u32(32, "public input count")?;
        let public_inputs = r.items(count, |r| r.field("public input"))?;
        let proof = match r.u8("backend tag")? {
            TAG_GROTH16_PROOF => ProofData::Groth16 {
                proof: groth16::Proof::decode(r)?,
            },
            TAG_SPARTAN => ProofData::Spartan {
                proof: Box::new(SpartanProof::decode(r)?),
            },
            tag => {
                return Err(DecodeError::Malformed {
                    context: "backend tag",
                    detail: format!("unknown tag {tag}"),
                })
            }
        };
        Ok(ProofEnvelope {
            public_inputs,
            proof,
        })
    }

    /// Verifies against a prepared verifier key through
    /// [`VerifierKey::verify`]; `false` on a backend mismatch. Borrows the
    /// envelope: no copies on the per-job verify path.
    pub fn verify_with_key(&self, key: &VerifierKey) -> bool {
        key.verify(&self.public_inputs, &self.proof)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::KeyCache;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use zkvc_core::api::generate_witness_for;
    use zkvc_core::matmul::{MatMulBuilder, MatMulCircuit, Strategy};

    fn matmul(n: usize, strategy: Strategy, rng: &mut StdRng) -> MatMulCircuit {
        MatMulBuilder::new(2, n, 2)
            .strategy(strategy)
            .build_circuit_random(rng)
    }

    #[test]
    fn envelope_roundtrip_both_backends() {
        let mut rng = StdRng::seed_from_u64(5);
        let job = matmul(3, Strategy::CrpcPsq, &mut rng);
        for backend in Backend::ALL {
            let (artifacts, vk) = backend.prove_oneshot(&job, &mut rng);
            let bytes = ProofEnvelope::from_artifacts(&artifacts).to_bytes();
            let envelope = ProofEnvelope::decode(&bytes).expect("round trip");
            assert_eq!(envelope.backend(), backend);
            assert_eq!(envelope.public_inputs, artifacts.public_inputs);
            assert!(envelope.verify_with_key(&vk), "{backend:?}");
            // Stable re-encoding.
            assert_eq!(envelope.to_bytes(), bytes);
        }
    }

    #[test]
    fn groth16_envelope_is_publics_tag_and_proof() {
        let mut rng = StdRng::seed_from_u64(9);
        let job = MatMulBuilder::new(2, 3, 2)
            .strategy(Strategy::CrpcPsq)
            .build_circuit_random(&mut rng);
        let (keys, _) = KeyCache::new().get_or_setup_circuit(Backend::Groth16, &job);
        let witness = generate_witness_for(&job, &keys.shape);
        let artifacts = Backend::Groth16.prove_assignment(&keys.prover, &witness, &mut rng);
        let publics = artifacts.public_inputs.len();
        assert!(publics > 0);

        let bytes = ProofEnvelope::from_artifacts(&artifacts).to_bytes();
        // magic + count + publics + tag + three uncompressed points.
        assert_eq!(bytes.len(), 8 + 4 + 32 * publics + 1 + 195);
        assert_eq!(bytes[8 + 4 + 32 * publics], TAG_GROTH16_PROOF);
        let decoded = ProofEnvelope::decode(&bytes).expect("decodes");
        assert!(decoded.verify_with_key(&keys.verifier));
        assert_eq!(decoded.to_bytes(), bytes);
    }

    #[test]
    fn huge_public_input_count_rejected_without_allocation() {
        // magic + count claiming ~16M field elements in a 13-byte file.
        let mut bytes = b"ZKVCPRF1".to_vec();
        bytes.extend_from_slice(&0x00FF_FFFFu32.to_le_bytes());
        bytes.push(0);
        assert!(ProofEnvelope::decode(&bytes).is_err());
    }

    #[test]
    fn envelope_from_unrelated_circuit_fails_against_expected_keys() {
        // A valid Groth16 envelope for circuit B must not verify against
        // the verifier key of circuit A: this is the binding `zkvc verify`
        // relies on.
        let mut rng = StdRng::seed_from_u64(7);
        let job_a = matmul(3, Strategy::Vanilla, &mut rng);
        let job_b = matmul(2, Strategy::Vanilla, &mut rng);
        let (keys_a, _) = KeyCache::new().get_or_setup_circuit(Backend::Groth16, &job_a);
        let (forged, vk_b) = Backend::Groth16.prove_oneshot(&job_b, &mut rng);
        let envelope =
            ProofEnvelope::decode(&ProofEnvelope::from_artifacts(&forged).to_bytes()).unwrap();
        // A real proof (circuit B's key accepts it)...
        assert!(envelope.verify_with_key(&vk_b));
        // ...but rejected by the key the statement actually demands.
        assert!(!envelope.verify_with_key(&keys_a.verifier));
    }

    #[test]
    fn decode_distinguishes_future_versions_from_garbage() {
        let mut rng = StdRng::seed_from_u64(11);
        let job = matmul(2, Strategy::Vanilla, &mut rng);
        let (artifacts, _) = Backend::Spartan.prove_oneshot(&job, &mut rng);
        let bytes = ProofEnvelope::from_artifacts(&artifacts).to_bytes();
        assert!(ProofEnvelope::decode(&bytes).is_ok());
        // Same payload stamped with a future version digit: typed error.
        let mut future = bytes.clone();
        future[7] = b'2';
        assert!(matches!(
            ProofEnvelope::decode(&future),
            Err(Error::FutureVersion { found: 2, .. })
        ));
        // Garbage stays "malformed", truncation too.
        assert!(matches!(
            ProofEnvelope::decode(b"NOTMAGIC"),
            Err(Error::MalformedEnvelope)
        ));
        assert!(matches!(
            ProofEnvelope::decode(&bytes[..bytes.len() - 1]),
            Err(Error::MalformedEnvelope)
        ));
    }

    #[test]
    fn malformed_envelopes_rejected() {
        let mut rng = StdRng::seed_from_u64(6);
        let job = matmul(2, Strategy::Vanilla, &mut rng);
        let (artifacts, _) = Backend::Spartan.prove_oneshot(&job, &mut rng);
        let bytes = ProofEnvelope::from_artifacts(&artifacts).to_bytes();
        assert!(ProofEnvelope::decode(&bytes[..bytes.len() - 1]).is_err());
        assert!(ProofEnvelope::decode(b"NOTMAGIC").is_err());
        let mut wrong_tag = bytes;
        // magic(8) + count(4) + publics(0 here? job has no instance vars)
        let tag_pos = 8 + 4 + 32 * artifacts.public_inputs.len();
        wrong_tag[tag_pos] = 9;
        assert!(ProofEnvelope::decode(&wrong_tag).is_err());
        // A truncated Groth16 envelope is rejected, and so is one stamped
        // with the retired tag 1.
        let (g16, _) = Backend::Groth16.prove_oneshot(&job, &mut rng);
        let g16 = ProofEnvelope::from_artifacts(&g16).to_bytes();
        assert!(ProofEnvelope::decode(&g16[..g16.len() - 1]).is_err());
        let mut retired = g16;
        retired[tag_pos] = 1;
        assert!(matches!(
            ProofEnvelope::decode(&retired),
            Err(Error::MalformedEnvelope)
        ));
    }
}
