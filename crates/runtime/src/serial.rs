//! A self-describing wire envelope for proofs produced by either backend:
//! backend tag, public inputs, and the backend-specific proof material.
//!
//! Groth16 envelopes can travel in two forms: *self-contained* (the
//! verification key embedded, ~330 bytes of overhead, decodable-and-
//! verifiable with no other context — what `zkvc prove` writes to disk) or
//! *keyless* (proof + publics only — what the proving pool ships per job,
//! with the vk carried once per batch in the
//! [`BatchReport::key_table`](crate::BatchReport) instead of once per
//! proof). Keyed verification ([`ProofEnvelope::verify_with_key`]) never
//! trusts an embedded vk, so the keyless form loses nothing on that path.

use std::time::Duration;

use zkvc_core::backend::ProofData;
use zkvc_core::{Backend, ProofArtifacts, ProveMetrics, VerifierKey};
use zkvc_ff::codec::{decode_exact, ByteReader, DecodeError};
use zkvc_ff::{Fr, PrimeField};
use zkvc_groth16 as groth16;
use zkvc_spartan::SpartanProof;

use crate::codec::{ENVELOPE_FORMAT_VERSION, ENVELOPE_MAGIC as MAGIC, ENVELOPE_MAGIC_PREFIX};
use crate::error::Error;

/// Backend tags on the wire.
const TAG_GROTH16: u8 = 1;
const TAG_SPARTAN: u8 = 2;
const TAG_GROTH16_KEYLESS: u8 = 3;

/// The proof material carried by an envelope.
#[allow(clippy::large_enum_variant)] // heap-dominated either way
#[derive(Clone, Debug)]
pub enum EnvelopeProof {
    /// A Groth16 proof, optionally with its verification key embedded.
    Groth16 {
        /// The verification key, present only in self-contained envelopes.
        vk: Option<groth16::VerifyingKey>,
        /// The proof.
        proof: groth16::Proof,
    },
    /// A Spartan-style proof (the verifier re-derives its preprocessing
    /// from the circuit structure).
    Spartan {
        /// The proof.
        proof: Box<SpartanProof>,
    },
}

/// A decoded proof envelope: everything a verifier needs except the
/// verifier key material when the envelope is keyless (Groth16) or
/// structure-derived (Spartan).
#[derive(Clone, Debug)]
pub struct ProofEnvelope {
    /// Which backend produced the proof.
    pub backend: Backend,
    /// The public inputs the proof binds.
    pub public_inputs: Vec<Fr>,
    /// The proof (plus, for self-contained Groth16, its verification key).
    pub proof: EnvelopeProof,
}

impl ProofEnvelope {
    /// Wraps prover output for the wire, embedding the Groth16 vk
    /// (self-contained form).
    pub fn from_artifacts(artifacts: &ProofArtifacts) -> Self {
        let proof = match &artifacts.data {
            ProofData::Groth16 { vk, proof } => EnvelopeProof::Groth16 {
                vk: Some(vk.clone()),
                proof: proof.clone(),
            },
            ProofData::Spartan { proof } => EnvelopeProof::Spartan {
                proof: proof.clone(),
            },
        };
        ProofEnvelope {
            backend: artifacts.metrics.backend,
            public_inputs: artifacts.public_inputs.clone(),
            proof,
        }
    }

    /// Drops the embedded Groth16 verification key (~330 bytes per proof),
    /// for transports that carry the key out of band — the proving pool
    /// ships it once per batch. No-op for Spartan envelopes.
    pub fn without_vk(mut self) -> Self {
        if let EnvelopeProof::Groth16 { vk, .. } = &mut self.proof {
            *vk = None;
        }
        self
    }

    /// The embedded Groth16 verification key, if this is a self-contained
    /// Groth16 envelope.
    pub fn embedded_vk(&self) -> Option<&groth16::VerifyingKey> {
        match &self.proof {
            EnvelopeProof::Groth16 { vk, .. } => vk.as_ref(),
            EnvelopeProof::Spartan { .. } => None,
        }
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
            EnvelopeProof::Groth16 {
                vk: Some(vk),
                proof,
            } => {
                out.push(TAG_GROTH16);
                let vk_bytes = vk.to_bytes();
                out.extend_from_slice(&(vk_bytes.len() as u32).to_le_bytes());
                out.extend_from_slice(&vk_bytes);
                out.extend_from_slice(&proof.to_bytes());
            }
            EnvelopeProof::Groth16 { vk: None, proof } => {
                out.push(TAG_GROTH16_KEYLESS);
                out.extend_from_slice(&proof.to_bytes());
            }
            EnvelopeProof::Spartan { proof } => {
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
        let (backend, proof) = match r.u8("backend tag")? {
            TAG_GROTH16 => {
                let vk_len = r.u32("vk length")? as usize;
                let vk = decode_exact(r.take(vk_len, "vk")?, groth16::VerifyingKey::decode)?;
                let proof = groth16::Proof::decode(r)?;
                (
                    Backend::Groth16,
                    EnvelopeProof::Groth16 {
                        vk: Some(vk),
                        proof,
                    },
                )
            }
            TAG_GROTH16_KEYLESS => (
                Backend::Groth16,
                EnvelopeProof::Groth16 {
                    vk: None,
                    proof: groth16::Proof::decode(r)?,
                },
            ),
            TAG_SPARTAN => (
                Backend::Spartan,
                EnvelopeProof::Spartan {
                    proof: Box::new(SpartanProof::decode(r)?),
                },
            ),
            tag => {
                return Err(DecodeError::Malformed {
                    context: "backend tag",
                    detail: format!("unknown tag {tag}"),
                })
            }
        };
        Ok(ProofEnvelope {
            backend,
            public_inputs,
            proof,
        })
    }

    /// Verifies against a prepared verifier key (both backends), ignoring
    /// any key material embedded in the envelope itself — so keyless and
    /// self-contained envelopes verify identically here. Borrows the
    /// envelope: no copies on the per-job verify path.
    pub fn verify_with_key(&self, key: &VerifierKey) -> bool {
        match (&self.proof, key) {
            (EnvelopeProof::Groth16 { proof, .. }, VerifierKey::Groth16(vk)) => {
                groth16::verify(vk, &self.public_inputs, proof)
            }
            (EnvelopeProof::Spartan { proof }, VerifierKey::Spartan(verifier)) => {
                verifier.verify(&self.public_inputs, proof)
            }
            _ => false,
        }
    }

    /// Verifies against a compiled shape: Spartan preprocessing is
    /// re-derived from the CSR matrices, while the Groth16 arm trusts the
    /// envelope's embedded key (the shape does not enter the pairing check)
    /// and therefore rejects keyless envelopes — there is nothing to check
    /// them against. When the expected key material is known, prefer
    /// [`Self::verify_with_key`], which binds the proof to that key.
    pub fn verify_with_shape(&self, shape: &zkvc_r1cs::CompiledShape<Fr>) -> bool {
        match &self.proof {
            EnvelopeProof::Groth16 {
                vk: Some(vk),
                proof,
            } => groth16::verify(vk, &self.public_inputs, proof),
            EnvelopeProof::Groth16 { vk: None, .. } => false,
            EnvelopeProof::Spartan { proof } => {
                zkvc_spartan::SpartanVerifier::preprocess_shape(shape)
                    .verify(&self.public_inputs, proof)
            }
        }
    }

    /// Converts back into [`ProofArtifacts`] for the verification APIs.
    /// Returns `None` for keyless Groth16 envelopes (the artifact format
    /// requires the vk). Prover-side metrics do not cross the wire: the
    /// metrics field is zeroed except for backend and serialised size.
    pub fn into_artifacts(self) -> Option<ProofArtifacts> {
        let (data, proof_size_bytes) = match self.proof {
            EnvelopeProof::Groth16 {
                vk: Some(vk),
                proof,
            } => {
                let size = proof.size_in_bytes();
                (ProofData::Groth16 { vk, proof }, size)
            }
            EnvelopeProof::Groth16 { vk: None, .. } => return None,
            EnvelopeProof::Spartan { proof } => {
                let size = proof.size_in_bytes();
                (ProofData::Spartan { proof }, size)
            }
        };
        Some(ProofArtifacts {
            data,
            public_inputs: self.public_inputs,
            metrics: ProveMetrics {
                backend: self.backend,
                setup_time: Duration::ZERO,
                prove_time: Duration::ZERO,
                proof_size_bytes,
                num_constraints: 0,
                num_variables: 0,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::KeyCache;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use zkvc_core::api::{compile_shape, generate_witness_for};
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
        let shape = compile_shape(&job);
        for backend in Backend::ALL {
            let artifacts = backend.system().prove_oneshot(&job, &mut rng);
            let bytes = ProofEnvelope::from_artifacts(&artifacts).to_bytes();
            let envelope = ProofEnvelope::decode(&bytes).expect("round trip");
            assert_eq!(envelope.backend, backend);
            assert_eq!(envelope.public_inputs, artifacts.public_inputs);
            assert!(envelope.verify_with_shape(&shape), "{backend:?}");
            // Stable re-encoding.
            assert_eq!(envelope.to_bytes(), bytes);
        }
    }

    #[test]
    fn keyless_envelope_shrinks_and_verifies_with_key() {
        let mut rng = StdRng::seed_from_u64(9);
        let job = matmul(3, Strategy::Vanilla, &mut rng);
        let (keys, _) = KeyCache::new().get_or_setup_circuit(Backend::Groth16, &job);
        let witness = generate_witness_for(&job, &keys.shape);
        let artifacts =
            Backend::Groth16
                .system()
                .prove_assignment(&keys.prover, &witness, &mut rng);

        let full = ProofEnvelope::from_artifacts(&artifacts);
        let full_bytes = full.to_bytes();
        let keyless_bytes = full.clone().without_vk().to_bytes();
        let saved = full_bytes.len() - keyless_bytes.len();
        assert!(
            saved >= 300,
            "expected ~330B of vk dead weight, saved {saved}"
        );

        let decoded = ProofEnvelope::decode(&keyless_bytes).expect("keyless decodes");
        assert!(decoded.embedded_vk().is_none());
        // Keyed verification is unaffected by the missing vk...
        assert!(decoded.verify_with_key(&keys.verifier));
        // ...while the self-verifying paths are (correctly) unavailable.
        assert!(!decoded.verify_with_shape(&keys.shape));
        assert!(decoded.into_artifacts().is_none());
        // The self-contained form still round-trips through artifacts.
        assert!(full.into_artifacts().is_some());
        // Stable re-encoding of the keyless form.
        assert_eq!(
            ProofEnvelope::decode(&keyless_bytes).unwrap().to_bytes(),
            keyless_bytes
        );
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
        // A valid, internally consistent Groth16 envelope for circuit B must
        // not verify against the verifier key of circuit A: this is the
        // binding `zkvc verify` relies on.
        let mut rng = StdRng::seed_from_u64(7);
        let job_a = matmul(3, Strategy::Vanilla, &mut rng);
        let job_b = matmul(2, Strategy::Vanilla, &mut rng);
        let (keys_a, _) = KeyCache::new().get_or_setup_circuit(Backend::Groth16, &job_a);
        let forged = Backend::Groth16.system().prove_oneshot(&job_b, &mut rng);
        let envelope =
            ProofEnvelope::decode(&ProofEnvelope::from_artifacts(&forged).to_bytes()).unwrap();
        // Internally consistent (its own embedded vk accepts it)...
        assert!(envelope.verify_with_shape(&compile_shape(&job_b)));
        // ...but rejected by the key the statement actually demands.
        assert!(!envelope.verify_with_key(&keys_a.verifier));
    }

    #[test]
    fn decode_distinguishes_future_versions_from_garbage() {
        let mut rng = StdRng::seed_from_u64(11);
        let job = matmul(2, Strategy::Vanilla, &mut rng);
        let artifacts = Backend::Spartan.system().prove_oneshot(&job, &mut rng);
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
        let artifacts = Backend::Spartan.system().prove_oneshot(&job, &mut rng);
        let bytes = ProofEnvelope::from_artifacts(&artifacts).to_bytes();
        assert!(ProofEnvelope::decode(&bytes[..bytes.len() - 1]).is_err());
        assert!(ProofEnvelope::decode(b"NOTMAGIC").is_err());
        let mut wrong_tag = bytes;
        // magic(8) + count(4) + publics(0 here? job has no instance vars)
        let tag_pos = 8 + 4 + 32 * artifacts.public_inputs.len();
        wrong_tag[tag_pos] = 9;
        assert!(ProofEnvelope::decode(&wrong_tag).is_err());
        // A truncated keyless Groth16 envelope is rejected too.
        let g16 = Backend::Groth16.system().prove_oneshot(&job, &mut rng);
        let keyless = ProofEnvelope::from_artifacts(&g16).without_vk().to_bytes();
        assert!(ProofEnvelope::decode(&keyless[..keyless.len() - 1]).is_err());
    }
}
