//! The two ZKP backends used in the paper — Groth16 (`zkVC-G`) and the
//! Spartan-style transparent SNARK (`zkVC-S`) — and the one place that
//! chooses between them: the `Copy`, hashable [`Backend`] tag sets up and
//! proves, [`VerifierKey::verify`] verifies, and the key and proof types
//! both backends share sit beside them.
//!
//! Setup consumes a witness-free [`CompiledShape`] (and the returned keys
//! retain it); proving consumes only a statement's flat
//! [`WitnessAssignment`]. What is proved — the [`Circuit`] trait and its
//! two passes — lives in [`crate::api`].

use core::fmt;
use std::str::FromStr;
use std::sync::Arc;

use rand::RngCore;
use zkvc_ff::Fr;
use zkvc_groth16 as groth16;
use zkvc_r1cs::{CompiledShape, WitnessAssignment};
use zkvc_spartan::{SpartanProof, SpartanProver, SpartanVerifier};

use crate::api::{compile_shape, generate_witness_for, Circuit};

/// The proof system used underneath a zkVC circuit.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Groth16 over the pairing curve — constant proof size and
    /// verification, per-circuit trusted setup (`zkVC-G`).
    Groth16,
    /// The Spartan-style transparent SNARK — no trusted setup,
    /// logarithmic-size proofs (`zkVC-S`).
    Spartan,
}

impl Backend {
    /// Both backends, in the order used by the harnesses.
    pub const ALL: [Backend; 2] = [Backend::Groth16, Backend::Spartan];

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Groth16 => "groth16",
            Backend::Spartan => "spartan",
        }
    }

    /// Returns `self`: the tag is the proof system. A no-op kept only
    /// because the benchmark under `benchmark/` calls it; it goes with that
    /// package's next contract change.
    pub fn system(self) -> Backend {
        self
    }

    /// Runs the per-shape setup — CRS generation for Groth16, transparent
    /// preprocessing for Spartan — from a compiled shape. Witness-free by
    /// construction: a shape pass never materialises values, and this
    /// method only sees its output.
    ///
    /// Randomness arrives as `&mut dyn RngCore` so callers holding any rng
    /// share one non-generic entry point.
    pub fn setup_shape(
        self,
        shape: &Arc<CompiledShape<Fr>>,
        rng: &mut dyn RngCore,
    ) -> (ProverKey, VerifierKey) {
        match self {
            Backend::Groth16 => {
                let (pk, vk) = groth16::setup_shape(Arc::clone(shape), rng);
                (ProverKey::Groth16(pk), VerifierKey::Groth16(vk))
            }
            Backend::Spartan => {
                // Preprocess once; the verifier reuses the prover's
                // instance instead of re-deriving it from the shape.
                let prover = SpartanProver::preprocess_shape(shape);
                let verifier = prover.to_verifier();
                (ProverKey::Spartan(prover), VerifierKey::Spartan(verifier))
            }
        }
    }

    /// The verifier half of [`Backend::setup_shape`] from the same rng
    /// state: the key a verifier re-derives for itself. Groth16 skips the
    /// proving key's group work; Spartan runs its whole preprocessing.
    pub fn setup_verifier(
        self,
        shape: &Arc<CompiledShape<Fr>>,
        rng: &mut dyn RngCore,
    ) -> VerifierKey {
        match self {
            Backend::Groth16 => VerifierKey::Groth16(groth16::verifying_key_for_shape(shape, rng)),
            Backend::Spartan => self.setup_shape(shape, rng).1,
        }
    }

    /// Proves a statement given only its flat assignment, against a key
    /// prepared by [`Backend::setup_shape`] for the statement's shape.
    /// This is the prove-many hot path: no synthesis, no matrix
    /// extraction.
    ///
    /// # Panics
    /// Panics if the key belongs to the other backend or the assignment
    /// does not match the key's shape.
    pub fn prove_assignment(
        self,
        key: &ProverKey,
        witness: &WitnessAssignment<Fr>,
        rng: &mut dyn RngCore,
    ) -> ProofArtifacts {
        let data = match (self, key) {
            (Backend::Groth16, ProverKey::Groth16(pk)) => ProofData::Groth16 {
                proof: groth16::prove_assignment(pk, &witness.full(), rng),
            },
            (Backend::Spartan, ProverKey::Spartan(prover)) => ProofData::Spartan {
                proof: Box::new(prover.prove_assignment(&witness.instance, &witness.witness, rng)),
            },
            _ => panic!(
                "backend/key mismatch: {self:?} cannot prove with a {:?} key",
                key.backend()
            ),
        };
        ProofArtifacts {
            data,
            public_inputs: witness.instance.clone(),
        }
    }

    /// One-shot compile + setup + prove, for callers that prove a shape
    /// exactly once. The setup's verifier key comes back beside the proof,
    /// for [`VerifierKey::verify`].
    pub fn prove_oneshot(
        self,
        circuit: &dyn Circuit,
        rng: &mut dyn RngCore,
    ) -> (ProofArtifacts, VerifierKey) {
        let shape = Arc::new(compile_shape(circuit));
        let (pk, vk) = self.setup_shape(&shape, rng);
        let witness = generate_witness_for(circuit, &shape);
        (self.prove_assignment(&pk, &witness, rng), vk)
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when a [`Backend`] or
/// [`Strategy`](crate::matmul::Strategy) token fails to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownTokenError {
    /// What was being parsed ("backend", "strategy").
    pub what: &'static str,
    /// The offending input token.
    pub token: String,
}

impl fmt::Display for UnknownTokenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown {} {:?}", self.what, self.token)
    }
}

impl std::error::Error for UnknownTokenError {}

impl FromStr for Backend {
    type Err = UnknownTokenError;

    /// Parses a backend token as used in job specs: `groth16` (alias `g`)
    /// or `spartan` (alias `s`), case-insensitive.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "groth16" | "g" => Ok(Backend::Groth16),
            "spartan" | "s" => Ok(Backend::Spartan),
            _ => Err(UnknownTokenError {
                what: "backend",
                token: s.to_string(),
            }),
        }
    }
}

/// The proof itself, without key material: a verifier checks it against a
/// [`VerifierKey`] it obtained for the statement's shape, never against
/// anything the prover supplied.
// Three inline points against a boxed Spartan proof; boxing the Groth16
// proof would only add an allocation per proof.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum ProofData {
    /// A Groth16 proof.
    Groth16 {
        /// The proof.
        proof: groth16::Proof,
    },
    /// A Spartan-style proof.
    Spartan {
        /// The proof.
        proof: Box<SpartanProof>,
    },
}

impl ProofData {
    /// The backend that produced this proof.
    pub fn backend(&self) -> Backend {
        match self {
            ProofData::Groth16 { .. } => Backend::Groth16,
            ProofData::Spartan { .. } => Backend::Spartan,
        }
    }

    /// Serialised proof size in bytes.
    pub fn size_in_bytes(&self) -> usize {
        match self {
            ProofData::Groth16 { proof } => proof.size_in_bytes(),
            ProofData::Spartan { proof } => proof.size_in_bytes(),
        }
    }
}

/// The output of [`Backend::prove_assignment`]: the proof and the public
/// inputs it binds.
#[derive(Clone, Debug)]
pub struct ProofArtifacts {
    /// The proof.
    pub data: ProofData,
    /// The public inputs the proof commits to.
    pub public_inputs: Vec<Fr>,
}

/// Reusable prover-side key material for one circuit *shape*, produced by
/// [`Backend::setup_shape`]: the Groth16 CRS, or the Spartan preprocessed
/// instance. Computing this once and proving many statements against it is
/// what makes batch proving amortise (see `zkvc-runtime`'s `KeyCache`).
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum ProverKey {
    /// Groth16 proving key (circuit-specific CRS).
    Groth16(groth16::ProvingKey),
    /// Spartan preprocessed prover state (transparent, no trusted setup).
    Spartan(SpartanProver),
}

impl ProverKey {
    /// The backend this key belongs to.
    pub fn backend(&self) -> Backend {
        match self {
            ProverKey::Groth16(_) => Backend::Groth16,
            ProverKey::Spartan(_) => Backend::Spartan,
        }
    }
}

/// Reusable verifier-side key material for one circuit shape, produced by
/// [`Backend::setup_shape`] or [`Backend::setup_verifier`].
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum VerifierKey {
    /// Groth16 verification key.
    Groth16(groth16::VerifyingKey),
    /// Spartan preprocessed verifier state.
    Spartan(SpartanVerifier),
}

impl VerifierKey {
    /// The backend this key belongs to.
    pub fn backend(&self) -> Backend {
        match self {
            VerifierKey::Groth16(_) => Backend::Groth16,
            VerifierKey::Spartan(_) => Backend::Spartan,
        }
    }

    /// Verifies a proof of `public_inputs` under this key: the only
    /// verification material, since proofs carry none. Returns `false`
    /// (rather than panicking) when the proof comes from the other
    /// backend.
    pub fn verify(&self, public_inputs: &[Fr], proof: &ProofData) -> bool {
        match (self, proof) {
            (VerifierKey::Groth16(vk), ProofData::Groth16 { proof }) => {
                groth16::verify(vk, public_inputs, proof)
            }
            (VerifierKey::Spartan(verifier), ProofData::Spartan { proof }) => {
                verifier.verify(public_inputs, proof)
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_parses_and_displays() {
        for backend in Backend::ALL {
            assert_eq!(backend.to_string().parse::<Backend>(), Ok(backend));
        }
        assert_eq!("g".parse::<Backend>(), Ok(Backend::Groth16));
        assert_eq!("S".parse::<Backend>(), Ok(Backend::Spartan));
        let err = "nope".parse::<Backend>().unwrap_err();
        assert_eq!(err.what, "backend");
        assert!(err.to_string().contains("nope"));
    }
}
