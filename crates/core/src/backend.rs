//! The two ZKP backends used in the paper — Groth16 (`zkVC-G`) and the
//! Spartan-style transparent SNARK (`zkVC-S`) — as a `Copy`, hashable
//! [`Backend`] tag, plus the key, proof and metrics types both share.
//!
//! The proving logic itself lives in the [`crate::api`] module behind the
//! [`ProofSystem`] trait; [`Backend::system`] is the way from a tag to it.

use core::fmt;
use std::str::FromStr;
use std::time::Duration;

use zkvc_ff::Fr;
use zkvc_groth16 as groth16;
use zkvc_spartan::{SpartanProof, SpartanProver, SpartanVerifier};

use crate::api::{ProofSystem, GROTH16, SPARTAN};

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

    /// The [`ProofSystem`] implementation this tag dispatches to.
    pub fn system(&self) -> &'static dyn ProofSystem {
        match self {
            Backend::Groth16 => &GROTH16,
            Backend::Spartan => &SPARTAN,
        }
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

/// Timing and size measurements collected while producing a proof.
#[derive(Clone, Debug)]
pub struct ProveMetrics {
    /// Backend used.
    pub backend: Backend,
    /// Time spent in setup / preprocessing (CRS generation for Groth16,
    /// transparent preprocessing for Spartan).
    pub setup_time: Duration,
    /// Time spent producing the proof.
    pub prove_time: Duration,
    /// Serialised proof size in bytes.
    pub proof_size_bytes: usize,
    /// Number of R1CS constraints proved.
    pub num_constraints: usize,
    /// Number of R1CS variables.
    pub num_variables: usize,
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
}

/// The output of [`ProofSystem::prove_assignment`]: the proof, the public
/// inputs it binds, and the collected metrics.
#[derive(Clone, Debug)]
pub struct ProofArtifacts {
    /// The proof.
    pub data: ProofData,
    /// The public inputs the proof commits to.
    pub public_inputs: Vec<Fr>,
    /// Prover-side measurements.
    pub metrics: ProveMetrics,
}

/// Reusable prover-side key material for one circuit *shape*, produced by
/// [`ProofSystem::setup_shape`]: the Groth16 CRS, or the Spartan preprocessed
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
/// [`ProofSystem::setup_shape`].
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
