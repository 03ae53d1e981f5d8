//! The runtime's shared byte/format codec layer: one home for every
//! versioned identifier the crate speaks, instead of magic strings
//! scattered per module.
//!
//! Three families live here:
//!
//! - **Binary formats** — the proof envelope magic (`ZKVCPRF` + a version
//!   digit) and the canonical [`CompiledShape`](zkvc_r1cs::CompiledShape)
//!   encoding (re-exported from `zkvc-r1cs`, where the structure lives).
//!   Their layouts, and the decoder they all share, are in
//!   [`zkvc_ff::codec`]. The envelope and the shape carry a version; the
//!   proofs and keys inside an envelope ride on the envelope's. Bytes from
//!   a *newer* version decode to a typed [`Error::FutureVersion`], never a
//!   parse panic, so a version mismatch fails loudly and diagnosably.
//! - **Line-protocol identifier** — the `proto` string of the serve
//!   dialect, checked on both ends of a connection.
//! - **Report schema** — the `schema` string stamped into `zkvc client
//!   --report` documents, so downstream tooling can dispatch on version.
//!
//! Version-bump protocol: a format change bumps exactly one constant
//! here, and decoders keep accepting every version they historically
//! wrote. Decoders never guess — an unknown version is an error, not a
//! best-effort parse.

use crate::error::Error;

pub use zkvc_ff::codec::DecodeError;
pub use zkvc_r1cs::{decode_shape, decode_shape_expecting, encode_shape, SHAPE_ENCODING_VERSION};

/// The proof-envelope magic: a fixed prefix plus one ASCII version digit.
pub(crate) const ENVELOPE_MAGIC_PREFIX: &[u8; 7] = b"ZKVCPRF";

/// The envelope format version this build reads and writes.
pub const ENVELOPE_FORMAT_VERSION: u8 = 1;

/// The full magic written at the head of every envelope this build
/// produces (`ZKVCPRF1`).
pub(crate) const ENVELOPE_MAGIC: &[u8; 8] = b"ZKVCPRF1";

/// The serve line-protocol identifier announced in every `ready` line.
pub const SERVE_PROTO: &str = "zkvc-serve/v1";

/// Schema string of `zkvc client --report` JSON documents.
pub const CLIENT_REPORT_SCHEMA: &str = "zkvc-client-report/v1";

impl From<DecodeError> for Error {
    /// Maps decode failures onto the runtime error surface: future
    /// versions keep their typed identity, everything else names the
    /// broken field.
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::FutureVersion {
                context,
                found,
                supported,
            } => Error::FutureVersion {
                what: context,
                found,
                supported,
            },
            other => Error::Codec(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProofEnvelope;

    #[test]
    fn envelope_magic_is_prefix_plus_version_digit() {
        let mut expected = ENVELOPE_MAGIC_PREFIX.to_vec();
        expected.push(b'0' + ENVELOPE_FORMAT_VERSION);
        assert_eq!(ENVELOPE_MAGIC.as_slice(), expected.as_slice());
    }

    #[test]
    fn envelope_version_probe_is_typed() {
        // A future version is a FutureVersion error, not "malformed".
        match ProofEnvelope::decode(b"ZKVCPRF2rest") {
            Err(Error::FutureVersion {
                what,
                found,
                supported,
            }) => {
                assert_eq!(what, "proof envelope");
                assert_eq!(found, 2);
                assert_eq!(supported, ENVELOPE_FORMAT_VERSION);
            }
            other => panic!("expected FutureVersion, got {other:?}"),
        }
        // Garbage, an older version and a bare prefix are malformed.
        for bytes in [&b"NOTMAGIC"[..], b"ZKVCPRFx", b"ZKVCPRF", b"ZKVCPRF0rest"] {
            assert!(matches!(
                ProofEnvelope::decode(bytes),
                Err(Error::MalformedEnvelope)
            ));
        }
    }

    #[test]
    fn shape_decode_errors_map_onto_runtime_errors() {
        let future = DecodeError::FutureVersion {
            context: "shape",
            found: 9,
            supported: SHAPE_ENCODING_VERSION,
        };
        match Error::from(future) {
            Error::FutureVersion { what, found, .. } => {
                assert_eq!(what, "shape");
                assert_eq!(found, 9);
            }
            other => panic!("expected FutureVersion, got {other:?}"),
        }
        let truncated = DecodeError::Truncated {
            context: "matrix A",
        };
        match Error::from(truncated) {
            Error::Codec(detail) => assert!(detail.contains("matrix A"), "{detail}"),
            other => panic!("expected Codec, got {other:?}"),
        }
    }
}
