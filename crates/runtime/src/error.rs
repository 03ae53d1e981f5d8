//! The typed error surface of the runtime and the `zkvc` CLI.
//!
//! Every CLI command path returns `Result<(), Error>`; `main` maps the
//! error to a process exit code via [`Error::exit_code`], so exit statuses
//! are data-driven rather than scattered `process::exit` calls:
//! verification-class failures exit `1`, usage/input errors exit `2`.

use core::fmt;
use std::io;
use std::path::PathBuf;

use zkvc_core::Backend;

/// Everything that can go wrong in the runtime's CLI-facing paths.
#[derive(Debug)]
pub enum Error {
    /// The command line was malformed: unknown flag, missing value,
    /// missing required argument.
    Usage(String),
    /// A job spec string failed to parse.
    Spec {
        /// The offending spec input.
        input: String,
        /// Why it was rejected.
        reason: String,
    },
    /// An I/O operation on a user-supplied path failed.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying I/O error.
        source: io::Error,
    },
    /// Proof envelope bytes could not be decoded.
    MalformedEnvelope,
    /// Bytes carried a format version newer than this build understands
    /// (proof envelope or shape encoding). The payload may be
    /// fine — the decoder is too old — so the message says *upgrade*,
    /// not *corrupt*.
    FutureVersion {
        /// What was being decoded ("proof envelope", "shape", ...).
        what: &'static str,
        /// The version the bytes carried.
        found: u8,
        /// The newest version this build decodes.
        supported: u8,
    },
    /// A shape payload failed structural validation while
    /// decoding (truncated, malformed CSR, digest mismatch, ...).
    Codec(String),
    /// The envelope was produced by a different backend than the spec
    /// demands.
    BackendMismatch {
        /// Backend recorded in the envelope.
        proof: Backend,
        /// Backend the spec expects.
        expected: Backend,
    },
    /// The proof's claimed public outputs differ from the statement being
    /// verified — a replayed or cross-statement proof.
    StatementMismatch,
    /// The proof failed cryptographic verification.
    VerificationFailed,
    /// A `zkvc serve` request line was malformed (bad JSON, wrong field
    /// type, unknown field). Answered in-stream with code 2; never fatal
    /// to the server.
    Request(String),
    /// A `zkvc serve` request line exceeded the configured size bound.
    /// Answered in-stream with code 2; never fatal to the server.
    RequestTooLarge {
        /// Bytes the offending line carried (the whole line is discarded).
        actual: usize,
        /// The configured bound.
        limit: usize,
    },
    /// The server refused the request because the pool is at its global
    /// admission bound. Answered in-stream with code 3 and a
    /// `retry_after_ms` hint; never fatal to the server, and never
    /// queued — a shed request was *not* accepted.
    Shed {
        /// How long the client should wait before retrying, in
        /// milliseconds.
        retry_after_ms: u64,
    },
    /// `zkvc client` gave up: every retry attempt failed (connect errors
    /// or persistent shedding). Maps to its own exit code so scripts can
    /// tell "the server was unavailable" from "a proof was bad".
    RetriesExhausted {
        /// Attempts made before giving up.
        attempts: usize,
        /// The last failure seen.
        last: String,
    },
    /// `zkvc analyze` found lint violations at or above its gate
    /// threshold. A soundness-class failure —
    /// the circuit is bad, not the invocation — so it exits `1` like a
    /// bad proof.
    AnalysisFailed {
        /// Findings at or above the threshold.
        findings: usize,
        /// The gate threshold's lowercase token (`warn`, `deny`, ...).
        threshold: String,
    },
}

impl Error {
    /// Builds a [`Error::Spec`] from an input string and a reason.
    pub fn spec(input: impl Into<String>, reason: impl fmt::Display) -> Self {
        Error::Spec {
            input: input.into(),
            reason: reason.to_string(),
        }
    }

    /// Builds a [`Error::Io`] from a path and an I/O error.
    pub fn io(path: impl Into<PathBuf>, source: io::Error) -> Self {
        Error::Io {
            path: path.into(),
            source,
        }
    }

    /// The process exit code this error maps to: `1` for
    /// verification-class failures (the proof is bad), `2` for
    /// usage/input errors (the invocation is bad), `3` for
    /// availability failures (the server shed the request, or the client
    /// exhausted its retries) — the same numbers double as the wire
    /// protocol's error `code`.
    pub fn exit_code(&self) -> u8 {
        match self {
            Error::VerificationFailed | Error::StatementMismatch | Error::AnalysisFailed { .. } => {
                1
            }
            Error::Usage(_)
            | Error::Spec { .. }
            | Error::Io { .. }
            | Error::MalformedEnvelope
            | Error::FutureVersion { .. }
            | Error::Codec(_)
            | Error::BackendMismatch { .. }
            | Error::Request(_)
            | Error::RequestTooLarge { .. } => 2,
            Error::Shed { .. } | Error::RetriesExhausted { .. } => 3,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Usage(message) => write!(f, "{message}"),
            Error::Spec { input, reason } => write!(f, "bad spec {input:?}: {reason}"),
            Error::Io { path, source } => write!(f, "{}: {source}", path.display()),
            Error::MalformedEnvelope => write!(f, "malformed proof envelope"),
            Error::FutureVersion {
                what,
                found,
                supported,
            } => write!(
                f,
                "{what} uses format version {found}, newer than the supported \
                 version {supported} — upgrade this binary to read it"
            ),
            Error::Codec(detail) => write!(f, "malformed payload: {detail}"),
            Error::BackendMismatch { proof, expected } => write!(
                f,
                "proof was produced by the {proof} backend, spec says {expected}"
            ),
            Error::StatementMismatch => {
                write!(f, "proof public outputs do not match the statement")
            }
            Error::VerificationFailed => write!(f, "proof verification failed"),
            Error::Request(reason) => write!(f, "bad request: {reason}"),
            Error::RequestTooLarge { actual, limit } => {
                write!(f, "request too large: {actual} bytes (limit {limit})")
            }
            Error::Shed { retry_after_ms } => {
                write!(
                    f,
                    "shed: server at its admission bound, retry after {retry_after_ms} ms"
                )
            }
            Error::RetriesExhausted { attempts, last } => {
                write!(f, "retries exhausted after {attempts} attempt(s): {last}")
            }
            Error::AnalysisFailed {
                findings,
                threshold,
            } => {
                write!(
                    f,
                    "analysis failed: {findings} finding(s) at or above `{threshold}` severity"
                )
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_data_driven() {
        assert_eq!(Error::VerificationFailed.exit_code(), 1);
        assert_eq!(Error::StatementMismatch.exit_code(), 1);
        assert_eq!(
            Error::AnalysisFailed {
                findings: 3,
                threshold: "warn".into()
            }
            .exit_code(),
            1
        );
        assert_eq!(Error::Usage("x".into()).exit_code(), 2);
        assert_eq!(Error::spec("1x2", "oops").exit_code(), 2);
        assert_eq!(Error::MalformedEnvelope.exit_code(), 2);
        assert_eq!(
            Error::FutureVersion {
                what: "proof envelope",
                found: 2,
                supported: 1
            }
            .exit_code(),
            2
        );
        assert_eq!(Error::Codec("truncated matrix A".into()).exit_code(), 2);
        assert_eq!(
            Error::BackendMismatch {
                proof: Backend::Groth16,
                expected: Backend::Spartan
            }
            .exit_code(),
            2
        );
        let io = Error::io("/nope", io::Error::new(io::ErrorKind::NotFound, "gone"));
        assert_eq!(io.exit_code(), 2);
        assert!(std::error::Error::source(&io).is_some());
        assert_eq!(Error::Request("bad json".into()).exit_code(), 2);
        assert_eq!(
            Error::RequestTooLarge {
                actual: 99,
                limit: 10
            }
            .exit_code(),
            2
        );
        assert_eq!(Error::Shed { retry_after_ms: 50 }.exit_code(), 3);
        assert_eq!(
            Error::RetriesExhausted {
                attempts: 4,
                last: "connection refused".into()
            }
            .exit_code(),
            3
        );
    }

    #[test]
    fn messages_name_the_offender() {
        let e = Error::spec("2x2x2:bogus", "unknown strategy \"bogus\"");
        assert!(e.to_string().contains("2x2x2:bogus"));
        let e = Error::BackendMismatch {
            proof: Backend::Groth16,
            expected: Backend::Spartan,
        };
        assert!(e.to_string().contains("groth16") && e.to_string().contains("spartan"));
        let e = Error::FutureVersion {
            what: "shape",
            found: 3,
            supported: 1,
        };
        let shown = e.to_string();
        assert!(shown.contains("shape") && shown.contains('3') && shown.contains('1'));
        let e = Error::Codec("matrix B row 4 columns are not strictly increasing".into());
        assert!(e.to_string().contains("matrix B"));
    }
}
