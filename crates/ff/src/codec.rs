//! The one decoder for untrusted bytes: [`ByteReader`], its typed
//! [`DecodeError`], and the layouts of every binary format the workspace
//! reads.
//!
//! Every decoder is a `decode(&mut ByteReader) -> Result<Self, DecodeError>`
//! over three shared pieces:
//! - one field reader, [`ByteReader::field`] (32 canonical bytes);
//! - one point reader, `zkvc_curve::G1Affine::decode`;
//! - one bounded count, [`ByteReader::count_u32`] / [`ByteReader::count_u64`]:
//!   a length prefix is refused unless the bytes left can hold that many
//!   items of the given minimum size, and [`ByteReader::items`] is the only
//!   place a decoder sizes an allocation, so no prefix can reserve memory
//!   the input does not back.
//!
//! [`decode_exact`] runs one decoder over a whole byte string and rejects
//! trailing bytes. Every decoder is strict in the same way: no trailing
//! bytes, no non-canonical field elements, no off-curve points.
//!
//! # Layouts
//!
//! All integers are little-endian. Shared primitives:
//!
//! ```text
//! fr, fq := 32 bytes, canonical (value < modulus)
//! point  := x:fq y:fq flag:u8              -- 65 bytes, uncompressed affine
//! ```
//!
//! A point with flag 1 is the identity; any other flag reads as a finite
//! point. The curve equation is checked, subgroup membership is not.
//!
//! **Compiled shape** (`zkvc_r1cs::encode_shape`):
//!
//! ```text
//! shape   := version:u8 num_instance:u64 num_witness:u64 digest:[u8; 32]
//!            matrix(A) matrix(B) matrix(C)
//!            list(expected_boolean) list(provided_boolean)
//! matrix  := num_rows:u64 num_cols:u64 list(row_ptr) list(col_idx) fields(vals)
//! list    := len:u64 entry:u64*len
//! fields  := len:u64 fr*len
//! ```
//!
//! **Spartan proof** (`zkvc_spartan::SpartanProof`):
//!
//! ```text
//! spartan  := version:u8 rows:u32 comm_row:point*rows
//!             sumcheck(sc1) claims:fr*3 sumcheck(sc2) eval_w:fr ipa
//! sumcheck := rounds:u32 (len:u32 fr*len)*rounds
//! ipa      := rounds:u32 L:point*rounds R:point*rounds a_final:fr
//! ```
//!
//! `comm_row` is one commitment per row of the witness matrix; the
//! verifier rejects any `rows` other than the one its shape fixes. The
//! IPA opens the combined row, so its `rounds` is `log2` of the row
//! length.
//!
//! **Groth16 proof and verifying key** (`zkvc_groth16`):
//!
//! ```text
//! proof := a:point b:point c:point
//! vk    := alpha_g1:point beta_g2:point gamma_g2:point delta_g2:point
//!          count:u32 gamma_abc_g1:point*count
//! ```
//!
//! The vk's cached `e(alpha, beta)` is not stored; decoding recomputes it.
//!
//! **Proof envelope** (`zkvc_runtime::ProofEnvelope`):
//!
//! ```text
//! envelope := "ZKVCPRF" version:ascii-digit count:u32 public:fr*count tag:u8 body
//! body     := spartan                 (tag 2)
//!           | proof                   (tag 3: Groth16)
//! ```
//!
//! An envelope carries no verifying key. Tag 1 once meant a Groth16
//! envelope with its vk embedded; it is retired, decodes as an unknown
//! tag, and must not be reused.
//!
//! # Versions
//!
//! Three formats carry their own version: the shape (its leading byte,
//! `zkvc_r1cs::SHAPE_ENCODING_VERSION`), the Spartan proof (its leading
//! byte, `zkvc_spartan::SPARTAN_PROOF_VERSION`; the unversioned layout
//! before it counts as 1) and the envelope (the digit after its magic,
//! `zkvc_runtime::codec::ENVELOPE_FORMAT_VERSION`). A newer version
//! decodes to [`DecodeError::FutureVersion`]; an older shape or Spartan
//! version is `Malformed`, naming the version field. Unversioned Spartan
//! bytes start with a point coordinate, so they fail as either. The
//! Groth16 proof
//! and the vk carry none: inside an envelope they ride on its version,
//! and a bare vk (a serve `key` line) is unversioned.

use core::fmt;

use crate::PrimeField;

/// Why a byte string failed to decode. Every variant names the field that
/// broke, so a log line is actionable without a hex dump.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The version is newer than this build understands. The bytes may be
    /// perfectly valid — the decoder is just too old.
    FutureVersion {
        /// What was being decoded ("shape", "proof envelope", ...).
        context: &'static str,
        /// The version found in the input.
        found: u8,
        /// The newest version this build can decode.
        supported: u8,
    },
    /// The input ended before the named field was complete, or a length
    /// prefix claims more items than the bytes left can hold.
    Truncated {
        /// The field being read when the input ran out.
        context: &'static str,
    },
    /// A structural invariant failed (CSR monotonicity, out-of-range
    /// column, non-canonical field bytes, off-curve point, ...).
    Malformed {
        /// The field that violated its invariant.
        context: &'static str,
        /// Human-readable detail of the violation.
        detail: String,
    },
    /// The digest carried in the bytes does not match the digest the
    /// caller expected (hex-encoded in the payloads).
    DigestMismatch {
        /// The digest the caller expected, hex-encoded.
        expected: String,
        /// The digest carried in the encoded bytes, hex-encoded.
        found: String,
    },
    /// Decoding succeeded but bytes were left over — the input is not a
    /// single canonical encoding.
    TrailingBytes {
        /// How many bytes remained unconsumed.
        extra: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::FutureVersion {
                context,
                found,
                supported,
            } => write!(
                f,
                "{context} encoding version {found} is newer than supported version {supported}"
            ),
            DecodeError::Truncated { context } => {
                write!(f, "input truncated while reading {context}")
            }
            DecodeError::Malformed { context, detail } => {
                write!(f, "malformed {context}: {detail}")
            }
            DecodeError::DigestMismatch { expected, found } => {
                write!(
                    f,
                    "shape digest mismatch: expected {expected}, found {found}"
                )
            }
            DecodeError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing byte(s) after a complete encoding")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// A length prefix already checked against the bytes left to read. Only
/// the bounded-count readers make one, and [`ByteReader::items`] takes one,
/// so every decoder allocation is backed by input bytes.
#[derive(Clone, Copy, Debug)]
pub struct Count(usize);

/// Incremental little-endian reader over an encoded byte string.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Starts reading at the head of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes `n` raw bytes, or reports which field was truncated.
    pub fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated { context });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Takes exactly `N` raw bytes.
    pub fn array<const N: usize>(&mut self, context: &'static str) -> Result<[u8; N], DecodeError> {
        Ok(self.take(N, context)?.try_into().expect("N bytes"))
    }

    /// Reads one byte.
    pub fn u8(&mut self, context: &'static str) -> Result<u8, DecodeError> {
        Ok(self.take(1, context)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, context: &'static str) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array(context)?))
    }

    /// Reads a little-endian `u64`.
    fn u64(&mut self, context: &'static str) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.array(context)?))
    }

    /// Reads a little-endian `u64` and narrows it to `usize`, rejecting
    /// values this platform cannot index.
    pub fn usize(&mut self, context: &'static str) -> Result<usize, DecodeError> {
        let raw = self.u64(context)?;
        usize::try_from(raw).map_err(|_| DecodeError::Malformed {
            context,
            detail: format!("length {raw} overflows usize"),
        })
    }

    /// Reads one canonical 32-byte field element (values at or above the
    /// modulus are rejected).
    pub fn field<F: PrimeField>(&mut self, context: &'static str) -> Result<F, DecodeError> {
        F::from_bytes_le(&self.array(context)?).ok_or_else(|| DecodeError::Malformed {
            context,
            detail: "non-canonical field element (value >= modulus)".into(),
        })
    }

    /// Reads a `u32` count of items at least `min_item_bytes` long each,
    /// refusing a count the bytes left cannot hold.
    pub fn count_u32(
        &mut self,
        min_item_bytes: usize,
        context: &'static str,
    ) -> Result<Count, DecodeError> {
        let raw = self.u32(context)?;
        self.bounded(raw.into(), min_item_bytes, context)
    }

    /// [`Self::count_u32`] for a `u64` prefix.
    pub fn count_u64(
        &mut self,
        min_item_bytes: usize,
        context: &'static str,
    ) -> Result<Count, DecodeError> {
        let raw = self.u64(context)?;
        self.bounded(raw, min_item_bytes, context)
    }

    fn bounded(
        &self,
        raw: u64,
        min_item_bytes: usize,
        context: &'static str,
    ) -> Result<Count, DecodeError> {
        usize::try_from(raw)
            .ok()
            .filter(|&n| n <= self.remaining() / min_item_bytes)
            .map(Count)
            .ok_or(DecodeError::Truncated { context })
    }

    /// Reads `count` items with `item`.
    pub fn items<T>(
        &mut self,
        count: Count,
        mut item: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let mut out = Vec::with_capacity(count.0);
        for _ in 0..count.0 {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// Asserts every byte was consumed (a canonical encoding has no
    /// trailing garbage).
    fn finish(self) -> Result<(), DecodeError> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(DecodeError::TrailingBytes { extra }),
        }
    }
}

/// Runs `decode` over all of `bytes`, rejecting trailing bytes.
pub fn decode_exact<'a, T>(
    bytes: &'a [u8],
    decode: impl FnOnce(&mut ByteReader<'a>) -> Result<T, DecodeError>,
) -> Result<T, DecodeError> {
    let mut r = ByteReader::new(bytes);
    let value = decode(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// Lowercase hex encoding, one allocation per call.
pub fn hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push(DIGITS[(b >> 4) as usize] as char);
        out.push(DIGITS[(b & 0xf) as usize] as char);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_are_bounded_by_the_bytes_left() {
        // Three bytes after the prefix hold one item of at least two
        // bytes, not two.
        let fits = [1, 0, 0, 0, 9, 9, 9];
        let mut r = ByteReader::new(&fits);
        let n = r.count_u32(2, "items").unwrap();
        assert_eq!(r.items(n, |r| r.u8("item")).unwrap(), [9]);
        let too_many = [2, 0, 0, 0, 9, 9, 9];
        assert!(matches!(
            ByteReader::new(&too_many).count_u32(2, "items"),
            Err(DecodeError::Truncated { context: "items" })
        ));
        let mut huge = u64::MAX.to_le_bytes().to_vec();
        huge.extend([0; 64]);
        assert!(ByteReader::new(&huge).count_u64(1, "items").is_err());
    }
}
