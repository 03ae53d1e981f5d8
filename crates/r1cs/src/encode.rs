//! Canonical byte encoding for [`CompiledShape`]: one byte string per
//! compiled shape, which decodes back to the identical shape. The layout
//! is in [`zkvc_ff::codec`].
//!
//! The format is **versioned** (a leading version byte; a newer version is
//! a typed [`DecodeError::FutureVersion`], never a parse panic),
//! **digest-checked** (the shape digest travels verbatim — it is computed
//! over the raw pre-CSR emission order and cannot be recomputed from the
//! CSR matrices, so a decoder that knows which shape it expects checks
//! the digest it was given), and **round-trip stable**
//! (`decode(encode(x)) == x`, byte for byte, for every valid input).
//!
//! Decoding validates every structural invariant the rest of the codebase
//! assumes (CSR monotonicity, per-row sorted columns, canonical field
//! bytes, hint columns in bounds) so a decoded shape is safe to hand to
//! setup and proving without re-checking.

use zkvc_ff::codec::{decode_exact, hex, ByteReader, DecodeError};
use zkvc_ff::PrimeField;

use crate::matrices::{R1csMatrices, SparseMatrix};
use crate::sink::CompiledShape;

/// Version byte emitted at the head of every encoded [`CompiledShape`].
pub const SHAPE_ENCODING_VERSION: u8 = 1;

fn put_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Appends a length-prefixed list of `usize` values as `u64`s.
fn put_index_list(out: &mut Vec<u8>, values: &[usize]) {
    put_u64(out, values.len() as u64);
    for &v in values {
        put_u64(out, v as u64);
    }
}

fn read_index_list(
    r: &mut ByteReader<'_>,
    context: &'static str,
) -> Result<Vec<usize>, DecodeError> {
    let len = r.count_u64(8, context)?;
    r.items(len, |r| r.usize(context))
}

fn put_matrix<F: PrimeField>(out: &mut Vec<u8>, m: &SparseMatrix<F>) {
    put_u64(out, m.num_rows as u64);
    put_u64(out, m.num_cols as u64);
    put_index_list(out, &m.row_ptr);
    put_index_list(out, &m.col_idx);
    put_u64(out, m.vals.len() as u64);
    for v in &m.vals {
        out.extend_from_slice(&v.to_bytes_le());
    }
}

/// Reads one CSR matrix and validates every invariant `SparseMatrix`
/// maintains by construction: `row_ptr` spans `[0, nnz]` monotonically
/// with one entry per row plus a terminator, and each row's columns are
/// strictly increasing and in bounds.
fn read_matrix<F: PrimeField>(
    r: &mut ByteReader<'_>,
    context: &'static str,
) -> Result<SparseMatrix<F>, DecodeError> {
    let malformed = |detail: String| DecodeError::Malformed { context, detail };
    let num_rows = r.usize(context)?;
    let num_cols = r.usize(context)?;
    let row_ptr = read_index_list(r, context)?;
    let col_idx = read_index_list(r, context)?;
    let vals_len = r.count_u64(32, context)?;
    let vals: Vec<F> = r.items(vals_len, |r| r.field(context))?;

    if row_ptr.len().checked_sub(1) != Some(num_rows) {
        return Err(malformed(format!(
            "row_ptr has {} entries, expected one per row ({num_rows}) plus one",
            row_ptr.len()
        )));
    }
    if row_ptr[0] != 0 {
        return Err(malformed(format!(
            "row_ptr[0] = {}, expected 0",
            row_ptr[0]
        )));
    }
    if row_ptr.windows(2).any(|w| w[0] > w[1]) {
        return Err(malformed("row_ptr is not monotone non-decreasing".into()));
    }
    let nnz = *row_ptr.last().expect("non-empty row_ptr");
    if col_idx.len() != nnz || vals.len() != nnz {
        return Err(malformed(format!(
            "row_ptr claims {} non-zeros but col_idx has {} and vals has {}",
            nnz,
            col_idx.len(),
            vals.len()
        )));
    }
    for (row, w) in row_ptr.windows(2).enumerate() {
        let cols = &col_idx[w[0]..w[1]];
        if cols.iter().any(|&c| c >= num_cols) {
            return Err(malformed(format!(
                "row {row} has a column index >= num_cols ({num_cols})"
            )));
        }
        if cols.windows(2).any(|c| c[0] >= c[1]) {
            return Err(malformed(format!(
                "row {row} columns are not strictly increasing"
            )));
        }
    }
    Ok(SparseMatrix {
        num_rows,
        num_cols,
        row_ptr,
        col_idx,
        vals,
    })
}

/// Validates a boolean-hint column list: sorted, deduplicated, in bounds.
fn check_hint_columns(
    columns: &[usize],
    num_cols: usize,
    context: &'static str,
) -> Result<(), DecodeError> {
    let malformed = |detail: String| DecodeError::Malformed { context, detail };
    if columns.windows(2).any(|w| w[0] >= w[1]) {
        return Err(malformed("columns are not sorted and deduplicated".into()));
    }
    if columns.last().is_some_and(|&c| c >= num_cols) {
        return Err(malformed(format!(
            "column index out of range (num variables = {num_cols})"
        )));
    }
    Ok(())
}

/// Encodes a compiled shape into its canonical, versioned byte form.
pub fn encode_shape<F: PrimeField>(shape: &CompiledShape<F>) -> Vec<u8> {
    let m = &shape.matrices;
    let mut out = Vec::with_capacity(1 + 48 + shape.approx_bytes());
    out.push(SHAPE_ENCODING_VERSION);
    put_u64(&mut out, m.num_instance as u64);
    put_u64(&mut out, m.num_witness as u64);
    out.extend_from_slice(&shape.digest);
    put_matrix(&mut out, &m.a);
    put_matrix(&mut out, &m.b);
    put_matrix(&mut out, &m.c);
    put_index_list(&mut out, &shape.expected_boolean);
    put_index_list(&mut out, &shape.provided_boolean);
    out
}

impl<F: PrimeField> CompiledShape<F> {
    /// Reads one shape encoding (see [`decode_shape`]).
    pub(crate) fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let version = r.u8("shape version")?;
        if version > SHAPE_ENCODING_VERSION {
            return Err(DecodeError::FutureVersion {
                context: "shape",
                found: version,
                supported: SHAPE_ENCODING_VERSION,
            });
        }
        if version != SHAPE_ENCODING_VERSION {
            return Err(DecodeError::Malformed {
                context: "shape version",
                detail: format!(
                    "unknown version {version} (this build reads version {SHAPE_ENCODING_VERSION})"
                ),
            });
        }
        let num_instance = r.usize("num_instance")?;
        let num_witness = r.usize("num_witness")?;
        let digest = r.array("shape digest")?;
        let a = read_matrix::<F>(r, "matrix A")?;
        let b = read_matrix::<F>(r, "matrix B")?;
        let c = read_matrix::<F>(r, "matrix C")?;
        let expected_boolean = read_index_list(r, "expected_boolean")?;
        let provided_boolean = read_index_list(r, "provided_boolean")?;

        let num_cols = num_instance
            .checked_add(num_witness)
            .and_then(|n| n.checked_add(1))
            .ok_or_else(|| DecodeError::Malformed {
                context: "shape dimensions",
                detail: format!("1 + {num_instance} + {num_witness} overflows usize"),
            })?;
        for (name, m) in [("A", &a), ("B", &b), ("C", &c)] {
            if m.num_cols != num_cols {
                return Err(DecodeError::Malformed {
                    context: "shape matrices",
                    detail: format!(
                        "matrix {name} has {} columns, expected 1 + {num_instance} + {num_witness} = {num_cols}",
                        m.num_cols
                    ),
                });
            }
            if m.num_rows != a.num_rows {
                return Err(DecodeError::Malformed {
                    context: "shape matrices",
                    detail: format!(
                        "matrix {name} has {} rows but matrix A has {}",
                        m.num_rows, a.num_rows
                    ),
                });
            }
        }
        check_hint_columns(&expected_boolean, num_cols, "expected_boolean")?;
        check_hint_columns(&provided_boolean, num_cols, "provided_boolean")?;

        Ok(CompiledShape {
            matrices: R1csMatrices {
                a,
                b,
                c,
                num_instance,
                num_witness,
            },
            digest,
            expected_boolean,
            provided_boolean,
        })
    }
}

/// Decodes a whole shape encoding, validating every structural invariant.
/// The digest is carried verbatim (it hashes the raw pre-CSR emission
/// order, which the CSR form cannot reproduce) — callers who know which
/// digest they asked for should prefer [`decode_shape_expecting`].
pub fn decode_shape<F: PrimeField>(bytes: &[u8]) -> Result<CompiledShape<F>, DecodeError> {
    decode_exact(bytes, CompiledShape::decode)
}

/// Decodes a shape and additionally checks the carried digest equals
/// `expected`, refusing bytes that encode some other shape.
pub fn decode_shape_expecting<F: PrimeField>(
    bytes: &[u8],
    expected: &[u8; 32],
) -> Result<CompiledShape<F>, DecodeError> {
    let shape = decode_shape::<F>(bytes)?;
    if shape.digest != *expected {
        return Err(DecodeError::DigestMismatch {
            expected: hex(expected),
            found: hex(&shape.digest),
        });
    }
    Ok(shape)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConstraintSystem, LinearCombination};
    use zkvc_ff::Fr;

    fn sample_shape() -> CompiledShape<Fr> {
        let mut cs = ConstraintSystem::<Fr>::new();
        let nine = cs.alloc_instance(Fr::from_u64(9));
        let x = cs.alloc_witness(Fr::from_u64(3));
        let bit = cs.alloc_witness(Fr::from_u64(1));
        cs.enforce(
            LinearCombination::from(x),
            LinearCombination::from(x),
            LinearCombination::from(nine),
        );
        cs.enforce(
            LinearCombination::from(bit),
            LinearCombination::from(bit),
            LinearCombination::from(bit),
        );
        CompiledShape::from_cs(&cs)
    }

    fn assert_shapes_equal(a: &CompiledShape<Fr>, b: &CompiledShape<Fr>) {
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.matrices.num_instance, b.matrices.num_instance);
        assert_eq!(a.matrices.num_witness, b.matrices.num_witness);
        assert_eq!(a.matrices.a, b.matrices.a);
        assert_eq!(a.matrices.b, b.matrices.b);
        assert_eq!(a.matrices.c, b.matrices.c);
        assert_eq!(a.expected_boolean, b.expected_boolean);
        assert_eq!(a.provided_boolean, b.provided_boolean);
    }

    #[test]
    fn shape_round_trips_and_is_byte_stable() {
        let shape = sample_shape();
        let bytes = encode_shape(&shape);
        let back = decode_shape::<Fr>(&bytes).unwrap();
        assert_shapes_equal(&shape, &back);
        // Re-encoding the decoded shape reproduces the bytes exactly.
        assert_eq!(encode_shape(&back), bytes);
        // Digest-checked decode accepts the right digest, rejects others.
        decode_shape_expecting::<Fr>(&bytes, &shape.digest).unwrap();
        let err = decode_shape_expecting::<Fr>(&bytes, &[0u8; 32]).unwrap_err();
        assert!(matches!(err, DecodeError::DigestMismatch { .. }), "{err}");
    }

    #[test]
    fn future_versions_are_typed_errors_not_panics() {
        let mut bytes = encode_shape(&sample_shape());
        bytes[0] = SHAPE_ENCODING_VERSION + 1;
        match decode_shape::<Fr>(&bytes) {
            Err(DecodeError::FutureVersion { context, found, .. }) => {
                assert_eq!(context, "shape");
                assert_eq!(found, SHAPE_ENCODING_VERSION + 1);
            }
            other => panic!("expected FutureVersion, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_structure_is_rejected() {
        let shape = sample_shape();
        let bytes = encode_shape(&shape);
        // A hostile length prefix cannot force a huge allocation: claim
        // u64::MAX entries where row_ptr's length lives.
        let mut huge = bytes;
        let row_ptr_len_at = 1 + 8 + 8 + 32 + 8 + 8;
        huge[row_ptr_len_at..row_ptr_len_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            decode_shape::<Fr>(&huge),
            Err(DecodeError::Truncated { .. })
        ));
        // Non-canonical field bytes (>= modulus) are rejected: the last
        // 32 bytes of matrix C's `vals` precede the two hint lists.
        let mut bytes = encode_shape(&shape);
        let hints = 8 * (2 + shape.expected_boolean.len() + shape.provided_boolean.len());
        let end = bytes.len() - hints;
        bytes[end - 32..end].copy_from_slice(&[0xFF; 32]);
        assert!(matches!(
            decode_shape::<Fr>(&bytes),
            Err(DecodeError::Malformed {
                context: "matrix C",
                ..
            })
        ));
    }
}
