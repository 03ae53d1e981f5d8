//! A Spartan proof is pinned byte for byte, and the proof it replaced
//! fails closed.
//!
//! The digest below is the file `zkvc prove --spec 49x16x32:zkvc:s --seed 7`
//! writes: a version-2 Spartan proof, whose padded witness (4 096 long) is
//! committed as 16 rows of 256 and opened by a 256-long IPA. It was
//! recorded with the IPA generator fold (`zkvc_curve::fold_bases`) split
//! across threads on a multi-core host; the lazy prover's bases are the
//! same on one thread. How the prover schedules its kernels may change; a
//! proof byte may not.
//!
//! `tests/data/spartan_49x16x32_seed7_unversioned.bin` is the same command's
//! file from before the version byte (sha256 `e7caaaae…dfbe`): one
//! commitment to the whole witness, opened by a 4 096-long IPA, under the
//! `v1` transcript.

use zkvc::ff::codec::{decode_exact, DecodeError};
use zkvc::hash::sha256;
use zkvc::runtime::{prove_batch, Error, JobSpec, ProofEnvelope};
use zkvc::spartan::{SpartanProof, SPARTAN_PROOF_VERSION};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn spartan_49x16x32_proof_is_byte_identical_to_the_recorded_one() {
    let (spec, count) = JobSpec::parse("49x16x32:zkvc:s").expect("a shipped spec");
    assert_eq!(count, 1);
    // `zkvc prove` is job 0 of a one-job batch at the seed, re-encoded.
    let report = prove_batch(&[spec], 1, 7);
    let [result] = &report.results[..] else {
        panic!("one job, one result");
    };
    assert!(result.verified);
    let envelope = ProofEnvelope::decode(&result.proof_bytes).expect("decodes");
    assert_eq!(
        hex(&sha256(&envelope.to_bytes())),
        "b3d737420a10ca4b060ce3bb84a2f38fa5616047d5030208c95adee692de39dd"
    );
}

#[test]
fn the_unversioned_proof_fails_closed_with_a_typed_version_error() {
    let bytes = include_bytes!("data/spartan_49x16x32_seed7_unversioned.bin");
    assert_eq!(
        hex(&sha256(bytes)),
        "e7caaaaed548d4dd5a38b25ce3fe56954d2f0e96d16f598fceedd6c5a517dfbe"
    );
    // Envelope header: magic, public count, publics, backend tag 2.
    let publics = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    let body = &bytes[8 + 4 + 32 * publics + 1..];
    // Its first body byte is the low byte of the old commitment's `x`
    // coordinate, 225 here: newer than any version this build reads.
    assert_eq!(
        decode_exact(body, SpartanProof::decode).map(|_| ()),
        Err(DecodeError::FutureVersion {
            context: "Spartan proof",
            found: 225,
            supported: SPARTAN_PROOF_VERSION,
        })
    );
    assert!(matches!(
        ProofEnvelope::decode(bytes),
        Err(Error::FutureVersion {
            what: "Spartan proof",
            found: 225,
            ..
        })
    ));
}
