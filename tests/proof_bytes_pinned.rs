//! A Spartan proof is pinned byte for byte.
//!
//! The digest below is the file `zkvc prove --spec 49x16x32:zkvc:s --seed 7`
//! writes. It was recorded while the IPA generator fold
//! (`zkvc_curve::fold_bases`) still ran on one thread, and while every
//! cross term of the opening was one full-width MSM. Its opening is 4 096
//! long, so two things now change how that proof is computed:
//! - the fold's 512 outputs split across threads on a multi-core host;
//! - the first three rounds' cross terms are sums of narrow MSMs, because
//!   2 864 of the 2 879 witness entries are below 2^32.
//!
//! How the prover schedules its kernels may change; a proof byte may not.

use zkvc::hash::sha256;
use zkvc::runtime::{prove_batch, JobSpec, ProofEnvelope};

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
    let hex: String = sha256(&envelope.to_bytes())
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    assert_eq!(
        hex,
        "e7caaaaed548d4dd5a38b25ce3fe56954d2f0e96d16f598fceedd6c5a517dfbe"
    );
}
