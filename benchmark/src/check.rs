//! The benchmark's own idea of a right answer, independent of the
//! prover: `Y = XW` over plain integers, and tampered envelopes that must
//! be rejected.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zkvc::core::VerifierKey;
use zkvc::ff::{Field, Fr, PrimeField};
use zkvc::runtime::ProofEnvelope;

/// The public outputs a matmul job must bind: row-major `Y = XW` over
/// `u64`, for the `X` and `W` that `zkvc_runtime::build_statement(seed,
/// statement_id, spec)` draws (an rng seeded with `seed ^ id * phi64`,
/// `X` then `W`, row-major, entries in `0..256`). If that derivation ever
/// changes, every matmul job fails this check loudly rather than passing
/// silently.
pub fn matmul_outputs(seed: u64, statement_id: usize, dims: (usize, usize, usize)) -> Vec<Fr> {
    let (a, n, b) = dims;
    let mut rng =
        StdRng::seed_from_u64(seed ^ (statement_id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut draw = |len: usize| -> Vec<u64> { (0..len).map(|_| rng.gen_range(0..256)).collect() };
    let x = draw(a * n);
    let w = draw(n * b);
    let mut y = Vec::with_capacity(a * b);
    for i in 0..a {
        for j in 0..b {
            let cell: u64 = (0..n).map(|k| x[i * n + k] * w[k * b + j]).sum();
            y.push(Fr::from_u64(cell));
        }
    }
    y
}

/// The negative check every workload ends with: a valid envelope with one
/// public output changed, and the same envelope with one proof byte
/// flipped, must both be rejected (at decode or at verify).
pub fn rejects_tampering(bytes: &[u8], key: &VerifierKey) -> bool {
    let Ok(mut envelope) = ProofEnvelope::decode(bytes) else {
        return false;
    };
    if !envelope.verify_with_key(key) || envelope.public_inputs.is_empty() {
        return false;
    }
    envelope.public_inputs[0] += Fr::one();
    let wrong_output = envelope.to_bytes();
    let mut wrong_proof = bytes.to_vec();
    // The proof is the tail of the envelope; the last byte is inside it.
    *wrong_proof.last_mut().expect("non-empty envelope") ^= 1;
    [wrong_output, wrong_proof]
        .iter()
        .all(|tampered| !ProofEnvelope::decode(tampered).is_ok_and(|e| e.verify_with_key(key)))
}
