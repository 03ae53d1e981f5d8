//! Proof-envelope robustness: round-trip properties over randomly shaped
//! statements, plus rejection of truncated, bit-flipped and garbage bytes.
//! The decoder must never panic, never accept a malformed envelope, and
//! never let a mutated envelope verify. `decoder_mutations.rs` runs the
//! same mutations over every binary format and pins their accept set.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use zkvc_core::api::{compile_shape, generate_witness_for};
use zkvc_core::backend::ProofData;
use zkvc_core::matmul::{MatMulBuilder, Strategy};
use zkvc_core::{Backend, VerifierKey};
use zkvc_curve::G1Affine;
use zkvc_ff::{Field, Fq};
use zkvc_runtime::ProofEnvelope;

/// A small proved statement with its envelope bytes and verifier key.
fn proved_envelope(
    backend: Backend,
    a: usize,
    n: usize,
    b: usize,
    seed: u64,
) -> (Vec<u8>, VerifierKey) {
    let mut rng = StdRng::seed_from_u64(seed);
    let job = MatMulBuilder::new(a, n, b)
        .strategy(Strategy::CrpcPsq)
        .build_circuit_random(&mut rng);
    let shape = Arc::new(compile_shape(&job));
    let (pk, vk) = backend.setup_shape(&shape, &mut rng);
    let witness = generate_witness_for(&job, &shape);
    let artifacts = backend.prove_assignment(&pk, &witness, &mut rng);
    (ProofEnvelope::from_artifacts(&artifacts).to_bytes(), vk)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Round trip: decode(encode(e)) is stable, preserves the backend tag
    /// and public inputs, and still verifies — for random statement shapes
    /// on both backends.
    #[test]
    fn prop_envelope_roundtrip(
        a in 1usize..3, n in 1usize..4, b in 1usize..3, seed in 0u64..1000
    ) {
        for backend in Backend::ALL {
            let (bytes, vk) = proved_envelope(backend, a, n, b, seed);
            let envelope = ProofEnvelope::decode(&bytes).expect("decodes");
            prop_assert_eq!(envelope.backend(), backend);
            prop_assert_eq!(envelope.public_inputs.len(), a * b);
            prop_assert!(envelope.verify_with_key(&vk));
            prop_assert_eq!(envelope.to_bytes(), bytes);
        }
    }

    /// Random garbage never decodes (and never panics). A random prefix
    /// collision with the 8-byte magic is astronomically unlikely; bytes
    /// that do start with the magic still die in the structured parser.
    #[test]
    fn prop_garbage_rejected(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        prop_assert!(ProofEnvelope::decode(&bytes).is_err());
        let mut with_magic = b"ZKVCPRF1".to_vec();
        with_magic.extend_from_slice(&bytes);
        if let Ok(envelope) = ProofEnvelope::decode(&with_magic) {
            // Decoding garbage is only acceptable if re-encoding is
            // canonical — and even then it is just bytes, not a proof.
            prop_assert_eq!(envelope.to_bytes(), with_magic);
        }
    }
}

#[test]
fn every_truncation_is_rejected() {
    for backend in Backend::ALL {
        let (bytes, _vk) = proved_envelope(backend, 2, 2, 2, 41);
        for len in 0..bytes.len() {
            assert!(
                ProofEnvelope::decode(&bytes[..len]).is_err(),
                "{backend:?}: truncation to {len}/{} bytes decoded",
                bytes.len()
            );
        }
        // Trailing padding must be rejected too: the parsers consume the
        // buffer exactly.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(
            ProofEnvelope::decode(&padded).is_err(),
            "{backend:?}: padded envelope decoded"
        );
    }
}

#[test]
fn every_bit_flip_is_rejected_or_fails_verification() {
    // Exhaustive over byte positions (one flipped bit per position): the
    // mutated envelope must fail to decode, fail to verify, or — the one
    // benign case — decode to a proof that is *semantically identical*
    // (the wire format has a few dead bytes: coordinate bytes of a
    // point-at-infinity are ignored by its decoder). What can never happen
    // is a mutated envelope verifying as a *different statement*: flips in
    // the public-input region must always be fatal. Nothing panics.
    for backend in Backend::ALL {
        let (bytes, vk) = proved_envelope(backend, 1, 2, 1, 42);
        let original = ProofEnvelope::decode(&bytes).expect("baseline decodes");
        // magic(8) + count(4) + one 32-byte public input + tag(1)
        let payload_start = 8 + 4 + 32 + 1;
        for pos in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[pos] ^= 1 << (pos % 8);
            let Ok(envelope) = ProofEnvelope::decode(&mutated) else {
                continue;
            };
            if pos < payload_start {
                assert!(
                    !envelope.verify_with_key(&vk),
                    "{backend:?}: header/publics flip at byte {pos} still verifies"
                );
            } else if envelope.verify_with_key(&vk) {
                assert_eq!(
                    envelope.public_inputs, original.public_inputs,
                    "{backend:?}: payload flip at byte {pos} verified as a different statement"
                );
            }
        }
    }
}

#[test]
fn truncated_and_padded_groth16_key_table_entries_rejected() {
    // The once-per-batch vk bytes path has the same strictness guarantees
    // as the envelopes themselves.
    let mut rng = StdRng::seed_from_u64(43);
    let job = MatMulBuilder::new(2, 2, 2)
        .strategy(Strategy::Vanilla)
        .build_circuit_random(&mut rng);
    let (_pk, vk) = Backend::Groth16.setup_shape(&Arc::new(compile_shape(&job)), &mut rng);
    let VerifierKey::Groth16(vk) = vk else {
        unreachable!()
    };
    let bytes = vk.to_bytes();
    assert!(zkvc_groth16::VerifyingKey::from_bytes(&bytes).is_some());
    assert!(zkvc_groth16::VerifyingKey::from_bytes(&bytes[..bytes.len() - 1]).is_none());
}

#[test]
fn small_order_proof_points_fail_verification_without_panicking() {
    // Proof points are checked for curve membership, not for the order-r
    // subgroup, so attacker bytes can carry the 2-torsion point (0,0) and
    // an order-4 point P4 = (+-1, sqrt(+-2)) with 2*P4 = (0,0). The tangent
    // at P4 passes through phi((0,0)): a pairing that divides by vertical
    // lines dies there, on bytes that decode.
    let two_torsion = G1Affine {
        x: Fq::zero(),
        y: Fq::zero(),
        infinity: false,
    };
    let p4 = [Fq::one(), -Fq::one()]
        .into_iter()
        .find_map(|x| {
            let y = (x + x).sqrt()?; // x^3 + x = 2x for x = +-1
            Some(G1Affine {
                x,
                y,
                infinity: false,
            })
        })
        .expect("one of 2, -2 is a square when p = 3 mod 4");
    assert_eq!(p4.to_projective().double().to_affine(), two_torsion);

    let (bytes, vk) = proved_envelope(Backend::Groth16, 1, 2, 1, 44);
    for (a, b) in [(p4, two_torsion), (two_torsion, two_torsion)] {
        let mut forged = ProofEnvelope::decode(&bytes).expect("baseline decodes");
        let ProofData::Groth16 { proof } = &mut forged.proof else {
            unreachable!()
        };
        proof.a = a;
        proof.b = b;
        let envelope =
            ProofEnvelope::decode(&forged.to_bytes()).expect("on-curve proof points decode");
        let verdict = std::panic::catch_unwind(|| envelope.verify_with_key(&vk));
        assert!(matches!(verdict, Ok(false)), "verdict {verdict:?}");
    }
}
