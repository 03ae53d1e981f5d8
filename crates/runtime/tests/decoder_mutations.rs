//! One mutation harness over every decoder of untrusted bytes.
//!
//! Inputs are honest encodings built from fixed seeds: the `2x2x2:zkvc`
//! compiled shape, a Groth16 verifying key, a Groth16 envelope and a
//! Spartan envelope. Each input is mutated four
//! ways — every truncation, one bit flip per byte position, one trailing
//! byte, and every length prefix (plus the shape's dimension fields) set
//! to all ones — and every mutation goes through the public decoder that
//! reads that format from the wire.
//!
//! Properties:
//! - no decoder panics;
//! - every all-ones prefix is rejected (the bounded count refuses it
//!   before any allocation is sized by it);
//! - every accepted mutation re-encodes to itself, except the known break
//!   described at [`KnownBreak`];
//! - the accept/reject verdict vector over the whole corpus hashes to
//!   [`ACCEPT_SET_SHA256`], recorded against the decoders as they stood
//!   before they moved onto one shared reader, and re-recorded when the
//!   envelope's retired vk-carrying form left the corpus (the four
//!   remaining inputs kept every verdict), and again when the Spartan
//!   proof gained its version byte and row commitments (the shape, vk and
//!   Groth16 envelope kept every verdict). Verdicts are pinned; error
//!   variants are not.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkvc_core::api::{compile_shape, generate_witness_for};
use zkvc_core::VerifierKey;
use zkvc_curve::G1Affine;
use zkvc_ff::{Fq, Fr, PrimeField};
use zkvc_hash::sha256;
use zkvc_runtime::codec::{decode_shape, encode_shape, DecodeError};
use zkvc_runtime::{build_statement, JobSpec, ProofEnvelope};

/// sha256 of the verdict vector (one byte per mutation, 1 = accepted), in
/// corpus order.
const ACCEPT_SET_SHA256: &str = "110e56abd8b05cbb1215cfa6a83b9a6d174b9cb901a2fad4800f3fffd75b76ab";

const SEED: u64 = 7;

/// A decoder under test: the re-encoding of what it accepted, or `None`.
type Decoder = fn(&[u8]) -> Option<Vec<u8>>;

fn shape_decoder(bytes: &[u8]) -> Option<Vec<u8>> {
    decode_shape::<Fr>(bytes).ok().map(|s| encode_shape(&s))
}

fn vk_decoder(bytes: &[u8]) -> Option<Vec<u8>> {
    zkvc_groth16::VerifyingKey::from_bytes(bytes).map(|vk| vk.to_bytes())
}

fn envelope_decoder(bytes: &[u8]) -> Option<Vec<u8>> {
    ProofEnvelope::decode(bytes).ok().map(|e| e.to_bytes())
}

/// A little-endian count or dimension field: where it sits and how wide.
#[derive(Clone, Copy, Debug)]
struct Prefix {
    at: usize,
    width: usize,
}

impl Prefix {
    fn read(self, bytes: &[u8]) -> usize {
        let mut le = [0u8; 8];
        le[..self.width].copy_from_slice(&bytes[self.at..self.at + self.width]);
        u64::from_le_bytes(le) as usize
    }

    fn shifted(self, by: usize) -> Self {
        Prefix {
            at: self.at + by,
            width: self.width,
        }
    }
}

/// The shape's `u64` fields: both dimensions, then per matrix its two
/// dimensions and three list lengths, then the two hint-list lengths.
fn shape_prefixes(b: &[u8]) -> Vec<Prefix> {
    let u64_at = |at| Prefix { at, width: 8 };
    let mut out = vec![u64_at(1), u64_at(9)];
    let mut pos = 1 + 8 + 8 + 32;
    let list = |out: &mut Vec<Prefix>, pos: &mut usize, item: usize| {
        let p = u64_at(*pos);
        out.push(p);
        *pos += 8 + item * p.read(b);
    };
    for _matrix in 0..3 {
        out.extend([u64_at(pos), u64_at(pos + 8)]);
        pos += 16;
        list(&mut out, &mut pos, 8);
        list(&mut out, &mut pos, 8);
        list(&mut out, &mut pos, 32);
    }
    list(&mut out, &mut pos, 8);
    list(&mut out, &mut pos, 8);
    assert_eq!(pos, b.len(), "shape layout walk");
    out
}

/// The verifying key's one count: the `gamma_abc` points after the four
/// fixed ones.
fn vk_prefixes(b: &[u8]) -> Vec<Prefix> {
    let count = Prefix {
        at: 4 * 65,
        width: 4,
    };
    assert_eq!(4 * 65 + 4 + 65 * count.read(b), b.len(), "vk layout walk");
    vec![count]
}

/// The Spartan proof's counts: the row-commitment count after the
/// version byte, both sum-checks' round counts and per-round lengths, and
/// the IPA round count.
fn spartan_prefixes(b: &[u8]) -> Vec<Prefix> {
    let u32_at = |at| Prefix { at, width: 4 };
    let rows = u32_at(1);
    let mut out = vec![rows];
    let mut pos = 1 + 4 + 65 * rows.read(b);
    let sumcheck = |out: &mut Vec<Prefix>, pos: &mut usize| {
        let rounds = u32_at(*pos);
        out.push(rounds);
        *pos += 4;
        for _ in 0..rounds.read(b) {
            let len = u32_at(*pos);
            out.push(len);
            *pos += 4 + 32 * len.read(b);
        }
    };
    sumcheck(&mut out, &mut pos);
    pos += 3 * 32;
    sumcheck(&mut out, &mut pos);
    pos += 32;
    let ipa = u32_at(pos);
    out.push(ipa);
    assert_eq!(
        pos + 4 + 2 * 65 * ipa.read(b) + 32,
        b.len(),
        "IPA layout walk"
    );
    out
}

/// The envelope's counts: the public-input count, then the payload's.
fn envelope_prefixes(b: &[u8]) -> Vec<Prefix> {
    let publics = Prefix { at: 8, width: 4 };
    let mut out = vec![publics];
    let payload = 8 + 4 + 32 * publics.read(b) + 1;
    match b[payload - 1] {
        2 => out.extend(
            spartan_prefixes(&b[payload..])
                .into_iter()
                .map(|p| p.shifted(payload)),
        ),
        3 => {}
        tag => panic!("unknown envelope tag {tag}"),
    }
    out
}

struct Input {
    name: &'static str,
    bytes: Vec<u8>,
    decode: Decoder,
    prefixes: Vec<Prefix>,
}

fn corpus() -> &'static [Input] {
    static CORPUS: OnceLock<Vec<Input>> = OnceLock::new();
    CORPUS.get_or_init(build_corpus)
}

fn build_corpus() -> Vec<Input> {
    let groth16 = JobSpec::parse("2x2x2:zkvc:g").expect("spec").0;
    let spartan = JobSpec::parse("2x2x2:zkvc:s").expect("spec").0;
    let statement = build_statement(SEED, 0, &groth16);
    let shape = Arc::new(compile_shape(statement.as_ref()));
    let witness = generate_witness_for(statement.as_ref(), &shape);
    let prove = |spec: &JobSpec| {
        let mut rng = StdRng::seed_from_u64(SEED);
        let backend = spec.backend();
        let (pk, vk) = backend.setup_shape(&shape, &mut rng);
        (vk, backend.prove_assignment(&pk, &witness, &mut rng))
    };
    let (vk, g16) = prove(&groth16);
    let VerifierKey::Groth16(vk) = vk else {
        unreachable!("a Groth16 spec sets up a Groth16 key")
    };
    let (_, spartan) = prove(&spartan);

    let shape_bytes = encode_shape(&shape);
    let vk_bytes = vk.to_bytes();
    let envelopes = [
        ("groth16 envelope", ProofEnvelope::from_artifacts(&g16)),
        ("spartan envelope", ProofEnvelope::from_artifacts(&spartan)),
    ];
    let mut inputs = vec![
        Input {
            name: "2x2x2:zkvc shape",
            prefixes: shape_prefixes(&shape_bytes),
            bytes: shape_bytes,
            decode: shape_decoder,
        },
        Input {
            name: "groth16 vk",
            prefixes: vk_prefixes(&vk_bytes),
            bytes: vk_bytes,
            decode: vk_decoder,
        },
    ];
    for (name, envelope) in envelopes {
        let bytes = envelope.to_bytes();
        inputs.push(Input {
            name,
            prefixes: envelope_prefixes(&bytes),
            bytes,
            decode: envelope_decoder,
        });
    }
    inputs
}

#[derive(Clone, Copy, Debug)]
enum Mutation {
    Truncate(usize),
    Flip(usize),
    Trailing,
    MaxPrefix(Prefix),
}

fn mutations(input: &Input) -> Vec<Mutation> {
    let n = input.bytes.len();
    (0..n)
        .map(Mutation::Truncate)
        .chain((0..n).map(Mutation::Flip))
        .chain([Mutation::Trailing])
        .chain(input.prefixes.iter().copied().map(Mutation::MaxPrefix))
        .collect()
}

fn apply(bytes: &[u8], mutation: Mutation) -> Vec<u8> {
    let mut out = bytes.to_vec();
    match mutation {
        Mutation::Truncate(len) => out.truncate(len),
        Mutation::Flip(pos) => out[pos] ^= 1 << (pos % 8),
        Mutation::Trailing => out.push(0),
        Mutation::MaxPrefix(p) => out[p.at..p.at + p.width].fill(0xFF),
    }
    out
}

/// ROADMAP item 8(a)'s known break: the point decoder checks the curve
/// equation but not that the encoding is canonical, so two kinds of
/// accepted point bytes re-encode differently. Every other accepted
/// mutation must re-encode to itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum KnownBreak {
    /// A finite point whose flag byte is neither 0 nor 1: it decodes as
    /// finite and re-encodes with flag 0.
    NonBinaryFlag,
    /// An identity (flag 1) whose coordinates re-encode as the canonical
    /// identity's: Spartan's row commitments go through projective form.
    IdentityCoordinates,
}

fn on_curve_coordinates(xy: &[u8]) -> bool {
    let x = Fq::from_bytes_le(xy[..32].try_into().expect("32 bytes"));
    let y = Fq::from_bytes_le(xy[32..64].try_into().expect("32 bytes"));
    matches!((x, y), (Some(x), Some(y)) if G1Affine { x, y, infinity: false }.is_on_curve())
}

/// Classifies an accepted mutation whose re-encoding differs, or `None` if
/// it is not the known break. `flag` is the byte the mutation flipped:
/// only a flip can reach a flag byte and keep every length intact.
fn known_break(mutation: Mutation, mutated: &[u8], reencoded: &[u8]) -> Option<KnownBreak> {
    let Mutation::Flip(flag) = mutation else {
        return None;
    };
    if flag < 64 || mutated.len() != reencoded.len() {
        return None;
    }
    let point = flag - 64..flag + 1;
    let same_outside = |range: std::ops::Range<usize>| {
        (0..mutated.len())
            .filter(|i| !range.contains(i))
            .all(|i| mutated[i] == reencoded[i])
    };
    if mutated[flag] > 1
        && reencoded[flag] == 0
        && same_outside(flag..flag + 1)
        && on_curve_coordinates(&mutated[point.clone()])
    {
        return Some(KnownBreak::NonBinaryFlag);
    }
    if mutated[flag] == 1
        && reencoded[point.clone()] == G1Affine::identity().to_bytes()
        && same_outside(point)
    {
        return Some(KnownBreak::IdentityCoordinates);
    }
    None
}

#[derive(Default)]
struct Outcome {
    verdicts: Vec<u8>,
    mutations: usize,
    accepted: usize,
    known_breaks: Vec<(&'static str, Mutation, KnownBreak)>,
    failures: Vec<String>,
}

fn run() -> Outcome {
    let mut outcome = Outcome::default();
    for input in corpus() {
        assert!(
            (input.decode)(&input.bytes).as_deref() == Some(&input.bytes[..]),
            "{}: honest bytes must decode and re-encode to themselves",
            input.name
        );
        for mutation in mutations(input) {
            let mutated = apply(&input.bytes, mutation);
            outcome.mutations += 1;
            let verdict = catch_unwind(AssertUnwindSafe(|| (input.decode)(&mutated)));
            let reencoded = match verdict {
                Err(_) => {
                    outcome
                        .failures
                        .push(format!("{}: {mutation:?} panicked", input.name));
                    outcome.verdicts.push(0);
                    continue;
                }
                Ok(None) => {
                    outcome.verdicts.push(0);
                    continue;
                }
                Ok(Some(reencoded)) => reencoded,
            };
            outcome.verdicts.push(1);
            outcome.accepted += 1;
            if let Mutation::MaxPrefix(p) = mutation {
                outcome.failures.push(format!(
                    "{}: all-ones prefix at {} accepted",
                    input.name, p.at
                ));
            }
            if reencoded == mutated {
                continue;
            }
            match known_break(mutation, &mutated, &reencoded) {
                Some(kind) => outcome.known_breaks.push((input.name, mutation, kind)),
                None => outcome.failures.push(format!(
                    "{}: {mutation:?} accepted but re-encodes differently",
                    input.name
                )),
            }
        }
    }
    outcome
}

fn outcome() -> &'static Outcome {
    static OUTCOME: OnceLock<Outcome> = OnceLock::new();
    OUTCOME.get_or_init(run)
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn every_decoder_survives_every_mutation() {
    let outcome = outcome();
    eprintln!(
        "{} mutations, {} accepted, {} known breaks",
        outcome.mutations,
        outcome.accepted,
        outcome.known_breaks.len()
    );
    assert!(
        outcome.failures.is_empty(),
        "{} failure(s):\n{}",
        outcome.failures.len(),
        outcome.failures.join("\n")
    );
}

#[test]
fn accept_set_matches_the_recorded_digest() {
    assert_eq!(hex(&sha256(&outcome().verdicts)), ACCEPT_SET_SHA256);
}

#[test]
fn known_break_8a_noncanonical_points_are_accepted() {
    // Until ROADMAP item 8(a) makes the point decoder canonical,
    // non-canonical point bytes decode. When it lands, these cases are
    // rejected instead: flip this test to assert that, and re-record the
    // digest above.
    let breaks = &outcome().known_breaks;
    assert!(
        breaks.iter().any(|b| b.2 == KnownBreak::NonBinaryFlag),
        "{breaks:?}"
    );
    // No flip in the corpus turns the flag of Spartan's first row
    // commitment from 0 into 1, so the second kind is shown directly. The
    // proof starts after the envelope header, with its version byte and
    // row count.
    let spartan = &corpus()[3];
    let proof = 8 + 4 + 32 * Prefix { at: 8, width: 4 }.read(&spartan.bytes) + 1;
    let flag = proof + 1 + 4 + 64;
    let mut identity = spartan.bytes.clone();
    identity[flag] = 1;
    let reencoded = (spartan.decode)(&identity).expect("an identity row commitment decodes");
    assert_eq!(
        known_break(Mutation::Flip(flag), &identity, &reencoded),
        Some(KnownBreak::IdentityCoordinates)
    );
}

#[test]
fn shape_truncations_and_trailing_bytes_are_typed() {
    let bytes = corpus()[0].bytes.clone();
    for cut in 0..bytes.len() {
        let err = decode_shape::<Fr>(&bytes[..cut]).map(|_| ()).unwrap_err();
        assert!(
            matches!(
                err,
                DecodeError::Truncated { .. } | DecodeError::Malformed { .. }
            ),
            "cut at {cut}: {err:?}"
        );
    }
    let mut extra = bytes;
    extra.push(0);
    assert!(matches!(
        decode_shape::<Fr>(&extra),
        Err(DecodeError::TrailingBytes { extra: 1 })
    ));
}

#[test]
fn shape_versions_older_than_supported_are_malformed_not_newer() {
    let mut bytes = corpus()[0].bytes.clone();
    bytes[0] = 0;
    assert!(matches!(
        decode_shape::<Fr>(&bytes),
        Err(DecodeError::Malformed {
            context: "shape version",
            ..
        })
    ));
    bytes[0] = 2;
    assert!(matches!(
        decode_shape::<Fr>(&bytes),
        Err(DecodeError::FutureVersion {
            found: 2,
            supported: 1,
            ..
        })
    ));
}
