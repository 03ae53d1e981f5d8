//! The job body: the one place a statement becomes a verified proof
//! envelope.
//!
//! Every proof the runtime serves — a pool worker thread's, `zkvc
//! prove`'s — comes out of [`run`]: statement → cached shape + keys →
//! witness pass → prover rng → `prove_assignment` → envelope bytes →
//! statement-bound verify, with the stage timings taken at those
//! boundaries. The proof bytes are a pure function of `(spec, seed,
//! statement id)`, which is what makes a proof bit-identical whichever
//! thread proves it; the pool dresses the [`Proved`] outcome as a
//! [`JobResult`](crate::JobResult).
//!
//! [`run`] is also the one guard: it installs the kernel cancellation
//! check, contains panics, and classifies whatever stopped the job as a
//! [`JobError`], so a bad job or an expired deadline is an answer, never
//! a dead thread.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkvc_core::api::{compile_shape, generate_witness_for, Circuit};
use zkvc_core::matmul::MatMulBuilder;
use zkvc_core::VerifierKey;
use zkvc_ff::Fr;
use zkvc_hash::Transcript;
use zkvc_nn::circuit::ModelStatement;

use crate::cache::{derive_verifier_key, KeyCache};
use crate::error::Error;
use crate::pool::JobError;
use crate::serial::ProofEnvelope;
use crate::spec::JobSpec;

/// The conditions that stop a job before it has a proof. Owns its
/// captures because the kernel-level check built from it is re-installed
/// inside MSM worker threads.
#[derive(Clone)]
pub(crate) struct StopWhen {
    /// Absolute time after which the job must stop.
    pub(crate) deadline: Option<Instant>,
    /// `true` once the job's pool or session has been cancelled.
    pub(crate) cancelled: Arc<dyn Fn() -> bool + Send + Sync>,
}

impl StopWhen {
    /// The reason the job must stop right now, if any. The deadline is
    /// checked first: a job that is both cancelled and past its deadline
    /// reports the deadline (a draining server that outlives a job's
    /// budget must still answer `deadline_exceeded`, not a generic
    /// cancel).
    pub(crate) fn status(&self) -> Option<JobError> {
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            Some(JobError::DeadlineExceeded)
        } else if (self.cancelled)() {
            Some(JobError::Cancelled)
        } else {
            None
        }
    }
}

/// What a finished job body hands its caller.
#[derive(Default)]
pub(crate) struct Proved {
    /// Envelope bytes. They carry no key: the Groth16 vk travels out of
    /// band (batch key table, serve `key` line).
    pub(crate) proof_bytes: Vec<u8>,
    /// Whether the envelope — after its bytes round trip — bound the
    /// statement's public outputs and verified against the cached key.
    pub(crate) verified: bool,
    pub(crate) cache_hit: bool,
    pub(crate) shape_digest: [u8; 32],
    pub(crate) num_constraints: usize,
    /// Statement construction plus the witness pass (key lookup and any
    /// setup it triggers are not counted).
    pub(crate) build_time: Duration,
    pub(crate) prove_time: Duration,
    pub(crate) verify_time: Duration,
}

/// Derives the fixed CRPC folding challenge shared by every job with the
/// same (seed, statement shape) — required so same-shape jobs share one
/// circuit template and therefore one cache entry. This is the paper's
/// "challenge sampled at setup time" Groth16 flow. It is public before any
/// `Y` exists, so CRPC statements under it are soundness-BROKEN against a
/// malicious prover (`docs/SOUNDNESS.md`, "served `Z`").
fn fixed_z(seed: u64, spec: &JobSpec) -> Fr {
    let mut t = Transcript::new(b"zkvc-runtime-template-z");
    t.append_u64(b"seed", seed);
    t.append_bytes(b"shape", spec.shape_label().as_bytes());
    t.append_bytes(b"strategy", spec.strategy().token().as_bytes());
    t.challenge_field(b"z")
}

/// Builds the deterministic statement for `(seed, id, spec)` as a *lazy*
/// [`Circuit`] trait object: matmul inputs (or a model statement's
/// configuration) are derived from the seeded per-job rng, and — for CRPC
/// strategies — the shape-level fixed folding challenge. **No constraint
/// synthesis happens here**: the returned circuit drives the two-pass
/// pipeline on demand (shape pass for setup/digests, witness pass for
/// proving). This is exactly the statement the pool proves for job `id`,
/// so external tools (the `zkvc` CLI's `verify` subcommand) can
/// reconstruct the circuit a proof refers to, including its expected
/// public outputs.
pub fn build_statement(seed: u64, id: usize, spec: &JobSpec) -> Box<dyn Circuit> {
    let input_seed = seed ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    match spec {
        JobSpec::MatMul {
            dims,
            strategy,
            public_outputs,
            ..
        } => {
            let mut rng = StdRng::seed_from_u64(input_seed);
            let circuit = MatMulBuilder::new(dims.0, dims.1, dims.2)
                .strategy(*strategy)
                .public_outputs(*public_outputs)
                .z(fixed_z(seed, spec))
                .build_circuit_random(&mut rng);
            Box::new(circuit)
        }
        JobSpec::Model {
            preset, strategy, ..
        } => {
            let (model, schedule) = preset.config();
            // The challenge is shape-level (shared across ids) while the
            // weights are per-id, so a batch of model jobs shares one
            // circuit shape and therefore one cache entry.
            let circuit =
                ModelStatement::new(model, schedule, *strategy, input_seed, fixed_z(seed, spec));
            Box::new(circuit)
        }
    }
}

/// The per-job prover randomness, a function of the statement's
/// determinism inputs only.
pub(crate) fn prover_rng(seed: u64, statement_id: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (statement_id as u64).wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// The one envelope check: `bytes` must decode, name `key`'s backend,
/// carry exactly `expected` as its public inputs, and verify under `key`.
/// The public-input comparison is statement binding: a replayed
/// same-shape proof for a different `Y` dies there, before any pairing.
/// The pool's self-check and [`StatementVerifier::check`] both come here.
pub(crate) fn check_envelope(
    bytes: &[u8],
    expected: &[Fr],
    key: &VerifierKey,
) -> Result<(), Error> {
    let envelope = ProofEnvelope::decode(bytes)?;
    if envelope.backend() != key.backend() {
        return Err(Error::BackendMismatch {
            proof: envelope.backend(),
            expected: key.backend(),
        });
    }
    if envelope.public_inputs != expected {
        return Err(Error::StatementMismatch);
    }
    if envelope.verify_with_key(key) {
        Ok(())
    } else {
        Err(Error::VerificationFailed)
    }
}

/// The verifier for the statement `(spec, seed)` names, built from those
/// two values alone: the public outputs of
/// [`build_statement`]`(seed, 0, spec)` and the key the prover's setup
/// would derive for its shape under `seed`. Nothing a prover sends goes
/// into it. `zkvc verify` and `zkvc client` check envelopes with it.
#[derive(Debug)]
pub struct StatementVerifier {
    expected: Vec<Fr>,
    key: VerifierKey,
}

impl StatementVerifier {
    /// Builds the statement, compiles its shape and derives its key.
    pub fn new(spec: &JobSpec, seed: u64) -> Self {
        let statement = build_statement(seed, 0, spec);
        let shape = Arc::new(compile_shape(statement.as_ref()));
        StatementVerifier {
            expected: statement.public_outputs(),
            key: derive_verifier_key(spec.backend(), &shape, seed),
        }
    }

    /// The public outputs an envelope must carry: empty for a `:private`
    /// statement, whose envelopes must then carry none.
    pub fn expected_outputs(&self) -> &[Fr] {
        &self.expected
    }

    /// Checks envelope bytes against the statement. Fails with the decode
    /// error, [`Error::BackendMismatch`], [`Error::StatementMismatch`] or
    /// [`Error::VerificationFailed`], in that order.
    pub fn check(&self, bytes: &[u8]) -> Result<(), Error> {
        check_envelope(bytes, &self.expected, &self.key)
    }
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one job under the cancellation + panic guards. Never panics.
///
/// `statement_id` is the job id for batch jobs and pinned to 0 for
/// requests, so their proofs match `zkvc prove --spec S --seed N`.
pub(crate) fn run(
    cache: &KeyCache,
    spec: &JobSpec,
    seed: u64,
    statement_id: usize,
    stop: &StopWhen,
) -> Result<Proved, JobError> {
    if let Some(error) = stop.status() {
        return Err(error);
    }
    let check: zkvc_ff::cancel::CancelCheck = {
        let stop = stop.clone();
        Arc::new(move || stop.status().is_some())
    };
    catch_unwind(AssertUnwindSafe(|| {
        crate::fault::fire_panic("pool.pickup.panic");
        let _cancel = zkvc_ff::cancel::install(check);
        prove(cache, spec, seed, statement_id, stop)
    }))
    .unwrap_or_else(|payload| {
        Err(if payload.is::<zkvc_ff::cancel::Cancelled>() {
            // A kernel checkpoint stopped the job cooperatively;
            // re-derive which condition tripped it.
            stop.status().unwrap_or(JobError::Cancelled)
        } else {
            JobError::Panicked(panic_message(payload.as_ref()))
        })
    })
}

fn prove(
    cache: &KeyCache,
    spec: &JobSpec,
    seed: u64,
    statement_id: usize,
    stop: &StopWhen,
) -> Result<Proved, JobError> {
    let t0 = Instant::now();
    let statement = build_statement(seed, statement_id, spec);
    let statement_time = t0.elapsed();

    // Cooperative checkpoint: a cancellation that lands mid-build skips
    // the (much more expensive) setup + prove work.
    if let Some(error) = stop.status() {
        return Err(error);
    }

    // Shape + keys: on a warm template no synthesis of any kind runs —
    // the compiled CSR shape and key material come straight from the
    // cache, keyed by the job spec. The first job of a spec pays one
    // witness-free shape pass plus the setup.
    let backend = spec.backend();
    let (keys, cache_hit) =
        cache.get_or_setup_template(backend, seed, &spec.to_string(), statement.as_ref());

    // Witness pass: the only per-job synthesis work — a flat assignment,
    // validated against the cached shape.
    let t1 = Instant::now();
    let witness = generate_witness_for(statement.as_ref(), &keys.shape);
    let build_time = statement_time + t1.elapsed();

    let mut rng = prover_rng(seed, statement_id);
    let t2 = Instant::now();
    let artifacts = backend.prove_assignment(&keys.prover, &witness, &mut rng);
    let prove_time = t2.elapsed();

    // Cross the byte boundary before verifying, as a client would.
    // Verification checks statement binding first: the envelope's public
    // inputs must be exactly the statement's expected public outputs (the
    // witness pass's instance values).
    let proof_bytes = ProofEnvelope::from_artifacts(&artifacts).to_bytes();
    let t3 = Instant::now();
    let verified = check_envelope(&proof_bytes, &witness.instance, &keys.verifier).is_ok();
    Ok(Proved {
        proof_bytes,
        verified,
        cache_hit,
        shape_digest: keys.digest,
        num_constraints: keys.shape.num_constraints(),
        build_time,
        prove_time,
        verify_time: t3.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_classifies_what_stopped_the_job() {
        let (spec, _) = JobSpec::parse("2x2x2:zkvc:s").unwrap();
        let cache = KeyCache::new();
        let expired = StopWhen {
            deadline: Some(Instant::now()),
            cancelled: Arc::new(|| true),
        };
        assert_eq!(
            run(&cache, &spec, 1, 0, &expired).err(),
            Some(JobError::DeadlineExceeded),
            "deadline outranks cancellation"
        );
        let cancelled = StopWhen {
            deadline: None,
            cancelled: Arc::new(|| true),
        };
        assert_eq!(
            run(&cache, &spec, 1, 0, &cancelled).err(),
            Some(JobError::Cancelled)
        );
        assert_eq!(cache.stats().misses, 0, "a stopped job sets nothing up");
    }
}
