//! The `zkvc client` load driver: connects to a serve endpoint, streams
//! request lines, and measures what comes back.
//!
//! The client is also the protocol's conformance checker: it verifies
//! that result ids belong to its own session (id spaces must never cross
//! connections), that the handshake speaks `zkvc-serve/v1`, and — unless
//! disabled — it **re-verifies every returned proof envelope locally**:
//! statement binding against the deterministic statement for `(spec,
//! seed)`, Groth16 pairing checks against the *streamed* `key` lines
//! (never a key the client derived itself — that is the whole
//! trust-the-wire exercise), and transparent Spartan verification
//! against a key derived from `(spec, seed)`, as `zkvc verify` derives it.
//!
//! Per-proof latency (request write to result read) and aggregate
//! throughput are printed in the CLI summary; they are informational, and
//! the repository benchmark under `benchmark/` is the one measurement.

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use zkvc_core::api::compile_shape;
use zkvc_core::{Backend, VerifierKey};
use zkvc_ff::codec::hex;
use zkvc_ff::Fr;
use zkvc_hash::sha256;
use zkvc_r1cs::CompiledShape;

use crate::cache::derive_verifier_key;
use crate::codec::{CLIENT_REPORT_SCHEMA, SERVE_PROTO};
use crate::error::Error;
use crate::job::build_statement;
use crate::net::addr::{AnyStream, ListenAddr};
use crate::serial::ProofEnvelope;
use crate::spec::JobSpec;
use crate::util::{json_escape, unhex};
use crate::wire::{field, parse_json_object, Json};

/// Statement data memoised per `(spec, seed)` during the local
/// verification pass: the public inputs and the locally compiled shape.
type StatementMemo = HashMap<(String, u64), (Vec<Fr>, Arc<CompiledShape<Fr>>)>;

/// Configuration for [`run_client`].
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// The serve endpoint to connect to.
    pub addr: ListenAddr,
    /// The spec every generated request proves.
    pub spec: JobSpec,
    /// Generated requests per session (ignored when `jobs` is set).
    pub count: usize,
    /// Statement seed attached to generated requests (`None` leaves the
    /// server's default in charge).
    pub seed: Option<u64>,
    /// Concurrent connections, each its own session.
    pub sessions: usize,
    /// Whether returned envelopes are re-verified locally.
    pub verify: bool,
    /// Raw request lines to stream instead of generated ones (the
    /// `--jobs FILE` mode). Ids are the file's own; latency and
    /// id-scoping checks are skipped, and retries only cover the
    /// connect (raw lines cannot be resubmitted idempotently).
    pub jobs: Option<Vec<String>>,
    /// Retry attempts after the first try. A retry reconnects and
    /// resubmits only the still-unanswered client-assigned ids, so
    /// retries are idempotent: proofs are deterministic in `(spec,
    /// seed)` and answered ids are never resent. `0` disables retrying.
    pub retries: usize,
    /// Base for the exponential retry backoff, in milliseconds (delay
    /// before retry `r` is `backoff_ms * 2^(r-1)` plus seeded jitter,
    /// floored at any `retry_after_ms` hint a shed response carried).
    pub backoff_ms: u64,
    /// Seed for the deterministic backoff jitter: same seed, same
    /// session index, same attempt — same delay.
    pub retry_seed: u64,
    /// `deadline_ms` attached to every generated request (`None` sends
    /// none): the server abandons a proof still running this long after
    /// admission and answers `deadline_exceeded`.
    pub deadline_ms: Option<u64>,
}

impl ClientConfig {
    /// Defaults: 8 generated requests, 1 session, local verification on,
    /// 2 retries with a 50 ms backoff base.
    pub fn new(addr: ListenAddr, spec: JobSpec) -> Self {
        ClientConfig {
            addr,
            spec,
            count: 8,
            seed: None,
            sessions: 1,
            verify: true,
            jobs: None,
            retries: 2,
            backoff_ms: 50,
            retry_seed: 0,
            deadline_ms: None,
        }
    }

    /// Sets the generated-request count per session.
    pub fn count(mut self, count: usize) -> Self {
        self.count = count;
        self
    }

    /// Sets the statement seed attached to generated requests.
    pub fn seed(mut self, seed: Option<u64>) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of concurrent sessions.
    pub fn sessions(mut self, sessions: usize) -> Self {
        self.sessions = sessions.max(1);
        self
    }

    /// Enables/disables local envelope verification.
    pub fn verify(mut self, verify: bool) -> Self {
        self.verify = verify;
        self
    }

    /// Streams these raw request lines instead of generated ones.
    pub fn jobs(mut self, jobs: Option<Vec<String>>) -> Self {
        self.jobs = jobs;
        self
    }

    /// Sets the retry budget (`0` disables retrying).
    pub fn retries(mut self, retries: usize) -> Self {
        self.retries = retries;
        self
    }

    /// Sets the exponential-backoff base in milliseconds.
    pub fn backoff_ms(mut self, ms: u64) -> Self {
        self.backoff_ms = ms;
        self
    }

    /// Sets the deterministic backoff-jitter seed.
    pub fn retry_seed(mut self, seed: u64) -> Self {
        self.retry_seed = seed;
        self
    }

    /// Sets the per-request deadline attached to generated requests.
    pub fn deadline_ms(mut self, ms: Option<u64>) -> Self {
        self.deadline_ms = ms;
        self
    }
}

/// One job's outcome in the deterministic client report (see
/// [`ClientReport::render_report_json`]).
#[derive(Clone, Debug)]
pub struct JobRecord {
    /// The result's `id` field, as its JSON token.
    pub id: String,
    /// The server's verdict for the proof.
    pub verified: bool,
    /// SHA-256 of the decoded proof envelope bytes (empty for error
    /// results or when the server omitted `proof_hex`).
    pub proof_sha256: String,
}

/// What one client session observed.
#[derive(Clone, Debug, Default)]
pub struct SessionReport {
    /// Client-side session index (the `cK-` id prefix).
    pub session: usize,
    /// Request lines successfully written.
    pub sent: usize,
    /// `result` lines received.
    pub results: usize,
    /// `error` lines, unparseable lines, and handshake problems.
    pub errors: usize,
    /// Results whose id was not one of this session's own.
    pub id_mismatches: usize,
    /// Results the *server* reported unverified (or failed).
    pub verdict_failures: usize,
    /// Envelopes that passed local re-verification.
    pub verified_local: usize,
    /// Envelopes that failed local re-verification (binding, pairing,
    /// missing key, undecodable proof).
    pub verify_failures: usize,
    /// Request-to-result latency per job, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Shed responses received (the request stayed unanswered and was
    /// resubmitted on a later attempt — informational, not a failure).
    pub shed: usize,
    /// Connection attempts this session made (1 = no retries needed).
    pub attempts: usize,
    /// Whether the session ended with the server's `summary` line.
    pub summary_seen: bool,
    /// Per-job records for the deterministic report.
    pub jobs: Vec<JobRecord>,
}

/// Aggregate over all sessions of one [`run_client`] call.
#[derive(Clone, Debug, Default)]
pub struct ClientReport {
    /// Per-session breakdowns.
    pub sessions: Vec<SessionReport>,
    /// Wall-clock for the whole run, seconds.
    pub wall_s: f64,
}

impl ClientReport {
    fn sum(&self, f: impl Fn(&SessionReport) -> usize) -> usize {
        self.sessions.iter().map(f).sum()
    }

    /// Total `result` lines received.
    pub fn results(&self) -> usize {
        self.sum(|s| s.results)
    }

    /// Total results the server reported unverified.
    pub fn verdict_failures(&self) -> usize {
        self.sum(|s| s.verdict_failures)
    }

    /// Total envelopes that passed local re-verification.
    pub fn verified_local(&self) -> usize {
        self.sum(|s| s.verified_local)
    }

    /// Total envelopes that failed local re-verification.
    pub fn verify_failures(&self) -> usize {
        self.sum(|s| s.verify_failures)
    }

    /// Total error lines / protocol problems.
    pub fn errors(&self) -> usize {
        self.sum(|s| s.errors)
    }

    /// Total results whose id belonged to some other session.
    pub fn id_mismatches(&self) -> usize {
        self.sum(|s| s.id_mismatches)
    }

    /// Total shed responses (each was later retried).
    pub fn sheds(&self) -> usize {
        self.sum(|s| s.shed)
    }

    /// Total connection attempts across all sessions.
    pub fn attempts(&self) -> usize {
        self.sum(|s| s.attempts)
    }

    /// Results per wall-clock second across all sessions.
    pub fn jobs_per_sec(&self) -> f64 {
        if self.wall_s <= 0.0 {
            return 0.0;
        }
        self.results() as f64 / self.wall_s
    }

    /// The `pct`-th latency percentile (nearest-rank over all sessions),
    /// in milliseconds; 0 when no latencies were measured.
    pub fn latency_ms(&self, pct: f64) -> f64 {
        let mut all: Vec<f64> = self
            .sessions
            .iter()
            .flat_map(|s| s.latencies_ms.iter().copied())
            .collect();
        if all.is_empty() {
            return 0.0;
        }
        all.sort_by(|a, b| a.partial_cmp(b).expect("latency NaN"));
        let rank = ((pct / 100.0) * (all.len() as f64 - 1.0)).round() as usize;
        all[rank.min(all.len() - 1)]
    }

    /// `true` when every session got its summary, every verdict was
    /// positive, ids stayed in their sessions, and (when local
    /// verification ran) every envelope checked out.
    pub fn all_ok(&self) -> bool {
        self.sessions.iter().all(|s| s.summary_seen)
            && self.verdict_failures() == 0
            && self.verify_failures() == 0
            && self.id_mismatches() == 0
            && self.errors() == 0
    }

    /// Human summary for the CLI.
    pub fn render_table(&self) -> String {
        format!(
            "zkvc client: {} session(s), {} results in {:.3}s ({:.2} jobs/s)\n  \
             latency p50 {:.3} ms, p99 {:.3} ms\n  \
             server verdicts: {} ok, {} failed; local verification: {} ok, {} failed\n  \
             errors {}, id mismatches {}, shed {} (over {} connection attempts)",
            self.sessions.len(),
            self.results(),
            self.wall_s,
            self.jobs_per_sec(),
            self.latency_ms(50.0),
            self.latency_ms(99.0),
            self.results() - self.verdict_failures(),
            self.verdict_failures(),
            self.verified_local(),
            self.verify_failures(),
            self.errors(),
            self.id_mismatches(),
            self.sheds(),
            self.attempts(),
        )
    }

    /// Deterministic per-job report (flat JSON): ids, verdicts, and
    /// proof digests, sorted — two runs against deterministic servers
    /// diff clean, which is what the CI smoke job checks.
    pub fn render_report_json(&self) -> String {
        let mut jobs: Vec<&JobRecord> = self.sessions.iter().flat_map(|s| s.jobs.iter()).collect();
        jobs.sort_by(|a, b| (&a.id, &a.proof_sha256).cmp(&(&b.id, &b.proof_sha256)));
        let body: Vec<String> = jobs
            .iter()
            .map(|j| {
                format!(
                    "{{\"id\":{},\"verified\":{},\"proof_sha256\":\"{}\"}}",
                    j.id, j.verified, j.proof_sha256
                )
            })
            .collect();
        format!(
            "{{\"schema\":\"{CLIENT_REPORT_SCHEMA}\",\"jobs\":[{}]}}",
            body.join(",")
        )
    }
}

/// Runs `config.sessions` concurrent client sessions against the
/// endpoint and aggregates what they saw. Connection failures and hard
/// stream errors are returned; protocol-level problems are counted in
/// the report instead.
pub fn run_client(config: &ClientConfig) -> Result<ClientReport, Error> {
    let started = Instant::now();
    let mut handles = Vec::new();
    for k in 0..config.sessions.max(1) {
        let config = config.clone();
        handles.push(thread::spawn(move || run_one_session(&config, k)));
    }
    let mut sessions = Vec::new();
    for handle in handles {
        let report = handle
            .join()
            .map_err(|_| Error::Request("client session thread panicked".into()))??;
        sessions.push(report);
    }
    Ok(ClientReport {
        sessions,
        wall_s: started.elapsed().as_secs_f64(),
    })
}

/// A `result` line held until the session ends: verification runs after
/// the read loop so `key` lines that arrive late (another worker's
/// result raced ahead of the announcement) are still available.
struct PendingResult {
    id_token: String,
    spec_str: String,
    seed: u64,
    verified: bool,
    proof_hex: Option<String>,
    is_error: bool,
}

fn str_val(v: &Json) -> Option<&str> {
    match v {
        Json::Str(s) => Some(s),
        _ => None,
    }
}

fn num_u64(v: &Json) -> Option<u64> {
    match v {
        Json::Num(raw) => raw.parse().ok(),
        _ => None,
    }
}

/// Deterministic jitter in `[0, modulus)` from `(seed, session,
/// attempt)` — splitmix64, so retry timing is reproducible by pinning
/// `retry_seed` (which is what keeps chaos runs diffable).
fn jitter(seed: u64, session: u64, attempt: u64, modulus: u64) -> u64 {
    if modulus == 0 {
        return 0;
    }
    let mut x = seed
        ^ session.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ attempt.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x % modulus
}

/// The pause before retry `attempt` (1-based): exponential in the
/// backoff base plus seeded jitter, floored at the strongest
/// `retry_after_ms` hint the previous attempt's shed responses carried,
/// capped at 10 s.
fn retry_delay(config: &ClientConfig, k: usize, attempt: usize, shed_hint: u64) -> Duration {
    let shift = attempt.saturating_sub(1).min(10) as u32;
    let base = config.backoff_ms.saturating_mul(1u64 << shift);
    let delay = base
        .saturating_add(jitter(
            config.retry_seed,
            k as u64,
            attempt as u64,
            config.backoff_ms,
        ))
        .max(shed_hint)
        .min(10_000);
    Duration::from_millis(delay)
}

/// What one connection attempt observed beyond the per-job accounting:
/// protocol-level noise is folded into the session report only when the
/// attempt is terminal — lines torn by a connection a retry then
/// replaced are not errors of the session's final outcome.
#[derive(Default)]
struct AttemptTally {
    proto_errors: usize,
    summary_seen: bool,
}

fn run_one_session(config: &ClientConfig, k: usize) -> Result<SessionReport, Error> {
    let requests: Vec<(Option<String>, String)> = match &config.jobs {
        Some(lines) => lines
            .iter()
            .filter(|l| !l.trim().is_empty())
            .map(|l| (None, l.trim().to_string()))
            .collect(),
        None => (0..config.count)
            .map(|i| {
                let id = format!("c{k}-{i}");
                let seed = config
                    .seed
                    .map(|s| format!(",\"seed\":{s}"))
                    .unwrap_or_default();
                let deadline = config
                    .deadline_ms
                    .map(|ms| format!(",\"deadline_ms\":{ms}"))
                    .unwrap_or_default();
                let line = format!(
                    "{{\"spec\":\"{}\",\"id\":\"{id}\"{seed}{deadline}}}",
                    json_escape(&config.spec.to_string())
                );
                (Some(id), line)
            })
            .collect(),
    };
    let generated = config.jobs.is_none();
    // The retry ledger: ids with no terminal answer yet. A retry
    // resubmits exactly these — answered ids are never resent, so a
    // flaky connection cannot double-count a job in the report.
    let mut unanswered: HashSet<String> =
        requests.iter().filter_map(|(id, _)| id.clone()).collect();

    let mut report = SessionReport {
        session: k,
        ..SessionReport::default()
    };
    let mut keys: HashMap<(String, u64), zkvc_groth16::VerifyingKey> = HashMap::new();
    let mut pending: Vec<PendingResult> = Vec::new();

    let attempts = config.retries + 1;
    let mut shed_hint = 0u64;
    let mut last_failure: Option<Error> = None;
    let mut settled = false;
    for attempt in 0..attempts {
        if attempt > 0 {
            let delay = retry_delay(config, k, attempt, shed_hint);
            let last = last_failure
                .as_ref()
                .map(std::string::ToString::to_string)
                .unwrap_or_default();
            eprintln!(
                "zkvc client: session {k} attempt {attempt} of {attempts} failed ({last}); retrying in {} ms",
                delay.as_millis()
            );
            thread::sleep(delay);
            shed_hint = 0;
        }
        report.attempts += 1;
        let sent_before = report.sent;
        match run_attempt(
            config,
            k,
            &requests,
            &mut unanswered,
            &mut report,
            &mut keys,
            &mut pending,
            &mut shed_hint,
        ) {
            Ok(tally) => {
                report.summary_seen = tally.summary_seen;
                if tally.summary_seen && (!generated || unanswered.is_empty()) {
                    report.errors += tally.proto_errors;
                    settled = true;
                    break;
                }
                if !generated && report.sent > sent_before {
                    // Raw `--jobs` lines cannot be resubmitted
                    // idempotently once any went out: settle with what
                    // was observed (`all_ok` will be false).
                    report.errors += tally.proto_errors;
                    settled = true;
                    break;
                }
                last_failure = Some(if shed_hint > 0 {
                    Error::Shed {
                        retry_after_ms: shed_hint,
                    }
                } else if generated && !unanswered.is_empty() {
                    Error::Request(format!(
                        "{} request(s) unanswered when the stream ended",
                        unanswered.len()
                    ))
                } else {
                    Error::Request("stream ended before the summary line".into())
                });
            }
            Err(e) => last_failure = Some(e),
        }
    }
    if !settled {
        let last = last_failure.unwrap_or_else(|| Error::Request("no attempt was made".into()));
        if config.retries == 0 {
            // No retry budget configured: surface the original failure
            // untranslated, as pre-retry clients did.
            return Err(last);
        }
        let message = last.to_string();
        eprintln!("zkvc client: session {k} giving up after {attempts} attempts: {message}");
        return Err(Error::RetriesExhausted {
            attempts,
            last: message,
        });
    }

    // Local verification pass, now that every key line is in hand.
    // Statements (and Spartan preprocessing) are deterministic in
    // `(spec, seed)`, so each pair is derived once.
    let mut statements = StatementMemo::new();
    let mut spartan_verifiers: HashMap<(String, u64), VerifierKey> = HashMap::new();
    for p in &pending {
        let mut record = JobRecord {
            id: p.id_token.clone(),
            verified: p.verified,
            proof_sha256: String::new(),
        };
        if let Some(proof_hex) = &p.proof_hex {
            if let Some(bytes) = unhex(proof_hex) {
                record.proof_sha256 = hex(&sha256(&bytes));
            }
        }
        if config.verify && !p.is_error {
            match verify_result(p, &keys, &mut statements, &mut spartan_verifiers) {
                Some(true) => report.verified_local += 1,
                Some(false) | None => report.verify_failures += 1,
            }
        }
        report.jobs.push(record);
    }
    Ok(report)
}

/// One connection's worth of the session: connect, stream the
/// still-unanswered requests, read responses until summary or EOF.
/// Results, latencies, shed counts and key lines accumulate straight
/// into the caller's state; protocol noise comes back in the tally for
/// the caller to fold in (or discard, when this attempt gets retried).
#[allow(clippy::too_many_arguments)]
fn run_attempt(
    config: &ClientConfig,
    k: usize,
    requests: &[(Option<String>, String)],
    unanswered: &mut HashSet<String>,
    report: &mut SessionReport,
    keys: &mut HashMap<(String, u64), zkvc_groth16::VerifyingKey>,
    pending: &mut Vec<PendingResult>,
    shed_hint: &mut u64,
) -> Result<AttemptTally, Error> {
    let stream = AnyStream::connect(&config.addr)?;
    let writer_stream = stream
        .try_clone()
        .map_err(|e| Error::io(config.addr.to_string(), e))?;
    let mut reader = BufReader::new(stream);

    let batch: Vec<(Option<String>, String)> = requests
        .iter()
        .filter(|(id, _)| id.as_ref().is_none_or(|i| unanswered.contains(i)))
        .cloned()
        .collect();

    let sent_at: Arc<Mutex<HashMap<String, Instant>>> = Arc::new(Mutex::new(HashMap::new()));
    let writer = {
        let sent_at = Arc::clone(&sent_at);
        let mut w = writer_stream;
        thread::spawn(move || -> usize {
            let mut sent = 0usize;
            for (id, line) in batch {
                if let Some(id) = id {
                    sent_at
                        .lock()
                        .expect("sent-at map poisoned")
                        .insert(id, Instant::now());
                }
                if w.write_all(line.as_bytes())
                    .and_then(|_| w.write_all(b"\n"))
                    .is_err()
                {
                    break;
                }
                sent += 1;
            }
            // Half-close: the server reads EOF once it has consumed
            // everything, flushes our results, and summarises — while
            // this end keeps reading.
            let _ = w.shutdown_write();
            sent
        })
    };

    let generated = config.jobs.is_none();
    let mut tally = AttemptTally::default();
    let mut proto_ok = false;
    let id_prefix = format!("c{k}-");
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                report.sent += writer.join().unwrap_or(0);
                return Err(Error::io(config.addr.to_string(), e));
            }
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let Ok(fields) = parse_json_object(trimmed) else {
            tally.proto_errors += 1;
            continue;
        };
        match field(&fields, "type").and_then(str_val).unwrap_or("") {
            "ready" => {
                proto_ok = field(&fields, "proto").and_then(str_val) == Some(SERVE_PROTO);
            }
            "key" => {
                let digest = field(&fields, "shape_digest").and_then(str_val);
                let seed = field(&fields, "seed").and_then(num_u64);
                let vk = field(&fields, "vk_hex")
                    .and_then(str_val)
                    .and_then(unhex)
                    .and_then(|bytes| zkvc_groth16::VerifyingKey::from_bytes(&bytes));
                match (digest, seed, vk) {
                    (Some(digest), Some(seed), Some(vk)) => {
                        keys.insert((digest.to_string(), seed), vk);
                    }
                    _ => tally.proto_errors += 1,
                }
            }
            "result" => {
                report.results += 1;
                // `fresh` guards the per-job accounting: a duplicate
                // terminal answer (or an id from another session's space)
                // must not add a second JobRecord — that is what keeps
                // `--report` byte-diffable across retries.
                let mut fresh = true;
                if generated {
                    match field(&fields, "id") {
                        Some(Json::Str(id)) if id.starts_with(&id_prefix) => {
                            let t0 = sent_at.lock().expect("sent-at map poisoned").remove(id);
                            if let Some(t0) = t0 {
                                report.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                            }
                            if !unanswered.remove(id) {
                                report.id_mismatches += 1;
                                fresh = false;
                            }
                        }
                        _ => {
                            report.id_mismatches += 1;
                            fresh = false;
                        }
                    }
                }
                if fresh {
                    let verified = field(&fields, "verified") == Some(&Json::Bool(true));
                    if !verified {
                        report.verdict_failures += 1;
                    }
                    pending.push(PendingResult {
                        id_token: field(&fields, "id")
                            .map_or_else(|| "null".into(), Json::to_token),
                        spec_str: field(&fields, "spec")
                            .and_then(str_val)
                            .unwrap_or("")
                            .to_string(),
                        seed: field(&fields, "seed").and_then(num_u64).unwrap_or(0),
                        verified,
                        proof_hex: field(&fields, "proof_hex")
                            .and_then(str_val)
                            .map(str::to_string),
                        is_error: field(&fields, "code").is_some(),
                    });
                }
            }
            "error" => {
                // A shed answer for one of our own still-open ids is not a
                // failure: the request was refused before admission, stays
                // on the retry ledger, and the hint shapes the next
                // backoff. Everything else on an error line is counted.
                let retry_after = field(&fields, "retry_after_ms").and_then(num_u64);
                let ours = generated
                    && matches!(field(&fields, "id"),
                        Some(Json::Str(id)) if id.starts_with(&id_prefix) && unanswered.contains(id));
                match retry_after {
                    Some(hint) if ours => {
                        report.shed += 1;
                        *shed_hint = (*shed_hint).max(hint.max(1));
                    }
                    _ => tally.proto_errors += 1,
                }
            }
            "summary" => {
                tally.summary_seen = true;
                break;
            }
            _ => tally.proto_errors += 1,
        }
    }
    report.sent += writer.join().unwrap_or(0);
    if !proto_ok {
        tally.proto_errors += 1;
    }
    Ok(tally)
}

/// Re-verifies one result envelope exactly the way `zkvc verify` would:
/// statement binding first, then cryptographic verification against the
/// expected key for the shape — the streamed vk for Groth16 (looked up
/// by the *locally recomputed* shape digest, so a server lying about
/// digests fails here), for Spartan the key [`derive_verifier_key`] gives
/// for the shape and seed.
fn verify_result(
    p: &PendingResult,
    keys: &HashMap<(String, u64), zkvc_groth16::VerifyingKey>,
    statements: &mut StatementMemo,
    spartan_verifiers: &mut HashMap<(String, u64), VerifierKey>,
) -> Option<bool> {
    let (spec, _count) = JobSpec::parse(&p.spec_str).ok()?;
    let bytes = unhex(p.proof_hex.as_deref()?)?;
    let envelope = ProofEnvelope::decode(&bytes).ok()?;
    if envelope.backend() != spec.backend() {
        return Some(false);
    }
    let key = (p.spec_str.clone(), p.seed);
    let (expected, shape) = statements.entry(key.clone()).or_insert_with(|| {
        let statement = build_statement(p.seed, 0, &spec);
        let shape = Arc::new(compile_shape(statement.as_ref()));
        (statement.public_outputs(), shape)
    });
    if !expected.is_empty() && &envelope.public_inputs != expected {
        return Some(false);
    }
    match envelope.backend() {
        Backend::Groth16 => {
            let vk = keys.get(&(hex(&shape.digest), p.seed))?;
            Some(envelope.verify_with_key(&VerifierKey::Groth16(vk.clone())))
        }
        Backend::Spartan => {
            let verifier = spartan_verifiers
                .entry(key)
                .or_insert_with(|| derive_verifier_key(Backend::Spartan, shape, p.seed));
            Some(envelope.verify_with_key(verifier))
        }
    }
}
