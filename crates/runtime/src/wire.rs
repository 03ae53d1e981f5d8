//! The `zkvc-serve/v1` wire protocol, factored out of the serve loop so
//! every transport — the stdin/stdout session, the Unix-socket and TCP
//! listener sessions, and the `zkvc client` load driver — speaks the
//! exact same dialect from one implementation.
//!
//! The protocol is JSON-lines with **flat** objects only (no nested
//! containers): one request per line in, one tagged response per line
//! out. This module owns framing ([`LineReader`] — bounded reads that
//! discard oversized lines whole and survive read timeouts without
//! losing partial-line state), parsing ([`parse_request`] /
//! [`parse_json_object`]), and response rendering ([`result_line`] /
//! [`error_line`]). See `docs/PROTOCOL.md` for the frozen schema.

use std::io::{self, BufRead};

use zkvc_core::Backend;
use zkvc_ff::codec::hex;

use crate::codec::WORKER_PROTO;
use crate::error::Error;
use crate::pool::{JobError, JobResult};
use crate::sched::Priority;
use crate::spec::JobSpec;
use crate::util::{json_escape, unhex};

/// Why a request line was rejected before parsing.
#[derive(Debug, PartialEq, Eq)]
pub enum LineReject {
    /// The line exceeded the size bound; carries the total bytes consumed.
    TooLarge(usize),
    /// The line was not valid UTF-8 (rejected outright: lossy decoding
    /// would corrupt echoed ids without the client noticing).
    NotUtf8,
}

/// A bounded, resumable line reader: reads one request line of at most
/// `max` bytes per call, keeping partial-line state across calls so a
/// read timeout (`WouldBlock`/`TimedOut` from a socket with a read
/// deadline) can be used as a periodic wakeup — the socket sessions poll
/// their shutdown and idle flags this way — without ever tearing a line.
///
/// Oversized lines are consumed and discarded in full so the stream stays
/// line-aligned; the reject carries the byte count actually seen.
#[derive(Debug)]
pub struct LineReader {
    buf: Vec<u8>,
    total: usize,
    saw_any: bool,
    max: usize,
}

impl LineReader {
    /// A reader enforcing a `max`-byte line bound.
    pub fn new(max: usize) -> Self {
        LineReader {
            buf: Vec::new(),
            total: 0,
            saw_any: false,
            max,
        }
    }

    /// Reads the next line. Returns `Ok(None)` at EOF,
    /// `Ok(Some(Err(..)))` for a rejected line, and the line without its
    /// terminator otherwise. An `Err` from the underlying stream is
    /// returned as-is with all partial-line state preserved — callers
    /// treating timeouts as ticks simply call again.
    pub fn read_line<R: BufRead>(
        &mut self,
        input: &mut R,
    ) -> io::Result<Option<Result<String, LineReject>>> {
        loop {
            let chunk = input.fill_buf()?;
            if chunk.is_empty() {
                if !self.saw_any {
                    return Ok(None); // EOF before any byte of a line
                }
                break; // EOF terminates the final (newline-less) line
            }
            self.saw_any = true;
            let (line_part, found_newline) = match chunk.iter().position(|&b| b == b'\n') {
                Some(pos) => (&chunk[..pos], true),
                None => (chunk, false),
            };
            self.total += line_part.len();
            if self.total <= self.max {
                self.buf.extend_from_slice(line_part);
            }
            let consumed = line_part.len() + usize::from(found_newline);
            input.consume(consumed);
            if found_newline {
                break;
            }
        }
        let total = std::mem::take(&mut self.total);
        let mut buf = std::mem::take(&mut self.buf);
        self.saw_any = false;
        if total > self.max {
            // Oversized: the whole line was consumed (keeping the stream
            // line-aligned) but never buffered beyond the bound.
            return Ok(Some(Err(LineReject::TooLarge(total))));
        }
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
        match String::from_utf8(buf) {
            Ok(line) => Ok(Some(Ok(line))),
            Err(_) => Ok(Some(Err(LineReject::NotUtf8))),
        }
    }
}

/// `true` when a read error is the poll tick of a stream with a read
/// deadline (or a signal interrupting the read), not a failure: the
/// [`LineReader`] kept its partial-line state, so the caller checks its
/// flags and reads again.
pub(crate) fn is_poll_tick(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
    )
}

/// One parsed request line.
#[derive(Debug)]
pub struct Request {
    /// The job to prove.
    pub spec: JobSpec,
    /// Repetition count from the spec's `:xCOUNT` suffix (1 when absent).
    pub count: usize,
    /// Statement seed override, when the request carried one.
    pub seed: Option<u64>,
    /// Priority override, when the request carried one.
    pub priority: Option<Priority>,
    /// Per-job deadline in milliseconds from admission, when the request
    /// carried one: past it, the job is answered `deadline_exceeded`
    /// instead of a proof.
    pub deadline_ms: Option<u64>,
    /// The request's `id`, re-encoded as a JSON token for echoing.
    pub id_json: Option<String>,
}

/// A flat JSON value (the wire format forbids nested containers).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// A string value.
    Str(String),
    /// A number; keeps its raw token so 64-bit seeds survive exactly.
    Num(String),
    /// A boolean.
    Bool(bool),
    /// The `null` literal.
    Null,
}

impl Json {
    /// The value re-encoded as a JSON token (strings re-escaped).
    pub fn to_token(&self) -> String {
        match self {
            Json::Str(s) => format!("\"{}\"", json_escape(s)),
            Json::Num(raw) => raw.clone(),
            Json::Bool(b) => b.to_string(),
            Json::Null => "null".to_string(),
        }
    }
}

/// Looks up a field by key in a parsed flat object.
pub fn field<'a>(fields: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Parses a request line; on failure returns the error plus the request
/// id if one could still be recovered (so the error response correlates).
pub fn parse_request(line: &str) -> Result<Request, (Error, Option<String>)> {
    let fields = parse_json_object(line).map_err(|reason| (Error::Request(reason), None))?;
    let id_json = field(&fields, "id").map(Json::to_token);
    let fail = |error: Error| (error, id_json.clone());

    let mut spec_count: Option<(JobSpec, usize)> = None;
    let mut seed = None;
    let mut priority = None;
    let mut deadline_ms = None;
    for (key, value) in &fields {
        match key.as_str() {
            "spec" => {
                let Json::Str(s) = value else {
                    return Err(fail(Error::Request("\"spec\" must be a string".into())));
                };
                spec_count = Some(JobSpec::parse(s).map_err(&fail)?);
            }
            "seed" => {
                let parsed = match value {
                    Json::Num(raw) => raw.parse::<u64>().ok(),
                    _ => None,
                };
                let Some(parsed) = parsed else {
                    return Err(fail(Error::Request(
                        "\"seed\" must be a non-negative integer".into(),
                    )));
                };
                seed = Some(parsed);
            }
            "priority" => {
                let token = match value {
                    Json::Str(s) => s.as_str(),
                    _ => "",
                };
                priority = Some(match token {
                    "high" => Priority::High,
                    "normal" => Priority::Normal,
                    _ => {
                        return Err(fail(Error::Request(
                            "\"priority\" must be \"high\" or \"normal\"".into(),
                        )))
                    }
                });
            }
            "deadline_ms" => {
                let parsed = match value {
                    Json::Num(raw) => raw.parse::<u64>().ok().filter(|ms| *ms > 0),
                    _ => None,
                };
                let Some(parsed) = parsed else {
                    return Err(fail(Error::Request(
                        "\"deadline_ms\" must be a positive integer".into(),
                    )));
                };
                deadline_ms = Some(parsed);
            }
            "id" => match value {
                Json::Str(_) | Json::Num(_) => {} // captured above
                _ => {
                    return Err(fail(Error::Request(
                        "\"id\" must be a string or a number".into(),
                    )))
                }
            },
            other => {
                return Err(fail(Error::Request(format!(
                    "unknown field {other:?} (expected spec, id, seed, priority, deadline_ms)"
                ))));
            }
        }
    }
    let Some((spec, count)) = spec_count else {
        return Err(fail(Error::Request(
            "missing required field \"spec\"".into(),
        )));
    };
    Ok(Request {
        spec,
        count,
        seed,
        priority,
        deadline_ms,
        id_json,
    })
}

/// Renders one `result` response line.
pub fn result_line(r: &JobResult, include_proof: bool) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"type\":\"result\",\"id\":{},\"job\":{},\"spec\":\"{}\",\"seed\":{},\"verified\":{}",
        r.tag.as_deref().unwrap_or("null"),
        r.id,
        json_escape(&r.spec.to_string()),
        r.seed,
        r.verified
    );
    match &r.error {
        Some(error) => {
            // Code 4 marks a deadline miss so clients can tell "your
            // budget ran out" (do not retry as-is) from code 1's "the job
            // failed" without string-matching; `kind` carries the stable
            // one-word reason either way.
            let code = match error {
                JobError::DeadlineExceeded => 4,
                _ => 1,
            };
            let _ = write!(
                s,
                ",\"code\":{},\"kind\":\"{}\",\"error\":\"{}\"",
                code,
                error.kind(),
                json_escape(&error.to_string())
            );
        }
        None => {
            let _ = write!(
                s,
                ",\"cache_hit\":{},\"worker\":{},\"constraints\":{},\"shape_digest\":\"{}\",\"queue_ms\":{:.3},\"build_ms\":{:.3},\"prove_ms\":{:.3},\"verify_ms\":{:.3},\"proof_bytes\":{}",
                r.cache_hit,
                r.worker,
                r.num_constraints,
                hex(&r.shape_digest),
                r.queue_wait.as_secs_f64() * 1e3,
                r.build_time.as_secs_f64() * 1e3,
                r.prove_time.as_secs_f64() * 1e3,
                r.verify_time.as_secs_f64() * 1e3,
                r.proof_bytes.len()
            );
            if include_proof {
                let _ = write!(s, ",\"proof_hex\":\"{}\"", hex(&r.proof_bytes));
            }
        }
    }
    s.push('}');
    s
}

/// Renders one `error` response line; `id_json` is the request's echoed
/// id when it could be recovered from the malformed line. A shed error
/// additionally carries `retry_after_ms`, the server's backoff hint.
pub fn error_line(id_json: Option<&str>, error: &Error) -> String {
    let retry = match error {
        Error::Shed { retry_after_ms } => format!(",\"retry_after_ms\":{retry_after_ms}"),
        _ => String::new(),
    };
    format!(
        "{{\"type\":\"error\",\"id\":{},\"code\":{}{},\"error\":\"{}\"}}",
        id_json.unwrap_or("null"),
        error.exit_code(),
        retry,
        json_escape(&error.to_string())
    )
}

// ---------------------------------------------------------------------------
// The `zkvc-worker/v1` dialect: the messages a proving worker and its
// coordinator exchange over the same flat JSON-lines framing. A worker
// connects to a normal `zkvc serve --listen` endpoint and speaks
// `worker_register` as its first line; the session is then handed off to
// the coordinator and every later line on the connection is one of these
// messages. See the worker appendix of `docs/PROTOCOL.md`.
// ---------------------------------------------------------------------------

/// A message a registered worker sends its coordinator.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkerMsg {
    /// Unsolicited liveness signal (~1 Hz); a coordinator declares a
    /// worker dead when these stop arriving.
    Heartbeat,
    /// A leased job was proved (or failed verification) on the worker.
    JobDone {
        /// The lease id the coordinator assigned in its `job` message.
        lease: u64,
        /// Whether the proof verified on the worker against the shipped
        /// (or locally re-derived) key material.
        verified: bool,
        /// Whether the worker's key material came from its own cache.
        cache_hit: bool,
        /// R1CS constraints proved.
        constraints: usize,
        /// Witness build time, milliseconds.
        build_ms: f64,
        /// Proving time, milliseconds.
        prove_ms: f64,
        /// Verification time, milliseconds.
        verify_ms: f64,
        /// The proof envelope bytes (decoded from `proof_hex`).
        proof_bytes: Vec<u8>,
    },
    /// A leased job could not be completed on the worker.
    JobFailed {
        /// The lease id the coordinator assigned in its `job` message.
        lease: u64,
        /// Stable one-word failure class (mirrors [`JobError::kind`]).
        kind: String,
        /// Human-readable failure detail.
        error: String,
    },
}

/// A message a coordinator sends a registered worker.
#[derive(Clone, Debug, PartialEq)]
pub enum CoordMsg {
    /// The `ready` handshake every serve transport opens with (the worker
    /// sees it before it registers); carries the server's `proto`.
    Ready {
        /// The serve protocol identifier announced by the server.
        proto: String,
    },
    /// Registration accepted: the worker's coordinator-assigned id.
    Ack {
        /// The id the coordinator will know this worker by.
        worker: u64,
    },
    /// A compiled circuit shape, shipped once per worker per
    /// `(digest, backend, seed)`: the worker decodes the canonical bytes,
    /// checks the digest, and runs the deterministic setup so its keys
    /// are bit-identical to the coordinator's.
    Shape {
        /// Digest of the shipped shape (the encoding embeds it too; the
        /// worker cross-checks).
        shape_digest: [u8; 32],
        /// Backend to run setup for.
        backend: Backend,
        /// Setup seed (same derivation as the coordinator's cache).
        seed: u64,
        /// The canonical `zkvc_r1cs` shape encoding (decoded from hex).
        bytes: Vec<u8>,
    },
    /// A job lease: prove this spec deterministically and answer with
    /// `job_done` or `job_failed` carrying the same lease id.
    Job {
        /// Coordinator-assigned lease id, echoed in the answer.
        lease: u64,
        /// The spec string (same grammar as a serve request `spec`).
        spec: String,
        /// Statement seed.
        seed: u64,
        /// Statement id (0 for request-mode jobs, the job id for batch
        /// jobs) — part of the determinism contract.
        statement_id: usize,
        /// Digest of the shape this job proves (shipped earlier, or
        /// derivable locally from the spec).
        shape_digest: [u8; 32],
        /// Milliseconds of deadline budget remaining at dispatch, when
        /// the request carried a deadline.
        deadline_ms: Option<u64>,
    },
    /// Orderly goodbye: the worker should finish nothing more and exit.
    Shutdown,
}

/// Renders the worker registration line — the first thing a worker sends
/// after reading the server's `ready` line.
pub fn worker_register_line(capacity: usize) -> String {
    format!("{{\"type\":\"worker_register\",\"proto\":\"{WORKER_PROTO}\",\"capacity\":{capacity}}}")
}

/// Parses a request line as a worker registration: `None` when the line
/// is not a `worker_register` message at all (an ordinary request),
/// `Some(Err(..))` when it is one but malformed (wrong dialect, bad
/// capacity), and the worker's announced capacity otherwise.
pub fn parse_worker_register(line: &str) -> Option<Result<usize, String>> {
    let fields = parse_json_object(line).ok()?;
    match field(&fields, "type") {
        Some(Json::Str(t)) if t == "worker_register" => {}
        _ => return None,
    }
    let check = || -> Result<usize, String> {
        match field(&fields, "proto") {
            Some(Json::Str(p)) if p == WORKER_PROTO => {}
            Some(Json::Str(p)) => {
                return Err(format!(
                    "worker speaks {p:?}, this server speaks {WORKER_PROTO:?}"
                ))
            }
            _ => return Err("worker_register is missing its \"proto\" field".into()),
        }
        let capacity = match field(&fields, "capacity") {
            Some(Json::Num(raw)) => raw.parse::<usize>().ok().filter(|c| *c > 0),
            None => Some(1),
            _ => None,
        };
        capacity.ok_or_else(|| "\"capacity\" must be a positive integer".into())
    };
    Some(check())
}

/// Renders the registration acknowledgement.
pub fn worker_ack_line(worker: u64) -> String {
    format!("{{\"type\":\"worker_ack\",\"proto\":\"{WORKER_PROTO}\",\"worker\":{worker}}}")
}

/// Renders a worker heartbeat line.
pub fn heartbeat_line() -> String {
    "{\"type\":\"heartbeat\"}".to_string()
}

/// Renders a ship-once `shape` message.
pub fn shape_line(digest: &[u8; 32], backend: Backend, seed: u64, bytes: &[u8]) -> String {
    format!(
        "{{\"type\":\"shape\",\"shape_digest\":\"{}\",\"backend\":\"{backend}\",\"seed\":{seed},\"bytes_hex\":\"{}\"}}",
        hex(digest),
        hex(bytes)
    )
}

/// Renders a job-lease message.
pub fn job_line(
    lease: u64,
    spec: &JobSpec,
    seed: u64,
    statement_id: usize,
    shape_digest: &[u8; 32],
    deadline_ms: Option<u64>,
) -> String {
    let deadline = deadline_ms
        .map(|ms| format!(",\"deadline_ms\":{ms}"))
        .unwrap_or_default();
    format!(
        "{{\"type\":\"job\",\"lease\":{lease},\"spec\":\"{}\",\"seed\":{seed},\"statement_id\":{statement_id},\"shape_digest\":\"{}\"{deadline}}}",
        json_escape(&spec.to_string()),
        hex(shape_digest)
    )
}

/// Renders a `job_done` answer.
#[allow(clippy::too_many_arguments)]
pub fn job_done_line(
    lease: u64,
    verified: bool,
    cache_hit: bool,
    constraints: usize,
    build_ms: f64,
    prove_ms: f64,
    verify_ms: f64,
    proof_bytes: &[u8],
) -> String {
    format!(
        "{{\"type\":\"job_done\",\"lease\":{lease},\"verified\":{verified},\"cache_hit\":{cache_hit},\"constraints\":{constraints},\"build_ms\":{build_ms:.3},\"prove_ms\":{prove_ms:.3},\"verify_ms\":{verify_ms:.3},\"proof_hex\":\"{}\"}}",
        hex(proof_bytes)
    )
}

/// Renders a `job_failed` answer.
pub fn job_failed_line(lease: u64, kind: &str, error: &str) -> String {
    format!(
        "{{\"type\":\"job_failed\",\"lease\":{lease},\"kind\":\"{}\",\"error\":\"{}\"}}",
        json_escape(kind),
        json_escape(error)
    )
}

/// Renders the coordinator's orderly-goodbye message.
pub fn worker_shutdown_line() -> String {
    "{\"type\":\"worker_shutdown\"}".to_string()
}

fn parse_backend(token: &str) -> Option<Backend> {
    match token {
        "groth16" => Some(Backend::Groth16),
        "spartan" => Some(Backend::Spartan),
        _ => None,
    }
}

fn take_digest(fields: &[(String, Json)], key: &str) -> Result<[u8; 32], String> {
    let hex_str = match field(fields, key) {
        Some(Json::Str(s)) => s.as_str(),
        _ => return Err(format!("missing or non-string {key:?}")),
    };
    let bytes = unhex(hex_str).ok_or_else(|| format!("{key:?} is not valid hex"))?;
    <[u8; 32]>::try_from(bytes).map_err(|_| format!("{key:?} must be 32 bytes of hex"))
}

fn take_u64(fields: &[(String, Json)], key: &str) -> Result<u64, String> {
    match field(fields, key) {
        Some(Json::Num(raw)) => raw
            .parse::<u64>()
            .map_err(|_| format!("{key:?} must be a non-negative integer")),
        _ => Err(format!("missing or non-numeric {key:?}")),
    }
}

fn take_f64(fields: &[(String, Json)], key: &str) -> Result<f64, String> {
    match field(fields, key) {
        Some(Json::Num(raw)) => raw
            .parse::<f64>()
            .map_err(|_| format!("{key:?} must be a number")),
        _ => Err(format!("missing or non-numeric {key:?}")),
    }
}

fn take_bool(fields: &[(String, Json)], key: &str) -> Result<bool, String> {
    match field(fields, key) {
        Some(Json::Bool(b)) => Ok(*b),
        _ => Err(format!("missing or non-boolean {key:?}")),
    }
}

fn take_str<'a>(fields: &'a [(String, Json)], key: &str) -> Result<&'a str, String> {
    match field(fields, key) {
        Some(Json::Str(s)) => Ok(s.as_str()),
        _ => Err(format!("missing or non-string {key:?}")),
    }
}

/// Parses one line a worker sent its coordinator (post-registration).
pub fn parse_worker_msg(line: &str) -> Result<WorkerMsg, String> {
    let fields = parse_json_object(line)?;
    match take_str(&fields, "type")? {
        "heartbeat" => Ok(WorkerMsg::Heartbeat),
        "job_done" => Ok(WorkerMsg::JobDone {
            lease: take_u64(&fields, "lease")?,
            verified: take_bool(&fields, "verified")?,
            cache_hit: take_bool(&fields, "cache_hit")?,
            constraints: take_u64(&fields, "constraints")? as usize,
            build_ms: take_f64(&fields, "build_ms")?,
            prove_ms: take_f64(&fields, "prove_ms")?,
            verify_ms: take_f64(&fields, "verify_ms")?,
            proof_bytes: unhex(take_str(&fields, "proof_hex")?)
                .ok_or("\"proof_hex\" is not valid hex")?,
        }),
        "job_failed" => Ok(WorkerMsg::JobFailed {
            lease: take_u64(&fields, "lease")?,
            kind: take_str(&fields, "kind")?.to_string(),
            error: take_str(&fields, "error")?.to_string(),
        }),
        other => Err(format!("unknown worker message type {other:?}")),
    }
}

/// Parses one line a coordinator sent a worker.
pub fn parse_coord_msg(line: &str) -> Result<CoordMsg, String> {
    let fields = parse_json_object(line)?;
    match take_str(&fields, "type")? {
        "ready" => Ok(CoordMsg::Ready {
            proto: take_str(&fields, "proto")?.to_string(),
        }),
        "worker_ack" => Ok(CoordMsg::Ack {
            worker: take_u64(&fields, "worker")?,
        }),
        "shape" => Ok(CoordMsg::Shape {
            shape_digest: take_digest(&fields, "shape_digest")?,
            backend: parse_backend(take_str(&fields, "backend")?)
                .ok_or("\"backend\" must be \"groth16\" or \"spartan\"")?,
            seed: take_u64(&fields, "seed")?,
            bytes: unhex(take_str(&fields, "bytes_hex")?)
                .ok_or("\"bytes_hex\" is not valid hex")?,
        }),
        "job" => Ok(CoordMsg::Job {
            lease: take_u64(&fields, "lease")?,
            spec: take_str(&fields, "spec")?.to_string(),
            seed: take_u64(&fields, "seed")?,
            statement_id: take_u64(&fields, "statement_id")? as usize,
            shape_digest: take_digest(&fields, "shape_digest")?,
            deadline_ms: match field(&fields, "deadline_ms") {
                Some(_) => Some(take_u64(&fields, "deadline_ms")?),
                None => None,
            },
        }),
        "worker_shutdown" => Ok(CoordMsg::Shutdown),
        other => Err(format!("unknown coordinator message type {other:?}")),
    }
}

/// Minimal JSON parser for one flat object: string keys, and string /
/// number / boolean / null values. Nested objects and arrays are
/// rejected — the request grammar has no use for them, and refusing them
/// keeps the attack surface of a network-facing loop small.
pub fn parse_json_object(input: &str) -> Result<Vec<(String, Json)>, String> {
    let mut p = JsonParser {
        chars: input.char_indices().peekable(),
        input,
    };
    p.skip_ws();
    p.expect('{')?;
    let mut fields = Vec::new();
    p.skip_ws();
    if p.eat('}') {
        p.expect_end()?;
        return Ok(fields);
    }
    loop {
        p.skip_ws();
        let key = p.parse_string()?;
        p.skip_ws();
        p.expect(':')?;
        p.skip_ws();
        let value = p.parse_value()?;
        fields.push((key, value));
        p.skip_ws();
        if p.eat(',') {
            continue;
        }
        p.expect('}')?;
        p.expect_end()?;
        return Ok(fields);
    }
}

struct JsonParser<'a> {
    chars: std::iter::Peekable<std::str::CharIndices<'a>>,
    input: &'a str,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.chars.peek(), Some((_, c)) if c.is_ascii_whitespace()) {
            self.chars.next();
        }
    }

    fn eat(&mut self, want: char) -> bool {
        if matches!(self.chars.peek(), Some((_, c)) if *c == want) {
            self.chars.next();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, want: char) -> Result<(), String> {
        match self.chars.next() {
            Some((_, c)) if c == want => Ok(()),
            Some((i, c)) => Err(format!("expected {want:?} at byte {i}, found {c:?}")),
            None => Err(format!("expected {want:?}, found end of line")),
        }
    }

    fn expect_end(&mut self) -> Result<(), String> {
        self.skip_ws();
        match self.chars.next() {
            None => Ok(()),
            Some((i, c)) => Err(format!("trailing content at byte {i}: {c:?}")),
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.chars.next() {
                None => return Err("unterminated string".into()),
                Some((_, '"')) => return Ok(out),
                Some((i, '\\')) => match self.chars.next() {
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, '/')) => out.push('/'),
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 't')) => out.push('\t'),
                    Some((_, 'r')) => out.push('\r'),
                    Some((_, 'b')) => out.push('\u{8}'),
                    Some((_, 'f')) => out.push('\u{c}'),
                    Some((_, 'u')) => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let Some((_, h)) = self.chars.next() else {
                                return Err("truncated \\u escape".into());
                            };
                            let Some(digit) = h.to_digit(16) else {
                                return Err(format!("bad hex digit {h:?} in \\u escape"));
                            };
                            code = code * 16 + digit;
                        }
                        let Some(c) = char::from_u32(code) else {
                            return Err(format!(
                                "\\u{code:04x} is not a scalar value (surrogate pairs unsupported)"
                            ));
                        };
                        out.push(c);
                    }
                    Some((j, other)) => {
                        return Err(format!("unknown escape \\{other} at byte {j}"))
                    }
                    None => return Err(format!("dangling escape at byte {i}")),
                },
                Some((i, c)) if (c as u32) < 0x20 => {
                    return Err(format!("raw control character at byte {i}"))
                }
                Some((_, c)) => out.push(c),
            }
        }
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        match self.chars.peek().copied() {
            None => Err("expected a value, found end of line".into()),
            Some((_, '"')) => Ok(Json::Str(self.parse_string()?)),
            Some((_, '{')) | Some((_, '[')) => {
                Err("nested objects/arrays are not part of the request grammar".into())
            }
            Some((start, c)) if c == '-' || c.is_ascii_digit() => {
                let mut end = start;
                while let Some((i, c)) = self.chars.peek().copied() {
                    if c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E') {
                        end = i + c.len_utf8();
                        self.chars.next();
                    } else {
                        break;
                    }
                }
                let raw = &self.input[start..end];
                // Validate the token is at least f64-shaped.
                raw.parse::<f64>()
                    .map_err(|_| format!("bad number {raw:?}"))?;
                Ok(Json::Num(raw.to_string()))
            }
            Some((start, c)) if c.is_ascii_alphabetic() => {
                let mut end = start;
                while let Some((i, c)) = self.chars.peek().copied() {
                    if c.is_ascii_alphabetic() {
                        end = i + c.len_utf8();
                        self.chars.next();
                    } else {
                        break;
                    }
                }
                match &self.input[start..end] {
                    "true" => Ok(Json::Bool(true)),
                    "false" => Ok(Json::Bool(false)),
                    "null" => Ok(Json::Null),
                    other => Err(format!("unknown literal {other:?}")),
                }
            }
            Some((i, c)) => Err(format!("unexpected {c:?} at byte {i}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use zkvc_core::matmul::Strategy;

    #[test]
    fn parses_full_and_minimal_requests() {
        let r = parse_request(r#"{"spec": "2x3x2:zkvc:s"}"#).unwrap();
        assert_eq!(
            r.spec,
            JobSpec::new(2, 3, 2).with_backend(zkvc_core::Backend::Spartan)
        );
        assert_eq!(r.count, 1);
        assert_eq!(r.seed, None);
        assert_eq!(r.priority, None);
        assert_eq!(r.id_json, None);

        let r = parse_request(
            r#"{"id": "req-1", "spec": "4x4x4:vanilla:x3", "seed": 42, "priority": "normal"}"#,
        )
        .unwrap();
        assert_eq!(r.spec.strategy(), Strategy::Vanilla);
        assert_eq!(r.count, 3);
        assert_eq!(r.seed, Some(42));
        assert_eq!(r.priority, Some(Priority::Normal));
        assert_eq!(r.id_json.as_deref(), Some("\"req-1\""));

        // Numeric ids echo as numbers; 64-bit seeds survive exactly.
        let r =
            parse_request(r#"{"id": 7, "spec": "2x2x2", "seed": 18446744073709551615}"#).unwrap();
        assert_eq!(r.id_json.as_deref(), Some("7"));
        assert_eq!(r.seed, Some(u64::MAX));

        // A deadline rides along in milliseconds.
        let r = parse_request(r#"{"spec": "2x2x2", "deadline_ms": 1500}"#).unwrap();
        assert_eq!(r.deadline_ms, Some(1500));
    }

    #[test]
    fn rejects_malformed_requests_with_recovered_ids() {
        for (line, needle) in [
            ("not json at all", "expected '{'"),
            ("{\"spec\": \"2x2x2\"", "expected '}'"),
            (r#"{"spec": 7}"#, "must be a string"),
            (r#"{"spec": "2x2x2", "extra": 1}"#, "unknown field"),
            (r#"{"seed": 1}"#, "missing required field"),
            (r#"{"spec": "2x2x2", "seed": -4}"#, "non-negative integer"),
            (r#"{"spec": "2x2x2", "seed": 1.5}"#, "non-negative integer"),
            (r#"{"spec": "2x2x2", "priority": "urgent"}"#, "priority"),
            (r#"{"spec": "2x2x2", "deadline_ms": 0}"#, "positive integer"),
            (
                r#"{"spec": "2x2x2", "deadline_ms": "fast"}"#,
                "positive integer",
            ),
            (r#"{"spec": "bogus"}"#, "bad spec"),
            (r#"{"spec": ["2x2x2"]}"#, "nested"),
            (r#"{"spec": "2x2x2"} trailing"#, "trailing content"),
        ] {
            let (error, _) = parse_request(line).unwrap_err();
            assert_eq!(error.exit_code(), 2, "{line}");
            assert!(error.to_string().contains(needle), "{line}: {error}");
        }

        // The id is recovered even when another field is broken.
        let (_, id) = parse_request(r#"{"id": "x", "spec": 1}"#).unwrap_err();
        assert_eq!(id.as_deref(), Some("\"x\""));
    }

    #[test]
    fn bounded_reader_discards_whole_oversized_lines() {
        let long = format!("{}\nshort\n", "a".repeat(200));
        let mut input = Cursor::new(long.into_bytes());
        let mut reader = LineReader::new(64);
        match reader.read_line(&mut input).unwrap() {
            Some(Err(LineReject::TooLarge(total))) => assert_eq!(total, 200),
            other => panic!("expected oversize, got {other:?}"),
        }
        // The stream is still line-aligned: the next read sees "short".
        assert_eq!(
            reader.read_line(&mut input).unwrap(),
            Some(Ok("short".to_string()))
        );
        assert_eq!(reader.read_line(&mut input).unwrap(), None);
    }

    #[test]
    fn bounded_reader_rejects_invalid_utf8() {
        let mut input = Cursor::new(b"\xff\xfe bad bytes\nok\n".to_vec());
        let mut reader = LineReader::new(64);
        assert_eq!(
            reader.read_line(&mut input).unwrap(),
            Some(Err(LineReject::NotUtf8))
        );
        assert_eq!(
            reader.read_line(&mut input).unwrap(),
            Some(Ok("ok".to_string()))
        );
    }

    /// A reader that yields `WouldBlock` between real chunks, like a
    /// socket with a read deadline.
    struct Stutter {
        chunks: Vec<Option<Vec<u8>>>, // None => timeout
        buffered: Vec<u8>,
    }

    impl std::io::Read for Stutter {
        fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
            unreachable!("BufRead only")
        }
    }

    impl BufRead for Stutter {
        fn fill_buf(&mut self) -> io::Result<&[u8]> {
            if self.buffered.is_empty() {
                match self.chunks.pop() {
                    Some(Some(chunk)) => self.buffered = chunk,
                    Some(None) => {
                        return Err(io::Error::new(io::ErrorKind::WouldBlock, "deadline"))
                    }
                    None => {} // EOF: empty buffer
                }
            }
            Ok(&self.buffered)
        }
        fn consume(&mut self, amt: usize) {
            self.buffered.drain(..amt);
        }
    }

    #[test]
    fn line_reader_survives_timeouts_without_tearing_lines() {
        // The line arrives in three chunks with timeouts interleaved; the
        // reader must return WouldBlock twice and then the intact line.
        let mut input = Stutter {
            chunks: vec![
                Some(b"tail\n".to_vec()),
                Some(b"lo}\n{".to_vec()),
                None,
                Some(b"{\"hel".to_vec()),
                None,
            ],
            buffered: Vec::new(),
        };
        let mut reader = LineReader::new(64);
        assert_eq!(
            reader.read_line(&mut input).unwrap_err().kind(),
            io::ErrorKind::WouldBlock
        );
        assert_eq!(
            reader.read_line(&mut input).unwrap_err().kind(),
            io::ErrorKind::WouldBlock
        );
        assert_eq!(
            reader.read_line(&mut input).unwrap(),
            Some(Ok("{\"hello}".to_string()))
        );
        assert_eq!(
            reader.read_line(&mut input).unwrap(),
            Some(Ok("{tail".to_string()))
        );
        assert_eq!(reader.read_line(&mut input).unwrap(), None);
    }

    #[test]
    fn worker_messages_round_trip_through_their_lines() {
        assert_eq!(parse_worker_register(&worker_register_line(3)), Some(Ok(3)));
        assert_eq!(
            parse_worker_register(r#"{"spec": "2x2x2"}"#),
            None,
            "an ordinary request is not a registration"
        );
        match parse_worker_register(
            r#"{"type": "worker_register", "proto": "zkvc-worker/v9", "capacity": 1}"#,
        ) {
            Some(Err(reason)) => assert!(reason.contains("zkvc-worker/v1"), "{reason}"),
            other => panic!("expected a dialect rejection, got {other:?}"),
        }

        let digest = [7u8; 32];
        let spec = JobSpec::new(2, 3, 2);
        match parse_coord_msg(&job_line(9, &spec, 5, 0, &digest, Some(1500))).unwrap() {
            CoordMsg::Job {
                lease,
                spec: s,
                seed,
                statement_id,
                shape_digest,
                deadline_ms,
            } => {
                assert_eq!(lease, 9);
                assert_eq!(s, spec.to_string());
                assert_eq!(seed, 5);
                assert_eq!(statement_id, 0);
                assert_eq!(shape_digest, digest);
                assert_eq!(deadline_ms, Some(1500));
            }
            other => panic!("expected Job, got {other:?}"),
        }
        match parse_coord_msg(&shape_line(&digest, Backend::Groth16, 4, b"bytes")).unwrap() {
            CoordMsg::Shape {
                shape_digest,
                backend,
                seed,
                bytes,
            } => {
                assert_eq!(shape_digest, digest);
                assert_eq!(backend, Backend::Groth16);
                assert_eq!(seed, 4);
                assert_eq!(bytes, b"bytes");
            }
            other => panic!("expected Shape, got {other:?}"),
        }
        assert_eq!(
            parse_coord_msg(&worker_ack_line(2)).unwrap(),
            CoordMsg::Ack { worker: 2 }
        );
        assert_eq!(
            parse_coord_msg(&worker_shutdown_line()).unwrap(),
            CoordMsg::Shutdown
        );

        match parse_worker_msg(&job_done_line(9, true, false, 42, 1.0, 2.5, 0.5, b"proof")).unwrap()
        {
            WorkerMsg::JobDone {
                lease,
                verified,
                cache_hit,
                constraints,
                proof_bytes,
                ..
            } => {
                assert_eq!(lease, 9);
                assert!(verified);
                assert!(!cache_hit);
                assert_eq!(constraints, 42);
                assert_eq!(proof_bytes, b"proof");
            }
            other => panic!("expected JobDone, got {other:?}"),
        }
        match parse_worker_msg(&job_failed_line(9, "panicked", "boom \"quoted\"")).unwrap() {
            WorkerMsg::JobFailed { lease, kind, error } => {
                assert_eq!(lease, 9);
                assert_eq!(kind, "panicked");
                assert_eq!(error, "boom \"quoted\"");
            }
            other => panic!("expected JobFailed, got {other:?}"),
        }
        assert_eq!(
            parse_worker_msg(&heartbeat_line()).unwrap(),
            WorkerMsg::Heartbeat
        );
    }

    #[test]
    fn response_lines_parse_as_flat_json() {
        let error = error_line(Some("\"req\""), &Error::Request("boom".into()));
        let fields = parse_json_object(&error).unwrap();
        assert_eq!(field(&fields, "code"), Some(&Json::Num("2".to_string())));
        assert_eq!(field(&fields, "id"), Some(&Json::Str("req".to_string())));
    }
}
