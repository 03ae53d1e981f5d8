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

use zkvc_ff::codec::hex;

use crate::error::Error;
use crate::pool::{JobError, JobResult};
use crate::sched::Priority;
use crate::spec::JobSpec;
use crate::util::json_escape;

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
    fn response_lines_parse_as_flat_json() {
        let error = error_line(Some("\"req\""), &Error::Request("boom".into()));
        let fields = parse_json_object(&error).unwrap();
        assert_eq!(field(&fields, "code"), Some(&Json::Num("2".to_string())));
        assert_eq!(field(&fields, "id"), Some(&Json::Str("req".to_string())));
    }
}
