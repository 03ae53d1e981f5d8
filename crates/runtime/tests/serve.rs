//! End-to-end tests of `zkvc serve`: a resident process fed JSON-lines
//! requests over stdin must stream responses, survive malformed and
//! oversized requests (answering them with exit-code-2-class errors
//! in-stream), keep its key cache warm across requests, and emit proofs
//! that `zkvc verify` accepts offline.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn zkvc_serve(args: &[&str], input: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_zkvc"))
        .arg("serve")
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("zkvc serve spawns");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(input.as_bytes())
        .expect("write requests");
    // Dropping stdin closes it: EOF is the orderly shutdown signal.
    child.wait_with_output().expect("serve exits")
}

fn tmp_file(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("zkvc-serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex"))
        .collect()
}

/// Extracts the string value of `"field":"..."` from a response line.
fn json_str_field<'a>(line: &'a str, field: &str) -> Option<&'a str> {
    let needle = format!("\"{field}\":\"");
    let start = line.find(&needle)? + needle.len();
    let end = start + line[start..].find('"')?;
    Some(&line[start..end])
}

#[test]
fn serve_round_trips_requests_and_survives_bad_input() {
    let oversized = format!(
        "{{\"spec\": \"2x3x2:zkvc:s\", \"id\": \"{}\"}}",
        "z".repeat(400)
    );
    let input = format!(
        concat!(
            "{{\"spec\": \"2x3x2:zkvc:s\", \"id\": \"alpha\"}}\n",
            "this is not json\n",
            "{{\"spec\": \"2x3x2:zkvc:s\", \"id\": \"beta\", \"priority\": \"high\"}}\n",
            "{{\"spec\": \"7x7\", \"id\": 42}}\n",
            "{oversized}\n",
            "{{\"spec\": \"2x3x2:zkvc:s\", \"id\": \"gamma\"}}\n",
        ),
        oversized = oversized
    );
    let out = zkvc_serve(
        &["--workers", "2", "--seed", "7", "--max-request", "256"],
        &input,
    );
    assert!(
        out.status.success(),
        "serve must exit 0: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();

    assert!(lines[0].contains("\"type\":\"ready\""), "{stdout}");
    assert!(
        lines.last().unwrap().contains("\"type\":\"summary\""),
        "{stdout}"
    );

    // Three good requests -> three verified results, ids echoed.
    for id in ["alpha", "beta", "gamma"] {
        let line = lines
            .iter()
            .find(|l| l.contains(&format!("\"id\":\"{id}\"")) && l.contains("\"type\":\"result\""))
            .unwrap_or_else(|| panic!("no result for {id}: {stdout}"));
        assert!(line.contains("\"verified\":true"), "{line}");
    }
    // Same shape + same seed three times: the cache was warm twice.
    assert_eq!(
        lines
            .iter()
            .filter(|l| l.contains("\"cache_hit\":true"))
            .count(),
        2,
        "{stdout}"
    );

    // Malformed JSON, bad spec (id echoed as a number), and the oversized
    // line are each answered with a code-2 error — and the server lived on
    // to prove "gamma" afterwards.
    let errors: Vec<&&str> = lines
        .iter()
        .filter(|l| l.contains("\"type\":\"error\""))
        .collect();
    assert_eq!(errors.len(), 3, "{stdout}");
    assert!(errors.iter().all(|l| l.contains("\"code\":2")), "{stdout}");
    assert!(
        errors.iter().any(|l| l.contains("\"id\":42")),
        "bad-spec error echoes the numeric id: {stdout}"
    );
    assert!(
        errors.iter().any(|l| l.contains("request too large")),
        "{stdout}"
    );
    assert!(lines.last().unwrap().contains("\"rejected\":3"), "{stdout}");
}

#[test]
fn serve_proofs_verify_offline_and_keys_stream_once() {
    // Two same-shape Groth16 requests: one key line, two results; the
    // proof bytes round-trip through `zkvc verify` exactly as if they had
    // come from `zkvc prove --spec S --seed 9`.
    let input = concat!(
        "{\"spec\": \"2x2x2:vanilla:g\", \"id\": \"p1\", \"seed\": 9}\n",
        "{\"spec\": \"2x2x2:vanilla:g\", \"id\": \"p2\", \"seed\": 9}\n",
    );
    let out = zkvc_serve(&["--workers", "2", "--seed", "9"], input);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();

    assert_eq!(
        lines
            .iter()
            .filter(|l| l.contains("\"type\":\"key\""))
            .count(),
        1,
        "one vk per (shape, seed): {stdout}"
    );

    let result = lines
        .iter()
        .find(|l| l.contains("\"type\":\"result\"") && l.contains("\"id\":\"p1\""))
        .expect("result for p1");
    assert!(result.contains("\"verified\":true"), "{result}");
    let proof_hex = json_str_field(result, "proof_hex").expect("proof bytes included");

    let proof_path = tmp_file("serve-proof.bin");
    std::fs::write(&proof_path, unhex(proof_hex)).unwrap();
    let verify = Command::new(env!("CARGO_BIN_EXE_zkvc"))
        .args([
            "verify",
            "--spec",
            "2x2x2:vanilla:g",
            "--seed",
            "9",
            "--in",
            proof_path.to_str().unwrap(),
        ])
        .output()
        .expect("zkvc verify runs");
    assert!(
        verify.status.success(),
        "serve proof must verify offline: {}{}",
        String::from_utf8_lossy(&verify.stdout),
        String::from_utf8_lossy(&verify.stderr)
    );
    let verify_out = String::from_utf8_lossy(&verify.stdout);
    assert!(verify_out.contains("statement binding: OK"), "{verify_out}");

    // Wrong seed: the same proof must be rejected (exit 1) — serve
    // proofs are statement-bound like every other proof in the stack.
    let reject = Command::new(env!("CARGO_BIN_EXE_zkvc"))
        .args([
            "verify",
            "--spec",
            "2x2x2:vanilla:g",
            "--seed",
            "10",
            "--in",
            proof_path.to_str().unwrap(),
        ])
        .output()
        .expect("zkvc verify runs");
    assert_eq!(reject.status.code(), Some(1));
}

#[test]
fn serve_usage_errors_exit_2() {
    // Bad flag values are invocation errors, before any serving starts.
    let out = zkvc_serve(&["--workers", "0"], "");
    assert_eq!(out.status.code(), Some(2));
    let out = zkvc_serve(&["--queue-bound", "none"], "");
    assert_eq!(out.status.code(), Some(2));
    let out = zkvc_serve(&["--frobnicate"], "");
    assert_eq!(out.status.code(), Some(2));
    // Only the `none` no-op of the removed disk key cache is accepted.
    let out = zkvc_serve(&["--key-cache", "/tmp/x"], "");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("the disk key cache was removed"));
}

#[test]
fn serve_empty_session_summarises_cleanly() {
    // `--key-cache none` stays a no-op: the benchmark's serve driver
    // still passes it.
    let out = zkvc_serve(&["--workers", "1", "--key-cache", "none"], "\n\n");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"type\":\"ready\""), "{stdout}");
    assert!(
        stdout.contains("\"jobs\":0") && stdout.contains("\"rejected\":0"),
        "{stdout}"
    );
}
