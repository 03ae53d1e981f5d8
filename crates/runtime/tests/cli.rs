//! End-to-end tests of the `zkvc` binary: prove/verify round trips for
//! matmul *and* model-preset jobs, statement-binding rejection, and
//! data-driven exit codes (`0` ok, `1` bad proof, `2` bad invocation).

use std::path::PathBuf;
use std::process::{Command, Output};

fn zkvc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_zkvc"))
        .args(args)
        .output()
        .expect("zkvc binary runs")
}

fn tmp_file(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("zkvc-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

#[test]
fn matmul_prove_verify_roundtrip_and_binding_rejection() {
    let proof = tmp_file("matmul.bin");
    let proof_str = proof.to_str().unwrap();

    // Prove Y = X*W with public outputs (the default) on Spartan (fast in
    // debug builds) and verify it.
    let out = zkvc(&[
        "prove",
        "--spec",
        "2x3x2:zkvc:s",
        "--seed",
        "7",
        "--out",
        proof_str,
    ]);
    assert!(
        out.status.success(),
        "prove failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("public outputs"), "{stdout}");

    let out = zkvc(&[
        "verify",
        "--spec",
        "2x3x2:zkvc:s",
        "--seed",
        "7",
        "--in",
        proof_str,
    ]);
    assert!(
        out.status.success(),
        "verify failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("statement binding: OK"), "{stdout}");
    assert!(stdout.contains("verification: OK"), "{stdout}");

    // A different seed rebuilds the same circuit shape with a different Y:
    // the replayed proof must fail statement binding with exit code 1.
    let out = zkvc(&[
        "verify",
        "--spec",
        "2x3x2:zkvc:s",
        "--seed",
        "8",
        "--in",
        proof_str,
    ]);
    assert_eq!(out.status.code(), Some(1), "replay must exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("statement binding: MISMATCH"), "{stdout}");
}

#[test]
fn model_job_proves_and_verifies_through_the_cli() {
    let proof = tmp_file("mixer.bin");
    let proof_str = proof.to_str().unwrap();

    let out = zkvc(&[
        "prove",
        "--spec",
        "mixer-block:spartan",
        "--seed",
        "3",
        "--out",
        proof_str,
    ]);
    assert!(
        out.status.success(),
        "model prove failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("mixer-block"), "{stdout}");

    let out = zkvc(&[
        "verify",
        "--spec",
        "mixer-block:spartan",
        "--seed",
        "3",
        "--in",
        proof_str,
    ]);
    assert!(
        out.status.success(),
        "model verify failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("statement binding: OK"), "{stdout}");

    // The model proof must not verify as some other preset's statement.
    let out = zkvc(&[
        "verify",
        "--spec",
        "bert-block:spartan",
        "--seed",
        "3",
        "--in",
        proof_str,
    ]);
    assert_eq!(out.status.code(), Some(1), "cross-preset verify must fail");
}

#[test]
fn usage_errors_exit_2() {
    // Unknown command.
    assert_eq!(zkvc(&["frobnicate"]).status.code(), Some(2));
    // Malformed spec.
    let out = zkvc(&["prove", "--spec", "2x2", "--out", "/dev/null"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad spec"));
    // Unknown flag.
    let out = zkvc(&["prove-batch", "--spec", "2x2x2", "--sede", "7"]);
    assert_eq!(out.status.code(), Some(2));
    // Missing file.
    let out = zkvc(&[
        "verify",
        "--spec",
        "2x2x2:s",
        "--in",
        "/nonexistent/proof.bin",
    ]);
    assert_eq!(out.status.code(), Some(2));
    // The disk key cache is gone: `--key-cache` is an unknown flag.
    let out = zkvc(&[
        "verify",
        "--spec",
        "2x2x2:s",
        "--key-cache",
        "none",
        "--in",
        "/nonexistent/proof.bin",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown argument \"--key-cache\""));
    // There is no remote-worker tier: `worker` is an unknown command.
    let out = zkvc(&[
        "worker",
        "--connect",
        "unix:/nonexistent.sock",
        "--capacity",
        "2",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command \"worker\""));
    // The timing-only paths are gone: `benchmark/` is the one measurement.
    let client = ["client", "--connect", "unix:/x", "--spec", "2x2x2"];
    for (args, flag) in [
        ([&client[..], &["--bench", "F"]].concat(), "--bench"),
        ([&client[..], &["--sweep", "1,2"]].concat(), "--sweep"),
        (
            vec!["prove-batch", "--spec", "2x2x2", "--compare-serial"],
            "--compare-serial",
        ),
    ] {
        let out = zkvc(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains(&format!("unknown argument \"{flag}\"")),
            "{args:?}"
        );
    }
}

#[test]
fn groth16_verify_derives_its_key_from_the_spec_and_seed() {
    // A `:private` proof binds no outputs, so only the key ties it to the
    // seed: the key derived under another seed must reject it.
    let proof = tmp_file("private-g.bin");
    let proof_str = proof.to_str().unwrap();
    let spec = "2x2x2:vanilla:g:private";
    let out = zkvc(&["prove", "--spec", spec, "--seed", "5", "--out", proof_str]);
    assert!(
        out.status.success(),
        "prove failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = zkvc(&["verify", "--spec", spec, "--seed", "5", "--in", proof_str]);
    assert!(
        out.status.success(),
        "verify failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("statement binding: none"), "{stdout}");
    assert!(stdout.contains("key material: derived"), "{stdout}");
    assert!(stdout.contains("verification: OK"), "{stdout}");

    let out = zkvc(&["verify", "--spec", spec, "--seed", "6", "--in", proof_str]);
    assert_eq!(out.status.code(), Some(1), "another seed's key must reject");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("verification: FAILED"), "{stdout}");
}

#[test]
fn malformed_envelope_exits_2() {
    let path = tmp_file("garbage.bin");
    std::fs::write(&path, b"definitely not a proof").unwrap();
    let out = zkvc(&[
        "verify",
        "--spec",
        "2x2x2:s",
        "--in",
        path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("malformed proof envelope"));

    // A valid Groth16 envelope restamped with the retired tag 1 (the form
    // that embedded a verifying key) fails closed the same way.
    let retired = tmp_file("retired-tag.bin");
    let retired_str = retired.to_str().unwrap();
    let out = zkvc(&["prove", "--spec", "2x2x2:g", "--out", retired_str]);
    assert!(out.status.success());
    let mut bytes = std::fs::read(&retired).unwrap();
    let publics = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    let tag = 8 + 4 + 32 * publics;
    assert_eq!(bytes[tag], 3, "the Groth16 tag");
    bytes[tag] = 1;
    std::fs::write(&retired, &bytes).unwrap();
    let out = zkvc(&["verify", "--spec", "2x2x2:g", "--in", retired_str]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("malformed proof envelope"));
}

#[test]
fn future_version_envelope_exits_2_with_upgrade_message() {
    let proof = tmp_file("future.bin");
    let proof_str = proof.to_str().unwrap();
    let out = zkvc(&["prove", "--spec", "2x2x2:s", "--out", proof_str]);
    assert!(out.status.success());
    // A valid envelope restamped with the next format version.
    let mut bytes = std::fs::read(&proof).unwrap();
    assert_eq!(&bytes[..8], b"ZKVCPRF1");
    bytes[7] = b'2';
    std::fs::write(&proof, &bytes).unwrap();
    let out = zkvc(&["verify", "--spec", "2x2x2:s", "--in", proof_str]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("newer than the supported"), "{stderr}");
}

#[test]
fn backend_mismatch_exits_2() {
    let proof = tmp_file("spartan.bin");
    let proof_str = proof.to_str().unwrap();
    let out = zkvc(&["prove", "--spec", "2x2x2:s", "--out", proof_str]);
    assert!(out.status.success());
    let out = zkvc(&["verify", "--spec", "2x2x2:g", "--in", proof_str]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("spartan"));
}

/// sha256 of the `prove-batch --report` file for the CI warm-shape batch:
/// every proof digest, shape digest and key digest of that batch, pinned.
const BATCH_REPORT_SHA256: &str =
    "3368b589a58895ba335d1d398fb4838b3ccb23013c71233678b16be812aeb47a";

#[test]
fn batch_report_bytes_are_pinned_across_worker_counts() {
    for workers in ["2", "4"] {
        let report = tmp_file(&format!("batch-report-w{workers}.json"));
        let out = zkvc(&[
            "prove-batch",
            "--spec",
            "3x4x3:zkvc:g:x4",
            "--spec",
            "mixer-block:spartan:x3",
            "--spec",
            "2x2x2:vanilla:s:x4",
            "--workers",
            workers,
            "--seed",
            "7",
            "--report",
            report.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "prove-batch --workers {workers} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let bytes = std::fs::read(&report).expect("report written");
        assert_eq!(
            zkvc_ff::codec::hex(&zkvc_hash::sha256(&bytes)),
            BATCH_REPORT_SHA256,
            "--workers {workers}: report moved:\n{}",
            String::from_utf8_lossy(&bytes)
        );
    }
}
