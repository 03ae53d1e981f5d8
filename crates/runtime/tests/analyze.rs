//! The static-analysis surface, end to end: every lint rule firing on a
//! committed known-bad fixture, every shipping spec analyzing clean, the
//! `zkvc analyze` CLI's reports and gate, the serve
//! pre-flight (`--analyze-on-compile`), and the eager `ZKVC_FAULTS`
//! startup validation.

use std::io::Cursor;
use std::process::{Command, Output};

use zkvc_ff::{Fr, PrimeField};
use zkvc_r1cs::{CompiledShape, ConstraintSystem, LinearCombination, Rule, Severity};
use zkvc_runtime::analysis::{analyze_spec, analyze_specs, default_sweep, gate_count};
use zkvc_runtime::{serve, JobSpec, ServeConfig};

fn zkvc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_zkvc"))
        .args(args)
        .output()
        .expect("zkvc binary runs")
}

/// One known-bad constraint system per rule: the analyzer must flag each
/// with exactly the expected rule (plus whatever the bug implies).
#[test]
fn every_rule_has_a_firing_fixture() {
    type Fixture = (Rule, fn() -> (ConstraintSystem<Fr>, usize));

    let fixtures: Vec<Fixture> = vec![
        (Rule::UnconstrainedWitness, || {
            // A range-check gadget that allocates a limb and forgets to
            // use it: the limb can take any value.
            let mut cs = ConstraintSystem::<Fr>::new();
            let x = cs.alloc_witness(Fr::from_u64(3));
            let _forgotten_limb = cs.alloc_witness(Fr::from_u64(1));
            let y = cs.alloc_instance(Fr::from_u64(9));
            cs.enforce(x.into(), x.into(), y.into());
            (cs, 1)
        }),
        (Rule::UnboundPublic, || {
            // The `:private` miscompile: the statement declares an output
            // the shape never allocates, so nothing binds the claim.
            let mut cs = ConstraintSystem::<Fr>::new();
            let x = cs.alloc_witness(Fr::from_u64(3));
            let y = cs.alloc_witness(Fr::from_u64(9));
            cs.enforce(x.into(), x.into(), y.into());
            (cs, 1) // declares 1 public output, allocates 0
        }),
        (Rule::ConstantViolation, || {
            // An unsatisfiable row: no witness exists, every prove fails.
            let mut cs = ConstraintSystem::<Fr>::new();
            let x = cs.alloc_witness(Fr::from_u64(3));
            let y = cs.alloc_instance(Fr::from_u64(9));
            cs.enforce(x.into(), x.into(), y.into());
            cs.enforce(
                LinearCombination::constant(Fr::from_u64(2)),
                LinearCombination::constant(Fr::from_u64(3)),
                LinearCombination::constant(Fr::from_u64(7)),
            );
            (cs, 1)
        }),
        (Rule::MissingBooleanity, || {
            // A selector consumed as boolean whose pinning row was
            // dropped: b = 2 would leak 2·k through the select.
            let mut cs = ConstraintSystem::<Fr>::new();
            let b = cs.alloc_witness(Fr::from_u64(1));
            let out = cs.alloc_instance(Fr::from_u64(5));
            cs.enforce(
                b.into(),
                LinearCombination::constant(Fr::from_u64(5)),
                out.into(),
            );
            cs.expect_boolean(b);
            (cs, 1)
        }),
        (Rule::DeadConstraint, || {
            // A vacuous row: holds for every assignment, pins nothing.
            let mut cs = ConstraintSystem::<Fr>::new();
            let x = cs.alloc_witness(Fr::from_u64(3));
            let y = cs.alloc_instance(Fr::from_u64(9));
            cs.enforce(x.into(), x.into(), y.into());
            cs.enforce(
                LinearCombination::zero(),
                LinearCombination::zero(),
                LinearCombination::zero(),
            );
            (cs, 1)
        }),
        (Rule::DuplicateConstraint, || {
            // The same product row twice (A/B commuted): one is wasted.
            let mut cs = ConstraintSystem::<Fr>::new();
            let x = cs.alloc_witness(Fr::from_u64(3));
            let w = cs.alloc_witness(Fr::from_u64(2));
            let y = cs.alloc_instance(Fr::from_u64(6));
            cs.enforce(x.into(), w.into(), y.into());
            cs.enforce(w.into(), x.into(), y.into());
            (cs, 1)
        }),
    ];

    for (rule, build) in fixtures {
        let (cs, declared) = build();
        let report = CompiledShape::from_cs(&cs).analyze(declared);
        assert!(
            report.findings.iter().any(|f| f.rule == rule),
            "{rule} fixture did not fire: {:?}",
            report.findings
        );
        assert_eq!(
            report.findings.iter().map(|f| f.severity).max(),
            Some(rule.severity()),
            "{rule} fixture fired something worse than itself"
        );
    }
}

/// The acceptance bar: every shipping preset x strategy x backend
/// analyzes clean — zero findings of any severity.
#[test]
fn shipping_sweep_is_clean() {
    let results = analyze_specs(&default_sweep(), 0);
    assert_eq!(results.len(), 32);
    for r in &results {
        assert!(
            r.report.is_clean(),
            "{} has findings: {:#?}",
            r.spec,
            r.report.findings
        );
    }
    assert_eq!(gate_count(&results, Severity::Info), 0);
}

#[test]
fn private_matmul_spec_is_deny_flagged() {
    let (spec, _) = JobSpec::parse("4x4x4:zkvc:g:private").unwrap();
    let report = analyze_spec(&spec, 0);
    assert!(report
        .findings
        .iter()
        .any(|f| f.rule == Rule::UnboundPublic && f.severity == Severity::Deny));
}

#[test]
fn analyze_cli_passes_clean_specs_and_rejects_private_ones() {
    let out = zkvc(&[
        "analyze",
        "--spec",
        "4x4x4:zkvc:g",
        "--spec",
        "2x3x2:vanilla:s",
    ]);
    assert!(
        out.status.success(),
        "clean analyze failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("clean"), "{stdout}");
    assert!(stdout.contains("0 finding(s)"), "{stdout}");

    // The known-bad spec gates with exit 1 and names the rule.
    let out = zkvc(&["analyze", "--spec", "4x4x4:zkvc:g:private"]);
    assert_eq!(out.status.code(), Some(1), "deny findings exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("unbound-public"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("analysis failed"), "{stderr}");

    // Same spec under --deny info still fails; a clean spec never does.
    let out = zkvc(&["analyze", "--spec", "2x3x2:vanilla:s", "--deny", "info"]);
    assert!(out.status.success());
    let out = zkvc(&["analyze", "--spec", "2x3x2:vanilla:s", "--deny", "bogus"]);
    assert_eq!(out.status.code(), Some(2), "bad --deny is a usage error");
    // There is no waiver list: a finding can only be fixed, not hidden.
    let out = zkvc(&[
        "analyze",
        "--spec",
        "4x4x4:zkvc:g:private",
        "--baseline",
        "x",
    ]);
    assert_eq!(out.status.code(), Some(2), "--baseline is not an argument");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown argument"), "{stderr}");
}

#[test]
fn analyze_cli_emits_json_reports() {
    let out = zkvc(&["analyze", "--spec", "2x3x2:vanilla:s", "--json"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("{\"type\":\"analysis\""), "{stdout}");
    assert!(stdout.contains("\"total_findings\":0"), "{stdout}");
    assert!(stdout.contains("\"worst\":null"), "{stdout}");

    let out = zkvc(&["analyze", "--spec", "4x4x4:zkvc:g:private", "--json"]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"rule\":\"unbound-public\""), "{stdout}");
    assert!(stdout.contains("\"worst\":\"deny\""), "{stdout}");
}

#[test]
fn serve_preflight_rejects_deny_shapes_in_stream() {
    let input = concat!(
        "{\"spec\": \"2x3x2:vanilla:s:private\", \"id\": \"bad\"}\n",
        "{\"spec\": \"2x3x2:vanilla:s\", \"id\": \"good\"}\n",
        "{\"spec\": \"2x3x2:vanilla:s:private\", \"id\": \"bad-again\"}\n",
    );
    #[derive(Clone, Default)]
    struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);
    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let buf = SharedBuf::default();
    let summary = serve(
        Cursor::new(input.as_bytes().to_vec()),
        buf.clone(),
        ServeConfig::new(1).analyze_on_compile(true),
    )
    .unwrap();
    assert_eq!(summary.jobs, 1, "only the clean spec proves");
    assert_eq!(summary.verified, 1);
    assert_eq!(summary.rejected, 2, "both bad requests answered in-stream");

    let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    assert_eq!(
        text.lines()
            .filter(|l| l.contains("\"type\":\"error\"")
                && l.contains("\"code\":2")
                && l.contains("pre-flight"))
            .count(),
        2,
        "{text}"
    );
    assert!(text.contains("unbound-public"), "{text}");
    assert!(
        text.contains("\"id\":\"good\"") && text.contains("\"verified\":true"),
        "{text}"
    );
}

#[test]
fn malformed_fault_schedule_is_a_startup_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_zkvc"))
        .args(["analyze", "--spec", "2x3x2:vanilla:s"])
        .env("ZKVC_FAULTS", "net.read.io_error=not-a-number")
        .output()
        .expect("zkvc binary runs");
    assert_eq!(out.status.code(), Some(2), "bad schedule is a usage error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("ZKVC_FAULTS"), "{stderr}");
    assert!(stderr.contains("bad probability"), "{stderr}");

    // A misspelt point is refused too, rather than arming nothing.
    let out = Command::new(env!("CARGO_BIN_EXE_zkvc"))
        .args(["analyze", "--spec", "2x3x2:vanilla:s"])
        .env("ZKVC_FAULTS", "seed=1;net.read.shrot=0.5")
        .output()
        .expect("zkvc binary runs");
    assert_eq!(out.status.code(), Some(2), "unknown point is a usage error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("ZKVC_FAULTS"), "{stderr}");
    assert!(stderr.contains("unknown fault point"), "{stderr}");

    // A well-formed schedule passes validation and the command runs.
    let out = Command::new(env!("CARGO_BIN_EXE_zkvc"))
        .args(["analyze", "--spec", "2x3x2:vanilla:s"])
        .env("ZKVC_FAULTS", "seed=1;net.read.io_error=0.0")
        .output()
        .expect("zkvc binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
