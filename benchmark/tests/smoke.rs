//! The benchmark's self-test: `BENCHMARK.json` and the catalogue in
//! `src/metrics.rs` say the same thing, and a `--smoke` run emits every
//! declared metric of every declared workload exactly once, finite, with
//! the declared unit. Run with `--release`; a debug build passes too but
//! spends minutes in Groth16 set-up.

use std::process::Command;

use zkvc_benchmark::cli::DEFAULT_SECONDS;
use zkvc_benchmark::json::{self, Value};
use zkvc_benchmark::metrics::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};

fn contract() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json is over 64 KiB");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn text<'a>(entry: &'a Value, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("missing string {key:?} in {}", entry.render()))
}

fn keys(value: &Value) -> Vec<&str> {
    value
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

fn well_formed_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

fn assert_metrics_match(declared: &Value, catalogue: &[MetricDef], bounded: bool) {
    let declared = declared.as_array().expect("a metric list");
    assert_eq!(declared.len(), catalogue.len());
    for (entry, def) in declared.iter().zip(catalogue) {
        assert!(well_formed_name(def.name), "{}", def.name);
        assert_eq!(text(entry, "name"), def.name);
        assert_eq!(text(entry, "unit"), def.unit, "{}", def.name);
        assert_eq!(text(entry, "better"), def.better, "{}", def.name);
        if bounded {
            assert_eq!(keys(entry), ["name", "unit", "better", "bound"]);
            let bound = entry.get("bound").and_then(Value::as_f64);
            assert_eq!(bound, Some(def.bound), "{}", def.name);
            assert!(def.bound > 0.0 && def.bound <= 0.25, "{}", def.name);
        } else {
            assert_eq!(keys(entry), ["name", "unit", "better"]);
        }
    }
}

#[test]
fn contract_matches_the_catalogue() {
    let contract = contract();
    assert_eq!(
        keys(&contract),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        contract.get("run_seconds").and_then(Value::as_f64),
        Some(DEFAULT_SECONDS)
    );
    let paths = contract.get("paths").and_then(Value::as_array).unwrap();
    assert_eq!(paths, [Value::Str("benchmark".to_string())]);

    let workloads = contract.get("workloads").and_then(Value::as_array).unwrap();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (entry, (name, why)) in workloads.iter().zip(WORKLOADS) {
        assert!(well_formed_name(name), "{name}");
        assert_eq!(keys(entry), ["name", "why"]);
        assert_eq!(text(entry, "name"), *name);
        assert_eq!(text(entry, "why"), *why);
        assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
    }
    assert_metrics_match(contract.get("end_to_end").unwrap(), END_TO_END, true);
    assert_metrics_match(contract.get("per_layer").unwrap(), PER_LAYER, false);
    assert!(END_TO_END
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s"));
    assert!(PER_LAYER.len() <= 128);

    let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
    names.extend(WORKLOADS.iter().map(|(n, _)| *n));
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");
}

/// One result line: every catalogue metric once, finite, right unit.
fn assert_result(result: &Value, catalogue: &[MetricDef], context: &str) {
    assert_eq!(
        keys(result),
        ["correct", "attempted", "failed", "metrics"],
        "{context}"
    );
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{context}");
    assert_eq!(result.get("failed"), Some(&Value::Num(0.0)), "{context}");
    assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
    let metrics = result.get("metrics").unwrap();
    let expected: Vec<&str> = catalogue.iter().map(|d| d.name).collect();
    assert_eq!(keys(metrics), expected, "{context}");
    for def in catalogue {
        let entry = metrics.get(def.name).unwrap();
        assert_eq!(keys(entry), ["value", "unit"], "{context} {}", def.name);
        assert_eq!(text(entry, "unit"), def.unit, "{context} {}", def.name);
        let value = entry.get("value").and_then(Value::as_f64);
        assert!(value.is_some_and(f64::is_finite), "{context} {}", def.name);
    }
    for def in END_TO_END {
        if let Some(value) = metrics.get(def.name).and_then(|e| e.get("value")) {
            assert!(value.as_f64().unwrap() > 0.0, "{context} {} is 0", def.name);
        }
    }
}

#[test]
fn smoke_run_emits_every_declared_metric() {
    let output = Command::new(env!("CARGO_BIN_EXE_zkvc-benchmark"))
        .args(["run", "--smoke", "--trace", "--seed", "3"])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "smoke run failed: {}\n{stdout}",
        String::from_utf8_lossy(&output.stderr)
    );
    let record = json::parse(stdout.lines().last().unwrap()).expect("a final JSON line");
    for key in [
        "nproc",
        "kernel_threads",
        "git_commit",
        "rustc",
        "tune_profile",
        "seed",
    ] {
        assert!(
            record.get("provenance").unwrap().get(key).is_some(),
            "{key}"
        );
    }
    let workloads = record.get("workloads").unwrap();
    let expected: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    assert_eq!(keys(workloads), expected);
    for name in expected {
        let both = workloads.get(name).unwrap();
        assert_result(both.get("end_to_end").unwrap(), END_TO_END, name);
        assert_result(both.get("per_layer").unwrap(), PER_LAYER, name);
    }
    for ratio in ["paper.crpc_speedup_g16", "paper.spartan_over_g16"] {
        let value = record.get("derived").unwrap().get(ratio);
        assert!(
            value.and_then(Value::as_f64).is_some_and(f64::is_finite),
            "{ratio}"
        );
    }
}
