//! The zkVC repository benchmark. One command runs a workload, checks
//! every output, and prints every metric by name with its unit; see
//! `README.md` for the catalogue and `../BENCHMARK.json` for the contract.
//!
//! ```text
//! zkvc-benchmark run   [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
//! zkvc-benchmark agree [--runs K] [--seed N] [--seconds S] [--smoke] | --from A.json B.json
//! ```
//!
//! `run --workload NAME` measures one workload in this process and ends
//! its standard output with one JSON result line. `run` without a
//! workload runs all six, each in a child process of its own (so peak
//! memory and process-wide caches do not bleed between workloads), and
//! ends with one JSON line holding every result.

use std::process::{Command, ExitCode, Stdio};

use crate::common::{self, RunConfig};
use crate::json::{self, obj, Value};
use crate::metrics::{Outcome, WORKLOADS};
use crate::{agree, cold, library, serve};

/// Length of a workload's timed section unless `--seconds` says
/// otherwise; `BENCHMARK.json` declares the same `run_seconds`.
pub const DEFAULT_SECONDS: f64 = 12.0;
const SMOKE_SECONDS: f64 = 0.3;

#[derive(Clone, Debug)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub smoke: bool,
    pub runs: usize,
    pub from: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut out = Args {
            workload: None,
            seed: 1,
            seconds: None,
            trace: false,
            smoke: false,
            runs: 1,
            from: Vec::new(),
        };
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            let mut value = |flag: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match arg.as_str() {
                "--workload" => out.workload = Some(value("--workload")?),
                "--seed" => {
                    out.seed = value("--seed")?
                        .parse()
                        .map_err(|_| "--seed takes a whole number".to_string())?;
                }
                "--seconds" => {
                    let s: f64 = value("--seconds")?
                        .parse()
                        .map_err(|_| "--seconds takes a number".to_string())?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err("--seconds must be in (0, 600]".to_string());
                    }
                    out.seconds = Some(s);
                }
                "--runs" => {
                    out.runs = value("--runs")?
                        .parse()
                        .ok()
                        .filter(|k| *k > 0)
                        .ok_or("--runs takes a positive whole number")?;
                }
                // `--trace`, `--trace 0` and `--trace 1` are all accepted.
                "--trace" => {
                    out.trace = match it.peek().map(|s| s.as_str()) {
                        Some("0") => {
                            it.next();
                            false
                        }
                        Some("1") => {
                            it.next();
                            true
                        }
                        _ => true,
                    };
                }
                "--smoke" => out.smoke = true,
                "--from" => {
                    out.from = vec![value("--from")?, value("--from")?];
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(out)
    }

    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        })
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// Where and how a number was measured. Nothing here is tunable: library
/// workloads never load a tune profile and the server is started with
/// `--tune-profile none`, so dispatch is always the static tables.
fn provenance(args: &Args) -> Value {
    let repo = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    obj([
        ("nproc", Value::Num(common::nproc() as f64)),
        // MSM, FFT and sum-check rounds size their thread pools from
        // `available_parallelism`, the same number.
        ("kernel_threads", Value::Num(common::nproc() as f64)),
        (
            "git_commit",
            Value::Str(command_line(
                "git",
                &["-C", repo, "rev-parse", "--short", "HEAD"],
            )),
        ),
        ("rustc", Value::Str(command_line("rustc", &["-V"]))),
        ("tune_profile", Value::Str("static".to_string())),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds())),
        ("smoke", Value::Bool(args.smoke)),
    ])
}

fn run_workload(cfg: &RunConfig, name: &str) -> Result<Outcome, String> {
    if let Some(spec) = library::spec_of(name, cfg.smoke) {
        return Ok(library::run(cfg, name, spec));
    }
    match name {
        "serve_window" => serve::run(cfg, name),
        "cold_shapes" => Ok(cold::run(cfg, name)),
        _ => Err(format!(
            "unknown workload {name:?} (expected one of: {})",
            WORKLOADS
                .iter()
                .map(|(n, _)| *n)
                .collect::<Vec<_>>()
                .join(", ")
        )),
    }
}

/// `run --workload NAME`: measure here, print, end with the result line.
fn run_one(args: &Args, name: &str) -> ExitCode {
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds(),
        trace: args.trace,
        smoke: args.smoke,
    };
    let outcome = match run_workload(&cfg, name) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("zkvc-benchmark: {name}: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", obj([("provenance", provenance(args))]).render());
    println!(
        "{name}: {} of {} jobs failed{}",
        outcome.failed,
        outcome.attempted,
        if outcome.correct {
            ""
        } else {
            "  ** INCORRECT **"
        }
    );
    for (def, value) in outcome.metrics.finish() {
        println!("  {:<40} {:>16.4} {}", def.name, value, def.unit);
    }
    println!("{}", outcome.to_json().render());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload in a child process and returns its result line.
fn run_child(args: &Args, name: &str, trace: bool) -> Result<Value, String> {
    // "One third of the repetitions" for the traced pass.
    let seconds = if trace {
        args.seconds() / 3.0
    } else {
        args.seconds()
    };
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = Command::new(exe);
    child
        .args(["run", "--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if args.smoke {
        child.arg("--smoke");
    }
    let output = child.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let value = json::parse(last).map_err(|e| format!("{name}: no result line ({e})"))?;
    if value.get("metrics").is_none() {
        return Err(format!(
            "{name}: child exited {} without a result",
            output.status
        ));
    }
    Ok(value)
}

pub fn metric(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// All six workloads, each in its own child process; `reverse` flips the
/// order (used by `agree` to cancel drift). Returns the combined record.
pub fn run_all(args: &Args, reverse: bool) -> Result<Value, String> {
    let mut names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    if reverse {
        names.reverse();
    }
    let mut workloads = Vec::new();
    for name in names {
        eprintln!("zkvc-benchmark: {name} ...");
        let end_to_end = run_child(args, name, false)?;
        let per_layer = if args.trace {
            run_child(args, name, true)?
        } else {
            Value::Null
        };
        workloads.push((
            name.to_string(),
            obj([("end_to_end", end_to_end), ("per_layer", per_layer)]),
        ));
    }
    workloads.sort_by_key(|(name, _)| WORKLOADS.iter().position(|(n, _)| n == name));
    let workloads = Value::Obj(workloads);

    // The paper's two ratios, from the workloads that are their terms.
    let job = |name: &str| {
        workloads
            .get(name)
            .and_then(|w| metric(w.get("end_to_end")?, "job_ms_p50"))
    };
    let ratio = |num: &str, den: &str| match (job(num), job(den)) {
        (Some(n), Some(d)) if d > 0.0 => Value::Num(n / d),
        _ => Value::Null,
    };
    let derived = obj([
        (
            "paper.crpc_speedup_g16",
            ratio("matmul_vanilla_g16", "matmul_zkvc_g16"),
        ),
        (
            "paper.spartan_over_g16",
            ratio("matmul_zkvc_spartan", "matmul_zkvc_g16"),
        ),
    ]);
    Ok(obj([
        ("provenance", provenance(args)),
        ("workloads", workloads),
        ("derived", derived),
    ]))
}

fn print_record(record: &Value) {
    let Some(workloads) = record.get("workloads").and_then(Value::as_object) else {
        return;
    };
    for (name, both) in workloads {
        for kind in ["end_to_end", "per_layer"] {
            let Some(result) = both.get(kind).filter(|r| r.get("metrics").is_some()) else {
                continue;
            };
            let count = |key| result.get(key).and_then(Value::as_f64).unwrap_or(0.0);
            println!(
                "{name} [{kind}]: {} of {} jobs failed",
                count("failed"),
                count("attempted")
            );
            for (metric, entry) in result
                .get("metrics")
                .and_then(Value::as_object)
                .unwrap_or(&[])
            {
                println!(
                    "  {:<40} {:>16.4} {}",
                    metric,
                    entry
                        .get("value")
                        .and_then(Value::as_f64)
                        .unwrap_or(f64::NAN),
                    entry.get("unit").and_then(Value::as_str).unwrap_or("?")
                );
            }
        }
    }
    let derived = |key| {
        record
            .get("derived")
            .and_then(|d| d.get(key))
            .and_then(Value::as_f64)
            .unwrap_or(f64::NAN)
    };
    println!(
        "paper.crpc_speedup_g16  {:>8.2} x  (vanilla / CRPC+PSQ job_ms_p50; the paper reports 12.5x)",
        derived("paper.crpc_speedup_g16")
    );
    println!(
        "paper.spartan_over_g16  {:>8.2} x  (Spartan / Groth16 job_ms_p50; the paper reports 1.75 s / 0.73 s = 2.4x)",
        derived("paper.spartan_over_g16")
    );
}

/// True when every result in the record is marked correct.
fn all_correct(record: &Value) -> bool {
    record
        .get("workloads")
        .and_then(Value::as_object)
        .is_some_and(|workloads| {
            workloads.iter().all(|(_, both)| {
                ["end_to_end", "per_layer"].iter().all(|kind| {
                    both.get(kind)
                        .and_then(|r| r.get("correct"))
                        .is_none_or(|c| c.as_bool() == Some(true))
                })
            })
        })
}

pub fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (sub, rest) = match argv.split_first() {
        Some((sub, rest)) => (sub.as_str(), rest),
        None => ("help", &[][..]),
    };
    let args = match Args::parse(rest) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("zkvc-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match (sub, &args.workload) {
        ("run", Some(name)) => run_one(&args, name),
        ("run", None) => match run_all(&args, false) {
            Ok(record) => {
                print_record(&record);
                println!("{}", record.render());
                if all_correct(&record) {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("zkvc-benchmark: {e}");
                ExitCode::from(2)
            }
        },
        ("agree", _) => agree::main(&args),
        _ => {
            eprintln!(
                "usage: zkvc-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]\n       zkvc-benchmark agree [--runs K] [--seed N] [--seconds S] [--smoke] | --from A.json B.json"
            );
            ExitCode::from(2)
        }
    }
}
