//! `agree`: do two sets of runs of the same code give the same numbers?
//! The benchmark's bounds mean something only if they do, so this is the
//! check to run before trusting a baseline on a new host.

use std::process::ExitCode;

use crate::cli::{metric, run_all, Args};
use crate::json::{self, Value};
use crate::metrics::{END_TO_END, WORKLOADS};
use crate::stats::median;

/// Two sets of `runs` full runs each, interleaved (first, second, first,
/// ...) with the workload order flipped every run, so slow drift of the
/// host lands on both sets alike.
fn rerun(args: &Args) -> Result<[Vec<Value>; 2], String> {
    let mut sets = [Vec::new(), Vec::new()];
    for i in 0..2 * args.runs {
        eprintln!("zkvc-benchmark: agree run {} of {}", i + 1, 2 * args.runs);
        sets[i % 2].push(run_all(args, i % 2 == 1)?);
    }
    Ok(sets)
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let last = text.lines().last().unwrap_or_default();
    json::parse(last).map_err(|e| format!("{path}: last line is not a run record ({e})"))
}

/// The median over a set's runs of one end-to-end metric of one workload.
fn set_median(set: &[Value], workload: &str, name: &str) -> Option<f64> {
    let values: Vec<f64> = set
        .iter()
        .filter_map(|record| {
            let result = record.get("workloads")?.get(workload)?.get("end_to_end")?;
            metric(result, name)
        })
        .collect();
    (!values.is_empty()).then(|| median(&values))
}

pub fn main(args: &Args) -> ExitCode {
    let sets = if args.from.is_empty() {
        rerun(args)
    } else {
        args.from
            .iter()
            .map(|p| load(p).map(|r| vec![r]))
            .collect::<Result<Vec<_>, _>>()
            .map(|mut v| [v.remove(0), v.remove(0)])
    };
    let [first, second] = match sets {
        Ok(sets) => sets,
        Err(e) => {
            eprintln!("zkvc-benchmark: {e}");
            return ExitCode::from(2);
        }
    };

    println!(
        "{:<22} {:<16} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    let mut disagreements = 0;
    for (workload, _) in WORKLOADS {
        for def in END_TO_END {
            let (Some(a), Some(b)) = (
                set_median(&first, workload, def.name),
                set_median(&second, workload, def.name),
            ) else {
                println!("{workload:<22} {:<16} missing from a set", def.name);
                disagreements += 1;
                continue;
            };
            let diff = (b - a) / a;
            let agrees = diff.abs() <= def.bound;
            disagreements += u32::from(!agrees);
            println!(
                "{workload:<22} {:<16} {a:>14.4} {b:>14.4} {:>+8.2}% {:>6.0}%{}",
                def.name,
                diff * 100.0,
                def.bound * 100.0,
                if agrees { "" } else { "  DISAGREE" }
            );
        }
    }
    if disagreements == 0 {
        println!("agree: every metric within its bound");
        ExitCode::SUCCESS
    } else {
        println!("agree: {disagreements} metric(s) outside their bound");
        ExitCode::FAILURE
    }
}
