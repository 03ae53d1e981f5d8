//! The `zkvc analyze` layer: runs the `zkvc-r1cs` static lint catalog
//! over the circuits a [`JobSpec`] names, for the CLI, the CI gate, and
//! the serve pre-flight.
//!
//! The analysis itself lives in `zkvc_r1cs::analyze` and works on any
//! [`CompiledShape`](zkvc_r1cs::CompiledShape); this module owns the
//! *spec-level* plumbing: building the statement a spec describes,
//! compiling its shape, feeding the circuit's declared public-output
//! count to the analyzer, sweeping the shipping spec matrix, and
//! rendering reports (human and JSON lines).
//!
//! Analysis is witness-free and backend-independent: the compiled shape
//! is the same whether it will be proved under Groth16 or Spartan, so
//! [`analyze_specs`] memoises per backend-normalised spec and a full
//! sweep costs one compile per distinct circuit.

use std::collections::HashMap;
use std::sync::Mutex;

use zkvc_core::api::compile_shape;
use zkvc_core::matmul::Strategy;
use zkvc_core::Backend;
use zkvc_r1cs::{Severity, ShapeReport};

use crate::job::build_statement;
use crate::spec::{JobSpec, ModelPreset};
use crate::util::json_escape;

/// Analyzes the circuit `spec` names at `seed`: builds the statement,
/// compiles its shape (witness-free), and runs the full lint catalog
/// against the statement's declared public-output count.
pub fn analyze_spec(spec: &JobSpec, seed: u64) -> ShapeReport {
    let statement = build_statement(seed, 0, spec);
    let shape = compile_shape(statement.as_ref());
    shape.analyze(statement.declared_publics())
}

/// One spec's analysis result inside a sweep.
#[derive(Clone, Debug)]
pub struct SpecAnalysis {
    /// The spec as given (backend included).
    pub spec: JobSpec,
    /// The lint report for its compiled shape.
    pub report: ShapeReport,
}

/// Analyzes every spec in `specs` at `seed`, memoising compiles across
/// backend variants (the backend never changes the shape).
pub fn analyze_specs(specs: &[JobSpec], seed: u64) -> Vec<SpecAnalysis> {
    let mut memo: HashMap<JobSpec, ShapeReport> = HashMap::new();
    specs
        .iter()
        .map(|spec| {
            let key = spec.with_backend(Backend::Groth16);
            let report = memo
                .entry(key)
                .or_insert_with(|| analyze_spec(spec, seed))
                .clone();
            SpecAnalysis {
                spec: *spec,
                report,
            }
        })
        .collect()
}

/// The shipping spec matrix the bare `zkvc analyze` sweeps: a
/// representative matmul plus every model preset, across all four
/// strategies and both backends. Every deployable circuit appears by
/// name, so the CI gate's report has one line per spec a user could
/// actually submit.
pub fn default_sweep() -> Vec<JobSpec> {
    let mut specs = Vec::new();
    for strategy in Strategy::ALL {
        for backend in Backend::ALL {
            specs.push(
                JobSpec::new(4, 4, 4)
                    .with_strategy(strategy)
                    .with_backend(backend),
            );
            for preset in ModelPreset::ALL {
                specs.push(
                    JobSpec::model(preset)
                        .with_strategy(strategy)
                        .with_backend(backend),
                );
            }
        }
    }
    specs
}

/// A thread-safe, memoising deny-severity pre-flight for the serve
/// intake loops (`--analyze-on-compile`): the first job of each distinct
/// spec pays one witness-free compile + lint pass, later jobs reuse the
/// cached verdict. Seeds change statement values but never the shape, so
/// the verdict is keyed on the backend-normalised spec alone.
#[derive(Debug, Default)]
pub struct Preflight {
    verdicts: Mutex<HashMap<JobSpec, Option<String>>>,
}

impl Preflight {
    /// An empty pre-flight cache.
    pub fn new() -> Self {
        Preflight::default()
    }

    /// `Err(reason)` when `spec`'s compiled shape carries deny-severity
    /// findings, `Ok(())` otherwise.
    pub fn check(&self, spec: &JobSpec, seed: u64) -> Result<(), String> {
        let key = spec.with_backend(Backend::Groth16);
        let mut verdicts = self.verdicts.lock().expect("preflight poisoned");
        let verdict = verdicts.entry(key).or_insert_with(|| {
            let report = analyze_spec(spec, seed);
            let denies: Vec<_> = report.at_least(Severity::Deny).collect();
            if denies.is_empty() {
                return None;
            }
            let mut rules: Vec<&str> = denies.iter().map(|f| f.rule.id()).collect();
            rules.dedup();
            Some(format!(
                "spec {spec} failed pre-flight analysis: {} deny-severity finding(s) ({})",
                denies.len(),
                rules.join(", ")
            ))
        });
        match verdict {
            None => Ok(()),
            Some(reason) => Err(reason.clone()),
        }
    }
}

/// Counts findings at or above `threshold` across a sweep — the number
/// the CLI gates its exit code on.
pub fn gate_count(results: &[SpecAnalysis], threshold: Severity) -> usize {
    results
        .iter()
        .map(|r| r.report.at_least(threshold).count())
        .sum()
}

/// Renders a sweep as a human-readable report: one block per spec, every
/// finding with its severity, rule id and message, then a totals line.
pub fn render_human(results: &[SpecAnalysis]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut total = 0usize;
    for r in results {
        let spec = r.spec.to_string();
        if r.report.is_clean() {
            let _ = writeln!(
                out,
                "{spec}: clean ({} constraints, {} instance, {} witness)",
                r.report.num_constraints, r.report.num_instance, r.report.num_witness
            );
            continue;
        }
        let _ = writeln!(
            out,
            "{spec}: {} finding(s) ({} constraints)",
            r.report.findings.len(),
            r.report.num_constraints
        );
        total += r.report.findings.len();
        for f in &r.report.findings {
            let _ = writeln!(out, "  {} [{}]: {}", f.severity, f.rule.id(), f.message);
        }
    }
    let _ = writeln!(
        out,
        "analyzed {} spec(s): {total} finding(s)",
        results.len()
    );
    out
}

/// Renders a sweep as one flat JSON object (the machine-readable report
/// the CI gate archives).
pub fn render_json(results: &[SpecAnalysis]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\"type\":\"analysis\",\"specs\":[");
    let mut worst: Option<Severity> = None;
    let mut total = 0usize;
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let spec = r.spec.to_string();
        let _ = write!(
            out,
            "{{\"spec\":\"{}\",\"constraints\":{},\"instance\":{},\"witness\":{},\"declared_publics\":{},\"findings\":[",
            json_escape(&spec),
            r.report.num_constraints,
            r.report.num_instance,
            r.report.num_witness,
            r.report.declared_publics,
        );
        for (j, f) in r.report.findings.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            total += 1;
            worst = worst.max(Some(f.severity));
            let _ = write!(
                out,
                "{{\"rule\":\"{}\",\"severity\":\"{}\",\"constraint\":{},\"column\":{},\"message\":\"{}\"}}",
                f.rule.id(),
                f.severity,
                f.constraint.map_or("null".to_string(), |r| r.to_string()),
                f.column.map_or("null".to_string(), |c| c.to_string()),
                json_escape(&f.message),
            );
        }
        out.push_str("]}");
    }
    let _ = write!(
        out,
        "],\"total_findings\":{total},\"worst\":{}}}",
        worst.map_or("null".to_string(), |w| format!("\"{w}\""))
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::parse_json_object;
    use zkvc_r1cs::Rule;

    #[test]
    fn private_matmul_is_flagged_unbound() {
        let (spec, _) = JobSpec::parse("3x2x3:vanilla:g:private").unwrap();
        let report = analyze_spec(&spec, 0);
        assert_eq!(
            report.num_instance, 0,
            "private outputs allocate no instance"
        );
        assert!(report
            .findings
            .iter()
            .any(|f| f.rule == Rule::UnboundPublic));
        assert_eq!(report.worst(), Some(Severity::Deny));
    }

    #[test]
    fn memoised_sweep_compiles_each_shape_once() {
        // Same circuit under both backends: two entries, identical reports.
        let (g, _) = JobSpec::parse("2x2x2:zkvc:g").unwrap();
        let (s, _) = JobSpec::parse("2x2x2:zkvc:s").unwrap();
        let results = analyze_specs(&[g, s], 0);
        assert_eq!(results.len(), 2);
        assert_eq!(
            results[0].report.num_constraints,
            results[1].report.num_constraints
        );
    }

    #[test]
    fn default_sweep_names_the_shipping_matrix() {
        let sweep = default_sweep();
        // (1 matmul + 3 presets) x 4 strategies x 2 backends.
        assert_eq!(sweep.len(), 32);
        let labels: std::collections::HashSet<String> =
            sweep.iter().map(std::string::ToString::to_string).collect();
        assert_eq!(labels.len(), 32, "no duplicate spec lines");
        assert!(sweep.iter().all(super::super::spec::JobSpec::binds_outputs));
    }

    #[test]
    fn gate_count_respects_threshold() {
        let (private, _) = JobSpec::parse("3x2x3:vanilla:g:private").unwrap();
        let results = analyze_specs(&[private], 0);
        assert!(gate_count(&results, Severity::Deny) > 0);
        let (clean, _) = JobSpec::parse("2x2x2:zkvc:s").unwrap();
        assert_eq!(gate_count(&analyze_specs(&[clean], 0), Severity::Info), 0);
    }

    #[test]
    fn reports_render_and_json_parses_flat() {
        let (clean, _) = JobSpec::parse("2x2x2:zkvc:s").unwrap();
        let (private, _) = JobSpec::parse("3x2x3:vanilla:g:private").unwrap();
        let results = analyze_specs(&[clean, private], 0);

        let human = render_human(&results);
        assert!(human.contains("2x2x2:crpc+psq:spartan: clean"), "{human}");
        assert!(human.contains("unbound-public"), "{human}");
        assert!(human.contains("analyzed 2 spec(s)"), "{human}");

        let json = render_json(&results);
        // The nested arrays make it non-flat for the wire parser, but it
        // must at least be balanced and carry the gate fields.
        assert!(json.contains("\"total_findings\":"), "{json}");
        assert!(json.contains("\"worst\":\"deny\""), "{json}");
        assert!(json.contains("\"rule\":\"unbound-public\""), "{json}");

        // A clean sweep's summary fields parse as JSON scalars.
        let clean_json = render_json(&results[..1]);
        assert!(clean_json.contains("\"worst\":null"), "{clean_json}");
        // Sanity: the per-finding object for the private spec is flat.
        let start = json.find("{\"rule\":").unwrap();
        let end = json[start..].find('}').unwrap();
        parse_json_object(&json[start..=start + end]).unwrap();
    }
}
