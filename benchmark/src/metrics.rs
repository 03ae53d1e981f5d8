//! The metric and workload catalogue. `BENCHMARK.json` at the repository
//! root declares the same names, units and bounds; `tests/smoke.rs` fails
//! when the two drift apart.

use std::collections::BTreeMap;

use crate::json::{obj, Value};

#[derive(Copy, Clone, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the baseline median by which the metric may get worse
    /// (end-to-end metrics only; per-layer metrics carry no bound).
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// What a user of the proving stack sees, reported for every workload.
/// The timing bounds are the widest the contract allows: on the shared
/// 2-core host the baseline was taken on, the same code measured minutes
/// apart differs by up to a quarter (see README, "How steady it is").
pub const END_TO_END: &[MetricDef] = &[
    e2e("job_ms_p50", "ms", "lower", 0.25),
    e2e("verify_ms_p50", "ms", "lower", 0.25),
    e2e("jobs_per_s", "1/s", "higher", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("proof_bytes", "B", "lower", 0.02),
    e2e("peak_rss_mb", "MiB", "lower", 0.20),
];

/// One row per layer quantity, reported by the traced run. A metric a
/// workload does not exercise reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    layer("core.statement_ms_p50", "ms", "lower"),
    layer("nn.statement_ms_p50", "ms", "lower"),
    layer("r1cs.witness_ms_p50", "ms", "lower"),
    layer("r1cs.shape_compile_ms", "ms", "lower"),
    layer("r1cs.constraints", "count", "lower"),
    layer("r1cs.variables", "count", "lower"),
    layer("r1cs.instance", "count", "lower"),
    layer("r1cs.nonzeros", "count", "lower"),
    layer("qap.compute_h_ms_p50", "ms", "lower"),
    layer("ff.fft_ms_p50", "ms", "lower"),
    layer("ff.fft_log2_size", "count", "lower"),
    layer("curve.msm_a_ms_p50", "ms", "lower"),
    layer("curve.msm_b1_ms_p50", "ms", "lower"),
    layer("curve.msm_b2_ms_p50", "ms", "lower"),
    layer("curve.msm_l_ms_p50", "ms", "lower"),
    layer("curve.msm_h_ms_p50", "ms", "lower"),
    layer("curve.msm_points_total", "count", "lower"),
    layer("curve.msm_small_scalar_share", "ratio", "higher"),
    layer("curve.pairing_ms_p50", "ms", "lower"),
    layer("groth16.setup_ms", "ms", "lower"),
    layer("groth16.prove_ms_p50", "ms", "lower"),
    layer("groth16.prove_unattributed_share", "ratio", "lower"),
    layer("groth16.prepare_inputs_ms_p50", "ms", "lower"),
    layer("groth16.verify_ms_p50", "ms", "lower"),
    layer("groth16.pk_elements", "count", "lower"),
    layer("spartan.preprocess_ms", "ms", "lower"),
    layer("spartan.gens_ms", "ms", "lower"),
    layer("spartan.commit_ms_p50", "ms", "lower"),
    layer("spartan.sumcheck1_ms_p50", "ms", "lower"),
    layer("spartan.sumcheck2_ms_p50", "ms", "lower"),
    layer("spartan.ipa_ms_p50", "ms", "lower"),
    layer("spartan.prove_ms_p50", "ms", "lower"),
    layer("spartan.prove_unattributed_share", "ratio", "lower"),
    layer("spartan.verify_ms_p50", "ms", "lower"),
    layer("spartan.padded_witness_len", "count", "lower"),
    layer("runtime.serial.encode_us_p50", "us", "lower"),
    layer("runtime.serial.decode_us_p50", "us", "lower"),
    layer("runtime.wire.parse_request_us_p50", "us", "lower"),
    layer("runtime.wire.result_line_us_p50", "us", "lower"),
    layer("runtime.wire.response_bytes_p50", "B", "lower"),
    layer("runtime.pool.queue_ms_p50", "ms", "lower"),
    layer("runtime.pool.queue_ms_p90", "ms", "lower"),
    layer("runtime.pool.build_ms_p50", "ms", "lower"),
    layer("runtime.pool.prove_ms_p50", "ms", "lower"),
    layer("runtime.pool.verify_ms_p50", "ms", "lower"),
    layer("runtime.pool.busy_share", "ratio", "higher"),
    layer("runtime.pool.worker_imbalance", "ratio", "lower"),
    layer("runtime.net.ready_ms", "ms", "lower"),
    layer("runtime.net.overhead_ms_p50", "ms", "lower"),
    layer("runtime.net.job_ms_p90", "ms", "lower"),
    layer("runtime.cache.hit_share", "ratio", "higher"),
    layer("runtime.cache.evictions", "count", "lower"),
    layer("runtime.cache.setup_ms_p50", "ms", "lower"),
    layer("runtime.codec.encode_shape_ms", "ms", "lower"),
    layer("runtime.codec.shape_bytes", "B", "lower"),
    layer("bench.job_ms_p90", "ms", "lower"),
    layer("bench.verify_ms_p90", "ms", "lower"),
    layer("bench.failed_share", "ratio", "lower"),
    layer("bench.trace_overhead_share", "ratio", "lower"),
    layer("bench.samples", "count", "higher"),
];

pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "matmul_vanilla_g16",
        "49x16x32 vanilla on Groth16, warm key: one 2^15 compute_h and five ~27k-point MSMs over small scalars; the denominator of the paper's ratio",
    ),
    (
        "matmul_zkvc_g16",
        "49x16x32 CRPC+PSQ on Groth16, warm key: 1.6k constraints, so statement, witness and fixed per-proof cost dominate and MSM scalars are full-width",
    ),
    (
        "matmul_zkvc_spartan",
        "49x16x32 CRPC+PSQ on Spartan: commitment, two sum-checks and the IPA opening do the work; Groth16, QAP and FFT do nothing",
    ),
    (
        "bert_block_g16",
        "one BERT block on Groth16: nonlinear gadgets give bit-heavy sparse rows and 2 publics, so verify is pairing-bound",
    ),
    (
        "serve_window",
        "zkvc serve subprocess, nproc sessions with 4 requests outstanding, 3:1 mix of two warm small shapes: wire, admission, scheduler and routing set the rate",
    ),
    (
        "cold_shapes",
        "in-process pool with a small key cache, every job a distinct shape: compile, setup, insert and evict on each job, the write side of the cache",
    ),
];

/// The values one run reports, checked against a catalogue when set.
#[derive(Debug)]
pub struct Metrics {
    trace: bool,
    catalogue: &'static [MetricDef],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    pub fn new(trace: bool) -> Self {
        Metrics {
            trace,
            catalogue: if trace { PER_LAYER } else { END_TO_END },
            values: BTreeMap::new(),
        }
    }

    /// Whether this run reports the per-layer catalogue.
    pub fn is_trace(&self) -> bool {
        self.trace
    }

    /// Sets a metric of the active catalogue; a name from the other
    /// catalogue is ignored, so workloads set both kinds unconditionally.
    ///
    /// # Panics
    /// Panics on a name neither catalogue knows, or one set twice: both
    /// are bugs in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let known = |c: &[MetricDef]| c.iter().any(|d| d.name == name);
        assert!(
            known(END_TO_END) || known(PER_LAYER),
            "metric {name} is not in the catalogue"
        );
        if known(self.catalogue) {
            let previous = self.values.insert(name, value);
            assert!(previous.is_none(), "metric {name} set twice");
        }
    }

    /// Every metric of the catalogue in catalogue order; a per-layer
    /// metric the workload did not set reads 0.
    ///
    /// # Panics
    /// Panics when an end-to-end metric is missing.
    pub fn finish(&self) -> Vec<(&'static MetricDef, f64)> {
        self.catalogue
            .iter()
            .map(|def| {
                let value = self.values.get(def.name).copied();
                assert!(
                    value.is_some() || self.is_trace(),
                    "end-to-end metric {} was not measured",
                    def.name
                );
                (def, value.unwrap_or(0.0))
            })
            .collect()
    }
}

/// What one run of one workload produced.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// False when any job failed or an end-of-run check did (tamper
    /// rejection, session summary counts).
    pub correct: bool,
    pub metrics: Metrics,
}

impl Outcome {
    /// The one-line result the driver reads.
    pub fn to_json(&self) -> Value {
        let metrics = self
            .metrics
            .finish()
            .into_iter()
            .map(|(def, value)| {
                (
                    def.name.to_string(),
                    obj([
                        ("value", Value::Num(value)),
                        ("unit", Value::Str(def.unit.to_string())),
                    ]),
                )
            })
            .collect();
        obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::Obj(metrics)),
        ])
    }
}
