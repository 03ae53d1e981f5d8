//! The four library workloads: one driver thread proving one spec against
//! a warm key, through the same calls `zkvc_runtime`'s pool makes for a
//! job (`build_statement` → witness pass → `prove_assignment` → envelope
//! bytes → decode → `verify_with_key`).

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkvc::core::api::{compile_shape, generate_witness_for};
use zkvc::core::{ProverKey, VerifierKey};
use zkvc::curve::{msm, pairing};
use zkvc::ff::poly::eq_evals;
use zkvc::ff::{Field, Fr, MultilinearPolynomial, PrimeField};
use zkvc::groth16;
use zkvc::hash::Transcript;
use zkvc::qap::compute_h_coefficients_in;
use zkvc::r1cs::{encode_shape, CompiledShape, WitnessAssignment};
use zkvc::runtime::{build_statement, EnvelopeProof, JobSpec, ProofEnvelope};
use zkvc::spartan::{sumcheck, InnerProductProof, IpaGenerators};

use crate::check;
use crate::common::{
    client_verify, ms, peak_rss_mb, report_common, set_span_p50, write_trace, Budget, RunConfig,
    Samples,
};
use crate::metrics::{Metrics, Outcome};
use crate::stats::median;
use crate::trace::{SpanId, Tracer};

/// Share of each phase spent re-verifying instead of proving.
const VERIFY_SLICE: f64 = 0.10;

/// The spec a library workload proves; `None` for the other workloads.
pub fn spec_of(workload: &str, smoke: bool) -> Option<JobSpec> {
    let matmul = if smoke { "7x4x8" } else { "49x16x32" };
    let text = match workload {
        "matmul_vanilla_g16" => format!("{matmul}:vanilla:groth16"),
        "matmul_zkvc_g16" => format!("{matmul}:crpc+psq:groth16"),
        "matmul_zkvc_spartan" => format!("{matmul}:crpc+psq:spartan"),
        "bert_block_g16" => "bert-block:crpc+psq:groth16".to_string(),
        _ => return None,
    };
    Some(
        JobSpec::parse(&text)
            .expect("workload specs are well-formed")
            .0,
    )
}

/// Everything a warm job needs, produced by one set-up pass.
struct Keys {
    shape: Arc<CompiledShape<Fr>>,
    prover: ProverKey,
    verifier: VerifierKey,
    /// The IPA bases Spartan's preprocessing derives, rebuilt here under
    /// the same label so the commitment and opening can be replayed.
    spartan_gens: Option<IpaGenerators>,
}

/// `n_half` of the Spartan instance: the padded length of the witness
/// vector the prover commits to.
fn spartan_padded_len(shape: &CompiledShape<Fr>) -> usize {
    (shape.num_instance() + 1)
        .max(shape.num_witness())
        .max(2)
        .next_power_of_two()
}

fn set_up(cfg: &RunConfig, spec: &JobSpec, tracer: &mut Tracer) -> Keys {
    let system = spec.backend().system();
    let groth = matches!(spec.backend(), zkvc::core::Backend::Groth16);
    let statement = build_statement(cfg.seed, 0, spec);
    let (shape, _) = tracer.span(0, "r1cs.shape_compile", None, || {
        Arc::new(compile_shape(statement.as_ref()))
    });
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x0005_E70B_5EED);
    let setup_span = if groth {
        "groth16.setup"
    } else {
        "spartan.preprocess"
    };
    let ((prover, verifier), setup_id) =
        tracer.span(0, setup_span, None, || system.setup_shape(&shape, &mut rng));
    let mut spartan_gens = None;
    if tracer.enabled() {
        tracer.span(0, "runtime.codec.encode_shape", None, || {
            black_box(encode_shape(&shape))
        });
        if !groth {
            let n = spartan_padded_len(&shape);
            let (gens, _) = tracer.span(0, "spartan.gens", Some(setup_id), || {
                IpaGenerators::new(n, b"zkvc-spartan-witness")
            });
            spartan_gens = Some(gens);
        }
    }
    Keys {
        shape,
        prover,
        verifier,
        spartan_gens,
    }
}

struct JobOutput {
    job_ms: f64,
    verify_ms: f64,
    bytes: Vec<u8>,
    ok: bool,
}

fn run_job(
    cfg: &RunConfig,
    spec: &JobSpec,
    keys: &Keys,
    id: usize,
    tracer: &mut Tracer,
) -> JobOutput {
    let system = spec.backend().system();
    let job = id as u64;
    let statement_span = match spec {
        JobSpec::MatMul { .. } => "core.statement",
        JobSpec::Model { .. } => "nn.statement",
    };
    let prove_span = match &keys.prover {
        ProverKey::Groth16(_) => "groth16.prove",
        ProverKey::Spartan(_) => "spartan.prove",
    };
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ job.wrapping_mul(0xD1B5_4A32_D192_ED03));

    // Statement in, envelope bytes out: `job_ms`.
    let t0 = Instant::now();
    let root = tracer.open(job, "job", None);
    let (statement, _) = tracer.span(job, statement_span, Some(root), || {
        build_statement(cfg.seed, id, spec)
    });
    let (witness, _) = tracer.span(job, "r1cs.witness", Some(root), || {
        generate_witness_for(statement.as_ref(), &keys.shape)
    });
    let (artifacts, prove_id) = tracer.span(job, prove_span, Some(root), || {
        system.prove_assignment(&keys.prover, &witness, &mut rng)
    });
    let (bytes, _) = tracer.span(job, "runtime.serial.encode", Some(root), || {
        ProofEnvelope::from_artifacts(&artifacts)
            .without_vk()
            .to_bytes()
    });
    tracer.close(root);
    let job_ms = ms(t0.elapsed());

    let client = client_verify(tracer, job, Some(&keys.verifier), || {
        ProofEnvelope::decode(&bytes).ok()
    });

    let mut ok = client.verified
        && client
            .envelope
            .as_ref()
            .is_some_and(|e| e.public_inputs == witness.instance);
    if let JobSpec::MatMul { dims, .. } = spec {
        ok &= witness.instance == check::matmul_outputs(cfg.seed, id, *dims);
    }

    if tracer.enabled() {
        match (
            &keys.prover,
            &keys.verifier,
            client.envelope.as_ref().map(|e| &e.proof),
        ) {
            (
                ProverKey::Groth16(pk),
                VerifierKey::Groth16(vk),
                Some(EnvelopeProof::Groth16 { proof, .. }),
            ) => replay_groth16(tracer, job, prove_id, client.span, pk, vk, proof, &witness),
            (ProverKey::Spartan(_), _, _) => {
                let gens = keys
                    .spartan_gens
                    .as_ref()
                    .expect("traced set-up built them");
                replay_spartan(tracer, job, prove_id, &keys.shape, gens, &witness);
            }
            _ => {}
        }
    }
    JobOutput {
        job_ms,
        verify_ms: client.ms,
        bytes,
        ok,
    }
}

/// Re-runs the kernels `groth16::prove_assignment` and `verify` just ran,
/// on the same inputs, each as a child span of the real call.
#[allow(clippy::too_many_arguments)]
fn replay_groth16(
    tracer: &mut Tracer,
    job: u64,
    prove: SpanId,
    verify: SpanId,
    pk: &groth16::ProvingKey,
    vk: &groth16::VerifyingKey,
    proof: &groth16::Proof,
    witness: &WitnessAssignment<Fr>,
) {
    let z = witness.full();
    let (h, compute_h) = tracer.span(job, "qap.compute_h", Some(prove), || {
        compute_h_coefficients_in(&pk.h_domain, &pk.shape.matrices, &z)
    });
    let mut evals = h.clone();
    evals.resize(pk.h_domain.size(), Fr::zero());
    tracer.span(job, "ff.fft", Some(compute_h), || {
        pk.h_domain.fft_in_place(black_box(&mut evals));
    });
    let private = &z[pk.num_instance + 1..];
    tracer.span(job, "curve.msm_a", Some(prove), || {
        black_box(msm(&pk.a_query, &z))
    });
    tracer.span(job, "curve.msm_b2", Some(prove), || {
        black_box(msm(&pk.b_g2_query, &z))
    });
    tracer.span(job, "curve.msm_b1", Some(prove), || {
        black_box(msm(&pk.b_g1_query, &z))
    });
    tracer.span(job, "curve.msm_l", Some(prove), || {
        black_box(msm(&pk.l_query, private))
    });
    tracer.span(job, "curve.msm_h", Some(prove), || {
        black_box(msm(&pk.h_query[..h.len()], &h))
    });
    tracer.span(job, "groth16.prepare_inputs", Some(verify), || {
        black_box(groth16::prepare_inputs(vk, &witness.instance))
    });
    tracer.span(job, "curve.pairing", Some(verify), || {
        black_box(pairing(&proof.a, &proof.b))
    });
}

/// Re-runs the four costly steps of `SpartanProver::prove_assignment` on
/// the job's own assignment. The prover keeps its instance private, so
/// the steps are rebuilt here from the compiled shape: same sizes, same
/// data, challenges from a fresh transcript.
fn replay_spartan(
    tracer: &mut Tracer,
    job: u64,
    prove: SpanId,
    shape: &CompiledShape<Fr>,
    gens: &IpaGenerators,
    witness: &WitnessAssignment<Fr>,
) {
    let m = &shape.matrices;
    let n_half = gens.len();
    let num_io = shape.num_instance();
    let mut w = witness.witness.clone();
    w.resize(n_half, Fr::zero());
    let z = witness.full();
    let mut transcript = Transcript::new(b"zkvc-benchmark-spartan-replay");

    let (comm, _) = tracer.span(job, "spartan.commit", Some(prove), || gens.commit(&w));
    transcript.append_point(b"comm_w", &comm.to_affine());

    let m_pad = m.num_constraints().max(2).next_power_of_two();
    let tau = transcript.challenge_fields(b"tau", m_pad.trailing_zeros() as usize);
    let padded = |mut v: Vec<Fr>| {
        v.resize(m_pad, Fr::zero());
        MultilinearPolynomial::from_evaluations(v)
    };
    let e = MultilinearPolynomial::from_evaluations(eq_evals(&tau));
    let (az, bz, cz) = (
        padded(m.a.mul_vector(&z)),
        padded(m.b.mul_vector(&z)),
        padded(m.c.mul_vector(&z)),
    );
    let ((_, rx, (_, va, vb, vc)), _) = tracer.span(job, "spartan.sumcheck1", Some(prove), || {
        sumcheck::prove_cubic(&Fr::zero(), &e, &az, &bz, &cz, &mut transcript)
    });

    // Second sum-check: the batched matrix row at `rx` against the
    // assignment, both in the prover's two-half column layout.
    let column = |col: usize| {
        if col <= num_io {
            col
        } else {
            n_half + (col - num_io - 1)
        }
    };
    let weights = [
        transcript.challenge_field(b"r_a"),
        transcript.challenge_field(b"r_b"),
        transcript.challenge_field(b"r_c"),
    ];
    let chi_rx = eq_evals(&rx);
    let mut m_vec = vec![Fr::zero(); 2 * n_half];
    for (mat, weight) in [&m.a, &m.b, &m.c].into_iter().zip(weights) {
        for (row, chi) in chi_rx.iter().enumerate().take(mat.num_rows) {
            let scale = weight * *chi;
            for (col, val) in mat.row(row) {
                m_vec[column(col)] += scale * *val;
            }
        }
    }
    let mut z_vec = vec![Fr::zero(); 2 * n_half];
    for (col, value) in z.iter().enumerate() {
        z_vec[column(col)] = *value;
    }
    let claim = weights[0] * va + weights[1] * vb + weights[2] * vc;
    let m_poly = MultilinearPolynomial::from_evaluations(m_vec);
    let z_poly = MultilinearPolynomial::from_evaluations(z_vec);
    let ((_, ry, _), _) = tracer.span(job, "spartan.sumcheck2", Some(prove), || {
        sumcheck::prove_quadratic(&claim, &m_poly, &z_poly, &mut transcript)
    });

    let chi_ry = eq_evals(&ry[..ry.len() - 1]);
    tracer.span(job, "spartan.ipa", Some(prove), || {
        black_box(InnerProductProof::prove(gens, &mut transcript, &w, &chi_ry))
    });
}

/// Share of the scalars the five Groth16 MSMs consume that fit 16 bits.
fn small_scalar_share(pk: &groth16::ProvingKey, witness: &WitnessAssignment<Fr>) -> f64 {
    let z = witness.full();
    let h = compute_h_coefficients_in(&pk.h_domain, &pk.shape.matrices, &z);
    let small = |v: &&Fr| {
        let limbs = v.to_canonical();
        limbs[0] < (1 << 16) && limbs[1..] == [0, 0, 0]
    };
    // a, b1 and b2 run over z; l over the private part; h over H(X).
    let private = &z[pk.num_instance + 1..];
    let count = 3 * z.iter().filter(small).count()
        + private.iter().filter(small).count()
        + h.iter().filter(small).count();
    count as f64 / (3 * z.len() + private.len() + h.len()) as f64
}

pub fn run(cfg: &RunConfig, workload: &str, spec: JobSpec) -> Outcome {
    let epoch = Instant::now();
    let mut tracer = Tracer::new(cfg.trace, epoch);
    let mut metrics = Metrics::new(cfg.trace);
    let mut failed_setup = 0u64;

    // Set-up: shape compile, key generation and one warm-up job, which
    // fills the lazily built tables behind the first prove and verify.
    let mut setup_s = Vec::new();
    let mut keys: Option<Keys> = None;
    while setup_s.len() < 3 {
        drop(keys.take());
        let t = Instant::now();
        let fresh = set_up(cfg, &spec, &mut tracer);
        let warm = run_job(cfg, &spec, &fresh, 0, &mut Tracer::new(false, epoch));
        failed_setup += !warm.ok as u64;
        let took = t.elapsed();
        setup_s.push(took.as_secs_f64());
        keys = Some(fresh);
        if !cfg.repeats_setup(took) {
            break;
        }
    }
    let keys = keys.expect("set-up ran at least once");

    let mut phases: Vec<(bool, Samples)> = Vec::new();
    let mut last_bytes = Vec::new();
    let mut next_id = 1usize;
    let mut reverified = true;
    for (traced, budget) in cfg.phases() {
        let mut off = Tracer::new(false, epoch);
        let t = if traced { &mut tracer } else { &mut off };
        let mut samples = Samples::default();
        let mut jobs = Budget::new(budget.mul_f64(1.0 - VERIFY_SLICE), 2);
        while jobs.take() {
            let out = run_job(cfg, &spec, &keys, next_id, t);
            samples.record(out.job_ms, out.verify_ms, out.bytes.len(), out.ok);
            last_bytes = out.bytes;
            next_id += 1;
        }
        samples.wall = jobs.elapsed();
        // A slow prover finishes few jobs in a run; the rest of the phase
        // verifies the last envelope again and again so `verify_ms_p50`
        // rests on enough samples whatever the prove costs.
        let mut verifies = Budget::new(budget.mul_f64(VERIFY_SLICE), 0);
        while verifies.take() {
            let again = client_verify(t, next_id as u64, Some(&keys.verifier), || {
                ProofEnvelope::decode(&last_bytes).ok()
            });
            samples.verify_ms.push(again.ms);
            reverified &= again.verified;
        }
        phases.push((traced, samples));
    }
    let tamper_rejected = check::rejects_tampering(&last_bytes, &keys.verifier);

    let untraced = &phases[0].1;
    let traced = phases.get(1).map(|(_, s)| s);
    report_common(
        &mut metrics,
        untraced,
        traced,
        &setup_s,
        peak_rss_mb("self"),
    );
    if cfg.trace {
        report_layers(&mut metrics, &tracer, &keys, &spec, cfg);
        write_trace(&tracer, workload);
    }

    let attempted = phases.iter().map(|(_, s)| s.attempted).sum::<u64>() + setup_s.len() as u64;
    let failed = phases.iter().map(|(_, s)| s.failed).sum::<u64>() + failed_setup;
    Outcome {
        attempted,
        failed,
        correct: failed == 0 && tamper_rejected && reverified,
        metrics,
    }
}

fn report_layers(
    metrics: &mut Metrics,
    tracer: &Tracer,
    keys: &Keys,
    spec: &JobSpec,
    cfg: &RunConfig,
) {
    let shape = &keys.shape;
    let m = &shape.matrices;
    metrics.set("r1cs.constraints", shape.num_constraints() as f64);
    metrics.set("r1cs.variables", shape.num_variables() as f64);
    metrics.set("r1cs.instance", shape.num_instance() as f64);
    metrics.set(
        "r1cs.nonzeros",
        (m.a.num_nonzero() + m.b.num_nonzero() + m.c.num_nonzero()) as f64,
    );
    metrics.set(
        "runtime.codec.shape_bytes",
        encode_shape(shape).len() as f64,
    );

    for (span, metric) in [
        ("core.statement", "core.statement_ms_p50"),
        ("nn.statement", "nn.statement_ms_p50"),
        ("r1cs.witness", "r1cs.witness_ms_p50"),
        ("r1cs.shape_compile", "r1cs.shape_compile_ms"),
        (
            "runtime.codec.encode_shape",
            "runtime.codec.encode_shape_ms",
        ),
        ("runtime.serial.encode", "runtime.serial.encode_us_p50"),
        ("runtime.serial.decode", "runtime.serial.decode_us_p50"),
        ("qap.compute_h", "qap.compute_h_ms_p50"),
        ("ff.fft", "ff.fft_ms_p50"),
        ("curve.msm_a", "curve.msm_a_ms_p50"),
        ("curve.msm_b1", "curve.msm_b1_ms_p50"),
        ("curve.msm_b2", "curve.msm_b2_ms_p50"),
        ("curve.msm_l", "curve.msm_l_ms_p50"),
        ("curve.msm_h", "curve.msm_h_ms_p50"),
        ("curve.pairing", "curve.pairing_ms_p50"),
        ("groth16.setup", "groth16.setup_ms"),
        ("groth16.prove", "groth16.prove_ms_p50"),
        ("groth16.prepare_inputs", "groth16.prepare_inputs_ms_p50"),
        ("groth16.verify", "groth16.verify_ms_p50"),
        ("spartan.preprocess", "spartan.preprocess_ms"),
        ("spartan.gens", "spartan.gens_ms"),
        ("spartan.commit", "spartan.commit_ms_p50"),
        ("spartan.sumcheck1", "spartan.sumcheck1_ms_p50"),
        ("spartan.sumcheck2", "spartan.sumcheck2_ms_p50"),
        ("spartan.ipa", "spartan.ipa_ms_p50"),
        ("spartan.prove", "spartan.prove_ms_p50"),
        ("spartan.verify", "spartan.verify_ms_p50"),
    ] {
        set_span_p50(metrics, tracer, span, metric);
    }

    match &keys.prover {
        ProverKey::Groth16(pk) => {
            metrics.set("ff.fft_log2_size", f64::from(pk.h_domain.log_size()));
            metrics.set(
                "curve.msm_points_total",
                (pk.a_query.len()
                    + pk.b_g1_query.len()
                    + pk.b_g2_query.len()
                    + pk.l_query.len()
                    + pk.h_query.len()) as f64,
            );
            metrics.set("groth16.pk_elements", pk.num_elements() as f64);
            metrics.set(
                "groth16.prove_unattributed_share",
                median(&tracer.unattributed_shares("groth16.prove")),
            );
            let statement = build_statement(cfg.seed, 1, spec);
            let witness = generate_witness_for(statement.as_ref(), shape);
            metrics.set(
                "curve.msm_small_scalar_share",
                small_scalar_share(pk, &witness),
            );
        }
        ProverKey::Spartan(_) => {
            metrics.set(
                "spartan.padded_witness_len",
                spartan_padded_len(shape) as f64,
            );
            metrics.set(
                "spartan.prove_unattributed_share",
                median(&tracer.unattributed_shares("spartan.prove")),
            );
        }
    }
}
