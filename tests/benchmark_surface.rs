//! The frozen surface `benchmark/` builds against (see BENCHMARK.json):
//! every library item that package imports, named — and where cheap, run —
//! here, so removing or renaming one fails tier-1 `cargo test`, not a later
//! benchmark run. `benchmark/` itself may not be edited to follow a rename.

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkvc::core::api::{compile_shape, generate_witness_for};
use zkvc::core::{Backend, ProverKey, VerifierKey};
use zkvc::curve::{msm, pairing};
use zkvc::ff::poly::eq_evals;
use zkvc::ff::{Field, Fr, MultilinearPolynomial, PrimeField};
use zkvc::groth16;
use zkvc::hash::Transcript;
use zkvc::qap::compute_h_coefficients_in;
use zkvc::r1cs::{encode_shape, CompiledShape, WitnessAssignment};
use zkvc::runtime::wire::{self, Json};
use zkvc::runtime::{
    build_statement, BatchReport, CacheStats, CircuitKeys, EnvelopeProof, JobOptions, JobResult,
    JobSpec, KeyCache, PoolConfig, ProofEnvelope, ProvingPool, ResultSink,
};
use zkvc::spartan::{sumcheck, InnerProductProof, IpaGenerators};

/// The Groth16 kernels the benchmark re-times from outside, through the
/// proving key's public fields.
fn groth16_layers(
    pk: &groth16::ProvingKey,
    vk: &groth16::VerifyingKey,
    proof: &groth16::Proof,
    witness: &WitnessAssignment<Fr>,
) {
    let z = witness.full();
    let mut h = compute_h_coefficients_in(&pk.h_domain, &pk.shape.matrices, &z);
    let _ = msm(&pk.a_query, &z) + msm(&pk.b_g1_query, &z) + msm(&pk.b_g2_query, &z);
    let _ = msm(&pk.l_query, &z[pk.num_instance + 1..]) + msm(&pk.h_query[..h.len()], &h);
    h.resize(pk.h_domain.size(), Fr::zero());
    pk.h_domain.fft_in_place(&mut h);
    let _ = (pk.h_domain.log_size(), pk.num_elements());
    let _ = groth16::prepare_inputs(vk, &witness.instance);
    let _ = pairing(&proof.a, &proof.b);
    let _ = groth16::VerifyingKey::from_bytes(&vk.to_bytes()).expect("vk round trip");
}

/// The Spartan layers the benchmark replays over a shape's CSR matrices.
/// Type-checked only: naming the items is the test.
#[allow(dead_code)]
fn spartan_layers(shape: &CompiledShape<Fr>, z: &[Fr], gens: &IpaGenerators, t: &mut Transcript) {
    let m = &shape.matrices;
    let [a, b, c] = [&m.a, &m.b, &m.c].map(|mat| {
        let _ = mat.row(0).count() + shape.num_variables() + shape.num_witness();
        MultilinearPolynomial::from_evaluations(mat.mul_vector(z))
    });
    let e = MultilinearPolynomial::from_evaluations(eq_evals(z));
    let _ = sumcheck::prove_cubic(&Fr::from_u64(0), &e, &a, &b, &c, t);
    let _ = sumcheck::prove_quadratic(&Fr::one(), &a, &b, t);
    let _ = InnerProductProof::prove(gens, t, z, z);
}

#[test]
fn every_item_benchmark_imports_still_exists() {
    // Library path: spec -> statement -> shape -> keys -> witness -> proof
    // -> keyless envelope bytes -> decode -> keyed verify.
    let spec = JobSpec::parse("2x2x2:zkvc:g").expect("spec").0;
    assert!(matches!(spec, JobSpec::MatMul { .. }));
    assert!(!matches!(spec, JobSpec::Model { .. }));
    let backend: Backend = spec.backend();
    let system = backend.system();
    let statement = build_statement(7, 0, &spec);
    let shape = Arc::new(compile_shape(statement.as_ref()));
    assert!(!encode_shape(&shape).is_empty());
    let mut rng = StdRng::seed_from_u64(7);
    let (prover, verifier) = system.setup_shape(&shape, &mut rng);
    let witness = generate_witness_for(statement.as_ref(), &shape);
    let artifacts = system.prove_assignment(&prover, &witness, &mut rng);
    let bytes = ProofEnvelope::from_artifacts(&artifacts)
        .without_vk()
        .to_bytes();
    let envelope = ProofEnvelope::decode(&bytes).expect("decodes");
    assert!(envelope.verify_with_key(&verifier));
    assert_eq!(envelope.public_inputs, witness.instance);
    match (&prover, &verifier, &envelope.proof) {
        (
            ProverKey::Groth16(pk),
            VerifierKey::Groth16(vk),
            EnvelopeProof::Groth16 { proof, .. },
        ) => groth16_layers(pk, vk, proof, &witness),
        _ => panic!("a :g spec yields Groth16 keys and proofs"),
    }
    let _ = IpaGenerators::new(2, b"zkvc-spartan-witness");
    assert!(matches!(
        Backend::Spartan.system().setup_shape(&shape, &mut rng).0,
        ProverKey::Spartan(_)
    ));

    // Pool path: bounded seeded cache, configured pool with a result sink.
    let cache = Arc::new(KeyCache::with_seed(7).bound_shape_bytes(1 << 20));
    let sink_cache = Arc::clone(&cache);
    let sink: ResultSink = Arc::new(move |r: &JobResult| {
        let keys: Option<Arc<CircuitKeys>> =
            sink_cache.get(&r.shape_digest, r.spec.backend(), r.seed);
        assert!(keys.is_some_and(|k| matches!(k.verifier, VerifierKey::Groth16(_))));
    });
    let pool = ProvingPool::configured(
        PoolConfig::new(1).seed(7).retain_results(false),
        Arc::clone(&cache),
        Some(sink),
    );
    assert_eq!(pool.submit(JobSpec::new(2, 2, 2), JobOptions::new()), 0);
    let report: BatchReport = pool.join();
    let stats: CacheStats = report.cache;
    assert_eq!((stats.hit_rate(), stats.evictions), (0.0, 0));
    let (keys, hit) = cache.get_or_setup_circuit(backend, statement.as_ref());
    assert!(hit && matches!(keys.verifier, VerifierKey::Groth16(_)));

    // Wire path: the benchmark parses requests and renders result lines
    // from a `JobResult` it builds by struct literal, so the struct may
    // not gain, lose or rename a field.
    let request = wire::parse_request(r#"{"spec":"2x2x2:zkvc:g","id":"r1"}"#).expect("parses");
    let result = JobResult {
        id: 0,
        spec: request.spec,
        seed: 7,
        proof_bytes: bytes,
        verified: true,
        error: None,
        cache_hit: true,
        shape_digest: shape.digest,
        worker: 0,
        tag: request.id_json,
        queue_wait: Duration::ZERO,
        build_time: Duration::ZERO,
        prove_time: Duration::ZERO,
        verify_time: Duration::ZERO,
        num_constraints: shape.num_constraints(),
        session_id: None,
    };
    let fields = wire::parse_json_object(&wire::result_line(&result, true)).expect("json");
    assert!(matches!(wire::field(&fields, "id"), Some(Json::Str(s)) if s == "r1"));
    assert!(matches!(wire::field(&fields, "job"), Some(Json::Num(n)) if n == "0"));
    assert!(matches!(
        wire::field(&fields, "verified"),
        Some(Json::Bool(true))
    ));
}
