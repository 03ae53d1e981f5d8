//! Statement-level binding acceptance tests: proving `Y = X * W` with
//! public outputs and then verifying against a tampered `Y'` must fail for
//! both backends and all four circuit strategies — keyed verification,
//! envelope round trips and the pool's rebuilt-statement check included —
//! and so must a proof of any assignment with one cell changed.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use zkvc_core::api::{compile_shape, generate_witness_for, Circuit};
use zkvc_core::matmul::{MatMulBuilder, MatMulCircuit, Strategy};
use zkvc_core::{Backend, ProofArtifacts, ProverKey, VerifierKey};
use zkvc_ff::{Field, Fr, PrimeField};
use zkvc_r1cs::CompiledShape;
use zkvc_runtime::{build_statement, CircuitKeys, JobSpec, KeyCache, ProofEnvelope};

fn public_job(strategy: Strategy) -> MatMulCircuit {
    let x = vec![vec![2i64, -3, 5], vec![7, 1, -4]];
    let w = vec![vec![6i64, -2], vec![3, 8], vec![-1, 9]];
    MatMulBuilder::new(2, 3, 2)
        .strategy(strategy)
        .build_circuit_integers(&x, &w)
}

/// Compile, set up, fill the witness and prove: one honest proof with the
/// key that verifies it.
fn setup_and_prove(
    backend: Backend,
    circuit: &dyn Circuit,
    rng: &mut StdRng,
) -> (VerifierKey, ProofArtifacts) {
    let shape = Arc::new(compile_shape(circuit));
    let (pk, vk) = backend.setup_shape(&shape, rng);
    let witness = generate_witness_for(circuit, &shape);
    (vk, backend.prove_assignment(&pk, &witness, rng))
}

/// Proves `circuit` against keys a [`KeyCache`] already holds.
fn prove_with(keys: &CircuitKeys, circuit: &dyn Circuit, rng: &mut StdRng) -> ProofArtifacts {
    let witness = generate_witness_for(circuit, &keys.shape);
    keys.backend.prove_assignment(&keys.prover, &witness, rng)
}

#[test]
fn tampered_y_fails_for_both_backends_and_all_strategies() {
    let mut rng = StdRng::seed_from_u64(71);
    for backend in Backend::ALL {
        for strategy in Strategy::ALL {
            let job = public_job(strategy);
            assert_eq!(job.public_outputs().len(), 4, "Y is 2x2");
            let (vk, artifacts) = setup_and_prove(backend, &job, &mut rng);
            assert!(
                vk.verify(&artifacts.public_inputs, &artifacts.data),
                "honest {backend:?}/{strategy:?}"
            );
            // Tamper each output cell in turn: every one must be bound.
            for idx in 0..4 {
                let mut tampered = artifacts.clone();
                tampered.public_inputs[idx] += Fr::one();
                assert!(
                    !vk.verify(&tampered.public_inputs, &tampered.data),
                    "{backend:?}/{strategy:?} accepted tampered y[{idx}]"
                );
            }
        }
    }
}

#[test]
fn fold_preserving_forgery_fails_for_crpc_public_outputs() {
    // CRPC folds Y as `sum Z^{i*b+j} y_ij` with a *public* Z, so
    // `y_0 += Z, y_1 -= 1` preserves the fold. An attacker holding an
    // honest proof could swap in such a Y' if the fold were the only thing
    // binding the outputs; the per-cell binding constraints must reject it
    // on both backends, for both CRPC strategies.
    let mut rng = StdRng::seed_from_u64(73);
    for backend in Backend::ALL {
        for strategy in [Strategy::Crpc, Strategy::CrpcPsq] {
            let job = public_job(strategy);
            let (vk, artifacts) = setup_and_prove(backend, &job, &mut rng);
            assert!(
                vk.verify(&artifacts.public_inputs, &artifacts.data),
                "{backend:?}/{strategy:?}"
            );

            let mut forged = artifacts.clone();
            forged.public_inputs[0] += job.z; // coeff Z^0: fold += Z
            forged.public_inputs[1] -= Fr::one(); // coeff Z^1: fold -= Z
            assert_ne!(forged.public_inputs, artifacts.public_inputs);
            assert!(
                !vk.verify(&forged.public_inputs, &forged.data),
                "{backend:?}/{strategy:?} accepted a fold-preserving forged Y"
            );
        }
    }
}

#[test]
fn known_break_1a_fold_preserving_forgery_verifies() {
    // KNOWN BREAK, ROADMAP item 1(a); docs/SOUNDNESS.md has the ledger.
    // This test asserts today's behaviour. The repairs 1(b) (Spartan: Z
    // drawn after X, Y and com(W)) and 1(c) (Groth16: Z sampled by the
    // verifier at setup) flip the final assertion to a rejection.
    //
    // The served CRPC statement takes a fixed, public Z (`fixed_z`), and
    // the prover knows it before Y exists. The per-cell binding rows tie the
    // public Y to the fold's Y witnesses, but a malicious prover moves
    // *both*: `y_0 += Z, y_1 -= 1` keeps `sum Z^m y_m`, so the one PSQ
    // product still holds. With n = 1 the honest Y has rank 1, while the
    // forged Y' has rank 2, so no X (3x1) and W (1x3) give Y' = XW.
    let z = Fr::random(&mut StdRng::seed_from_u64(74));
    let x = vec![vec![2i64], vec![3], vec![5]];
    let w = vec![vec![7i64, 11, 13]];
    let job = MatMulBuilder::new(3, 1, 3)
        .strategy(Strategy::CrpcPsq)
        .z(z)
        .build_circuit_integers(&x, &w);
    let shape = Arc::new(compile_shape(&job));
    let mut forged = generate_witness_for(&job, &shape);

    // The kit: the honest assignment edited by hand, not through the
    // witness pass. Instance = Y row-major; witness = X (3), W (3), then
    // the fold's Y witnesses (9). PSQ accumulators hold prefix sums of the
    // X*W products and never depend on Y; with n = 1 there are none.
    let y_wit = 3 + 3;
    assert_eq!(
        (forged.instance.len(), forged.witness.len()),
        (9, y_wit + 9)
    );
    assert_eq!(forged.instance[..], forged.witness[y_wit..]);
    for (cells, y0) in [(&mut forged.instance, 0), (&mut forged.witness, y_wit)] {
        cells[y0] += z;
        cells[y0 + 1] -= Fr::one();
    }
    assert!(
        shape.is_satisfied(&forged),
        "the forgery satisfies the R1CS"
    );
    let y = |i: usize, j: usize| forged.instance[3 * i + j];
    assert_ne!(
        y(0, 0) * y(1, 1) - y(0, 1) * y(1, 0),
        Fr::zero(),
        "a non-zero 2x2 minor: rank(Y') = 2 > n = 1"
    );
    // y_0 + Z is full width: on Spartan the opening's wide residual.
    assert!(forged.witness[y_wit].num_bits() > 32);

    let mut rng = StdRng::seed_from_u64(75);
    for backend in Backend::ALL {
        let (pk, vk) = backend.setup_shape(&shape, &mut rng);
        let artifacts = backend.prove_assignment(&pk, &forged, &mut rng);
        assert_eq!(artifacts.public_inputs, forged.instance);
        assert!(
            vk.verify(&artifacts.public_inputs, &artifacts.data),
            "{backend:?} rejects the forgery: 1(a)'s known break is fixed, flip this test"
        );
    }
}

#[test]
fn known_break_1a_universal_forgery_verifies() {
    // KNOWN BREAK, ROADMAP item 1(a), like the test above but for *any*
    // Y'. With `x_00 = 1`, `w_00 = fold_Z(Y')` and every other X and W
    // entry zero, `folds_Z(X, W) = fold_Z(Y')` whatever Y' is. The repairs
    // 1(b) and 1(c) flip the final assertion to a rejection.
    //
    // Y' has full rank 3 > n, so no X (3xn) and W (nx3) give Y' = XW.
    let y_forged: Vec<Fr> = [1i64, 2, 3, 0, 1, 4, 5, 6, 0]
        .into_iter()
        .map(Fr::from_i64)
        .collect();
    let y = |i: usize, j: usize| y_forged[3 * i + j];
    let det = y(0, 0) * (y(1, 1) * y(2, 2) - y(1, 2) * y(2, 1))
        - y(0, 1) * (y(1, 0) * y(2, 2) - y(1, 2) * y(2, 0))
        + y(0, 2) * (y(1, 0) * y(2, 1) - y(1, 1) * y(2, 0));
    assert_ne!(det, Fr::zero(), "rank(Y') = 3");

    let z = Fr::random(&mut StdRng::seed_from_u64(76));
    // Horner: sum_m Z^m y_m.
    let fold = y_forged
        .iter()
        .rev()
        .fold(Fr::zero(), |acc, y| acc * z + *y);
    let mut rng = StdRng::seed_from_u64(77);
    for n in [1, 2] {
        let x: Vec<Vec<i64>> = (0..3)
            .map(|i| (0..n).map(|k| (2 + 3 * i + k) as i64).collect())
            .collect();
        let w: Vec<Vec<i64>> = (0..n)
            .map(|k| (0..3).map(|j| (7 + 2 * j + 5 * k) as i64).collect())
            .collect();
        for strategy in [Strategy::Crpc, Strategy::CrpcPsq] {
            let job = MatMulBuilder::new(3, n, 3)
                .strategy(strategy)
                .z(z)
                .build_circuit_integers(&x, &w);
            let shape = Arc::new(compile_shape(&job));
            let mut forged = generate_witness_for(&job, &shape);

            // The kit again. Instance = Y row-major; witness = X (3n,
            // row-major), W (3n), the fold's Y witnesses (9), then the
            // products t_k (CRPC, n of them) or the PSQ prefix
            // accumulators (n - 1).
            let y_wit = 6 * n;
            let products = if strategy == Strategy::Crpc { n } else { n - 1 };
            assert_eq!(
                (forged.instance.len(), forged.witness.len()),
                (9, y_wit + 9 + products)
            );
            forged.witness[..y_wit].fill(Fr::zero());
            forged.witness[0] = Fr::one(); // x_00
            forged.witness[3 * n] = fold; // w_00
            forged.instance.copy_from_slice(&y_forged);
            forged.witness[y_wit..y_wit + 9].copy_from_slice(&y_forged);
            // Only k = 0 has a non-zero product, x_00 * w_00 = fold: t_0 is
            // the fold and later t_k are zero; every prefix sum is the fold.
            for (k, v) in forged.witness[y_wit + 9..].iter_mut().enumerate() {
                *v = if k == 0 || strategy == Strategy::CrpcPsq {
                    fold
                } else {
                    Fr::zero()
                };
            }
            assert!(
                shape.is_satisfied(&forged),
                "{strategy:?} 3x{n}x3: the forgery satisfies the R1CS"
            );

            for backend in Backend::ALL {
                let (pk, vk) = backend.setup_shape(&shape, &mut rng);
                let artifacts = backend.prove_assignment(&pk, &forged, &mut rng);
                assert_eq!(artifacts.public_inputs, y_forged);
                assert!(
                    vk.verify(&artifacts.public_inputs, &artifacts.data),
                    "{backend:?}/{strategy:?} 3x{n}x3 rejects the universal forgery: \
                     1(a)'s known break is fixed, flip this test"
                );
            }
        }
    }
}

#[test]
fn tampered_y_fails_through_the_envelope() {
    // The same property across the wire format: decode, swap a public
    // input, re-encode, decode again — still rejected.
    let mut rng = StdRng::seed_from_u64(72);
    for backend in Backend::ALL {
        let job = public_job(Strategy::CrpcPsq);
        let (vk, artifacts) = setup_and_prove(backend, &job, &mut rng);

        let bytes = ProofEnvelope::from_artifacts(&artifacts).to_bytes();
        let mut envelope = ProofEnvelope::decode(&bytes).expect("decodes");
        assert!(envelope.verify_with_key(&vk), "{backend:?}");

        envelope.public_inputs[2] += Fr::one();
        let tampered = ProofEnvelope::decode(&envelope.to_bytes()).expect("tampered still decodes");
        assert!(
            !tampered.verify_with_key(&vk),
            "{backend:?} accepted a tampered envelope Y"
        );
    }
}

#[test]
fn replayed_proof_for_same_shape_but_different_y_is_rejected() {
    // Two pool statements with the same spec share a circuit shape (and
    // keys) but bind different Y matrices. A proof for statement 0 must
    // not pass as a proof for statement 1: the cryptographic check accepts
    // it (same shape, honest proof) but the statement-binding comparison
    // the pool and `zkvc verify` perform must reject it.
    for backend in Backend::ALL {
        let spec = JobSpec::new(3, 2, 3).with_backend(backend);
        let seed = 9;
        let s0 = build_statement(seed, 0, &spec);
        let s1 = build_statement(seed, 1, &spec);
        assert_eq!(s0.shape_digest(), s1.shape_digest(), "{backend:?}");
        assert_ne!(s0.public_outputs(), s1.public_outputs(), "{backend:?}");

        let cache = KeyCache::with_seed(seed);
        let (keys, _) = cache.get_or_setup_circuit(backend, s0.as_ref());
        let mut rng = StdRng::seed_from_u64(5);
        let artifacts = prove_with(&keys, s0.as_ref(), &mut rng);
        let envelope = ProofEnvelope::decode(&ProofEnvelope::from_artifacts(&artifacts).to_bytes())
            .expect("decodes");

        // Shape-level check alone would accept the replay...
        assert!(envelope.verify_with_key(&keys.verifier), "{backend:?}");
        // ...statement binding is what rejects it.
        assert_eq!(envelope.public_inputs, s0.public_outputs());
        assert_ne!(
            envelope.public_inputs,
            s1.public_outputs(),
            "{backend:?} replay would go unnoticed"
        );
    }
}

#[test]
fn private_jobs_still_prove_but_bind_nothing() {
    // The pre-redesign behaviour survives behind `:private` / the builder
    // flag: no public outputs, shape-level binding only.
    let spec = JobSpec::new(2, 2, 2)
        .with_backend(Backend::Spartan)
        .with_private_outputs();
    assert!(!spec.binds_outputs());
    let statement = build_statement(3, 0, &spec);
    assert!(statement.public_outputs().is_empty());
    let cache = KeyCache::new();
    let (keys, _) = cache.get_or_setup_circuit(spec.backend(), statement.as_ref());
    let mut rng = StdRng::seed_from_u64(6);
    let artifacts = prove_with(&keys, statement.as_ref(), &mut rng);
    assert!(keys
        .verifier
        .verify(&artifacts.public_inputs, &artifacts.data));
}

/// The mutation proptest's shape: `Y` is 2x3 over `n = 2`, so every
/// strategy has product rows, accumulators or sums beyond the inputs.
const MUTATED: (usize, usize, usize) = (2, 2, 3);

/// Per strategy (in [`Strategy::ALL`] order), the default builder's shape
/// and its keys on each backend (in [`Backend::ALL`] order), set up once
/// for every case: the default `Z` depends on the dimensions only, so
/// every drawn `X` and `W` compiles to this one shape.
type MutationKeys = Vec<(Arc<CompiledShape<Fr>>, Vec<(ProverKey, VerifierKey)>)>;

fn mutation_keys() -> &'static MutationKeys {
    static KEYS: OnceLock<MutationKeys> = OnceLock::new();
    KEYS.get_or_init(|| {
        let (a, n, b) = MUTATED;
        let mut rng = StdRng::seed_from_u64(78);
        Strategy::ALL
            .iter()
            .map(|strategy| {
                let circuit = MatMulBuilder::new(a, n, b)
                    .strategy(*strategy)
                    .build_circuit_integers(&vec![vec![1; n]; a], &vec![vec![1; b]; n]);
                let shape = Arc::new(compile_shape(&circuit));
                let keys = Backend::ALL
                    .iter()
                    .map(|backend| backend.setup_shape(&shape, &mut rng))
                    .collect();
                (shape, keys)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Changing any one cell of an honest assignment, instance or witness,
    /// leaves it unsatisfied, and neither backend accepts a proof of it
    /// (proved for one drawn cell per strategy and case).
    /// Operands are drawn from `1..256`: a zero `w_kj` would leave a
    /// vanilla product row blind to `x_ik`, which is a true property of
    /// the relation, not a binding failure.
    #[test]
    fn prop_one_cell_mutation_is_unsatisfied_and_rejected_by_both_backends(
        x in prop::collection::vec(1u64..256, 4..5),
        w in prop::collection::vec(1u64..256, 6..7),
        cell in 0usize..64,
        delta in 1u64..256,
        seed in 0u64..1000,
    ) {
        let (a, n, b) = MUTATED;
        let to_matrix = |v: &[u64], cols: usize| -> Vec<Vec<Fr>> {
            v.chunks(cols).map(|row| row.iter().copied().map(Fr::from_u64).collect()).collect()
        };
        let (x, w) = (to_matrix(&x, n), to_matrix(&w, b));
        let mut rng = StdRng::seed_from_u64(seed);
        for (strategy, (shape, keys)) in Strategy::ALL.iter().zip(mutation_keys()) {
            let circuit = MatMulBuilder::new(a, n, b)
                .strategy(*strategy)
                .build_circuit_field(&x, &w);
            let honest = generate_witness_for(&circuit, shape);
            prop_assert!(shape.is_satisfied(&honest), "{:?} honest", strategy);
            let num_instance = honest.instance.len();
            let mutate = |cell: usize| {
                let mut mutated = honest.clone();
                if cell < num_instance {
                    mutated.instance[cell] += Fr::from_u64(delta);
                } else {
                    mutated.witness[cell - num_instance] += Fr::from_u64(delta);
                }
                mutated
            };
            // Satisfiability is cheap: every cell. Proving is not: one.
            let num_cells = num_instance + honest.witness.len();
            for cell in 0..num_cells {
                prop_assert!(!shape.is_satisfied(&mutate(cell)), "{:?} cell {}", strategy, cell);
            }
            let cell = cell % num_cells;
            let mutated = mutate(cell);
            for (backend, (pk, vk)) in Backend::ALL.iter().zip(keys) {
                // Both provers run on an unsatisfied assignment, in every
                // build profile; the proof that comes out must not verify.
                let artifacts = backend.prove_assignment(pk, &mutated, &mut rng);
                prop_assert!(
                    !vk.verify(&artifacts.public_inputs, &artifacts.data),
                    "{:?}/{:?} accepted a proof with cell {} changed",
                    backend,
                    strategy,
                    cell
                );
            }
        }
    }
}
