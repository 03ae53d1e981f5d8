//! The `zkvc` command-line interface: batch proving with key caching and a
//! work-stealing worker pool, a resident JSON-lines proving server, plus
//! single-proof file round trips — for matmul statements *and* whole
//! model-block inferences, all through the `Circuit`/`ProofSystem` trait
//! layer.
//!
//! ```text
//! zkvc prove-batch --spec 8x8x16:crpc+psq:groth16:x8 --workers 4 [--seed N] [--report FILE]
//! zkvc serve [--workers K] [--seed N] [--queue-bound B] [--max-request BYTES] [--no-proofs]
//! zkvc serve --listen unix:/run/zkvc.sock [--idle-timeout SECS] [--session-bound B] [--admission-bound N]
//! zkvc client --connect unix:/run/zkvc.sock --spec 4x4x4:zkvc:g --sessions 8 --count 16
//! zkvc prove  --spec 8x8x16:zkvc:g [--seed N] --out proof.bin
//! zkvc prove  --spec mixer-block:spartan --out model.bin
//! zkvc verify --in proof.bin --spec 8x8x16:zkvc:g [--seed N]
//! zkvc help
//! ```
//!
//! Every command path returns `Result<(), zkvc_runtime::Error>`; exit codes
//! are data-driven in `main` via [`Error::exit_code`] (`1` = the proof is
//! bad, `2` = the invocation is bad).

// No `forbid(unsafe_code)` here, unlike every library crate: the `sig`
// module's signal-handler installation is the one necessary unsafe block
// in the workspace.
#![deny(missing_debug_implementations)]

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use zkvc_core::api::compile_shape;
use zkvc_r1cs::Severity;
use zkvc_runtime::analysis::{self, Baseline};
use zkvc_runtime::{
    build_statement, derive_verifier_key, fault, run_client, serve, serve_listener, ClientConfig,
    Error, JobOptions, JobSpec, KeyCache, ListenAddr, NetConfig, ProofEnvelope, ProvingPool,
    ServeConfig,
};

const USAGE: &str = "\
zkvc - concurrent batch proving for the zkVC stack

USAGE:
    zkvc prove-batch --spec SPEC [--spec SPEC ...] [OPTIONS]
    zkvc serve  [--listen ADDR] [--workers K] [--seed N] [--queue-bound B]
                [--max-request BYTES] [--no-proofs] [--cache-bytes N|none]
                [--idle-timeout SECS|none] [--session-bound B]
                [--admission-bound N|none] [--retry-after-ms MS]
    zkvc client --connect ADDR [--spec SPEC] [--seed N] [--sessions K] [--count M]
                [--jobs FILE] [--no-verify] [--report FILE]
                [--deadline-ms MS] [--retries R] [--backoff-ms MS] [--retry-seed N]
    zkvc prove  --spec SPEC [--seed N] --out FILE
    zkvc verify --in FILE --spec SPEC [--seed N]
    zkvc analyze [--spec SPEC ...] [--seed N] [--json] [--deny LEVEL]
                 [--baseline FILE]
    zkvc help

SPEC grammar:
    FIRST[:FIELD]*  where FIRST selects the statement and FIELDs follow in
    any order:
    FIRST:    AxNxB matmul dimensions, or a model preset:
              mixer-block | bert-block | vit-micro
    STRATEGY: vanilla | vanilla+psq | crpc | crpc+psq (alias: zkvc)
    BACKEND:  groth16 (alias: g) | spartan (alias: s)
    private:  keep matmul outputs as witnesses (shape binding only).
              By default Y is public. Vanilla strategies then bind Y;
              CRPC strategies (crpc, crpc+psq, zkvc) under the served
              fixed Z are soundness-BROKEN against a malicious prover on
              both backends: it can prove any Y. See docs/SOUNDNESS.md
              and known_break_1a_universal_forgery_verifies.
    xCOUNT:   repeat the job COUNT times (prove-batch and serve)

OPTIONS (prove-batch):
    --workers K        worker threads (default: available parallelism)
    --seed N           determinism seed (default 0); same seed => same proofs
    --report FILE      write a machine-readable batch report (deterministic
                       fields only: verdicts, proof digests, key table) —
                       two same-seed runs must produce identical files

OPTIONS (serve):
    reads one JSON request per line from stdin, e.g.
        {\"spec\": \"8x8x16:zkvc:g\", \"id\": \"req-1\", \"seed\": 7}
    and streams JSON responses to stdout as proofs complete (out of
    order, tagged with the request id). See README \"zkvc serve\" for the
    full schema.
    --workers K        worker threads (default: available parallelism)
    --seed N           default statement seed for requests without one
    --queue-bound B    block request intake while B jobs are queued (default 256)
    --max-request N    reject request lines longer than N bytes (default 65536)
    --no-proofs        omit proof_hex from responses (verdict/throughput mode)
    --cache-bytes N    bound the resident key cache to N shape bytes, evicting
                       cold shapes LRU (default 256 MiB; `none` disables)
    --listen ADDR      serve a socket instead of stdin: unix:/path/to.sock or
                       tcp:HOST:PORT. Each connection is its own session (own
                       id space, own key announcements, own summary line) on
                       one shared worker pool and warm key cache. SIGINT or
                       SIGTERM drains gracefully: stop accepting, flush every
                       in-flight result, summarise each session, exit 0.
    --idle-timeout S   reap sessions silent for S seconds with nothing in
                       flight (default 300; `none` keeps them forever)
    --session-bound B  per-session in-flight job bound (default 64): a greedy
                       client blocks in its own socket, not the shared queue
    --analyze-on-compile  statically lint each spec's circuit shape before its
                       first job is admitted (see `zkvc analyze`); specs with
                       deny-severity findings are rejected with an in-stream
                       code-2 error instead of being proved
    --admission-bound N  shed requests that would push total in-flight jobs
                       past N: answered with a code-3 error carrying a
                       retry_after_ms hint, never queued (default none)
    --retry-after-ms MS  the hint shed responses carry (default 100)

OPTIONS (client):
    connects to a `zkvc serve --listen` endpoint, streams requests, checks
    that result ids stay inside its own session, and re-verifies returned
    envelopes against the streamed key lines. Exit 1 if anything failed.
    --connect ADDR     the endpoint (unix:/path or tcp:HOST:PORT); required
    --spec SPEC        the spec generated requests prove (required unless
                       --jobs; an :xCOUNT suffix sets the default --count)
    --seed N           statement seed attached to every generated request
    --sessions K       concurrent connections (default 1)
    --count M          generated requests per session (default 8)
    --jobs FILE        stream raw request lines from FILE instead
    --no-verify        skip local envelope re-verification
    --report FILE      write a deterministic per-job report (ids, verdicts,
                       proof digests) — two runs against same-seed servers
                       must produce identical files
    --deadline-ms MS   attach a deadline_ms to every generated request: the
                       server abandons proofs still running MS ms after
                       admission and answers deadline_exceeded
    --retries R        reconnect-and-resubmit budget after a failed attempt
                       (default 2; 0 disables). Only still-unanswered ids are
                       resent, so retries are idempotent; exhausting the
                       budget exits 3
    --backoff-ms MS    exponential backoff base between attempts, plus seeded
                       jitter, floored at any shed retry_after_ms hint
                       (default 50)
    --retry-seed N     seed for the deterministic backoff jitter (default 0)

OPTIONS (analyze):
    statically lints compiled circuit shapes for soundness hazards —
    unconstrained witnesses, unbound public outputs, constant violations,
    missing booleanity rows (deny class), dead and duplicate constraints
    (warn class). Witness-free: no proving, no setup. With no --spec the
    whole shipping matrix is swept (every preset x strategy x backend).
    --spec SPEC        analyze this spec (repeatable; :xCOUNT is ignored)
    --seed N           statement seed for circuit construction (default 0;
                       shapes are seed-independent, values are not)
    --json             emit one machine-readable JSON report object instead
                       of the human table (this is the CI artifact format)
    --deny LEVEL       exit 1 when any non-waived finding is at or above
                       LEVEL: info | warn | deny (default deny)
    --baseline FILE    waive reviewed findings: one `SPEC FINGERPRINT` (or
                       bare `FINGERPRINT` for any spec) per line, `#`
                       comments allowed; fingerprints are shown in reports

OPTIONS (prove / verify):
    --seed N           determinism seed (default 0); verify must use the seed
                       the proof was made with. verify rebuilds the statement
                       and derives the verifier key from (SPEC, seed) on every
                       run: it trusts no key stored on disk or in the file.

EXAMPLES:
    zkvc prove-batch --spec 8x8x16:crpc+psq:groth16:x8 --workers 4
    zkvc prove-batch --spec 4x4x4:zkvc:g:x4 --spec mixer-block:spartan:x4
    echo '{\"spec\": \"4x4x4:zkvc:s\", \"id\": 1}' | zkvc serve --workers 2
    zkvc prove --spec 8x8x16:zkvc:g --out proof.bin && zkvc verify --in proof.bin --spec 8x8x16:zkvc:g
    zkvc prove --spec bert-block:spartan --out bert.bin && zkvc verify --in bert.bin --spec bert-block:spartan
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    // A malformed fault schedule is a usage error at startup, not a
    // panic in whichever worker thread happens to hit the first fault
    // point mid-run.
    if let Err(message) = fault::validate_env() {
        eprintln!("error: {message}");
        return ExitCode::from(2);
    }
    let result = match command.as_str() {
        "prove-batch" => cmd_prove_batch(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "client" => cmd_client(&args[1..]),
        "prove" => cmd_prove(&args[1..]),
        "verify" => cmd_verify(&args[1..]),
        "analyze" => cmd_analyze(&args[1..]),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(Error::Usage(format!(
            "unknown command {other:?}; try `zkvc help`"
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("error: {error}");
            ExitCode::from(error.exit_code())
        }
    }
}

/// Rejects any argument that is not a recognised flag of the current
/// subcommand (so a typo'd `--sede 7` errors out instead of silently
/// proving with the default seed).
fn reject_unknown_args(
    args: &[String],
    flags_with_value: &[&str],
    bare_flags: &[&str],
) -> Result<(), Error> {
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        if flags_with_value.contains(&arg) {
            i += 2; // skip the flag and its value; presence checked later
        } else if bare_flags.contains(&arg) {
            i += 1;
        } else {
            return Err(Error::Usage(format!(
                "unknown argument {arg:?}; try `zkvc help`"
            )));
        }
    }
    Ok(())
}

/// Pulls the value following a `--flag` occurrence out of `args`.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, Error> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|s| Some(s.as_str()))
            .ok_or_else(|| Error::Usage(format!("{flag} requires a value"))),
    }
}

fn parse_common(args: &[String]) -> Result<(Vec<JobSpec>, u64), Error> {
    let mut specs = Vec::new();
    for (i, arg) in args.iter().enumerate() {
        if arg == "--spec" {
            let value = args
                .get(i + 1)
                .ok_or_else(|| Error::Usage("--spec requires a value".into()))?;
            let (spec, count) = JobSpec::parse(value)?;
            specs.extend(std::iter::repeat_n(spec, count));
        }
    }
    let seed = match flag_value(args, "--seed")? {
        Some(s) => s
            .parse::<u64>()
            .map_err(|_| Error::Usage(format!("bad --seed {s:?}")))?,
        None => 0,
    };
    Ok((specs, seed))
}

/// Parses `--workers K`, defaulting to available parallelism.
fn workers_from_args(args: &[String]) -> Result<usize, Error> {
    match flag_value(args, "--workers")? {
        Some(s) => s
            .parse::<usize>()
            .ok()
            .filter(|w| *w > 0)
            .ok_or_else(|| Error::Usage(format!("bad --workers {s:?}"))),
        None => Ok(std::thread::available_parallelism().map_or(4, std::num::NonZero::get)),
    }
}

fn cmd_prove_batch(args: &[String]) -> Result<(), Error> {
    reject_unknown_args(args, &["--spec", "--seed", "--workers", "--report"], &[])?;
    let (specs, seed) = parse_common(args)?;
    if specs.is_empty() {
        return Err(Error::Usage("prove-batch needs at least one --spec".into()));
    }
    let workers = workers_from_args(args)?;

    let pool = ProvingPool::with_cache(workers, seed, Arc::new(KeyCache::with_seed(seed)));
    for spec in &specs {
        pool.submit(*spec, JobOptions::new());
    }
    let report = pool.join();
    print!("{}", report.render_table("zkvc prove-batch"));
    if let Some(path) = flag_value(args, "--report")? {
        std::fs::write(path, report.render_report_json()).map_err(|e| Error::io(path, e))?;
        println!("wrote deterministic batch report to {path}");
    }

    if report.all_verified() {
        Ok(())
    } else {
        Err(Error::VerificationFailed)
    }
}

fn cmd_serve(args: &[String]) -> Result<(), Error> {
    reject_unknown_args(
        args,
        &[
            "--workers",
            "--seed",
            "--queue-bound",
            "--max-request",
            "--key-cache",
            "--cache-bytes",
            "--listen",
            "--idle-timeout",
            "--session-bound",
            "--admission-bound",
            "--retry-after-ms",
            "--tune-profile",
        ],
        &["--no-proofs", "--analyze-on-compile"],
    )?;
    // The benchmark driver (`benchmark/src/serve.rs`) still starts
    // `zkvc serve --key-cache none --tune-profile none`, so exactly those
    // arguments stay no-ops until the ROADMAP item-6 benchmark change
    // drops them.
    for (flag, removed) in [
        (
            "--key-cache",
            "the disk key cache was removed; verifier keys are derived from (spec, seed)",
        ),
        (
            "--tune-profile",
            "the kernel auto-tuner was removed; MSM/FFT dispatch is static",
        ),
    ] {
        if let Some(value) = flag_value(args, flag)? {
            if value != "none" {
                return Err(Error::Usage(format!(
                    "{flag} {value:?}: {removed} (only `none` is still accepted)"
                )));
            }
        }
    }
    let workers = workers_from_args(args)?;
    let seed = match flag_value(args, "--seed")? {
        Some(s) => s
            .parse::<u64>()
            .map_err(|_| Error::Usage(format!("bad --seed {s:?}")))?,
        None => 0,
    };
    let mut config = ServeConfig::new(workers)
        .seed(seed)
        .include_proofs(!args.iter().any(|a| a == "--no-proofs"))
        .analyze_on_compile(args.iter().any(|a| a == "--analyze-on-compile"));
    if let Some(s) = flag_value(args, "--queue-bound")? {
        let bound = s
            .parse::<usize>()
            .ok()
            .filter(|b| *b > 0)
            .ok_or_else(|| Error::Usage(format!("bad --queue-bound {s:?}")))?;
        config = config.queue_bound(bound);
    }
    if let Some(s) = flag_value(args, "--max-request")? {
        let max = s
            .parse::<usize>()
            .ok()
            .filter(|m| *m > 0)
            .ok_or_else(|| Error::Usage(format!("bad --max-request {s:?}")))?;
        config = config.max_request_bytes(max);
    }
    if let Some(s) = flag_value(args, "--cache-bytes")? {
        config = config.cache_bytes(match s {
            "none" => None,
            _ => Some(
                s.parse::<usize>()
                    .map_err(|_| Error::Usage(format!("bad --cache-bytes {s:?}")))?,
            ),
        });
    }

    let listen = flag_value(args, "--listen")?
        .map(ListenAddr::parse)
        .transpose()?;
    let Some(addr) = listen else {
        for flag in [
            "--idle-timeout",
            "--session-bound",
            "--admission-bound",
            "--retry-after-ms",
        ] {
            if flag_value(args, flag)?.is_some() {
                return Err(Error::Usage(format!("{flag} requires --listen")));
            }
        }
        // Requests come from stdin, responses go to stdout (line-buffered
        // by the serve loop itself); diagnostics would go to stderr.
        // Malformed requests are answered in-stream and never kill the
        // server — the exit code reflects proving outcomes only.
        let summary = serve(std::io::stdin().lock(), std::io::stdout(), config)?;
        eprintln!(
            "zkvc serve: {} job(s), {} verified, {} failed, {} request line(s) rejected",
            summary.jobs, summary.verified, summary.failed, summary.rejected
        );
        return if summary.failed == 0 {
            Ok(())
        } else {
            Err(Error::VerificationFailed)
        };
    };

    let mut net = NetConfig::new(config);
    if let Some(s) = flag_value(args, "--idle-timeout")? {
        net = net.idle_timeout(match s {
            "none" => None,
            _ => {
                Some(Duration::from_secs(s.parse::<u64>().map_err(|_| {
                    Error::Usage(format!("bad --idle-timeout {s:?}"))
                })?))
            }
        });
    }
    if let Some(s) = flag_value(args, "--session-bound")? {
        let bound = s
            .parse::<usize>()
            .ok()
            .filter(|b| *b > 0)
            .ok_or_else(|| Error::Usage(format!("bad --session-bound {s:?}")))?;
        net = net.session_bound(bound);
    }
    if let Some(s) = flag_value(args, "--admission-bound")? {
        net = net.admission_bound(match s {
            "none" => None,
            _ => Some(
                s.parse::<usize>()
                    .ok()
                    .filter(|b| *b > 0)
                    .ok_or_else(|| Error::Usage(format!("bad --admission-bound {s:?}")))?,
            ),
        });
    }
    if let Some(s) = flag_value(args, "--retry-after-ms")? {
        let ms = s
            .parse::<u64>()
            .map_err(|_| Error::Usage(format!("bad --retry-after-ms {s:?}")))?;
        net = net.retry_after_ms(ms);
    }

    // A long-running service: SIGINT/SIGTERM raise the shutdown flag, the
    // listener stops accepting, every session drains and summarises, and
    // the process exits 0. Job failures of individual clients are their
    // problem (reported in their own streams), not the service's exit
    // code — a disconnecting client cancelling its jobs is normal
    // operation.
    let shutdown = sig::install_shutdown_flag();
    let totals = serve_listener(&addr, net, shutdown, |bound| {
        eprintln!("zkvc serve: listening on {bound} (SIGINT/SIGTERM drains and exits)");
    })?;
    eprintln!(
        "zkvc serve: {} session(s) ({} disconnected, {} idle-reaped), {} job(s), {} verified, {} failed, {} rejected, {} shed",
        totals.sessions,
        totals.disconnected,
        totals.reaped_idle,
        totals.jobs,
        totals.verified,
        totals.failed,
        totals.rejected,
        totals.shed
    );
    Ok(())
}

fn cmd_client(args: &[String]) -> Result<(), Error> {
    reject_unknown_args(
        args,
        &[
            "--connect",
            "--spec",
            "--seed",
            "--sessions",
            "--count",
            "--jobs",
            "--report",
            "--deadline-ms",
            "--retries",
            "--backoff-ms",
            "--retry-seed",
        ],
        &["--no-verify"],
    )?;
    let addr = ListenAddr::parse(
        flag_value(args, "--connect")?
            .ok_or_else(|| Error::Usage("client requires --connect ADDR".into()))?,
    )?;
    let jobs = match flag_value(args, "--jobs")? {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| Error::io(path, e))?;
            Some(text.lines().map(str::to_string).collect::<Vec<_>>())
        }
        None => None,
    };
    // The spec drives generated load; with --jobs the file's own lines
    // are streamed and the spec (if any) is ignored for generation.
    let (spec, spec_count) = match flag_value(args, "--spec")? {
        Some(s) => JobSpec::parse(s)?,
        None if jobs.is_some() => JobSpec::parse("2x2x2:zkvc:s")?,
        None => {
            return Err(Error::Usage(
                "client requires --spec SPEC (or --jobs FILE)".into(),
            ))
        }
    };
    let seed = flag_value(args, "--seed")?
        .map(|s| {
            s.parse::<u64>()
                .map_err(|_| Error::Usage(format!("bad --seed {s:?}")))
        })
        .transpose()?;
    let count = match flag_value(args, "--count")? {
        Some(s) => s
            .parse::<usize>()
            .ok()
            .filter(|c| *c > 0)
            .ok_or_else(|| Error::Usage(format!("bad --count {s:?}")))?,
        // An :xCOUNT suffix on the spec sets the per-session count;
        // otherwise 8 requests exercise the cache-warm path.
        None => {
            if spec_count > 1 {
                spec_count
            } else {
                8
            }
        }
    };
    let mut config = ClientConfig::new(addr, spec)
        .seed(seed)
        .count(count)
        .verify(!args.iter().any(|a| a == "--no-verify"))
        .jobs(jobs);
    if let Some(s) = flag_value(args, "--sessions")? {
        let sessions = s
            .parse::<usize>()
            .ok()
            .filter(|k| *k > 0)
            .ok_or_else(|| Error::Usage(format!("bad --sessions {s:?}")))?;
        config = config.sessions(sessions);
    }
    if let Some(s) = flag_value(args, "--deadline-ms")? {
        let ms = s
            .parse::<u64>()
            .ok()
            .filter(|ms| *ms > 0)
            .ok_or_else(|| Error::Usage(format!("bad --deadline-ms {s:?}")))?;
        config = config.deadline_ms(Some(ms));
    }
    if let Some(s) = flag_value(args, "--retries")? {
        let retries = s
            .parse::<usize>()
            .map_err(|_| Error::Usage(format!("bad --retries {s:?}")))?;
        config = config.retries(retries);
    }
    if let Some(s) = flag_value(args, "--backoff-ms")? {
        let ms = s
            .parse::<u64>()
            .map_err(|_| Error::Usage(format!("bad --backoff-ms {s:?}")))?;
        config = config.backoff_ms(ms);
    }
    if let Some(s) = flag_value(args, "--retry-seed")? {
        let seed = s
            .parse::<u64>()
            .map_err(|_| Error::Usage(format!("bad --retry-seed {s:?}")))?;
        config = config.retry_seed(seed);
    }

    let report = run_client(&config)?;
    println!("{}", report.render_table());
    if let Some(path) = flag_value(args, "--report")? {
        std::fs::write(path, format!("{}\n", report.render_report_json()))
            .map_err(|e| Error::io(path, e))?;
        println!("wrote deterministic client report to {path}");
    }
    if report.all_ok() {
        Ok(())
    } else {
        Err(Error::VerificationFailed)
    }
}

/// SIGINT/SIGTERM handling without a signals crate: the handler (an
/// async-signal-safe atomic store into a static) raises a process-wide
/// flag; a watcher thread mirrors it into the `Arc<AtomicBool>` the
/// listener polls every accept/read tick.
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    static SHUTDOWN: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    extern "C" {
        // C `signal(2)`; handler travels as a plain function address.
        fn signal(signum: i32, handler: usize) -> usize;
    }

    pub fn install_shutdown_flag() -> Arc<AtomicBool> {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        let handler = on_signal as extern "C" fn(i32) as usize;
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
        let flag = Arc::new(AtomicBool::new(false));
        let mirror = Arc::clone(&flag);
        std::thread::spawn(move || {
            while !SHUTDOWN.load(Ordering::SeqCst) {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            mirror.store(true, Ordering::SeqCst);
        });
        flag
    }
}

#[cfg(not(unix))]
mod sig {
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    /// No signal plumbing off unix: the flag simply never trips and the
    /// server runs until the process is killed.
    pub fn install_shutdown_flag() -> Arc<AtomicBool> {
        Arc::new(AtomicBool::new(false))
    }
}

fn cmd_analyze(args: &[String]) -> Result<(), Error> {
    reject_unknown_args(
        args,
        &["--spec", "--seed", "--deny", "--baseline"],
        &["--json"],
    )?;
    let (mut specs, seed) = parse_common(args)?;
    // :xCOUNT repetition is meaningless for analysis; collapse it.
    specs.dedup();
    if specs.is_empty() {
        specs = analysis::default_sweep();
    }
    let deny = match flag_value(args, "--deny")? {
        Some(s) => Severity::parse(s).ok_or_else(|| {
            Error::Usage(format!("bad --deny {s:?} (expected info, warn or deny)"))
        })?,
        None => Severity::Deny,
    };
    let baseline = match flag_value(args, "--baseline")? {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| Error::io(path, e))?;
            Baseline::parse(&text).map_err(Error::Usage)?
        }
        None => Baseline::default(),
    };

    let results = analysis::analyze_specs(&specs, seed);
    if args.iter().any(|a| a == "--json") {
        println!("{}", analysis::render_json(&results, &baseline));
    } else {
        print!("{}", analysis::render_human(&results, &baseline));
    }
    let gated = analysis::gate_count(&results, deny, &baseline);
    if gated == 0 {
        Ok(())
    } else {
        Err(Error::AnalysisFailed {
            findings: gated,
            threshold: deny.token().to_string(),
        })
    }
}

fn cmd_prove(args: &[String]) -> Result<(), Error> {
    reject_unknown_args(args, &["--spec", "--seed", "--out"], &[])?;
    let (specs, seed) = parse_common(args)?;
    let [spec] = specs[..] else {
        return Err(Error::Usage(
            "prove needs exactly one --spec (without :xCOUNT)".into(),
        ));
    };
    let out_path = flag_value(args, "--out")?
        .ok_or_else(|| Error::Usage("prove requires --out FILE".into()))?;

    // Job 0 of a one-job batch at this seed: the pool's job body proves
    // and self-verifies it, and the file holds its envelope bytes as they
    // are, the exact answer `serve` gives a `{spec, seed}` request. As in
    // `prove-batch`, a job that ends without a verified proof (a contained
    // panic included) exits 1.
    let pool = ProvingPool::with_cache(1, seed, Arc::new(KeyCache::with_seed(seed)));
    pool.submit(spec, JobOptions::new());
    let report = pool.join();
    let result = match &report.results[..] {
        [result] if result.verified => result,
        _ => return Err(Error::VerificationFailed),
    };
    let bytes = &result.proof_bytes;
    std::fs::write(out_path, bytes).map_err(|e| Error::io(out_path, e))?;
    println!(
        "proved {spec} in {:.3}s ({} constraints, {} public outputs), wrote {} bytes to {out_path}",
        (result.build_time + result.prove_time).as_secs_f64(),
        result.num_constraints,
        ProofEnvelope::decode(bytes)?.public_inputs.len(),
        bytes.len()
    );
    Ok(())
}

fn cmd_verify(args: &[String]) -> Result<(), Error> {
    reject_unknown_args(args, &["--spec", "--seed", "--in"], &[])?;
    let (specs, seed) = parse_common(args)?;
    let [spec] = specs[..] else {
        return Err(Error::Usage(
            "verify needs exactly one --spec matching the one used to prove".into(),
        ));
    };
    let in_path = flag_value(args, "--in")?
        .ok_or_else(|| Error::Usage("verify requires --in FILE".into()))?;
    let bytes = std::fs::read(in_path).map_err(|e| Error::io(in_path, e))?;
    let envelope = ProofEnvelope::decode(&bytes)?;
    if envelope.backend() != spec.backend() {
        return Err(Error::BackendMismatch {
            proof: envelope.backend(),
            expected: spec.backend(),
        });
    }
    // Rebuild the statement the spec names (inputs, weights and public
    // outputs are all deterministic in the seed) and check the proof
    // against it in two steps. First, statement binding: the envelope's
    // public inputs must be exactly the statement's expected public
    // outputs — a replayed proof for the same shape but a different Y (or
    // different logits) is rejected here, before any cryptography runs.
    // Circuits built with `:private` have no public outputs, in which case
    // the proof binds the circuit shape + key material only.
    let statement = build_statement(seed, 0, &spec);
    let expected = statement.public_outputs();
    if expected.is_empty() {
        println!("statement binding: none (private outputs; shape + key binding only)");
    } else if envelope.public_inputs == expected {
        println!(
            "statement binding: OK ({} public outputs match)",
            expected.len()
        );
    } else {
        println!(
            "statement binding: MISMATCH (proof binds different outputs than {spec} job 0 at seed {seed})"
        );
        return Err(Error::StatementMismatch);
    }

    // Second, cryptographic verification against the *expected* verifier
    // key for the spec'd circuit shape (the envelope carries none), so an
    // envelope built from some other circuit's setup fails even though it
    // is a valid proof of that circuit. The shape is compiled once, and
    // the key is derived from its digest and the seed exactly as the
    // prover's setup was seeded; for Groth16 only the verifying key's
    // points are computed.
    let t_key = Instant::now();
    let shape = Arc::new(compile_shape(statement.as_ref()));
    let verifier = derive_verifier_key(spec.backend(), &shape, seed);
    let key_time = t_key.elapsed();

    let t0 = Instant::now();
    let ok = envelope.verify_with_key(&verifier);
    println!("key material: derived in {:.3}s", key_time.as_secs_f64());
    println!(
        "verification: {} in {:.3}s",
        if ok { "OK" } else { "FAILED" },
        t0.elapsed().as_secs_f64()
    );
    if ok {
        Ok(())
    } else {
        Err(Error::VerificationFailed)
    }
}
