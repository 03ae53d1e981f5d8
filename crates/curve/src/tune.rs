//! Adaptive kernel auto-tuning: per-host calibrated MSM/FFT dispatch.
//!
//! The MSM and FFT entry points make three scheduling decisions that used
//! to be compile-time guesses:
//!
//! 1. which **driver** an MSM of `n` points takes — the batch-affine
//!    signed-window engine or the plain projective window-parallel
//!    fallback (hard-coded cutover: 4096 points);
//! 2. which **signed window width** the batch-affine engine uses (a
//!    static 6-muls-per-addition cost model);
//! 3. whether an FFT of `2^k` points runs the **serial or parallel**
//!    kernel (hard-coded cutover: `2^12`).
//!
//! The committed `BENCH_kernels.json` trajectory shows the cost of
//! guessing wrong (a 2^18 FFT that dispatched parallel at 0.678x, a 2^11
//! MSM that gained nothing). This module replaces the guesses with a
//! **measured-on-this-host** [`TuneProfile`]: [`calibrate`] runs a short,
//! seeded probe sweeping the candidates per size class and records the
//! winners; [`activate`] installs the winners into the process-global
//! dispatch tables that [`crate::msm`] and the `zkvc_ff` FFT consult. A
//! profile serialises to versioned JSON ([`TuneProfile::to_json`] /
//! [`TuneProfile::from_json`]) so the runtime can persist it beside its
//! key cache and reload it at startup.
//!
//! **Determinism invariant:** every parameter here changes only the
//! schedule, never the result. MSM is exact group arithmetic under any
//! window width or driver, and the serial and parallel FFT kernels are
//! bit-identical — so proofs are bit-identical across any two profiles.
//! (`crates/runtime/tests/tune.rs` proves the same job under extreme
//! profiles and byte-compares the envelopes.)

use std::sync::RwLock;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkvc_ff::tune::FftParams;
use zkvc_ff::{EvaluationDomain, Field, Fr};

use crate::g1::{G1Affine, G1Projective};
use crate::msm::{
    default_num_chunks, msm_affine_with_window, msm_window_parallel, signed_window_size,
};

/// Version stamp of the persisted profile format. A loader seeing any
/// other version must fall back to [`MsmParams::STATIC`] defaults (with
/// a warning), never crash or misread.
pub const PROFILE_VERSION: u32 = 1;

/// Schema string stamped into the JSON document.
pub const PROFILE_SCHEMA: &str = "zkvc-tune-profile/v1";

/// Size classes are `floor(log2(n))`, clamped to this (the scalar
/// field's 2-adicity caps FFT domains at `2^32`, and MSMs beyond that
/// are out of scope for a software prover).
pub const MAX_LOG2: u32 = 32;

/// Per-size-class MSM dispatch decisions.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct MsmParams {
    /// Bit `k` set: an MSM with `2^k <= n < 2^(k+1)` points takes the
    /// batch-affine signed-window driver; clear: the projective
    /// window-parallel fallback.
    pub affine_mask: u64,
    /// Signed window width override per size class; `0` defers to the
    /// static cost model (`signed_window_size` in `msm.rs`).
    pub windows: [u8; 33],
}

impl std::fmt::Debug for MsmParams {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MsmParams")
            .field("affine_mask", &format_args!("{:#x}", self.affine_mask))
            .field(
                "windows",
                &self
                    .windows
                    .iter()
                    .enumerate()
                    .filter(|(_, w)| **w != 0)
                    .map(|(k, w)| (k, *w))
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl MsmParams {
    /// The historical hard-coded dispatch: batch-affine for 4096 points
    /// and up, window widths from the static cost model.
    pub const STATIC: MsmParams = MsmParams {
        // Bits 12..=63: n >= 4096 <=> floor(log2 n) >= 12.
        affine_mask: !0u64 << 12,
        windows: [0; 33],
    };

    /// Whether the batch-affine driver is enabled for size class `log2`.
    #[must_use]
    pub fn use_affine(&self, log2: u32) -> bool {
        (self.affine_mask >> log2.min(MAX_LOG2)) & 1 == 1
    }

    /// The calibrated window width for size class `log2`, or `None` to
    /// defer to the cost model.
    #[must_use]
    pub fn window_override(&self, log2: u32) -> Option<usize> {
        match self.windows[log2.min(MAX_LOG2) as usize] {
            0 => None,
            c => Some(c as usize),
        }
    }

    /// Sets the driver decision for one size class.
    pub fn set_affine(&mut self, log2: u32, affine: bool) {
        let bit = 1u64 << log2.min(MAX_LOG2);
        if affine {
            self.affine_mask |= bit;
        } else {
            self.affine_mask &= !bit;
        }
    }

    /// Sets (or with `0` clears) the window override for one size class.
    pub fn set_window(&mut self, log2: u32, c: u8) {
        self.windows[log2.min(MAX_LOG2) as usize] = c;
    }
}

/// The dispatch decision [`crate::msm`] takes for an `n`-point MSM.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsmDecision {
    /// The projective window-parallel fallback driver.
    Fallback,
    /// The batch-affine driver with this chunk count and window width.
    Affine {
        /// Point chunks split across worker threads.
        chunks: usize,
        /// Signed window width in bits.
        window: usize,
    },
}

impl std::fmt::Display for MsmDecision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MsmDecision::Fallback => write!(f, "fallback"),
            MsmDecision::Affine { chunks, window } => write!(f, "affine:c{window}:x{chunks}"),
        }
    }
}

/// The decision `params` produce for an `n`-point MSM on this host
/// (introspection for benches and logs; [`crate::msm`] computes the same
/// thing inline).
#[must_use]
pub fn msm_decision(params: &MsmParams, n: usize) -> MsmDecision {
    if n == 0 {
        return MsmDecision::Fallback;
    }
    let lg = log2_class(n);
    if !params.use_affine(lg) {
        return MsmDecision::Fallback;
    }
    let chunks = default_num_chunks(n);
    let window = params
        .window_override(lg)
        .unwrap_or_else(|| signed_window_size(n, chunks));
    MsmDecision::Affine { chunks, window }
}

/// `floor(log2(n))` clamped to [`MAX_LOG2`]; `n` must be non-zero.
#[must_use]
pub fn log2_class(n: usize) -> u32 {
    debug_assert!(n > 0);
    (usize::BITS - 1 - n.leading_zeros()).min(MAX_LOG2)
}

static ACTIVE_MSM: RwLock<MsmParams> = RwLock::new(MsmParams::STATIC);

/// The currently installed MSM dispatch parameters.
pub fn msm_params() -> MsmParams {
    *ACTIVE_MSM.read().expect("msm tune params poisoned")
}

/// Installs MSM dispatch parameters process-wide, returning the previous
/// ones. Results are identical under any parameters.
pub fn set_msm_params(params: MsmParams) -> MsmParams {
    let mut slot = ACTIVE_MSM.write().expect("msm tune params poisoned");
    std::mem::replace(&mut slot, params)
}

/// One measured probe point, kept in the profile as provenance (and as
/// part of the host fingerprint alongside the core count).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProbePoint {
    /// `"msm"` or `"fft"`.
    pub kernel: String,
    /// Size class probed (`n = 2^log2`).
    pub log2: u32,
    /// Winning candidate, e.g. `"affine:c9"`, `"fallback"`, `"serial"`.
    pub choice: String,
    /// Median wall time of the winner across the probe repetitions, in
    /// microseconds.
    pub median_us: u64,
}

/// A versioned, per-host kernel dispatch profile.
#[derive(Clone, Debug, PartialEq)]
pub struct TuneProfile {
    /// Format version ([`PROFILE_VERSION`]).
    pub version: u32,
    /// Core count of the host the probe ran on (host fingerprint — a
    /// reloaded profile is only trusted on a machine with the same
    /// parallelism).
    pub cores: usize,
    /// Calibrated MSM dispatch.
    pub msm: MsmParams,
    /// Calibrated FFT dispatch.
    pub fft: FftParams,
    /// The probe medians behind the decisions.
    pub probes: Vec<ProbePoint>,
}

impl TuneProfile {
    /// The static fallback profile: exactly today's hard-coded dispatch,
    /// used whenever no calibrated profile is available.
    #[must_use]
    pub fn static_profile() -> TuneProfile {
        TuneProfile {
            version: PROFILE_VERSION,
            cores: zkvc_ff::par::num_threads(),
            msm: MsmParams::STATIC,
            fft: FftParams::STATIC,
            probes: Vec::new(),
        }
    }

    /// Serialises the profile as a self-describing JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let logs_of = |mask: u64| -> String {
            let logs: Vec<String> = (0..=MAX_LOG2)
                .filter(|k| (mask >> k) & 1 == 1)
                .map(|k| k.to_string())
                .collect();
            format!("[{}]", logs.join(", "))
        };
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"schema\": \"{PROFILE_SCHEMA}\",");
        let _ = writeln!(out, "  \"version\": {},", self.version);
        let _ = writeln!(out, "  \"cores\": {},", self.cores);
        let _ = writeln!(
            out,
            "  \"msm_affine_logs\": {},",
            logs_of(self.msm.affine_mask)
        );
        let windows: Vec<String> = self
            .msm
            .windows
            .iter()
            .enumerate()
            .filter(|(_, w)| **w != 0)
            .map(|(k, w)| format!("[{k}, {w}]"))
            .collect();
        let _ = writeln!(out, "  \"msm_windows\": [{}],", windows.join(", "));
        let _ = writeln!(
            out,
            "  \"fft_parallel_logs\": {},",
            logs_of(self.fft.par_mask)
        );
        let _ = writeln!(out, "  \"probes\": [");
        for (i, p) in self.probes.iter().enumerate() {
            // Probe strings come from a fixed vocabulary with nothing to
            // escape; reject anything else rather than emit broken JSON.
            assert!(
                !p.kernel.contains(['"', '\\']) && !p.choice.contains(['"', '\\']),
                "probe strings must not need JSON escaping"
            );
            let _ = writeln!(
                out,
                "    {{\"kernel\": \"{}\", \"log2\": {}, \"choice\": \"{}\", \"median_us\": {}}}{}",
                p.kernel,
                p.log2,
                p.choice,
                p.median_us,
                if i + 1 < self.probes.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        out
    }

    /// Parses a profile from JSON. A structurally valid document with
    /// the wrong version is [`ProfileError::Version`] — callers treat it
    /// as "no profile" and fall back to the static defaults.
    pub fn from_json(text: &str) -> Result<TuneProfile, ProfileError> {
        let value = json::parse(text).map_err(ProfileError::Parse)?;
        let obj = value
            .as_object()
            .ok_or_else(|| ProfileError::Parse("profile must be a JSON object".into()))?;
        let version = json::get_u64(obj, "version")
            .ok_or_else(|| ProfileError::Parse("profile is missing \"version\"".into()))?
            as u32;
        let schema = json::get_str(obj, "schema");
        if version != PROFILE_VERSION || schema.is_some_and(|s| s != PROFILE_SCHEMA) {
            return Err(ProfileError::Version { found: version });
        }
        let cores = json::get_u64(obj, "cores")
            .ok_or_else(|| ProfileError::Parse("profile is missing \"cores\"".into()))?
            as usize;

        let mask_from = |key: &str| -> Result<u64, ProfileError> {
            let arr = json::get_arr(obj, key)
                .ok_or_else(|| ProfileError::Parse(format!("profile is missing \"{key}\"")))?;
            let mut mask = 0u64;
            for v in arr {
                let k = v.as_u64().ok_or_else(|| {
                    ProfileError::Parse(format!("\"{key}\" entries must be ints"))
                })?;
                if k > u64::from(MAX_LOG2) {
                    return Err(ProfileError::Parse(format!(
                        "\"{key}\" log {k} exceeds {MAX_LOG2}"
                    )));
                }
                mask |= 1u64 << k;
            }
            Ok(mask)
        };
        // The in-memory masks extend the top class upward so clamped
        // lookups above 2^32 follow the 2^32 decision.
        let extend_top = |mask: u64| -> u64 {
            if (mask >> MAX_LOG2) & 1 == 1 {
                mask | (!0u64 << MAX_LOG2)
            } else {
                mask
            }
        };
        let affine_mask = extend_top(mask_from("msm_affine_logs")?);
        let par_mask = extend_top(mask_from("fft_parallel_logs")?);

        let mut windows = [0u8; 33];
        let window_pairs = json::get_arr(obj, "msm_windows")
            .ok_or_else(|| ProfileError::Parse("profile is missing \"msm_windows\"".into()))?;
        for pair in window_pairs {
            let pair = pair.as_array().filter(|p| p.len() == 2).ok_or_else(|| {
                ProfileError::Parse("\"msm_windows\" entries are [log2, c]".into())
            })?;
            let (k, c) = (pair[0].as_u64(), pair[1].as_u64());
            match (k, c) {
                (Some(k), Some(c)) if k <= u64::from(MAX_LOG2) && (1..=32).contains(&c) => {
                    windows[k as usize] = c as u8;
                }
                _ => {
                    return Err(ProfileError::Parse(
                        "\"msm_windows\" entries are [log2 <= 32, 1 <= c <= 32]".into(),
                    ))
                }
            }
        }

        let mut probes = Vec::new();
        if let Some(arr) = json::get_arr(obj, "probes") {
            for p in arr {
                let p = p
                    .as_object()
                    .ok_or_else(|| ProfileError::Parse("probe entries must be objects".into()))?;
                probes.push(ProbePoint {
                    kernel: json::get_str(p, "kernel")
                        .ok_or_else(|| ProfileError::Parse("probe missing \"kernel\"".into()))?
                        .to_string(),
                    log2: json::get_u64(p, "log2")
                        .ok_or_else(|| ProfileError::Parse("probe missing \"log2\"".into()))?
                        as u32,
                    choice: json::get_str(p, "choice")
                        .ok_or_else(|| ProfileError::Parse("probe missing \"choice\"".into()))?
                        .to_string(),
                    median_us: json::get_u64(p, "median_us")
                        .ok_or_else(|| ProfileError::Parse("probe missing \"median_us\"".into()))?,
                });
            }
        }

        Ok(TuneProfile {
            version,
            cores,
            msm: MsmParams {
                affine_mask,
                windows,
            },
            fft: FftParams { par_mask },
            probes,
        })
    }
}

/// Why a profile document could not be used.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProfileError {
    /// The document parsed but carries an unknown (stale or future)
    /// version; callers fall back to static defaults with a warning.
    Version {
        /// The version the document declared.
        found: u32,
    },
    /// The document is not a valid profile at all.
    Parse(String),
}

impl std::fmt::Display for ProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProfileError::Version { found } => write!(
                f,
                "unsupported tune-profile version {found} (this build speaks {PROFILE_VERSION})"
            ),
            ProfileError::Parse(msg) => write!(f, "malformed tune profile: {msg}"),
        }
    }
}

/// Installs a profile's decisions into the process-global dispatch
/// tables (MSM here, FFT in `zkvc_ff`). Returns the previously active
/// `(msm, fft)` parameters so callers can restore them.
pub fn activate(profile: &TuneProfile) -> (MsmParams, FftParams) {
    (
        set_msm_params(profile.msm),
        zkvc_ff::tune::set_fft_params(profile.fft),
    )
}

/// Restores previously active parameters (the counterpart of
/// [`activate`] for scoped use in tests and benches).
pub fn restore(previous: (MsmParams, FftParams)) {
    set_msm_params(previous.0);
    zkvc_ff::tune::set_fft_params(previous.1);
}

/// What the calibration probe sweeps.
#[derive(Clone, Debug)]
pub struct ProbeConfig {
    /// MSM size classes to probe (`n = 2^log2` points each).
    pub msm_logs: Vec<u32>,
    /// FFT size classes to probe.
    pub fft_logs: Vec<u32>,
    /// Repetitions per candidate; the median is recorded.
    pub reps: usize,
    /// Seed for the probe's point/scalar generation (the measurement is
    /// timing-noisy by nature, but the workload is reproducible).
    pub seed: u64,
}

impl ProbeConfig {
    /// The standard probe: MSM 2^10..2^14, FFT 2^10..2^18 — a few
    /// seconds of wall time, covering every hard-coded cutover.
    #[must_use]
    pub fn standard() -> ProbeConfig {
        ProbeConfig {
            msm_logs: (10..=14).collect(),
            fft_logs: (10..=18).collect(),
            reps: 3,
            seed: 0x7A7E,
        }
    }

    /// A sub-second probe for CI smoke jobs.
    #[must_use]
    pub fn quick() -> ProbeConfig {
        ProbeConfig {
            msm_logs: (8..=10).collect(),
            fft_logs: (8..=12).collect(),
            reps: 2,
            seed: 0x7A7E,
        }
    }
}

/// Median of a few wall-clock runs of `f`, in microseconds.
fn median_us<R>(reps: usize, mut f: impl FnMut() -> R) -> u64 {
    let mut samples: Vec<u64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            let r = f();
            let us = t.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
            std::hint::black_box(r);
            us
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Runs the calibration probe and returns the winning dispatch decisions
/// as a [`TuneProfile`] (not yet activated or persisted — callers decide
/// both). Size classes outside the probed ranges inherit the static
/// defaults below the range and the largest probed class's driver
/// decision above it (with the window back on the cost model, which
/// scales with `n`).
#[must_use]
pub fn calibrate(config: &ProbeConfig) -> TuneProfile {
    let cores = zkvc_ff::par::num_threads();
    let mut msm = MsmParams::STATIC;
    let mut fft = FftParams::STATIC;
    let mut probes = Vec::new();

    // --- MSM: per probed class, race the projective fallback against
    // the batch-affine driver at windows around the cost model's pick.
    if let Some(&max_log) = config.msm_logs.iter().max() {
        let n_max = 1usize << max_log;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let seedlings: Vec<G1Projective> = (0..8).map(|_| G1Projective::random(&mut rng)).collect();
        let mut cur = seedlings[0];
        let bases: Vec<G1Affine> = (0..n_max)
            .map(|i| {
                cur = cur.add(&seedlings[i % 8]);
                cur.to_affine()
            })
            .collect();
        let scalars: Vec<Fr> = (0..n_max).map(|_| Fr::random(&mut rng)).collect();

        for &log2 in &config.msm_logs {
            let n = 1usize << log2;
            let (b, s) = (&bases[..n], &scalars[..n]);
            let chunks = default_num_chunks(n);
            let model_c = signed_window_size(n, chunks);

            let mut best_choice = "fallback".to_string();
            let mut best_us = median_us(config.reps, || msm_window_parallel(b, s));
            let lo = model_c.saturating_sub(2).max(3);
            let hi = (model_c + 2).min(15);
            for c in lo..=hi {
                let us = median_us(config.reps, || msm_affine_with_window(b, s, chunks, c));
                if us < best_us {
                    best_us = us;
                    best_choice = format!("affine:c{c}");
                }
            }

            match best_choice.strip_prefix("affine:c") {
                Some(c) => {
                    msm.set_affine(log2, true);
                    msm.set_window(log2, c.parse::<u8>().expect("probe window is numeric"));
                }
                None => {
                    msm.set_affine(log2, false);
                    msm.set_window(log2, 0);
                }
            }
            probes.push(ProbePoint {
                kernel: "msm".into(),
                log2,
                choice: best_choice,
                median_us: best_us,
            });
        }
        // Above the probed range: the largest class's driver verdict,
        // window back on the (n-scaling) cost model.
        let top_affine = msm.use_affine(max_log);
        for log2 in (max_log + 1)..=MAX_LOG2 {
            msm.set_affine(log2, top_affine);
            msm.set_window(log2, 0);
        }
        if top_affine {
            msm.affine_mask |= !0u64 << MAX_LOG2;
        } else {
            msm.affine_mask &= !(!0u64 << MAX_LOG2);
        }
    }

    // --- FFT: per probed class, serial cached-twiddle vs the parallel
    // two-phase kernel at the host's thread count. On a single core the
    // parallel kernel is pure spawn overhead; it is not raced, and the
    // class is pinned serial.
    if let Some(&max_log) = config.fft_logs.iter().max() {
        let n_max = 1usize << max_log;
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0xFF7);
        let values: Vec<Fr> = (0..n_max).map(|_| Fr::random(&mut rng)).collect();
        for &log2 in &config.fft_logs {
            let n = 1usize << log2;
            let domain = EvaluationDomain::<Fr>::new(n).expect("probe domain within 2-adicity");
            let serial_us = median_us(config.reps, || {
                let mut v = values[..n].to_vec();
                domain.fft_in_place_serial(&mut v);
                v
            });
            let (parallel, choice, best_us) = if cores > 1 {
                let par_us = median_us(config.reps, || {
                    let mut v = values[..n].to_vec();
                    domain.fft_in_place_parallel(&mut v, cores);
                    v
                });
                if par_us < serial_us {
                    (true, "parallel".to_string(), par_us)
                } else {
                    (false, "serial".to_string(), serial_us)
                }
            } else {
                (false, "serial".to_string(), serial_us)
            };
            fft.set_parallel(log2, parallel);
            probes.push(ProbePoint {
                kernel: "fft".into(),
                log2,
                choice,
                median_us: best_us,
            });
        }
        let top_parallel = fft.parallel(max_log, 2.max(cores));
        for log2 in (max_log + 1)..=MAX_LOG2 {
            fft.set_parallel(log2, top_parallel);
        }
        if top_parallel {
            fft.par_mask |= !0u64 << zkvc_ff::tune::MAX_LOG2;
        } else {
            fft.par_mask &= !(!0u64 << zkvc_ff::tune::MAX_LOG2);
        }
    }

    TuneProfile {
        version: PROFILE_VERSION,
        cores,
        msm,
        fft,
        probes,
    }
}

/// A minimal JSON reader for the profile document: objects, arrays,
/// strings, unsigned integers, booleans and null — nothing the profile
/// format does not use. Unknown keys are preserved-and-ignored so minor
/// additive evolution does not break old readers.
mod json {
    #[derive(Clone, Debug, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Num(u64),
        Str(String),
        Arr(Vec<Value>),
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        pub fn as_object(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Obj(fields) => Some(fields),
                _ => None,
            }
        }
        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(items) => Some(items),
                _ => None,
            }
        }
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Value::Num(n) => Some(*n),
                _ => None,
            }
        }
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }
    }

    pub fn get<'a>(obj: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
        obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
    pub fn get_u64(obj: &[(String, Value)], key: &str) -> Option<u64> {
        get(obj, key).and_then(Value::as_u64)
    }
    pub fn get_str<'a>(obj: &'a [(String, Value)], key: &str) -> Option<&'a str> {
        get(obj, key).and_then(Value::as_str)
    }
    pub fn get_arr<'a>(obj: &'a [(String, Value)], key: &str) -> Option<&'a [Value]> {
        get(obj, key).and_then(Value::as_array)
    }

    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(value)
    }

    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b) {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at offset {}", b as char, *pos))
        }
    }

    fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b'{') => {
                *pos += 1;
                let mut fields = Vec::new();
                skip_ws(bytes, pos);
                if bytes.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Value::Obj(fields));
                }
                loop {
                    skip_ws(bytes, pos);
                    let key = parse_string(bytes, pos)?;
                    expect(bytes, pos, b':')?;
                    let value = parse_value(bytes, pos)?;
                    fields.push((key, value));
                    skip_ws(bytes, pos);
                    match bytes.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Value::Obj(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at offset {}", *pos)),
                    }
                }
            }
            Some(b'[') => {
                *pos += 1;
                let mut items = Vec::new();
                skip_ws(bytes, pos);
                if bytes.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(parse_value(bytes, pos)?);
                    skip_ws(bytes, pos);
                    match bytes.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at offset {}", *pos)),
                    }
                }
            }
            Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
            Some(b't') if bytes[*pos..].starts_with(b"true") => {
                *pos += 4;
                Ok(Value::Bool(true))
            }
            Some(b'f') if bytes[*pos..].starts_with(b"false") => {
                *pos += 5;
                Ok(Value::Bool(false))
            }
            Some(b'n') if bytes[*pos..].starts_with(b"null") => {
                *pos += 4;
                Ok(Value::Null)
            }
            Some(c) if c.is_ascii_digit() => {
                let start = *pos;
                while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
                    *pos += 1;
                }
                std::str::from_utf8(&bytes[start..*pos])
                    .ok()
                    .and_then(|s| s.parse::<u64>().ok())
                    .map(Value::Num)
                    .ok_or_else(|| format!("bad number at offset {start}"))
            }
            _ => Err(format!("unexpected byte at offset {}", *pos)),
        }
    }

    fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected string at offset {}", *pos));
        }
        *pos += 1;
        let mut out = String::new();
        while let Some(&b) = bytes.get(*pos) {
            *pos += 1;
            match b {
                b'"' => return Ok(out),
                // The profile vocabulary never needs escapes beyond
                // these; reject the rest rather than mis-decode.
                b'\\' => match bytes.get(*pos) {
                    Some(b'"') => {
                        out.push('"');
                        *pos += 1;
                    }
                    Some(b'\\') => {
                        out.push('\\');
                        *pos += 1;
                    }
                    _ => return Err(format!("unsupported escape at offset {}", *pos)),
                },
                _ if b < 0x80 => out.push(b as char),
                _ => return Err(format!("non-ASCII profile byte at offset {}", *pos)),
            }
        }
        Err("unterminated string".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_params_reproduce_historical_msm_dispatch() {
        let p = MsmParams::STATIC;
        for n in [1usize, 63, 512, 4095] {
            assert_eq!(msm_decision(&p, n), MsmDecision::Fallback, "n={n}");
        }
        for n in [4096usize, 8192, 1 << 16] {
            let d = msm_decision(&p, n);
            let expect = signed_window_size(n, default_num_chunks(n));
            assert_eq!(
                d,
                MsmDecision::Affine {
                    chunks: default_num_chunks(n),
                    window: expect
                },
                "n={n}"
            );
        }
    }

    #[test]
    fn window_overrides_steer_the_decision() {
        let mut p = MsmParams::STATIC;
        p.set_affine(11, true);
        p.set_window(11, 7);
        match msm_decision(&p, 3000) {
            MsmDecision::Affine { window: 7, .. } => {}
            other => panic!("expected affine c7, got {other}"),
        }
        p.set_window(11, 0);
        match msm_decision(&p, 3000) {
            MsmDecision::Affine { window, .. } => {
                assert_eq!(window, signed_window_size(3000, default_num_chunks(3000)));
            }
            other => panic!("expected cost-model affine, got {other}"),
        }
    }

    #[test]
    fn profile_json_round_trips() {
        let mut profile = TuneProfile::static_profile();
        profile.msm.set_affine(11, true);
        profile.msm.set_window(11, 7);
        profile.msm.set_window(14, 10);
        profile.fft.set_parallel(18, false);
        profile.probes.push(ProbePoint {
            kernel: "msm".into(),
            log2: 11,
            choice: "affine:c7".into(),
            median_us: 2311,
        });
        let json = profile.to_json();
        let back = TuneProfile::from_json(&json).expect("round trip");
        assert_eq!(back, profile);
    }

    #[test]
    fn future_version_is_a_version_error_not_a_parse_error() {
        let mut profile = TuneProfile::static_profile();
        profile.version = PROFILE_VERSION + 1;
        // Serialise with the future stamp but the current schema body.
        let json = profile.to_json();
        match TuneProfile::from_json(&json) {
            Err(ProfileError::Version { found }) => assert_eq!(found, PROFILE_VERSION + 1),
            other => panic!("expected version error, got {other:?}"),
        }
        assert!(matches!(
            TuneProfile::from_json("{\"version\": 1, \"cores\": []}"),
            Err(ProfileError::Parse(_))
        ));
        assert!(matches!(
            TuneProfile::from_json("not json at all"),
            Err(ProfileError::Parse(_))
        ));
    }

    #[test]
    fn activate_restores_cleanly() {
        let mut profile = TuneProfile::static_profile();
        profile.msm.set_affine(10, true);
        profile.msm.set_window(10, 5);
        profile.fft.set_parallel(10, true);
        let previous = activate(&profile);
        assert_eq!(msm_params(), profile.msm);
        assert_eq!(zkvc_ff::tune::fft_params(), profile.fft);
        restore(previous);
    }

    #[test]
    fn quick_calibration_produces_a_valid_profile() {
        let profile = calibrate(&ProbeConfig {
            msm_logs: vec![6, 7],
            fft_logs: vec![6, 8],
            reps: 1,
            seed: 1,
        });
        assert_eq!(profile.version, PROFILE_VERSION);
        assert!(profile.cores >= 1);
        // Every probed class is recorded.
        assert_eq!(profile.probes.len(), 4);
        // The document round-trips.
        let back = TuneProfile::from_json(&profile.to_json()).expect("round trip");
        assert_eq!(back, profile);
        // On a single-core host the FFT must be pinned serial everywhere
        // probed (and the decision table honours the threads gate anyway).
        if profile.cores == 1 {
            assert!(profile
                .probes
                .iter()
                .filter(|p| p.kernel == "fft")
                .all(|p| p.choice == "serial"));
        }
    }
}
