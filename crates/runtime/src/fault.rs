//! Seeded fault injection for chaos testing the serving stack.
//!
//! A *fault point* is a named place in the code that can misbehave on
//! demand: the socket stream can return an IO error, stall, or deliver a
//! short read; a pool worker thread can panic the instant it picks a job
//! up. Production code calls the check functions here at those places;
//! with no schedule armed the check is two atomic loads and injects
//! nothing — faults are a test-only input, never a deployment knob.
//!
//! ## Arming a schedule
//!
//! A schedule is read **once per process** from the `ZKVC_FAULTS`
//! environment variable, at the first fault-point check:
//!
//! ```text
//! ZKVC_FAULTS="seed=42;net.read.io_error=0.05;net.write.delay=0.1@20;pool.pickup.panic=0.02"
//! ```
//!
//! `seed=N` seeds the decision stream; every other entry is
//! `point=probability[@param]`, where `param` carries a per-point knob
//! (delay milliseconds). Decisions are **deterministic**: whether the
//! n-th arrival at a point fires depends only on `(seed, point, n)`, so a
//! chaos run is reproducible by pinning the seed — same schedule, same
//! faults, in the same places. Every fired fault logs one
//! `zkvc-fault: ...` line to stderr, which is the chaos log CI archives.
//!
//! ## Named fault points
//!
//! | point                | effect where checked                          |
//! |----------------------|-----------------------------------------------|
//! | `net.read.io_error`  | stream read fails with `ConnectionReset`      |
//! | `net.read.short`     | stream read is truncated to one byte          |
//! | `net.read.delay`     | stream read stalls `param` ms first           |
//! | `net.write.io_error` | stream write fails with `BrokenPipe`          |
//! | `net.write.delay`    | stream write stalls `param` ms first          |
//! | `pool.pickup.panic`  | job body panics at pickup (contained)         |
//!
//! A schedule naming any other point is malformed: a misspelt point
//! would otherwise arm nothing, silently.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// Environment variable holding the fault schedule; read once per
/// process at the first fault-point check (changes after that are
/// ignored).
pub const ENV_VAR: &str = "ZKVC_FAULTS";

/// The fault points a schedule may name: the rows of the module-doc
/// table, in its order (`points_are_the_module_doc_table` keeps the two
/// equal).
const POINTS: [&str; 6] = [
    "net.read.io_error",
    "net.read.short",
    "net.read.delay",
    "net.write.io_error",
    "net.write.delay",
    "pool.pickup.panic",
];

struct Rule {
    prob: f64,
    param: u64,
    /// Arrivals seen at this point so far (the `n` in the decision).
    count: AtomicU64,
}

struct Schedule {
    seed: u64,
    rules: HashMap<String, Rule>,
}

/// 0 = not yet initialised, 1 = disarmed, 2 = armed.
static STATE: AtomicU8 = AtomicU8::new(0);
static SCHEDULE: OnceLock<Schedule> = OnceLock::new();

fn schedule() -> Option<&'static Schedule> {
    match STATE.load(Ordering::Acquire) {
        1 => None,
        2 => SCHEDULE.get(),
        _ => {
            let raw = std::env::var(ENV_VAR).ok().filter(|s| !s.trim().is_empty());
            match raw {
                Some(raw) => {
                    let parsed = parse_schedule(&raw)
                        .unwrap_or_else(|e| panic!("bad {ENV_VAR} fault schedule {raw:?}: {e}"));
                    let _ = SCHEDULE.set(parsed);
                    STATE.store(2, Ordering::Release);
                    SCHEDULE.get()
                }
                None => {
                    STATE.store(1, Ordering::Release);
                    None
                }
            }
        }
    }
}

/// Validates any armed [`ENV_VAR`] schedule **eagerly**, returning the
/// parse error the first lazy fault-point check would otherwise panic
/// with mid-flight. The CLI calls this at startup so a typo'd schedule
/// is a clear usage error before any work begins, instead of a panic
/// deep inside a worker thread.
pub fn validate_env() -> Result<(), String> {
    match std::env::var(ENV_VAR).ok().filter(|s| !s.trim().is_empty()) {
        Some(raw) => parse_schedule(&raw)
            .map(|_| ())
            .map_err(|e| format!("bad {ENV_VAR} fault schedule {raw:?}: {e}")),
        None => Ok(()),
    }
}

fn parse_schedule(raw: &str) -> Result<Schedule, String> {
    let mut seed = 0u64;
    let mut rules = HashMap::new();
    for entry in raw.split([';', ',']).filter(|e| !e.trim().is_empty()) {
        let (key, value) = entry
            .trim()
            .split_once('=')
            .ok_or_else(|| format!("entry {entry:?} is not key=value"))?;
        if key == "seed" {
            seed = value
                .parse::<u64>()
                .map_err(|_| format!("bad seed {value:?}"))?;
            continue;
        }
        if !POINTS.contains(&key) {
            return Err(format!(
                "unknown fault point {key:?} (expected one of {})",
                POINTS.join(", ")
            ));
        }
        let (prob_str, param_str) = match value.split_once('@') {
            Some((p, m)) => (p, Some(m)),
            None => (value, None),
        };
        let prob = prob_str
            .parse::<f64>()
            .ok()
            .filter(|p| (0.0..=1.0).contains(p))
            .ok_or_else(|| format!("bad probability {prob_str:?} for {key:?} (want 0..=1)"))?;
        let param = match param_str {
            Some(m) => m
                .parse::<u64>()
                .map_err(|_| format!("bad param {m:?} for {key:?}"))?,
            None => 0,
        };
        rules.insert(
            key.to_string(),
            Rule {
                prob,
                param,
                count: AtomicU64::new(0),
            },
        );
    }
    Ok(Schedule { seed, rules })
}

/// Deterministic per-arrival decision: splitmix64 over
/// `(seed, point, n)`, compared against `prob` in `[0, 1)`.
fn decides(seed: u64, point: &str, n: u64, prob: f64) -> bool {
    let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a over the point name
    for b in point.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    let mut x = seed ^ h ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    ((x >> 11) as f64 / (1u64 << 53) as f64) < prob
}

/// `true` once a fault schedule has been armed in this process.
pub fn armed() -> bool {
    schedule().is_some()
}

/// Checks fault point `point` against the armed schedule: returns the
/// rule's `param` when this arrival fires, `None` when the point is not
/// scheduled, loses its roll, or no schedule is armed (the fast path).
/// Every fired fault logs one `zkvc-fault:` line to stderr.
pub fn fires(point: &str) -> Option<u64> {
    let sched = schedule()?;
    let rule = sched.rules.get(point)?;
    let n = rule.count.fetch_add(1, Ordering::Relaxed);
    if !decides(sched.seed, point, n, rule.prob) {
        return None;
    }
    eprintln!("zkvc-fault: {point} fired (arrival {n}, p={})", rule.prob);
    Some(rule.param)
}

/// Panics with an `injected fault:` message when `point` fires. Used at
/// places whose containment path is a `catch_unwind` (worker pickup).
pub fn fire_panic(point: &str) {
    if fires(point).is_some() {
        panic!("injected fault: {point}");
    }
}

/// Sleeps for the rule's `param` milliseconds when `point` fires.
pub fn fire_delay(point: &str) {
    if let Some(ms) = fires(point) {
        std::thread::sleep(Duration::from_millis(ms));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_env_rejects_what_parse_rejects() {
        // Parse-level check (no env mutation: the lazy schedule() memo
        // makes env races between tests unrecoverable). The env-level
        // path is exercised end-to-end through the `zkvc` binary in
        // `tests/analyze.rs`.
        assert!(parse_schedule("seed=oops").is_err());
        assert!(parse_schedule("net.read.io_error=2.0").is_err());
        assert!(parse_schedule("just-a-word").is_err());
        assert!(parse_schedule("seed=1;net.read.io_error=0.5").is_ok());
    }

    #[test]
    fn parses_a_full_schedule() {
        let s = parse_schedule("seed=42;net.read.io_error=0.25;net.write.delay=0.5@20").unwrap();
        assert_eq!(s.seed, 42);
        assert_eq!(s.rules.len(), 2);
        let delay = &s.rules["net.write.delay"];
        assert!((delay.prob - 0.5).abs() < 1e-12);
        assert_eq!(delay.param, 20);
        assert_eq!(s.rules["net.read.io_error"].param, 0);
    }

    #[test]
    fn rejects_malformed_schedules() {
        for bad in [
            "nope",
            "net.read.short=2.0",
            "net.read.short=x",
            "seed=abc",
            "net.read.delay=0.5@ms",
            "net.read.shrot=0.5",
            "pool.prove.delay=1@60",
        ] {
            assert!(parse_schedule(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn points_are_the_module_doc_table() {
        let table: Vec<&str> = include_str!("fault.rs")
            .lines()
            .filter_map(|line| line.strip_prefix("//! | `"))
            .filter_map(|row| row.split_once('`').map(|(point, _)| point))
            .collect();
        assert_eq!(table, POINTS);
    }

    #[test]
    fn decisions_are_deterministic_and_track_probability() {
        let fired: Vec<bool> = (0..1000)
            .map(|n| decides(7, "net.read.short", n, 0.3))
            .collect();
        let again: Vec<bool> = (0..1000)
            .map(|n| decides(7, "net.read.short", n, 0.3))
            .collect();
        assert_eq!(fired, again, "same (seed, point, n) -> same decision");
        let hits = fired.iter().filter(|f| **f).count();
        assert!((150..450).contains(&hits), "~30% of 1000, got {hits}");
        // A different seed or point gives a different stream.
        let other: Vec<bool> = (0..1000)
            .map(|n| decides(8, "net.read.short", n, 0.3))
            .collect();
        assert_ne!(fired, other);
        assert!((0..1000).all(|n| !decides(7, "x", n, 0.0)));
        assert!((0..1000).all(|n| decides(7, "x", n, 1.0)));
    }

    #[test]
    fn unarmed_process_fires_nothing() {
        // The test binary does not arm ZKVC_FAULTS, so every check is the
        // disarmed fast path.
        assert!(fires("net.read.io_error").is_none());
        fire_panic("pool.pickup.panic"); // must not panic
        fire_delay("net.write.delay"); // must not sleep
    }
}
