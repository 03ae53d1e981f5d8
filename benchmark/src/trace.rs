//! In-memory spans recorded around the calls the benchmark makes into
//! each layer. Nothing inside the crates is instrumented: a span is opened
//! and closed here, in benchmark code, and the per-layer metrics are read
//! back from the span list, so there is one set of timings.
//!
//! The real call (`prove_assignment`, `verify`, a socket round trip) is
//! the parent span. Kernel replays (the MSMs, `compute_h`, sum-checks...)
//! run right after it on the same inputs and are attached as its
//! children, so a child starts after its parent ends; a parent's self
//! time is its duration minus the sum of its children's durations.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

pub type SpanId = u32;

#[derive(Clone, Debug)]
pub struct Span {
    pub job: u64,
    pub id: SpanId,
    pub name: &'static str,
    pub parent: Option<SpanId>,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records when `enabled`; a disabled tracer keeps the
    /// call sites identical and stores nothing.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Tracer {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Records a span whose interval was measured (or reported) elsewhere.
    pub fn push(
        &mut self,
        job: u64,
        name: &'static str,
        parent: Option<SpanId>,
        start_us: f64,
        end_us: f64,
    ) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as SpanId;
        self.spans.push(Span {
            job,
            id,
            name,
            parent,
            start_us,
            end_us,
        });
        id
    }

    /// Records `phases` (name, duration in µs) end to end from `start_us`
    /// as children of `parent`: how a pool's own account of a job
    /// (queue, build, prove, verify) is laid under the round trip.
    pub fn push_sequence(
        &mut self,
        job: u64,
        parent: SpanId,
        start_us: f64,
        phases: [(&'static str, f64); 4],
    ) {
        let mut at = start_us;
        for (name, us) in phases {
            self.push(job, name, Some(parent), at, at + us);
            at += us;
        }
    }

    pub fn open(&mut self, job: u64, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = self.now_us();
        self.push(job, name, parent, now, now)
    }

    pub fn close(&mut self, id: SpanId) {
        if self.enabled {
            self.spans[id as usize].end_us = self.now_us();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        job: u64,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let id = self.open(job, name, parent);
        let out = f();
        self.close(id);
        (out, id)
    }

    /// Moves another thread's spans in, keeping ids unique.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += offset;
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// `(duration, self time)` in milliseconds of every span called
    /// `parent`: self time is what its children do not account for.
    fn self_times(&self, parent: &str) -> Vec<(f64, f64)> {
        self.spans
            .iter()
            .filter(|s| s.name == parent)
            .map(|p| {
                let children: f64 = self
                    .spans
                    .iter()
                    .filter(|c| c.parent == Some(p.id))
                    .map(Span::ms)
                    .sum();
                (p.ms(), p.ms() - children)
            })
            .collect()
    }

    pub fn self_times_ms(&self, parent: &str) -> Vec<f64> {
        self.self_times(parent)
            .into_iter()
            .map(|(_, own)| own)
            .collect()
    }

    /// For each span called `parent`: the share of its duration that its
    /// children do not account for.
    pub fn unattributed_shares(&self, parent: &str) -> Vec<f64> {
        self.self_times(parent)
            .into_iter()
            .filter(|(total, _)| *total > 0.0)
            .map(|(total, own)| own / total)
            .collect()
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"job\":{},\"id\":{},\"name\":\"{}\",\"parent\":{},\"start_us\":{:.1},\"end_us\":{:.1}}}",
                s.job, s.id, s.name, parent, s.start_us, s.end_us
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_account_for_their_parent() {
        let mut t = Tracer::new(true, Instant::now());
        let p = t.push(1, "parent", None, 0.0, 1000.0);
        t.push(1, "child", Some(p), 1000.0, 1600.0);
        t.push(1, "child", Some(p), 1600.0, 1900.0);
        assert_eq!(t.durations_ms("child"), vec![0.6, 0.3]);
        let shares = t.unattributed_shares("parent");
        assert!((shares[0] - 0.1).abs() < 1e-9);

        let mut other = Tracer::new(true, Instant::now());
        let q = other.push(2, "parent", None, 0.0, 10.0);
        other.push(2, "child", Some(q), 10.0, 20.0);
        t.absorb(other);
        assert_eq!(t.unattributed_shares("parent").len(), 2);
        assert!(t.unattributed_shares("parent")[1].abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_stores_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let (v, _) = t.span(0, "x", None, || 7);
        assert_eq!(v, 7);
        assert!(t.durations_ms("x").is_empty());
    }
}
