//! Spans and counts recorded by the benchmark around each call into a
//! crate's public API, and their roll-up into per-layer metrics.
//!
//! Nothing here reaches inside the program: a span starts just before
//! the benchmark calls a public function and ends when it returns. Spans
//! stay in memory until the run ends. A disabled tracer reads no clock.

use std::collections::BTreeMap;
use std::time::Instant;

/// Name of the root span the benchmark opens around each op.
pub const OP: &str = "op";

/// One timed interval, in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<crate>.<function>` for a call into a crate, [`OP`] for an op.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Op the span belongs to.
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The crate a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// In-memory span and count recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            counts: BTreeMap::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one. `None` when disabled.
    pub fn begin(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        Some(idx)
    }

    /// Close `id` and any span left open inside it (a call that
    /// panicked never reached its own `end`).
    pub fn end(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        let end_ns = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end_ns;
            if top == id {
                break;
            }
        }
    }

    /// Time `f` as one call into a crate.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Open the root span of op `op`.
    pub fn begin_op(&mut self, op: u64) -> Option<usize> {
        self.op = op;
        self.begin(OP)
    }

    /// Add `v` to the count `name` (a work count read from a result
    /// struct or a telemetry counter at the same call boundary).
    pub fn count(&mut self, name: &'static str, v: f64) {
        if self.on {
            *self.counts.entry(name).or_insert(0.0) += v;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn counts(&self) -> &BTreeMap<&'static str, f64> {
        &self.counts
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of it that its
/// direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.duration_ns() - covered_ns(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Per-layer totals of one traced run.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Rollup {
    /// Σ duration of the root op spans: the traced wall time.
    pub wall_ns: u64,
    /// Self time per layer (`op` is the benchmark's own code).
    pub self_ns: BTreeMap<&'static str, u64>,
    /// `(calls, Σ duration)` per span name.
    pub calls: BTreeMap<&'static str, (u64, u64)>,
}

impl Rollup {
    pub fn of(spans: &[Span]) -> Rollup {
        let mut r = Rollup::default();
        for (s, self_ns) in spans.iter().zip(self_times(spans)) {
            if s.parent.is_none() {
                r.wall_ns += s.duration_ns();
            }
            *r.self_ns.entry(s.layer()).or_insert(0) += self_ns;
            let c = r.calls.entry(s.name).or_insert((0, 0));
            c.0 += 1;
            c.1 += s.duration_ns();
        }
        r
    }

    /// Self time of `layer` over traced wall time.
    pub fn share(&self, layer: &str) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.self_ns.get(layer).copied().unwrap_or(0) as f64 / self.wall_ns as f64
    }

    /// 1 − Σ share of every crate layer: the wall time no crate span
    /// accounts for (the benchmark's own glue inside each op).
    pub fn unattributed_frac(&self) -> f64 {
        let attributed: f64 = self
            .self_ns
            .keys()
            .filter(|&&l| l != OP)
            .map(|l| self.share(l))
            .sum();
        1.0 - attributed
    }

    pub fn calls(&self, name: &str) -> u64 {
        self.calls.get(name).map_or(0, |c| c.0)
    }

    pub fn total_ns(&self, name: &str) -> u64 {
        self.calls.get(name).map_or(0, |c| c.1)
    }

    /// Mean milliseconds per call of `name`; 0 if never called.
    pub fn mean_ms(&self, name: &str) -> f64 {
        match self.calls(name) {
            0 => 0.0,
            n => self.total_ns(name) as f64 / n as f64 / 1e6,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op [0,100) ⊃ bt [10,50) ⊃ sim [20,30); op ⊃ catalog [60,90).
        let spans = vec![
            span(OP, 0, 100, None),
            span("swarm-bt.run", 10, 50, Some(0)),
            span("swarm-sim.run", 20, 30, Some(1)),
            span("swarm-catalog.run_catalog", 60, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 10, 30]);
        let r = Rollup::of(&spans);
        assert_eq!(r.wall_ns, 100);
        assert_eq!(r.self_ns[OP], 30);
        assert!((r.share("swarm-bt") - 0.3).abs() < 1e-12);
        assert!((r.unattributed_frac() - 0.3).abs() < 1e-12);
        // Shares and the unattributed part account for the wall time.
        let total: f64 = ["swarm-bt", "swarm-sim", "swarm-catalog"]
            .iter()
            .map(|l| r.share(l))
            .sum::<f64>()
            + r.unattributed_frac();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(r.mean_ms("swarm-bt.run"), 40.0 / 1e6);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span(OP, 0, 100, None),
            span("a.x", 10, 40, Some(0)),
            span("a.y", 30, 60, Some(0)),
            span("a.z", 90, 120, Some(0)),
        ];
        // Children cover [10,60) and [90,100) inside the parent.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn end_closes_spans_left_open_by_a_panic() {
        let mut t = Tracer::new(true);
        let op = t.begin_op(7);
        let _inner = t.begin("swarm-bt.run");
        t.end(op);
        assert!(t
            .spans()
            .iter()
            .all(|s| s.end_ns >= s.start_ns && s.op == 7));
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.begin("x").is_some_and(|i| t.spans()[i].parent.is_none()));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin_op(1);
        assert_eq!(t.call("swarm-bt.run", || 3), 3);
        t.count("swarm-bt.ticks", 5.0);
        t.end(id);
        assert!(t.spans().is_empty() && t.counts().is_empty());
    }
}
