//! Spans around the calls a workload makes into the program's layers.
//!
//! A span holds a name, a start, an end and its parent. Spans stay in
//! memory until the pass ends and are then summarised. The name's prefix up
//! to the first `.` is its layer (`core`, `sim`, `audit`, `trace`, `multi`,
//! `opt`). Time outside every span is the benchmark's own, unattributed.
//!
//! Probe cost is calibrated from empty spans. `inner` is the duration an
//! empty span reports; `outer` is what one enter/exit pair costs its
//! surroundings. A span's corrected time is its duration minus `inner`;
//! its self time is that minus each child's corrected time and one `outer`
//! per child.

use std::collections::BTreeMap;
use std::time::Instant;

/// Marks "no parent".
const ROOT: u32 = u32::MAX;

/// One recorded span, in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Name; the prefix before the first `.` is the layer.
    pub name: &'static str,
    /// Start.
    pub start: u64,
    /// End.
    pub end: u64,
    /// Index of the enclosing span, or `u32::MAX`.
    pub parent: u32,
}

/// A probe a workload pass calls around each call into the program. The
/// untraced pass uses [`Off`], which compiles to nothing.
pub trait Probe {
    /// Open a span; returns its handle.
    fn enter(&mut self, name: &'static str) -> usize;
    /// Close the span `id`.
    fn exit(&mut self, id: usize);
}

/// Run `f` inside a span.
#[inline(always)]
pub fn leaf<P: Probe, R>(p: &mut P, name: &'static str, f: impl FnOnce() -> R) -> R {
    let id = p.enter(name);
    let r = f();
    p.exit(id);
    r
}

/// The untraced probe.
#[derive(Debug, Default, Clone, Copy)]
pub struct Off;

impl Probe for Off {
    #[inline(always)]
    fn enter(&mut self, _name: &'static str) -> usize {
        0
    }
    #[inline(always)]
    fn exit(&mut self, _id: usize) {}
}

/// Calibrated probe cost, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ProbeCost {
    /// Duration an empty span reports.
    pub inner: f64,
    /// Cost of one enter/exit pair to the code around it.
    pub outer: f64,
}

/// The recording probe.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer.
    #[must_use]
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    #[inline(always)]
    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The spans recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Calibrate the probe cost from `n` empty spans (median of 5 rounds).
    #[must_use]
    pub fn calibrate(n: usize) -> ProbeCost {
        let mut inner = Vec::new();
        let mut outer = Vec::new();
        for _ in 0..5 {
            let mut t = Tracer::new();
            t.spans.reserve(n);
            let t0 = Instant::now();
            for _ in 0..n {
                let id = t.enter("bench.empty");
                t.exit(id);
            }
            let wall = t0.elapsed().as_nanos() as f64;
            outer.push(wall / n as f64);
            let total: u64 = t.spans.iter().map(|s| s.end - s.start).sum();
            inner.push(total as f64 / n as f64);
        }
        ProbeCost {
            inner: crate::metrics::median(&inner),
            outer: crate::metrics::median(&outer),
        }
    }
}

impl Probe for Tracer {
    #[inline(always)]
    fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        self.stack.push(id as u32);
        self.spans.push(Span {
            name,
            start: 0,
            end: 0,
            parent,
        });
        // Read the clock last so the bookkeeping above is outside the span.
        let start = self.now();
        self.spans[id].start = start;
        id
    }

    #[inline(always)]
    fn exit(&mut self, id: usize) {
        let end = self.now();
        self.spans[id].end = end;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id as u32), "spans must close in order");
    }
}

/// Per-name totals of a set of spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameStats {
    /// Sum of corrected durations, ns.
    pub total_ns: f64,
    /// Sum of self times, ns.
    pub self_ns: f64,
    /// Corrected duration of each span, ns.
    pub durations: Vec<f64>,
}

/// Layer of a span name: the part before the first `.`.
#[must_use]
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Summary of one traced pass.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Totals by span name.
    pub by_name: BTreeMap<&'static str, NameStats>,
    /// Spans summarised.
    pub spans: usize,
    /// Probe cost used for the corrections.
    pub probe: ProbeCost,
}

impl Summary {
    /// Self time of every span in `spans`, probe-corrected.
    #[must_use]
    pub fn self_times(spans: &[Span], probe: ProbeCost) -> Vec<f64> {
        let corrected: Vec<f64> = spans
            .iter()
            .map(|s| (s.end - s.start) as f64 - probe.inner)
            .collect();
        let mut own = corrected.clone();
        for (i, s) in spans.iter().enumerate() {
            if s.parent != ROOT {
                own[s.parent as usize] -= corrected[i] + probe.outer;
            }
        }
        own.into_iter().map(|x| x.max(0.0)).collect()
    }

    /// Summarise `spans` with probe cost `probe`.
    #[must_use]
    pub fn of(spans: &[Span], probe: ProbeCost) -> Self {
        let own = Self::self_times(spans, probe);
        let mut by_name: BTreeMap<&'static str, NameStats> = BTreeMap::new();
        for (s, self_ns) in spans.iter().zip(own) {
            let e = by_name.entry(s.name).or_default();
            let d = ((s.end - s.start) as f64 - probe.inner).max(0.0);
            e.total_ns += d;
            e.self_ns += self_ns;
            e.durations.push(d);
        }
        Self {
            by_name,
            spans: spans.len(),
            probe,
        }
    }

    /// Corrected duration of every `name` span (empty when it never ran).
    #[must_use]
    pub fn durations(&self, name: &str) -> &[f64] {
        self.by_name.get(name).map_or(&[], |s| &s.durations)
    }

    /// Summed corrected duration of `name`, in ms.
    #[must_use]
    pub fn total_ms(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |s| s.total_ns / 1e6)
    }

    /// Summed self time of every span in `layer`, ns.
    #[must_use]
    pub fn layer_self_ns(&self, layer: &str) -> f64 {
        self.by_name
            .iter()
            .filter(|(n, _)| layer_of(n) == layer)
            .map(|(_, s)| s.self_ns)
            .sum()
    }

    /// Summed self time of every span, ns.
    #[must_use]
    pub fn attributed_ns(&self) -> f64 {
        self.by_name.values().map(|s| s.self_ns).sum()
    }

    /// A traced wall with the probes' own cost taken out.
    #[must_use]
    pub fn corrected_wall(&self, wall_ns: f64) -> f64 {
        (wall_ns - self.spans as f64 * self.probe.outer).max(1.0)
    }

    /// `1 − Σ layer self time / corrected wall`.
    #[must_use]
    pub fn unattributed_share(&self, wall_ns: f64) -> f64 {
        1.0 - self.attributed_ns() / self.corrected_wall(wall_ns)
    }

    /// Share of the corrected wall spent in `layer`'s own code.
    #[must_use]
    pub fn busy_share(&self, layer: &str, wall_ns: f64) -> f64 {
        self.layer_self_ns(layer) / self.corrected_wall(wall_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_probes() {
        // A parent at [0, 100] with children [10, 30] and [40, 70], one
        // grandchild [45, 55]; inner probe 2 ns, outer 5 ns.
        let spans = [
            span("bench.cell", 0, 100, ROOT),
            span("multi.dispatch", 10, 30, 0),
            span("multi.replay", 40, 70, 0),
            span("audit.fleet", 45, 55, 2),
        ];
        let probe = ProbeCost {
            inner: 2.0,
            outer: 5.0,
        };
        let own = Summary::self_times(&spans, probe);
        // Corrected: 98, 18, 28, 8.
        // Parent: 98 − (18 + 5) − (28 + 5) = 42; replay: 28 − (8 + 5) = 15.
        assert_eq!(own, vec![42.0, 18.0, 15.0, 8.0]);
        let s = Summary::of(&spans, probe);
        assert_eq!(s.total_ms("multi.replay"), 28.0e-6);
        assert_eq!(s.durations("multi.replay"), &[28.0]);
        assert_eq!(s.layer_self_ns("multi"), 33.0);
        assert_eq!(s.attributed_ns(), 83.0);
        // Wall 120 ns less 4 spans × 5 ns of probe = 100 ns; 83 attributed.
        assert!((s.unattributed_share(120.0) - 0.17).abs() < 1e-12);
        assert!((s.busy_share("audit", 120.0) - 0.08).abs() < 1e-12);
    }

    #[test]
    fn without_probe_cost_self_times_tile_the_root() {
        let spans = [
            span("bench.pass", 0, 50, ROOT),
            span("core.c_offer", 0, 20, 0),
            span("sim.spill_drain", 20, 50, 0),
        ];
        let own = Summary::self_times(&spans, ProbeCost::default());
        assert_eq!(own.iter().sum::<f64>(), 50.0);
        assert_eq!(own[0], 0.0);
    }

    #[test]
    fn tracer_records_nesting_and_empty_spans_are_cheap() {
        let mut t = Tracer::new();
        let a = t.enter("bench.outer");
        let b = t.enter("core.inner");
        t.exit(b);
        t.exit(a);
        let s = t.spans();
        assert_eq!(s[0].parent, ROOT);
        assert_eq!(s[1].parent, 0);
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
        let probe = Tracer::calibrate(2000);
        assert!(
            probe.inner >= 0.0 && probe.outer >= probe.inner,
            "{probe:?}"
        );
        assert!(probe.outer < 100_000.0, "{probe:?}");
    }

    #[test]
    fn layer_is_the_first_component() {
        assert_eq!(layer_of("audit.on_segment"), "audit");
        assert_eq!(layer_of("core"), "core");
    }
}
