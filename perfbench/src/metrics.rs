//! Metric names, units, percentiles and the result line.
//!
//! The end-to-end and per-layer metric lists here are the single source of
//! the names in `BENCHMARK.json`; a test holds the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`. Every workload reports every one:
/// `iteration_ms` is the sum of the workload's timed parts
/// (see `README.md` for the parts of each workload).
pub const END_TO_END: &[(&str, &str)] = &[
    ("iteration_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// The fleet cells, in the order they run: `(metric infix, k)`.
pub const CELLS: &[(&str, usize)] = &[
    ("c_par.k8", 8),
    ("nc_par.k8", 8),
    ("c_par.k4096", 4096),
    ("nc_par.k4096", 4096),
];

/// Names of the batch-audit checks whose per-check time is reported.
pub const BATCH_CHECKS: &[&str] = &[
    "segments-wellformed",
    "release-before-service",
    "volume-conservation",
    "completion-consistency",
    "completion-after-release",
    "energy-recomputed",
    "frac-flow-recomputed",
    "int-flow-recomputed",
    "reported-sums-consistent",
    "frac-dominated-by-int",
    "objective-finite",
];

/// Per-layer metrics reported by every traced run: `(name, unit)`. A layer
/// that a workload does not exercise reads 0 there.
#[must_use]
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("core.c_offer_ns.p50", "ns"),
        ("core.c_offer_ns.p99", "ns"),
        ("core.nc_offer_ns.p50", "ns"),
        ("core.nc_offer_ns.p99", "ns"),
        ("core.busy_share", "share"),
        ("core.segments_per_event", "count/event"),
        ("core.peak_active", "count"),
        ("core.nonuniform_ms", "ms"),
        ("core.nonuniform_steps", "count"),
        ("core.batch_runs_ms", "ms"),
        ("sim.spill_drain_ns_per_event", "ns/event"),
        ("sim.arena_slots", "count"),
        ("sim.spill_peak_resident", "count"),
        ("audit.on_release_ns.p50", "ns"),
        ("audit.on_segment_ns.p50", "ns"),
        ("audit.on_segment_ns.p99", "ns"),
        ("audit.on_complete_ns.p50", "ns"),
        ("audit.on_complete_ns.p99", "ns"),
        ("audit.finalize_ms", "ms"),
        ("audit.busy_share", "share"),
        ("audit.peak_active", "count"),
        ("audit.batch_ms", "ms"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for check in BATCH_CHECKS {
        out.push((format!("audit.batch_check_ms.{check}"), "ms"));
    }
    for (cell, _) in CELLS {
        out.push((format!("audit.fleet_ms.{cell}"), "ms"));
    }
    for (n, u) in [
        ("trace.append_ns.p50", "ns"),
        ("trace.append_ns.p99", "ns"),
        ("trace.checkpoint_ns.p50", "ns"),
        ("trace.bytes_per_event", "B/event"),
        ("trace.frames", "count"),
        ("trace.read_ms", "ms"),
        ("trace.replay_ms", "ms"),
        ("trace.checkpoints_verified", "count"),
    ] {
        out.push((n.to_string(), u));
    }
    for (cell, _) in CELLS {
        out.push((format!("multi.dispatch_ms.{cell}"), "ms"));
        out.push((format!("multi.replay_ms.{cell}"), "ms"));
        out.push((format!("multi.max_jobs_per_machine.{cell}"), "count"));
    }
    out.push(("pool.workers".to_string(), "count"));
    for (cell, _) in CELLS {
        out.push((format!("pool.replay_speedup.{cell}"), "ratio"));
    }
    for (n, u) in [
        ("opt.solve_ms", "ms"),
        ("opt.iterations", "count"),
        ("opt.gap", "ratio"),
        ("bench.source_ns_per_event", "ns/event"),
        ("bench.probe_ns", "ns"),
        ("bench.unattributed_share", "share"),
        ("bench.traced_overhead_share", "share"),
    ] {
        out.push((n.to_string(), u));
    }
    out
}

/// The metric-name rule: starts with a letter or digit, at most 64
/// characters, made only of letters, digits, `_`, `.` and `-`.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Median of `xs` (mean of the middle two for an even count); 0 when empty.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// The percentile a timed part reports when it has at least 10 samples. On
/// a shared host other tenants come and go over seconds: while they run, a
/// pass is slower but steady, and the share of a run they leave idle
/// differs from run to run. So a run's samples have two modes in varying
/// proportions; the median jumps between them, while the 90th percentile
/// stays in the usual, contended one.
pub const PART_PCT: f64 = 90.0;

/// What a timed part reports: the nearest-rank [`PART_PCT`] percentile of
/// `xs`, or their median when there are fewer than 10 (a part that slow
/// spans the host's phases within each sample); 0 when empty.
#[must_use]
pub fn part_estimate(xs: &[f64]) -> f64 {
    if xs.len() < 10 {
        return median(xs);
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((PART_PCT / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// A percentile read from a sample, with the support behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile actually reported (at most the one asked for).
    pub pct: f64,
    /// Its value (nearest rank).
    pub value: f64,
    /// Sample count.
    pub count: usize,
}

/// The percentile ladder the tail helper climbs.
const LADDER: &[f64] = &[50.0, 90.0, 99.0, 99.9, 99.99];

/// The highest percentile on the ladder, up to `want`, that has at least 10
/// samples beyond it, with the sample count. A sample too small for even
/// the median to have 10 beyond it reports the median. Empty samples read 0.
#[must_use]
pub fn tail(samples: &[f64], want: f64) -> Percentile {
    let count = samples.len();
    if count == 0 {
        return Percentile {
            pct: want.min(50.0),
            value: 0.0,
            count,
        };
    }
    let supported = |p: f64| (count as f64) * (1.0 - p / 100.0) >= 10.0 - 1e-9;
    let pct = LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| p <= want && supported(p))
        .unwrap_or(50.0);
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    // Nearest rank: the smallest value with at least pct% of the sample at
    // or below it.
    let rank = ((pct / 100.0) * count as f64).ceil() as usize;
    Percentile {
        pct,
        value: v[rank.clamp(1, count) - 1],
        count,
    }
}

/// Values keyed by metric name, in name order.
pub type Values = BTreeMap<String, f64>;

/// Median of each metric over several passes. A metric missing from some
/// passes takes the median of the passes that have it.
#[must_use]
pub fn median_by_name(passes: &[Values]) -> Values {
    let mut all: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for pass in passes {
        for (k, v) in pass {
            all.entry(k.clone()).or_default().push(*v);
        }
    }
    all.into_iter().map(|(k, v)| (k, median(&v))).collect()
}

/// Format a float as JSON: full precision, non-finite values as `null`.
#[must_use]
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// Quote a string as JSON.
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}` with
/// each metric as `{"value", "unit"}`.
#[must_use]
pub fn result_line(attempted: u64, failed: u64, metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_rule_accepts_and_rejects() {
        for ok in [
            "setup_s",
            "core.c_offer_ns.p99",
            "audit.batch_check_ms.energy-recomputed",
            "9lives",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/ed",
            "ümlaut",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"a".repeat(64)));
    }

    #[test]
    fn every_declared_metric_name_follows_the_rule() {
        let layer = per_layer();
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .chain(layer)
        {
            assert!(valid_name(&name), "{name}");
            assert!(seen.insert(name.clone()), "duplicate {name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{name}: {unit}");
        }
        assert!(seen.len() <= 128 + END_TO_END.len());
    }

    #[test]
    fn tail_reports_the_highest_supported_percentile() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // 1000 samples: p99 has exactly 10 beyond it, p99.9 only 1.
        let p = tail(&xs, 100.0);
        assert_eq!((p.pct, p.value, p.count), (99.0, 990.0, 1000));
        // Asking for less caps the answer.
        let p = tail(&xs, 90.0);
        assert_eq!((p.pct, p.value), (90.0, 900.0));
        // 999 samples cannot support p99; they fall back to p90.
        let p = tail(&xs[..999], 99.0);
        assert_eq!((p.pct, p.count), (90.0, 999));
        // 100 000 samples reach p99.99 when asked.
        let big: Vec<f64> = (1..=100_000).map(f64::from).collect();
        assert_eq!(tail(&big, 100.0).pct, 99.99);
        // Too few for anything reports the median; none reads 0.
        let p = tail(&[3.0, 1.0, 2.0], 99.0);
        assert_eq!((p.pct, p.value, p.count), (50.0, 2.0, 3));
        assert_eq!(tail(&[], 99.0).value, 0.0);
    }

    #[test]
    fn part_estimate_is_the_ninetieth_percentile_or_the_median() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(part_estimate(&xs), 90.0);
        assert_eq!(part_estimate(&xs[..25]), 98.0);
        assert_eq!(part_estimate(&xs[..10]), 99.0);
        assert_eq!(part_estimate(&[5.0, 3.0, 4.0]), 4.0);
        assert_eq!(part_estimate(&[]), 0.0);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_line(10, 0, &[("setup_s".into(), 0.25, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert!(result_line(3, 1, &[]).starts_with("{\"correct\": false"));
    }
}
