//! End-to-end and per-layer benchmark of the ncss user paths.
//!
//! Four workloads, each a path a user runs through `ncss-cli`:
//! [`stream`](crate::stream) (`stream --synthetic N`),
//! `audited_record` (`stream --audit incremental` plus `record`),
//! [`fleet`](crate::fleet) (`fleet --check-serial 0`) and
//! [`offline`](crate::offline) (`compare`, then `replay --audit 1`).
//! The benchmark is a program of its own: it calls the public
//! functions of the workspace crates and changes none of them.
//!
//! A run measures for a fixed number of seconds and reports, for each timed
//! part, a percentile of its samples ([`metrics::part_estimate`]). The
//! untraced run gives the end-to-end metrics; the traced run (a separate
//! pass with the same seed) records a span around every call into the
//! program and gives the per-layer metrics. See `README.md` for every
//! metric, its unit, each workload's timed parts and the layer-to-part
//! mapping.

pub mod fleet;
pub mod host;
pub mod metrics;
pub mod offline;
pub mod span;
pub mod stream;

use metrics::{Percentile, Values};
use std::path::PathBuf;
use std::time::Instant;

/// The workloads, by name.
pub const WORKLOADS: &[&str] = &["stream", "audited_record", "fleet", "offline"];

/// Input sizes. [`Sizes::full`] is what the benchmark measures;
/// [`Sizes::smoke`] is the smallest run that still passes every gate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sizes {
    /// Releases per core in `stream`.
    pub stream_n: usize,
    /// Releases per core in `audited_record`.
    pub audited_n: usize,
    /// Fleet widths; each runs a C-PAR and an NC-PAR cell.
    pub fleet_ks: Vec<usize>,
    /// Jobs per `compare` instance in `offline`.
    pub compare_n: usize,
    /// Seeded `compare` instances in `offline`.
    pub compare_instances: usize,
    /// Releases in the `offline` replay trace.
    pub replay_n: usize,
    /// Times set-up is repeated to report its median.
    pub setup_reps: usize,
    /// Iterations measured even when the time is up.
    pub min_iters: usize,
}

impl Sizes {
    /// The measured sizes.
    #[must_use]
    pub fn full() -> Self {
        Self {
            stream_n: 100_000,
            audited_n: 20_000,
            fleet_ks: vec![8, 4096],
            compare_n: 24,
            compare_instances: 32,
            replay_n: 10_000,
            setup_reps: 5,
            min_iters: 3,
        }
    }

    /// Minimal sizes for the smoke test.
    #[must_use]
    pub fn smoke() -> Self {
        Self {
            stream_n: 300,
            audited_n: 200,
            fleet_ks: vec![8],
            compare_n: 6,
            compare_instances: 2,
            replay_n: 200,
            setup_reps: 2,
            min_iters: 2,
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload seed; the same seed gives the same inputs.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Input sizes.
    pub sizes: Sizes,
    /// Directory for the files a run writes; removed by the caller.
    pub work_dir: PathBuf,
}

/// What a run found.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted: offers, fleet cells, algorithm runs, replays.
    pub attempted: u64,
    /// Operations that failed a gate.
    pub failed: u64,
    /// The first few gate failures, for the log.
    pub failures: Vec<String>,
    /// Metric values by name.
    pub values: Values,
    /// Deterministic outputs (objectives, counts, trace digests): the same
    /// seed must print the same lines.
    pub outputs: Vec<(String, String)>,
    /// The timed parts of the workload and their values in ms, in the order
    /// they were recorded; they sum to `iteration_ms`.
    pub parts: Vec<(String, f64)>,
    /// Tail percentiles behind the parts, for the log.
    pub tails: Vec<(String, Percentile)>,
}

impl Report {
    /// Count `n` operations, all failed if `gate` is an error.
    pub fn ops(&mut self, n: u64, gate: Result<(), String>) {
        self.attempted += n;
        if let Err(why) = gate {
            self.failed += n;
            if self.failures.len() < 16 {
                self.failures.push(why);
            }
        }
    }

    /// Fail `n` operations already counted as attempted, if `gate` is an
    /// error (a check made after the operations ran, such as determinism).
    pub fn recheck(&mut self, n: u64, gate: Result<(), String>) {
        if let Err(why) = gate {
            self.failed = (self.failed + n).min(self.attempted);
            if self.failures.len() < 16 {
                self.failures.push(why);
            }
        }
    }

    /// Record a metric value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Record one timed part of the workload from its per-iteration
    /// samples in ms: their [`metrics::part_estimate`] counts towards
    /// `iteration_ms`, and the part and its tail percentile go to the log.
    pub fn part(&mut self, name: &str, samples_ms: &[f64]) {
        self.part_value(
            name,
            metrics::part_estimate(samples_ms),
            metrics::tail(samples_ms, 99.0),
        );
    }

    /// Record a timed part whose value (ms) is already reduced, with the
    /// tail percentile of its per-iteration samples.
    pub fn part_value(&mut self, name: &str, ms: f64, tail: Percentile) {
        *self.values.entry("iteration_ms".to_string()).or_default() += ms;
        self.parts.push((name.to_string(), ms));
        self.tails.push((name.to_string(), tail));
    }

    /// Record a deterministic output.
    pub fn output(&mut self, name: impl Into<String>, value: impl Into<String>) {
        self.outputs.push((name.into(), value.into()));
    }

    /// `failed / attempted`.
    #[must_use]
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Fail with `msg` unless `cond`.
///
/// # Errors
/// The message, when the condition does not hold.
pub fn gate(cond: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(msg())
    }
}

/// Compare a value with the one the first iteration produced, so every
/// repetition of a run must give bitwise the same output.
///
/// # Errors
/// When `now` differs from the first value seen.
pub fn same_as_first<T: PartialEq + std::fmt::Debug>(
    first: &mut Option<T>,
    now: T,
    what: &str,
) -> Result<(), String> {
    match first {
        None => {
            *first = Some(now);
            Ok(())
        }
        Some(f) if *f == now => Ok(()),
        Some(f) => Err(format!("{what} is not deterministic: {f:?} then {now:?}")),
    }
}

/// Bits of an objective, for bitwise comparisons.
#[must_use]
pub fn objective_bits(o: &ncss_sim::Objective) -> [u64; 3] {
    [
        o.energy.to_bits(),
        o.frac_flow.to_bits(),
        o.int_flow.to_bits(),
    ]
}

/// Times a workload's set-up. Set-up runs `Sizes::setup_reps` times
/// before measuring and once more between measured iterations, so its
/// median covers the same stretch of time as the other metrics.
pub struct Setup<F> {
    build: F,
    times: Vec<f64>,
}

impl<F> Setup<F> {
    /// Run `build` `reps` times; returns its inputs and the timer. Every
    /// repetition must build the same inputs.
    ///
    /// # Errors
    /// When two repetitions disagree, or set-up itself fails.
    pub fn run<T: PartialEq>(reps: usize, mut build: F) -> Result<(T, Self), String>
    where
        F: FnMut() -> Result<T, String>,
    {
        let t0 = Instant::now();
        let kept = build()?;
        let mut timer = Self {
            build,
            times: vec![t0.elapsed().as_secs_f64()],
        };
        for _ in 1..reps {
            timer.again(&kept)?;
        }
        Ok((kept, timer))
    }

    /// Build once more, timed, and check the inputs did not change.
    ///
    /// # Errors
    /// When set-up fails or builds different inputs from one seed.
    pub fn again<T: PartialEq>(&mut self, kept: &T) -> Result<(), String>
    where
        F: FnMut() -> Result<T, String>,
    {
        let t0 = Instant::now();
        let value = (self.build)()?;
        self.times.push(t0.elapsed().as_secs_f64());
        gate(value == *kept, || {
            "set-up built different inputs from one seed".to_string()
        })
    }

    /// Median set-up time, seconds.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        metrics::median(&self.times)
    }
}

/// Call `f` until `seconds` have passed and at least `min_iters` calls
/// were made.
pub fn for_seconds(seconds: f64, min_iters: usize, mut f: impl FnMut()) {
    let t0 = Instant::now();
    let mut i = 0;
    while i < min_iters || t0.elapsed().as_secs_f64() < seconds {
        f();
        i += 1;
    }
}

/// Derive a sub-seed so that two inputs of one run are independent.
#[must_use]
pub fn subseed(seed: u64, salt: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt.wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// 64-bit FNV-1a digest, for trace bytes.
#[must_use]
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Run workload `name`.
///
/// # Errors
/// For an unknown workload, or when set-up fails (no input to measure).
pub fn run(name: &str, config: &Config) -> Result<Report, String> {
    std::fs::create_dir_all(&config.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", config.work_dir.display()))?;
    let mut report = match name {
        "stream" => stream::run_stream(config),
        "audited_record" => stream::run_audited(config),
        "fleet" => fleet::run(config),
        "offline" => offline::run(config),
        other => {
            return Err(format!(
                "unknown workload '{other}' (one of {})",
                WORKLOADS.join(", ")
            ))
        }
    }?;
    if !config.trace {
        report.set("peak_rss_mib", host::peak_rss_mib());
    }
    Ok(report)
}

/// The metrics a run prints, in declared order: every end-to-end metric
/// (untraced) or every per-layer metric (traced).
#[must_use]
pub fn printed_metrics(report: &Report, trace: bool) -> Vec<(String, f64, &'static str)> {
    if trace {
        metrics::per_layer()
            .into_iter()
            .map(|(name, unit)| {
                // `+ 0.0` prints an empty float sum (-0.0) as 0.
                let v = report.values.get(&name).copied().unwrap_or(0.0) + 0.0;
                (name, v, unit)
            })
            .collect()
    } else {
        metrics::END_TO_END
            .iter()
            .filter_map(|&(name, unit)| {
                report
                    .values
                    .get(name)
                    .map(|&v| (name.to_string(), v, unit))
            })
            .collect()
    }
}

/// Fold the traced passes into the report: medians of the per-layer
/// values plus the source and overhead figures.
pub fn finish_traced(
    report: &mut Report,
    per_pass: &[Values],
    source_ns_per_event: f64,
    plain_walls: &[f64],
    traced_walls: &[f64],
) {
    let mut values = metrics::median_by_name(per_pass);
    values.insert("bench.source_ns_per_event".into(), source_ns_per_event);
    values.insert(
        "bench.traced_overhead_share".into(),
        metrics::median(traced_walls) / metrics::median(plain_walls) - 1.0,
    );
    report.values.extend(values);
}
