//! The auditor: event-level invariants plus quadrature re-derivation.
//!
//! The derivation helpers in this module are shared with the
//! multi-machine pass in [`crate::multi_audit`]: both re-derive per-job
//! volumes, completions, and objective components from nothing but the
//! pointwise speed curves, they just differ in where the segments come
//! from (one timeline vs. one per machine).

use crate::closed_form;
use crate::quad::integrate;
use crate::report::{AuditReport, Stopwatch};
use ncss_pool::Pool;
use ncss_sim::{Evaluated, Instance, Objective, PerJob, PowerLaw, Schedule, Segment, SegmentIndex};

/// Tunable audit tolerances and sharding policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuditConfig {
    /// Tolerance on the scale-free residuals (`|x − ref| / (1 + |ref|)`)
    /// of the recomputed objective components, per-job volumes, and
    /// completion times.
    pub rel_tol: f64,
    /// Slack allowed on event-level time comparisons (overlap,
    /// release-before-service), per unit of schedule horizon; see
    /// [`AuditConfig::time_slack`].
    pub time_tol: f64,
    /// Worker count for the re-derivation fan-out: `None` sizes to the
    /// machine ([`Pool::auto`]), `Some(k)` forces exactly `k` workers.
    /// Serial (`Some(1)`) and parallel audits produce identical verdicts
    /// and residuals — the pool preserves order, every per-item sum is
    /// reduced serially, and tolerances are therefore unchanged under
    /// sharding (DESIGN.md §8).
    pub threads: Option<usize>,
    /// Quadrature cross-check stride for the closed-form fast path: every
    /// `stride`-th integral (by deterministic index, so serial == parallel)
    /// is still measured by tanh-sinh quadrature of the pointwise curve
    /// and folded into the *same* check, so a shared algebra error between
    /// the simulators and [`crate::closed_form`] cannot certify itself.
    /// `1` re-measures everything (the pre-fast-path behaviour); `0`
    /// disables the cross-check tier entirely.
    pub cross_check_stride: usize,
}

impl Default for AuditConfig {
    fn default() -> Self {
        Self { rel_tol: 1e-6, time_tol: 1e-9, threads: None, cross_check_stride: 8 }
    }
}

/// Whether index `i` falls on the quadrature cross-check tier.
pub(crate) fn sampled(stride: usize, i: usize) -> bool {
    stride > 0 && i % stride == 0
}

impl AuditConfig {
    /// The worker pool this configuration implies.
    #[must_use]
    pub fn pool(&self) -> Pool {
        self.threads.map_or_else(Pool::auto, Pool::with_threads)
    }

    /// The slack on time comparisons for a schedule ending at `horizon`:
    /// `time_tol · (1 + |horizon|)` at or above magnitude 1, and
    /// `time_tol · 2|horizon|` below it, the same shape as the dispatchers'
    /// tie slack. Every auditor, batch and incremental, judges its
    /// time-axis checks against this one floor. Below magnitude 1 it is
    /// relative, so a rescaled schedule's overlap cannot hide under it;
    /// at or above 1 it is the absolute floor it always was.
    ///
    /// ```
    /// use ncss_audit::AuditConfig;
    /// let config = AuditConfig::default();
    /// assert_eq!(config.time_slack(3.0), 1e-9 * 4.0);
    /// assert_eq!(config.time_slack(1e-30), 1e-9 * 2e-30);
    /// ```
    #[must_use]
    pub fn time_slack(&self, horizon: f64) -> f64 {
        let h = horizon.abs();
        self.time_tol * (h + h.min(1.0))
    }
}

/// Independent invariant checker for finished runs.
///
/// See the crate docs for the invariant list; construct with a custom
/// [`AuditConfig`] to loosen tolerances for step-integrated algorithms
/// (the non-uniform NC simulation is accurate to its integration step, not
/// to machine precision).
#[derive(Debug, Clone, Copy, Default)]
pub struct ScheduleAudit {
    config: AuditConfig,
}

/// How far short of its volume a job's delivered volume may stop and still
/// count as complete when the auditors re-derive its completion:
/// `1e-9 · (1 + volume)` at or above volume 1, and `1e-9 · 2·volume` below
/// it — the shape of [`AuditConfig::time_slack`]. Relative below 1, so a
/// 1e-8-volume job is not declared complete a tenth of its volume early;
/// jobs whose crossing underflows altogether (1e-150 scales) fall through
/// to the delivered-volume fallback of the re-derivation.
pub(crate) fn completion_margin(volume: f64) -> f64 {
    let v = volume.abs();
    1e-9 * (v + v.min(1.0))
}

/// Scale-free residual: relative for large magnitudes, absolute near zero.
pub(crate) fn residual(x: f64, reference: f64) -> f64 {
    (x - reference).abs() / (1.0 + reference.abs())
}

/// Worst violation of "finite, positively oriented, monotone,
/// non-overlapping" over one machine's segment list, with the offending
/// segment named. (`Schedule::new` enforces this too; the audit re-derives
/// it so a constructor regression cannot hide.)
pub(crate) fn wellformed_residual(segments: &[Segment]) -> (f64, String) {
    let mut worst = 0.0f64;
    let mut detail = String::from("all segments ordered");
    let mut prev_end = f64::NEG_INFINITY;
    for (i, s) in segments.iter().enumerate() {
        let bad_times = !(s.start.is_finite() && s.end.is_finite() && s.scale.is_finite());
        let inversion = s.start - s.end; // > 0 means reversed
        let overlap = if prev_end.is_finite() { prev_end - s.start } else { 0.0 };
        let v = if bad_times { f64::INFINITY } else { inversion.max(overlap).max(0.0) };
        if v > worst {
            worst = v;
            detail = format!("segment {i}: [{:.6}, {:.6}]", s.start, s.end);
        }
        prev_end = prev_end.max(s.end);
    }
    (worst, detail)
}

/// Worst "served before release" violation over one machine's segments.
/// A segment naming a job outside the instance counts as an infinite
/// violation.
pub(crate) fn release_residual(instance: &Instance, segments: &[Segment]) -> (f64, String) {
    let n = instance.len();
    let mut worst = 0.0f64;
    let mut detail = String::from("no early service");
    for (i, s) in segments.iter().enumerate() {
        let Some(j) = s.job else { continue };
        if j >= n {
            return (f64::INFINITY, format!("segment {i} serves unknown job {j}"));
        }
        let early = instance.job(j).release - s.start;
        if early > worst {
            worst = early;
            detail = format!("job {j} served {early:.3e} before release (segment {i})");
        }
    }
    (worst, detail)
}

/// Measurement resolution of a set of timelines: a job's service is
/// representable only if its duration `V_j / s` exceeds one ulp of the
/// time axis. With mixed magnitudes (1e±150 faults) a normal-size job
/// served at speed ~1e74 finishes in ~1e-74 — far below `ulp(horizon)` —
/// so it legitimately leaves no segment behind. Any volume below
/// `peak_speed · horizon · ε` is therefore unmeasurable by *any* observer
/// of these schedules, auditor included.
pub(crate) fn measurement_resolution<'a>(
    pl: PowerLaw,
    timelines: impl Iterator<Item = &'a [Segment]>,
    horizon: f64,
) -> f64 {
    let peak_speed = timelines
        .flat_map(|segs| segs.iter().flat_map(|s| [s.speed_at(pl, s.start), s.speed_at(pl, s.end)]))
        .fold(0.0f64, f64::max);
    peak_speed * horizon.abs() * f64::EPSILON * 64.0
}

/// Re-derive per-job delivered volumes and completion times from the
/// serving segments alone. `by_job[j]` must hold job `j`'s serving
/// segments in increasing start order (across machines, in the multi
/// case). Per-segment volumes come from the audit's own closed forms
/// ([`crate::closed_form`]) with every `stride`-th integral re-measured by
/// tanh-sinh quadrature (the cross-check tier); the completion crossing is
/// located by binary search over a prefix-sum [`SegmentIndex`] and
/// inverted analytically inside the crossing segment. Jobs are
/// independent, so the derivation fans out over `pool` — the per-job
/// arithmetic is untouched, so any worker count gives the same
/// `(delivered, completions)` bit for bit. Returns
/// `(delivered, completions)`.
pub(crate) fn derive_per_job(
    pool: Pool,
    pl: PowerLaw,
    instance: &Instance,
    by_job: &[Vec<Segment>],
    reported_completion: &[f64],
    rel_tol: f64,
    resolution: f64,
    stride: usize,
) -> (Vec<f64>, Vec<f64>) {
    let speed_of = |s: &Segment| {
        let s = *s; // Segment is Copy; detach from the borrow
        move |t: f64| s.speed_at(pl, t)
    };
    let jobs: Vec<usize> = (0..instance.len()).collect();
    let derived: Vec<(f64, f64)> = pool.map(&jobs, |&j| {
        let segs = &by_job[j];
        let volume = instance.job(j).volume;
        // Closed-form per-segment volumes; the `(j + i)`-indexed sampling
        // spreads the quadrature tier across jobs and is a pure function
        // of position, so serial and parallel audits sample identically.
        let dvs: Vec<f64> = segs
            .iter()
            .enumerate()
            .map(|(i, s)| {
                if sampled(stride, j + i) {
                    integrate(speed_of(s), s.start, s.end)
                } else {
                    closed_form::volume(pl, s)
                }
            })
            .collect();
        let index = SegmentIndex::from_volumes(segs, dvs.iter().copied());
        // First segment in which the cumulative volume reaches the job
        // size (less the completion margin): binary search over the prefix
        // sums.
        let margin = completion_margin(volume);
        let mut completion = f64::NAN;
        let i = index.first_reaching(volume - margin);
        if let Some(s) = segs.get(i) {
            let target = (volume - index.volume_before(i)).min(dvs[i]).max(0.0);
            if dvs[i] - target <= margin {
                // The job's remaining volume at the segment boundary is
                // indistinguishable from zero, so the boundary is the
                // completion. Inverting would chase the vanishing-speed
                // tail and land early on curves that drain exactly at the
                // segment end (the closed-form optimum at α < 2 loses
                // ~1e-6 that way).
                completion = s.end;
            } else {
                completion = closed_form::time_at_volume(pl, s, target);
            }
        }
        let cum = index.total_volume();
        if completion.is_nan() && (cum - volume).abs() <= rel_tol * (1.0 + volume + resolution) {
            // All measurable volume was delivered but no crossing was
            // detectable (zero-scale jobs whose serving segments are
            // empty or underflow): the inversion cannot constrain the
            // completion, so adopt the last serving instant — or the
            // reported value when the job never measurably ran at all.
            let reported_c = reported_completion.get(j).copied().unwrap_or(f64::NAN);
            completion = segs.last().map_or(reported_c, |s| s.end).max(instance.job(j).release);
        }
        (cum, completion)
    });
    derived.into_iter().unzip()
}

/// Fractional weighted flow-time re-derivation. With `q_j(t)` the volume
/// of job `j` processed by `t` and `c_j` the *derived* completion,
///   `F_j = ρ_j ∫_{r_j}^{c_j} (V_j − q_j(t)) dt`
///       `= ρ_j [ V_j (c_j − r_j) − ∫_{r_j}^{c_j} (c_j − τ) s_j(τ) dτ ]`
/// by Fubini. The per-segment weighted integral is evaluated analytically
/// ([`closed_form::weighted_volume`]); every `stride`-th *job* is instead
/// integrated by tanh-sinh quadrature of the pointwise speed curve (the
/// cross-check tier). Segments at or past `c_j` contribute nothing, so a
/// binary search over the (start-ordered) serving segments skips the
/// tail. NaN when any completion is non-finite. Per-job contributions are
/// independent, so they fan out over `pool`; the final sum runs serially
/// in job order, so the result is identical for any worker count.
pub(crate) fn frac_flow_rederived(
    pool: Pool,
    pl: PowerLaw,
    instance: &Instance,
    by_job: &[Vec<Segment>],
    completions: &[f64],
    stride: usize,
) -> f64 {
    let jobs: Vec<usize> = (0..by_job.len()).collect();
    let contributions = pool.map(&jobs, |&j| {
        let segs = &by_job[j];
        let job = instance.job(j);
        let c = completions[j];
        if !c.is_finite() {
            return f64::NAN;
        }
        let cut = segs.partition_point(|s| s.start < c);
        let mut served = 0.0;
        for s in &segs[..cut] {
            served += if sampled(stride, j) {
                integrate(|t| (c - t) * s.speed_at(pl, t), s.start, s.end.min(c))
            } else {
                closed_form::weighted_volume(pl, s, c)
            };
        }
        job.density * (job.volume * (c - job.release) - served)
    });
    contributions.iter().sum()
}

impl ScheduleAudit {
    /// Auditor with explicit tolerances.
    #[must_use]
    pub fn new(config: AuditConfig) -> Self {
        Self { config }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> AuditConfig {
        self.config
    }

    /// Audit a schedule-producing run against its reported evaluation.
    ///
    /// The integral re-derivations (per-job volumes/completions, the
    /// energy and fractional-flow re-integrations) use the closed-form
    /// fast path in [`crate::closed_form`] with a sampled quadrature
    /// cross-check tier ([`AuditConfig::cross_check_stride`]) and fan out
    /// over [`AuditConfig::pool`]; every check also records the wall-time
    /// it took ([`crate::CheckVerdict::elapsed_ns`]). Shared derivation
    /// cost is attributed to the first consuming check
    /// (`volume-conservation` carries the per-job derivation).
    #[must_use]
    pub fn audit(&self, instance: &Instance, schedule: &Schedule, reported: &Evaluated) -> AuditReport {
        let mut report = AuditReport::default();
        let mut clock = Stopwatch::new();
        let pool = self.config.pool();
        let pl = schedule.power_law();
        let n = instance.len();
        let time_tol = self.config.time_slack(schedule.end_time());

        let (worst, detail) = wellformed_residual(schedule.segments());
        report.record_timed("segments-wellformed", worst, time_tol, detail, clock.lap());

        let (worst, detail) = release_residual(instance, schedule.segments());
        report.record_timed("release-before-service", worst, time_tol, detail, clock.lap());

        // --- per-job quadrature volumes and re-derived completions.
        let by_job: Vec<Vec<Segment>> = (0..n)
            .map(|j| schedule.segments().iter().filter(|s| s.job == Some(j)).copied().collect())
            .collect();
        let resolution = measurement_resolution(
            pl,
            std::iter::once(schedule.segments()),
            schedule.end_time(),
        );
        let (delivered, derived_completion) = derive_per_job(
            pool,
            pl,
            instance,
            &by_job,
            &reported.per_job.completion,
            self.config.rel_tol,
            resolution,
            self.config.cross_check_stride,
        );

        let mut vol_worst = 0.0f64;
        let mut vol_detail = String::from("all volumes conserved");
        for (j, &cum) in delivered.iter().enumerate() {
            let volume = instance.job(j).volume;
            let r = (cum - volume).abs() / (1.0 + volume + resolution);
            if !(r <= vol_worst) {
                vol_worst = r;
                vol_detail = format!("job {j}: delivered {cum:.9e} of {volume:.9e}");
            }
        }
        report.record_timed(
            "volume-conservation",
            vol_worst,
            self.config.rel_tol,
            vol_detail,
            clock.lap(),
        );

        let mut c_worst = 0.0f64;
        let mut c_detail = String::from("completions agree");
        for j in 0..n {
            let reported_c = reported.per_job.completion.get(j).copied().unwrap_or(f64::NAN);
            let r = residual(derived_completion[j], reported_c);
            let r = if r.is_nan() { f64::INFINITY } else { r };
            if r > c_worst {
                c_worst = r;
                c_detail = format!(
                    "job {j}: derived {:.9} vs reported {reported_c:.9}",
                    derived_completion[j]
                );
            }
        }
        report.record_timed(
            "completion-consistency",
            c_worst,
            self.config.rel_tol,
            c_detail,
            clock.lap(),
        );

        // --- energy re-derivation: closed-form antiderivative per segment
        // across the pool, with every stride-th segment re-measured by
        // quadrature of the pointwise power curve; summed serially in
        // segment order.
        let stride = self.config.cross_check_stride;
        let seg_idx: Vec<usize> = (0..schedule.segments().len()).collect();
        let energy: f64 = pool
            .map(&seg_idx, |&i| {
                let s = &schedule.segments()[i];
                if sampled(stride, i) {
                    integrate(|t| s.power_at(pl, t), s.start, s.end)
                } else {
                    closed_form::energy(pl, s)
                }
            })
            .iter()
            .sum();
        report.record_timed(
            "energy-recomputed",
            residual(energy, reported.objective.energy),
            self.config.rel_tol,
            format!("re-derived {energy:.9e} vs reported {:.9e}", reported.objective.energy),
            clock.lap(),
        );

        let frac = frac_flow_rederived(pool, pl, instance, &by_job, &derived_completion, stride);
        report.record_timed(
            "frac-flow-recomputed",
            residual(frac, reported.objective.frac_flow),
            self.config.rel_tol,
            format!("re-derived {frac:.9e} vs reported {:.9e}", reported.objective.frac_flow),
            clock.lap(),
        );

        // --- integral flow from the derived completions.
        let int: f64 = (0..n)
            .map(|j| {
                let job = instance.job(j);
                job.weight() * (derived_completion[j] - job.release)
            })
            .sum();
        report.record_timed(
            "int-flow-recomputed",
            residual(int, reported.objective.int_flow),
            self.config.rel_tol,
            format!("derived {int:.9e} vs reported {:.9e}", reported.objective.int_flow),
            clock.lap(),
        );

        self.outcome_checks(&mut report, instance, &reported.objective, &reported.per_job);
        report
    }

    /// Audit a run that produced no [`Schedule`] (processor sharing, the
    /// parallel-machine outcomes): internal-consistency and sanity
    /// invariants on the reported numbers only.
    #[must_use]
    pub fn audit_outcome(
        &self,
        instance: &Instance,
        objective: &Objective,
        per_job: &PerJob,
    ) -> AuditReport {
        let mut report = AuditReport::default();
        self.outcome_checks(&mut report, instance, objective, per_job);
        report
    }

    /// Checks shared by both audit modes: finiteness, completion ordering,
    /// per-job flow dominance, and sum consistency.
    pub(crate) fn outcome_checks(
        &self,
        report: &mut AuditReport,
        instance: &Instance,
        objective: &Objective,
        per_job: &PerJob,
    ) {
        let n = instance.len();
        let tol = self.config.rel_tol;
        let mut clock = Stopwatch::new();

        // --- objective-finite: every component a finite non-negative number.
        let mut worst = 0.0f64;
        let mut detail = String::from("all components finite");
        for (what, v) in [
            ("energy", objective.energy),
            ("frac_flow", objective.frac_flow),
            ("int_flow", objective.int_flow),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                worst = f64::INFINITY;
                detail = format!("{what} = {v}");
            }
        }
        report.record_timed("objective-finite", worst, tol, detail, clock.lap());

        // --- completion-after-release (reported completions).
        let mut worst = 0.0f64;
        let mut detail = String::from("all completions after release");
        for j in 0..n.min(per_job.completion.len()) {
            let c = per_job.completion[j];
            let v = if c.is_finite() { instance.job(j).release - c } else { f64::INFINITY };
            if v > worst {
                worst = v;
                detail = format!("job {j}: completion {c} vs release {}", instance.job(j).release);
            }
        }
        if per_job.completion.len() != n {
            worst = f64::INFINITY;
            detail = format!("{} completions for {n} jobs", per_job.completion.len());
        }
        report.record_timed("completion-after-release", worst.max(0.0), tol, detail, clock.lap());

        // --- frac-dominated-by-int, per job: ρ_j ∫ V_j(t) dt never exceeds
        // w_j (c_j − r_j) because the remaining volume is at most V_j.
        let mut worst = 0.0f64;
        let mut detail = String::from("fractional ≤ integral per job");
        for j in 0..n.min(per_job.frac_flow.len()).min(per_job.int_flow.len()) {
            let v = residual(per_job.frac_flow[j].max(per_job.int_flow[j]), per_job.int_flow[j]);
            let v = if v.is_nan() { f64::INFINITY } else { v };
            if v > worst {
                worst = v;
                detail = format!(
                    "job {j}: frac {} vs int {}",
                    per_job.frac_flow[j], per_job.int_flow[j]
                );
            }
        }
        report.record_timed("frac-dominated-by-int", worst, tol, detail, clock.lap());

        // --- reported-sums-consistent: the aggregate objective must equal
        // the per-job sums it claims to summarise.
        let frac_sum: f64 = per_job.frac_flow.iter().sum();
        let int_sum: f64 = per_job.int_flow.iter().sum();
        let v = residual(frac_sum, objective.frac_flow).max(residual(int_sum, objective.int_flow));
        let v = if v.is_nan() { f64::INFINITY } else { v };
        report.record_timed(
            "reported-sums-consistent",
            v,
            tol,
            format!("Σfrac {frac_sum:.9e} / Σint {int_sum:.9e}"),
            clock.lap(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncss_sim::{evaluate, Job, PowerLaw, Segment, SpeedLaw};

    fn pl(alpha: f64) -> PowerLaw {
        PowerLaw::new(alpha).unwrap()
    }

    fn constant_run() -> (Instance, Schedule, Evaluated) {
        let inst = Instance::new(vec![
            Job::new(0.0, 2.0, 3.0),
            Job::new(0.5, 1.0, 1.0),
        ])
        .unwrap();
        let law = pl(2.0);
        let segs = vec![
            Segment::new(0.0, 2.0, Some(0), SpeedLaw::Constant { speed: 1.0 }),
            Segment::new(2.0, 3.0, Some(1), SpeedLaw::Constant { speed: 1.0 }),
        ];
        let sched = Schedule::new(law, segs).unwrap();
        let ev = evaluate(&sched, &inst).unwrap();
        (inst, sched, ev)
    }

    #[test]
    fn clean_constant_schedule_passes_tightly() {
        let (inst, sched, ev) = constant_run();
        let report = ScheduleAudit::default().audit(&inst, &sched, &ev);
        assert!(report.passed(), "{report}");
        assert!(report.max_residual() < 1e-7, "{report}");
    }

    #[test]
    fn decay_schedule_passes_near_completion_singularity() {
        // α = 3 decay to zero weight: the speed curve has a sqrt-type
        // endpoint, the hard case for the quadrature.
        let law = pl(3.0);
        let inst = Instance::new(vec![Job::unit_density(0.0, 1.0)]).unwrap();
        let k = ncss_sim::kernel::DecayKernel { law, w0: 1.0, rho: 1.0 };
        let t_done = k.time_to_volume(1.0);
        let segs = vec![Segment::new(0.0, t_done, Some(0), SpeedLaw::Decay { w0: 1.0, rho: 1.0 })];
        let sched = Schedule::new(law, segs).unwrap();
        let ev = evaluate(&sched, &inst).unwrap();
        let report = ScheduleAudit::default().audit(&inst, &sched, &ev);
        assert!(report.passed(), "{report}");
        assert!(report.max_residual() < 1e-7, "{report}");
    }

    #[test]
    fn tampered_energy_is_caught() {
        let (inst, sched, mut ev) = constant_run();
        ev.objective.energy *= 1.5;
        let report = ScheduleAudit::default().audit(&inst, &sched, &ev);
        assert!(!report.passed());
        assert!(report.failures().iter().any(|c| c.name == "energy-recomputed"));
    }

    #[test]
    fn tampered_completion_is_caught() {
        let (inst, sched, mut ev) = constant_run();
        ev.per_job.completion[1] += 0.25;
        let report = ScheduleAudit::default().audit(&inst, &sched, &ev);
        assert!(!report.passed());
        assert!(report.failures().iter().any(|c| c.name == "completion-consistency"));
    }

    #[test]
    fn early_service_is_caught() {
        // Job released at 0.5 but served from t = 0.
        let inst = Instance::new(vec![Job::new(0.5, 1.0, 1.0)]).unwrap();
        let law = pl(2.0);
        let segs = vec![Segment::new(0.0, 1.0, Some(0), SpeedLaw::Constant { speed: 1.0 })];
        let sched = Schedule::new(law, segs).unwrap();
        // Hand-build a "reported" evaluation so only the audit judges it.
        let per_job = PerJob { completion: vec![1.0], frac_flow: vec![0.25], int_flow: vec![0.5] };
        let ev = Evaluated {
            objective: Objective { energy: 1.0, frac_flow: 0.25, int_flow: 0.5 },
            per_job,
        };
        let report = ScheduleAudit::default().audit(&inst, &sched, &ev);
        assert!(!report.passed());
        assert!(report.failures().iter().any(|c| c.name == "release-before-service"));
    }

    #[test]
    fn missing_volume_is_caught() {
        // Schedule only delivers half the job.
        let inst = Instance::new(vec![Job::new(0.0, 2.0, 1.0)]).unwrap();
        let law = pl(2.0);
        let segs = vec![Segment::new(0.0, 1.0, Some(0), SpeedLaw::Constant { speed: 1.0 })];
        let sched = Schedule::new(law, segs).unwrap();
        let per_job = PerJob { completion: vec![1.0], frac_flow: vec![1.5], int_flow: vec![2.0] };
        let ev = Evaluated {
            objective: Objective { energy: 1.0, frac_flow: 1.5, int_flow: 2.0 },
            per_job,
        };
        let report = ScheduleAudit::default().audit(&inst, &sched, &ev);
        assert!(!report.passed());
        assert!(report.failures().iter().any(|c| c.name == "volume-conservation"));
    }

    #[test]
    fn outcome_audit_flags_nan_and_inversions() {
        let inst = Instance::new(vec![Job::unit_density(1.0, 1.0)]).unwrap();
        let objective = Objective { energy: f64::NAN, frac_flow: 1.0, int_flow: 0.5 };
        let per_job = PerJob {
            completion: vec![0.5], // before release
            frac_flow: vec![1.0],  // exceeds int_flow
            int_flow: vec![0.5],
        };
        let report = ScheduleAudit::default().audit_outcome(&inst, &objective, &per_job);
        assert!(!report.passed());
        let names: Vec<_> = report.failures().iter().map(|c| c.name).collect();
        assert!(names.contains(&"objective-finite"), "{names:?}");
        assert!(names.contains(&"completion-after-release"), "{names:?}");
        assert!(names.contains(&"frac-dominated-by-int"), "{names:?}");
    }

    #[test]
    fn outcome_audit_accepts_consistent_numbers() {
        let inst = Instance::new(vec![Job::unit_density(0.0, 1.0)]).unwrap();
        let per_job = PerJob { completion: vec![1.0], frac_flow: vec![0.5], int_flow: vec![1.0] };
        let objective = Objective { energy: 1.0, frac_flow: 0.5, int_flow: 1.0 };
        let report = ScheduleAudit::default().audit_outcome(&inst, &objective, &per_job);
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn unknown_job_id_is_caught() {
        let inst = Instance::new(vec![Job::unit_density(0.0, 1.0)]).unwrap();
        let law = pl(2.0);
        let segs = vec![Segment::new(0.0, 1.0, Some(7), SpeedLaw::Constant { speed: 1.0 })];
        let sched = Schedule::new(law, segs).unwrap();
        let per_job = PerJob { completion: vec![1.0], frac_flow: vec![0.5], int_flow: vec![1.0] };
        let ev = Evaluated {
            objective: Objective { energy: 1.0, frac_flow: 0.5, int_flow: 1.0 },
            per_job,
        };
        let report = ScheduleAudit::default().audit(&inst, &sched, &ev);
        assert!(!report.passed());
        assert!(report.failures().iter().any(|c| c.name == "release-before-service"));
    }
}
