//! The single-timeline auditor: a finished run replayed into
//! [`IncrementalAudit`], plus the outcome-only checks for runs that leave
//! no schedule behind.

use crate::incremental::IncrementalAudit;
use crate::report::{AuditReport, Stopwatch};
use ncss_sim::{Evaluated, Instance, JobId, Objective, PerJob, Schedule};

/// Tunable audit tolerances.
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
    /// Ignored. Every audit is a serial replay into the incremental
    /// auditors, so there is no worker count to choose; the field stays
    /// so that existing configurations still compile.
    pub threads: Option<usize>,
    /// Quadrature cross-check stride for the closed-form fast path: every
    /// `stride`-th integral (by deterministic index) is still measured by
    /// tanh-sinh quadrature of the pointwise curve and folded into the
    /// *same* check, so a shared algebra error between the simulators and
    /// [`crate::closed_form`] cannot certify itself. `1` re-measures
    /// everything; `0` disables the cross-check tier entirely.
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
    /// The slack on time comparisons for a schedule ending at `horizon`:
    /// `time_tol · (1 + |horizon|)` at or above magnitude 1, and
    /// `time_tol · 2|horizon|` below it, the same shape as the dispatchers'
    /// tie slack. Every auditor judges its time-axis checks against this
    /// one floor. Below magnitude 1 it is relative, so a rescaled
    /// schedule's overlap cannot hide under it; at or above 1 it is the
    /// absolute floor it always was.
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

/// `objective-finite`: every component a finite non-negative number.
pub(crate) fn objective_finite(objective: &Objective) -> (f64, String) {
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
    (worst, detail)
}

/// `reported-sums-consistent`: the aggregate objective must equal the
/// per-job sums it claims to summarise. A NaN on either side fails
/// (`f64::max` alone would drop it).
pub(crate) fn sums_residual(frac_sum: f64, int_sum: f64, objective: &Objective) -> (f64, String) {
    let frac = residual(frac_sum, objective.frac_flow);
    let int = residual(int_sum, objective.int_flow);
    let v = if frac.is_nan() || int.is_nan() { f64::INFINITY } else { frac.max(int) };
    (v, format!("Σfrac {frac_sum:.9e} / Σint {int_sum:.9e}"))
}

/// Feed a finished run's reported per-job values in id order: one
/// completion per job of an `n`-job instance, plus one per surplus
/// reported entry (a completion of a job never released). A missing entry
/// is NaN, which fails every check that reads it.
pub(crate) fn replay_completions(
    n: usize,
    per_job: &PerJob,
    mut on_complete: impl FnMut(JobId, f64, f64, f64),
) {
    let PerJob { completion, frac_flow, int_flow } = per_job;
    let at = |v: &[f64], j: usize| v.get(j).copied().unwrap_or(f64::NAN);
    let len = n.max(completion.len()).max(frac_flow.len()).max(int_flow.len());
    for j in 0..len {
        on_complete(j, at(completion, j), at(frac_flow, j), at(int_flow, j));
    }
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

    /// Audit a schedule-producing run against its reported evaluation by
    /// replaying it into an [`IncrementalAudit`]: every release in id
    /// order, then the segments in schedule order, then the reported
    /// completions in id order. Each check records its wall-time
    /// ([`crate::CheckVerdict::elapsed_ns`]); the feed, which carries the
    /// per-job derivations, is charged to the first check
    /// (`segments-wellformed`).
    #[must_use]
    pub fn audit(&self, instance: &Instance, schedule: &Schedule, reported: &Evaluated) -> AuditReport {
        let clock = Stopwatch::new();
        let mut audit = IncrementalAudit::new(schedule.power_law(), self.config);
        for (id, job) in instance.jobs().iter().enumerate() {
            audit.on_release(id, *job);
        }
        for seg in schedule.segments() {
            // Every trip is folded into the report as well.
            let _ = audit.on_segment(*seg);
        }
        replay_completions(instance.len(), &reported.per_job, |id, c, frac, int| {
            let _ = audit.on_complete(id, c, frac, int);
        });
        audit.finish(&reported.objective, clock)
    }

    /// Audit a run that produced no [`Schedule`] (processor sharing):
    /// finiteness, completion ordering, per-job flow dominance, and sum
    /// consistency of the reported numbers only.
    #[must_use]
    pub fn audit_outcome(
        &self,
        instance: &Instance,
        objective: &Objective,
        per_job: &PerJob,
    ) -> AuditReport {
        let mut report = AuditReport::default();
        let n = instance.len();
        let tol = self.config.rel_tol;
        let mut clock = Stopwatch::new();

        let (worst, detail) = objective_finite(objective);
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

        let frac_sum: f64 = per_job.frac_flow.iter().sum();
        let int_sum: f64 = per_job.int_flow.iter().sum();
        let (v, detail) = sums_residual(frac_sum, int_sum, objective);
        report.record_timed("reported-sums-consistent", v, tol, detail, clock.lap());
        report
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
