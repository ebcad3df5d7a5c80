//! Checked-mode execution: run an algorithm, then audit it.
//!
//! [`run_checked`] wraps the single-machine algorithms so any run can be
//! executed with the independent `ncss-audit` invariant checker attached.
//! Degradation is graceful at every layer: an algorithm that fails returns
//! its structured [`ncss_sim::SimError`] untouched, and an audit that finds
//! violations reports them in [`CheckedRun::report`] rather than erroring —
//! the caller decides whether a failed audit is fatal.

use crate::known_weight::run_known_weight_sharing;
use crate::nc_nonuniform::NonUniformParams;
use crate::{run_c, run_nc_nonuniform, run_nc_uniform};
use ncss_audit::{AuditConfig, AuditReport, MultiAudit, ScheduleAudit};
use ncss_sim::{Evaluated, Instance, Objective, PerJob, PowerLaw, Schedule, SimResult};

/// Which algorithm to execute under the audit harness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CheckedAlgorithm {
    /// Clairvoyant Algorithm C (HDF, `power = remaining weight`).
    C,
    /// Non-clairvoyant Algorithm NC for uniform densities.
    NcUniform,
    /// Non-clairvoyant Algorithm NC for arbitrary densities.
    NcNonUniform(NonUniformParams),
    /// Known-weight weighted processor sharing (schedule-less; audited with
    /// the outcome-level checks only).
    KnownWeightSharing,
}

/// An algorithm run plus its audit verdicts.
#[derive(Debug, Clone)]
pub struct CheckedRun {
    /// The run's reported objective.
    pub objective: Objective,
    /// The run's reported per-job outcomes.
    pub per_job: PerJob,
    /// The schedule, for algorithms that produce one.
    pub schedule: Option<Schedule>,
    /// Verdicts from the independent auditor.
    pub report: AuditReport,
}

impl CheckedRun {
    /// True when the run completed *and* every audited invariant held.
    #[must_use]
    pub fn audit_passed(&self) -> bool {
        self.report.passed()
    }
}

/// Execute `algorithm` on `instance` and audit the result.
///
/// Returns `Err` only when the algorithm itself fails (invalid input,
/// numeric guard, non-convergence); audit findings never error.
///
/// # Examples
///
/// ```
/// use ncss_audit::AuditConfig;
/// use ncss_core::{run_checked, CheckedAlgorithm};
/// use ncss_sim::{Instance, Job, PowerLaw};
///
/// let instance = Instance::new(vec![
///     Job::unit_density(0.0, 2.0),
///     Job::unit_density(0.4, 1.0),
/// ]).unwrap();
/// let law = PowerLaw::cube();
///
/// let run = run_checked(&instance, law, CheckedAlgorithm::C, AuditConfig::default()).unwrap();
/// assert!(run.audit_passed(), "{}", run.report);
/// assert!(run.report.max_residual() < 1e-7);
/// assert!(run.schedule.is_some());
/// ```
pub fn run_checked(
    instance: &Instance,
    law: PowerLaw,
    algorithm: CheckedAlgorithm,
    config: AuditConfig,
) -> SimResult<CheckedRun> {
    let auditor = ScheduleAudit::new(config);
    let audited = |schedule: Schedule, objective: Objective, per_job: PerJob| {
        let reported = Evaluated { objective, per_job };
        let report = auditor.audit(instance, &schedule, &reported);
        CheckedRun {
            objective: reported.objective,
            per_job: reported.per_job,
            schedule: Some(schedule),
            report,
        }
    };
    Ok(match algorithm {
        CheckedAlgorithm::C => {
            let run = run_c(instance, law)?;
            audited(run.schedule, run.objective, run.per_job)
        }
        CheckedAlgorithm::NcUniform => {
            let run = run_nc_uniform(instance, law)?;
            audited(run.schedule, run.objective, run.per_job)
        }
        CheckedAlgorithm::NcNonUniform(params) => {
            let run = run_nc_nonuniform(instance, law, params)?;
            audited(run.schedule, run.objective, run.per_job)
        }
        CheckedAlgorithm::KnownWeightSharing => {
            let run = run_known_weight_sharing(instance, law)?;
            let report = auditor.audit_outcome(instance, &run.objective, &run.per_job);
            CheckedRun { objective: run.objective, per_job: run.per_job, schedule: None, report }
        }
    })
}

/// The result shape a parallel-machine runner must expose to be audited:
/// the fleet assignment, the reported totals, and one timeline per machine
/// with segments labelled by **original** job ids.
///
/// This crate cannot depend on `ncss-multi` (it would be a cycle), so
/// [`run_checked_multi`] is generic over a closure producing this struct;
/// `ncss-multi`'s `ParOutcome` is this type re-exported, so every parallel
/// runner plugs in directly.
#[derive(Debug, Clone)]
pub struct MultiRun {
    /// Machine index assigned to each job (by original job id).
    pub assignment: Vec<usize>,
    /// Total objective summed over machines.
    pub objective: Objective,
    /// Per-job outcomes in original job ids.
    pub per_job: PerJob,
    /// Per-machine timelines (empty schedules for idle machines).
    pub schedules: Vec<Schedule>,
}

/// A parallel-machine run plus its cross-machine audit verdicts.
#[derive(Debug, Clone)]
pub struct CheckedMultiRun {
    /// Machine index assigned to each job.
    pub assignment: Vec<usize>,
    /// The run's reported objective.
    pub objective: Objective,
    /// The run's reported per-job outcomes.
    pub per_job: PerJob,
    /// Per-machine timelines.
    pub schedules: Vec<Schedule>,
    /// Verdicts from the independent cross-machine auditor.
    pub report: AuditReport,
}

impl CheckedMultiRun {
    /// True when the run completed *and* every audited invariant held.
    #[must_use]
    pub fn audit_passed(&self) -> bool {
        self.report.passed()
    }
}

/// Execute a parallel-machine runner on `machines` machines and audit the
/// result with the cross-machine invariant checker ([`MultiAudit`]): per-
/// machine segment invariants, no-double-service, cross-machine volume
/// conservation, and fleet-total objective re-derivation.
///
/// Like [`run_checked`], `Err` means the algorithm itself failed; audit
/// findings land in [`CheckedMultiRun::report`] for the caller to judge.
///
/// # Examples
///
/// Any runner producing a [`MultiRun`] plugs in — `ncss-multi`'s runners
/// directly, or a hand-built closure like this one-machine
/// "fleet" backed by Algorithm C:
///
/// ```
/// use ncss_audit::AuditConfig;
/// use ncss_core::{run_c, run_checked_multi, MultiRun};
/// use ncss_sim::{Instance, Job, PowerLaw};
///
/// let instance = Instance::new(vec![Job::unit_density(0.0, 1.0)]).unwrap();
/// let law = PowerLaw::new(2.0).unwrap();
///
/// let checked = run_checked_multi(&instance, law, 1, AuditConfig::default(), |i, l, _m| {
///     let c = run_c(i, l)?;
///     Ok(MultiRun {
///         assignment: vec![0; i.len()],
///         objective: c.objective,
///         per_job: c.per_job,
///         schedules: vec![c.schedule],
///     })
/// }).unwrap();
/// assert!(checked.audit_passed(), "{}", checked.report);
/// ```
pub fn run_checked_multi<F>(
    instance: &Instance,
    law: PowerLaw,
    machines: usize,
    config: AuditConfig,
    run: F,
) -> SimResult<CheckedMultiRun>
where
    F: FnOnce(&Instance, PowerLaw, usize) -> SimResult<MultiRun>,
{
    let out = run(instance, law, machines)?;
    let reported = Evaluated { objective: out.objective, per_job: out.per_job };
    let report = MultiAudit::new(config).audit(instance, &out.schedules, &reported);
    Ok(CheckedMultiRun {
        assignment: out.assignment,
        objective: reported.objective,
        per_job: reported.per_job,
        schedules: out.schedules,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncss_sim::Job;

    fn pl(alpha: f64) -> PowerLaw {
        PowerLaw::new(alpha).unwrap()
    }

    fn instance() -> Instance {
        Instance::new(vec![
            Job::unit_density(0.0, 1.0),
            Job::unit_density(0.2, 2.0),
            Job::unit_density(0.9, 0.5),
        ])
        .unwrap()
    }

    #[test]
    fn c_and_nc_pass_with_tight_residuals() {
        for algo in [CheckedAlgorithm::C, CheckedAlgorithm::NcUniform] {
            for alpha in [2.0, 3.0] {
                let run = run_checked(&instance(), pl(alpha), algo, AuditConfig::default()).unwrap();
                assert!(run.audit_passed(), "{algo:?} α={alpha}:\n{}", run.report);
                assert!(
                    run.report.max_residual() < 1e-7,
                    "{algo:?} α={alpha}: residual {}",
                    run.report.max_residual()
                );
                assert!(run.schedule.is_some());
            }
        }
    }

    #[test]
    fn nonuniform_passes_with_step_level_tolerance() {
        let inst = Instance::new(vec![Job::new(0.0, 1.0, 1.0), Job::new(0.3, 0.5, 4.0)]).unwrap();
        let params = NonUniformParams::default();
        // The non-uniform simulation is step-integrated, so its reported
        // numbers are accurate to the integration step, not 1e-7.
        let config = AuditConfig { rel_tol: 1e-2, ..AuditConfig::default() };
        let run =
            run_checked(&inst, pl(2.0), CheckedAlgorithm::NcNonUniform(params), config).unwrap();
        assert!(run.audit_passed(), "{}", run.report);
    }

    #[test]
    fn known_weight_is_audited_without_a_schedule() {
        let run = run_checked(
            &instance(),
            pl(2.5),
            CheckedAlgorithm::KnownWeightSharing,
            AuditConfig::default(),
        )
        .unwrap();
        assert!(run.schedule.is_none());
        assert!(run.audit_passed(), "{}", run.report);
    }

    #[test]
    fn checked_multi_audits_a_hand_built_fleet() {
        // A trivial one-machine "fleet" backed by Algorithm C must pass the
        // cross-machine audit with tight residuals.
        let inst = instance();
        let run = run_checked_multi(&inst, pl(2.0), 1, AuditConfig::default(), |i, l, m| {
            assert_eq!(m, 1);
            let c = run_c(i, l)?;
            Ok(MultiRun {
                assignment: vec![0; i.len()],
                objective: c.objective,
                per_job: c.per_job,
                schedules: vec![c.schedule],
            })
        })
        .unwrap();
        assert!(run.audit_passed(), "{}", run.report);
        assert!(run.report.max_residual() < 1e-7, "{}", run.report);
    }

    #[test]
    fn checked_multi_catches_a_corrupted_fleet() {
        // Same fleet, but the runner under-reports its energy: the audit
        // must fail (and the runner's Ok is preserved — the caller decides).
        let inst = instance();
        let run = run_checked_multi(&inst, pl(2.0), 1, AuditConfig::default(), |i, l, _| {
            let c = run_c(i, l)?;
            let mut objective = c.objective;
            objective.energy *= 0.5;
            Ok(MultiRun {
                assignment: vec![0; i.len()],
                objective,
                per_job: c.per_job,
                schedules: vec![c.schedule],
            })
        })
        .unwrap();
        assert!(!run.audit_passed());
        assert!(run.report.failures().iter().any(|c| c.name == "energy-recomputed"));
    }

    #[test]
    fn algorithm_errors_pass_through() {
        // α ≤ 1 is rejected before any audit happens.
        assert!(PowerLaw::new(1.0).is_err());
        // Zero-job instance: trivially fine for C.
        let empty = Instance::new(vec![]).unwrap();
        let run = run_checked(&empty, pl(2.0), CheckedAlgorithm::C, AuditConfig::default()).unwrap();
        assert!(run.audit_passed());
    }
}
