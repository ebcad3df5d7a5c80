//! Cross-machine auditing for parallel-machine runs.
//!
//! A multi-machine run (`C-PAR`, `NC-PAR`, immediate dispatch, the
//! assignment runners) reports one [`Evaluated`] for the whole fleet but
//! executes on `m` independent timelines — one [`Schedule`] per machine.
//! The outcome-level audit cannot see cross-machine violations: a job
//! double-served on two machines in overlapping wall-clock time still sums
//! to plausible objective numbers. [`MultiAudit`] closes that gap by
//! replaying the timelines into an [`IncrementalMultiAudit`], which checks
//! every machine's timeline, no-double-service and cross-machine volume,
//! and re-derives the fleet-total objective from the merged per-job
//! timelines.
//!
//! Machines legitimately overlap each other in wall-clock time, so the
//! slice of schedules can *not* be concatenated into a single
//! [`Schedule`] — the merge happens per job, where serial service is an
//! invariant rather than an accident.

use crate::incremental::IncrementalMultiAudit;
use crate::report::{AuditReport, Stopwatch};
use crate::schedule_audit::{replay_completions, AuditConfig};
use ncss_sim::{Evaluated, Instance, Schedule};

/// Independent invariant checker for parallel-machine runs.
///
/// Construct with [`MultiAudit::new`] for custom tolerances; the
/// [`AuditConfig`] semantics are identical to [`crate::ScheduleAudit`]'s.
#[derive(Debug, Clone, Copy, Default)]
pub struct MultiAudit {
    config: AuditConfig,
}

impl MultiAudit {
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

    /// Audit a parallel-machine run: `schedules[m]` is machine `m`'s
    /// timeline (empty schedules for idle machines are fine), `reported`
    /// the fleet-wide evaluation the run claims.
    ///
    /// The run is replayed into an [`IncrementalMultiAudit`] with one law
    /// per schedule: every release in id order, then each machine's
    /// segments in machine order, then the reported completions in id
    /// order. The feed, which carries the per-job derivations, is charged
    /// to the first check (`power-law-consistent`).
    #[must_use]
    pub fn audit(
        &self,
        instance: &Instance,
        schedules: &[Schedule],
        reported: &Evaluated,
    ) -> AuditReport {
        let clock = Stopwatch::new();
        let laws = schedules.iter().map(Schedule::power_law).collect();
        let mut audit = IncrementalMultiAudit::new(laws, self.config);
        for (id, job) in instance.jobs().iter().enumerate() {
            audit.on_release(id, *job);
        }
        for (m, schedule) in schedules.iter().enumerate() {
            for seg in schedule.segments() {
                // Every trip is folded into the report as well.
                let _ = audit.on_segment(m, *seg);
            }
        }
        replay_completions(instance.len(), &reported.per_job, |id, c, frac, int| {
            let _ = audit.on_complete(id, c, frac, int);
        });
        audit.finish(&reported.objective, clock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScheduleAudit;
    use ncss_sim::{Job, Objective, PerJob, PowerLaw, Segment, SpeedLaw};

    fn pl2() -> PowerLaw {
        PowerLaw::new(2.0).unwrap()
    }

    /// Two jobs released at 0, one machine each, unit speed.
    fn two_machine_run() -> (Instance, Vec<Schedule>, Evaluated) {
        let inst = Instance::new(vec![
            Job::new(0.0, 2.0, 1.0), // job 0 on machine 0: [0, 2]
            Job::new(0.0, 1.0, 1.0), // job 1 on machine 1: [0, 1]
        ])
        .unwrap();
        let m0 = Schedule::new(
            pl2(),
            vec![Segment::new(0.0, 2.0, Some(0), SpeedLaw::Constant { speed: 1.0 })],
        )
        .unwrap();
        let m1 = Schedule::new(
            pl2(),
            vec![Segment::new(0.0, 1.0, Some(1), SpeedLaw::Constant { speed: 1.0 })],
        )
        .unwrap();
        // At speed 1, F_j = ρ_j V_j²/2 per machine; E = Σ durations.
        let per_job = PerJob {
            completion: vec![2.0, 1.0],
            frac_flow: vec![2.0, 0.5],
            int_flow: vec![4.0, 1.0],
        };
        let ev = Evaluated {
            objective: Objective { energy: 3.0, frac_flow: 2.5, int_flow: 5.0 },
            per_job,
        };
        (inst, vec![m0, m1], ev)
    }

    #[test]
    fn clean_two_machine_run_passes_tightly() {
        let (inst, schedules, ev) = two_machine_run();
        let report = MultiAudit::default().audit(&inst, &schedules, &ev);
        assert!(report.passed(), "{report}");
        assert!(report.max_residual() < 1e-7, "{report}");
    }

    #[test]
    fn double_service_is_caught() {
        // Machine 1 also serves job 0 while machine 0 is serving it —
        // and the "reported" numbers are kept self-consistent so only the
        // cross-machine checks can notice.
        let (inst, mut schedules, ev) = two_machine_run();
        schedules[1] = Schedule::new(
            pl2(),
            vec![
                Segment::new(0.0, 1.0, Some(1), SpeedLaw::Constant { speed: 1.0 }),
                Segment::new(1.0, 2.0, Some(0), SpeedLaw::Constant { speed: 1.0 }),
            ],
        )
        .unwrap();
        let report = MultiAudit::default().audit(&inst, &schedules, &ev);
        assert!(!report.passed());
        let names: Vec<_> = report.failures().iter().map(|c| c.name).collect();
        assert!(names.contains(&"no-double-service"), "{report}");
        assert!(names.contains(&"cross-machine-volume"), "{report}");
        // The outcome-level checks alone would have let this through.
        let outcome =
            ScheduleAudit::default().audit_outcome(&inst, &ev.objective, &ev.per_job);
        assert!(outcome.passed(), "{outcome}");
    }

    #[test]
    fn lost_volume_across_machines_is_caught() {
        let (inst, mut schedules, ev) = two_machine_run();
        schedules[0] = Schedule::new(
            pl2(),
            vec![Segment::new(0.0, 1.0, Some(0), SpeedLaw::Constant { speed: 1.0 })],
        )
        .unwrap();
        let report = MultiAudit::default().audit(&inst, &schedules, &ev);
        assert!(!report.passed());
        assert!(report.failures().iter().any(|c| c.name == "cross-machine-volume"), "{report}");
    }

    #[test]
    fn tampered_total_energy_is_caught() {
        let (inst, schedules, mut ev) = two_machine_run();
        ev.objective.energy *= 1.5;
        let report = MultiAudit::default().audit(&inst, &schedules, &ev);
        assert!(!report.passed());
        assert!(report.failures().iter().any(|c| c.name == "energy-recomputed"));
    }

    #[test]
    fn mismatched_power_laws_are_caught() {
        let (inst, mut schedules, ev) = two_machine_run();
        schedules[1] = Schedule::new(
            PowerLaw::new(3.0).unwrap(),
            schedules[1].segments().to_vec(),
        )
        .unwrap();
        let report = MultiAudit::default().audit(&inst, &schedules, &ev);
        assert!(!report.passed());
        assert!(report.failures().iter().any(|c| c.name == "power-law-consistent"));
    }

    #[test]
    fn idle_machines_and_empty_fleet_are_fine() {
        // Empty fleet over an empty instance: trivially lawful.
        let inst = Instance::new(vec![]).unwrap();
        let ev = Evaluated {
            objective: Objective::default(),
            per_job: PerJob { completion: vec![], frac_flow: vec![], int_flow: vec![] },
        };
        let report = MultiAudit::default().audit(&inst, &[], &ev);
        assert!(report.passed(), "{report}");

        // Idle third machine alongside a working pair.
        let (inst, mut schedules, ev) = two_machine_run();
        schedules.push(Schedule::new(pl2(), vec![]).unwrap());
        let report = MultiAudit::default().audit(&inst, &schedules, &ev);
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn single_machine_slice_matches_schedule_audit() {
        // MultiAudit over a one-schedule slice must agree with the
        // single-machine auditor on a lawful run.
        let inst = Instance::new(vec![Job::new(0.0, 1.0, 1.0)]).unwrap();
        let sched = Schedule::new(
            pl2(),
            vec![Segment::new(0.0, 1.0, Some(0), SpeedLaw::Constant { speed: 1.0 })],
        )
        .unwrap();
        let ev = ncss_sim::evaluate(&sched, &inst).unwrap();
        let single = ScheduleAudit::default().audit(&inst, &sched, &ev);
        let multi = MultiAudit::default().audit(&inst, std::slice::from_ref(&sched), &ev);
        assert!(single.passed(), "{single}");
        assert!(multi.passed(), "{multi}");
    }
}
