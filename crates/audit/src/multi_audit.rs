//! Cross-machine auditing for parallel-machine runs.
//!
//! A multi-machine run (`C-PAR`, `NC-PAR`, immediate dispatch, the
//! assignment runners) reports one [`Evaluated`] for the whole fleet but
//! executes on `m` independent timelines — one [`Schedule`] per machine.
//! The outcome-level audit cannot see cross-machine violations: a job
//! double-served on two machines in overlapping wall-clock time still sums
//! to plausible objective numbers. [`MultiAudit`] closes that gap by
//! re-deriving everything from the per-machine speed curves:
//!
//! * every machine's timeline satisfies the single-machine segment
//!   invariants (wellformed, release-before-service) — the same helpers
//!   the single-machine pass uses;
//! * **no-double-service**: no job is served on two different machines in
//!   overlapping time (the residual is the worst overlap duration);
//! * **cross-machine-volume**: per-job re-derived volume summed over all
//!   machines equals the job size;
//! * total energy, fractional and integral flow re-derived from the
//!   merged per-job timelines match the reported outcome;
//! * the reported numbers are internally consistent (the shared outcome
//!   checks).
//!
//! Machines legitimately overlap each other in wall-clock time, so the
//! slice of schedules can *not* be concatenated into a single
//! [`Schedule`] — the merge happens per job, where serial service is an
//! invariant rather than an accident.

use crate::closed_form;
use crate::report::{AuditReport, Stopwatch};
use crate::schedule_audit::{
    derive_per_job, frac_flow_rederived, measurement_resolution, release_residual, residual,
    sampled, wellformed_residual, AuditConfig, ScheduleAudit,
};
use ncss_sim::{Evaluated, Instance, PowerLaw, Schedule, Segment};

use crate::quad::integrate;

/// Independent invariant checker for parallel-machine runs.
///
/// Construct with [`MultiAudit::new`] for custom tolerances; the
/// [`AuditConfig`] semantics are identical to [`ScheduleAudit`]'s.
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
    /// Per-machine scans, the `O(k²)` per-job no-double-service pass, and
    /// every quadrature re-derivation fan out over [`AuditConfig::pool`];
    /// each check records its wall-time. As in the single-machine pass,
    /// shared derivation cost rides with the first consuming check
    /// (`cross-machine-volume` carries the per-job derivation).
    #[must_use]
    pub fn audit(
        &self,
        instance: &Instance,
        schedules: &[Schedule],
        reported: &Evaluated,
    ) -> AuditReport {
        let mut report = AuditReport::default();
        let mut clock = Stopwatch::new();
        let pool = self.config.pool();
        let n = instance.len();
        // An all-idle fleet has no law to read; any law integrates the
        // empty segment set to zero, so the fallback is inert.
        let pl = schedules.first().map_or_else(PowerLaw::cube, Schedule::power_law);
        let horizon = schedules.iter().map(|s| s.end_time().abs()).fold(0.0f64, f64::max);
        let time_tol = self.config.time_slack(horizon);

        // Fold order-preserved per-machine `(residual, detail)` rows into
        // the single worst row, serially, so the verdict is identical for
        // any worker count (strict `>` keeps the first/lowest machine on
        // ties, matching the serial scan).
        let worst_of = |rows: Vec<(f64, String)>, ok: &str| -> (f64, String) {
            let mut worst = 0.0f64;
            let mut detail = String::from(ok);
            for (m, (w, d)) in rows.into_iter().enumerate() {
                if w > worst {
                    worst = w;
                    detail = format!("machine {m}: {d}");
                }
            }
            (worst, detail)
        };

        // --- power-law-consistent: one fleet, one energy model.
        let mut worst = 0.0f64;
        let mut detail = String::from("all machines share one power law");
        for (m, s) in schedules.iter().enumerate() {
            let d = (s.power_law().alpha() - pl.alpha()).abs();
            if !(d <= worst) {
                worst = if d.is_nan() { f64::INFINITY } else { d };
                detail = format!(
                    "machine {m}: α = {} vs machine 0: α = {}",
                    s.power_law().alpha(),
                    pl.alpha()
                );
            }
        }
        report.record_timed("power-law-consistent", worst, self.config.rel_tol, detail, clock.lap());

        // --- per-machine segment invariants, via the single-machine
        // helpers, one machine per pool cell.
        let rows = pool.map(schedules, |s| wellformed_residual(s.segments()));
        let (worst, detail) = worst_of(rows, "all machine timelines ordered");
        report.record_timed("segments-wellformed", worst, time_tol, detail, clock.lap());

        let rows = pool.map(schedules, |s| release_residual(instance, s.segments()));
        let (worst, detail) = worst_of(rows, "no early service");
        report.record_timed("release-before-service", worst, time_tol, detail, clock.lap());

        // --- gather each job's serving segments across machines, in
        // increasing start order.
        let mut by_job: Vec<Vec<(usize, Segment)>> = vec![Vec::new(); n];
        for (m, sched) in schedules.iter().enumerate() {
            for s in sched.segments() {
                if let Some(j) = s.job {
                    if j < n {
                        by_job[j].push((m, *s));
                    }
                }
            }
        }
        for segs in &mut by_job {
            segs.sort_by(|a, b| a.1.start.total_cmp(&b.1.start));
        }

        // --- no-double-service: a job's serving intervals on *different*
        // machines must not overlap in wall-clock time. (Same-machine
        // overlap is already excluded by segments-wellformed.) The
        // residual is the worst overlap duration, so a clean run audits
        // at exactly zero. The O(k²) interval comparison is per job, so
        // jobs fan out over the pool and the worst rows fold serially.
        let per_job_overlap: Vec<(f64, String)> = pool.map(&by_job, |segs| {
            let mut worst = f64::NEG_INFINITY;
            let mut detail = String::new();
            for (i, (m_a, a)) in segs.iter().enumerate() {
                for (m_b, b) in &segs[i + 1..] {
                    if m_a == m_b {
                        continue;
                    }
                    let lo = a.start.max(b.start);
                    let hi = a.end.min(b.end);
                    let overlap = hi - lo;
                    if overlap > worst {
                        worst = overlap;
                        detail = format!("machines {m_a}/{m_b} both serve [{lo:.6}, {hi:.6}]");
                    }
                }
            }
            (worst, detail)
        });
        let mut worst = 0.0f64;
        let mut detail = String::from("no cross-machine overlap");
        for (j, (w, d)) in per_job_overlap.into_iter().enumerate() {
            if w > worst {
                worst = w;
                detail = format!("job {j}: {d}");
            }
        }
        report.record_timed("no-double-service", worst.max(0.0), time_tol, detail, clock.lap());

        // --- cross-machine volume conservation and derived completions,
        // over the merged per-job timelines.
        let merged: Vec<Vec<Segment>> =
            by_job.iter().map(|segs| segs.iter().map(|(_, s)| *s).collect()).collect();
        let resolution =
            measurement_resolution(pl, schedules.iter().map(Schedule::segments), horizon);
        let (delivered, completions) = derive_per_job(
            pool,
            pl,
            instance,
            &merged,
            &reported.per_job.completion,
            self.config.rel_tol,
            resolution,
            self.config.cross_check_stride,
        );

        let mut worst = 0.0f64;
        let mut detail = String::from("all volumes conserved across machines");
        for (j, &cum) in delivered.iter().enumerate() {
            let volume = instance.job(j).volume;
            let r = (cum - volume).abs() / (1.0 + volume + resolution);
            if !(r <= worst) {
                worst = r;
                detail = format!("job {j}: machines delivered {cum:.9e} of {volume:.9e}");
            }
        }
        report.record_timed("cross-machine-volume", worst, self.config.rel_tol, detail, clock.lap());

        let mut worst = 0.0f64;
        let mut detail = String::from("completions agree");
        for j in 0..n {
            let reported_c = reported.per_job.completion.get(j).copied().unwrap_or(f64::NAN);
            let r = residual(completions[j], reported_c);
            let r = if r.is_nan() { f64::INFINITY } else { r };
            if r > worst {
                worst = r;
                detail =
                    format!("job {j}: derived {:.9} vs reported {reported_c:.9}", completions[j]);
            }
        }
        report.record_timed("completion-consistency", worst, self.config.rel_tol, detail, clock.lap());

        // --- total energy: closed-form antiderivative per segment across
        // the whole fleet (every stride-th segment re-measured by
        // quadrature — the cross-check tier), fanned over the pool and
        // summed serially in timeline order (machine 0's segments first,
        // as in the serial pass).
        let stride = self.config.cross_check_stride;
        let fleet_segments: Vec<Segment> =
            schedules.iter().flat_map(Schedule::segments).copied().collect();
        let seg_idx: Vec<usize> = (0..fleet_segments.len()).collect();
        let energy: f64 = pool
            .map(&seg_idx, |&i| {
                let s = &fleet_segments[i];
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

        let frac = frac_flow_rederived(pool, pl, instance, &merged, &completions, stride);
        report.record_timed(
            "frac-flow-recomputed",
            residual(frac, reported.objective.frac_flow),
            self.config.rel_tol,
            format!("re-derived {frac:.9e} vs reported {:.9e}", reported.objective.frac_flow),
            clock.lap(),
        );

        let int: f64 = (0..n)
            .map(|j| {
                let job = instance.job(j);
                job.weight() * (completions[j] - job.release)
            })
            .sum();
        report.record_timed(
            "int-flow-recomputed",
            residual(int, reported.objective.int_flow),
            self.config.rel_tol,
            format!("derived {int:.9e} vs reported {:.9e}", reported.objective.int_flow),
            clock.lap(),
        );

        ScheduleAudit::new(self.config).outcome_checks(
            &mut report,
            instance,
            &reported.objective,
            &reported.per_job,
        );
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncss_sim::{Job, Objective, PerJob, PowerLaw, SpeedLaw};

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
