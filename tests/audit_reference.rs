//! An independent serial reference for the auditors.
//!
//! `ScheduleAudit` and `MultiAudit` replay a finished run into the
//! event-driven `IncrementalAudit` / `IncrementalMultiAudit`. This file
//! keeps the direct batch re-derivation they used to be, written against
//! nothing but the audit's closed forms and quadrature:
//!
//! * per-job serving segments gathered from the whole schedule (across
//!   machines, sorted by start, for a fleet);
//! * per-job volumes — closed forms, every `stride`-th re-measured by
//!   quadrature, sampled by `job + segment` — and completions inverted
//!   from their prefix sums with `ncss_sim::SegmentIndex`;
//! * energy summed over the schedule in order (over the concatenated fleet
//!   for several machines), fractional flow by the Fubini identity,
//!   integral flow from the derived completions, all in job-id order;
//! * the outcome checks of `ScheduleAudit::audit_outcome` appended.
//!
//! `tests/audit_property.rs` holds the replays to this reference over its
//! tamper matrix: honest single-timeline residuals bitwise equal, tampered
//! residuals of the same order, fleets within `1e-12` (the fleet auditor
//! samples its quadrature tier per machine). The tests below pin the same
//! agreement, plus detail text, on small hand-built runs.

#![allow(dead_code)] // shared with tests/audit_property.rs as a module

use ncss::audit::closed_form;
use ncss::audit::quad::integrate;
use ncss::audit::{AuditConfig, AuditReport, MultiAudit, ScheduleAudit};
use ncss::sim::{Evaluated, Instance, PowerLaw, Schedule, Segment, SegmentIndex, SpeedLaw};

fn sampled(stride: usize, i: usize) -> bool {
    stride > 0 && i % stride == 0
}

fn residual(x: f64, reference: f64) -> f64 {
    (x - reference).abs() / (1.0 + reference.abs())
}

fn completion_margin(volume: f64) -> f64 {
    let v = volume.abs();
    1e-9 * (v + v.min(1.0))
}

/// Worst violation of "finite, positively oriented, monotone,
/// non-overlapping" over one timeline.
fn wellformed(segments: &[Segment]) -> (f64, String) {
    let mut worst = 0.0f64;
    let mut detail = String::from("all segments ordered");
    let mut prev_end = f64::NEG_INFINITY;
    for (i, s) in segments.iter().enumerate() {
        let bad_times = !(s.start.is_finite() && s.end.is_finite() && s.scale.is_finite());
        let inversion = s.start - s.end;
        let overlap = if prev_end.is_finite() {
            prev_end - s.start
        } else {
            0.0
        };
        let v = if bad_times {
            f64::INFINITY
        } else {
            inversion.max(overlap).max(0.0)
        };
        if v > worst {
            worst = v;
            detail = format!("segment {i}: [{:.6}, {:.6}]", s.start, s.end);
        }
        prev_end = prev_end.max(s.end);
    }
    (worst, detail)
}

/// Worst "served before release" over one timeline; an unknown job id is
/// an infinite violation, named by its first segment.
fn early_service(instance: &Instance, segments: &[Segment]) -> (f64, String) {
    let mut worst = 0.0f64;
    let mut detail = String::from("no early service");
    for (i, s) in segments.iter().enumerate() {
        let Some(j) = s.job else { continue };
        if j >= instance.len() {
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

/// Volumes below `peak_speed · horizon · ε` are unmeasurable on these
/// timelines.
fn resolution<'a>(
    pl: PowerLaw,
    timelines: impl Iterator<Item = &'a [Segment]>,
    horizon: f64,
) -> f64 {
    let peak_speed = timelines
        .flat_map(|segs| {
            segs.iter()
                .flat_map(|s| [s.speed_at(pl, s.start), s.speed_at(pl, s.end)])
        })
        .fold(0.0f64, f64::max);
    peak_speed * horizon.abs() * f64::EPSILON * 64.0
}

/// Per-job `(delivered, derived completion)` from each job's serving
/// segments in increasing start order.
fn derive(
    pl: PowerLaw,
    instance: &Instance,
    by_job: &[Vec<Segment>],
    reported_completion: &[f64],
    rel_tol: f64,
    resolution: f64,
    stride: usize,
) -> (Vec<f64>, Vec<f64>) {
    (0..instance.len())
        .map(|j| {
            let segs = &by_job[j];
            let volume = instance.job(j).volume;
            let dvs: Vec<f64> = segs
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    if sampled(stride, j + i) {
                        integrate(|t| s.speed_at(pl, t), s.start, s.end)
                    } else {
                        closed_form::volume(pl, s)
                    }
                })
                .collect();
            let index = SegmentIndex::from_volumes(segs, dvs.iter().copied());
            let margin = completion_margin(volume);
            let mut completion = f64::NAN;
            let i = index.first_reaching(volume - margin);
            if let Some(s) = segs.get(i) {
                let target = (volume - index.volume_before(i)).min(dvs[i]).max(0.0);
                completion = if dvs[i] - target <= margin {
                    s.end
                } else {
                    closed_form::time_at_volume(pl, s, target)
                };
            }
            let cum = index.total_volume();
            if completion.is_nan() && (cum - volume).abs() <= rel_tol * (1.0 + volume + resolution)
            {
                let reported = reported_completion.get(j).copied().unwrap_or(f64::NAN);
                completion = segs
                    .last()
                    .map_or(reported, |s| s.end)
                    .max(instance.job(j).release);
            }
            (cum, completion)
        })
        .unzip()
}

/// Σ_j ρ_j [V_j (c_j − r_j) − ∫_{r_j}^{c_j} (c_j − τ) s_j(τ) dτ], NaN when
/// any completion is non-finite.
fn frac_flow(
    pl: PowerLaw,
    instance: &Instance,
    by_job: &[Vec<Segment>],
    completions: &[f64],
    stride: usize,
) -> f64 {
    (0..by_job.len())
        .map(|j| {
            let (segs, job, c) = (&by_job[j], instance.job(j), completions[j]);
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
        })
        .sum()
}

fn energy(pl: PowerLaw, segments: &[Segment], stride: usize) -> f64 {
    segments
        .iter()
        .enumerate()
        .map(|(i, s)| {
            if sampled(stride, i) {
                integrate(|t| s.power_at(pl, t), s.start, s.end)
            } else {
                closed_form::energy(pl, s)
            }
        })
        .sum()
}

/// The checks from the volume check through the outcome checks, shared by
/// both references.
#[allow(clippy::too_many_arguments)]
fn record_derived(
    report: &mut AuditReport,
    config: AuditConfig,
    (volume_check, ok, delivered_by): (&'static str, &str, &str),
    pl: PowerLaw,
    instance: &Instance,
    by_job: &[Vec<Segment>],
    all_segments: &[Segment],
    timelines: &[&[Segment]],
    horizon: f64,
    reported: &Evaluated,
) {
    let tol = config.rel_tol;
    let stride = config.cross_check_stride;
    let res = resolution(pl, timelines.iter().copied(), horizon);
    let (delivered, completions) = derive(
        pl,
        instance,
        by_job,
        &reported.per_job.completion,
        tol,
        res,
        stride,
    );

    let mut worst = 0.0f64;
    let mut detail = String::from(ok);
    for (j, &cum) in delivered.iter().enumerate() {
        let volume = instance.job(j).volume;
        let r = (cum - volume).abs() / (1.0 + volume + res);
        if !(r <= worst) {
            worst = r;
            detail = format!("job {j}: {delivered_by} {cum:.9e} of {volume:.9e}");
        }
    }
    report.record(volume_check, worst, tol, detail);

    let mut worst = 0.0f64;
    let mut detail = String::from("completions agree");
    for (j, &c) in completions.iter().enumerate() {
        let reported_c = reported
            .per_job
            .completion
            .get(j)
            .copied()
            .unwrap_or(f64::NAN);
        let r = residual(c, reported_c);
        let r = if r.is_nan() { f64::INFINITY } else { r };
        if r > worst {
            worst = r;
            detail = format!("job {j}: derived {c:.9} vs reported {reported_c:.9}");
        }
    }
    report.record("completion-consistency", worst, tol, detail);

    let o = &reported.objective;
    let e = energy(pl, all_segments, stride);
    report.record(
        "energy-recomputed",
        residual(e, o.energy),
        tol,
        format!("re-derived {e:.9e} vs reported {:.9e}", o.energy),
    );
    let f = frac_flow(pl, instance, by_job, &completions, stride);
    report.record(
        "frac-flow-recomputed",
        residual(f, o.frac_flow),
        tol,
        format!("re-derived {f:.9e} vs reported {:.9e}", o.frac_flow),
    );
    let int: f64 = instance
        .jobs()
        .iter()
        .zip(&completions)
        .map(|(job, c)| job.weight() * (c - job.release))
        .sum();
    report.record(
        "int-flow-recomputed",
        residual(int, o.int_flow),
        tol,
        format!("derived {int:.9e} vs reported {:.9e}", o.int_flow),
    );

    let outcome = ScheduleAudit::new(config).audit_outcome(instance, o, &reported.per_job);
    report.checks.extend(outcome.checks);
}

/// The reference single-timeline audit.
pub fn audit_schedule(
    instance: &Instance,
    schedule: &Schedule,
    reported: &Evaluated,
    config: AuditConfig,
) -> AuditReport {
    let mut report = AuditReport::default();
    let segments = schedule.segments();
    let time_tol = config.time_slack(schedule.end_time());
    let (worst, detail) = wellformed(segments);
    report.record("segments-wellformed", worst, time_tol, detail);
    let (worst, detail) = early_service(instance, segments);
    report.record("release-before-service", worst, time_tol, detail);

    let by_job: Vec<Vec<Segment>> = (0..instance.len())
        .map(|j| {
            segments
                .iter()
                .filter(|s| s.job == Some(j))
                .copied()
                .collect()
        })
        .collect();
    record_derived(
        &mut report,
        config,
        ("volume-conservation", "all volumes conserved", "delivered"),
        schedule.power_law(),
        instance,
        &by_job,
        segments,
        &[segments],
        schedule.end_time(),
        reported,
    );
    report
}

/// The reference cross-machine audit.
pub fn audit_fleet(
    instance: &Instance,
    schedules: &[Schedule],
    reported: &Evaluated,
    config: AuditConfig,
) -> AuditReport {
    let mut report = AuditReport::default();
    let n = instance.len();
    let pl = schedules
        .first()
        .map_or_else(PowerLaw::cube, Schedule::power_law);
    let horizon = schedules
        .iter()
        .map(|s| s.end_time().abs())
        .fold(0.0f64, f64::max);
    let time_tol = config.time_slack(horizon);

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
    report.record("power-law-consistent", worst, config.rel_tol, detail);

    let worst_machine = |check: &dyn Fn(&[Segment]) -> (f64, String), ok: &str| {
        let mut worst = (0.0f64, String::from(ok));
        for (m, s) in schedules.iter().enumerate() {
            let (w, d) = check(s.segments());
            if w > worst.0 {
                worst = (w, format!("machine {m}: {d}"));
            }
        }
        worst
    };
    let (worst, detail) = worst_machine(&wellformed, "all machine timelines ordered");
    report.record("segments-wellformed", worst, time_tol, detail);
    let (worst, detail) = worst_machine(&|s| early_service(instance, s), "no early service");
    report.record("release-before-service", worst, time_tol, detail);

    // Each job's serving segments across machines, by start.
    let mut tagged: Vec<Vec<(usize, Segment)>> = vec![Vec::new(); n];
    for (m, sched) in schedules.iter().enumerate() {
        for s in sched.segments() {
            if let Some(j) = s.job.filter(|&j| j < n) {
                tagged[j].push((m, *s));
            }
        }
    }
    for segs in &mut tagged {
        segs.sort_by(|a, b| a.1.start.total_cmp(&b.1.start));
    }

    let mut worst = 0.0f64;
    let mut detail = String::from("no cross-machine overlap");
    for (j, segs) in tagged.iter().enumerate() {
        for (i, (m_a, a)) in segs.iter().enumerate() {
            for (m_b, b) in &segs[i + 1..] {
                let (lo, hi) = (a.start.max(b.start), a.end.min(b.end));
                if m_a != m_b && hi - lo > worst {
                    worst = hi - lo;
                    detail = format!("job {j}: machines {m_a}/{m_b} both serve [{lo:.6}, {hi:.6}]");
                }
            }
        }
    }
    report.record("no-double-service", worst, time_tol, detail);

    let by_job: Vec<Vec<Segment>> = tagged
        .iter()
        .map(|segs| segs.iter().map(|(_, s)| *s).collect())
        .collect();
    let all: Vec<Segment> = schedules
        .iter()
        .flat_map(Schedule::segments)
        .copied()
        .collect();
    let timelines: Vec<&[Segment]> = schedules.iter().map(Schedule::segments).collect();
    record_derived(
        &mut report,
        config,
        (
            "cross-machine-volume",
            "all volumes conserved across machines",
            "machines delivered",
        ),
        pl,
        instance,
        &by_job,
        &all,
        &timelines,
        horizon,
        reported,
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncss::sim::{evaluate, Job, Objective, PerJob};

    fn law() -> PowerLaw {
        PowerLaw::new(2.0).unwrap()
    }

    fn unit(start: f64, end: f64, job: usize) -> Segment {
        Segment::new(start, end, Some(job), SpeedLaw::Constant { speed: 1.0 })
    }

    fn reported(completion: f64, energy: f64) -> Evaluated {
        let per_job = PerJob {
            completion: vec![completion],
            frac_flow: vec![0.5],
            int_flow: vec![1.0],
        };
        Evaluated {
            objective: Objective {
                energy,
                frac_flow: 0.5,
                int_flow: 1.0,
            },
            per_job,
        }
    }

    /// Names, verdicts and details equal; residuals bitwise equal when
    /// `bitwise`, else within a factor of ten or `1e-12` of each other.
    fn assert_agree(reference: &AuditReport, replay: &AuditReport, bitwise: bool, context: &str) {
        assert_eq!(reference.checks.len(), replay.checks.len(), "{context}");
        for (r, p) in reference.checks.iter().zip(&replay.checks) {
            assert_eq!(
                (r.name, r.passed, &r.detail),
                (p.name, p.passed, &p.detail),
                "{context}"
            );
            let (a, b) = (r.residual, p.residual);
            let same_order = a > 0.0 && b > 0.0 && (a / b).max(b / a) <= 10.0;
            let close =
                a.to_bits() == b.to_bits() || (!bitwise && (same_order || (a - b).abs() <= 1e-12));
            assert!(
                close,
                "{context}: {} reference {a:e} vs replay {b:e}",
                r.name
            );
        }
    }

    #[test]
    fn single_timeline_replay_matches_the_reference_on_hand_built_runs() {
        let two = Instance::new(vec![Job::new(0.0, 2.0, 3.0), Job::new(0.5, 1.0, 1.0)]).unwrap();
        let sched = Schedule::new(law(), vec![unit(0.0, 2.0, 0), unit(2.0, 3.0, 1)]).unwrap();
        let honest = evaluate(&sched, &two).unwrap();
        let mut cases = vec![("honest", two.clone(), sched.clone(), honest.clone(), true)];
        let mut tampered = honest.clone();
        tampered.objective.energy *= 1.5;
        cases.push(("energy", two.clone(), sched.clone(), tampered, false));
        let mut tampered = honest;
        tampered.per_job.completion[1] += 0.25;
        cases.push(("completion", two, sched, tampered, false));

        let one = |release| Instance::new(vec![Job::new(release, 1.0, 1.0)]).unwrap();
        let early = Schedule::new(law(), vec![unit(0.0, 1.0, 0)]).unwrap();
        cases.push(("early service", one(0.5), early, reported(1.0, 1.0), false));
        let short = Schedule::new(law(), vec![unit(0.0, 0.5, 0)]).unwrap();
        cases.push(("lost volume", one(0.0), short, reported(1.0, 1.0), false));
        let unknown = vec![unit(0.0, 1.0, 0), unit(1.0, 2.0, 7), unit(2.0, 3.0, 9)];
        let unknown = Schedule::new(law(), unknown).unwrap();
        cases.push(("unknown ids", one(0.0), unknown, reported(1.0, 3.0), false));

        let config = AuditConfig::default();
        for (name, inst, schedule, ev, honest) in cases {
            let reference = audit_schedule(&inst, &schedule, &ev, config);
            let replay = ScheduleAudit::new(config).audit(&inst, &schedule, &ev);
            assert_eq!(reference.passed(), honest, "{name}\n{reference}");
            assert_agree(&reference, &replay, honest, name);
        }
    }

    #[test]
    fn fleet_replay_matches_the_reference_on_a_duplicated_timeline() {
        let inst = Instance::new(vec![Job::new(0.0, 2.0, 1.0), Job::new(0.0, 1.0, 1.0)]).unwrap();
        let per_job = PerJob {
            completion: vec![2.0, 1.0],
            frac_flow: vec![2.0, 0.5],
            int_flow: vec![4.0, 1.0],
        };
        let ev = Evaluated {
            objective: Objective {
                energy: 3.0,
                frac_flow: 2.5,
                int_flow: 5.0,
            },
            per_job,
        };
        let m0 = Schedule::new(law(), vec![unit(0.0, 2.0, 0)]).unwrap();
        let m1 = Schedule::new(law(), vec![unit(0.0, 1.0, 1)]).unwrap();
        let config = AuditConfig::default();
        for (name, fleet, honest) in [
            ("honest", [m0.clone(), m1], true),
            ("duplicated", [m0.clone(), m0], false),
        ] {
            let reference = audit_fleet(&inst, &fleet, &ev, config);
            let replay = MultiAudit::new(config).audit(&inst, &fleet, &ev);
            assert_eq!(reference.passed(), honest, "{name}\n{reference}");
            assert_agree(&reference, &replay, false, name);
        }
    }
}
