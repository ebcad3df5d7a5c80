//! Property tests for the audit layer itself.
//!
//! Two contracts:
//!
//! * **Tamper sensitivity** — a seeded tamperer perturbs known-good runs
//!   (segment shifts, speed scalings, dropped segments, completion swaps,
//!   objective edits) and every tampering must trip at least one *named*
//!   check. Trials shard over `ncss-pool`.
//! * **Replay == reference parity** — `ScheduleAudit` and `MultiAudit`
//!   replay a finished run into the event-driven auditors; they must
//!   reproduce the serial batch re-derivation kept in
//!   `tests/audit_reference.rs`: identical check names in identical order,
//!   identical pass/fail, honest residuals bitwise equal, and every
//!   tampered residual within an order of magnitude across the full
//!   tamper × workload-suite × α matrix (fleets: or within `1e-12`).

#[path = "audit_reference.rs"]
mod reference;

use ncss::audit::{AuditConfig, AuditReport, MultiAudit, ScheduleAudit};
use ncss::core::run_c;
use ncss::pool::Pool;
use ncss::sim::{Evaluated, Instance, PowerLaw, Schedule};
use ncss::workloads::{DensityDist, VolumeDist, WorkloadSpec};
use ncss_rng::Pcg64;

const TRIALS: usize = 40;

fn workload(seed: u64) -> Instance {
    WorkloadSpec::uniform(6, 1.0, VolumeDist::Uniform { lo: 0.4, hi: 1.6 })
        .generate(seed)
        .expect("valid spec")
}

/// The tamperings the auditor must catch. Each takes a valid
/// (schedule, reported) pair and corrupts exactly one aspect of it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Tamper {
    /// Multiply one serving segment's speed scale: delivered volume and
    /// energy both change.
    ScaleSpeed,
    /// Shift the last segment later in time: the served job's re-derived
    /// completion moves while the reported one does not.
    ShiftLast,
    /// Remove one serving segment: its volume is never delivered.
    DropSegment,
    /// Swap two jobs' reported completion times.
    SwapCompletions,
    /// Under-report the objective's energy term.
    ScaleEnergy,
}

const TAMPERS: [Tamper; 5] = [
    Tamper::ScaleSpeed,
    Tamper::ShiftLast,
    Tamper::DropSegment,
    Tamper::SwapCompletions,
    Tamper::ScaleEnergy,
];

/// Apply `tamper` to a valid run; returns the corrupted pair, or `None`
/// when the run's shape cannot host this tampering (e.g. too few segments).
fn apply(
    tamper: Tamper,
    rng: &mut Pcg64,
    schedule: &Schedule,
    reported: &Evaluated,
) -> Option<(Schedule, Evaluated)> {
    let law = schedule.power_law();
    let mut segments = schedule.segments().to_vec();
    let mut reported = reported.clone();
    let serving: Vec<usize> =
        (0..segments.len()).filter(|&i| segments[i].job.is_some()).collect();
    match tamper {
        Tamper::ScaleSpeed => {
            let i = serving[(rng.next_u64() as usize) % serving.len()];
            segments[i].scale *= rng.range_f64(1.3, 2.0);
        }
        Tamper::ShiftLast => {
            let last = segments.last_mut()?;
            let shift = rng.range_f64(0.5, 1.5) * last.duration().max(0.5);
            last.start += shift;
            last.end += shift;
        }
        Tamper::DropSegment => {
            if serving.len() < 2 {
                return None;
            }
            segments.remove(serving[(rng.next_u64() as usize) % serving.len()]);
        }
        Tamper::SwapCompletions => {
            let n = reported.per_job.completion.len();
            if n < 2 {
                return None;
            }
            let (a, b) = (0, 1 + (rng.next_u64() as usize) % (n - 1));
            let (ca, cb) = (reported.per_job.completion[a], reported.per_job.completion[b]);
            // A swap of near-equal completions would be invisible at audit
            // tolerance — make sure the pair actually differs.
            if (ca - cb).abs() < 1e-3 * (ca.abs() + cb.abs()) {
                return None;
            }
            reported.per_job.completion.swap(a, b);
        }
        Tamper::ScaleEnergy => {
            reported.objective.energy *= rng.range_f64(0.4, 0.8);
        }
    }
    let schedule = Schedule::new(law, segments).ok()?;
    Some((schedule, reported))
}

#[test]
fn every_tampering_trips_a_named_check() {
    let auditor = ScheduleAudit::new(AuditConfig::default());
    let trials: Vec<u64> = (0..TRIALS as u64).collect();

    // One shard per trial over the shared pool; each returns either a
    // violation message or the names of the checks the tampering tripped.
    let outcomes: Vec<Result<(Tamper, Vec<&'static str>), String>> =
        Pool::auto().map(&trials, |&trial| {
            let mut rng = Pcg64::seed_from_u64(0xA0D17 + trial);
            let tamper = TAMPERS[(trial as usize) % TAMPERS.len()];
            let inst = workload(100 + trial);
            let law = PowerLaw::cube();
            let run = run_c(&inst, law).expect("clean run");
            let reported = Evaluated { objective: run.objective, per_job: run.per_job };

            // The untampered run must pass — otherwise the trial proves
            // nothing about the tampering.
            let clean = auditor.audit(&inst, &run.schedule, &reported);
            if !clean.passed() {
                return Err(format!("trial {trial}: clean run failed its audit:\n{clean}"));
            }
            let Some((schedule, reported)) = apply(tamper, &mut rng, &run.schedule, &reported)
            else {
                return Ok((tamper, Vec::new())); // shape couldn't host it
            };
            let report = auditor.audit(&inst, &schedule, &reported);
            let tripped: Vec<&'static str> =
                report.failures().iter().map(|c| c.name).collect();
            if tripped.is_empty() {
                return Err(format!(
                    "trial {trial}: tampering {tamper:?} slipped past the auditor:\n{report}"
                ));
            }
            Ok((tamper, tripped))
        });

    let mut violations = Vec::new();
    let mut caught: Vec<(Tamper, Vec<&'static str>)> = Vec::new();
    for outcome in outcomes {
        match outcome {
            Ok((tamper, tripped)) if !tripped.is_empty() => caught.push((tamper, tripped)),
            Ok(_) => {}
            Err(msg) => violations.push(msg),
        }
    }
    assert!(violations.is_empty(), "{}", violations.join("\n"));

    // Every tampering kind must have been exercised at least once, and the
    // suite as a whole must reach the three core re-derivation checks.
    for tamper in TAMPERS {
        assert!(
            caught.iter().any(|(t, _)| *t == tamper),
            "no trial exercised {tamper:?} — tampering coverage regressed"
        );
    }
    for check in ["volume-conservation", "completion-consistency", "energy-recomputed"] {
        assert!(
            caught.iter().any(|(_, tripped)| tripped.contains(&check)),
            "no tampering tripped {check}"
        );
    }
}

#[test]
fn duplicated_fleet_timelines_trip_the_cross_machine_auditor() {
    // Two machines both claiming the whole single-machine timeline: the
    // same job is served twice in parallel and twice the volume arrives.
    let inst = workload(7);
    let run = run_c(&inst, PowerLaw::cube()).expect("clean run");
    let reported = Evaluated { objective: run.objective, per_job: run.per_job };
    let fleet = vec![run.schedule.clone(), run.schedule];
    let report = MultiAudit::new(AuditConfig::default()).audit(&inst, &fleet, &reported);
    assert!(!report.passed());
    let tripped: Vec<&'static str> = report.failures().iter().map(|c| c.name).collect();
    assert!(
        tripped.contains(&"no-double-service"),
        "expected no-double-service among {tripped:?}"
    );
    assert!(
        tripped.contains(&"cross-machine-volume"),
        "expected cross-machine-volume among {tripped:?}"
    );
}

// ---------------------------------------------------------------------------
// Replay == reference parity
// ---------------------------------------------------------------------------

/// α grid for the parity matrix — sub-quadratic, quadratic, super-quadratic.
const PARITY_ALPHAS: [f64; 3] = [1.5, 2.0, 2.75];

/// Release-ordered workload suites spanning uniform, skewed-density, and
/// bursty arrivals.
fn parity_suites() -> Vec<(&'static str, Instance)> {
    let uniform = workload(21);
    let mut spec = WorkloadSpec::uniform(8, 0.9, VolumeDist::Exponential { mean: 1.0 });
    spec.densities = DensityDist::LogUniform { lo: 0.25, hi: 4.0 };
    let nonuniform = spec.generate(23).expect("nonuniform suite");
    let bursty = WorkloadSpec::uniform(10, 2.5, VolumeDist::Uniform { lo: 0.2, hi: 2.2 })
        .generate(29)
        .expect("bursty suite");
    vec![("uniform", uniform), ("nonuniform", nonuniform), ("bursty", bursty)]
}

/// Two residuals "agree" when they are bitwise equal, both non-finite, or
/// within an order of magnitude of each other (a tampered run may move a
/// residual by fold-order differences, never by a magnitude of wrongness).
fn residuals_same_order(a: f64, b: f64) -> bool {
    if a.to_bits() == b.to_bits() {
        return true;
    }
    if !a.is_finite() || !b.is_finite() {
        return !a.is_finite() && !b.is_finite();
    }
    let (lo, hi) = if a.abs() <= b.abs() { (a.abs(), b.abs()) } else { (b.abs(), a.abs()) };
    lo > 0.0 && hi / lo <= 10.0
}

/// Name-by-name parity: same checks in the same order, same verdicts,
/// residuals of the same order (bitwise when `strict_bits`).
fn assert_parity(expected: &AuditReport, replayed: &AuditReport, context: &str, strict_bits: bool) {
    assert_eq!(expected.checks.len(), replayed.checks.len(), "{context}: check count");
    for (b, i) in expected.checks.iter().zip(&replayed.checks) {
        assert_eq!(b.name, i.name, "{context}: check order");
        assert_eq!(b.passed, i.passed, "{context}: {} verdict (reference {:?} vs replay {:?})",
            b.name, b, i);
        if strict_bits {
            assert_eq!(
                b.residual.to_bits(),
                i.residual.to_bits(),
                "{context}: {} residual reference {:e} vs replay {:e}",
                b.name,
                b.residual,
                i.residual
            );
        } else {
            assert!(
                residuals_same_order(b.residual, i.residual),
                "{context}: {} residual order diverged: reference {:e} vs replay {:e}",
                b.name,
                b.residual,
                i.residual
            );
        }
    }
}

#[test]
fn incremental_and_batch_verdicts_agree_across_tamper_matrix() {
    // One pool shard per (α, suite) cell; each cell audits the honest run
    // plus every tamper kind through the reference and the replay and
    // returns violations.
    let suites = parity_suites();
    let cells: Vec<(usize, usize)> = (0..PARITY_ALPHAS.len())
        .flat_map(|a| (0..suites.len()).map(move |s| (a, s)))
        .collect();

    let outcomes: Vec<Result<Vec<Tamper>, String>> = Pool::auto().map(&cells, |&(ai, si)| {
        let alpha = PARITY_ALPHAS[ai];
        let (suite, inst) = &suites[si];
        let ctx = |what: &str| format!("α={alpha} suite={suite} {what}");
        let law = PowerLaw::new(alpha).expect("valid alpha");
        let run = run_c(inst, law).map_err(|e| ctx(&format!("run failed: {e}")))?;
        let reported = Evaluated { objective: run.objective, per_job: run.per_job };
        let config = AuditConfig::default();
        let audit_both = |schedule: &Schedule, reported: &Evaluated| {
            let expected = reference::audit_schedule(inst, schedule, reported, config);
            (expected, ScheduleAudit::new(config).audit(inst, schedule, reported))
        };

        // Honest runs must pass both with bitwise-equal residuals.
        let (expected, replayed) = audit_both(&run.schedule, &reported);
        if !expected.passed() {
            return Err(ctx(&format!("honest run failed the reference audit:\n{expected}")));
        }
        if !replayed.passed() {
            return Err(ctx(&format!("honest run failed the replayed audit:\n{replayed}")));
        }
        assert_parity(&expected, &replayed, &ctx("honest"), true);

        // Every tamper kind the run's shape can host must trip identically.
        let mut exercised = Vec::new();
        let mut rng = Pcg64::seed_from_u64(0x1AC5 + (ai as u64) * 31 + si as u64);
        for tamper in TAMPERS {
            let Some((schedule, reported)) = apply(tamper, &mut rng, &run.schedule, &reported)
            else {
                continue;
            };
            let (expected, replayed) = audit_both(&schedule, &reported);
            if expected.passed() != replayed.passed() {
                return Err(ctx(&format!(
                    "{tamper:?}: reference passed={} but replay passed={}\n{expected}\n{replayed}",
                    expected.passed(),
                    replayed.passed()
                )));
            }
            assert_parity(&expected, &replayed, &ctx(&format!("{tamper:?}")), false);
            if !expected.passed() {
                exercised.push(tamper);
            }
        }
        Ok(exercised)
    });

    let mut violations = Vec::new();
    let mut tripped: Vec<Tamper> = Vec::new();
    for outcome in outcomes {
        match outcome {
            Ok(mut kinds) => tripped.append(&mut kinds),
            Err(msg) => violations.push(msg),
        }
    }
    assert!(violations.is_empty(), "{}", violations.join("\n"));
    for tamper in TAMPERS {
        assert!(
            tripped.contains(&tamper),
            "no matrix cell tripped {tamper:?} through both audits — coverage regressed"
        );
    }
}

#[test]
fn incremental_multi_matches_batch_multi_on_duplicated_fleet() {
    // Same duplicated-fleet corruption as the cross-machine test, through
    // the reference and the replay: the verdict sheet must carry the same
    // names, order, and pass/fail.
    let inst = workload(7);
    let law = PowerLaw::cube();
    let run = run_c(&inst, law).expect("clean run");
    let reported = Evaluated { objective: run.objective, per_job: run.per_job };
    let fleet = vec![run.schedule.clone(), run.schedule.clone()];

    let config = AuditConfig::default();
    let expected = reference::audit_fleet(&inst, &fleet, &reported, config);
    let replayed = MultiAudit::new(config).audit(&inst, &fleet, &reported);

    assert!(!expected.passed() && !replayed.passed(), "duplication must trip both audits");
    assert_fleet_parity(&expected, &replayed, "duplicated fleet");
    let expected_failed: Vec<&str> = expected.failures().iter().map(|c| c.name).collect();
    let replayed_failed: Vec<&str> = replayed.failures().iter().map(|c| c.name).collect();
    assert_eq!(expected_failed, replayed_failed, "failure sets must match");
}

/// A wide fleet's tamperings: each corrupts one machine's timeline.
#[derive(Debug, Clone, Copy)]
enum FleetTamper {
    /// Run one serving segment 1.5× too fast.
    ScaleSpeed,
    /// Shift a whole machine timeline earlier: its end time decreases and
    /// its first job is served before release.
    ShiftEarlier,
    /// Replace a machine's last segment by a sliver that ends *before* the
    /// segment preceding it (inside `Schedule::new`'s slack): the machine's
    /// end time goes down along its own timeline, and the job it served
    /// loses its volume.
    EndBeforePrevious,
    /// Copy a busy machine's timeline onto an idle machine.
    CopyToIdle,
}

fn tamper_fleet(tamper: FleetTamper, schedules: &[Schedule]) -> Vec<Schedule> {
    let mut fleet = schedules.to_vec();
    let busiest = (0..fleet.len()).max_by_key(|&m| fleet[m].segments().len()).unwrap();
    let law = fleet[busiest].power_law();
    let mut segs = fleet[busiest].segments().to_vec();
    let mid = segs.len() / 2;
    match tamper {
        FleetTamper::ScaleSpeed => segs[mid].scale *= 1.5,
        FleetTamper::ShiftEarlier => {
            let shift = 0.5 * segs[0].duration();
            for s in &mut segs {
                s.start -= shift;
                s.end -= shift;
            }
        }
        FleetTamper::EndBeforePrevious => {
            let prev_end = segs[segs.len() - 2].end;
            let sliver = 1e-13 * prev_end.abs().min(1.0);
            let last = segs.last_mut().unwrap();
            (last.start, last.end) = (prev_end - 2.0 * sliver, prev_end - sliver);
        }
        FleetTamper::CopyToIdle => {
            let idle = fleet.iter().rposition(|s| s.segments().is_empty()).unwrap();
            fleet[idle] = fleet[busiest].clone();
        }
    }
    fleet[busiest] = Schedule::new(law, segs).expect("tampered timeline stays a schedule");
    fleet
}

/// Fleet parity: same checks, order and verdicts; each residual of the
/// same order as the reference one, or within the `1e-12` by which the
/// fleet auditor's per-machine quadrature sampling may move it (see
/// `IncrementalMultiAudit`).
fn assert_fleet_parity(expected: &AuditReport, replayed: &AuditReport, context: &str) {
    assert_eq!(expected.checks.len(), replayed.checks.len(), "{context}: check count");
    for (b, i) in expected.checks.iter().zip(&replayed.checks) {
        assert_eq!((b.name, b.passed), (i.name, i.passed), "{context}: verdict\n{expected}\n{replayed}");
        assert!(
            residuals_same_order(b.residual, i.residual) || (b.residual - i.residual).abs() <= 1e-12,
            "{context}: {} residual reference {:e} vs replay {:e}",
            b.name,
            b.residual,
            i.residual
        );
    }
}

#[test]
fn incremental_multi_matches_batch_multi_on_a_wide_fleet() {
    // 512 machines, a few dozen busy: the fleet auditor's per-event cost
    // must not scan the idle ones, and its verdicts must stay the
    // reference's, honest or tampered.
    let inst = WorkloadSpec::uniform(240, 10.0, VolumeDist::Exponential { mean: 1.0 })
        .generate(41)
        .expect("wide-fleet workload");
    let law = PowerLaw::new(2.5).unwrap();
    let config = AuditConfig::default();
    for (name, out) in [
        ("C-PAR", ncss::multi::run_c_par(&inst, law, 512).unwrap()),
        ("NC-PAR", ncss::multi::run_nc_par(&inst, law, 512).unwrap()),
    ] {
        let reported = Evaluated { objective: out.objective, per_job: out.per_job.clone() };
        let audit_both = |schedules: &[Schedule]| {
            let expected = reference::audit_fleet(&inst, schedules, &reported, config);
            let fleet = ncss::multi::ParOutcome { schedules: schedules.to_vec(), ..out.clone() };
            let replayed = ncss::multi::audit_fleet(&inst, law, &fleet, config);
            (expected, replayed)
        };
        let (expected, replayed) = audit_both(&out.schedules);
        assert!(expected.passed() && replayed.passed(), "{name} honest:\n{expected}\n{replayed}");
        assert_fleet_parity(&expected, &replayed, &format!("{name} honest"));

        for tamper in [
            FleetTamper::ScaleSpeed,
            FleetTamper::ShiftEarlier,
            FleetTamper::EndBeforePrevious,
            FleetTamper::CopyToIdle,
        ] {
            let (expected, replayed) = audit_both(&tamper_fleet(tamper, &out.schedules));
            let ctx = format!("{name} {tamper:?}");
            assert!(!expected.passed(), "{ctx}: tampering went unnoticed\n{expected}");
            assert_fleet_parity(&expected, &replayed, &ctx);
        }
    }
}
