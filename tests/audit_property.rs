//! Property tests for the audit layer itself.
//!
//! Two contracts:
//!
//! * **Tamper sensitivity** — a seeded tamperer perturbs known-good runs
//!   (segment shifts, speed scalings, dropped segments, completion swaps,
//!   objective edits) and every tampering must trip at least one *named*
//!   check. Trials shard over `ncss-pool`, the same worker pool the audits
//!   themselves use.
//! * **Serial == parallel determinism** — auditing with one worker and with
//!   many workers must produce bit-identical verdicts: same check names in
//!   the same order, same pass/fail, same residual bits, same detail text.
//!   Only the wall-clock `elapsed_ns` fields may differ.
//! * **Incremental == batch parity** — feeding the same run through the
//!   event-driven [`IncrementalAudit`] must reproduce the batch auditor's
//!   verdicts: identical check names in identical order, identical
//!   pass/fail, honest residuals bitwise equal, and every tampered
//!   residual within an order of magnitude across the full
//!   tamper × workload-suite × α matrix.

use ncss::audit::{
    AuditConfig, AuditReport, IncrementalAudit, IncrementalMultiAudit, MultiAudit, ScheduleAudit,
};
use ncss::core::run_c;
use ncss::pool::Pool;
use ncss::sim::{Evaluated, Instance, Job, Objective, PerJob, PowerLaw, Schedule, Segment};
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

/// Everything observable except wall-time must match bit-for-bit.
fn assert_reports_identical(serial: &AuditReport, parallel: &AuditReport, context: &str) {
    assert_eq!(serial.checks.len(), parallel.checks.len(), "{context}: check count");
    for (s, p) in serial.checks.iter().zip(&parallel.checks) {
        assert_eq!(s.name, p.name, "{context}: check order");
        assert_eq!(s.passed, p.passed, "{context}: {} verdict", s.name);
        assert_eq!(
            s.residual.to_bits(),
            p.residual.to_bits(),
            "{context}: {} residual {} vs {}",
            s.name,
            s.residual,
            p.residual
        );
        assert_eq!(s.detail, p.detail, "{context}: {} detail", s.name);
    }
}

#[test]
fn serial_and_parallel_audits_are_bit_identical() {
    let serial_cfg = AuditConfig { threads: Some(1), ..AuditConfig::default() };
    let parallel_cfg = AuditConfig { threads: Some(8), ..AuditConfig::default() };

    for seed in [3u64, 11, 29] {
        let inst = workload(seed);
        let law = PowerLaw::cube();
        let run = run_c(&inst, law).expect("clean run");
        let reported = Evaluated { objective: run.objective, per_job: run.per_job.clone() };

        // Single-machine audit, clean and tampered (tampered residuals are
        // large and must still agree exactly).
        let mut rng = Pcg64::seed_from_u64(seed);
        let cases = std::iter::once((run.schedule.clone(), reported.clone())).chain(
            TAMPERS
                .iter()
                .filter_map(|&t| apply(t, &mut rng, &run.schedule, &reported)),
        );
        for (i, (schedule, reported)) in cases.enumerate() {
            let s = ScheduleAudit::new(serial_cfg).audit(&inst, &schedule, &reported);
            let p = ScheduleAudit::new(parallel_cfg).audit(&inst, &schedule, &reported);
            assert_reports_identical(&s, &p, &format!("seed {seed} case {i}"));
        }

        // Cross-machine audit over a duplicated fleet (a failing case with
        // every check exercised).
        let fleet = vec![run.schedule.clone(), run.schedule.clone()];
        let s = MultiAudit::new(serial_cfg).audit(&inst, &fleet, &reported);
        let p = MultiAudit::new(parallel_cfg).audit(&inst, &fleet, &reported);
        assert_reports_identical(&s, &p, &format!("seed {seed} fleet"));
    }
}

// ---------------------------------------------------------------------------
// Incremental == batch parity
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

/// Feed a finished run through a fresh incremental auditor in event order:
/// releases by job id, segments in schedule order, completions by job id.
fn incremental_report(
    law: PowerLaw,
    jobs: &[Job],
    segments: &[Segment],
    per_job: &PerJob,
    objective: &Objective,
) -> AuditReport {
    let mut audit = IncrementalAudit::new(law, AuditConfig::default());
    for (id, job) in jobs.iter().enumerate() {
        audit.on_release(id, *job);
    }
    for seg in segments {
        let _ = audit.on_segment(*seg);
    }
    for j in 0..jobs.len() {
        let _ = audit.on_complete(
            j,
            per_job.completion.get(j).copied().unwrap_or(f64::NAN),
            per_job.frac_flow.get(j).copied().unwrap_or(f64::NAN),
            per_job.int_flow.get(j).copied().unwrap_or(f64::NAN),
        );
    }
    audit.finalize(objective)
}

/// Two residuals "agree" when they are bitwise equal, both non-finite, or
/// within an order of magnitude of each other (the incremental path is
/// allowed last-ulp divergence from fold-order differences, never a
/// different magnitude of wrongness).
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
fn assert_parity(batch: &AuditReport, inc: &AuditReport, context: &str, strict_bits: bool) {
    assert_eq!(batch.checks.len(), inc.checks.len(), "{context}: check count");
    for (b, i) in batch.checks.iter().zip(&inc.checks) {
        assert_eq!(b.name, i.name, "{context}: check order");
        assert_eq!(b.passed, i.passed, "{context}: {} verdict (batch {:?} vs inc {:?})",
            b.name, b, i);
        if strict_bits {
            assert_eq!(
                b.residual.to_bits(),
                i.residual.to_bits(),
                "{context}: {} residual batch {:e} vs incremental {:e}",
                b.name,
                b.residual,
                i.residual
            );
        } else {
            assert!(
                residuals_same_order(b.residual, i.residual),
                "{context}: {} residual order diverged: batch {:e} vs incremental {:e}",
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
    // plus every tamper kind through both auditors and returns violations.
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
        let batch_auditor = ScheduleAudit::new(AuditConfig::default());

        // Honest runs must pass both auditors with bitwise-equal residuals.
        let batch = batch_auditor.audit(inst, &run.schedule, &reported);
        let inc = incremental_report(
            law,
            inst.jobs(),
            run.schedule.segments(),
            &reported.per_job,
            &reported.objective,
        );
        if !batch.passed() {
            return Err(ctx(&format!("honest run failed batch audit:\n{batch}")));
        }
        if !inc.passed() {
            return Err(ctx(&format!("honest run failed incremental audit:\n{inc}")));
        }
        assert_parity(&batch, &inc, &ctx("honest"), true);

        // Every tamper kind the run's shape can host must trip identically.
        let mut exercised = Vec::new();
        let mut rng = Pcg64::seed_from_u64(0x1AC5 + (ai as u64) * 31 + si as u64);
        for tamper in TAMPERS {
            let Some((schedule, reported)) = apply(tamper, &mut rng, &run.schedule, &reported)
            else {
                continue;
            };
            let batch = batch_auditor.audit(inst, &schedule, &reported);
            let inc = incremental_report(
                law,
                inst.jobs(),
                schedule.segments(),
                &reported.per_job,
                &reported.objective,
            );
            if batch.passed() != inc.passed() {
                return Err(ctx(&format!(
                    "{tamper:?}: batch passed={} but incremental passed={}\n{batch}\n{inc}",
                    batch.passed(),
                    inc.passed()
                )));
            }
            assert_parity(&batch, &inc, &ctx(&format!("{tamper:?}")), false);
            if !batch.passed() {
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
            "no matrix cell tripped {tamper:?} through both auditors — coverage regressed"
        );
    }
}

#[test]
fn incremental_multi_matches_batch_multi_on_duplicated_fleet() {
    // Same duplicated-fleet corruption as the batch cross-machine test,
    // replayed through the event-driven fleet auditor: the verdict sheet
    // must carry the same names, order, and pass/fail.
    let inst = workload(7);
    let law = PowerLaw::cube();
    let run = run_c(&inst, law).expect("clean run");
    let reported = Evaluated { objective: run.objective, per_job: run.per_job };
    let fleet = vec![run.schedule.clone(), run.schedule.clone()];

    let batch = MultiAudit::new(AuditConfig::default()).audit(&inst, &fleet, &reported);
    let mut audit = IncrementalMultiAudit::new(vec![law; fleet.len()], AuditConfig::default());
    for (id, job) in inst.jobs().iter().enumerate() {
        audit.on_release(id, *job);
    }
    for (m, schedule) in fleet.iter().enumerate() {
        for seg in schedule.segments() {
            let _ = audit.on_segment(m, *seg);
        }
    }
    for j in 0..inst.jobs().len() {
        let _ = audit.on_complete(
            j,
            reported.per_job.completion[j],
            reported.per_job.frac_flow[j],
            reported.per_job.int_flow[j],
        );
    }
    let inc = audit.finalize(&reported.objective);

    assert!(!batch.passed() && !inc.passed(), "duplication must trip both auditors");
    assert_parity(&batch, &inc, "duplicated fleet", false);
    let batch_failed: Vec<&str> = batch.failures().iter().map(|c| c.name).collect();
    let inc_failed: Vec<&str> = inc.failures().iter().map(|c| c.name).collect();
    assert_eq!(batch_failed, inc_failed, "failure sets must match");
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
/// same order as the batch one, or within the `1e-12` by which the fleet
/// auditor's per-machine quadrature sampling may move it (see
/// `IncrementalMultiAudit`).
fn assert_fleet_parity(batch: &AuditReport, inc: &AuditReport, context: &str) {
    assert_eq!(batch.checks.len(), inc.checks.len(), "{context}: check count");
    for (b, i) in batch.checks.iter().zip(&inc.checks) {
        assert_eq!((b.name, b.passed), (i.name, i.passed), "{context}: verdict\n{batch}\n{inc}");
        assert!(
            residuals_same_order(b.residual, i.residual) || (b.residual - i.residual).abs() <= 1e-12,
            "{context}: {} residual batch {:e} vs incremental {:e}",
            b.name,
            b.residual,
            i.residual
        );
    }
}

#[test]
fn incremental_multi_matches_batch_multi_on_a_wide_fleet() {
    // 512 machines, a few dozen busy: the fleet auditor's per-event cost
    // must not scan the idle ones, and its verdicts must stay the batch
    // pass's, honest or tampered.
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
            let batch = MultiAudit::new(config).audit(&inst, schedules, &reported);
            let fleet = ncss::multi::ParOutcome { schedules: schedules.to_vec(), ..out.clone() };
            let inc = ncss::multi::audit_fleet(&inst, law, &fleet, config);
            (batch, inc)
        };
        let (batch, inc) = audit_both(&out.schedules);
        assert!(batch.passed() && inc.passed(), "{name} honest:\n{batch}\n{inc}");
        assert_fleet_parity(&batch, &inc, &format!("{name} honest"));

        for tamper in [
            FleetTamper::ScaleSpeed,
            FleetTamper::ShiftEarlier,
            FleetTamper::EndBeforePrevious,
            FleetTamper::CopyToIdle,
        ] {
            let (batch, inc) = audit_both(&tamper_fleet(tamper, &out.schedules));
            let ctx = format!("{name} {tamper:?}");
            assert!(!batch.passed(), "{ctx}: tampering went unnoticed\n{batch}");
            assert_fleet_parity(&batch, &inc, &ctx);
        }
    }
}
