//! Overlap checks that hold at every time scale.
//!
//! At α = 2, multiplying every volume by `a` and every release by `√a` is
//! an exact change of units: weights and powers scale by `a`, speeds by
//! `√a`, and times by `√a`. An overlap of a thousandth of the horizon is
//! then the same defect at every `a`, and an honest run the same honest
//! run. Both must be judged alike down to `a = 1e-200`, where every time
//! in the run is far below the `1e-12` and `1e-9` absolute floors that
//! `Schedule::new` and the auditors once used.

use ncss::audit::{AuditConfig, IncrementalMultiAudit, MultiAudit};
use ncss::multi::fleet::audit_fleet;
use ncss::multi::{run_c_par, run_nc_par, ParOutcome};
use ncss::sim::{Evaluated, Instance, Job, PowerLaw, Schedule, Segment, SimError};
use ncss::workloads::{VolumeDist, WorkloadSpec};

const SCALES: [f64; 5] = [1.0, 1e-8, 1e-20, 1e-40, 1e-200];

fn law() -> PowerLaw {
    PowerLaw::new(2.0).unwrap()
}

/// A bursty uniform-density instance with a few exact release ties.
fn base() -> Instance {
    let dist = VolumeDist::Bimodal { small: 0.1, large: 2.0, p_large: 0.3 };
    let inst = WorkloadSpec::uniform(24, 3.0, dist).generate(17).unwrap();
    let jobs = inst
        .jobs()
        .iter()
        .map(|j| Job::unit_density((j.release * 4.0).floor() / 4.0, j.volume))
        .collect();
    Instance::new(jobs).unwrap()
}

/// `inst` with volumes scaled by `a` and releases by `√a`.
fn scaled(inst: &Instance, a: f64) -> Instance {
    let jobs = inst
        .jobs()
        .iter()
        .map(|j| Job::unit_density(j.release * a.sqrt(), j.volume * a))
        .collect();
    Instance::new(jobs).unwrap()
}

fn runs(inst: &Instance, k: usize) -> [(&'static str, ParOutcome); 2] {
    [
        ("C-PAR", run_c_par(inst, law(), k).unwrap()),
        ("NC-PAR", run_nc_par(inst, law(), k).unwrap()),
    ]
}

fn horizon(out: &ParOutcome) -> f64 {
    out.schedules.iter().map(Schedule::end_time).fold(0.0, f64::max)
}

/// The checks that compare times against the auditors' time slack.
const TIME_AXIS: [&str; 3] = ["segments-wellformed", "release-before-service", "no-double-service"];

#[test]
fn honest_fleets_pass_the_time_axis_checks_at_every_scale() {
    for a in SCALES {
        let inst = scaled(&base(), a);
        for k in [1usize, 2, 3] {
            // The runners build every machine timeline through
            // `Schedule::new`, so a rejected tie overlap fails the unwrap.
            for (name, out) in runs(&inst, k) {
                let ctx = format!("{name} k={k} a={a:e}");
                assert!(horizon(&out) > 0.0, "{ctx}: empty run");
                let incremental = audit_fleet(&inst, law(), &out, AuditConfig::default());
                let reported = Evaluated { objective: out.objective, per_job: out.per_job };
                let batch =
                    MultiAudit::new(AuditConfig::default()).audit(&inst, &out.schedules, &reported);
                for (b, i) in batch.checks.iter().zip(&incremental.checks) {
                    assert_eq!((b.name, b.passed), (i.name, i.passed), "{ctx}: verdict parity");
                    if TIME_AXIS.contains(&b.name) {
                        assert!(b.passed, "{ctx}: {} failed\n{}", b.name, batch.render());
                    }
                }
                assert!(batch.passed(), "{ctx}\n{}", batch.render());
                assert!(incremental.passed(), "{ctx}\n{}", incremental.render());
            }
        }
    }
}

#[test]
fn an_overlap_of_a_thousandth_of_the_horizon_is_caught_at_every_scale() {
    for a in SCALES {
        let inst = scaled(&base(), a);
        for (name, out) in runs(&inst, 2) {
            let ctx = format!("{name} a={a:e}");
            let h = horizon(&out);
            // Machine 0 serves several jobs; start its second segment a
            // thousandth of the horizon before its first one ends.
            let mut segs = out.schedules[0].segments().to_vec();
            assert!(segs.len() >= 2, "{ctx}: machine 0 serves one segment");
            let (first_end, second) = (segs[0].end, segs[1]);
            let start = first_end - 1e-3 * h;
            segs[1] = Segment { start, end: start + second.duration(), ..second };

            match Schedule::new(law(), segs.clone()) {
                Err(SimError::MalformedSchedule { .. }) => {}
                other => panic!("{ctx}: Schedule::new accepted the overlap: {other:?}"),
            }

            let mut audit = IncrementalMultiAudit::new(vec![law(); 2], AuditConfig::default());
            for (id, job) in inst.jobs().iter().enumerate() {
                audit.on_release(id, *job);
            }
            let mut tripped = Vec::new();
            for seg in &segs {
                tripped.extend(audit.on_segment(0, *seg).map(|t| t.check));
            }
            for seg in out.schedules[1].segments() {
                tripped.extend(audit.on_segment(1, *seg).map(|t| t.check));
            }
            assert!(tripped.contains(&"segments-wellformed"), "{ctx}: no eager trip");
            let pj = &out.per_job;
            for id in 0..inst.len() {
                let _ = audit.on_complete(id, pj.completion[id], pj.frac_flow[id], pj.int_flow[id]);
            }
            let report = audit.finalize(&out.objective);
            assert!(
                report.failures().iter().any(|c| c.name == "segments-wellformed"),
                "{ctx}: overlap passed\n{}",
                report.render()
            );
        }
    }
}
