//! An independent serial reference for the multi-machine runners.
//!
//! Every runner in `ncss_multi` builds a `DispatchLog` and replays it over
//! the worker pool. This file keeps the direct serial loops those runners
//! used to be, written against the single-machine algorithms only:
//!
//! * C-PAR: the greedy least-remaining-weight rule, re-running Algorithm C
//!   on each machine's jobs for every arrival (no cache), then Algorithm C
//!   per machine, objectives folded in machine order;
//! * NC-PAR: the global FIFO loop serving each job on the growth-law curve
//!   from `K_j` over its machine's history, energy accumulated in job order;
//! * immediate dispatch: Algorithm NC per machine under a fixed assignment.
//!
//! The log path must reproduce them bit for bit, serial and sharded, over
//! k ∈ {1, 2, 7} × α ∈ {2, 2.75} × a uniform suite and a tie-heavy suite,
//! and over cases aimed at the dispatchers' machine indexes: wide fleets
//! (k ∈ {64, 512}), batches of simultaneous releases, a machine whose C run
//! ends exactly at the next release, and C-PAR over mixed densities.
//! Both dispatchers compare with a slack of `1e-12`, relative below
//! magnitude 1, as the runners do.

use ncss::core::nc_uniform::base_power_over_history;
use ncss::core::{run_c, run_nc_uniform};
use ncss::multi::fleet::{run_c_par_sharded, run_nc_par_sharded};
use ncss::multi::{
    collect_assignment, run_c_par, run_immediate_dispatch, run_nc_par, run_nc_with_assignment,
    ParOutcome, RoundRobin,
};
use ncss::pool::Pool;
use ncss::sim::kernel::GrowthKernel;
use ncss::sim::{
    Instance, Job, Objective, PerJob, PowerLaw, Schedule, ScheduleBuilder, Segment, SimResult,
    SpeedLaw,
};
use ncss::workloads::suite::uniform_suite;
use ncss::workloads::{DensityDist, VolumeDist, WorkloadSpec};

const KS: [usize; 3] = [1, 2, 7];
const ALPHAS: [f64; 2] = [2.0, 2.75];

fn slack(x: f64) -> f64 {
    1e-12 * x.abs().min(1.0)
}

fn uniform() -> Vec<Instance> {
    uniform_suite(41).into_iter().step_by(7).collect()
}

/// Bursty arrivals with releases quantised onto a coarse grid: exact ties
/// exercise the dispatchers' tie-breaks and the same-instant `K_j` term.
/// The first instance makes NC-PAR use its availability slack: machine 1
/// frees less than `1e-12` before machine 0, so job 2 goes to machine 0
/// (with two or more machines).
fn tie_heavy() -> Vec<Instance> {
    let slack_case = [(0.0, 1.0), (0.0, 1.0 - 1e-13), (0.1, 0.5), (0.1, 0.5)];
    let slack_case = slack_case.iter().map(|&(r, v)| Job::unit_density(r, v)).collect();
    let slack_case = Instance::new(slack_case).expect("slack instance");
    let grids = [(9usize, 3u64), (26, 5), (40, 8)]
        .into_iter()
        .map(|(n, seed)| {
            let dist = VolumeDist::Bimodal { small: 0.05, large: 4.0, p_large: 0.2 };
            let inst = WorkloadSpec::uniform(n, 6.0, dist).generate(seed).expect("spec");
            let jobs = inst
                .jobs()
                .iter()
                .map(|j| Job::unit_density((j.release * 2.0).floor() / 2.0, j.volume))
                .collect();
            Instance::new(jobs).expect("tie-heavy instance")
        });
    std::iter::once(slack_case).chain(grids).collect()
}

/// Run `run` on each machine's jobs under `assignment`, folding objectives
/// machine by machine and relabelling segments to original job ids.
fn split_run_merge(
    inst: &Instance,
    assignment: Vec<usize>,
    k: usize,
    run: impl Fn(&Instance) -> SimResult<(Objective, PerJob, Schedule)>,
) -> ParOutcome {
    let n = inst.len();
    let mut objective = Objective::default();
    let mut per_job = PerJob {
        completion: vec![f64::NAN; n],
        frac_flow: vec![0.0; n],
        int_flow: vec![0.0; n],
    };
    let mut schedules = Vec::new();
    for m in 0..k {
        let ids: Vec<usize> = (0..n).filter(|&j| assignment[j] == m).collect();
        let part = Instance::new(ids.iter().map(|&j| *inst.job(j)).collect()).unwrap();
        let (o, pj, schedule) = run(&part).unwrap();
        objective.energy += o.energy;
        objective.frac_flow += o.frac_flow;
        objective.int_flow += o.int_flow;
        for (local, &j) in ids.iter().enumerate() {
            per_job.completion[j] = pj.completion[local];
            per_job.frac_flow[j] = pj.frac_flow[local];
            per_job.int_flow[j] = pj.int_flow[local];
        }
        let segments = schedule
            .segments()
            .iter()
            .map(|s| Segment { job: s.job.map(|local| ids[local]), ..*s })
            .collect();
        schedules.push(Schedule::new(schedule.power_law(), segments).unwrap());
    }
    ParOutcome { assignment, objective, per_job, schedules }
}

fn reference_c_par(inst: &Instance, law: PowerLaw, k: usize) -> ParOutcome {
    let mut assigned: Vec<Vec<Job>> = vec![Vec::new(); k];
    let mut assignment = Vec::new();
    for job in inst.jobs() {
        let (mut best, mut best_w) = (0, f64::INFINITY);
        for (m, jobs) in assigned.iter().enumerate() {
            let before = if jobs.is_empty() {
                0.0
            } else {
                let machine = Instance::new(jobs.clone()).unwrap();
                run_c(&machine, law).unwrap().remaining_weight_before(job.release)
            };
            let ties: f64 =
                jobs.iter().filter(|i| i.release == job.release).map(Job::weight).sum();
            let w = before + ties;
            if w < best_w - slack(best_w) {
                (best, best_w) = (m, w);
            }
        }
        assignment.push(best);
        assigned[best].push(*job);
    }
    split_run_merge(inst, assignment, k, |part| {
        run_c(part, law).map(|r| (r.objective, r.per_job, r.schedule))
    })
}

fn reference_nc_par(inst: &Instance, law: PowerLaw, k: usize) -> ParOutcome {
    let n = inst.len();
    let mut assignment = vec![0; n];
    let mut avail = vec![0.0f64; k];
    let mut assigned: Vec<Vec<Job>> = vec![Vec::new(); k];
    let mut builders: Vec<ScheduleBuilder> = (0..k).map(|_| ScheduleBuilder::new(law)).collect();
    let mut completion = vec![f64::NAN; n];
    let mut frac_flow = vec![0.0; n];
    let mut int_flow = vec![0.0; n];
    let mut energy = 0.0;
    for (j, job) in inst.jobs().iter().enumerate() {
        let earliest = avail.iter().copied().fold(f64::INFINITY, f64::min);
        let start = job.release.max(earliest);
        let m = (0..k).find(|&m| avail[m] <= start + slack(start)).unwrap();
        assignment[j] = m;
        let k_j = base_power_over_history(&assigned[m], job.release, law).unwrap();
        let rho = job.density;
        let kernel = GrowthKernel { law, u0: k_j, rho };
        let tau = kernel.time_to_volume(job.volume);
        assert!(tau.is_finite());
        energy += kernel.energy(tau);
        frac_flow[j] = rho * job.volume * (start - job.release)
            + rho * (job.volume * tau - kernel.volume_integral(tau));
        completion[j] = start + tau;
        int_flow[j] = job.weight() * (completion[j] - job.release);
        let law = SpeedLaw::Growth { u0: k_j, rho };
        builders[m].push(Segment::new(start, completion[j], Some(j), law));
        avail[m] = completion[j];
        assigned[m].push(*job);
    }
    let objective = Objective {
        energy,
        frac_flow: frac_flow.iter().sum(),
        int_flow: int_flow.iter().sum(),
    };
    ParOutcome {
        assignment,
        objective,
        per_job: PerJob { completion, frac_flow, int_flow },
        schedules: builders.into_iter().map(|b| b.build().unwrap()).collect(),
    }
}

#[track_caller]
fn assert_bitwise(want: &ParOutcome, got: &ParOutcome, ctx: &str) {
    assert_eq!(want.assignment, got.assignment, "{ctx}: assignment");
    let (w, g) = (&want.objective, &got.objective);
    for (what, a, b) in [
        ("energy", w.energy, g.energy),
        ("frac_flow", w.frac_flow, g.frac_flow),
        ("int_flow", w.int_flow, g.int_flow),
    ] {
        assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: objective {what} {a:?} vs {b:?}");
    }
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&want.per_job.completion), bits(&got.per_job.completion), "{ctx}: completions");
    assert_eq!(bits(&want.per_job.frac_flow), bits(&got.per_job.frac_flow), "{ctx}: frac flows");
    assert_eq!(bits(&want.per_job.int_flow), bits(&got.per_job.int_flow), "{ctx}: int flows");
    assert_eq!(want.schedules.len(), got.schedules.len(), "{ctx}: machine count");
    for (m, (a, b)) in want.schedules.iter().zip(&got.schedules).enumerate() {
        assert_eq!(a.segments(), b.segments(), "{ctx}: machine {m} timeline");
    }
}

/// Every instance of both suites at every (k, α) of the matrix.
fn matrix(mut check: impl FnMut(&Instance, PowerLaw, usize, &str)) {
    for (name, suite) in [("uniform", uniform()), ("tie-heavy", tie_heavy())] {
        for (i, inst) in suite.iter().enumerate() {
            for alpha in ALPHAS {
                let law = PowerLaw::new(alpha).unwrap();
                for k in KS {
                    check(inst, law, k, &format!("{name}#{i} n={} k={k} a={alpha}", inst.len()));
                }
            }
        }
    }
}

#[test]
fn c_par_matches_the_uncached_serial_reference() {
    let pools = [Pool::with_threads(1), Pool::with_threads(3)];
    matrix(|inst, law, k, ctx| {
        let want = reference_c_par(inst, law, k);
        assert_bitwise(&want, &run_c_par(inst, law, k).unwrap(), ctx);
        for pool in &pools {
            let got = run_c_par_sharded(inst, law, k, pool).unwrap();
            assert_bitwise(&want, &got, &format!("{ctx} sharded"));
        }
    });
}

#[test]
fn nc_par_matches_the_serial_fifo_reference() {
    let pools = [Pool::with_threads(1), Pool::with_threads(3)];
    matrix(|inst, law, k, ctx| {
        let want = reference_nc_par(inst, law, k);
        assert_bitwise(&want, &run_nc_par(inst, law, k).unwrap(), ctx);
        for pool in &pools {
            let got = run_nc_par_sharded(inst, law, k, pool).unwrap();
            assert_bitwise(&want, &got, &format!("{ctx} sharded"));
        }
    });
}

#[test]
fn immediate_dispatch_matches_per_machine_nc() {
    matrix(|inst, law, k, ctx| {
        let assignment = collect_assignment(inst, k, &mut RoundRobin::default());
        let want = split_run_merge(inst, assignment.clone(), k, |part| {
            run_nc_uniform(part, law).map(|r| (r.objective, r.per_job, r.schedule))
        });
        let got = run_immediate_dispatch(inst, law, k, &mut RoundRobin::default()).unwrap();
        assert_bitwise(&want, &got, ctx);
        let fixed = run_nc_with_assignment(inst, law, &assignment, k).unwrap();
        assert_bitwise(&want, &fixed, &format!("{ctx} fixed"));
    });
}

/// Check both dispatchers (C-PAR only when densities differ) against the
/// serial references, bit for bit, serial and sharded.
fn check_both(inst: &Instance, law: PowerLaw, k: usize, ctx: &str) {
    let pool = Pool::with_threads(3);
    let want = reference_c_par(inst, law, k);
    assert_bitwise(&want, &run_c_par(inst, law, k).unwrap(), &format!("{ctx} C-PAR"));
    let got = run_c_par_sharded(inst, law, k, &pool).unwrap();
    assert_bitwise(&want, &got, &format!("{ctx} C-PAR sharded"));
    if inst.is_uniform_density() {
        let want = reference_nc_par(inst, law, k);
        assert_bitwise(&want, &run_nc_par(inst, law, k).unwrap(), &format!("{ctx} NC-PAR"));
        let got = run_nc_par_sharded(inst, law, k, &pool).unwrap();
        assert_bitwise(&want, &got, &format!("{ctx} NC-PAR sharded"));
    }
}

/// Far more machines than are ever busy: most dispatches go to the lowest
/// drained or never-used machine, which the dispatchers find without
/// scanning the fleet.
#[test]
fn wide_fleets_match_the_serial_references() {
    let dist = VolumeDist::Exponential { mean: 1.0 };
    let insts = [
        WorkloadSpec::uniform(300, 12.0, dist).generate(5).unwrap(),
        WorkloadSpec::uniform(120, 40.0, dist).generate(6).unwrap(),
    ];
    for (i, inst) in insts.iter().enumerate() {
        for alpha in ALPHAS {
            let law = PowerLaw::new(alpha).unwrap();
            for k in [64usize, 512] {
                check_both(inst, law, k, &format!("wide#{i} n={} k={k} a={alpha}", inst.len()));
            }
        }
    }
}

/// Batches of simultaneous releases: every job of a batch meets its
/// machine's same-instant tie weight, and several machines tie at zero.
#[test]
fn simultaneous_batches_match_the_serial_references() {
    let mut jobs = Vec::new();
    for (release, count) in [(0.0, 40usize), (1.5, 25), (1.5 + 1e-13, 3), (9.0, 12)] {
        for i in 0..count {
            jobs.push(Job::unit_density(release, 0.2 + 0.37 * ((i * 7) % 11) as f64));
        }
    }
    let inst = Instance::new(jobs).unwrap();
    for alpha in ALPHAS {
        let law = PowerLaw::new(alpha).unwrap();
        for k in [1usize, 2, 7, 64] {
            check_both(&inst, law, k, &format!("batches k={k} a={alpha}"));
        }
    }
}

/// A machine's C run that ends exactly at the next release: that release
/// reads the last point of the machine's tail, where the weight is 0 or a
/// rounding residue, while other machines are busy or drained.
#[test]
fn a_tail_ending_exactly_at_a_release_matches_the_serial_references() {
    let law = PowerLaw::new(2.0).unwrap();
    // At α = 2 a lone job of volume 4 runs out after exactly 2·√4 = 4 time
    // units, so machine 1's run ends exactly at the release 4.5.
    let jobs = [(0.0, 9.0), (0.5, 4.0), (4.5, 1.0), (4.5, 1.0), (6.0, 2.0), (8.0, 0.5)];
    let inst = Instance::new(jobs.iter().map(|&(r, v)| Job::unit_density(r, v)).collect()).unwrap();
    let c = run_c(&Instance::new(vec![Job::unit_density(0.5, 4.0)]).unwrap(), law).unwrap();
    assert_eq!(c.per_job.completion[0], 4.5, "the lone run must end exactly at 4.5");
    for k in [2usize, 3] {
        check_both(&inst, law, k, &format!("exact tail end k={k}"));
    }
    assert_eq!(run_c_par(&inst, law, 2).unwrap().assignment[..2], [0, 1]);

    // Two jobs share machine 1 (C-PAR at k = 3: machine 2's job outweighs
    // machine 1's when the second one arrives, then drains first). The next
    // release is set to the exact end of machine 1's C run, so the scan
    // meets machine 0 busy, machine 1 at its tail's end and machine 2
    // drained.
    let head = [(0.0, 9.0), (0.5, 2.0), (0.55, 2.5), (0.6, 1.5)];
    let head: Vec<Job> = head.iter().map(|&(r, v)| Job::unit_density(r, v)).collect();
    let first = run_c_par(&Instance::new(head.clone()).unwrap(), law, 3).unwrap();
    assert_eq!(first.assignment, [0, 1, 2, 1]);
    let end = first.schedules[1].end_time();
    assert!(end > first.schedules[2].end_time() && end < first.schedules[0].end_time());
    let mut jobs = head;
    jobs.extend([Job::unit_density(end, 0.7), Job::unit_density(end, 0.2)]);
    let inst = Instance::new(jobs).unwrap();
    for k in [3usize, 4] {
        check_both(&inst, law, k, &format!("exact tail end, shared machine, k={k}"));
    }
}

/// C-PAR's greedy rule reads each machine's remaining *weight*, so
/// densities that differ by job reorder Algorithm C's service (highest
/// density first) on every machine.
#[test]
fn c_par_with_mixed_densities_matches_the_serial_reference() {
    let mut spec = WorkloadSpec::uniform(90, 4.0, VolumeDist::Exponential { mean: 1.0 });
    spec.densities = DensityDist::LogUniform { lo: 0.2, hi: 6.0 };
    let inst = spec.generate(11).unwrap();
    assert!(!inst.is_uniform_density());
    for alpha in ALPHAS {
        let law = PowerLaw::new(alpha).unwrap();
        for k in [1usize, 2, 7, 64] {
            check_both(&inst, law, k, &format!("mixed densities k={k} a={alpha}"));
        }
    }
}
