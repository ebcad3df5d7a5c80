//! Integration tests for Section 6: parallel machines and the
//! immediate-dispatch lower bound.

use ncss::core::theory;
use ncss::multi::{fit_loglog_slope, immediate_dispatch_game, LeastCount, RoundRobin};
use ncss::prelude::*;
use ncss::sim::numeric::rel_diff;
use ncss_rng::props::*;

fn uniform_instance() -> impl Strategy<Value = Instance> {
    ncss_rng::collection::vec((0.0f64..6.0, 0.05f64..4.0), 1..12).prop_map(|jobs| {
        Instance::new(jobs.into_iter().map(|(r, v)| Job::unit_density(r, v)).collect())
            .expect("valid jobs")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn lemma20_assignment_identity(inst in uniform_instance(), k in 2usize..5) {
        let law = PowerLaw::new(3.0).unwrap();
        let c = run_c_par(&inst, law, k).unwrap();
        let nc = run_nc_par(&inst, law, k).unwrap();
        prop_assert_eq!(c.assignment, nc.assignment);
    }

    #[test]
    fn lemma21_22_energy_and_flow(inst in uniform_instance(), k in 2usize..5) {
        let law = PowerLaw::new(2.0).unwrap();
        let c = run_c_par(&inst, law, k).unwrap();
        let nc = run_nc_par(&inst, law, k).unwrap();
        prop_assert!(rel_diff(c.objective.energy, nc.objective.energy) < 1e-7);
        let expect = c.objective.frac_flow * theory::nc_over_c_flow_ratio(2.0);
        prop_assert!(rel_diff(nc.objective.frac_flow, expect) < 1e-7);
    }

    #[test]
    fn every_job_completes_once(inst in uniform_instance(), k in 1usize..4) {
        let law = PowerLaw::new(2.5).unwrap();
        let nc = run_nc_par(&inst, law, k).unwrap();
        for (j, c) in nc.per_job.completion.iter().enumerate() {
            prop_assert!(c.is_finite());
            prop_assert!(*c >= inst.job(j).release);
        }
        // Jobs on the same machine never overlap: completions of each
        // machine's jobs are separated by at least their service demands.
        for m in 0..k {
            let mut last_completion = f64::NEG_INFINITY;
            for (j, &mm) in nc.assignment.iter().enumerate() {
                if mm == m {
                    prop_assert!(nc.per_job.completion[j] >= last_completion - 1e-9);
                    last_completion = nc.per_job.completion[j];
                }
            }
        }
    }
}

#[test]
fn lower_bound_exponent_for_three_alphas() {
    for (alpha, expect) in [(1.5, 1.0 / 3.0), (2.0, 0.5), (3.0, 2.0 / 3.0)] {
        let law = PowerLaw::new(alpha).unwrap();
        let pts: Vec<(usize, f64)> = [4usize, 8, 16, 32]
            .iter()
            .map(|&k| {
                let mut p = RoundRobin::default();
                (k, immediate_dispatch_game(law, k, &mut p, 1.0, 1e-4).unwrap().ratio)
            })
            .collect();
        let slope = fit_loglog_slope(&pts);
        assert!(
            (slope - expect).abs() < 0.08,
            "alpha={alpha}: slope {slope} vs theory {expect}"
        );
    }
}

#[test]
fn adversary_beats_every_policy() {
    // The pigeonhole argument is policy-independent: all implemented
    // policies suffer a growing ratio.
    let law = PowerLaw::new(2.0).unwrap();
    for k in [4usize, 8] {
        let mut rr = RoundRobin::default();
        let mut lc = LeastCount::default();
        let mut sr = ncss::multi::SeededRandom::new(99);
        let r_rr = immediate_dispatch_game(law, k, &mut rr, 1.0, 1e-4).unwrap().ratio;
        let r_lc = immediate_dispatch_game(law, k, &mut lc, 1.0, 1e-4).unwrap().ratio;
        let r_sr = immediate_dispatch_game(law, k, &mut sr, 1.0, 1e-4).unwrap().ratio;
        for r in [r_rr, r_lc, r_sr] {
            assert!(r > 1.5, "k={k}: ratio {r}");
        }
    }
}

#[test]
fn nc_par_beats_all_dispatch_policies_on_the_batch() {
    // Lazy dispatch (NC-PAR) sidesteps the look-alike trap: on the k^2
    // batch its cost is within a constant of the spread optimum while the
    // immediate-dispatch policy degrades.
    let law = PowerLaw::new(2.0).unwrap();
    let k = 8;
    let mut p = RoundRobin::default();
    let game = immediate_dispatch_game(law, k, &mut p, 1.0, 1e-4).unwrap();
    // Rebuild the adversary's instance and give it to NC-PAR.
    // NC-PAR sees jobs only as they queue; its dispatch is lazy.
    let high: Vec<usize> = (0..k).map(|i| i * k).collect(); // round-robin co-location
    let inst = ncss::workloads::lookalike_batch(k, &high, 1.0, 1e-4).unwrap();
    let ncp = run_nc_par(&inst, law, k).unwrap();
    let ratio = ncp.objective.fractional() / game.opt_upper_bound;
    assert!(
        ratio < game.ratio,
        "NC-PAR ratio {ratio} should beat immediate dispatch {}",
        game.ratio
    );
}

use ncss::sim::{Evaluated, Segment};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn merged_audit_agrees_with_independent_per_machine_audits(
        inst in uniform_instance(), k in 2usize..5
    ) {
        // The cross-machine auditor on the merged run must agree with
        // auditing each machine in isolation: rebuild every machine's
        // private instance, remap original job ids to local ones, and run
        // the single-machine auditor on each timeline. Both views must
        // pass, and the per-machine evaluations must reassemble into the
        // globally reported numbers.
        let law = PowerLaw::new(2.5).unwrap();
        let nc = run_nc_par(&inst, law, k).unwrap();
        let reported = Evaluated { objective: nc.objective, per_job: nc.per_job.clone() };
        let merged = audit_multi(&inst, &nc.schedules, &reported);
        prop_assert!(merged.passed(), "merged audit:\n{}", merged);
        prop_assert!(merged.max_residual() < 1e-7, "residual {}", merged.max_residual());

        let mut energy_sum = 0.0;
        let mut frac_sum = 0.0;
        for m in 0..k {
            let members: Vec<usize> =
                (0..inst.len()).filter(|&j| nc.assignment[j] == m).collect();
            if members.is_empty() {
                prop_assert!(nc.schedules[m].segments().iter().all(|s| s.job.is_none()));
                continue;
            }
            // Original ids are release-sorted, so the members (in original
            // id order) are already release-sorted and the local instance's
            // stable sort keeps local id = rank within `members`.
            let local_inst = Instance::new(
                members.iter().map(|&j| *inst.job(j)).collect()
            ).unwrap();
            let segments: Vec<Segment> = nc.schedules[m].segments().iter().map(|s| {
                let job = s.job.map(|orig| {
                    members.iter().position(|&j| j == orig).expect("job served off-machine")
                });
                Segment { job, ..*s }
            }).collect();
            let local_sched = Schedule::new(law, segments).unwrap();
            let local_eval = evaluate(&local_sched, &local_inst).unwrap();
            let local = audit_run(&local_inst, &local_sched, &local_eval);
            prop_assert!(local.passed(), "machine {} audit:\n{}", m, local);
            prop_assert!(local.max_residual() < 1e-7,
                "machine {} residual {}", m, local.max_residual());
            for (local_id, &orig) in members.iter().enumerate() {
                prop_assert!(
                    rel_diff(local_eval.per_job.completion[local_id],
                             nc.per_job.completion[orig]) < 1e-7,
                    "machine {} job {}: local completion {} vs reported {}",
                    m, orig, local_eval.per_job.completion[local_id],
                    nc.per_job.completion[orig]
                );
            }
            energy_sum += local_eval.objective.energy;
            frac_sum += local_eval.objective.frac_flow;
        }
        prop_assert!(rel_diff(energy_sum, nc.objective.energy) < 1e-7,
            "per-machine energies {} vs reported {}", energy_sum, nc.objective.energy);
        prop_assert!(rel_diff(frac_sum, nc.objective.frac_flow) < 1e-7,
            "per-machine frac flows {} vs reported {}", frac_sum, nc.objective.frac_flow);
    }
}

#[test]
fn double_service_escapes_the_outcome_audit_but_not_the_multi_audit() {
    // A phantom machine re-serving an already-served job leaves every
    // reported number untouched, so the schedule-less outcome audit cannot
    // see it. The cross-machine auditor must: the duplicated segment
    // double-serves a job and over-delivers volume.
    let inst = Instance::new(vec![
        Job::unit_density(0.0, 2.0),
        Job::unit_density(0.3, 1.0),
        Job::unit_density(0.9, 1.5),
        Job::unit_density(1.4, 0.5),
    ])
    .unwrap();
    let law = PowerLaw::new(3.0).unwrap();
    let nc = run_nc_par(&inst, law, 2).unwrap();
    let reported = Evaluated { objective: nc.objective, per_job: nc.per_job.clone() };

    let outcome = audit_outcome(&inst, &nc.objective, &nc.per_job);
    assert!(outcome.passed(), "clean outcome audit must pass:\n{outcome}");

    let mut schedules = nc.schedules.clone();
    let phantom = *schedules
        .iter()
        .flat_map(|s| s.segments())
        .find(|s| s.job.is_some())
        .expect("some served segment");
    schedules.push(Schedule::new(law, vec![phantom]).unwrap());

    let corrupted = audit_multi(&inst, &schedules, &reported);
    assert!(!corrupted.passed(), "multi audit must catch double service:\n{corrupted}");
    let rendered = format!("{corrupted}");
    assert!(
        rendered.contains("FAIL no-double-service"),
        "expected a no-double-service failure:\n{rendered}"
    );
}

/// Lazy HDF's `K_j` is C's remaining weight over the machine's jobs
/// released no later than `r_j`. Here HDF serves the later, denser job 2
/// before job 1, so job 1's curve must start from job 0 alone, not count
/// its own weight.
#[test]
fn lazy_hdf_base_power_ignores_later_releases_served_first() {
    let law = PowerLaw::new(2.0).unwrap();
    let inst = Instance::new(vec![
        Job::new(0.0, 5.0, 1.0),
        Job::new(0.1, 1.0, 1.0),
        Job::new(0.2, 1.0, 8.0),
    ])
    .unwrap();
    let out = ncss::multi::run_lazy_hdf(&inst, law, 1, 2.0).unwrap();
    assert!(out.per_job.completion[2] < out.per_job.completion[1], "HDF order");
    let u0_of = |id| {
        out.schedules[0]
            .segments()
            .iter()
            .find_map(|s| match (s.job, s.law) {
                (Some(j), ncss::sim::SpeedLaw::Growth { u0, .. }) if j == id => Some(u0),
                _ => None,
            })
            .expect("job served on the growth curve")
    };
    let want = run_c(&Instance::new(vec![*inst.job(0)]).unwrap(), law)
        .unwrap()
        .remaining_weight_before(0.1);
    assert!((want - 4.7789).abs() < 1e-4, "C's remaining weight at 0.1- is {want}");
    assert_eq!(u0_of(1).to_bits(), want.to_bits(), "job 1's K_j = {}", u0_of(1));
}

/// At α = 2, scaling volumes by `a` and releases by `√a` is an exact change
/// of units: C-PAR and NC-PAR must make the same decisions, their
/// fractional objectives must scale by `a√a`, and no machine may serve two
/// jobs at once.
#[test]
fn dispatch_is_invariant_under_a_change_of_units() {
    let law = PowerLaw::new(2.0).unwrap();
    let unit = [(0.0, 1.0), (0.2, 2.0), (0.2, 0.4), (0.9, 1.1), (2.5, 0.8), (2.5, 0.8)];
    let scaled = |a: f64| {
        let jobs = unit.iter().map(|&(r, v)| Job::unit_density(r * a.sqrt(), v * a)).collect();
        Instance::new(jobs).unwrap()
    };
    type Runner = fn(&Instance, PowerLaw, usize) -> SimResult<ParOutcome>;
    let k = 3;
    let runners: [(&str, Runner); 2] = [("c-par", run_c_par), ("nc-par", run_nc_par)];
    for (name, run) in runners {
        let base = run(&scaled(1.0), law, k).unwrap();
        for a in [1e-8, 1e-20, 1e-40, 1e-200] {
            let out = run(&scaled(a), law, k).unwrap();
            assert_eq!(out.assignment, base.assignment, "{name} a={a:e}");
            let frac = out.objective.fractional() / (a * a.sqrt());
            assert!(
                rel_diff(frac, base.objective.fractional()) < 1e-9,
                "{name} a={a:e}: {frac} vs {}",
                base.objective.fractional()
            );
            // Overlap checked on the timelines directly, at the scale of
            // the run: a start may precede the previous end by the
            // dispatcher's relative tie slack, never by more.
            for (m, sched) in out.schedules.iter().enumerate() {
                for w in sched.segments().windows(2) {
                    assert!(
                        w[0].end - w[1].start <= 1e-11 * w[0].end.abs(),
                        "{name} a={a:e} machine {m}: [{}, {}] overlaps [{}, {}]",
                        w[0].start,
                        w[0].end,
                        w[1].start,
                        w[1].end
                    );
                }
            }
        }
    }
}
