//! Workspace robustness contract (fault-injection).
//!
//! Every algorithm in core/multi/opt, fed hundreds of seeded adversarial
//! perturbations (ULP jitter, 1e±150 magnitude blow-ups, coincident
//! releases, epsilon volumes, density collisions), must either
//!
//! * complete with all-finite objective components (and, where a schedule
//!   exists, a structurally sound one), or
//! * return a structured `SimError`,
//!
//! and must **never panic** — in `--release` builds too, which is where the
//! numeric guard rails (rather than debug assertions) earn their keep.
//! Seeds come from `NCSS_FAULT_SEED` when set, so CI failures reproduce.
//!
//! The suite shards its cases over `ncss-pool` (the same worker pool the
//! sweeps and the audit layer use): each case's violations come back as
//! strings and are aggregated after the order-preserving parallel map, so
//! one assertion reports every failing case instead of the first.

use ncss::audit::{audit_outcome, audit_run};
use ncss::core::{
    run_c, run_c_bounded, run_known_weight_sharing, run_nc_nonuniform, run_nc_uniform,
    run_nc_uniform_bounded, NonUniformParams,
};
use ncss::multi::{run_immediate_dispatch, run_lazy_hdf, RoundRobin};
use ncss::opt::{solve_fractional_opt, SolverOptions};
use ncss::pool::Pool;
use ncss::sim::{Evaluated, Instance, Objective, PowerLaw};
use ncss::workloads::{fault_seed, fault_suite};
use std::panic::{catch_unwind, AssertUnwindSafe};

const CASES: usize = 220;

/// Cheap solver settings: the contract is about robustness, not accuracy.
fn quick_solver() -> SolverOptions {
    SolverOptions::default()
}

/// Fast non-uniform settings for tiny adversarial instances. The step cap
/// bounds runaway integration on magnitude-blowup cases: every convergent
/// suite case finishes below 25k steps, so 60k changes no verdict while
/// cutting the non-convergent cases' wasted work by ~7x.
fn quick_nonuniform() -> NonUniformParams {
    NonUniformParams { steps_per_job: 60, max_steps: 60_000, ..NonUniformParams::default() }
}

fn finite_violation(objective: &Objective, context: &str) -> Option<String> {
    for (what, v) in [
        ("energy", objective.energy),
        ("frac_flow", objective.frac_flow),
        ("int_flow", objective.int_flow),
    ] {
        if !v.is_finite() {
            return Some(format!("{context}: non-finite {what} = {v}"));
        }
    }
    None
}

/// Run one algorithm under the contract: no panic, no non-finite output.
/// A violation comes back as a message (not a panic) so sharded cases can
/// aggregate every failure across the suite.
fn contract<F>(label: &str, f: F) -> Option<String>
where
    F: FnOnce() -> Option<Objective>,
{
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Some(objective)) => finite_violation(&objective, label),
        Ok(None) => None, // structured error — allowed
        Err(_) => Some(format!("{label}: PANICKED")),
    }
}

/// Fail with every collected violation, or pass when there are none.
fn assert_no_violations(failures: Vec<String>) {
    assert!(failures.is_empty(), "{} contract violations:\n{}", failures.len(), failures.join("\n"));
}

#[test]
fn no_algorithm_panics_or_emits_nan_under_fault_injection() {
    let seed = fault_seed();
    let suite = fault_suite(seed, CASES);
    assert!(suite.len() >= 200);

    // One shard per case, chunked over the shared worker pool; each shard
    // reports (was runnable, violations) and the aggregation below is
    // identical to the old serial loop by the pool's ordering guarantee.
    let results: Vec<(bool, Vec<String>)> = Pool::auto().map_chunked(&suite, 0, |case| {
        let inst = match &case.instance {
            // Structured rejection at construction is a passing outcome.
            Ok(inst) => inst,
            Err(_) => return (false, Vec::new()),
        };
        let mut failures = Vec::new();
        for alpha in [2.0, 3.0] {
            let law = PowerLaw::new(alpha).expect("valid alpha");
            let tag = |algo: &str| format!("seed {seed} case {} α={alpha} {algo}", case.label);

            failures.extend(contract(&tag("run_c"), || run_c(inst, law).ok().map(|r| r.objective)));
            failures.extend(contract(&tag("run_nc_uniform"), || {
                run_nc_uniform(inst, law).ok().map(|r| r.objective)
            }));
            failures.extend(contract(&tag("run_nc_nonuniform"), || {
                run_nc_nonuniform(inst, law, quick_nonuniform()).ok().map(|r| r.objective)
            }));
            failures.extend(contract(&tag("run_known_weight_sharing"), || {
                run_known_weight_sharing(inst, law).ok().map(|r| r.objective)
            }));
            failures.extend(contract(&tag("run_c_bounded"), || {
                run_c_bounded(inst, law, 4.0).ok().map(|(_, ev)| ev.objective)
            }));
            failures.extend(contract(&tag("run_nc_uniform_bounded"), || {
                run_nc_uniform_bounded(inst, law, 4.0).ok().map(|(_, ev)| ev.objective)
            }));
            failures.extend(contract(&tag("run_immediate_dispatch"), || {
                run_immediate_dispatch(inst, law, 2, &mut RoundRobin::default())
                    .ok()
                    .map(|r| r.objective)
            }));
            failures.extend(contract(&tag("run_lazy_hdf"), || {
                run_lazy_hdf(inst, law, 2, 5.0).ok().map(|r| r.objective)
            }));
            failures.extend(contract(&tag("solve_fractional_opt"), || {
                solve_fractional_opt(inst, law, quick_solver()).ok().map(|sol| Objective {
                    energy: 0.0,
                    frac_flow: sol.primal_cost,
                    int_flow: sol.dual_bound,
                })
            }));
        }
        (true, failures)
    });

    let ran = results.iter().filter(|(runnable, _)| *runnable).count();
    let rejected = results.len() - ran;
    assert_no_violations(results.into_iter().flat_map(|(_, f)| f).collect());

    // The suite must actually exercise both outcomes: plenty of runnable
    // instances, and at least some structured rejections.
    assert!(ran >= 100, "only {ran} of {} cases were runnable", suite.len());
    assert!(rejected > 0, "no perturbation produced a structured rejection");
}

#[test]
fn runs_that_succeed_under_faults_also_pass_the_audit() {
    // Stronger than "no NaN": wherever an algorithm claims success on a
    // perturbed instance, the independent auditor agrees with its numbers.
    // (Blow-up cases that legitimately complete at extreme scale are held
    // to the same tolerance — the audit is scale-free.)
    let seed = fault_seed();
    let suite = fault_suite(seed, 60);
    let results: Vec<(usize, Vec<String>)> = Pool::auto().map_chunked(&suite, 0, |case| {
        let Ok(inst) = &case.instance else { return (0, Vec::new()) };
        let law = PowerLaw::new(2.0).expect("valid alpha");
        let mut audited = 0usize;
        let mut failures = Vec::new();
        if let Ok(run) = run_c(inst, law) {
            let reported = Evaluated { objective: run.objective, per_job: run.per_job.clone() };
            let report = audit_run(inst, &run.schedule, &reported);
            if !report.passed() {
                failures.push(format!("seed {seed} case {}:\n{report}", case.label));
            }
            audited += 1;
        }
        if let Ok(run) = run_known_weight_sharing(inst, law) {
            let report = audit_outcome(inst, &run.objective, &run.per_job);
            if !report.passed() {
                failures.push(format!("seed {seed} case {} (sharing):\n{report}", case.label));
            }
        }
        (audited, failures)
    });
    let audited: usize = results.iter().map(|(n, _)| n).sum();
    assert_no_violations(results.into_iter().flat_map(|(_, f)| f).collect());
    assert!(audited >= 10, "too few successful runs reached the audit ({audited})");
}

#[test]
fn clean_instances_audit_below_1e7_residual() {
    // Acceptance floor from the audit design: on unperturbed instances the
    // quadrature re-derivation agrees with the closed forms to < 1e-7.
    let inst = Instance::new(vec![
        ncss::sim::Job::unit_density(0.0, 1.0),
        ncss::sim::Job::unit_density(0.2, 2.0),
        ncss::sim::Job::unit_density(0.9, 0.5),
    ])
    .expect("valid instance");
    for alpha in [2.0, 2.5, 3.0] {
        let law = PowerLaw::new(alpha).expect("valid alpha");
        let c = run_c(&inst, law).expect("clean run");
        let reported = Evaluated { objective: c.objective, per_job: c.per_job };
        let report = audit_run(&inst, &c.schedule, &reported);
        assert!(report.passed(), "α={alpha}:\n{report}");
        assert!(report.max_residual() < 1e-7, "α={alpha}: residual {}", report.max_residual());

        let nc = run_nc_uniform(&inst, law).expect("clean run");
        let reported = Evaluated { objective: nc.objective, per_job: nc.per_job };
        let report = audit_run(&inst, &nc.schedule, &reported);
        assert!(report.passed(), "NC α={alpha}:\n{report}");
        assert!(report.max_residual() < 1e-7, "NC α={alpha}: residual {}", report.max_residual());
    }
}

use ncss::audit::audit_multi;
use ncss::multi::{run_c_par, run_nc_par, LeastCount, SeededRandom, MAX_MACHINES};
use ncss::sim::numeric::rel_diff;
use ncss::sim::{Job, SimError};

fn small_instance() -> Instance {
    Instance::new(vec![
        Job::unit_density(0.0, 2.0),
        Job::unit_density(0.4, 1.0),
        Job::unit_density(1.1, 0.5),
    ])
    .expect("valid instance")
}

#[test]
fn dispatcher_machine_count_faults_are_typed_errors() {
    // m = 0, m just past MAX_MACHINES, and usize::MAX-adjacent counts must
    // all come back as structured `SimError`s from every dispatcher — no
    // divide-by-zero, no attempted multi-terabyte Vec, no panic.
    let inst = small_instance();
    let law = PowerLaw::new(2.0).expect("valid alpha");
    for m in [0usize, MAX_MACHINES + 1, usize::MAX - 1, usize::MAX] {
        assert!(
            matches!(run_c_par(&inst, law, m), Err(SimError::InvalidInstance { .. })),
            "run_c_par accepted m={m}"
        );
        assert!(
            matches!(run_nc_par(&inst, law, m), Err(SimError::InvalidInstance { .. })),
            "run_nc_par accepted m={m}"
        );
        assert!(
            matches!(
                run_immediate_dispatch(&inst, law, m, &mut RoundRobin::default()),
                Err(SimError::InvalidInstance { .. })
            ),
            "round-robin dispatch accepted m={m}"
        );
        assert!(
            matches!(
                run_immediate_dispatch(&inst, law, m, &mut LeastCount::default()),
                Err(SimError::InvalidInstance { .. })
            ),
            "least-count dispatch accepted m={m}"
        );
        assert!(
            matches!(
                run_immediate_dispatch(&inst, law, m, &mut SeededRandom::new(7)),
                Err(SimError::InvalidInstance { .. })
            ),
            "seeded-random dispatch accepted m={m}"
        );
        assert!(
            matches!(run_lazy_hdf(&inst, law, m, 5.0), Err(SimError::InvalidInstance { .. })),
            "lazy-HDF accepted m={m}"
        );
    }
}

#[test]
fn one_machine_matches_the_single_machine_algorithms_exactly() {
    // The m = 1 fleet is the single machine: same objective, same
    // completions, to floating-point identity tolerances.
    let inst = small_instance();
    for alpha in [2.0, 3.0] {
        let law = PowerLaw::new(alpha).expect("valid alpha");

        let par = run_c_par(&inst, law, 1).expect("C-PAR on one machine");
        let single = run_c(&inst, law).expect("C");
        assert!(rel_diff(par.objective.energy, single.objective.energy) < 1e-12);
        assert!(rel_diff(par.objective.frac_flow, single.objective.frac_flow) < 1e-12);
        for j in 0..inst.len() {
            assert!(
                rel_diff(par.per_job.completion[j], single.per_job.completion[j]) < 1e-12,
                "α={alpha} job {j}: {} vs {}",
                par.per_job.completion[j],
                single.per_job.completion[j]
            );
        }

        let par = run_nc_par(&inst, law, 1).expect("NC-PAR on one machine");
        let single = run_nc_uniform(&inst, law).expect("NC");
        assert!(rel_diff(par.objective.energy, single.objective.energy) < 1e-12);
        assert!(rel_diff(par.objective.frac_flow, single.objective.frac_flow) < 1e-12);
        for j in 0..inst.len() {
            assert!(
                rel_diff(par.per_job.completion[j], single.per_job.completion[j]) < 1e-12,
                "α={alpha} NC job {j}: {} vs {}",
                par.per_job.completion[j],
                single.per_job.completion[j]
            );
        }
    }
}

#[test]
fn more_machines_than_jobs_completes_and_passes_the_multi_audit() {
    // m > n leaves machines idle but must neither error nor emit anything
    // the cross-machine auditor rejects.
    let inst = small_instance();
    let law = PowerLaw::new(2.5).expect("valid alpha");
    let m = inst.len() + 5;
    for (name, out) in [
        ("c_par", run_c_par(&inst, law, m).expect("C-PAR")),
        ("nc_par", run_nc_par(&inst, law, m).expect("NC-PAR")),
    ] {
        assert_eq!(out.schedules.len(), m, "{name}: one timeline per machine");
        let reported = Evaluated { objective: out.objective, per_job: out.per_job.clone() };
        let report = audit_multi(&inst, &out.schedules, &reported);
        assert!(report.passed(), "{name} with m={m}:\n{report}");
        assert!(report.max_residual() < 1e-7, "{name}: residual {}", report.max_residual());
    }
}

#[test]
fn bounded_speed_caps_near_zero_and_infinity_respect_the_contract() {
    // Finite caps — however extreme — obey the robustness contract over
    // the fault suite; non-positive and non-finite caps are typed errors.
    let seed = fault_seed();
    let suite = fault_suite(seed, 40);
    let failures: Vec<Vec<String>> = Pool::auto().map_chunked(&suite, 0, |case| {
        let Ok(inst) = &case.instance else { return Vec::new() };
        let law = PowerLaw::new(2.0).expect("valid alpha");
        let mut failures = Vec::new();
        for cap in [1e-300, 1e-9, 1e9, 1e300, f64::MAX] {
            let tag = |algo: &str| format!("seed {seed} case {} cap={cap:e} {algo}", case.label);
            failures.extend(contract(&tag("run_c_bounded"), || {
                run_c_bounded(inst, law, cap).ok().map(|(_, ev)| ev.objective)
            }));
            failures.extend(contract(&tag("run_nc_uniform_bounded"), || {
                run_nc_uniform_bounded(inst, law, cap).ok().map(|(_, ev)| ev.objective)
            }));
        }
        for cap in [0.0, -1.0, f64::INFINITY, f64::NAN] {
            if !matches!(run_c_bounded(inst, law, cap), Err(SimError::InvalidInstance { .. })) {
                failures.push(format!("run_c_bounded accepted cap={cap}"));
            }
            if !matches!(
                run_nc_uniform_bounded(inst, law, cap),
                Err(SimError::InvalidInstance { .. })
            ) {
                failures.push(format!("run_nc_uniform_bounded accepted cap={cap}"));
            }
        }
        failures
    });
    assert_no_violations(failures.into_iter().flatten().collect());
}
