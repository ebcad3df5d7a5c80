//! Integration tests for the offline-optimum machinery: the dual bound must
//! certify, the primal must be feasible, and Theorem 1 (Algorithm C is
//! 2-competitive) must hold against the solver on random instances.
//!
//! The exact dual solve is nested inside the grid reference
//! (`tests/opt_reference.rs`): on every instance here and on the 32
//! `offline`-spec instances, its lower bound is at least the grid's, its
//! upper bound at most the grid's, its gap closes to `1e-9`, and its primal
//! schedule passes the independent audit.

#[path = "opt_reference.rs"]
mod reference;

use ncss::opt::fractional_opt_schedule;
use ncss::prelude::*;
use ncss::sim::numeric::approx_eq;
use ncss::workloads::{DensityDist, VolumeDist, WorkloadSpec};
use ncss_rng::props::*;
use reference::{solve_grid, GridOptions};

fn small_instance() -> impl Strategy<Value = Instance> {
    ncss_rng::collection::vec((0.0f64..3.0, 0.1f64..2.0, 0.2f64..5.0), 1..6).prop_map(|jobs| {
        Instance::new(jobs.into_iter().map(|(r, v, d)| Job::new(r, v, d)).collect())
            .expect("valid jobs")
    })
}

fn exact() -> SolverOptions {
    SolverOptions::default()
}

/// A cheap grid: both sides of its bracket are valid for any options.
fn grid() -> GridOptions {
    GridOptions { steps: 200, max_iters: 120, ..GridOptions::default() }
}

/// The exact bracket sits inside the grid's, closes, and its schedule
/// passes the audit. Returns a message on failure.
fn nests(inst: &Instance, law: PowerLaw) -> Result<(), String> {
    let out = fractional_opt_schedule(inst, law, exact()).map_err(|e| e.to_string())?;
    let sol = out.bracket;
    let g = solve_grid(inst, law, grid()).map_err(|e| e.to_string())?;
    let fail = |what: &str| Err(format!("{what}: exact {sol:?} vs grid {g:?}"));
    if sol.dual_bound < g.dual_bound * (1.0 - 1e-12) {
        return fail("exact dual below the grid dual");
    }
    if sol.primal_cost > g.primal_cost * (1.0 + 1e-12) {
        return fail("exact primal above the grid primal");
    }
    if sol.gap().is_nan() || sol.gap().abs() > 1e-9 {
        return fail("gap not closed");
    }
    if sol.dual_bound > sol.primal_cost * (1.0 + 1e-12) {
        return fail("dual above primal");
    }
    let report = audit_run(inst, &out.schedule, &out.evaluated);
    if !report.passed() {
        return Err(format!("audit failed:\n{report}"));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dual_below_primal(inst in small_instance()) {
        let law = PowerLaw::new(2.5).unwrap();
        let sol = solve_fractional_opt(&inst, law, exact()).unwrap();
        prop_assert!(sol.dual_bound <= sol.primal_cost * (1.0 + 1e-12),
            "dual {} primal {}", sol.dual_bound, sol.primal_cost);
        prop_assert!(sol.dual_bound >= 0.0);
    }

    #[test]
    fn theorem1_two_competitive(inst in small_instance()) {
        let law = PowerLaw::new(2.5).unwrap();
        let c = run_c(&inst, law).unwrap().objective.fractional();
        let sol = solve_fractional_opt(&inst, law, exact()).unwrap();
        // C is at least OPT (certified from below) and at most 2 OPT
        // (checked against the feasible primal upper bound).
        prop_assert!(c >= sol.dual_bound * (1.0 - 1e-9));
        prop_assert!(c <= 2.0 * sol.primal_cost * (1.0 + 1e-6),
            "C {c} vs 2*primal {}", 2.0 * sol.primal_cost);
    }

    #[test]
    fn nc_within_paper_bound_vs_dual(inst in small_instance()) {
        // Theorem 5 for the uniform case, randomised (project densities to
        // a common value first).
        let uni = uniform(&inst);
        let law = PowerLaw::new(3.0).unwrap();
        let nc = run_nc_uniform(&uni, law).unwrap().objective.fractional();
        let sol = solve_fractional_opt(&uni, law, exact()).unwrap();
        let bound = ncss::core::theory::nc_uniform_fractional_bound(3.0);
        // The bracket is closed, so the bound holds against the dual itself.
        prop_assert!(nc <= bound * sol.dual_bound.max(1e-12) * (1.0 + 1e-9),
            "NC {nc}, dual {}, bound {bound}", sol.dual_bound);
    }

    #[test]
    fn exact_bracket_nests_inside_the_grid_bracket(inst in small_instance()) {
        for (inst, alpha) in [(uniform(&inst), 3.0), (inst, 2.5)] {
            let r = nests(&inst, PowerLaw::new(alpha).unwrap());
            prop_assert!(r.is_ok(), "α={alpha}: {}", r.unwrap_err());
        }
    }
}

/// `inst` with every density set to its first job's.
fn uniform(inst: &Instance) -> Instance {
    let rho = inst.job(0).density;
    Instance::new(inst.jobs().iter().map(|j| Job::new(j.release, j.volume, rho)).collect()).unwrap()
}

#[test]
fn fixed_instances_nest_inside_the_grid_bracket() {
    let spread = Instance::new(vec![Job::new(0.0, 1.0, 0.01), Job::new(0.1, 0.01, 100.0)]).unwrap();
    nests(&spread, PowerLaw::new(3.0).unwrap()).unwrap();
    for alpha in [1.5, 2.0, 2.5, 3.0, 4.0] {
        for (rho, volume, release) in [(1.0, 1.0, 0.0), (0.3, 2.5, 1.7), (4.0, 0.2, 0.5), (0.05, 7.0, 3.2)] {
            let inst = Instance::single(Job::new(release, volume, rho)).unwrap();
            let r = nests(&inst, PowerLaw::new(alpha).unwrap());
            assert!(r.is_ok(), "α={alpha} ρ={rho} V={volume}: {}", r.unwrap_err());
        }
    }
}

#[test]
fn offline_instances_nest_inside_the_grid_bracket() {
    // The perfbench `offline` spec: n = 24, Poisson rate 1, unit-mean
    // exponential volumes, densities 1, 5 and 25, α = 2.5.
    let spec = WorkloadSpec {
        n_jobs: 24,
        arrival_rate: 1.0,
        volumes: VolumeDist::Exponential { mean: 1.0 },
        densities: DensityDist::PowerLevels { base: 5.0, levels: 3 },
    };
    let law = PowerLaw::new(2.5).unwrap();
    for seed in 0..32 {
        let r = nests(&spec.generate(seed).unwrap(), law);
        assert!(r.is_ok(), "seed {seed}: {}", r.unwrap_err());
    }
}

#[test]
fn closed_form_identities_across_alpha() {
    for alpha in [1.3, 1.5, 2.0, 2.7, 3.0, 5.0] {
        let law = PowerLaw::new(alpha).unwrap();
        let opt = single_job_opt(law, 2.0, 3.0).unwrap();
        // Flow = (alpha-1) * energy and total = alpha * energy.
        assert!(approx_eq(opt.frac_flow, (alpha - 1.0) * opt.energy, 1e-10));
        assert!(approx_eq(opt.cost(), alpha * opt.energy, 1e-10));
    }
}

#[test]
fn lower_bound_survives_extreme_density_spread() {
    let law = PowerLaw::new(3.0).unwrap();
    let inst = Instance::new(vec![
        Job::new(0.0, 1.0, 0.01),
        Job::new(0.1, 0.01, 100.0),
    ])
    .unwrap();
    let sol = solve_fractional_opt(&inst, law, exact()).unwrap();
    let c = run_c(&inst, law).unwrap().objective.fractional();
    assert!(sol.dual_bound > 0.0);
    assert!(c >= sol.dual_bound * (1.0 - 1e-9));
}

#[test]
fn closed_form_schedule_passes_the_audit_across_alphas() {
    // The closed-form optimum now emits a real `Schedule` (one exact Decay
    // segment). Route it through the independent auditor: the quadrature
    // re-derivation must agree with the closed-form numbers to < 1e-7 for
    // every power law and job shape.
    for alpha in [1.5, 2.0, 2.5, 3.0, 4.0] {
        let law = PowerLaw::new(alpha).unwrap();
        for (rho, volume, release) in
            [(1.0, 1.0, 0.0), (0.3, 2.5, 1.7), (4.0, 0.2, 0.5), (0.05, 7.0, 3.2)]
        {
            let opt = single_job_opt(law, rho, volume).unwrap();
            let inst = Instance::single(Job::new(release, volume, rho)).unwrap();
            let sched = opt.to_schedule(law, release).unwrap();
            let report = audit_run(&inst, &sched, &opt.evaluated(release));
            assert!(report.passed(), "alpha={alpha} rho={rho} V={volume}:\n{report}");
            assert!(
                report.max_residual() < 1e-7,
                "alpha={alpha} rho={rho} V={volume}: residual {}",
                report.max_residual()
            );
        }
    }
}

#[test]
fn yds_execution_passes_the_audit_and_meets_deadlines() {
    // The YDS profile's EDF execution produces a per-job `Schedule`; the
    // auditor must certify it against the execution's own reported numbers,
    // its energy must match the YDS closed form, and no deadline may slip.
    let jobs = vec![
        DeadlineJob { release: 0.0, deadline: 6.0, volume: 2.0 },
        DeadlineJob { release: 1.0, deadline: 3.0, volume: 1.5 },
        DeadlineJob { release: 4.0, deadline: 9.0, volume: 1.0 },
        DeadlineJob { release: 4.5, deadline: 5.5, volume: 0.8 },
    ];
    for alpha in [2.0, 3.0] {
        let law = PowerLaw::new(alpha).unwrap();
        let sched = yds(&jobs, law).unwrap();
        let exec = yds_execution(&jobs, &sched, law).unwrap();
        let report = audit_run(&exec.instance, &exec.schedule, &exec.evaluated);
        assert!(report.passed(), "alpha={alpha}:\n{report}");
        assert!(report.max_residual() < 1e-7, "alpha={alpha}: residual {}", report.max_residual());
        for (j, completion) in exec.evaluated.per_job.completion.iter().enumerate() {
            assert!(
                *completion <= exec.deadlines[j] + 1e-7,
                "alpha={alpha}: job {j} completed {completion} after deadline {}",
                exec.deadlines[j]
            );
        }
        assert!(
            approx_eq(exec.evaluated.objective.energy, sched.energy, 1e-9),
            "alpha={alpha}: execution energy {} vs YDS energy {}",
            exec.evaluated.objective.energy,
            sched.energy
        );
    }
}
