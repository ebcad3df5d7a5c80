//! Benches for the offline-optimum solver, on the in-repo harness
//! (median/p95 to `BENCH_opt.json`).
//!
//! Both optima are audited before timing: the closed form's decay schedule
//! against the closed-form numbers, and the exact dual solve's primal
//! schedule against its own evaluation. The verdicts are recorded in the
//! JSON.

use ncss_audit::audit_run;
use ncss_bench::harness::{black_box, Suite};
use ncss_opt::{fractional_opt_schedule, single_job_opt, solve_fractional_opt, SolverOptions};
use ncss_sim::{Instance, Job, PowerLaw};
use ncss_workloads::{VolumeDist, WorkloadSpec};

fn main() {
    let law = PowerLaw::cube();
    let mut suite = Suite::new("opt");

    let closed_form_report = {
        let (rho, volume) = (1.3, 2.7);
        let opt = single_job_opt(law, rho, volume).expect("closed form");
        let inst = Instance::single(Job::new(0.0, volume, rho)).expect("single job");
        let sched = opt.to_schedule(law, 0.0).expect("opt schedule");
        audit_run(&inst, &sched, &opt.evaluated(0.0))
    };
    suite.bench_report("single_job_opt_closed_form", Some(&closed_form_report), || {
        black_box(single_job_opt(law, 1.3, 2.7).expect("closed form"));
    });

    for n in [2usize, 6, 12] {
        let inst = WorkloadSpec::uniform(n, 1.0, VolumeDist::Uniform { lo: 0.3, hi: 1.8 })
            .generate(5)
            .expect("valid spec");
        let opts = SolverOptions::default();
        let out = fractional_opt_schedule(&inst, law, opts).expect("solver");
        let report = audit_run(&inst, &out.schedule, &out.evaluated);
        suite.bench_report(&format!("fractional_opt_solver/{n}"), Some(&report), || {
            black_box(solve_fractional_opt(&inst, law, opts).expect("solver"));
        });
    }

    suite.finish();
}
