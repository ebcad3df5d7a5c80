//! E9 + A4 — the Section 7 open-problems observations.
//!
//! * **E9** — the "somewhat surprising fact": `l` jobs with densities
//!   `1, ρ, …, ρ^{l−1}`, each costing `c` alone, cost at most `4·l·c` on a
//!   *single* machine when `ρ ≥ 4` — so non-uniform densities cannot force
//!   the immediate-dispatch lower bound via the Section 6 route.
//! * **A4** — the natural non-clairvoyant heuristic for non-uniform
//!   densities on parallel machines (explicit dispatch + per-machine
//!   non-uniform NC), measured against clairvoyant C-PAR.

use ncss_analysis::{fmt_f, Table};
use ncss_core::{run_c, NonUniformParams};
use ncss_multi::{run_c_par, run_nonuniform_with_assignment, LeastCount, RoundRobin, ImmediateDispatch};
use ncss_opt::{solve_fractional_opt, SolverOptions};
use ncss_sim::PowerLaw;
use ncss_workloads::geometric_density_chain;
use ncss_workloads::suite::nonuniform_suite;

use super::BASE_SEED;

fn e9_geometric_chain(out: &mut String) {
    let alpha = 3.0;
    let law = PowerLaw::new(alpha).expect("valid alpha");
    let unit_cost = 1.0;
    let mut table = Table::new(
        "E9: l geometric-density jobs, each costing c alone, on ONE machine (paper: <= 4 l c for rho >= 4)",
        &["l", "rho", "OPT upper (solver) / (l c)", "Algorithm C / (l c)"],
    );
    for &rho in &[4.0, 6.0] {
        for &l in &[2usize, 4, 6, 8] {
            let inst = geometric_density_chain(law, l, rho, unit_cost).expect("chain");
            let c = run_c(&inst, law).expect("C").objective.fractional();
            let opt = solve_fractional_opt(&inst, law, SolverOptions::default()).expect("solver");
            let denom = l as f64 * unit_cost;
            table.row(vec![
                format!("{l}"),
                fmt_f(rho),
                fmt_f(opt.primal_cost / denom),
                fmt_f(c / denom),
            ]);
        }
    }
    out.push_str(&table.render());
    out.push_str("the OPT-upper column staying below 4 reproduces the paper's fact.\n");
}

fn a4_nonuniform_multi(out: &mut String) {
    let alpha = 3.0;
    let law = PowerLaw::new(alpha).expect("valid alpha");
    let params = NonUniformParams::recommended(alpha);
    let suite: Vec<_> = nonuniform_suite(BASE_SEED).into_iter().filter(|i| i.len() <= 10).take(4).collect();
    let mut table = Table::new(
        "A4: non-uniform density on k machines — heuristics vs C-PAR (open problem)",
        &["instance", "k", "round-robin / C-PAR", "least-count / C-PAR", "lazy-HDF / C-PAR"],
    );
    for (idx, inst) in suite.iter().enumerate() {
        for &k in &[2usize, 3] {
            let cpar = run_c_par(inst, law, k).expect("C-PAR").objective.fractional();
            let ratio_for = |policy: &mut dyn ImmediateDispatch| {
                let assignment = ncss_multi::collect_assignment(inst, k, policy);
                run_nonuniform_with_assignment(inst, law, &assignment, k, params)
                    .expect("NC per machine")
                    .objective
                    .fractional()
                    / cpar
            };
            let rr = ratio_for(&mut RoundRobin::default());
            let lc = ratio_for(&mut LeastCount::default());
            let lazy = ncss_multi::run_lazy_hdf(inst, law, k, params.rounding_base)
                .expect("lazy HDF")
                .objective
                .fractional()
                / cpar;
            table.row(vec![format!("#{idx}"), format!("{k}"), fmt_f(rr), fmt_f(lc), fmt_f(lazy)]);
        }
    }
    out.push_str(&table.render());
    out.push_str(
        "no constant-competitive algorithm is known here (Section 7); lazy-HDF is the\n\
         paper's suggested candidate (dispatch only as needed, HDF on rounded densities).\n",
    );
}

/// Theorem 17's shape: the NC-PAR/C-PAR cost ratio must stay flat as the
/// machine count grows (the competitive loss of non-clairvoyance is a
/// constant in k, only a function of α).
fn theorem17_machine_sweep(out: &mut String) {
    use ncss_multi::run_nc_par;
    use ncss_workloads::{VolumeDist, WorkloadSpec};

    let mut table = Table::new(
        "Theorem 17 shape: NC-PAR / C-PAR fractional cost vs machine count (uniform density)",
        &["alpha", "k=1", "k=2", "k=4", "k=8", "theory 1/2 + 1/(2-2/alpha)"],
    );
    for &alpha in &[2.0, 3.0] {
        let law = PowerLaw::new(alpha).expect("valid alpha");
        let inst = WorkloadSpec::uniform(30, 2.0, VolumeDist::Exponential { mean: 1.0 })
            .generate(super::BASE_SEED)
            .expect("valid spec");
        let mut row = vec![fmt_f(alpha)];
        for &k in &[1usize, 2, 4, 8] {
            let c = run_c_par(&inst, law, k).expect("C-PAR").objective.fractional();
            let nc = run_nc_par(&inst, law, k).expect("NC-PAR").objective.fractional();
            row.push(fmt_f(nc / c));
        }
        // E_NC = E_C, F_NC = F_C/(1-1/alpha), E_C = F_C: ratio is exactly
        // (1 + 1/(1-1/alpha))/2, independent of k.
        let gamma = 1.0 / (1.0 - 1.0 / alpha);
        row.push(fmt_f(0.5 * (1.0 + gamma)));
        table.row(row);
    }
    out.push_str(&table.render());
    out.push_str("the flat rows are Lemmas 21-22 lifting to any machine count.\n");
}

/// Run the experiment and return the report.
#[must_use]
pub fn run() -> String {
    let mut out = String::from("\n==== E9 + A4: Section 7 open problems ====\n");
    e9_geometric_chain(&mut out);
    a4_nonuniform_multi(&mut out);
    theorem17_machine_sweep(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e9_fact_holds_for_small_chain() {
        let alpha = 3.0;
        let law = PowerLaw::new(alpha).unwrap();
        let inst = geometric_density_chain(law, 4, 4.0, 1.0).unwrap();
        let opt = solve_fractional_opt(&inst, law, SolverOptions::default()).unwrap();
        // OPT (via the feasible primal) <= 4 l c.
        assert!(opt.primal_cost <= 4.0 * 4.0 * 1.0, "primal {}", opt.primal_cost);
    }
}
