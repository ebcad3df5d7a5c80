//! T1 — Table 1: the paper's summary of competitive ratios, with measured
//! counterparts.
//!
//! For each of the four settings (integral/fractional × uniform/arbitrary
//! density) the paper reports the best clairvoyant bound, the known-weight
//! non-clairvoyant bound, and its own known-density bound. This experiment
//! reprints those theory columns and adds the *measured* worst ratio of our
//! implementations over the corresponding instance suite, against the
//! certified fractional-OPT dual lower bound (so measured ratios
//! over-state, never under-state, the truth; see `ncss-opt`).

use ncss_analysis::{fmt_f, measure_suite, Table};
use ncss_core::{
    reduce_to_integral, run_c, run_nc_nonuniform, run_nc_uniform, theory, NonUniformParams,
};
use ncss_opt::SolverOptions;
use ncss_sim::{Instance, PowerLaw};
use ncss_workloads::suite::tiny_suite;

use super::BASE_SEED;

/// The worst ratio over the suite, and the widest relative OPT bracket
/// (primal − dual) / primal it was measured against.
fn max_ratio(
    instances: &[Instance],
    law: PowerLaw,
    alg: impl Fn(&Instance) -> ncss_sim::SimResult<f64> + Sync,
) -> (f64, f64) {
    let report = measure_suite(instances, law, SolverOptions::default(), alg).expect("suite measurement");
    let gap = report
        .points
        .iter()
        .map(|p| if p.opt_upper > 0.0 { (p.opt_upper - p.opt_lower) / p.opt_upper } else { 0.0 })
        .fold(0.0, f64::max);
    (report.summary.max, gap)
}

fn fmt_gap(gap: f64) -> String {
    format!("{gap:.1e}")
}

/// Run the experiment and return the report.
#[must_use]
pub fn run() -> String {
    let mut out = String::from("\n==== T1: Table 1 — summary of competitive ratios (theory vs measured) ====\n");
    out.push_str("measured = worst algorithm-cost / certified OPT lower bound over the suite\n");

    let uniform = tiny_suite(BASE_SEED, true);
    let nonuniform = tiny_suite(BASE_SEED.wrapping_add(1), false);

    let mut table = Table::new(
        "Table 1 (paper) + measured columns",
        &[
            "setting",
            "alpha",
            "clairvoyant",
            "NC known-weight",
            "NC known-density (paper)",
            "measured C",
            "measured NC",
            "OPT gap",
        ],
    );

    for &alpha in &[1.5, 2.0, 3.0] {
        let law = PowerLaw::new(alpha).expect("valid alpha");

        // Fractional, unit density.
        let (c_frac, gap) = max_ratio(&uniform, law, |i| Ok(run_c(i, law)?.objective.fractional()));
        let (nc_frac, _) = max_ratio(&uniform, law, |i| Ok(run_nc_uniform(i, law)?.objective.fractional()));
        table.row(vec![
            "fractional / unit density".into(),
            fmt_f(alpha),
            format!("{} [BCP09]", fmt_f(theory::c_fractional_bound())),
            "-".into(),
            fmt_f(theory::nc_uniform_fractional_bound(alpha)),
            fmt_f(c_frac),
            fmt_f(nc_frac),
            fmt_gap(gap),
        ]);

        // Integral, unit density. OPT_int >= OPT_frac, so the dual bound
        // stays valid. The known-weight column also gets a measured value:
        // the weighted-processor-sharing algorithm of that model.
        let (c_int, _) = max_ratio(&uniform, law, |i| Ok(run_c(i, law)?.objective.integral()));
        let (nc_int, _) = max_ratio(&uniform, law, |i| Ok(run_nc_uniform(i, law)?.objective.integral()));
        let (kw_int, _) = max_ratio(&uniform, law, |i| {
            Ok(ncss_core::run_known_weight_sharing(i, law)?.objective.integral())
        });
        table.row(vec![
            "integral / unit density".into(),
            fmt_f(alpha),
            format!("{} [BPS09]", fmt_f(theory::c_integral_unit_bound())),
            format!("{} [CELLMP11], measured {}", fmt_f(theory::known_weight_unit_bound(alpha)), fmt_f(kw_int)),
            fmt_f(theory::nc_uniform_integral_bound(alpha)),
            fmt_f(c_int),
            fmt_f(nc_int),
            fmt_gap(gap),
        ]);

        if alpha >= 2.0 {
            // Arbitrary density (the non-uniform algorithm is integrated
            // numerically; keep it to the alphas its defaults target).
            let params = NonUniformParams::recommended(alpha);
            let (c_nfrac, ngap) = max_ratio(&nonuniform, law, |i| Ok(run_c(i, law)?.objective.fractional()));
            let (nc_nfrac, _) = max_ratio(&nonuniform, law, |i| {
                Ok(run_nc_nonuniform(i, law, params)?.objective.fractional())
            });
            table.row(vec![
                "fractional / arbitrary density".into(),
                fmt_f(alpha),
                format!("{} [BCP09]", fmt_f(theory::c_fractional_bound())),
                "-".into(),
                format!("2^O(alpha) (~{})", fmt_f(theory::nc_nonuniform_indicative_bound(alpha))),
                fmt_f(c_nfrac),
                fmt_f(nc_nfrac),
                fmt_gap(ngap),
            ]);

            let eps = theory::optimal_reduction_epsilon(alpha);
            let (nc_nint, _) = max_ratio(&nonuniform, law, |i| {
                let base = run_nc_nonuniform(i, law, params)?;
                Ok(reduce_to_integral(&base.schedule, i, eps)?.objective.integral())
            });
            table.row(vec![
                "integral / arbitrary density".into(),
                fmt_f(alpha),
                "O(alpha/log alpha) [BPS09+BCP09]".into(),
                format!("{} [LLTW08, r=0]", fmt_f(theory::known_weight_batch_bound(alpha))),
                format!("2^O(alpha) (~{})", fmt_f(theory::nc_nonuniform_indicative_bound(alpha))),
                "-".into(),
                fmt_f(nc_nint),
                fmt_gap(ngap),
            ]);
        }
    }
    out.push_str(&table.render());
    out.push_str(
        "notes: measured C <= 2 and measured NC <= paper bound certify the reproduction;\n\
         the known-weight column is the contrasting model from the related work.\n",
    );
    out.push_str(&integral_bracket_section(&uniform));
    out
}

/// The integral columns above use the fractional dual as the OPT proxy; on
/// the smallest instances we can bracket the *integral* optimum directly
/// (YDS energy under a completion-time search) and report the truer ratio.
fn integral_bracket_section(uniform: &[Instance]) -> String {
    use ncss_opt::integral_opt_upper;
    let alpha = 2.0;
    let law = PowerLaw::new(alpha).expect("valid alpha");
    let mut table = Table::new(
        "integral-OPT bracket on the small instances (alpha = 2)",
        &["jobs", "frac dual (lb)", "integral upper", "NC int cost", "NC ratio vs int-ub"],
    );
    for inst in uniform.iter().filter(|i| i.len() <= 4) {
        let frac = ncss_opt::solve_fractional_opt(inst, law, SolverOptions::default()).expect("solver");
        let ub = integral_opt_upper(inst, law, 20).expect("integral bracket");
        let nc = run_nc_uniform(inst, law).expect("NC").objective.integral();
        table.row(vec![
            format!("{}", inst.len()),
            fmt_f(frac.dual_bound),
            fmt_f(ub.cost),
            fmt_f(nc),
            fmt_f(nc / ub.cost),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_rows_respect_paper_bounds() {
        // A trimmed inline version of T1's pass criteria (alpha = 2).
        let law = PowerLaw::new(2.0).unwrap();
        let suite = tiny_suite(BASE_SEED, true);
        let (c, gap) = max_ratio(&suite, law, |i| Ok(run_c(i, law)?.objective.fractional()));
        let (nc, _) = max_ratio(&suite, law, |i| Ok(run_nc_uniform(i, law)?.objective.fractional()));
        // The OPT bracket is closed, so the bounds hold against the dual.
        assert!(gap <= 1e-9, "OPT gap {gap}");
        assert!(c <= theory::c_fractional_bound() * (1.0 + 1e-9), "C {c}");
        assert!(nc <= theory::nc_uniform_fractional_bound(2.0) * (1.0 + 1e-9), "NC {nc}");
        let (nc_int, _) = max_ratio(&suite, law, |i| Ok(run_nc_uniform(i, law)?.objective.integral()));
        assert!(nc_int <= theory::nc_uniform_integral_bound(2.0) * (1.0 + 1e-9), "NC int {nc_int}");
    }
}
