//! Competitive-ratio measurement against the certified OPT lower bound.

use ncss_opt::{solve_fractional_opt, FracOpt, SolverOptions};
use ncss_sim::{Instance, PowerLaw, SimResult};

use crate::stats::Summary;
use crate::sweep::parallel_map;

/// One measured instance: algorithm cost vs the OPT bracket.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatioPoint {
    /// Algorithm cost on this instance.
    pub algorithm_cost: f64,
    /// Certified lower bound on OPT (dual).
    pub opt_lower: f64,
    /// Feasible upper bound on OPT (primal).
    pub opt_upper: f64,
    /// `algorithm_cost / opt_lower` — an upper bound on the true ratio.
    pub ratio: f64,
}

/// Measured ratios across a suite, with a summary.
#[derive(Debug, Clone)]
pub struct RatioReport {
    /// Per-instance measurements (suite order).
    pub points: Vec<RatioPoint>,
    /// Summary over the per-instance ratios.
    pub summary: Summary,
}

/// Measure `algorithm` (mapping an instance to its cost) against the
/// fractional-OPT dual bound over a whole suite, in parallel.
///
/// Instances fan out over the persistent `ncss-pool` workers; each cell's
/// OPT solve runs serially inside it. The map is order-preserving, so
/// results are bit-identical to a serial run.
pub fn measure_suite(
    instances: &[Instance],
    law: PowerLaw,
    solver: SolverOptions,
    algorithm: impl Fn(&Instance) -> SimResult<f64> + Sync,
) -> SimResult<RatioReport> {
    let results: Vec<SimResult<RatioPoint>> = parallel_map(instances, |inst| {
        let cost = algorithm(inst)?;
        let opt = solve_fractional_opt(inst, law, solver)?;
        Ok(point(cost, &opt))
    });
    let mut points = Vec::with_capacity(results.len());
    for r in results {
        points.push(r?);
    }
    let ratios: Vec<f64> = points.iter().map(|p| p.ratio).collect();
    let summary = Summary::of(&ratios).unwrap_or(Summary { n: 0, min: 0.0, max: 0.0, mean: 0.0, p50: 0.0, p90: 0.0 });
    Ok(RatioReport { points, summary })
}

/// Build a [`RatioPoint`] from a cost and a solved OPT bracket.
#[must_use]
pub fn point(algorithm_cost: f64, opt: &FracOpt) -> RatioPoint {
    let lower = opt.dual_bound.max(f64::MIN_POSITIVE);
    RatioPoint {
        algorithm_cost,
        opt_lower: opt.dual_bound,
        opt_upper: opt.primal_cost,
        ratio: algorithm_cost / lower,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncss_core::{run_c, run_nc_uniform, theory};
    use ncss_sim::Job;

    fn quick() -> SolverOptions {
        SolverOptions::default()
    }

    #[test]
    fn c_stays_within_theorem1_on_suite() {
        let law = PowerLaw::new(2.0).unwrap();
        let suite = vec![
            Instance::new(vec![Job::unit_density(0.0, 1.0)]).unwrap(),
            Instance::new(vec![Job::unit_density(0.0, 1.0), Job::unit_density(0.5, 2.0)]).unwrap(),
        ];
        let report = measure_suite(&suite, law, quick(), |inst| {
            Ok(run_c(inst, law)?.objective.fractional())
        })
        .unwrap();
        assert_eq!(report.points.len(), 2);
        // Ratios measured against the *lower* bound can exceed the true
        // ratio only by the duality gap; 2-competitiveness plus a modest
        // slack must hold.
        assert!(report.summary.max <= theory::c_fractional_bound() * 1.10, "{:?}", report.summary);
        assert!(report.summary.min >= 1.0 - 1e-6);
    }

    #[test]
    fn nc_stays_within_theorem5_on_suite() {
        let law = PowerLaw::new(3.0).unwrap();
        let suite = vec![
            Instance::new(vec![Job::unit_density(0.0, 2.0)]).unwrap(),
            Instance::new(vec![
                Job::unit_density(0.0, 1.0),
                Job::unit_density(0.3, 0.5),
                Job::unit_density(0.8, 1.2),
            ])
            .unwrap(),
        ];
        let report = measure_suite(&suite, law, quick(), |inst| {
            Ok(run_nc_uniform(inst, law)?.objective.fractional())
        })
        .unwrap();
        let bound = theory::nc_uniform_fractional_bound(3.0);
        assert!(report.summary.max <= bound * 1.10, "max {} vs bound {bound}", report.summary.max);
    }
}
