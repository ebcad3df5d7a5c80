//! Bracketing the **integral**-objective offline optimum.
//!
//! Exact integral OPT is intractable in general, but it decomposes: for
//! *fixed* completion times `C_j`, the flow-time part is
//! `Σ w_j (C_j − r_j)` and the cheapest energy that meets those completion
//! deadlines is exactly a YDS instance. Minimising over completion-time
//! vectors therefore gives integral OPT; a coarse grid search plus
//! coordinate descent gives a certified **upper bound** (every candidate
//! is feasible), while the fractional dual bound of [`crate::solver`]
//! remains the lower bound (`OPT_int ≥ OPT_frac`). Together they bracket
//! the integral optimum tightly enough for the Table 1 experiments on
//! small instances.

use crate::yds::{yds, DeadlineJob};
use ncss_sim::{Instance, PowerLaw, SimError, SimResult};

/// A certified upper bound on the integral-objective optimum.
#[derive(Debug, Clone, PartialEq)]
pub struct IntegralUpperBound {
    /// Best (feasible) integral objective found.
    pub cost: f64,
    /// The completion times achieving it.
    pub completions: Vec<f64>,
    /// Candidate schedules evaluated.
    pub evaluations: usize,
}

fn cost_for(instance: &Instance, law: PowerLaw, completions: &[f64]) -> SimResult<f64> {
    let jobs: Vec<DeadlineJob> = instance
        .jobs()
        .iter()
        .zip(completions)
        .map(|(j, &c)| DeadlineJob { release: j.release, deadline: c, volume: j.volume })
        .collect();
    let energy = yds(&jobs, law)?.energy;
    let flow: f64 = instance
        .jobs()
        .iter()
        .zip(completions)
        .map(|(j, &c)| j.weight() * (c - j.release))
        .sum();
    Ok(energy + flow)
}

/// Search for a good completion-time vector: per-job geometric grids around
/// a clairvoyant-informed scale, followed by coordinate descent.
///
/// Practical up to ~4 jobs (the grid is `grid^n`); returns an error above
/// `max_jobs = 4`.
pub fn integral_opt_upper(instance: &Instance, law: PowerLaw, grid: usize) -> SimResult<IntegralUpperBound> {
    let n = instance.len();
    if n == 0 {
        return Ok(IntegralUpperBound { cost: 0.0, completions: vec![], evaluations: 0 });
    }
    if n > 4 {
        return Err(SimError::InvalidInstance { reason: "integral_opt_upper supports at most 4 jobs" });
    }
    if grid < 2 {
        return Err(SimError::InvalidInstance { reason: "grid must be at least 2" });
    }
    // Scale from the single-job optima: job j alone would finish after
    // horizon T_j; search completions in [r_j + T_j/8, r_j + 8 T_j].
    let scales: Vec<f64> = instance
        .jobs()
        .iter()
        .map(|j| crate::closed_form::single_job_opt(law, j.density, j.volume).map(|o| o.horizon))
        .collect::<SimResult<_>>()?;
    let candidate = |j: usize, k: usize| -> f64 {
        let lo = scales[j] / 8.0;
        let hi = scales[j] * 8.0;
        instance.job(j).release + lo * (hi / lo).powf(k as f64 / (grid - 1) as f64)
    };

    let mut evaluations = 0usize;
    let mut best = (f64::INFINITY, vec![0.0; n]);
    let mut idx = vec![0usize; n];
    loop {
        let completions: Vec<f64> = (0..n).map(|j| candidate(j, idx[j])).collect();
        evaluations += 1;
        if let Ok(c) = cost_for(instance, law, &completions) {
            if c < best.0 {
                best = (c, completions);
            }
        }
        // Odometer increment.
        let mut j = 0;
        loop {
            if j == n {
                break;
            }
            idx[j] += 1;
            if idx[j] < grid {
                break;
            }
            idx[j] = 0;
            j += 1;
        }
        if j == n {
            break;
        }
    }

    // Coordinate descent refinement around the best grid point.
    let mut completions = best.1.clone();
    let mut cost = best.0;
    for _ in 0..6 {
        let mut improved = false;
        for j in 0..n {
            let span = scales[j] * 0.25;
            for delta in [-span, -span / 4.0, span / 4.0, span] {
                let mut trial = completions.clone();
                trial[j] = (trial[j] + delta).max(instance.job(j).release + 1e-9);
                evaluations += 1;
                if let Ok(c) = cost_for(instance, law, &trial) {
                    if c < cost {
                        cost = c;
                        completions = trial;
                        improved = true;
                    }
                }
            }
        }
        if !improved {
            break;
        }
    }
    Ok(IntegralUpperBound { cost, completions, evaluations })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{solve_fractional_opt, SolverOptions};
    use ncss_sim::Job;

    fn pl(alpha: f64) -> PowerLaw {
        PowerLaw::new(alpha).unwrap()
    }

    #[test]
    fn single_job_integral_optimum_structure() {
        // For one job, integral OPT runs at constant speed v/C over [0, C]
        // (YDS) with cost w·C + C·(v/C)^α; minimise over C analytically:
        // d/dC [wC + v^α C^{1-α}] = 0 -> C* = v ((α−1)/w)^{1/α}.
        let (v, w, alpha) = (2.0, 2.0, 3.0); // unit density: w = v
        let inst = Instance::new(vec![Job::unit_density(0.0, v)]).unwrap();
        let ub = integral_opt_upper(&inst, pl(alpha), 40).unwrap();
        let c_star = v * ((alpha - 1.0) / w).powf(1.0 / alpha);
        let exact = w * c_star + v.powf(alpha) * c_star.powf(1.0 - alpha);
        assert!(ub.cost <= exact * 1.02, "ub {} vs exact {}", ub.cost, exact);
        assert!(ub.cost >= exact * 0.999, "upper bound dipped below optimum?!");
        assert!((ub.completions[0] - c_star).abs() < 0.15 * c_star);
    }

    #[test]
    fn brackets_sit_around_algorithms() {
        // frac dual <= integral OPT <= integral upper <= any algorithm.
        let inst = Instance::new(vec![
            Job::unit_density(0.0, 1.0),
            Job::unit_density(0.4, 0.6),
        ])
        .unwrap();
        let law = pl(2.0);
        let frac = solve_fractional_opt(&inst, law, SolverOptions::default()).unwrap();
        let ub = integral_opt_upper(&inst, law, 24).unwrap();
        assert!(frac.dual_bound <= ub.cost * (1.0 + 1e-9));
        let c = ncss_core::run_c(&inst, law).unwrap().objective.integral();
        let nc = ncss_core::run_nc_uniform(&inst, law).unwrap().objective.integral();
        assert!(ub.cost <= c * (1.0 + 1e-9), "upper {} vs C {}", ub.cost, c);
        assert!(ub.cost <= nc * (1.0 + 1e-9));
    }

    #[test]
    fn guards() {
        let law = pl(2.0);
        let big = Instance::new((0..5).map(|i| Job::unit_density(i as f64, 1.0)).collect()).unwrap();
        assert!(integral_opt_upper(&big, law, 8).is_err());
        let one = Instance::new(vec![Job::unit_density(0.0, 1.0)]).unwrap();
        assert!(integral_opt_upper(&one, law, 1).is_err());
        let empty = Instance::new(vec![]).unwrap();
        assert_eq!(integral_opt_upper(&empty, law, 8).unwrap().cost, 0.0);
    }
}
