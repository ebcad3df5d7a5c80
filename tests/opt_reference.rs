//! The projected-gradient grid solver `ncss_opt::solve_fractional_opt`
//! used to be, kept as the slow, independent reference for the exact dual
//! solve.
//!
//! The fractional weighted flow-time plus energy problem is convex once
//! phrased in *allocations*: let `x_{ij}` be the volume of job `j` processed
//! in grid step `i` (left endpoint `t_i`, width `h_i`). Then
//!
//! ```text
//! minimise   Σ_i h_i · P(σ_i / h_i)  +  Σ_{ij} c_{ij} x_{ij}
//! subject to Σ_i x_{ij} = V_j,   x_{ij} ≥ 0,   x_{ij} = 0 for t_i < r_j,
//! ```
//!
//! with `σ_i = Σ_j x_{ij}` and `c_{ij} = ρ_j (t_i − r_j)`. [`solve_grid`] is
//! projected gradient descent with per-job simplex projections and Armijo
//! backtracking, warm-started from Algorithm C's allocation. Its lower bound
//! is the same weak-duality bound as the exact solver's, with the KKT
//! multipliers read off the grid and the conjugate integral taken as a
//! left-endpoint Riemann sum (the integrand is non-increasing between
//! releases, so the sum over-subtracts and the bound stays valid). Both
//! sides of its bracket are therefore valid for any options, which is what
//! `tests/opt_certificates.rs` nests the exact bracket inside.
//!
//! The per-edge dual terms fold serially in edge order; the pool map they
//! used was order-preserving, so every `FracOpt` is bit-identical to the
//! pooled solver's (pinned in `tests/offline_reference.rs`).

#![allow(dead_code)] // shared with other tests as a module
// `!(x > 1.0)`-style option checks also reject NaN.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

use ncss::core::run_c;
use ncss::opt::FracOpt;
use ncss::sim::{Instance, PowerLaw, SimError, SimResult};
use std::collections::BinaryHeap;

/// Grid-solver knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridOptions {
    /// Number of uniform grid steps (release times are always added).
    pub steps: usize,
    /// Maximum projected-gradient iterations.
    pub max_iters: usize,
    /// Horizon as a multiple of Algorithm C's busy span.
    pub horizon_factor: f64,
    /// Dual-grid refinement factor relative to the primal grid.
    pub dual_refine: usize,
}

impl Default for GridOptions {
    fn default() -> Self {
        Self { steps: 1200, max_iters: 800, horizon_factor: 3.0, dual_refine: 4 }
    }
}

/// Euclidean projection of `v` onto the scaled simplex
/// `{x ≥ 0, Σ x = total}` (in place).
pub fn project_simplex(v: &mut [f64], total: f64) {
    project_simplex_in(v, total, &mut Vec::new());
}

/// An `f64` ordered by [`f64::total_cmp`], so a [`BinaryHeap`] of them pops
/// entries in descending `total_cmp` order. `total_cmp` keeps the
/// projection panic-free on NaN input; a NaN entry propagates into the
/// output and is caught by the run-level guards.
#[derive(Debug, Clone, Copy)]
struct ByTotal(f64);

impl PartialEq for ByTotal {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for ByTotal {}

impl PartialOrd for ByTotal {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ByTotal {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// [`project_simplex`] with a reusable scratch buffer.
///
/// The threshold scan reads entries in descending order only until the
/// first entry falls below its candidate threshold, so the entries go into
/// a max-heap (O(len) to build) and are popped one at a time, instead of
/// sorting all of them. Entries equal under `total_cmp` have equal bits, so
/// the running sum adds the same values in the same order as a full
/// descending sort and the result is bit-identical to it.
fn project_simplex_in(v: &mut [f64], total: f64, scratch: &mut Vec<ByTotal>) {
    debug_assert!(total >= 0.0);
    if v.is_empty() {
        return;
    }
    scratch.clear();
    scratch.extend(v.iter().map(|&x| ByTotal(x)));
    let mut heap = BinaryHeap::from(std::mem::take(scratch));
    let mut cum = 0.0;
    let mut theta = 0.0;
    let mut k = 0usize;
    while let Some(ByTotal(uk)) = heap.pop() {
        cum += uk;
        k += 1;
        let cand = (cum - total) / k as f64;
        if uk - cand > 0.0 {
            theta = cand;
        } else {
            break;
        }
    }
    *scratch = heap.into_vec();
    for x in v.iter_mut() {
        *x = (*x - theta).max(0.0);
    }
}

/// The grid: step edges (len = steps + 1) aligned at release times.
fn build_edges(t0: f64, t1: f64, steps: usize, releases: &[f64]) -> Vec<f64> {
    let mut edges: Vec<f64> = (0..=steps).map(|i| t0 + (t1 - t0) * i as f64 / steps as f64).collect();
    edges.extend(releases.iter().copied().filter(|&r| r > t0 && r < t1));
    edges.sort_by(f64::total_cmp);
    edges.dedup_by(|a, b| (*a - *b).abs() <= 1e-12 * (1.0 + t1.abs()));
    edges
}

/// Bracket the fractional-objective offline optimum on `instance` on a
/// time grid.
pub fn solve_grid(instance: &Instance, law: PowerLaw, opts: GridOptions) -> SimResult<FracOpt> {
    let n = instance.len();
    if n == 0 {
        return Ok(FracOpt { primal_cost: 0.0, dual_bound: 0.0, iterations: 0, horizon: 0.0, kkt_residual: 0.0 });
    }
    if opts.steps < 2 || opts.dual_refine == 0 || !(opts.horizon_factor > 1.0) {
        return Err(SimError::InvalidInstance { reason: "bad solver options" });
    }
    let jobs = instance.jobs();
    let releases: Vec<f64> = jobs.iter().map(|j| j.release).collect();
    let c_run = run_c(instance, law)?;
    let t0 = releases[0];
    let span = (c_run.makespan() - t0).max(1e-9);
    let horizon = t0 + opts.horizon_factor * span;
    let edges = build_edges(t0, horizon, opts.steps, &releases);
    let m = edges.len() - 1;
    let h: Vec<f64> = edges.windows(2).map(|w| w[1] - w[0]).collect();

    // Allowed window start per job.
    let start: Vec<usize> = jobs
        .iter()
        .map(|j| edges.partition_point(|&e| e < j.release - 1e-12).min(m - 1))
        .collect();
    // Flow cost coefficients at left endpoints.
    let cost_c: Vec<Vec<f64>> = jobs
        .iter()
        .enumerate()
        .map(|(j, job)| (start[j]..m).map(|i| job.density * (edges[i] - job.release).max(0.0)).collect())
        .collect();

    // Warm start from Algorithm C's allocation.
    let mut x: Vec<Vec<f64>> = jobs.iter().enumerate().map(|(j, _)| vec![0.0; m - start[j]]).collect();
    let pl = law;
    for seg in c_run.schedule.segments() {
        let Some(j) = seg.job else { continue };
        // Distribute this segment's volume over the overlapped grid steps.
        let i_first = edges.partition_point(|&e| e <= seg.start) - 1;
        let i_last = edges.partition_point(|&e| e < seg.end).min(m);
        for i in i_first..i_last {
            let a = edges[i].max(seg.start);
            let b = edges[i + 1].min(seg.end);
            if b > a && i >= start[j] {
                x[j][i - start[j]] += seg.volume_to(pl, b) - seg.volume_to(pl, a);
            }
        }
    }
    let mut scratch = Vec::with_capacity(m);
    for (j, job) in jobs.iter().enumerate() {
        project_simplex_in(&mut x[j], job.volume, &mut scratch);
    }

    let sigma = |x: &[Vec<f64>], s: &mut [f64]| {
        s.fill(0.0);
        for (j, xs) in x.iter().enumerate() {
            for (si, &v) in s[start[j]..].iter_mut().zip(xs) {
                *si += v;
            }
        }
    };
    let f_of = |x: &[Vec<f64>], sig: &[f64]| -> f64 {
        let mut f = 0.0;
        for (&hi, &s) in h.iter().zip(sig) {
            f += hi * law.power(s / hi);
        }
        for (c, xs) in cost_c.iter().zip(x) {
            for (&ck, &v) in c.iter().zip(xs) {
                f += ck * v;
            }
        }
        f
    };

    let total_volume: f64 = jobs.iter().map(|j| j.volume).sum();
    let mut lr = 0.1 * total_volume / m as f64;
    let mut sig = vec![0.0; m];
    sigma(&x, &mut sig);
    let mut f = f_of(&x, &sig);
    let mut iters = 0usize;
    let mut stall = 0usize;
    // Trial buffers: each backtracking trial writes `xn`/`sn` in place, and
    // an accepted trial swaps them with `x`/`sig`, so trials allocate nothing.
    let mut xn = x.clone();
    let mut sn = vec![0.0; m];
    let mut pd = vec![0.0; m];
    while iters < opts.max_iters {
        iters += 1;
        // Gradient.
        for (d, (&s, &hi)) in pd.iter_mut().zip(sig.iter().zip(&h)) {
            *d = law.power_deriv(s / hi);
        }
        let mut accepted = false;
        for _ in 0..60 {
            for (j, (xs, xo)) in xn.iter_mut().zip(&x).enumerate() {
                let grad = pd[start[j]..].iter().zip(&cost_c[j]);
                for ((v, &o), (&p, &c)) in xs.iter_mut().zip(xo).zip(grad) {
                    *v = o - lr * (p + c);
                }
                project_simplex_in(xs, jobs[j].volume, &mut scratch);
            }
            sigma(&xn, &mut sn);
            let fn_ = f_of(&xn, &sn);
            if fn_ <= f {
                let improve = f - fn_;
                std::mem::swap(&mut x, &mut xn);
                std::mem::swap(&mut sig, &mut sn);
                f = fn_;
                lr *= 1.15;
                accepted = true;
                if improve < 1e-11 * f.abs().max(1e-12) {
                    stall += 1;
                } else {
                    stall = 0;
                }
                break;
            }
            lr *= 0.5;
        }
        if !accepted || stall > 12 {
            break;
        }
    }

    // Exact continuous cost of the (fluid time-shared) primal schedule.
    let mut primal = 0.0;
    for i in 0..m {
        primal += h[i] * law.power(sig[i] / h[i]);
    }
    for (j, job) in jobs.iter().enumerate() {
        let mut rem = job.volume;
        for (k, &v) in x[j].iter().enumerate() {
            let i = start[j] + k;
            primal += job.density * (rem - 0.5 * v) * h[i];
            rem -= v;
        }
    }

    // KKT multipliers: volume-weighted mean marginal cost on the support.
    let mut lambda = vec![0.0; n];
    let mut kkt_residual: f64 = 0.0;
    for (j, job) in jobs.iter().enumerate() {
        let mut wsum = 0.0;
        let mut msum = 0.0;
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for (k, &v) in x[j].iter().enumerate() {
            if v > 1e-9 * job.volume {
                let marg = law.power_deriv(sig[start[j] + k] / h[start[j] + k]) + cost_c[j][k];
                wsum += v;
                msum += v * marg;
                lo = lo.min(marg);
                hi = hi.max(marg);
            }
        }
        lambda[j] = if wsum > 0.0 { msum / wsum } else { 0.0 };
        if wsum > 0.0 && lambda[j] > 0.0 {
            kkt_residual = kkt_residual.max((hi - lo) / lambda[j]);
        }
    }

    // Certified dual lower bound on a (possibly longer) refined grid.
    let t_star = jobs
        .iter()
        .enumerate()
        .map(|(j, job)| job.release + lambda[j] / job.density)
        .fold(horizon, f64::max);
    let dual_edges = build_edges(t0, t_star + 1e-9, opts.steps * opts.dual_refine, &releases);
    let mut dual = jobs.iter().enumerate().map(|(j, job)| lambda[j] * job.volume).sum::<f64>();
    // Per-edge conjugate terms, folded serially in edge order.
    for w in dual_edges.windows(2) {
        let (a, b) = (w[0], w[1]);
        let mut best = 0.0f64;
        for (j, job) in jobs.iter().enumerate() {
            if job.release <= a + 1e-12 {
                best = best.max(lambda[j] - job.density * (a - job.release));
            }
        }
        dual -= (b - a) * law.conjugate(best);
    }

    // Numeric guard rails: every certified quantity must be finite. The
    // dual bound additionally must not exceed the primal cost (weak
    // duality) — a violation means the arithmetic broke down.
    for (what, value) in [
        ("solve_fractional_opt: primal cost", primal),
        ("solve_fractional_opt: dual bound", dual),
        ("solve_fractional_opt: kkt residual", kkt_residual),
    ] {
        if !value.is_finite() {
            return Err(SimError::Numeric { what, value });
        }
    }
    Ok(FracOpt { primal_cost: primal, dual_bound: dual.max(0.0), iterations: iters, horizon, kkt_residual })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncss::opt::single_job_opt;
    use ncss::sim::numeric::approx_eq;
    use ncss::sim::Job;

    #[test]
    fn projection_basics() {
        let mut v = vec![0.5, 0.5];
        project_simplex(&mut v, 1.0);
        assert!(approx_eq(v[0], 0.5, 1e-12) && approx_eq(v[1], 0.5, 1e-12));

        let mut v = vec![2.0, 0.0, 0.0];
        project_simplex(&mut v, 1.0);
        assert!(approx_eq(v[0], 1.0, 1e-12));
        assert_eq!(v[1], 0.0);

        let mut v = vec![1.0, 1.0, 1.0];
        project_simplex(&mut v, 1.5);
        let s: f64 = v.iter().sum();
        assert!(approx_eq(s, 1.5, 1e-12));
        assert!(v.iter().all(|&x| (x - 0.5).abs() < 1e-12));

        // Negative entries get clipped.
        let mut v = vec![-5.0, 3.0];
        project_simplex(&mut v, 1.0);
        assert_eq!(v[0], 0.0);
        assert!(approx_eq(v[1], 1.0, 1e-12));
    }

    #[test]
    fn projection_preserves_total_randomized() {
        let mut seed = 12345u64;
        let mut rng = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 33) as f64) / (1u64 << 31) as f64 - 0.5
        };
        for _ in 0..50 {
            let mut v: Vec<f64> = (0..20).map(|_| rng() * 4.0).collect();
            project_simplex(&mut v, 2.5);
            let s: f64 = v.iter().sum();
            assert!(approx_eq(s, 2.5, 1e-9));
            assert!(v.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn gap_shrinks_with_steps() {
        // The primal-dual bracket must tighten around the closed form as the
        // grid refines.
        let law = PowerLaw::new(2.0).unwrap();
        let inst = Instance::new(vec![Job::unit_density(0.0, 1.0)]).unwrap();
        let exact = single_job_opt(law, 1.0, 1.0).unwrap().cost();
        let mut last_gap = f64::INFINITY;
        for steps in [100, 400, 1600] {
            let sol = solve_grid(&inst, law, GridOptions { steps, max_iters: 600, ..Default::default() }).unwrap();
            assert!(sol.dual_bound <= exact * (1.0 + 1e-9));
            let gap = sol.gap();
            assert!(gap <= last_gap * 1.5 + 1e-4, "gap did not shrink: {gap} vs {last_gap}");
            last_gap = gap;
        }
        assert!(last_gap < 0.02, "final gap {last_gap}");
    }

    #[test]
    fn rejects_bad_options() {
        let law = PowerLaw::new(2.0).unwrap();
        let inst = Instance::new(vec![Job::unit_density(0.0, 1.0)]).unwrap();
        assert!(solve_grid(&inst, law, GridOptions { steps: 1, ..Default::default() }).is_err());
        assert!(solve_grid(&inst, law, GridOptions { horizon_factor: 0.5, ..Default::default() }).is_err());
    }
}
