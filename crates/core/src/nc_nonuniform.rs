//! Algorithm NC for non-uniform densities (Section 4) — the paper's second
//! main contribution.
//!
//! The algorithm:
//!
//! 1. Round every density **down to a power of β** (the analysis needs
//!    β > 4; the rounding base is a parameter here).
//! 2. Process the active job with the highest *rounded* density, FIFO among
//!    equal rounded densities.
//! 3. At time `t`, run at `η` times the speed Algorithm C would have at
//!    time `t` on the **current instance** `I(t)` (original release times,
//!    weights equal to what NC has processed so far), plus an arbitrarily
//!    small ε so the speed is bootstrapped away from zero.
//!
//! Unlike the uniform case, the speed depends on Algorithm C's run on the
//! evolving instance `I(t)`, so this run is numerically integrated
//! (midpoint rule with event-aligned adaptive steps and exact completion
//! solving) rather than closed-form. Tolerances in tests are
//! correspondingly looser (~1e-3).
//!
//! Each speed query reads C on `I(t)` from a shadow [`CStream`] rather
//! than re-running C from scratch. Within a service stint NC changes only
//! the served job's processed volume, so the stream state after offering
//! the processed jobs that precede it in `(release, id)` order is fixed for
//! the whole stint: it is built once per stint and copied per query, which
//! offers only the served job and the later processed jobs and reads
//! [`CStream::speed_at`] at `t`. The read is exact, not an approximation:
//! batch `run_c` is a wrapper over the same stream, so the copy executes
//! the floating-point operations the from-scratch run would, in the same
//! order, and the speed read mirrors `Schedule::speed_at` (right-continuous,
//! with the `1e-12` closing-speed rule). `tests/offline_reference.rs` keeps
//! the from-scratch oracle and holds the two to the same bits and the same
//! errors.

use crate::streaming::CStream;
use ncss_sim::numeric::KahanSum;
use ncss_sim::{
    Instance, Job, Objective, PerJob, PowerLaw, Schedule, ScheduleBuilder, Segment, SimError,
    SimResult, SpeedLaw,
};

/// Tunable parameters of the non-uniform algorithm.
///
/// The extended abstract defers the exact constants (η, β, ζ, γ) to the full
/// version; defaults follow the constraints its analysis states: β > 4 and
/// η > 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NonUniformParams {
    /// Density rounding base β (> 1; the paper's analysis chooses β > 4).
    pub rounding_base: f64,
    /// Speed multiplier η (> 1) applied to the current-instance C speed.
    pub eta: f64,
    /// Additive bootstrap speed ε (> 0).
    pub epsilon: f64,
    /// Integration resolution: target number of steps per job service.
    pub steps_per_job: usize,
    /// Hard cap on total integration steps (guards against mis-tuned runs).
    pub max_steps: usize,
}

impl Default for NonUniformParams {
    /// α-agnostic defaults. The speed multiplier is safe for `α ≥ 2` (see
    /// [`crate::theory::nonuniform_eta_min`]); prefer [`Self::recommended`]
    /// when α is known.
    fn default() -> Self {
        Self { rounding_base: 5.0, eta: 5.0, epsilon: 1e-3, steps_per_job: 400, max_steps: 4_000_000 }
    }
}

impl NonUniformParams {
    /// Parameters tuned for a given power-law exponent: η is set 25% above
    /// the cold-start self-sustainability threshold
    /// [`crate::theory::nonuniform_eta_min`], below which the algorithm
    /// degenerates to its ε bootstrap speed.
    #[must_use]
    pub fn recommended(alpha: f64) -> Self {
        Self { eta: 1.25 * crate::theory::nonuniform_eta_min(alpha), ..Self::default() }
    }
}

/// A completed (numerically integrated) run of non-uniform Algorithm NC.
#[derive(Debug, Clone)]
pub struct NonUniformRun {
    /// The machine schedule (piecewise-constant step segments).
    pub schedule: Schedule,
    /// Aggregate objective, measured against the **original** densities.
    pub objective: Objective,
    /// Per-job completions and flow-times (original densities).
    pub per_job: PerJob,
    /// Number of integration steps taken.
    pub steps: usize,
}

impl NonUniformRun {
    /// Makespan of the run.
    #[must_use]
    pub fn makespan(&self) -> f64 {
        self.schedule.end_time()
    }
}

/// Algorithm C's speed on the current instance `I(t)`, read from a shadow
/// [`CStream`] instead of a from-scratch [`crate::run_c`] per query.
///
/// `I(t)` holds every job NC has processed, in `(release, id)` order, with
/// its processed volume and rounded density. Within one service stint NC
/// changes only the served job's volume, so the stream state after offering
/// the processed jobs *before* the served one is the same for every query of
/// the stint: it is built once per stint (`prefix`) and copied into `query`
/// per query, which then offers only the served job and the later processed
/// jobs and reads [`CStream::speed_at`]. Batch and stream share every
/// floating-point operation, so each read returns the bits
/// `run_c(I(t)).schedule.speed_at(t)` would; see [`SpeedOracle::speed`] for
/// how errors stay identical.
struct SpeedOracle<'a> {
    law: PowerLaw,
    releases: &'a [f64],
    rounded_density: &'a [f64],
    eta: f64,
    epsilon: f64,
    /// Shadow stream after offering the processed jobs before `prefix_of`.
    prefix: CStream,
    /// The served job `prefix` was built for; `None` before the first query.
    prefix_of: Option<usize>,
    /// The per-query copy of `prefix`, kept so its buffers are reused.
    query: CStream,
}

impl SpeedOracle<'_> {
    /// `η · s^{(C)}_{I(t)}(t) + ε`: the speed of Algorithm C at time `t`
    /// when run on the current instance defined by `processed` volumes,
    /// while NC serves job `cur`.
    ///
    /// Propagates failures of the shadow simulation instead of panicking,
    /// with the outcome a from-scratch run would have: every job of `I(t)` is
    /// validated in id order, and the stream is run on to completion after
    /// the read, so an error C would only hit after `t` still surfaces. The
    /// rest of C's future is cheap next to its past: the prefix cache skips
    /// the past, not the future.
    fn speed(&mut self, t: f64, processed: &[f64], cur: usize) -> SimResult<f64> {
        let (releases, rounded_density) = (self.releases, self.rounded_density);
        // Job `j` of the current instance `I(t)` with processed volume `v`.
        let job = |j: usize, v: f64| Job { release: releases[j], volume: v, density: rounded_density[j] };
        if self.prefix_of != Some(cur) {
            let mut prefix = CStream::shadow(self.law);
            for (j, &v) in processed[..cur].iter().enumerate() {
                if v > 0.0 {
                    prefix.offer(job(j, v), &mut |_| {})?;
                }
            }
            self.prefix = prefix;
            self.prefix_of = Some(cur);
        }
        // A processed job may be released up to the pick tolerance after
        // `t`; a prefix whose clock already passed `t` cannot be read at `t`,
        // so that (rare) query replays I(t) from the start instead.
        let c = &mut self.query;
        let from = if self.prefix.clock() <= t {
            c.clone_from(&self.prefix);
            cur
        } else {
            *c = CStream::shadow(self.law);
            0
        };
        // Offer the processed jobs released by `t`; the first one released
        // later bounds the interval read at `t`.
        let mut later = None;
        for (j, &v) in processed.iter().enumerate().skip(from) {
            if v > 0.0 && releases[j] <= t {
                c.offer(job(j, v), &mut |_| {})?;
            } else if v > 0.0 {
                later = Some(j);
                break;
            }
        }
        let next_release = later.map_or(f64::INFINITY, |j| releases[j]);
        let s_c = c.speed_at(t, next_release)?;
        // C's future: the jobs released after `t`, then completion, so that
        // every error the from-scratch run would raise is raised here too.
        if let Some(first) = later {
            for (j, &v) in processed.iter().enumerate().skip(first) {
                if v > 0.0 {
                    c.offer(job(j, v), &mut |_| {})?;
                }
            }
        }
        c.finish(&mut |_| {})?;
        Ok(self.eta * s_c + self.epsilon)
    }
}

/// Run non-uniform Algorithm NC on `instance`.
pub fn run_nc_nonuniform(
    instance: &Instance,
    law: PowerLaw,
    params: NonUniformParams,
) -> SimResult<NonUniformRun> {
    if !(params.rounding_base > 1.0) {
        return Err(SimError::InvalidInstance { reason: "rounding base must be > 1" });
    }
    if !(params.eta >= 1.0) {
        return Err(SimError::InvalidInstance { reason: "eta must be >= 1" });
    }
    if !(params.epsilon > 0.0) {
        return Err(SimError::InvalidInstance { reason: "epsilon must be positive" });
    }
    let rounded = instance.with_rounded_densities(params.rounding_base)?;
    let jobs = instance.jobs();
    let n = jobs.len();
    let releases: Vec<f64> = jobs.iter().map(|j| j.release).collect();
    let rounded_density: Vec<f64> = rounded.jobs().iter().map(|j| j.density).collect();
    let mut oracle = SpeedOracle {
        law,
        releases: &releases,
        rounded_density: &rounded_density,
        eta: params.eta,
        epsilon: params.epsilon,
        prefix: CStream::shadow(law),
        prefix_of: None,
        query: CStream::shadow(law),
    };

    let mut processed = vec![0.0f64; n];
    let mut completion = vec![f64::NAN; n];
    let mut frac_flow = vec![KahanSum::new(); n];
    let mut energy = KahanSum::new();
    let mut builder = ScheduleBuilder::new(law);
    let mut t = jobs.first().map_or(0.0, |j| j.release);
    let mut done = 0usize;
    let mut steps = 0usize;
    // Service-stint tracking for the bootstrap time grid.
    let mut stint_job: Option<usize> = None;
    let mut stint_start = t;

    // Pick the job to serve: highest rounded density among active jobs,
    // FIFO (earliest release, then id) among ties.
    let pick = |t: f64, completion: &[f64]| -> Option<usize> {
        let mut best: Option<usize> = None;
        for j in 0..n {
            if releases[j] > t + 1e-15 || !completion[j].is_nan() {
                continue;
            }
            match best {
                None => best = Some(j),
                Some(b) => {
                    let better = rounded_density[j] > rounded_density[b] + 1e-15
                        || ((rounded_density[j] - rounded_density[b]).abs() <= 1e-15
                            && (releases[j], j) < (releases[b], b));
                    if better {
                        best = Some(j);
                    }
                }
            }
        }
        best
    };

    while done < n {
        steps += 1;
        if steps > params.max_steps {
            return Err(SimError::NonConvergence { what: "non-uniform NC integration" });
        }
        let cur = match pick(t, &completion) {
            Some(c) => c,
            None => {
                // Idle: jump to the next release.
                let next = releases
                    .iter()
                    .zip(&completion)
                    .filter(|(r, c)| **r > t && c.is_nan())
                    .map(|(r, _)| *r)
                    .fold(f64::INFINITY, f64::min);
                if !next.is_finite() {
                    // No active job and no future release: a bookkeeping
                    // impossibility, but spin-looping in release builds is
                    // worse than reporting it.
                    return Err(SimError::Numeric { what: "run_nc_nonuniform: idle jump", value: next });
                }
                t = next;
                continue;
            }
        };

        if stint_job != Some(cur) {
            stint_job = Some(cur);
            stint_start = t;
        }
        let rem = jobs[cur].volume - processed[cur];
        let s0 = oracle.speed(t, &processed, cur)?;
        let dt_rel = releases
            .iter()
            .filter(|&&r| r > t + 1e-15)
            .fold(f64::INFINITY, |a, &r| a.min(r - t));
        // Volume-uniform stepping: each step processes 1/steps_per_job of
        // the job's volume (a fixed grid, so service always terminates in
        // O(steps_per_job) steps), clipped at the next release.
        let dv_grid = jobs[cur].volume / params.steps_per_job as f64;
        let dv_target = dv_grid.min(rem);
        // Bootstrap time grid: the ε phase is stiff (the speed escalates on
        // the timescale t_boot at which (ρ̃εt)^β overtakes ρ̃βt), so steps
        // are additionally capped to grow geometrically from a floor well
        // below t_boot. Without this cap, the first volume step would leap
        // far past t_boot at speed ε and the nested C run would look
        // finished forever after.
        let beta = law.beta();
        let rho_r = rounded_density[cur];
        let t_boot = (params.epsilon.powf(beta) / (rho_r.powf(1.0 - beta) * beta)).powf(1.0 / (1.0 - beta));
        let dt_cap = ((t - stint_start) * 0.02).max(t_boot * 1e-2);

        // Midpoint refinement of the speed over the step.
        let dt_guess = (dv_target / s0).min(dt_cap).min(dt_rel);
        let at_start = processed[cur];
        processed[cur] += s0 * dt_guess * 0.5;
        let s_mid = oracle.speed(t + dt_guess * 0.5, &processed, cur);
        processed[cur] = at_start;
        let s_mid = s_mid?;
        if !s_mid.is_finite() {
            return Err(SimError::Numeric { what: "run_nc_nonuniform: speed", value: s_mid });
        }
        let mut dt = (dv_target / s_mid).min(dt_cap).min(dt_rel);
        let mut dv = s_mid * dt;
        let mut completes = dv >= rem * (1.0 - 1e-12);
        if completes {
            dv = rem;
            dt = rem / s_mid;
            if dt > dt_rel {
                completes = false;
                dt = dt_rel;
                dv = s_mid * dt;
            }
        }
        if !(dt.is_finite() && dt >= 0.0) {
            return Err(SimError::Numeric { what: "run_nc_nonuniform: step size", value: dt });
        }

        builder.push(Segment::new(t, t + dt, Some(cur), SpeedLaw::Constant { speed: s_mid }));
        energy.add(law.power(s_mid) * dt);
        // Fractional flow accrual with ORIGINAL densities: waiting jobs hold
        // constant remaining volume; the served job drains linearly.
        for j in 0..n {
            if releases[j] > t + 1e-15 || !completion[j].is_nan() {
                continue;
            }
            let rem_j = jobs[j].volume - processed[j];
            if j == cur {
                frac_flow[j].add(jobs[j].density * (rem_j * dt - 0.5 * s_mid * dt * dt));
            } else {
                frac_flow[j].add(jobs[j].density * rem_j * dt);
            }
        }
        processed[cur] += dv;
        t += dt;
        if completes {
            processed[cur] = jobs[cur].volume;
            completion[cur] = t;
            done += 1;
        }
    }

    let frac: Vec<f64> = frac_flow.iter().map(KahanSum::value).collect();
    let int_flow: Vec<f64> = jobs
        .iter()
        .enumerate()
        .map(|(j, job)| job.weight() * (completion[j] - job.release))
        .collect();
    let objective = Objective {
        energy: energy.value(),
        frac_flow: frac.iter().sum(),
        int_flow: int_flow.iter().sum(),
    }
    .validated("run_nc_nonuniform: objective")?;
    Ok(NonUniformRun {
        schedule: builder.build()?,
        objective,
        per_job: PerJob { completion, frac_flow: frac, int_flow },
        steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clairvoyant::run_c;
    use ncss_sim::numeric::approx_eq;

    fn pl(alpha: f64) -> PowerLaw {
        PowerLaw::new(alpha).unwrap()
    }

    fn mixed_instance() -> Instance {
        Instance::new(vec![
            Job::new(0.0, 1.0, 1.0),
            Job::new(0.2, 0.5, 6.0),
            Job::new(0.5, 0.8, 1.0),
            Job::new(1.0, 0.3, 30.0),
        ])
        .unwrap()
    }

    #[test]
    fn completes_all_jobs() {
        let run = run_nc_nonuniform(&mixed_instance(), pl(3.0), NonUniformParams::default()).unwrap();
        for (j, c) in run.per_job.completion.iter().enumerate() {
            assert!(c.is_finite(), "job {j} incomplete");
        }
        assert!(run.objective.fractional() > 0.0);
    }

    #[test]
    fn accounting_matches_independent_evaluator() {
        let inst = mixed_instance();
        let run = run_nc_nonuniform(&inst, pl(2.5), NonUniformParams::default()).unwrap();
        let ev = ncss_sim::evaluate(&run.schedule, &inst).unwrap();
        assert!(approx_eq(ev.objective.energy, run.objective.energy, 1e-6));
        assert!(approx_eq(ev.objective.frac_flow, run.objective.frac_flow, 1e-5));
        assert!(approx_eq(ev.objective.int_flow, run.objective.int_flow, 1e-5));
    }

    #[test]
    fn hdf_on_rounded_densities() {
        // Job 1 (rounded density 5) arrives while job 0 (density 1) runs and
        // must preempt it.
        let inst = Instance::new(vec![Job::new(0.0, 2.0, 1.0), Job::new(0.5, 0.1, 6.0)]).unwrap();
        let run = run_nc_nonuniform(&inst, pl(2.0), NonUniformParams::default()).unwrap();
        assert!(run.per_job.completion[1] < run.per_job.completion[0]);
    }

    #[test]
    fn same_rounded_bucket_is_fifo() {
        // Densities 1.0 and 1.4 both round to 1 (base 5): FIFO order wins,
        // so the earlier, slightly-lower-density job finishes first.
        let inst = Instance::new(vec![Job::new(0.0, 1.0, 1.0), Job::new(0.1, 0.2, 1.4)]).unwrap();
        let run = run_nc_nonuniform(&inst, pl(2.0), NonUniformParams::default()).unwrap();
        assert!(run.per_job.completion[0] < run.per_job.completion[1]);
    }

    #[test]
    fn epsilon_bootstraps_from_zero() {
        // A single job: the current instance starts empty, so without ε the
        // speed would be stuck at zero forever.
        let inst = Instance::new(vec![Job::new(0.0, 1.0, 1.0)]).unwrap();
        let run = run_nc_nonuniform(&inst, pl(3.0), NonUniformParams::default()).unwrap();
        assert!(run.per_job.completion[0].is_finite());
        assert!(run.per_job.completion[0] > 0.0);
    }

    #[test]
    fn cost_within_constant_of_clairvoyant() {
        // Sanity envelope, not the paper's constant: the measured fractional
        // cost should stay within a modest multiple of Algorithm C's.
        let inst = mixed_instance();
        let c = run_c(&inst, pl(3.0)).unwrap();
        let nc = run_nc_nonuniform(&inst, pl(3.0), NonUniformParams::recommended(3.0)).unwrap();
        let ratio = nc.objective.fractional() / c.objective.fractional();
        // The energy overhead alone is η^α ≈ 34 at the recommended η.
        assert!(ratio < 60.0, "ratio {ratio}");
        assert!(ratio > 0.5, "suspiciously cheap: {ratio}");
    }

    #[test]
    fn higher_eta_reduces_flow_time() {
        let inst = mixed_instance();
        let law = pl(3.0);
        // Both multipliers are above eta_min(3) ≈ 2.6, so neither run
        // degenerates to the ε crawl; the faster one must wait less.
        let lo = run_nc_nonuniform(&inst, law, NonUniformParams { eta: 3.0, ..Default::default() }).unwrap();
        let hi = run_nc_nonuniform(&inst, law, NonUniformParams { eta: 8.0, ..Default::default() }).unwrap();
        assert!(hi.objective.frac_flow < lo.objective.frac_flow);
    }

    #[test]
    fn below_eta_min_degenerates_to_crawl() {
        // With η far below the self-sustainability threshold, the nested C
        // run finishes before "now" and the speed collapses to ε, making
        // the run dramatically more expensive.
        let inst = Instance::new(vec![Job::new(0.0, 1.0, 1.0)]).unwrap();
        let law = pl(3.0);
        let good = run_nc_nonuniform(&inst, law, NonUniformParams::recommended(3.0)).unwrap();
        let bad = run_nc_nonuniform(&inst, law, NonUniformParams { eta: 1.0, ..Default::default() }).unwrap();
        assert!(bad.objective.frac_flow > 10.0 * good.objective.frac_flow);
    }

    #[test]
    fn rejects_bad_params() {
        let inst = mixed_instance();
        let law = pl(2.0);
        assert!(run_nc_nonuniform(&inst, law, NonUniformParams { rounding_base: 1.0, ..Default::default() }).is_err());
        assert!(run_nc_nonuniform(&inst, law, NonUniformParams { eta: 0.5, ..Default::default() }).is_err());
        assert!(run_nc_nonuniform(&inst, law, NonUniformParams { epsilon: 0.0, ..Default::default() }).is_err());
    }

    #[test]
    fn resolution_convergence() {
        // Doubling the resolution should move the objective by little.
        let inst = mixed_instance();
        let law = pl(3.0);
        let coarse = run_nc_nonuniform(&inst, law, NonUniformParams { steps_per_job: 150, ..Default::default() }).unwrap();
        let fine = run_nc_nonuniform(&inst, law, NonUniformParams { steps_per_job: 600, ..Default::default() }).unwrap();
        assert!(
            approx_eq(coarse.objective.fractional(), fine.objective.fractional(), 5e-3),
            "coarse {} vs fine {}",
            coarse.objective.fractional(),
            fine.objective.fractional()
        );
    }
}
