//! Independent references for the offline `compare` path.
//!
//! * NC non-uniform: `run_nc_nonuniform` reads Algorithm C's speed on the
//!   current instance `I(t)` from a prefix-cached shadow `CStream`. This
//!   file keeps the integrator with the from-scratch oracle it replaced
//!   (`Instance::new` + `run_c` + `Schedule::speed_at` for every query) and
//!   requires the two to agree bit for bit — objective, per-job vectors,
//!   segments, step count, and every error — over α ∈ {1.5, 2, 2.5, 3},
//!   three density families, scales 1e-8, 1 and 1e6, tie-heavy instances
//!   and the fault-injection suite.
//! * `CStream::speed_at` against `run_c(..).schedule.speed_at(t)` at every
//!   segment boundary, release and segment midpoint of random streams.
//! * The grid OPT solver, now the reference in `tests/opt_reference.rs`:
//!   `FracOpt` bits pinned for four seeded instances, and `project_simplex`
//!   against the sort-based projection it replaced.

// The reference keeps the integrator's `!(x > 1.0)` parameter checks,
// which reject NaN as the library's do.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

#[path = "opt_reference.rs"]
mod reference;

use ncss::core::streaming::CStream;
use ncss::core::nc_nonuniform::NonUniformRun;
use ncss::core::{run_c, run_nc_nonuniform, NonUniformParams};
use ncss::opt::FracOpt;
use ncss::pool::Pool;
use ncss_rng::Pcg64;
use ncss::sim::numeric::KahanSum;
use ncss::sim::{
    Instance, Job, Objective, PerJob, PowerLaw, ScheduleBuilder, Segment, SimError, SimResult,
    SpeedLaw,
};
use ncss::workloads::fault_suite;
use ncss::workloads::{DensityDist, VolumeDist, WorkloadSpec};
use reference::{project_simplex, solve_grid, GridOptions};

const ALPHAS: [f64; 4] = [1.5, 2.0, 2.5, 3.0];
const SCALES: [f64; 3] = [1e-8, 1.0, 1e6];

fn law(alpha: f64) -> PowerLaw {
    PowerLaw::new(alpha).unwrap()
}

/// `η · s^{(C)}_{I(t)}(t) + ε` from scratch: build `I(t)`, run Algorithm C
/// on it to completion, read its schedule at `t`.
fn speed_from_scratch(
    law: PowerLaw,
    releases: &[f64],
    rounded_density: &[f64],
    params: NonUniformParams,
    t: f64,
    processed: &[f64],
) -> SimResult<f64> {
    let mut jobs = Vec::with_capacity(processed.len());
    for (j, &v) in processed.iter().enumerate() {
        if v > 0.0 {
            jobs.push(Job { release: releases[j], volume: v, density: rounded_density[j] });
        }
    }
    let s_c = if jobs.is_empty() {
        0.0
    } else {
        let inst = Instance::new(jobs)?;
        let run = run_c(&inst, law)?;
        run.schedule.speed_at(t)
    };
    Ok(params.eta * s_c + params.epsilon)
}

/// The non-uniform NC integrator with the from-scratch speed oracle.
fn reference_nc_nonuniform(
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
    let speed = |t: f64, processed: &[f64]| {
        speed_from_scratch(law, &releases, &rounded_density, params, t, processed)
    };

    let mut processed = vec![0.0f64; n];
    let mut completion = vec![f64::NAN; n];
    let mut frac_flow = vec![KahanSum::new(); n];
    let mut energy = KahanSum::new();
    let mut builder = ScheduleBuilder::new(law);
    let mut t = jobs.first().map_or(0.0, |j| j.release);
    let mut done = 0usize;
    let mut steps = 0usize;
    let mut stint_job: Option<usize> = None;
    let mut stint_start = t;

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
                let next = releases
                    .iter()
                    .zip(&completion)
                    .filter(|(r, c)| **r > t && c.is_nan())
                    .map(|(r, _)| *r)
                    .fold(f64::INFINITY, f64::min);
                if !next.is_finite() {
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
        let s0 = speed(t, &processed)?;
        let dt_rel = releases
            .iter()
            .filter(|&&r| r > t + 1e-15)
            .fold(f64::INFINITY, |a, &r| a.min(r - t));
        let dv_grid = jobs[cur].volume / params.steps_per_job as f64;
        let dv_target = dv_grid.min(rem);
        let beta = law.beta();
        let rho_r = rounded_density[cur];
        let t_boot = (params.epsilon.powf(beta) / (rho_r.powf(1.0 - beta) * beta)).powf(1.0 / (1.0 - beta));
        let dt_cap = ((t - stint_start) * 0.02).max(t_boot * 1e-2);

        let dt_guess = (dv_target / s0).min(dt_cap).min(dt_rel);
        let mut half = processed.clone();
        half[cur] += s0 * dt_guess * 0.5;
        let s_mid = speed(t + dt_guess * 0.5, &half)?;
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

/// Every bit of a run: objective, per-job vectors, segments, steps.
fn run_bits(run: &NonUniformRun) -> Vec<u64> {
    let o = &run.objective;
    let mut bits = vec![o.energy.to_bits(), o.frac_flow.to_bits(), o.int_flow.to_bits(), run.steps as u64];
    let pj = &run.per_job;
    for v in [&pj.completion, &pj.frac_flow, &pj.int_flow] {
        bits.extend(v.iter().map(|x| x.to_bits()));
    }
    for s in run.schedule.segments() {
        let law = match s.law {
            SpeedLaw::Constant { speed } => speed.to_bits(),
            other => panic!("non-uniform NC emits constant-speed segments, got {other:?}"),
        };
        bits.extend([s.start.to_bits(), s.end.to_bits(), s.job.map_or(u64::MAX, |j| j as u64)]);
        bits.extend([law, s.scale.to_bits()]);
    }
    bits
}

/// Run both integrators; `Ok(succeeded)` when they give the same bits or
/// the same error, a message naming the difference otherwise.
fn compare(ctx: &str, inst: &Instance, law: PowerLaw, params: NonUniformParams) -> Result<bool, String> {
    let fast = run_nc_nonuniform(inst, law, params);
    let reference = reference_nc_nonuniform(inst, law, params);
    match (&fast, &reference) {
        (Ok(f), Ok(r)) if run_bits(f) == run_bits(r) => Ok(true),
        (Err(f), Err(r)) if f == r => Ok(false),
        _ => Err(format!("{ctx}: outcomes differ\nfast      {fast:?}\nreference {reference:?}")),
    }
}

/// [`compare`], panicking on a difference.
fn assert_same(ctx: &str, inst: &Instance, law: PowerLaw, params: NonUniformParams) -> bool {
    compare(ctx, inst, law, params).unwrap_or_else(|e| panic!("{e}"))
}

fn scaled(inst: &Instance, a: f64) -> Instance {
    let jobs = inst.jobs().iter().map(|j| Job::new(j.release * a, j.volume * a, j.density)).collect();
    Instance::new(jobs).unwrap()
}

fn families() -> [(&'static str, DensityDist); 3] {
    [
        ("uniform", DensityDist::Fixed(1.0)),
        ("loguniform", DensityDist::LogUniform { lo: 0.2, hi: 20.0 }),
        ("levels", DensityDist::PowerLevels { base: 5.0, levels: 3 }),
    ]
}

/// Coarse integration: the same code paths at a fraction of the steps.
fn quick(alpha: f64) -> NonUniformParams {
    NonUniformParams { steps_per_job: 40, ..NonUniformParams::recommended(alpha) }
}

#[test]
fn nc_nonuniform_matches_the_from_scratch_oracle_bitwise() {
    let mut runs = 0;
    for alpha in ALPHAS {
        for (f, (name, densities)) in families().into_iter().enumerate() {
            let spec = WorkloadSpec {
                n_jobs: 6,
                arrival_rate: 1.5,
                volumes: VolumeDist::Exponential { mean: 0.8 },
                densities,
            };
            let base = spec.generate(100 + f as u64).unwrap();
            for a in SCALES {
                let ctx = format!("{name} α={alpha} a={a:e}");
                runs += usize::from(assert_same(&ctx, &scaled(&base, a), law(alpha), quick(alpha)));
            }
        }
    }
    assert_eq!(runs, ALPHAS.len() * 3 * SCALES.len(), "every sweep case must run");
    // The default resolution on one instance, with preemptions.
    let inst = Instance::new(vec![
        Job::new(0.0, 1.0, 1.0),
        Job::new(0.2, 0.5, 6.0),
        Job::new(0.5, 0.8, 1.0),
        Job::new(1.0, 0.3, 30.0),
    ])
    .unwrap();
    assert!(assert_same("mixed default", &inst, law(2.5), NonUniformParams::recommended(2.5)));
}

/// Releases quantised onto a coarse grid (exact ties, simultaneous
/// arrivals, equal rounded densities), plus releases closer together than
/// the integrator's `1e-15` pick tolerance. In the last instances a dense
/// job is served before its release and completes before it, so `I(t)`
/// holds a job released after `t` — both while it is served and, in the
/// prefix of the next served job, after it completes.
#[test]
fn nc_nonuniform_matches_the_oracle_on_tie_heavy_instances() {
    let mut cases = Vec::new();
    for (seed, (_, densities)) in families().into_iter().enumerate() {
        let spec = WorkloadSpec {
            n_jobs: 7,
            arrival_rate: 4.0,
            volumes: VolumeDist::Uniform { lo: 0.1, hi: 1.0 },
            densities,
        };
        let inst = spec.generate(7 + seed as u64).unwrap();
        let jobs = inst.jobs().iter().map(|j| Job::new((j.release * 2.0).floor() / 2.0, j.volume, j.density));
        cases.push(Instance::new(jobs.collect()).unwrap());
    }
    for base in [0.0, 1e-9, 3.0] {
        cases.push(
            Instance::new(vec![
                Job::new(base, 0.4, 1.0),
                Job::new(base + 4e-16, 0.3, 1.0),
                Job::new(base + 8e-16, 0.2, 25.0),
                Job::new(base + 0.1, 0.5, 5.0),
                Job::new(base + 0.1, 0.5, 5.0),
            ])
            .unwrap(),
        );
    }
    for base in [0.0, 1e-9] {
        cases.push(
            Instance::new(vec![
                Job::new(base, 0.5, 1.0),
                Job::new(base + 9e-16, 1e-19, 25.0),
                Job::new(base + 9.5e-16, 0.3, 5.0),
                Job::new(base + 0.1, 0.5, 5.0),
            ])
            .unwrap(),
        );
    }
    for (i, inst) in cases.iter().enumerate() {
        for alpha in [2.0, 3.0] {
            assert!(assert_same(&format!("tie case {i} α={alpha}"), inst, law(alpha), quick(alpha)));
        }
    }
}

/// The fault-injection suite at the robustness contract's settings. Cases
/// shard over the worker pool; every difference is reported at once.
#[test]
fn nc_nonuniform_matches_the_oracle_on_the_fault_suite() {
    let params = NonUniformParams { steps_per_job: 60, max_steps: 60_000, ..NonUniformParams::default() };
    let suite: Vec<_> = fault_suite(7, 220).into_iter().filter_map(|c| Some((c.label, c.instance.ok()?))).collect();
    let outcomes: Vec<Vec<Result<bool, String>>> = Pool::auto().map_chunked(&suite, 0, |(label, inst)| {
        [2.0, 3.0].map(|alpha| compare(&format!("{label} α={alpha}"), inst, law(alpha), params)).to_vec()
    });
    let (mut ok, mut err, mut diffs) = (0, 0, Vec::new());
    for outcome in outcomes.into_iter().flatten() {
        match outcome {
            Ok(true) => ok += 1,
            Ok(false) => err += 1,
            Err(e) => diffs.push(e),
        }
    }
    assert!(diffs.is_empty(), "{} cases differ:\n{}", diffs.len(), diffs.join("\n"));
    assert!(ok >= 100 && err >= 1, "suite must exercise both outcomes: {ok} ok, {err} errors");
}

/// Random streams with exact release ties; `I(t)`-like volumes.
fn random_stream(rng: &mut Pcg64) -> Vec<Job> {
    let n = 1 + rng.below(9);
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            if !rng.bool(0.25) {
                t += rng.range_f64(0.0, 1.5);
            }
            let density = [0.5, 1.0, 5.0, 25.0][rng.below(4)];
            Job::new(t, rng.range_f64(0.05, 2.0), density)
        })
        .collect()
}

/// Offer the jobs released by `t` to a fresh stream and read its speed.
fn stream_speed(law: PowerLaw, jobs: &[Job], t: f64) -> f64 {
    let mut stream = CStream::shadow(law);
    let offered = jobs.iter().take_while(|j| j.release <= t).count();
    for job in &jobs[..offered] {
        stream.offer(*job, &mut |_| {}).unwrap();
    }
    let next = jobs.get(offered).map_or(f64::INFINITY, |j| j.release);
    stream.speed_at(t, next).unwrap()
}

#[test]
fn cstream_speed_read_matches_the_batch_schedule_at_every_edge() {
    let mut rng = Pcg64::seed_from_u64(0x5eed);
    let mut reads = 0usize;
    for case in 0..300 {
        let alpha = ALPHAS[case % ALPHAS.len()];
        let jobs = random_stream(&mut rng);
        let batch = run_c(&Instance::new(jobs.clone()).unwrap(), law(alpha)).unwrap();
        let segs = batch.schedule.segments();
        let mut times: Vec<f64> = jobs.iter().map(|j| j.release).collect();
        for s in segs {
            times.extend([s.start, s.end, 0.5 * (s.start + s.end)]);
        }
        // Inside the closing-speed window after the makespan, and past it.
        let end = batch.makespan();
        times.extend([end + 5e-13, end + 1e-9, end + 1.0]);
        for t in times {
            let want = batch.schedule.speed_at(t);
            let got = stream_speed(law(alpha), &jobs, t);
            assert_eq!(got.to_bits(), want.to_bits(), "case {case} α={alpha} t={t}: {got} vs {want}");
            reads += 1;
        }
    }
    assert!(reads > 5_000, "only {reads} reads");
}

/// The sort-based projection `project_simplex` used before: sort
/// descending by `total_cmp`, scan the prefix sums for the threshold.
fn project_simplex_sorted(v: &mut [f64], total: f64) {
    if v.is_empty() {
        return;
    }
    let mut u: Vec<f64> = v.to_vec();
    u.sort_by(|a, b| b.total_cmp(a));
    let mut cum = 0.0;
    let mut theta = 0.0;
    for (k, &uk) in u.iter().enumerate() {
        cum += uk;
        let cand = (cum - total) / (k + 1) as f64;
        if uk - cand > 0.0 {
            theta = cand;
        } else {
            break;
        }
    }
    for x in v.iter_mut() {
        *x = (*x - theta).max(0.0);
    }
}

#[test]
fn project_simplex_matches_the_sort_based_projection_bitwise() {
    let mut rng = Pcg64::seed_from_u64(0xc0de);
    let pool = [0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, -1e-300, 3.0, 1e6];
    for case in 0..4000 {
        let len = rng.below(60);
        let mut v: Vec<f64> = (0..len)
            .map(|_| match rng.below(4) {
                0 => pool[rng.below(pool.len())],
                1 => rng.range_f64(-2.0, 2.0),
                2 => (rng.range_f64(-4.0, 4.0) * 4.0).round() / 4.0,
                _ => rng.range_f64(-1e-3, 1e-3),
            })
            .collect();
        if case % 10 == 0 && len > 0 {
            let x = v[0];
            v.iter_mut().for_each(|e| *e = x);
        }
        let total = [0.0, 1.0, 2.5, 1e-9, 100.0][case % 5];
        let mut want = v.clone();
        project_simplex_sorted(&mut want, total);
        let mut got = v.clone();
        project_simplex(&mut got, total);
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want), "case {case}: total {total}, input {v:?}");
    }
}

/// `FracOpt` bits for four seeded instances, recorded from the sort-based,
/// allocating solver: `(seed, α, primal, dual, iterations, kkt residual)`.
/// Two runs stop on the stall rule and two at the iteration cap.
const PINNED: [(u64, f64, u64, u64, usize, u64); 4] = [
    (1, 2.0, 0x402e_a2bf_4c7a_162b, 0x402d_98ac_88ce_94f8, 87, 0x3eed_fd01_b4b7_1da4),
    (2, 2.5, 0x403f_bc11_76b8_744b, 0x403f_2d71_c3a3_1fb7, 60, 0x3eec_56bb_1a7b_d8c5),
    (3, 3.0, 0x404f_b200_da07_dff9, 0x404f_2d92_a3db_9ca1, 250, 0x3f5a_c2c9_9446_518b),
    (4, 1.5, 0x4043_e181_fee6_2d53, 0x4043_ad9b_6a89_c248, 250, 0x3f7b_f3de_894e_83ef),
];

fn pinned_instance(seed: u64) -> Instance {
    let spec = WorkloadSpec {
        n_jobs: 6,
        arrival_rate: 1.0,
        volumes: VolumeDist::Exponential { mean: 1.0 },
        densities: DensityDist::PowerLevels { base: 5.0, levels: 3 },
    };
    spec.generate(seed).unwrap()
}

fn pinned_options() -> GridOptions {
    GridOptions { steps: 300, max_iters: 250, ..GridOptions::default() }
}

#[test]
fn frac_opt_bits_are_pinned() {
    for (seed, alpha, primal, dual, iterations, kkt) in PINNED {
        let sol: FracOpt = solve_grid(&pinned_instance(seed), law(alpha), pinned_options()).unwrap();
        let got = (sol.primal_cost.to_bits(), sol.dual_bound.to_bits(), sol.iterations, sol.kkt_residual.to_bits());
        assert_eq!(got, (primal, dual, iterations, kkt), "seed {seed} α={alpha}: {sol:?}");
    }
}
