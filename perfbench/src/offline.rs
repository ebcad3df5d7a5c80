//! The `offline` workload: two batch paths in sequence, one thread.
//!
//! 1. `compare` on a seeded non-uniform instance (exponential unit-mean
//!    volumes, Poisson rate 1, power-level densities with base 5 and 3
//!    levels) at α = 2.5, the `half-integer` kernel: the fractional OPT
//!    bracket, then C, NC-nonuniform and the three baselines, each
//!    batch-audited.
//! 2. `replay --audit 1` of a C trace recorded during set-up: read the
//!    file, replay it bitwise, rebuild the schedule, run `ScheduleAudit`.
//!
//! The batch audits run with one worker, and so does the OPT solver's pool
//! (`NCSS_POOL_THREADS=1`), so the whole workload is single-threaded.

use crate::metrics::{self, Values, BATCH_CHECKS};
use crate::span::{leaf, Off, Probe, Summary, Tracer};
use crate::stream::{poisson_jobs, recorded_pass, RATE};
use crate::{gate, subseed, Config, Report, Setup};
use ncss_audit::{AuditConfig, AuditReport, ScheduleAudit};
use ncss_core::baselines::{run_active_count, run_constant_speed, run_newest_first};
use ncss_core::streaming::CStream;
use ncss_core::{run_c, run_nc_nonuniform, run_nc_uniform, NonUniformParams};
use ncss_opt::{solve_fractional_opt, SolverOptions};
use ncss_sim::{Evaluated, Instance, Objective, PerJob, PowerLaw, Schedule, ScheduleBuilder};
use ncss_workloads::{DensityDist, VolumeDist, WorkloadSpec};
use std::path::Path;
use std::time::Instant;

/// The algorithms `compare` runs on a non-uniform instance.
const ALGORITHMS: &[&str] = &[
    "c",
    "nc-nonuniform",
    "active-count",
    "newest-first",
    "constant:1.0",
];

/// The `compare` instance spec.
fn spec(n: usize) -> WorkloadSpec {
    WorkloadSpec {
        n_jobs: n,
        arrival_rate: 1.0,
        volumes: VolumeDist::Exponential { mean: 1.0 },
        densities: DensityDist::PowerLevels {
            base: 5.0,
            levels: 3,
        },
    }
}

/// Run one algorithm; `(schedule, reported, integration steps)`.
fn run_algorithm(
    name: &str,
    inst: &Instance,
    law: PowerLaw,
) -> Result<(Schedule, Evaluated, usize), String> {
    let pack = |schedule, objective, per_job| (schedule, Evaluated { objective, per_job });
    let e = |e: ncss_sim::SimError| format!("{name}: {e}");
    let (schedule, reported) = match name {
        "c" => run_c(inst, law).map(|r| pack(r.schedule, r.objective, r.per_job)),
        "nc" => run_nc_uniform(inst, law).map(|r| pack(r.schedule, r.objective, r.per_job)),
        "nc-nonuniform" => {
            let r = run_nc_nonuniform(inst, law, NonUniformParams::recommended(law.alpha()))
                .map_err(e)?;
            return Ok((
                r.schedule,
                Evaluated {
                    objective: r.objective,
                    per_job: r.per_job,
                },
                r.steps,
            ));
        }
        "active-count" => {
            run_active_count(inst, law).map(|r| pack(r.schedule, r.objective, r.per_job))
        }
        "newest-first" => {
            run_newest_first(inst, law).map(|r| pack(r.schedule, r.objective, r.per_job))
        }
        "constant:1.0" => {
            run_constant_speed(inst, law, 1.0).map(|r| pack(r.schedule, r.objective, r.per_job))
        }
        other => return Err(format!("unknown algorithm {other}")),
    }
    .map_err(e)?;
    Ok((schedule, reported, 0))
}

/// What one `compare` produced.
#[derive(Debug, Default)]
pub struct CompareOut {
    /// Relative primal–dual gap of the OPT bracket.
    pub gap: f64,
    /// Solver iterations.
    pub iterations: usize,
    /// NC-nonuniform integration steps.
    pub steps: usize,
    /// Each algorithm's objective, in [`ALGORITHMS`] order.
    pub objectives: Vec<Objective>,
    /// Batch audit reports.
    pub audits: Vec<AuditReport>,
}

/// `compare` on one instance. Returns the operations attempted (the OPT
/// solve and each algorithm run) with the first failure, if any.
pub fn compare<P: Probe>(
    p: &mut P,
    inst: &Instance,
    law: PowerLaw,
) -> (u64, Result<CompareOut, String>) {
    let mut attempted = 1;
    let run = |p: &mut P, attempted: &mut u64| -> Result<CompareOut, String> {
        let sol = leaf(p, "opt.solve", || {
            solve_fractional_opt(inst, law, SolverOptions::default())
        })
        .map_err(|e| format!("OPT solve: {e}"))?;
        gate(
            sol.dual_bound.is_finite()
                && sol.dual_bound > 0.0
                && sol.dual_bound <= sol.primal_cost * (1.0 + 1e-9),
            || {
                format!(
                    "OPT bracket is not a bracket: dual {} primal {}",
                    sol.dual_bound, sol.primal_cost
                )
            },
        )?;
        let mut out = CompareOut {
            gap: sol.gap(),
            iterations: sol.iterations,
            ..CompareOut::default()
        };
        let uniform = inst.is_uniform_density();
        for &name in ALGORITHMS {
            let name = if name == "nc-nonuniform" && uniform {
                "nc"
            } else {
                name
            };
            *attempted += 1;
            let span = if name == "nc-nonuniform" {
                "core.nonuniform"
            } else {
                "core.batch_run"
            };
            let (schedule, reported, steps) = leaf(p, span, || run_algorithm(name, inst, law))?;
            out.steps += steps;
            // Step-integrated runs are only accurate to their step size.
            let rel_tol = if name == "nc-nonuniform" { 1e-2 } else { 1e-6 };
            let config = AuditConfig {
                rel_tol,
                threads: Some(1),
                ..AuditConfig::default()
            };
            let report = leaf(p, "audit.batch", || {
                ScheduleAudit::new(config).audit(inst, &schedule, &reported)
            });
            gate(report.passed(), || {
                format!("{name}: batch audit failed:\n{}", report.render())
            })?;
            let frac = reported.objective.fractional();
            gate(frac >= sol.dual_bound * (1.0 - 1e-9), || {
                format!(
                    "{name}: objective {frac} is below the certified OPT lower bound {}",
                    sol.dual_bound
                )
            })?;
            out.objectives.push(reported.objective);
            out.audits.push(report);
        }
        Ok(out)
    };
    let r = run(p, &mut attempted);
    (attempted, r)
}

/// What one replay produced.
#[derive(Debug)]
pub struct ReplayOut {
    /// The replayed objective.
    pub objective: Objective,
    /// Checkpoints verified against the replaying stream.
    pub checkpoints_verified: usize,
    /// The batch audit report.
    pub audit: AuditReport,
}

/// `replay --audit 1` of the trace at `path`, which must hold `n` releases.
///
/// # Errors
/// A read or replay failure, a divergence, or a failed audit.
pub fn replay_audit<P: Probe>(p: &mut P, path: &Path, n: usize) -> Result<ReplayOut, String> {
    let trace =
        leaf(p, "trace.read", || ncss_trace::read_file(path)).map_err(|e| format!("read: {e}"))?;
    let rep = leaf(p, "trace.replay", || ncss_trace::replay(&trace))
        .map_err(|e| format!("replay: {e}"))?;
    let recorded = Objective {
        energy: rep.recorded.energy,
        frac_flow: rep.recorded.frac_flow,
        int_flow: rep.recorded.int_flow,
    };
    gate(
        crate::objective_bits(&recorded) == crate::objective_bits(&rep.replayed.objective),
        || {
            format!(
                "replay is not bitwise: recorded {recorded:?}, replayed {:?}",
                rep.replayed.objective
            )
        },
    )?;
    gate(
        rep.jobs.len() == n && rep.checkpoints_verified == n / 64,
        || {
            format!(
                "replay saw {} jobs and {} checkpoints of {n} and {}",
                rep.jobs.len(),
                rep.checkpoints_verified,
                n / 64
            )
        },
    )?;
    let alpha = rep.header.alpha;
    let built = leaf(
        p,
        "sim.schedule_build",
        || -> Result<_, ncss_sim::SimError> {
            let inst = Instance::new(rep.jobs.clone())?;
            let mut builder = ScheduleBuilder::new(PowerLaw::new(alpha)?);
            for seg in &rep.segments {
                builder.push(*seg);
            }
            let schedule = builder.build()?;
            let mut per_job = PerJob {
                completion: vec![f64::NAN; n],
                frac_flow: vec![0.0; n],
                int_flow: vec![0.0; n],
            };
            for c in &rep.completions_c {
                per_job.completion[c.id] = c.completion;
                per_job.frac_flow[c.id] = c.frac_flow;
                per_job.int_flow[c.id] = c.int_flow;
            }
            Ok((
                inst,
                schedule,
                Evaluated {
                    objective: recorded,
                    per_job,
                },
            ))
        },
    )
    .map_err(|e| format!("rebuild: {e}"))?;
    let (inst, schedule, reported) = built;
    let config = AuditConfig {
        threads: Some(1),
        ..AuditConfig::default()
    };
    let audit = leaf(p, "audit.batch", || {
        ScheduleAudit::new(config).audit(&inst, &schedule, &reported)
    });
    gate(audit.passed(), || {
        format!("replay audit failed:\n{}", audit.render())
    })?;
    Ok(ReplayOut {
        objective: recorded,
        checkpoints_verified: rep.checkpoints_verified,
        audit,
    })
}

/// Inputs built by set-up.
#[derive(Debug, PartialEq)]
struct Inputs {
    instances: Vec<Instance>,
    trace_digest: u64,
}

/// The fingerprint of one `compare`'s deterministic outputs.
fn compare_fingerprint(o: &CompareOut) -> String {
    let mut s = format!("gap={:?} iterations={}", o.gap, o.iterations);
    for (name, obj) in ALGORITHMS.iter().zip(&o.objectives) {
        s.push_str(&format!(" {name}={:?}", obj.fractional()));
    }
    s
}

/// Runs the two paths and gates their determinism.
struct Runner<'a> {
    inputs: &'a Inputs,
    law: PowerLaw,
    path: &'a Path,
    n: usize,
    first_compare: Vec<Option<String>>,
    first_replay: Option<String>,
}

impl Runner<'_> {
    /// `compare` on instance `i`: seconds and outputs.
    fn compare<P: Probe>(
        &mut self,
        p: &mut P,
        report: &mut Report,
        i: usize,
    ) -> (f64, Option<CompareOut>) {
        let t0 = Instant::now();
        let (attempted, r) = compare(p, &self.inputs.instances[i], self.law);
        let secs = t0.elapsed().as_secs_f64();
        report.ops(attempted, r.as_ref().map(|_| ()).map_err(Clone::clone));
        let Ok(out) = r else { return (secs, None) };
        let fp = compare_fingerprint(&out);
        report.recheck(
            attempted,
            crate::same_as_first(&mut self.first_compare[i], fp.clone(), "compare outputs"),
        );
        if report.outputs.len() == i {
            report.output(format!("compare{i}"), fp);
        }
        (secs, Some(out))
    }

    /// The replay with its audit: seconds and outputs.
    fn replay<P: Probe>(&mut self, p: &mut P, report: &mut Report) -> (f64, Option<ReplayOut>) {
        let t0 = Instant::now();
        let r = replay_audit(p, self.path, self.n);
        let secs = t0.elapsed().as_secs_f64();
        report.ops(1, r.as_ref().map(|_| ()).map_err(Clone::clone));
        let Ok(out) = r else { return (secs, None) };
        let fp = format!(
            "frac={:?} checkpoints_verified={} trace_fnv64={:016x}",
            out.objective.fractional(),
            out.checkpoints_verified,
            self.inputs.trace_digest
        );
        report.recheck(
            1,
            crate::same_as_first(&mut self.first_replay, fp.clone(), "replay outputs"),
        );
        if report.outputs.len() == self.inputs.instances.len() {
            report.output("replay", fp);
        }
        (secs, Some(out))
    }

    /// Every `compare`, then the replay.
    fn all<P: Probe>(
        &mut self,
        p: &mut P,
        report: &mut Report,
    ) -> (Vec<CompareOut>, Option<ReplayOut>) {
        let outs = (0..self.inputs.instances.len())
            .filter_map(|i| self.compare(p, report, i).1)
            .collect();
        (outs, self.replay(p, report).1)
    }
}

/// Per-layer values of one traced iteration.
fn layer_values(
    sum: &Summary,
    wall_ns: f64,
    outs: &[CompareOut],
    replay: Option<&ReplayOut>,
) -> Values {
    let mut v = Values::new();
    v.insert("core.nonuniform_ms".into(), sum.total_ms("core.nonuniform"));
    v.insert(
        "core.nonuniform_steps".into(),
        outs.iter().map(|o| o.steps).sum::<usize>() as f64,
    );
    v.insert("core.batch_runs_ms".into(), sum.total_ms("core.batch_run"));
    v.insert("core.busy_share".into(), sum.busy_share("core", wall_ns));
    v.insert("audit.batch_ms".into(), sum.total_ms("audit.batch"));
    v.insert("audit.busy_share".into(), sum.busy_share("audit", wall_ns));
    let audits = outs
        .iter()
        .flat_map(|o| o.audits.iter())
        .chain(replay.map(|r| &r.audit));
    let mut per_check: Values = BATCH_CHECKS
        .iter()
        .map(|c| (format!("audit.batch_check_ms.{c}"), 0.0))
        .collect();
    for a in audits {
        for c in &a.checks {
            *per_check
                .entry(format!("audit.batch_check_ms.{}", c.name))
                .or_default() += c.elapsed_ns as f64 / 1e6;
        }
    }
    v.extend(per_check);
    v.insert("trace.read_ms".into(), sum.total_ms("trace.read"));
    v.insert("trace.replay_ms".into(), sum.total_ms("trace.replay"));
    v.insert(
        "trace.checkpoints_verified".into(),
        replay.map_or(0.0, |r| r.checkpoints_verified as f64),
    );
    v.insert("opt.solve_ms".into(), sum.total_ms("opt.solve"));
    v.insert(
        "opt.iterations".into(),
        outs.iter().map(|o| o.iterations).sum::<usize>() as f64,
    );
    v.insert(
        "opt.gap".into(),
        metrics::median(&outs.iter().map(|o| o.gap).collect::<Vec<_>>()),
    );
    v.insert(
        "bench.unattributed_share".into(),
        sum.unattributed_share(wall_ns),
    );
    v
}

/// The `offline` workload.
///
/// # Errors
/// When set-up fails.
pub fn run(config: &Config) -> Result<Report, String> {
    // One thread: the OPT solver sizes its pool from this knob.
    std::env::set_var("NCSS_POOL_THREADS", "1");
    let law = PowerLaw::new(2.5).map_err(|e| e.to_string())?;
    let trace_law = PowerLaw::new(3.0).map_err(|e| e.to_string())?;
    let sizes = &config.sizes;
    let path = config.work_dir.join("offline_c.nct");
    let trace_seed = subseed(config.seed, 3);
    let source_s = std::cell::RefCell::new(Vec::new());
    let (inputs, mut setup) = Setup::run(sizes.setup_reps, || {
        let t0 = Instant::now();
        let instances = (0..sizes.compare_instances)
            .map(|i| {
                spec(sizes.compare_n)
                    .generate(subseed(config.seed, 10 + i as u64))
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let jobs = poisson_jobs(trace_seed, RATE, sizes.replay_n);
        source_s.borrow_mut().push(t0.elapsed().as_secs_f64());
        recorded_pass::<CStream, _>(&mut Off, trace_law, &jobs, &path, trace_seed, false)?;
        let bytes = std::fs::read(&path).map_err(|e| e.to_string())?;
        Ok(Inputs {
            instances,
            trace_digest: crate::fnv64(&bytes),
        })
    })?;
    let events = sizes.compare_n * sizes.compare_instances + sizes.replay_n;
    let source_ns = metrics::median(&source_s.borrow()) * 1e9 / events.max(1) as f64;
    let k = inputs.instances.len();
    let mut runner = Runner {
        inputs: &inputs,
        law,
        path: &path,
        n: sizes.replay_n,
        first_compare: vec![None; k],
        first_replay: None,
    };
    let mut report = Report::default();

    if !config.trace {
        // Half the time goes to rounds over the `compare` instances (at
        // least one), a quarter to replays interleaved with them (at least
        // `min_iters`).
        let mut per_instance: Vec<Vec<f64>> = vec![Vec::new(); k];
        let mut replay_s: Vec<f64> = Vec::new();
        let replay_wanted = |r: &Vec<f64>| {
            r.len() < sizes.min_iters || r.iter().sum::<f64>() < config.seconds / 4.0
        };
        let mut rounds = 0;
        while rounds == 0 || per_instance.iter().flatten().sum::<f64>() < config.seconds / 2.0 {
            for (i, samples) in per_instance.iter_mut().enumerate() {
                samples.push(runner.compare(&mut Off, &mut report, i).0);
                if replay_wanted(&replay_s) {
                    replay_s.push(runner.replay(&mut Off, &mut report).0);
                }
                report.recheck(1, setup.again(runner.inputs));
            }
            rounds += 1;
        }
        while replay_wanted(&replay_s) {
            replay_s.push(runner.replay(&mut Off, &mut report).0);
        }
        // Each instance's estimate, summed, so that no instance stands for
        // all. The log's tail is over the per-round sums.
        let sums: Vec<f64> = (0..rounds)
            .map(|r| per_instance.iter().map(|s| s[r] * 1e3).sum())
            .collect();
        report.part_value(
            "compare",
            per_instance
                .iter()
                .map(|s| metrics::part_estimate(s))
                .sum::<f64>()
                * 1e3,
            metrics::tail(&sums, 99.0),
        );
        let replay_ms: Vec<f64> = replay_s.iter().map(|s| s * 1e3).collect();
        report.part("replay_audit", &replay_ms);
        report.set("setup_s", setup.seconds());
        return Ok(report);
    }

    let mut per_pass: Vec<Values> = Vec::new();
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    crate::for_seconds(config.seconds, 1, || {
        let t0 = Instant::now();
        runner.all(&mut Off, &mut report);
        plain_walls.push(t0.elapsed().as_nanos() as f64);
        // Calibrated next to each traced pass: the probe's cost drifts
        // with the host's speed.
        let probe = Tracer::calibrate(20_000);
        let mut tracer = Tracer::new();
        let t0 = Instant::now();
        let (outs, rep) = runner.all(&mut tracer, &mut report);
        let wall = t0.elapsed().as_nanos() as f64;
        traced_walls.push(wall);
        let sum = Summary::of(tracer.spans(), probe);
        let mut v = layer_values(&sum, wall, &outs, rep.as_ref());
        v.insert("bench.probe_ns".into(), probe.outer);
        per_pass.push(v);
    });
    crate::finish_traced(
        &mut report,
        &per_pass,
        source_ns,
        &plain_walls,
        &traced_walls,
    );
    Ok(report)
}
