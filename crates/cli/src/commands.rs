//! Command implementations.

use crate::args::{parse_args, ParsedArgs};
use ncss_analysis::{fmt_f, Table};
use ncss_audit::{AuditConfig, MultiAudit, ScheduleAudit};
use ncss_core::baselines::{run_active_count, run_constant_speed, run_newest_first};
use ncss_core::{
    run_c, run_known_weight_sharing, run_nc_nonuniform, run_nc_uniform, theory, MultiRun,
    NonUniformParams,
};
use ncss_multi::{run_c_par, run_immediate_dispatch, run_nc_par, LeastCount};
use ncss_sim::Evaluated;
use ncss_opt::{solve_fractional_opt, SolverOptions};
use ncss_sim::{Instance, Objective, PowerLaw, Schedule};
use ncss_workloads::{instance_from_csv, instance_to_csv, DensityDist, VolumeDist, WorkloadSpec};

const HELP: &str = "\
ncss — speed scaling in the non-clairvoyant model (SPAA 2015)

commands:
  generate --n N [--rate R] [--volumes DIST] [--densities DIST] [--seed S]
           print an instance CSV to stdout
           DIST for volumes:   fixed:V | uniform:LO:HI | exp:MEAN |
                               pareto:SCALE:SHAPE | bimodal:SMALL:LARGE:P
           DIST for densities: fixed:D | loguniform:LO:HI | powers:BASE:LEVELS
  run      --algorithm A --input FILE [--alpha ALPHA]
           A = c | nc | nc-nonuniform | active-count | newest-first | constant:SPEED
  opt      --input FILE [--alpha ALPHA]
           bracket the fractional offline optimum (exact dual solve)
  compare  --input FILE [--alpha ALPHA] [--machines K]
           run every applicable algorithm and print costs + certified ratios
           plus each run's audit verdict and audit wall-time; with
           --machines K also the
           parallel-machine algorithms (cross-machine audit, ratio column -)
           exits non-zero if any audit fails
  gantt    --algorithm A --input FILE [--alpha ALPHA] [--width W]
           render the schedule as an ASCII Gantt chart with a speed sparkline
  sweep    --input FILE [--alphas LO:HI:N]
           competitive-ratio curve of C and NC across power-law exponents
  audit    --algorithm A --input FILE [--alpha ALPHA] [--rel-tol T] [--time-tol T]
           [--machines K] [--cross-check S] [--corrupt WHAT]
           re-derive the run's objective independently (closed-form segment
           integrals, every S-th integral re-measured by quadrature) and
           check every schedule invariant, reporting per-check wall-time;
           --cross-check S sets the quadrature sampling stride (default 8;
           1 = re-measure everything, 0 = closed forms only);
           exits non-zero if any check fails
           A as for 'run', plus known-sharing (outcome-only audit) and the
           parallel-machine algorithms c-par | nc-par | dispatch (audited
           across machines; --machines K, default 2).
           step-integrated algorithms (nc-nonuniform) need a looser --rel-tol
           --corrupt energy|frac-flow|int-flow|completion|schedule|kernel
           tampers with the run before auditing (the audit MUST then
           fail) — the end-to-end self-test of the audit gate. kernel
           re-runs under a mis-selected power kernel (reports the honest
           alpha, evaluates with the next integer's chains) and audits
           the segments under the honest kernel: energy-recomputed must
           go red
  fleet    --input FILE [--algorithm c-par|nc-par|dispatch] [--alpha ALPHA]
           [--machines K] [--threads T] [--check-serial 0|1]
           [--corrupt WHAT] [--max-rows N]
           sharded multi-machine run: the serial dispatcher records a
           deterministic dispatch log, the log replays as worker-pool
           tasks (--threads T, default auto), and the event-driven
           cross-machine auditor gates the merged outcome. Unless
           --check-serial 0, the log is replayed again on one worker (the
           serial runner) and the two outcomes must match bit for bit
           (DESIGN.md §12). --corrupt
           as for 'audit' tampers with the outcome so the gate must go
           red. Exits non-zero on audit failure or bitwise divergence
  stream   --input FILE|- [--algorithm c|nc] [--alpha ALPHA] [--spill CAP]
           [--emit summary|completions] [--every N] [--audit 0|1]
           [--check-batch 0|1] [--assert-active N]
           [--synthetic N [--rate R] [--seed S]]
           bounded-memory event-driven run over an ordered release stream
           (CSV from FILE, stdin with '-', or a synthetic Poisson source);
           emits completions as they happen (--emit completions, every Nth)
           and a summary with running objectives and memory high-water
           marks. --audit 1 rebuilds the schedule from the spill ring and
           re-audits it; --check-batch 1 replays the batch runner and
           requires bitwise-equal objectives; --assert-active N makes the
           run fail if more than N jobs were ever resident; both
           self-checks exit non-zero on violation. --corrupt energy skews
           the reported energy so those gates must go red (verify probe)
           --strict 1 turns any spill-ring segment drop into a non-zero
           exit. Malformed or out-of-order stdin rows fail with the line
           number, matching the CSV loader's error contract
  record   --out TRACE.nct (--input FILE|- | --synthetic N [--rate R]
           [--seed S]) [--algorithm c|nc] [--alpha ALPHA] [--note STR]
           [--checkpoint-every N] [--kill-after K [--torn-bytes B]]
           stream the input and append every release/completion/segment
           to a CRC-framed write-ahead trace, checkpointing the full
           scheduler state every N offers (durability points). --kill-after
           K simulates a crash: stop after K offers without finalizing,
           optionally leaving B bytes of a torn half-written frame at the
           tail — feed the result to 'resume'
  replay   --trace X.nct [--audit 0|1] [--check-against Y.nct]
           strict-read a trace, re-run its releases through a fresh
           scheduler and require bitwise-identical completions, segments,
           checkpoints, and objectives; --audit 1 additionally rebuilds
           the schedule and runs the independent audit; --check-against
           compares two finalized traces event-by-event (e.g. a resumed
           run vs its uninterrupted twin). Exits non-zero on any
           divergence or corruption, naming the trace error
  resume   --trace TORN.nct --out X.nct (--input ... as for record)
           [--checkpoint-every N]
           recover a torn/killed trace (truncating tail damage, reporting
           dropped bytes), restore the last checkpoint, re-offer the
           remaining input, and finalize — the result is bitwise-equal to
           an uninterrupted recording
  tamper   --trace X.nct --out Y.nct [--kind K] [--seed S]
           corrupt a valid trace deterministically; K = bit-flip |
           truncate | duplicate-frame | reorder-frames | bad-length |
           stale-version ('replay' must then fail with the named error)
  help     this message
";

/// Parallel-machine algorithms accepted by `audit`/`compare`.
const MULTI_ALGOS: [&str; 3] = ["c-par", "nc-par", "dispatch"];

fn parse_volumes(spec: &str) -> Result<VolumeDist, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    let f = |s: &str| s.parse::<f64>().map_err(|_| format!("bad number '{s}' in '{spec}'"));
    match parts.as_slice() {
        ["fixed", v] => Ok(VolumeDist::Fixed(f(v)?)),
        ["uniform", lo, hi] => Ok(VolumeDist::Uniform { lo: f(lo)?, hi: f(hi)? }),
        ["exp", m] => Ok(VolumeDist::Exponential { mean: f(m)? }),
        ["pareto", s, sh] => Ok(VolumeDist::Pareto { scale: f(s)?, shape: f(sh)? }),
        ["bimodal", s, l, p] => Ok(VolumeDist::Bimodal { small: f(s)?, large: f(l)?, p_large: f(p)? }),
        _ => Err(format!("unknown volume distribution '{spec}'")),
    }
}

fn parse_densities(spec: &str) -> Result<DensityDist, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    let f = |s: &str| s.parse::<f64>().map_err(|_| format!("bad number '{s}' in '{spec}'"));
    match parts.as_slice() {
        ["fixed", d] => Ok(DensityDist::Fixed(f(d)?)),
        ["loguniform", lo, hi] => Ok(DensityDist::LogUniform { lo: f(lo)?, hi: f(hi)? }),
        ["powers", b, l] => Ok(DensityDist::PowerLevels {
            base: f(b)?,
            levels: l.parse().map_err(|_| format!("bad level count '{l}'"))?,
        }),
        _ => Err(format!("unknown density distribution '{spec}'")),
    }
}

fn load_instance(args: &ParsedArgs) -> Result<Instance, String> {
    let path = args.require("input")?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    instance_from_csv(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn law_of(args: &ParsedArgs) -> Result<PowerLaw, String> {
    PowerLaw::new(args.f64_or("alpha", 3.0)?).map_err(|e| e.to_string())
}

fn cmd_generate(args: &ParsedArgs) -> Result<String, String> {
    let spec = WorkloadSpec {
        n_jobs: args.usize_or("n", 10)?,
        arrival_rate: args.f64_or("rate", 1.0)?,
        volumes: parse_volumes(&args.get_or("volumes", "exp:1.0"))?,
        densities: parse_densities(&args.get_or("densities", "fixed:1.0"))?,
    };
    let seed = args.usize_or("seed", 1)? as u64;
    let inst = spec.generate(seed).map_err(|e| e.to_string())?;
    Ok(instance_to_csv(&inst))
}

fn run_algorithm(name: &str, inst: &Instance, law: PowerLaw) -> Result<Objective, String> {
    let err = |e: ncss_sim::SimError| e.to_string();
    if let Some(speed) = name.strip_prefix("constant:") {
        let s: f64 = speed.parse().map_err(|_| format!("bad speed '{speed}'"))?;
        return Ok(run_constant_speed(inst, law, s).map_err(err)?.objective);
    }
    match name {
        "c" => Ok(run_c(inst, law).map_err(err)?.objective),
        "nc" => Ok(run_nc_uniform(inst, law).map_err(err)?.objective),
        "nc-nonuniform" => Ok(run_nc_nonuniform(inst, law, NonUniformParams::recommended(law.alpha()))
            .map_err(err)?
            .objective),
        "active-count" => Ok(run_active_count(inst, law).map_err(err)?.objective),
        "newest-first" => Ok(run_newest_first(inst, law).map_err(err)?.objective),
        _ => Err(format!("unknown algorithm '{name}'; see 'ncss help'")),
    }
}

fn cmd_run(args: &ParsedArgs) -> Result<String, String> {
    let inst = load_instance(args)?;
    let law = law_of(args)?;
    let name = args.require("algorithm")?;
    let o = run_algorithm(&name, &inst, law)?;
    let mut t = Table::new(
        format!(
            "{name} on {} jobs (alpha = {}, kernel = {})",
            inst.len(),
            law.alpha(),
            law.kernel_name()
        ),
        &["energy", "frac flow", "int flow", "frac objective", "int objective"],
    );
    t.row(vec![fmt_f(o.energy), fmt_f(o.frac_flow), fmt_f(o.int_flow), fmt_f(o.fractional()), fmt_f(o.integral())]);
    Ok(t.render())
}

fn cmd_opt(args: &ParsedArgs) -> Result<String, String> {
    let inst = load_instance(args)?;
    let law = law_of(args)?;
    let sol = solve_fractional_opt(&inst, law, SolverOptions::default()).map_err(|e| e.to_string())?;
    let mut t = Table::new(
        format!("fractional OPT bracket for {} jobs (alpha = {})", inst.len(), law.alpha()),
        &["certified lower bound", "feasible upper bound", "gap", "iterations"],
    );
    t.row(vec![
        fmt_f(sol.dual_bound),
        fmt_f(sol.primal_cost),
        format!("{:.1e}", sol.gap()),
        format!("{}", sol.iterations),
    ]);
    Ok(t.render())
}

fn cmd_compare(args: &ParsedArgs) -> Result<String, String> {
    let inst = load_instance(args)?;
    let law = law_of(args)?;
    let machines = args.usize_or("machines", 0)?; // 0 = single-machine only
    let sol = solve_fractional_opt(&inst, law, SolverOptions::default()).map_err(|e| e.to_string())?;
    let lb = sol.dual_bound.max(f64::MIN_POSITIVE);

    let mut algos: Vec<&str> = vec!["c", "active-count", "newest-first", "constant:1.0"];
    if inst.is_uniform_density() {
        algos.insert(1, "nc");
    } else {
        algos.insert(1, "nc-nonuniform");
    }
    let mut t = Table::new(
        format!(
            "comparison on {} jobs (alpha = {}), certified OPT lower bound = {}",
            inst.len(),
            law.alpha(),
            fmt_f(sol.dual_bound)
        ),
        &[
            "algorithm", "frac objective", "ratio vs OPT lb", "int objective", "audit",
            "max residual", "audit time",
        ],
    );
    let mut failed: Vec<String> = Vec::new();
    let mut verdict = |name: &str, report: &ncss_audit::AuditReport| -> Vec<String> {
        if !report.passed() {
            failed.push(name.to_string());
        }
        vec![
            if report.passed() { "PASS" } else { "FAIL" }.to_string(),
            format!("{:.1e}", report.max_residual()),
            format!("{:.2}ms", report.total_ns() as f64 / 1e6),
        ]
    };
    for name in &algos {
        let (schedule, reported) = evaluated_of(name, &inst, law)?;
        // Step-integrated runs are only accurate to their step size.
        let config = if *name == "nc-nonuniform" {
            AuditConfig { rel_tol: 1e-2, ..AuditConfig::default() }
        } else {
            AuditConfig::default()
        };
        let report = ScheduleAudit::new(config).audit(&inst, &schedule, &reported);
        let o = &reported.objective;
        let mut row =
            vec![(*name).to_string(), fmt_f(o.fractional()), fmt_f(o.fractional() / lb), fmt_f(o.integral())];
        row.extend(verdict(name, &report));
        t.row(row);
    }
    if machines > 0 {
        // The single-machine OPT lower bound does not apply across a fleet,
        // so the ratio column is "-" for the parallel algorithms.
        for name in MULTI_ALGOS {
            if name != "c-par" && !inst.is_uniform_density() {
                continue; // NC-PAR and dispatch are uniform-density algorithms
            }
            let run = multi_run_of(name, &inst, law, machines)?;
            let reported = Evaluated { objective: run.objective, per_job: run.per_job.clone() };
            let report = MultiAudit::default().audit(&inst, &run.schedules, &reported);
            let o = &reported.objective;
            let label = format!("{name} x{machines}");
            let mut row =
                vec![label.clone(), fmt_f(o.fractional()), "-".to_string(), fmt_f(o.integral())];
            row.extend(verdict(&label, &report));
            t.row(row);
        }
    }
    let mut out = t.render();
    if inst.is_uniform_density() {
        out.push_str(&format!(
            "paper bounds at alpha={}: NC fractional {}, NC integral {}\n",
            law.alpha(),
            fmt_f(theory::nc_uniform_fractional_bound(law.alpha())),
            fmt_f(theory::nc_uniform_integral_bound(law.alpha())),
        ));
    }
    // Like `audit`: a failed verdict fails the command so CI sees it.
    if failed.is_empty() {
        Ok(out)
    } else {
        Err(format!("{out}audit FAILED for: {}", failed.join(", ")))
    }
}

fn schedule_of(name: &str, inst: &Instance, law: PowerLaw) -> Result<ncss_sim::Schedule, String> {
    evaluated_of(name, inst, law).map(|(schedule, _)| schedule)
}

/// Run a schedule-producing algorithm and keep everything the audit needs.
fn evaluated_of(
    name: &str,
    inst: &Instance,
    law: PowerLaw,
) -> Result<(ncss_sim::Schedule, Evaluated), String> {
    let err = |e: ncss_sim::SimError| e.to_string();
    let pack = |schedule, objective, per_job| (schedule, Evaluated { objective, per_job });
    if let Some(speed) = name.strip_prefix("constant:") {
        let s: f64 = speed.parse().map_err(|_| format!("bad speed '{speed}'"))?;
        let r = run_constant_speed(inst, law, s).map_err(err)?;
        return Ok(pack(r.schedule, r.objective, r.per_job));
    }
    match name {
        "c" => {
            let r = run_c(inst, law).map_err(err)?;
            Ok(pack(r.schedule, r.objective, r.per_job))
        }
        "nc" => {
            let r = run_nc_uniform(inst, law).map_err(err)?;
            Ok(pack(r.schedule, r.objective, r.per_job))
        }
        "nc-nonuniform" => {
            let r = run_nc_nonuniform(inst, law, NonUniformParams::recommended(law.alpha()))
                .map_err(err)?;
            Ok(pack(r.schedule, r.objective, r.per_job))
        }
        "active-count" => {
            let r = run_active_count(inst, law).map_err(err)?;
            Ok(pack(r.schedule, r.objective, r.per_job))
        }
        "newest-first" => {
            let r = run_newest_first(inst, law).map_err(err)?;
            Ok(pack(r.schedule, r.objective, r.per_job))
        }
        _ => Err(format!("unknown algorithm '{name}'; see 'ncss help'")),
    }
}

/// Run a parallel-machine algorithm by CLI name (see [`MULTI_ALGOS`]).
fn multi_run_of(
    name: &str,
    inst: &Instance,
    law: PowerLaw,
    machines: usize,
) -> Result<MultiRun, String> {
    let err = |e: ncss_sim::SimError| e.to_string();
    match name {
        "c-par" => run_c_par(inst, law, machines).map_err(err),
        "nc-par" => run_nc_par(inst, law, machines).map_err(err),
        "dispatch" => {
            let mut policy = LeastCount::default();
            run_immediate_dispatch(inst, law, machines, &mut policy).map_err(err)
        }
        _ => Err(format!("unknown parallel algorithm '{name}'; see 'ncss help'")),
    }
}

/// Tamper with reported numbers before auditing (`--corrupt WHAT`); the
/// audit MUST then fail, which is what `scripts/verify.sh` asserts.
fn corrupt_reported(reported: &mut Evaluated, what: &str) -> Result<(), String> {
    match what {
        "energy" => reported.objective.energy *= 0.5,
        "frac-flow" => reported.objective.frac_flow *= 0.5,
        "int-flow" => reported.objective.int_flow *= 0.5,
        "completion" => {
            let c = reported
                .per_job
                .completion
                .first_mut()
                .ok_or_else(|| "--corrupt completion needs at least one job".to_string())?;
            *c *= 0.5;
        }
        other => {
            return Err(format!(
                "unknown --corrupt component '{other}' \
                 (energy | frac-flow | int-flow | completion | schedule | kernel)"
            ))
        }
    }
    Ok(())
}

/// Per-machine timeline summary for the multi-machine audit output: the
/// recomputed quantities that feed the cross-machine residuals.
fn per_machine_table(schedules: &[Schedule]) -> String {
    let mut t = Table::new(
        "per-machine timelines (independently recomputed)".to_string(),
        &["machine", "segments", "busy time", "energy", "volume"],
    );
    for (m, s) in schedules.iter().enumerate() {
        t.row(vec![
            format!("{m}"),
            format!("{}", s.segments().len()),
            fmt_f(s.busy_time()),
            fmt_f(s.energy()),
            fmt_f(s.total_volume()),
        ]);
    }
    t.render()
}

/// Audit a parallel-machine run with the cross-machine checker.
fn audit_multi_machine(
    args: &ParsedArgs,
    inst: &Instance,
    law: PowerLaw,
    name: &str,
    config: AuditConfig,
) -> Result<String, String> {
    let machines = args.usize_or("machines", 2)?;
    let mut run = multi_run_of(name, inst, law, machines)?;
    if let Some(what) = args.options.get("corrupt") {
        if what == "schedule" {
            // Replay a busy machine's timeline on a phantom extra machine:
            // every job on it is now served twice, which only the
            // cross-machine no-double-service check can see.
            let dup = run
                .schedules
                .iter()
                .find(|s| !s.segments().is_empty())
                .cloned()
                .ok_or_else(|| "--corrupt schedule needs a non-idle machine".to_string())?;
            run.schedules.push(dup);
        } else {
            let mut reported =
                Evaluated { objective: run.objective, per_job: run.per_job.clone() };
            corrupt_reported(&mut reported, what)?;
            run.objective = reported.objective;
            run.per_job = reported.per_job;
        }
    }
    let reported = Evaluated { objective: run.objective, per_job: run.per_job.clone() };
    let report = MultiAudit::new(config).audit(inst, &run.schedules, &reported);
    let out = format!(
        "audit of {name} on {} jobs x {machines} machines (alpha = {})\n{}{}",
        inst.len(),
        law.alpha(),
        per_machine_table(&run.schedules),
        report.render()
    );
    if report.passed() {
        Ok(out)
    } else {
        Err(out)
    }
}

fn cmd_audit(args: &ParsedArgs) -> Result<String, String> {
    let inst = load_instance(args)?;
    let law = law_of(args)?;
    let name = args.require("algorithm")?;
    let defaults = AuditConfig::default();
    let config = AuditConfig {
        rel_tol: args.f64_or("rel-tol", defaults.rel_tol)?,
        time_tol: args.f64_or("time-tol", defaults.time_tol)?,
        // Quadrature cross-check stride for the closed-form fast path:
        // 1 re-measures every integral by quadrature, 0 disables the tier.
        cross_check_stride: args.usize_or("cross-check", defaults.cross_check_stride)?,
        ..defaults
    };
    if MULTI_ALGOS.contains(&name.as_str()) {
        return audit_multi_machine(args, &inst, law, &name, config);
    }
    let auditor = ScheduleAudit::new(config);
    let corrupt = args.options.get("corrupt");
    let report = if name == "known-sharing" {
        // Processor sharing has no explicit schedule: outcome-only audit.
        let r = run_known_weight_sharing(&inst, law).map_err(|e| e.to_string())?;
        let mut reported = Evaluated { objective: r.objective, per_job: r.per_job };
        if let Some(what) = corrupt {
            if what == "kernel" {
                return Err("--corrupt kernel needs a schedule-producing algorithm".into());
            }
            corrupt_reported(&mut reported, what)?;
        }
        auditor.audit_outcome(&inst, &reported.objective, &reported.per_job)
    } else {
        // --corrupt kernel re-runs the algorithm under a law whose
        // compiled kernel does not match its alpha (the mis-selection
        // fault hook), then audits the segments under the honest kernel:
        // the reported energy came off the wrong chains, so the
        // energy re-derivation must go red.
        let run_law = if corrupt.map(String::as_str) == Some("kernel") {
            PowerLaw::misselected_for_fault_injection(law.alpha())
        } else {
            law
        };
        let (mut schedule, mut reported) = evaluated_of(&name, &inst, run_law)?;
        if let Some(what) = corrupt {
            if what == "kernel" {
                schedule =
                    Schedule::new(law, schedule.segments().to_vec()).map_err(|e| e.to_string())?;
            } else if what == "schedule" {
                // Drop the final segment: delivered volume no longer covers
                // the instance, so volume conservation must fail.
                let mut segments = schedule.segments().to_vec();
                segments.pop().ok_or_else(|| "--corrupt schedule needs segments".to_string())?;
                schedule = Schedule::new(schedule.power_law(), segments)
                    .map_err(|e| e.to_string())?;
            } else {
                corrupt_reported(&mut reported, what)?;
            }
        }
        auditor.audit(&inst, &schedule, &reported)
    };
    let out = format!(
        "audit of {name} on {} jobs (alpha = {})\n{}",
        inst.len(),
        law.alpha(),
        report.render()
    );
    // A failed audit is a failed command: CI smoke tests rely on the exit
    // status, not on scraping the report text.
    if report.passed() {
        Ok(out)
    } else {
        Err(out)
    }
}

fn cmd_gantt(args: &ParsedArgs) -> Result<String, String> {
    let inst = load_instance(args)?;
    let law = law_of(args)?;
    let name = args.require("algorithm")?;
    let width = args.usize_or("width", 96)?;
    let schedule = schedule_of(&name, &inst, law)?;
    let horizon = schedule.end_time();
    let mut out = format!("{name} on {} jobs (alpha = {}):\n", inst.len(), law.alpha());
    out.push_str(&ncss_analysis::render_gantt(&schedule, inst.len(), width, horizon));
    Ok(out)
}

fn cmd_sweep(args: &ParsedArgs) -> Result<String, String> {
    let inst = load_instance(args)?;
    let spec = args.get_or("alphas", "1.5:4.0:6");
    let parts: Vec<&str> = spec.split(':').collect();
    let [lo, hi, n] = parts.as_slice() else {
        return Err(format!("--alphas expects LO:HI:N, got '{spec}'"));
    };
    let lo: f64 = lo.parse().map_err(|_| "bad LO".to_string())?;
    let hi: f64 = hi.parse().map_err(|_| "bad HI".to_string())?;
    let n: usize = n.parse().map_err(|_| "bad N".to_string())?;
    if n < 2 || !(hi > lo) || !(lo > 1.0) {
        return Err("--alphas needs 1 < LO < HI and N >= 2".into());
    }
    let mut t = Table::new(
        format!("ratio sweep on {} jobs (vs certified OPT lower bound)", inst.len()),
        &["alpha", "C ratio", "NC ratio", "paper NC bound"],
    );
    for i in 0..n {
        let alpha = lo + (hi - lo) * i as f64 / (n - 1) as f64;
        let law = PowerLaw::new(alpha).map_err(|e| e.to_string())?;
        let sol = solve_fractional_opt(&inst, law, SolverOptions::default()).map_err(|e| e.to_string())?;
        let lb = sol.dual_bound.max(f64::MIN_POSITIVE);
        let c = run_c(&inst, law).map_err(|e| e.to_string())?.objective.fractional();
        let (nc, bound) = if inst.is_uniform_density() {
            (
                run_nc_uniform(&inst, law).map_err(|e| e.to_string())?.objective.fractional(),
                theory::nc_uniform_fractional_bound(alpha),
            )
        } else {
            (
                run_nc_nonuniform(&inst, law, NonUniformParams::recommended(alpha))
                    .map_err(|e| e.to_string())?
                    .objective
                    .fractional(),
                theory::nc_nonuniform_indicative_bound(alpha),
            )
        };
        t.row(vec![fmt_f(alpha), fmt_f(c / lb), fmt_f(nc / lb), fmt_f(bound)]);
    }
    Ok(t.render())
}

/// Run the CLI and return its stdout text.
pub fn run_cli(raw: &[String]) -> Result<String, String> {
    if raw.is_empty() || raw[0] == "help" || raw[0] == "--help" {
        return Ok(HELP.to_string());
    }
    let args = parse_args(raw)?;
    match args.command.as_str() {
        "generate" => cmd_generate(&args),
        "run" => cmd_run(&args),
        "opt" => cmd_opt(&args),
        "compare" => cmd_compare(&args),
        "gantt" => cmd_gantt(&args),
        "sweep" => cmd_sweep(&args),
        "audit" => cmd_audit(&args),
        "fleet" => crate::fleet_cmd::cmd_fleet(&args),
        "stream" => crate::stream::cmd_stream(&args),
        "record" => crate::trace_cmd::cmd_record(&args),
        "replay" => crate::trace_cmd::cmd_replay(&args),
        "resume" => crate::trace_cmd::cmd_resume(&args),
        "tamper" => crate::trace_cmd::cmd_tamper(&args),
        other => Err(format!("unknown command '{other}'; try 'ncss help'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| (*s).to_string()).collect()
    }

    fn write_trace() -> String {
        let dir = std::env::temp_dir().join("ncss_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.csv");
        let csv = run_cli(&v(&["generate", "--n", "5", "--seed", "3"])).unwrap();
        // Tests run in parallel and share this file: write a private copy
        // and rename it into place, so no reader sees a half-written file.
        let tmp = dir.join(format!("trace.{:?}.tmp", std::thread::current().id()));
        std::fs::write(&tmp, csv).unwrap();
        std::fs::rename(&tmp, &path).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn help_paths() {
        assert!(run_cli(&[]).unwrap().contains("commands:"));
        assert!(run_cli(&v(&["help"])).unwrap().contains("generate"));
        assert!(run_cli(&v(&["frobnicate"])).is_err());
    }

    #[test]
    fn generate_produces_csv() {
        let out = run_cli(&v(&["generate", "--n", "4", "--volumes", "fixed:2.0"])).unwrap();
        assert!(out.starts_with("release,volume,density"));
        assert_eq!(out.lines().count(), 5);
        assert!(out.contains(",2,") || out.contains(",2.0,") || out.contains(",2,1"));
    }

    #[test]
    fn generate_rejects_bad_dists() {
        assert!(run_cli(&v(&["generate", "--n", "2", "--volumes", "zipf:1"])).is_err());
        assert!(run_cli(&v(&["generate", "--n", "2", "--densities", "powers:x:2"])).is_err());
    }

    #[test]
    fn run_and_opt_and_compare_end_to_end() {
        let path = write_trace();
        for algo in ["c", "nc", "active-count", "newest-first", "constant:1.5"] {
            let out = run_cli(&v(&["run", "--algorithm", algo, "--input", &path, "--alpha", "2"])).unwrap();
            assert!(out.contains("frac objective"), "{algo}: {out}");
        }
        let out = run_cli(&v(&["opt", "--input", &path])).unwrap();
        assert!(out.contains("certified lower bound"));
        // The gap prints in scientific notation: a closed bracket shows its
        // order of magnitude instead of rounding to 0.00%.
        let gap: f64 = out.lines().last().and_then(|l| l.split_whitespace().nth(2)).unwrap().parse().unwrap();
        assert!(gap.abs() <= 1e-9 && !out.contains('%'), "{out}");
        let out = run_cli(&v(&["compare", "--input", &path, "--alpha", "2"])).unwrap();
        assert!(out.contains("ratio vs OPT lb"));
        assert!(out.contains("paper bounds"));
    }

    #[test]
    fn gantt_renders() {
        let path = write_trace();
        let out = run_cli(&v(&["gantt", "--algorithm", "nc", "--input", &path, "--alpha", "2", "--width", "60"])).unwrap();
        assert!(out.contains("speed"));
        assert!(out.contains("job   0"));
        assert!(out.contains('#'));
    }

    #[test]
    fn sweep_produces_curve() {
        let path = write_trace();
        let out = run_cli(&v(&["sweep", "--input", &path, "--alphas", "2.0:3.0:3"])).unwrap();
        assert!(out.contains("NC ratio"));
        assert_eq!(out.lines().filter(|l| l.starts_with("2.") || l.starts_with("3.")).count(), 3);
        assert!(run_cli(&v(&["sweep", "--input", &path, "--alphas", "bad"])).is_err());
        assert!(run_cli(&v(&["sweep", "--input", &path, "--alphas", "3:2:4"])).is_err());
    }

    #[test]
    fn audit_passes_on_clean_runs_and_catches_bad_tolerance() {
        let path = write_trace();
        for algo in ["c", "nc", "constant:1.5", "known-sharing"] {
            let out = run_cli(&v(&["audit", "--algorithm", algo, "--input", &path, "--alpha", "2"]))
                .unwrap_or_else(|e| panic!("{algo}: {e}"));
            assert!(out.contains("audit: PASS"), "{algo}: {out}");
            assert!(out.contains("objective-finite"), "{algo}: {out}");
        }
        // The step-integrated algorithm is only accurate to its step size:
        // at machine-precision tolerance the audit must refuse it...
        let strict = run_cli(&v(&[
            "audit", "--algorithm", "nc-nonuniform", "--input", &path, "--alpha", "2",
            "--rel-tol", "1e-14",
        ]));
        assert!(strict.is_err());
        assert!(strict.unwrap_err().contains("audit: FAIL"));
        // ...and pass it at the honest one.
        let loose = run_cli(&v(&[
            "audit", "--algorithm", "nc-nonuniform", "--input", &path, "--alpha", "2",
            "--rel-tol", "1e-2",
        ]))
        .unwrap();
        assert!(loose.contains("audit: PASS"), "{loose}");
    }

    #[test]
    fn audit_covers_parallel_algorithms() {
        let path = write_trace();
        for algo in ["c-par", "nc-par", "dispatch"] {
            let out = run_cli(&v(&[
                "audit", "--algorithm", algo, "--input", &path, "--alpha", "2", "--machines", "3",
            ]))
            .unwrap_or_else(|e| panic!("{algo}: {e}"));
            assert!(out.contains("audit: PASS"), "{algo}: {out}");
            assert!(out.contains("no-double-service"), "{algo}: {out}");
            assert!(out.contains("cross-machine-volume"), "{algo}: {out}");
            // Per-machine residual table: one row per machine.
            assert!(out.contains("per-machine timelines"), "{algo}: {out}");
            assert!(out.contains("x 3 machines"), "{algo}: {out}");
        }
    }

    #[test]
    fn corrupt_flag_fails_the_audit() {
        let path = write_trace();
        // Multi-machine: tampered totals and a double-served schedule.
        for what in ["energy", "frac-flow", "completion", "schedule"] {
            let res = run_cli(&v(&[
                "audit", "--algorithm", "nc-par", "--input", &path, "--alpha", "2",
                "--machines", "2", "--corrupt", what,
            ]));
            let msg = res.expect_err(&format!("--corrupt {what} must fail"));
            assert!(msg.contains("audit: FAIL"), "{what}: {msg}");
        }
        // The double-service corruption is caught by the cross-machine check.
        let msg = run_cli(&v(&[
            "audit", "--algorithm", "c-par", "--input", &path, "--alpha", "2",
            "--machines", "2", "--corrupt", "schedule",
        ]))
        .expect_err("duplicated timeline must fail");
        assert!(msg.contains("FAIL no-double-service"), "{msg}");
        // Single-machine paths take --corrupt too. The outcome-only audit
        // (known-sharing) has no schedule to recompute energy from, so its
        // corruptible component is the reported flow-time sums.
        for (algo, what) in [("c", "energy"), ("known-sharing", "frac-flow")] {
            let msg = run_cli(&v(&[
                "audit", "--algorithm", algo, "--input", &path, "--alpha", "2",
                "--corrupt", what,
            ]))
            .expect_err("corrupt reported numbers must fail");
            assert!(msg.contains("audit: FAIL"), "{algo}: {msg}");
        }
        let msg = run_cli(&v(&[
            "audit", "--algorithm", "c", "--input", &path, "--alpha", "2",
            "--corrupt", "schedule",
        ]))
        .expect_err("truncated schedule must fail");
        assert!(msg.contains("volume-conservation"), "{msg}");
        // Unknown component is a usage error, not a panic.
        assert!(run_cli(&v(&[
            "audit", "--algorithm", "c", "--input", &path, "--corrupt", "entropy",
        ]))
        .is_err());
    }

    #[test]
    fn compare_reports_audit_verdicts_and_multi_rows() {
        let path = write_trace();
        let out = run_cli(&v(&["compare", "--input", &path, "--alpha", "2", "--machines", "2"]))
            .unwrap();
        assert!(out.contains("audit"), "{out}");
        assert!(out.contains("PASS"), "{out}");
        assert!(!out.contains("FAIL"), "{out}");
        for label in ["c-par x2", "nc-par x2", "dispatch x2"] {
            assert!(out.contains(label), "missing {label}: {out}");
        }
    }

    #[test]
    fn run_rejects_unknown_algorithm_and_missing_file() {
        let path = write_trace();
        assert!(run_cli(&v(&["run", "--algorithm", "magic", "--input", &path])).is_err());
        assert!(run_cli(&v(&["run", "--algorithm", "c", "--input", "/nonexistent.csv"])).is_err());
    }
}
