//! The `fleet` workload: sharded C-PAR and NC-PAR cells, the way
//! `ncss-cli fleet --check-serial 0` runs them.
//!
//! The instances are the committed `traces/c_alpha2.nct` releases, tiled to
//! `max(2048, 2k)` jobs with densities normalised to 1 (the instances the
//! `perf_fleet` bench uses), at α = 3 with k ∈ {8, 4096}. A cell is the
//! whole user path: build the `DispatchLog`, replay it on one
//! `ncss_pool::Pool` of at most `nproc` workers, then `audit_fleet`.
//! Building the dispatch log is part of the cell, not set-up, because a
//! user pays for it on every run.

use crate::metrics::{self, Values};
use crate::span::{leaf, Off, Probe, Summary, Tracer};
use crate::{gate, objective_bits, same_as_first, Config, Report, Setup};
use ncss_audit::AuditConfig;
use ncss_multi::fleet::{audit_fleet, replay_c, replay_nc, DispatchLog};
use ncss_multi::ParOutcome;
use ncss_pool::Pool;
use ncss_sim::{Instance, Job, PowerLaw};
use std::path::PathBuf;
use std::time::Instant;

/// Fractional objectives committed in `BENCH_fleet.json` for the tiled
/// instances: `(algorithm, k, objective)`. Each cell must match bit for bit.
pub const COMMITTED: &[(Algo, usize, f64)] = &[
    (Algo::CPar, 8, 2072.19295223473),
    (Algo::NcPar, 8, 2590.24119029341),
    (Algo::CPar, 4096, 8292.428462711006),
    (Algo::NcPar, 4096, 10365.535578388808),
];

/// A fleet algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Sharded C-PAR.
    CPar,
    /// Sharded NC-PAR.
    NcPar,
}

impl Algo {
    /// Name used in metric names.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Algo::CPar => "c_par",
            Algo::NcPar => "nc_par",
        }
    }
}

/// The committed trace the fleet instances are tiled from.
#[must_use]
pub fn motif_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../traces/c_alpha2.nct")
}

/// The trace's releases with densities normalised to 1.
///
/// # Errors
/// When the trace cannot be read or holds no releases.
pub fn motif() -> Result<Vec<Job>, String> {
    let path = motif_path();
    let trace =
        ncss_trace::read_file(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let jobs: Vec<Job> = trace
        .jobs()
        .into_iter()
        .map(|j| Job::unit_density(j.release, j.volume))
        .collect();
    gate(!jobs.is_empty(), || {
        format!("{} has no releases", path.display())
    })?;
    Ok(jobs)
}

/// Tile `motif` to `n` jobs by repeating it with period shifts.
///
/// # Errors
/// When the tiled jobs do not form a valid instance.
pub fn tile(motif: &[Job], n: usize) -> Result<Instance, String> {
    let span = motif.iter().map(|j| j.release).fold(0.0f64, f64::max) + 1.0;
    let jobs: Vec<Job> = (0..n)
        .map(|i| {
            let j = motif[i % motif.len()];
            let copy = (i / motif.len()) as f64;
            Job::unit_density(j.release + copy * span, j.volume)
        })
        .collect();
    Instance::new(jobs).map_err(|e| e.to_string())
}

/// What a cell produced.
#[derive(Debug)]
pub struct CellOut {
    /// The sharded outcome.
    pub outcome: ParOutcome,
    /// Most jobs the dispatch log sent to one machine.
    pub max_jobs_per_machine: usize,
    /// The dispatch log, kept for the replay-speedup measurement.
    pub log: DispatchLog,
}

/// Replay `log` with the algorithm's per-machine executor.
fn replay(
    algo: Algo,
    inst: &Instance,
    law: PowerLaw,
    log: &DispatchLog,
    pool: &Pool,
) -> Result<ParOutcome, String> {
    match algo {
        Algo::CPar => replay_c(inst, law, log, pool),
        Algo::NcPar => replay_nc(inst, law, log, pool),
    }
    .map_err(|e| e.to_string())
}

/// One cell: dispatch, replay, audit, then the gates.
///
/// # Errors
/// A program error, a failed audit, or an objective that is not the
/// committed one.
pub fn cell<P: Probe>(
    p: &mut P,
    algo: Algo,
    inst: &Instance,
    law: PowerLaw,
    k: usize,
    pool: &Pool,
) -> Result<CellOut, String> {
    let log = leaf(p, "multi.dispatch", || match algo {
        Algo::CPar => DispatchLog::c_par(inst, law, k),
        Algo::NcPar => DispatchLog::nc_par(inst, law, k),
    })
    .map_err(|e| e.to_string())?;
    let outcome = leaf(p, "multi.replay", || replay(algo, inst, law, &log, pool))?;
    let report = leaf(p, "audit.fleet", || {
        audit_fleet(inst, law, &outcome, AuditConfig::default())
    });
    gate(report.passed(), || {
        format!(
            "{} k={k}: fleet audit failed:\n{}",
            algo.name(),
            report.render()
        )
    })?;
    let frac = outcome.objective.fractional();
    if let Some(&(_, _, want)) = COMMITTED.iter().find(|c| c.0 == algo && c.1 == k) {
        gate(
            inst.len() == (2 * k).max(2048) && frac.to_bits() == want.to_bits(),
            || {
                format!(
                    "{} k={k}: fractional objective {frac:?} is not the committed {want:?}",
                    algo.name()
                )
            },
        )?;
    }
    let mut queued = vec![0usize; log.machines()];
    for e in log.entries() {
        queued[e.machine] += 1;
    }
    let max_jobs_per_machine = queued.into_iter().max().unwrap_or(0);
    Ok(CellOut {
        outcome,
        max_jobs_per_machine,
        log,
    })
}

/// The cells a run measures: `(metric infix, algorithm, k)`.
fn cells(ks: &[usize]) -> Vec<(String, Algo, usize)> {
    ks.iter()
        .flat_map(|&k| [Algo::CPar, Algo::NcPar].map(|a| (format!("{}.k{k}", a.name()), a, k)))
        .collect()
}

/// Per-layer values of one traced cell.
fn cell_values(v: &mut Values, infix: &str, sum: &Summary, out: &CellOut) {
    v.insert(
        format!("multi.dispatch_ms.{infix}"),
        sum.total_ms("multi.dispatch"),
    );
    v.insert(
        format!("multi.replay_ms.{infix}"),
        sum.total_ms("multi.replay"),
    );
    v.insert(
        format!("audit.fleet_ms.{infix}"),
        sum.total_ms("audit.fleet"),
    );
    v.insert(
        format!("multi.max_jobs_per_machine.{infix}"),
        out.max_jobs_per_machine as f64,
    );
}

/// The `fleet` workload.
///
/// # Errors
/// When set-up fails.
pub fn run(config: &Config) -> Result<Report, String> {
    let law = PowerLaw::new(3.0).map_err(|e| e.to_string())?;
    let workers = crate::host::logical_cores();
    let pool = Pool::with_threads(workers);
    let ks = config.sizes.fleet_ks.clone();
    let source_s = std::cell::RefCell::new(Vec::new());
    let (instances, mut setup) = Setup::run(config.sizes.setup_reps, || {
        let m = motif()?;
        let t0 = Instant::now();
        let instances: Vec<Instance> = ks
            .iter()
            .map(|&k| tile(&m, (2 * k).max(2048)))
            .collect::<Result<_, _>>()?;
        source_s.borrow_mut().push(t0.elapsed().as_secs_f64());
        // Start the pool's resident workers before timing.
        let warm = pool.map(&(0..workers).collect::<Vec<_>>(), |&i| i);
        gate(warm.len() == workers, || "pool did not start".to_string())?;
        Ok(instances)
    })?;
    let jobs: usize = instances.iter().map(Instance::len).sum();
    let source_ns = metrics::median(&source_s.borrow()) * 1e9 / jobs.max(1) as f64;
    let instance_of =
        |k: usize| &instances[ks.iter().position(|&x| x == k).expect("k has an instance")];
    let cells = cells(&ks);
    let mut report = Report::default();
    let mut first: Vec<Option<[u64; 3]>> = vec![None; cells.len()];
    let mut account = |report: &mut Report, i: usize, r: &Result<CellOut, String>| {
        report.ops(1, r.as_ref().map(|_| ()).map_err(Clone::clone));
        if let Ok(out) = r {
            let o = &out.outcome.objective;
            report.recheck(
                1,
                same_as_first(&mut first[i], objective_bits(o), "fleet objective"),
            );
            if report.outputs.len() < cells.len() {
                report.output(
                    format!("{}.objective", cells[i].0),
                    format!(
                        "frac={:?} int={:?} max_jobs_per_machine={}",
                        o.fractional(),
                        o.integral(),
                        out.max_jobs_per_machine
                    ),
                );
            }
        }
    };

    if !config.trace {
        // `min_iters` rounds over the cells, so slow phases of the host hit
        // every cell alike. In each round a cell repeats until it has used
        // its share of the round (at least once): the cheap k = 8 cells get
        // many samples, spread over the whole run.
        let rounds = config.sizes.min_iters;
        let share_ms = config.seconds * 1e3 / (cells.len() * rounds) as f64;
        let mut times: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
        for _ in 0..rounds {
            for (i, (_, algo, k)) in cells.iter().enumerate() {
                let mut spent = 0.0;
                loop {
                    let t0 = Instant::now();
                    let r = cell(&mut Off, *algo, instance_of(*k), law, *k, &pool);
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    spent += ms;
                    times[i].push(ms);
                    account(&mut report, i, &r);
                    report.recheck(1, setup.again(&instances));
                    if spent >= share_ms {
                        break;
                    }
                }
            }
        }
        for (i, (infix, _, _)) in cells.iter().enumerate() {
            report.part(infix, &times[i]);
        }
        report.set("setup_s", setup.seconds());
        return Ok(report);
    }

    let mut per_pass: Vec<Values> = Vec::new();
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    crate::for_seconds(config.seconds, 1, || {
        let mut v = Values::new();
        let (mut plain, mut traced, mut attributed, mut corrected) = (0.0, 0.0, 0.0, 0.0);
        let mut probes = Vec::new();
        for (i, (infix, algo, k)) in cells.iter().enumerate() {
            let inst = instance_of(*k);
            let t0 = Instant::now();
            let r = cell(&mut Off, *algo, inst, law, *k, &pool);
            plain += t0.elapsed().as_nanos() as f64;
            account(&mut report, i, &r);
            // Calibrated next to each traced cell: the probe's cost drifts
            // with the host's speed.
            let probe = Tracer::calibrate(20_000);
            probes.push(probe.outer);
            let mut tracer = Tracer::new();
            let t0 = Instant::now();
            let r = cell(&mut tracer, *algo, inst, law, *k, &pool);
            let wall = t0.elapsed().as_nanos() as f64;
            traced += wall;
            account(&mut report, i, &r);
            let Ok(out) = r else { continue };
            let sum = Summary::of(tracer.spans(), probe);
            attributed += sum.attributed_ns();
            corrected += sum.corrected_wall(wall);
            cell_values(&mut v, infix, &sum, &out);
            v.insert(
                format!("pool.replay_speedup.{infix}"),
                replay_speedup(*algo, inst, law, &out.log, &pool),
            );
        }
        plain_walls.push(plain);
        traced_walls.push(traced);
        v.insert(
            "bench.unattributed_share".into(),
            1.0 - attributed / corrected.max(1.0),
        );
        v.insert("bench.probe_ns".into(), metrics::median(&probes));
        per_pass.push(v);
    });
    crate::finish_traced(
        &mut report,
        &per_pass,
        source_ns,
        &plain_walls,
        &traced_walls,
    );
    report.set("pool.workers", pool.worker_count(usize::MAX) as f64);
    Ok(report)
}

/// Replay time on a 1-worker pool over replay time on the workload's pool
/// (median of 3 each, untraced).
fn replay_speedup(
    algo: Algo,
    inst: &Instance,
    law: PowerLaw,
    log: &DispatchLog,
    pool: &Pool,
) -> f64 {
    let time = |pool: &Pool| {
        let samples: Vec<f64> = (0..3)
            .map(|_| {
                let t0 = Instant::now();
                let _ = std::hint::black_box(replay(algo, inst, law, log, pool));
                t0.elapsed().as_nanos() as f64
            })
            .collect();
        metrics::median(&samples)
    };
    time(&Pool::with_threads(1)) / time(pool)
}
