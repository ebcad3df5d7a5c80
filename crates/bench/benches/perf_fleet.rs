//! Fleet k-sweep: the sharded C-PAR/NC-PAR replay and whole cells across
//! k ∈ {2..4096} plus the `Ω(k^{1−1/α})` dispatch-degradation study,
//! writing `BENCH_fleet.json` (schema ncss-bench/5, with `metrics` columns).
//!
//! Three row families (methodology in EXPERIMENTS.md, "Fleet k-sweep"):
//!
//! * `fleet_{c,nc}_par/<trace>xK` — the committed golden traces under
//!   `traces/` are tiled (period-shifted copies, densities normalised to 1
//!   so NC-PAR's uniform-density setting applies and the NC/C ratio is
//!   apples-to-apples) into instances of `max(2048, 2k)` jobs and replayed
//!   through the sharded fleet. The dispatch log is built once by the
//!   serial dispatcher outside the timed region; what is timed is the
//!   sharded per-machine execution (`replay_c` / `replay_nc`) over the
//!   worker pool. Every cell is gated by `IncrementalMultiAudit` via
//!   `audit_fleet`, and carries deterministic `metrics`:
//!   `frac_objective`, plus on NC rows `degradation_vs_c_par`
//!   (frac NC-PAR ÷ frac C-PAR at the same k) and `k_pow_bound`
//!   (`k^{1−1/α}` — the paper's dispatch lower-bound envelope).
//!
//! * `fleet_cell_{c,nc}_par/<trace>xK` — the same instances, timing the
//!   whole cell a user runs: the serial dispatch that builds the log, the
//!   sharded replay, and the `audit_fleet` gate. This is the "ms per fleet
//!   cell" of ROADMAP item 1; the NC-PAR/C-PAR ratio of these rows at one k
//!   is the dispatcher-inclusive cost of non-clairvoyance.
//!
//! * `dispatch_game/aA/kK` — the Section 6 adaptive-adversary game at
//!   each k, with `metrics` `ratio` (measured cost ÷ feasible spread
//!   bound), `bound` (`k^{1−1/α}`), and `max_colocated`. The game's final
//!   adversarial instance is reconstructed with the same deterministic
//!   policy and replayed sharded (`replay_nc_assigned`), audit-gated, and
//!   checked bitwise against the game's own serial cost. A
//!   `dispatch_slope/aA` summary row fits `ln ratio` against `ln k` and
//!   records the slope next to the theoretical exponent `1 − 1/α`.
//!
//! Every `metrics` value is a deterministic function of the committed
//! traces and seeds, so `bench-diff` holds them to float slack
//! (`--metric-rel-tol`) rather than timing thresholds: a drifted ratio
//! means the algorithm changed, not the machine.

use ncss_audit::{AuditConfig, AuditReport};
use ncss_bench::harness::{black_box, AuditMode, Suite};
use ncss_multi::fleet::{audit_fleet, replay_c, replay_nc, replay_nc_assigned, DispatchLog};
use ncss_multi::{collect_assignment, fit_loglog_slope, immediate_dispatch_game, RoundRobin};
use ncss_pool::Pool;
use ncss_sim::{Instance, Job, PowerLaw};
use ncss_workloads::lookalike_batch;

/// Load a committed golden trace's release set as a job motif,
/// density-normalised to the uniform setting.
fn trace_motif(name: &str) -> Vec<Job> {
    let dir = std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| ".".into());
    let path = std::path::Path::new(&dir).join("../../traces").join(name);
    let trace = ncss_trace::read_file(&path)
        .unwrap_or_else(|e| panic!("read golden trace {}: {e:?}", path.display()));
    let jobs: Vec<Job> = trace
        .jobs()
        .into_iter()
        .map(|j| Job::unit_density(j.release, j.volume))
        .collect();
    assert!(!jobs.is_empty(), "golden trace {name} has no releases");
    jobs
}

/// Tile a motif to `n` jobs by repeating it with period shifts — the
/// trace's arrival pattern at fleet scale, still fully deterministic.
fn tile(motif: &[Job], n: usize) -> Instance {
    let span = motif.iter().map(|j| j.release).fold(0.0f64, f64::max) + 1.0;
    let jobs: Vec<Job> = (0..n)
        .map(|i| {
            let j = motif[i % motif.len()];
            let copy = (i / motif.len()) as f64;
            Job::unit_density(j.release + copy * span, j.volume)
        })
        .collect();
    Instance::new(jobs).expect("tiled trace instance")
}

/// One whole fleet cell: build the dispatch log, replay it on the pool,
/// and gate the outcome with the incremental fleet auditor.
fn fleet_cell(
    algo: &str,
    inst: &Instance,
    law: PowerLaw,
    k: usize,
    pool: &Pool,
    config: AuditConfig,
) -> AuditReport {
    let out = if algo == "c_par" {
        let log = DispatchLog::c_par(inst, law, k).expect("C-PAR dispatch");
        replay_c(inst, law, &log, pool).expect("C-PAR replay")
    } else {
        let log = DispatchLog::nc_par(inst, law, k).expect("NC-PAR dispatch");
        replay_nc(inst, law, &log, pool).expect("NC-PAR replay")
    };
    let report = audit_fleet(inst, law, &out, config);
    assert!(report.passed(), "{algo} k={k}: fleet audit failed:\n{}", report.render());
    report
}

fn main() {
    let pool = Pool::auto();
    let config = AuditConfig::default();
    let mut suite = Suite::new("fleet");

    // ------------------------------------------------------------------
    // Family 1: sharded trace replay across the k sweep, both algorithms,
    // every cell audit-gated by the incremental cross-machine auditor.
    // ------------------------------------------------------------------
    let law = PowerLaw::cube(); // alpha = 3: bound exponent 1 - 1/3 = 2/3
    let alpha = 3.0;
    let motif = trace_motif("c_alpha2.nct");
    for &k in &[2usize, 8, 64, 512, 4096] {
        let n = (2 * k).max(2048);
        let inst = tile(&motif, n);
        let (warmup, iters) = if k >= 512 { (1, 5) } else { (2, 10) };

        // Serial dispatch once, outside the timed region: the sharded
        // executor is the subject, the dispatch log is its input.
        let c_log = DispatchLog::c_par(&inst, law, k).expect("C-PAR dispatch");
        let c_out = replay_c(&inst, law, &c_log, &pool).expect("C-PAR replay");
        let c_report = audit_fleet(&inst, law, &c_out, config);
        suite.bench_report_mode_metrics_with(
            &format!("fleet_c_par/c_alpha2x{k}"),
            Some(&c_report),
            AuditMode::Incremental,
            vec![
                ("frac_objective".into(), c_out.objective.fractional()),
                ("jobs".into(), n as f64),
                // Deterministic item count under the name bench-diff
                // normalises throughput by (ns/item deltas).
                ("work_items".into(), n as f64),
            ],
            warmup,
            iters,
            || {
                black_box(replay_c(&inst, law, &c_log, &pool).expect("C-PAR replay"));
            },
        );

        let nc_log = DispatchLog::nc_par(&inst, law, k).expect("NC-PAR dispatch");
        let nc_out = replay_nc(&inst, law, &nc_log, &pool).expect("NC-PAR replay");
        let nc_report = audit_fleet(&inst, law, &nc_out, config);
        suite.bench_report_mode_metrics_with(
            &format!("fleet_nc_par/c_alpha2x{k}"),
            Some(&nc_report),
            AuditMode::Incremental,
            vec![
                ("frac_objective".into(), nc_out.objective.fractional()),
                ("jobs".into(), n as f64),
                (
                    "degradation_vs_c_par".into(),
                    nc_out.objective.fractional() / c_out.objective.fractional(),
                ),
                ("k_pow_bound".into(), (k as f64).powf(1.0 - 1.0 / alpha)),
                ("work_items".into(), n as f64),
            ],
            warmup,
            iters,
            || {
                black_box(replay_nc(&inst, law, &nc_log, &pool).expect("NC-PAR replay"));
            },
        );

        // The whole cell a user runs: dispatch, replay, audit.
        for (algo, report, out) in [("c_par", &c_report, &c_out), ("nc_par", &nc_report, &nc_out)] {
            suite.bench_report_mode_metrics_with(
                &format!("fleet_cell_{algo}/c_alpha2x{k}"),
                Some(report),
                AuditMode::Incremental,
                vec![
                    ("frac_objective".into(), out.objective.fractional()),
                    ("jobs".into(), n as f64),
                    ("work_items".into(), n as f64),
                ],
                warmup,
                iters,
                || {
                    black_box(fleet_cell(algo, &inst, law, k, &pool, config));
                },
            );
        }
    }

    // ------------------------------------------------------------------
    // Family 2: the Ω(k^{1−1/α}) dispatch game, ratio vs bound per k, the
    // adversarial instance replayed sharded and audit-gated.
    // ------------------------------------------------------------------
    for &alpha in &[2.0f64, 3.0] {
        let law = PowerLaw::new(alpha).expect("power law");
        let mut points = Vec::new();
        for &k in &[4usize, 8, 16, 32, 64] {
            // The serial game run supplies the measured ratio.
            let mut policy = RoundRobin::default();
            let game = immediate_dispatch_game(law, k, &mut policy, 1.0, 1e-4).expect("game");
            points.push((k, game.ratio));

            // Reconstruct the committed adversarial instance with a fresh
            // (deterministic) policy: probe batch -> assignment -> inflate
            // the k co-located jobs on the most-loaded machine — the same
            // three phases the game plays.
            let probe = lookalike_batch(k, &[], 1.0, 1.0).expect("probe batch");
            let mut policy = RoundRobin::default();
            let assignment = collect_assignment(&probe, k, &mut policy);
            let mut counts = vec![0usize; k];
            for &m in &assignment {
                counts[m] += 1;
            }
            let target =
                counts.iter().enumerate().max_by_key(|(_, &c)| c).expect("k >= 1").0;
            let high_ids: Vec<usize> =
                (0..k * k).filter(|&j| assignment[j] == target).take(k).collect();
            let inst = lookalike_batch(k, &high_ids, 1.0, 1e-4).expect("adversary batch");
            let log =
                DispatchLog::from_assignment(&inst, &assignment, k).expect("dispatch log");
            let out = replay_nc_assigned(&inst, law, &log, &pool).expect("sharded game replay");
            // The sharded replay must reproduce the serial game's cost to
            // the bit — the fleet contract, asserted inside the study.
            assert_eq!(
                out.objective.fractional().to_bits(),
                game.algorithm_cost.to_bits(),
                "sharded game replay diverged from serial at k={k}, alpha={alpha}"
            );
            let report = audit_fleet(&inst, law, &out, config);
            suite.bench_report_mode_metrics_with(
                &format!("dispatch_game/a{alpha}/k{k}"),
                Some(&report),
                AuditMode::Incremental,
                vec![
                    ("ratio".into(), game.ratio),
                    ("bound".into(), (k as f64).powf(1.0 - 1.0 / alpha)),
                    ("max_colocated".into(), game.max_colocated as f64),
                ],
                1,
                5,
                || {
                    black_box(
                        replay_nc_assigned(&inst, law, &log, &pool).expect("sharded game replay"),
                    );
                },
            );
        }
        // Summary row: measured log-log slope vs the theoretical exponent.
        let slope = fit_loglog_slope(&points);
        suite.bench_report_mode_metrics_with(
            &format!("dispatch_slope/a{alpha}"),
            None,
            AuditMode::Incremental,
            vec![
                ("slope".into(), slope),
                ("exponent".into(), 1.0 - 1.0 / alpha),
            ],
            1,
            3,
            || {
                black_box(fit_loglog_slope(&points));
            },
        );
    }

    suite.finish();
}
