//! The one multi-machine path: a deterministic dispatch log, replayed as
//! per-machine work over the worker pool.
//!
//! Every parallel runner in this crate has two parts. *Deciding* which
//! machine each job goes to is inherently serial: C-PAR's greedy rule and
//! NC-PAR's global FIFO both read the whole fleet's state at each release.
//! *Executing* is embarrassingly parallel: once the decisions are fixed,
//! every machine's timeline is a pure function of its own queue.
//!
//! A [`DispatchLog`] records the decisions, one entry per job in release
//! order. The replays ([`replay_c`], [`replay_nc`], [`replay_nc_assigned`])
//! evaluate it over the persistent worker pool (`ncss-pool`), then merge in
//! a fixed floating-point summation order. [`ncss_pool::Pool::map`] is
//! order-preserving and interleaving-free, so the outcome is **bitwise
//! identical** at every pool width (DESIGN.md §12). The serial runners
//! ([`crate::run_c_par`], [`crate::run_nc_par`],
//! [`crate::run_immediate_dispatch`], …) are these replays on
//! `Pool::with_threads(1)`, which runs inline. The independent serial
//! reference they are checked against lives in `tests/multi_reference.rs`.
//!
//! Why an NC-PAR entry records its **start time** and its **base power
//! `K_j`**, not just a machine: NC-PAR dispatches the queue head at
//! `t = max(release, earliest availability)` to the lowest-indexed machine
//! with `avail[m] ≤ t + slack` (`1e-12`, relative below magnitude 1), so a
//! machine may legally begin a job a hair *before* its own previous
//! completion. A machine-local replay that re-derived starts would disagree
//! on exactly those ties. `K_j` is the C run's remaining weight over the
//! machine's earlier jobs; the dispatcher must compute it anyway to know
//! when the machine frees up. Both values travel with the decision, so
//! [`replay_nc`] only evaluates each job's growth-law service and never
//! re-simulates a machine's history.

use crate::c_par::{greedy_c_par_assignment, validate_machines, ParOutcome};
use crate::dispatch::{collect_assignment, ImmediateDispatch};
use crate::nc_par::GrowthService;
use crate::shadow::{ByTime, MachineShadow};
use ncss_audit::{AuditConfig, AuditReport, MultiAudit};
use ncss_core::run_c;
use ncss_pool::Pool;
use ncss_sim::numeric::tie_slack;
use ncss_sim::{
    Evaluated, Instance, Job, Objective, PerJob, PowerLaw, Schedule, ScheduleBuilder, Segment,
    SimError, SimResult,
};
use std::collections::{BTreeSet, BinaryHeap};

/// One dispatch decision: job `job` goes to machine `machine`, beginning
/// service at time `start`.
///
/// For immediate-dispatch algorithms (C-PAR, the [`ImmediateDispatch`]
/// policies) `start` is the job's release time and `base_power` is `None`;
/// for NC-PAR `start` is the global FIFO dispatch time
/// `max(release, earliest machine availability)` and `base_power` is the
/// job's `K_j`, both of which [`replay_nc`] honours verbatim (see the
/// module docs for why).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DispatchEntry {
    /// Original job id (its position in the release-sorted instance).
    pub job: usize,
    /// Machine index in `0..machines`.
    pub machine: usize,
    /// Time at which the machine begins serving the job.
    pub start: f64,
    /// NC-PAR's base power `K_j = W^{(C)}(r_j^-)` over the machine's
    /// earlier jobs; `None` for immediate-dispatch logs.
    pub base_power: Option<f64>,
}

/// A deterministic dispatch log: the serial dispatcher's decisions, one
/// entry per job in release order, ready to feed the sharded executors.
///
/// The canonical entry order is by job id (equivalently, release order —
/// [`Instance::new`] sorts jobs stably by release). Each machine's event
/// queue is the subsequence of entries naming it, which for both C-PAR and
/// NC-PAR is exactly that machine's dispatch order.
///
/// # Examples
///
/// ```
/// use ncss_multi::fleet::DispatchLog;
/// use ncss_sim::{Instance, Job, PowerLaw};
///
/// let inst = Instance::new(vec![
///     Job::unit_density(0.0, 2.0),
///     Job::unit_density(0.1, 1.0),
///     Job::unit_density(0.2, 0.5),
/// ]).unwrap();
/// let law = PowerLaw::new(2.0).unwrap();
///
/// let log = DispatchLog::c_par(&inst, law, 2).unwrap();
/// assert_eq!(log.machines(), 2);
/// assert_eq!(log.len(), 3);
/// // C-PAR is immediate dispatch: every entry starts at its release.
/// for (entry, job) in log.entries().iter().zip(inst.jobs()) {
///     assert_eq!(entry.start, job.release);
/// }
/// // The greedy rule spreads the first two jobs across the fleet.
/// let assignment = log.assignment();
/// assert_ne!(assignment[0], assignment[1]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DispatchLog {
    machines: usize,
    entries: Vec<DispatchEntry>,
}

impl DispatchLog {
    /// Build a log from raw entries, validating the invariants the replays
    /// rely on: a usable machine count, exactly one entry per job in job-id
    /// order (`entries[j].job == j`), machine indices in range, finite
    /// start times, and finite non-negative base powers where recorded.
    pub fn new(machines: usize, entries: Vec<DispatchEntry>) -> SimResult<Self> {
        validate_machines(machines)?;
        for (j, e) in entries.iter().enumerate() {
            if e.job != j {
                return Err(SimError::InvalidInstance {
                    reason: "dispatch log entries must be one per job, in job-id order",
                });
            }
            if e.machine >= machines {
                return Err(SimError::InvalidInstance {
                    reason: "dispatch log machine index out of range",
                });
            }
            if !e.start.is_finite() {
                return Err(SimError::InvalidInstance {
                    reason: "dispatch log start time is not finite",
                });
            }
            if e.base_power.is_some_and(|k| !(k.is_finite() && k >= 0.0)) {
                return Err(SimError::InvalidInstance {
                    reason: "dispatch log base power is not finite and non-negative",
                });
            }
        }
        Ok(Self { machines, entries })
    }

    /// The fleet size this log dispatches over.
    #[must_use]
    pub fn machines(&self) -> usize {
        self.machines
    }

    /// All decisions, in job-id (release) order.
    #[must_use]
    pub fn entries(&self) -> &[DispatchEntry] {
        &self.entries
    }

    /// Number of dispatched jobs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no job was dispatched.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The job-id-indexed machine assignment this log encodes.
    #[must_use]
    pub fn assignment(&self) -> Vec<usize> {
        self.entries.iter().map(|e| e.machine).collect()
    }

    /// Record C-PAR's greedy least-remaining-weight dispatch decisions
    /// (Section 6, Theorem 18). `start` is each job's release time
    /// (immediate dispatch).
    pub fn c_par(instance: &Instance, law: PowerLaw, machines: usize) -> SimResult<Self> {
        let assignment = greedy_c_par_assignment(instance, law, machines)?;
        Self::from_assignment(instance, &assignment, machines)
    }

    /// Record NC-PAR's global-FIFO dispatch decisions (Section 6,
    /// Theorem 17): the queue head goes to the lowest-indexed machine
    /// available at `start = max(release, earliest availability)`, within
    /// a tie slack of `start` (`1e-12`, relative below magnitude 1). Each
    /// entry records `start` and the job's `K_j`, which this loop needs
    /// anyway: the growth-law service time it implies decides when the
    /// machine is next available.
    ///
    /// `K_j` comes from the machine's shadow Algorithm C run, kept live
    /// across its jobs, and the machine from an availability index, so a
    /// dispatch costs `O(log k)` plus one offer to one shadow (DESIGN.md
    /// §12.3).
    ///
    /// Rejects non-uniform densities (the paper's Theorem 17 setting) and
    /// non-finite service times.
    pub fn nc_par(instance: &Instance, law: PowerLaw, machines: usize) -> SimResult<Self> {
        validate_machines(machines)?;
        if !instance.is_uniform_density() {
            return Err(SimError::NonUniformDensity);
        }
        let mut fleet = Availability::new(machines);
        // One shadow C run per machine used; machines are first used in
        // index order, so machine `m`'s shadow is `shadows[m]`.
        let mut shadows: Vec<MachineShadow> = Vec::new();
        let mut entries = Vec::with_capacity(instance.len());
        for (j, job) in instance.jobs().iter().enumerate() {
            let (m, start) = fleet.take(job.release);
            if m == shadows.len() {
                shadows.push(MachineShadow::new(law));
            }
            let k_j = shadows[m].admit(*job)?;
            let what = "DispatchLog::nc_par: service time";
            fleet.busy_until(m, start + GrowthService::new(law, k_j, job, what)?.tau);
            entries.push(DispatchEntry { job: j, machine: m, start, base_power: Some(k_j) });
        }
        Self::new(machines, entries)
    }

    /// Record an [`ImmediateDispatch`] policy's decisions (round-robin,
    /// least-count, seeded-random, …). `start` is each job's release time;
    /// the policy never sees volumes (the information firewall the
    /// `Ω(k^{1−1/α})` adversary exploits).
    pub fn from_policy(
        instance: &Instance,
        machines: usize,
        policy: &mut dyn ImmediateDispatch,
    ) -> SimResult<Self> {
        validate_machines(machines)?;
        let assignment = collect_assignment(instance, machines, policy);
        Self::from_assignment(instance, &assignment, machines)
    }

    /// Wrap a fixed job→machine assignment as an immediate-dispatch log
    /// (`start` = release).
    pub fn from_assignment(
        instance: &Instance,
        assignment: &[usize],
        machines: usize,
    ) -> SimResult<Self> {
        if assignment.len() != instance.len() {
            return Err(SimError::InvalidInstance { reason: "assignment length mismatch" });
        }
        let entries = instance
            .jobs()
            .iter()
            .zip(assignment)
            .enumerate()
            .map(|(j, (job, &m))| DispatchEntry {
                job: j,
                machine: m,
                start: job.release,
                base_power: None,
            })
            .collect();
        Self::new(machines, entries)
    }
}

/// NC-PAR's machine availability, indexed so that a dispatch costs
/// O(log k) rather than two scans of the fleet.
///
/// Dispatch starts never decrease from one job to the next, and neither
/// does `start + tie_slack(start)`. So a machine that once had
/// `avail ≤ start + tie_slack(start)` stays eligible until it is picked:
/// it waits in `ready`, ordered by index, and the lowest eligible machine
/// is the first of `ready`, or else the lowest machine never used (whose
/// availability is 0). Every other used machine waits in `busy`, a
/// min-heap on availability.
#[derive(Debug)]
struct Availability {
    machines: usize,
    /// Availability of each used machine; machines are first used in index
    /// order, so these are machines `0..avail.len()`.
    avail: Vec<f64>,
    ready: BTreeSet<usize>,
    /// The ready machines by availability, for the fleet's earliest time.
    /// An entry is stale once its machine has been picked.
    ready_by_time: BinaryHeap<ByTime>,
    busy: BinaryHeap<ByTime>,
}

impl Availability {
    fn new(machines: usize) -> Self {
        Self {
            machines,
            avail: Vec::new(),
            ready: BTreeSet::new(),
            ready_by_time: BinaryHeap::new(),
            busy: BinaryHeap::new(),
        }
    }

    /// The machine for the queue head released at `release`, and its start
    /// `max(release, earliest availability)`: the lowest-indexed machine
    /// available within the tie slack of that start.
    fn take(&mut self, release: f64) -> (usize, f64) {
        let earliest = if self.avail.len() < self.machines {
            0.0
        } else {
            while let Some(&e) = self.ready_by_time.peek() {
                if self.ready.contains(&e.machine)
                    && self.avail[e.machine].to_bits() == e.time.to_bits()
                {
                    break;
                }
                self.ready_by_time.pop();
            }
            let ready = self.ready_by_time.peek().map_or(f64::INFINITY, |e| e.time);
            ready.min(self.busy.peek().map_or(f64::INFINITY, |e| e.time))
        };
        let start = release.max(earliest);
        let bound = start + tie_slack(start);
        while let Some(e) = self.busy.peek().copied().filter(|e| e.time <= bound) {
            self.busy.pop();
            self.ready.insert(e.machine);
            self.ready_by_time.push(e);
        }
        let m = match self.ready.pop_first() {
            Some(m) => m,
            None => {
                self.avail.push(0.0);
                self.avail.len() - 1
            }
        };
        (m, start)
    }

    /// Machine `m`, just picked, is next available at `t`.
    fn busy_until(&mut self, m: usize, t: f64) {
        self.avail[m] = t;
        self.busy.push(ByTime { time: t, machine: m });
    }
}

// ---------------------------------------------------------------------------
// Replays
// ---------------------------------------------------------------------------

/// Per-job outcomes for `n` jobs before any is served.
fn unserved(n: usize) -> PerJob {
    PerJob { completion: vec![f64::NAN; n], frac_flow: vec![0.0; n], int_flow: vec![0.0; n] }
}

fn check_len(instance: &Instance, log: &DispatchLog) -> SimResult<()> {
    if log.len() == instance.len() {
        Ok(())
    } else {
        Err(SimError::InvalidInstance { reason: "dispatch log length mismatch" })
    }
}

/// Split the instance into the log's per-machine queues and run one pool
/// task per machine, merging objectives machine 0, 1, 2, …, per-job
/// vectors by original id, and schedules relabelled to original ids.
/// `run` must be pure (no interior mutability observable across calls):
/// that, plus the pool's order preservation, makes the merged result the
/// same bits at every pool width.
pub(crate) fn replay_split(
    instance: &Instance,
    log: &DispatchLog,
    pool: &Pool,
    run: impl Fn(&Instance) -> SimResult<(Objective, PerJob, Schedule)> + Sync,
    what: &'static str,
) -> SimResult<ParOutcome> {
    check_len(instance, log)?;
    let mut queues: Vec<(Vec<Job>, Vec<usize>)> = vec![(Vec::new(), Vec::new()); log.machines()];
    for e in log.entries() {
        queues[e.machine].0.push(*instance.job(e.job));
        queues[e.machine].1.push(e.job);
    }
    let parts = queues
        .into_iter()
        .map(|(jobs, ids)| Ok((Instance::new(jobs)?, ids)))
        .collect::<SimResult<Vec<_>>>()?;
    let results = pool.map(&parts, |(inst, _)| run(inst));
    let mut objective = Objective::default();
    let mut per_job = unserved(instance.len());
    let mut schedules = Vec::with_capacity(parts.len());
    for (res, (_, ids)) in results.into_iter().zip(&parts) {
        let (o, pj, schedule) = res?;
        objective.energy += o.energy;
        objective.frac_flow += o.frac_flow;
        objective.int_flow += o.int_flow;
        for (local, &orig) in ids.iter().enumerate() {
            per_job.completion[orig] = pj.completion[local];
            per_job.frac_flow[orig] = pj.frac_flow[local];
            per_job.int_flow[orig] = pj.int_flow[local];
        }
        let segments = schedule
            .segments()
            .iter()
            .map(|s| Segment { job: s.job.map(|local| ids[local]), ..*s })
            .collect();
        schedules.push(Schedule::new(schedule.power_law(), segments)?);
    }
    let objective = objective.validated(what)?;
    Ok(ParOutcome { assignment: log.assignment(), objective, per_job, schedules })
}

/// Replay a dispatch log with per-machine **Algorithm C** as pool tasks.
/// With a [`DispatchLog::c_par`] log this is C-PAR; with any other log it
/// is "per-machine C under that dispatch".
pub fn replay_c(
    instance: &Instance,
    law: PowerLaw,
    log: &DispatchLog,
    pool: &Pool,
) -> SimResult<ParOutcome> {
    let run = |inst: &Instance| run_c(inst, law).map(|r| (r.objective, r.per_job, r.schedule));
    replay_split(instance, log, pool, run, "replay_c: objective")
}

/// Replay a dispatch log with per-machine **Algorithm NC** as pool tasks
/// (each machine restarts NC over its own queue, ignoring recorded starts)
/// — the form behind [`crate::run_nc_with_assignment`] and
/// [`crate::run_immediate_dispatch`], used for the [`ImmediateDispatch`]
/// policies and the lower-bound game.
pub fn replay_nc_assigned(
    instance: &Instance,
    law: PowerLaw,
    log: &DispatchLog,
    pool: &Pool,
) -> SimResult<ParOutcome> {
    let run = |inst: &Instance| {
        ncss_core::run_nc_uniform(inst, law).map(|r| (r.objective, r.per_job, r.schedule))
    };
    replay_split(instance, log, pool, run, "replay_nc_assigned: objective")
}

/// Replay an NC-PAR dispatch log: each job's growth-law service at its
/// recorded `start` and `K_j`, evaluated as pool work. No machine history
/// is re-simulated, so the replay is linear in the jobs.
///
/// Energies and flows are summed in job-id order, so the objective is the
/// same bits at every pool width. A log that records no `K_j` (an immediate-dispatch log) is a
/// typed error.
pub fn replay_nc(
    instance: &Instance,
    law: PowerLaw,
    log: &DispatchLog,
    pool: &Pool,
) -> SimResult<ParOutcome> {
    check_len(instance, log)?;
    let served = pool.map_chunked(log.entries(), 0, |e| {
        let k_j = e.base_power.ok_or(SimError::InvalidInstance {
            reason: "replay_nc needs a log that records K_j (DispatchLog::nc_par)",
        })?;
        let job = instance.job(e.job);
        Ok(GrowthService::new(law, k_j, job, "replay_nc: service time")?.serve(e.job, job, e.start))
    });

    // Entries are in job-id order, so this accumulates energy job by job.
    let mut energy = 0.0;
    let mut per_job = unserved(instance.len());
    let mut builders: Vec<ScheduleBuilder> =
        (0..log.machines()).map(|_| ScheduleBuilder::new(law)).collect();
    for (e, s) in log.entries().iter().zip(served) {
        let s = s?;
        energy += s.energy;
        per_job.completion[e.job] = s.completion;
        per_job.frac_flow[e.job] = s.frac_flow;
        per_job.int_flow[e.job] = s.int_flow;
        builders[e.machine].push(s.segment);
    }
    let objective = Objective {
        energy,
        frac_flow: per_job.frac_flow.iter().sum(),
        int_flow: per_job.int_flow.iter().sum(),
    }
    .validated("replay_nc: objective")?;
    let schedules =
        builders.into_iter().map(ScheduleBuilder::build).collect::<SimResult<Vec<_>>>()?;
    Ok(ParOutcome { assignment: log.assignment(), objective, per_job, schedules })
}

/// Sharded C-PAR: serial greedy dispatch (via [`DispatchLog::c_par`]), then
/// per-machine Algorithm C as pool tasks. Bitwise identical at every pool
/// width; [`crate::run_c_par`] is this on one inline worker.
///
/// # Examples
///
/// ```
/// use ncss_multi::fleet::run_c_par_sharded;
/// use ncss_multi::run_c_par;
/// use ncss_pool::Pool;
/// use ncss_sim::{Instance, Job, PowerLaw};
///
/// let inst = Instance::new(vec![
///     Job::unit_density(0.0, 1.0),
///     Job::unit_density(0.2, 2.0),
///     Job::unit_density(0.9, 0.5),
/// ]).unwrap();
/// let law = PowerLaw::new(3.0).unwrap();
///
/// let serial = run_c_par(&inst, law, 2).unwrap();
/// let sharded = run_c_par_sharded(&inst, law, 2, &Pool::with_threads(2)).unwrap();
/// assert_eq!(serial.assignment, sharded.assignment);
/// // Not approximately equal: the same bits.
/// assert_eq!(
///     serial.objective.fractional().to_bits(),
///     sharded.objective.fractional().to_bits(),
/// );
/// ```
pub fn run_c_par_sharded(
    instance: &Instance,
    law: PowerLaw,
    machines: usize,
    pool: &Pool,
) -> SimResult<ParOutcome> {
    let log = DispatchLog::c_par(instance, law, machines)?;
    replay_c(instance, law, &log, pool)
}

/// Sharded NC-PAR: serial global-FIFO dispatch (via [`DispatchLog::nc_par`]),
/// then the growth-law replay as pool work. Bitwise identical at every pool
/// width; [`crate::run_nc_par`] is this on one inline worker.
///
/// # Examples
///
/// ```
/// use ncss_multi::fleet::run_nc_par_sharded;
/// use ncss_multi::run_nc_par;
/// use ncss_pool::Pool;
/// use ncss_sim::{Instance, Job, PowerLaw};
///
/// let inst = Instance::new(vec![
///     Job::unit_density(0.0, 1.0),
///     Job::unit_density(0.2, 2.0),
///     Job::unit_density(0.9, 0.5),
/// ]).unwrap();
/// let law = PowerLaw::new(2.0).unwrap();
///
/// let serial = run_nc_par(&inst, law, 2).unwrap();
/// let sharded = run_nc_par_sharded(&inst, law, 2, &Pool::with_threads(3)).unwrap();
/// for (s, p) in serial.per_job.completion.iter().zip(&sharded.per_job.completion) {
///     assert_eq!(s.to_bits(), p.to_bits());
/// }
/// ```
pub fn run_nc_par_sharded(
    instance: &Instance,
    law: PowerLaw,
    machines: usize,
    pool: &Pool,
) -> SimResult<ParOutcome> {
    let log = DispatchLog::nc_par(instance, law, machines)?;
    replay_nc(instance, law, &log, pool)
}

/// Gate a fleet outcome with the cross-machine auditor: [`MultiAudit`]
/// replays every release, every machine's segments and every reported
/// completion into the event-driven `IncrementalMultiAudit`. The
/// schedules carry the run's power law, so `law` is not read. Short
/// per-job vectors make a failing report, never a panic.
///
/// # Examples
///
/// ```
/// use ncss_multi::fleet::{audit_fleet, run_nc_par_sharded};
/// use ncss_audit::AuditConfig;
/// use ncss_pool::Pool;
/// use ncss_sim::{Instance, Job, PowerLaw};
///
/// let inst = Instance::new(vec![
///     Job::unit_density(0.0, 1.0),
///     Job::unit_density(0.3, 2.0),
/// ]).unwrap();
/// let law = PowerLaw::new(2.0).unwrap();
/// let out = run_nc_par_sharded(&inst, law, 2, &Pool::with_threads(2)).unwrap();
///
/// let report = audit_fleet(&inst, law, &out, AuditConfig::default());
/// assert!(report.passed(), "{}", report.render());
/// ```
#[must_use]
pub fn audit_fleet(
    instance: &Instance,
    _law: PowerLaw,
    outcome: &ParOutcome,
    config: AuditConfig,
) -> AuditReport {
    let reported = Evaluated { objective: outcome.objective, per_job: outcome.per_job.clone() };
    MultiAudit::new(config).audit(instance, &outcome.schedules, &reported)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pl(alpha: f64) -> PowerLaw {
        PowerLaw::new(alpha).unwrap()
    }

    fn inst() -> Instance {
        Instance::new(vec![
            Job::unit_density(0.0, 1.0),
            Job::unit_density(0.2, 2.0),
            Job::unit_density(0.2, 0.4),
            Job::unit_density(0.9, 1.1),
            Job::unit_density(2.5, 0.8),
            Job::unit_density(2.5, 0.8),
        ])
        .unwrap()
    }

    #[test]
    fn log_validation_rejects_malformed_logs() {
        let e = |job, machine, start| DispatchEntry { job, machine, start, base_power: None };
        let k = |base_power| DispatchEntry { base_power: Some(base_power), ..e(0, 1, 0.5) };
        assert!(DispatchLog::new(0, vec![]).is_err());
        assert!(DispatchLog::new(2, vec![e(1, 0, 0.0)]).is_err()); // wrong id order
        assert!(DispatchLog::new(2, vec![e(0, 2, 0.0)]).is_err()); // machine range
        assert!(DispatchLog::new(2, vec![e(0, 0, f64::NAN)]).is_err()); // bad start
        for bad in [f64::NAN, f64::INFINITY, -1e-300, -1.0] {
            assert!(DispatchLog::new(2, vec![k(bad)]).is_err(), "K_j = {bad}");
        }
        assert!(DispatchLog::new(2, vec![e(0, 1, 0.5)]).is_ok());
        assert!(DispatchLog::new(2, vec![k(0.0)]).is_ok());
        assert!(DispatchLog::new(2, vec![k(3.5)]).is_ok());
    }

    #[test]
    fn logs_record_starts_and_base_powers() {
        let inst = inst();
        // C-PAR is immediate dispatch: every entry starts at its release and
        // records no K_j.
        let log = DispatchLog::c_par(&inst, pl(2.0), 3).unwrap();
        for (e, job) in log.entries().iter().zip(inst.jobs()) {
            assert_eq!((e.start, e.base_power), (job.release, None));
        }
        for k in [1usize, 2, 3, 5] {
            let log = DispatchLog::nc_par(&inst, pl(2.5), k).unwrap();
            // NC-PAR starts can sit strictly after release (queueing) but
            // never before, and every entry carries its K_j.
            for (e, job) in log.entries().iter().zip(inst.jobs()) {
                assert!(e.start >= job.release, "k={k}");
                assert!(e.base_power.is_some(), "k={k}");
            }
            // The first job on the fleet starts from an empty history.
            assert_eq!(log.entries()[0].base_power, Some(0.0));
        }
    }

    #[test]
    fn fleet_audit_gates_honest_and_tampered_runs() {
        let inst = inst();
        let out = run_nc_par_sharded(&inst, pl(2.0), 2, &Pool::with_threads(2)).unwrap();
        let report = audit_fleet(&inst, pl(2.0), &out, AuditConfig::default());
        assert!(report.passed(), "{}", report.render());

        // Tampered energy must trip the recomputation check by name.
        let mut bad = out.clone();
        bad.objective.energy *= 0.5;
        let report = audit_fleet(&inst, pl(2.0), &bad, AuditConfig::default());
        assert!(!report.passed());
        assert!(report.failures().iter().any(|c| c.name == "energy-recomputed"));

        // A duplicated machine timeline is double service.
        let mut dup = out.clone();
        dup.schedules.push(dup.schedules[0].clone());
        let report = audit_fleet(&inst, pl(2.0), &dup, AuditConfig::default());
        assert!(!report.passed());
        assert!(report.failures().iter().any(|c| c.name == "no-double-service"));
    }

    #[test]
    fn fleet_audit_fails_short_per_job_vectors_without_panicking() {
        let inst = inst();
        let out = run_c_par_sharded(&inst, pl(2.0), 2, &Pool::with_threads(1)).unwrap();
        let sums = "reported-sums-consistent";
        for (field, check) in [(0, "completion-after-release"), (1, sums), (2, sums)] {
            let mut short = out.clone();
            let pj = &mut short.per_job;
            [&mut pj.completion, &mut pj.frac_flow, &mut pj.int_flow][field].pop();
            let report = audit_fleet(&inst, pl(2.0), &short, AuditConfig::default());
            assert!(!report.passed(), "vector {field}: {}", report.render());
            let failed = report.failures().iter().any(|c| c.name == check);
            assert!(failed, "vector {field}: {}", report.render());
        }
    }

    #[test]
    fn replay_rejects_mismatched_log() {
        let inst = inst();
        let smaller = Instance::new(vec![Job::unit_density(0.0, 1.0)]).unwrap();
        let log = DispatchLog::nc_par(&inst, pl(2.0), 2).unwrap();
        let pool = Pool::with_threads(1);
        assert!(replay_nc(&smaller, pl(2.0), &log, &pool).is_err());
        assert!(replay_c(&smaller, pl(2.0), &log, &pool).is_err());
        // An immediate-dispatch log records no K_j: NC-PAR cannot replay it.
        let c_log = DispatchLog::c_par(&inst, pl(2.0), 2).unwrap();
        assert!(matches!(
            replay_nc(&inst, pl(2.0), &c_log, &pool),
            Err(SimError::InvalidInstance { .. })
        ));
    }

    #[test]
    fn wide_fleets_leave_tail_machines_idle_but_valid() {
        // More machines than jobs: every job gets its own machine, the
        // rest produce empty (but well-formed) schedules.
        let inst = inst();
        let out = run_nc_par_sharded(&inst, pl(2.0), 16, &Pool::with_threads(4)).unwrap();
        assert_eq!(out.schedules.len(), 16);
        assert!(out.schedules.iter().filter(|s| s.segments().is_empty()).count() >= 10);
        let report = audit_fleet(&inst, pl(2.0), &out, AuditConfig::default());
        assert!(report.passed(), "{}", report.render());
    }
}
