//! Algorithm C-PAR: clairvoyant greedy immediate dispatch + per-machine
//! Algorithm C (Section 6, Theorem 18; due to Anand–Garg–Kumar).
//!
//! Each arriving job is immediately assigned to the machine that minimises
//! the increase in the fractional objective. By Lemma 19 this is exactly the
//! machine with the **least remaining fractional weight** at the release
//! time (the energy increase `((W + W_j)^{2−1/α} − W^{2−1/α})` is increasing
//! in `W`, and flow-time equals energy for Algorithm C). Ties break by
//! machine index — the total order the paper fixes.

use crate::fleet::run_c_par_sharded;
use crate::shadow::{empty_sum, ByTime, MachineShadow};
use ncss_core::clairvoyant::weight_before;
use ncss_pool::Pool;
use ncss_sim::numeric::tie_slack;
use ncss_sim::{Instance, Job, PowerLaw, Segment, SimError, SimResult};
use std::collections::{BTreeSet, BinaryHeap};

/// Largest supported machine count. Parallel-machine state is `O(m)` even
/// when most machines stay idle, so an adversarial `m` near `usize::MAX`
/// must become a structured error before any allocation is attempted.
pub const MAX_MACHINES: usize = 1 << 16;

/// Machine-count guard shared by every parallel runner: `m = 0` and
/// `m > MAX_MACHINES` are typed errors, never a panic or an allocation.
pub(crate) fn validate_machines(machines: usize) -> SimResult<()> {
    if machines == 0 {
        return Err(SimError::InvalidInstance { reason: "need at least one machine" });
    }
    if machines > MAX_MACHINES {
        return Err(SimError::InvalidInstance { reason: "machine count exceeds MAX_MACHINES" });
    }
    Ok(())
}

/// Outcome of a parallel-machine run: the assignment, the summed
/// objective, per-job outcomes in original job ids, and one timeline per
/// machine (empty for idle machines) with segments labelled by original
/// job ids. It is [`ncss_core::MultiRun`] itself, so every runner here
/// plugs into [`ncss_core::run_checked_multi`] and the auditors directly.
pub use ncss_core::MultiRun as ParOutcome;

/// The C-PAR greedy dispatch rule on its own: the machine index chosen for
/// each job, in release order. [`crate::fleet::DispatchLog::c_par`] records
/// these decisions.
pub(crate) fn greedy_c_par_assignment(
    instance: &Instance,
    law: PowerLaw,
    machines: usize,
) -> SimResult<Vec<usize>> {
    validate_machines(machines)?;
    let mut fleet = GreedyFleet::new(law, machines);
    instance.jobs().iter().map(|&job| fleet.dispatch(job)).collect()
}

/// One used machine under C-PAR: its shadow C run, and the *tail* of that
/// run, the segments it retires if no further job arrives.
#[derive(Debug)]
struct Greedy {
    shadow: MachineShadow,
    tail: Vec<Segment>,
    /// End of the tail: the machine's C run holds weight until then.
    end: f64,
}

impl Greedy {
    /// `W^{(C)}(r^-)` plus the weight of the machine's jobs released at
    /// `r`, for `r` at or after the machine's latest release: the bits the
    /// serial reference gets from a fresh `run_c` over the machine's jobs.
    fn weight_at(&self, law: PowerLaw, r: f64) -> f64 {
        let s = &self.shadow;
        if r == s.last_release {
            s.before + s.ties
        } else {
            // Past the last release nothing ties; the tail holds every
            // segment of the run that ends at or after `r`.
            weight_before(&self.tail, law, r) + empty_sum()
        }
    }
}

/// C-PAR's fleet state, indexed so that a dispatch touches only machines
/// whose C run still holds weight.
///
/// A machine whose tail ended before the release has remaining weight
/// exactly 0. Under the scan rule `w < best_w − tie_slack(best_w)`, with
/// every `w ≥ 0`, the lowest-indexed machine with zero weight beats every
/// positive weight before it and no machine after it can beat 0, so the
/// scan stops there. Machines are first used in index order, so the used
/// machines are exactly `0..used.len()`.
#[derive(Debug)]
struct GreedyFleet {
    law: PowerLaw,
    machines: usize,
    used: Vec<Greedy>,
    /// Used machines whose C run may hold weight at the next release.
    busy: BTreeSet<usize>,
    /// Used machines whose C run has drained.
    idle: BTreeSet<usize>,
    /// Busy machines by tail end; an entry whose time is no longer the
    /// machine's `end` is stale and skipped.
    ends: BinaryHeap<ByTime>,
    /// The machine that received the previous job: its tail is stale until
    /// the next dispatch reads it, which is when the serial reference
    /// re-runs C over its jobs (and fails where that run would fail).
    stale: Option<usize>,
}

impl GreedyFleet {
    fn new(law: PowerLaw, machines: usize) -> Self {
        Self {
            law,
            machines,
            used: Vec::new(),
            busy: BTreeSet::new(),
            idle: BTreeSet::new(),
            ends: BinaryHeap::new(),
            stale: None,
        }
    }

    fn dispatch(&mut self, job: Job) -> SimResult<usize> {
        let r = job.release;
        if let Some(m) = self.stale.take() {
            let g = &mut self.used[m];
            g.tail = g.shadow.stream.remaining_segments()?;
            let last = g.shadow.last_release;
            g.end = g.tail.last().map_or(last, |s| s.end.max(last));
            self.ends.push(ByTime { time: g.end, machine: m });
        }
        while let Some(top) = self.ends.peek().copied().filter(|e| e.time < r) {
            self.ends.pop();
            let g = &mut self.used[top.machine];
            if g.end.to_bits() == top.time.to_bits() && self.busy.remove(&top.machine) {
                g.tail = Vec::new();
                self.idle.insert(top.machine);
            }
        }

        // The lowest machine with zero weight: drained, or else never used
        // (every drained machine is used, so it has the lower index).
        let never_used = Some(self.used.len()).filter(|&m| m < self.machines);
        let zero = self.idle.first().copied().or(never_used);
        let (mut best, mut best_w) = (0usize, f64::INFINITY);
        for &m in self.busy.range(..zero.unwrap_or(self.machines)) {
            let w = self.used[m].weight_at(self.law, r);
            if w < best_w - tie_slack(best_w) {
                best = m;
                best_w = w;
            }
        }
        if let Some(m) = zero {
            if 0.0 < best_w - tie_slack(best_w) {
                best = m;
            }
        }

        if best == self.used.len() {
            let shadow = MachineShadow::new(self.law);
            self.used.push(Greedy { shadow, tail: Vec::new(), end: f64::NEG_INFINITY });
        } else {
            self.idle.remove(&best);
        }
        self.used[best].shadow.admit(job)?;
        self.busy.insert(best);
        self.stale = Some(best);
        Ok(best)
    }
}

/// Run C-PAR on `machines` identical machines: the greedy dispatch log
/// replayed on one inline worker ([`crate::fleet::run_c_par_sharded`]).
pub fn run_c_par(instance: &Instance, law: PowerLaw, machines: usize) -> SimResult<ParOutcome> {
    run_c_par_sharded(instance, law, machines, &Pool::with_threads(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncss_core::run_c;
    use ncss_sim::numeric::approx_eq;

    fn pl(alpha: f64) -> PowerLaw {
        PowerLaw::new(alpha).unwrap()
    }

    #[test]
    fn first_jobs_spread_across_machines() {
        // Two jobs at distinct times while machine 0 is still loaded: the
        // second goes to the empty machine 1.
        let inst = Instance::new(vec![Job::unit_density(0.0, 4.0), Job::unit_density(0.1, 1.0)]).unwrap();
        let out = run_c_par(&inst, pl(2.0), 2).unwrap();
        assert_eq!(out.assignment, vec![0, 1]);
    }

    #[test]
    fn single_machine_equals_algorithm_c() {
        let inst = Instance::new(vec![
            Job::unit_density(0.0, 1.0),
            Job::unit_density(0.2, 2.0),
            Job::unit_density(0.9, 0.5),
        ])
        .unwrap();
        let par = run_c_par(&inst, pl(3.0), 1).unwrap();
        let c = run_c(&inst, pl(3.0)).unwrap();
        assert!(approx_eq(par.objective.fractional(), c.objective.fractional(), 1e-9));
        assert!(par.assignment.iter().all(|&m| m == 0));
    }

    #[test]
    fn greedy_prefers_least_loaded() {
        // Load machine 0 heavily, then machine 1 lightly; a third job must
        // pick machine 1.
        let inst = Instance::new(vec![
            Job::unit_density(0.0, 10.0),
            Job::unit_density(0.1, 0.1),
            Job::unit_density(0.2, 1.0),
        ])
        .unwrap();
        let out = run_c_par(&inst, pl(2.0), 2).unwrap();
        assert_eq!(out.assignment[0], 0);
        assert_eq!(out.assignment[1], 1);
        // Machine 1's tiny job is done long before 0's; job 2 -> machine 1.
        assert_eq!(out.assignment[2], 1);
    }

    #[test]
    fn more_machines_never_hurt() {
        let inst = Instance::new(vec![
            Job::unit_density(0.0, 1.0),
            Job::unit_density(0.0, 1.0),
            Job::unit_density(0.0, 1.0),
            Job::unit_density(0.0, 1.0),
        ])
        .unwrap();
        let one = run_c_par(&inst, pl(3.0), 1).unwrap().objective.fractional();
        let two = run_c_par(&inst, pl(3.0), 2).unwrap().objective.fractional();
        let four = run_c_par(&inst, pl(3.0), 4).unwrap().objective.fractional();
        assert!(two <= one + 1e-9);
        assert!(four <= two + 1e-9);
    }

    #[test]
    fn zero_machines_rejected() {
        let inst = Instance::new(vec![Job::unit_density(0.0, 1.0)]).unwrap();
        assert!(run_c_par(&inst, pl(2.0), 0).is_err());
    }

    #[test]
    fn absurd_machine_counts_rejected() {
        let inst = Instance::new(vec![Job::unit_density(0.0, 1.0)]).unwrap();
        for m in [MAX_MACHINES + 1, usize::MAX - 1, usize::MAX] {
            assert!(run_c_par(&inst, pl(2.0), m).is_err(), "m = {m}");
        }
        // The cap itself is usable.
        assert!(validate_machines(MAX_MACHINES).is_ok());
    }

    #[test]
    fn energy_equals_flow_per_total() {
        // Per-machine C has energy == fractional flow; so does the sum.
        let inst = Instance::new(vec![
            Job::unit_density(0.0, 1.0),
            Job::unit_density(0.3, 2.0),
            Job::unit_density(0.5, 0.7),
            Job::unit_density(1.5, 1.2),
        ])
        .unwrap();
        let out = run_c_par(&inst, pl(2.5), 3).unwrap();
        assert!(approx_eq(out.objective.energy, out.objective.frac_flow, 1e-9));
    }

    #[test]
    fn schedules_cover_every_job_on_its_machine() {
        let inst = Instance::new(vec![
            Job::unit_density(0.0, 1.0),
            Job::unit_density(0.3, 2.0),
            Job::unit_density(0.5, 0.7),
            Job::unit_density(1.5, 1.2),
        ])
        .unwrap();
        let out = run_c_par(&inst, pl(2.0), 2).unwrap();
        assert_eq!(out.schedules.len(), 2);
        for (j, &m) in out.assignment.iter().enumerate() {
            // The job's segments appear on its machine and nowhere else.
            assert!(out.schedules[m].segments().iter().any(|s| s.job == Some(j)));
            for (other, sched) in out.schedules.iter().enumerate() {
                if other != m {
                    assert!(sched.segments().iter().all(|s| s.job != Some(j)));
                }
            }
        }
    }
}
