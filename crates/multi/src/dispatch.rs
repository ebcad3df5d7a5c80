//! Immediate-dispatch policies (Section 6).
//!
//! In the immediate-dispatch model the machine must be chosen at release
//! time. The [`ImmediateDispatch`] trait signature is the information
//! firewall: a policy sees only the job's id, release time, density, and
//! the machine count — never the volume. This is precisely why the paper's
//! adversary can defeat *any* deterministic policy (the `Ω(k^{1−1/α})`
//! lower bound): look-alike jobs cannot be load-balanced.

use crate::c_par::ParOutcome;
use crate::fleet::{replay_nc_assigned, DispatchLog};
use ncss_pool::Pool;
use ncss_sim::{Instance, PowerLaw, SimResult};

/// A deterministic (or seeded-random) immediate-dispatch policy.
pub trait ImmediateDispatch {
    /// Choose the machine (in `0..machines`) for a job at its release.
    /// Volumes are deliberately absent from the signature.
    fn dispatch(&mut self, job: usize, release: f64, density: f64, machines: usize) -> usize;

    /// Display name for tables.
    fn name(&self) -> &'static str;
}

/// Cyclic round-robin — the canonical deterministic policy.
#[derive(Debug, Default, Clone)]
pub struct RoundRobin {
    next: usize,
}

impl ImmediateDispatch for RoundRobin {
    fn dispatch(&mut self, _job: usize, _release: f64, _density: f64, machines: usize) -> usize {
        let m = self.next % machines;
        self.next += 1;
        m
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }
}

/// Fewest-jobs-so-far (count-based least loaded; identical to round-robin
/// on a simultaneous batch but differs on staggered arrivals).
#[derive(Debug, Default, Clone)]
pub struct LeastCount {
    counts: Vec<usize>,
    dispatched: usize,
}

impl ImmediateDispatch for LeastCount {
    fn dispatch(&mut self, _job: usize, _release: f64, _density: f64, machines: usize) -> usize {
        // After `d` dispatches at most `d` machines have nonzero count, so
        // the minimum over `0..machines` is always attained (first) within
        // `0..=d`: scanning `machines.min(d + 1)` slots picks the identical
        // machine while keeping state O(jobs) even for absurd `machines`
        // values (a `usize::MAX` resize would abort the process).
        let effective = machines.min(self.dispatched + 1);
        if self.counts.len() < effective {
            self.counts.resize(effective, 0);
        }
        let m = (0..effective).min_by_key(|&m| self.counts[m]).expect("machines > 0");
        self.counts[m] += 1;
        self.dispatched += 1;
        m
    }

    fn name(&self) -> &'static str {
        "least-count"
    }
}

/// Seeded pseudo-random dispatch (an xorshift generator, deterministic per
/// seed — the adversary argument applies to the realised coin flips).
#[derive(Debug, Clone)]
pub struct SeededRandom {
    state: u64,
}

impl SeededRandom {
    /// New policy with the given seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed.max(1) }
    }
}

impl ImmediateDispatch for SeededRandom {
    fn dispatch(&mut self, _job: usize, _release: f64, _density: f64, machines: usize) -> usize {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        (self.state % machines as u64) as usize
    }

    fn name(&self) -> &'static str {
        "seeded-random"
    }
}

/// Collect a policy's assignment for a whole instance.
pub fn collect_assignment(
    instance: &Instance,
    machines: usize,
    policy: &mut dyn ImmediateDispatch,
) -> Vec<usize> {
    instance
        .jobs()
        .iter()
        .enumerate()
        .map(|(j, job)| policy.dispatch(j, job.release, job.density, machines))
        .collect()
}

/// Run a policy end-to-end: dispatch every job at release, then run
/// per-machine Algorithm NC under the resulting assignment — the
/// [`DispatchLog::from_policy`] log replayed on one inline worker.
///
/// The machine count is validated **before** the policy sees it: policies
/// assume `machines ≥ 1` (round-robin and random both reduce modulo the
/// count), so `m = 0` must become a typed error, not a panic inside the
/// policy.
pub fn run_immediate_dispatch(
    instance: &Instance,
    law: PowerLaw,
    machines: usize,
    policy: &mut dyn ImmediateDispatch,
) -> SimResult<ParOutcome> {
    let log = DispatchLog::from_policy(instance, machines, policy)?;
    replay_nc_assigned(instance, law, &log, &Pool::with_threads(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncss_sim::Job;

    #[test]
    fn round_robin_cycles() {
        let mut p = RoundRobin::default();
        let seq: Vec<usize> = (0..6).map(|j| p.dispatch(j, 0.0, 1.0, 3)).collect();
        assert_eq!(seq, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn least_count_balances() {
        let mut p = LeastCount::default();
        let seq: Vec<usize> = (0..4).map(|j| p.dispatch(j, 0.0, 1.0, 2)).collect();
        assert_eq!(seq.iter().filter(|&&m| m == 0).count(), 2);
    }

    #[test]
    fn seeded_random_is_deterministic() {
        let run = |seed| -> Vec<usize> {
            let mut p = SeededRandom::new(seed);
            (0..10).map(|j| p.dispatch(j, 0.0, 1.0, 4)).collect()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn end_to_end_run_completes() {
        let inst = Instance::new(vec![
            Job::unit_density(0.0, 1.0),
            Job::unit_density(0.0, 2.0),
            Job::unit_density(0.5, 0.5),
            Job::unit_density(1.0, 1.5),
        ])
        .unwrap();
        let mut p = RoundRobin::default();
        let out = run_immediate_dispatch(&inst, PowerLaw::new(2.0).unwrap(), 2, &mut p).unwrap();
        assert_eq!(out.assignment, vec![0, 1, 0, 1]);
        assert!(out.per_job.completion.iter().all(|c| c.is_finite()));
        assert!(out.objective.fractional() > 0.0);
    }
}
