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
use ncss_core::{run_c, CRun};
use ncss_pool::Pool;
use ncss_sim::{Instance, Job, PowerLaw, SimError, SimResult};

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

/// Tie slack for the dispatchers' comparisons at magnitude `x`: `1e-12`
/// absolute at or above 1, `1e-12` relative below it. Scaling volumes and
/// releases by an exact change of units then cannot flip a decision, while
/// decisions at magnitudes of 1 and above keep the absolute slack they
/// always had.
pub(crate) fn tie_slack(x: f64) -> f64 {
    1e-12 * x.abs().min(1.0)
}

/// The C-PAR greedy dispatch rule on its own: the machine index chosen for
/// each job, in release order. [`crate::fleet::DispatchLog::c_par`] records
/// these decisions.
pub(crate) fn greedy_c_par_assignment(
    instance: &Instance,
    law: PowerLaw,
    machines: usize,
) -> SimResult<Vec<usize>> {
    validate_machines(machines)?;
    let n = instance.len();
    let mut assigned: Vec<Vec<Job>> = vec![Vec::new(); machines];
    let mut assignment = vec![0usize; n];
    // Per-machine C run over its current job set, invalidated only when the
    // machine receives a job: the greedy scan below would otherwise
    // re-simulate every machine for every arrival (`n · m` runs instead of
    // at most `n` rebuilds).
    let mut cached: Vec<Option<CRun>> = (0..machines).map(|_| None).collect();

    for (j, job) in instance.jobs().iter().enumerate() {
        // Remaining fractional weight of each machine just before r_j.
        let mut best = 0usize;
        let mut best_w = f64::INFINITY;
        for (m, jobs) in assigned.iter().enumerate() {
            // Remaining weight at r_j^-, counting same-instant earlier jobs
            // at full weight (the distinct-release limit; see
            // `ncss_core::nc_uniform::base_power`).
            let strictly_before = if jobs.is_empty() {
                0.0
            } else {
                if cached[m].is_none() {
                    cached[m] = Some(run_c(&Instance::new(jobs.clone())?, law)?);
                }
                cached[m].as_ref().expect("just rebuilt").remaining_weight_before(job.release)
            };
            let ties: f64 = jobs.iter().filter(|i| i.release == job.release).map(Job::weight).sum();
            let w = strictly_before + ties;
            if w < best_w - tie_slack(best_w) {
                best_w = w;
                best = m;
            }
        }
        assignment[j] = best;
        assigned[best].push(*job);
        cached[best] = None;
    }
    Ok(assignment)
}

/// Run C-PAR on `machines` identical machines: the greedy dispatch log
/// replayed on one inline worker ([`crate::fleet::run_c_par_sharded`]).
pub fn run_c_par(instance: &Instance, law: PowerLaw, machines: usize) -> SimResult<ParOutcome> {
    run_c_par_sharded(instance, law, machines, &Pool::with_threads(1))
}

#[cfg(test)]
mod tests {
    use super::*;
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
