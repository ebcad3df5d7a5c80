//! The Section 7 open-problem candidate: **lazy HDF dispatch** for
//! non-uniform densities on identical machines.
//!
//! The paper suggests the natural non-clairvoyant policy — "follow HDF
//! (probably with rounded densities) and dispatch only as needed" — and
//! explains why its analysis does not follow from the uniform case (later
//! arrivals can change which machine a job lands on, unlike in the
//! clairvoyant comparator). This module implements exactly that policy so
//! the experiments can measure the gap the open problem leaves:
//!
//! * a single global queue ordered by **rounded density** (FIFO within a
//!   bucket),
//! * whenever a machine is available, it takes the queue head,
//! * each machine runs its jobs one at a time with the uniform-case growth
//!   rule applied machine-locally (`P = W^{(C)}(r_j^-)` over the machine's
//!   jobs released no later than `r_j`, plus the job's processed weight) —
//!   the job's *own* rounded density drives the curve.
//!
//! The service itself is NC-PAR's `GrowthService`; only the dispatch rule
//! differs.

use crate::c_par::{validate_machines, ParOutcome};
use crate::nc_par::GrowthService;
use ncss_core::nc_uniform::base_power_over_history;
use ncss_sim::{Instance, Job, Objective, PerJob, PowerLaw, ScheduleBuilder, SimError, SimResult};

/// Run lazy-HDF dispatch with per-machine growth-rule processing.
pub fn run_lazy_hdf(
    instance: &Instance,
    law: PowerLaw,
    machines: usize,
    rounding_base: f64,
) -> SimResult<ParOutcome> {
    validate_machines(machines)?;
    let rounded = instance.with_rounded_densities(rounding_base)?;
    let jobs = instance.jobs();
    let n = jobs.len();
    let mut assignment = vec![usize::MAX; n];
    let mut completion = vec![f64::NAN; n];
    let mut frac_flow = vec![0.0; n];
    let mut int_flow = vec![0.0; n];
    let mut energy = 0.0;
    let mut avail = vec![0.0f64; machines];
    // Each machine's (rounded) jobs so far, kept in release order; HDF may
    // dispatch a later, denser job before an earlier one.
    let mut assigned: Vec<Vec<Job>> = vec![Vec::new(); machines];
    let mut builders: Vec<ScheduleBuilder> =
        (0..machines).map(|_| ScheduleBuilder::new(law)).collect();
    let mut queued: Vec<usize> = Vec::new(); // ids not yet dispatched
    let mut released = 0usize;
    let mut t = jobs.first().map_or(0.0, |j| j.release);

    let mut done = 0usize;
    let mut guard = 0usize;
    while done < n {
        guard += 1;
        if guard > 4 * n + 16 {
            return Err(SimError::NonConvergence { what: "lazy HDF dispatch loop" });
        }
        while released < n && jobs[released].release <= t {
            queued.push(released);
            released += 1;
        }
        // Earliest available machine; if it frees after the next release,
        // admit that release first.
        let (m, m_avail) = avail
            .iter()
            .copied()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite").then(a.0.cmp(&b.0)))
            .expect("machines > 0");
        let next_release = if released < n { jobs[released].release } else { f64::INFINITY };
        if queued.is_empty() {
            // Wait for the next arrival (one must exist: jobs remain and
            // dispatch accounts completions immediately, so `done < n`
            // implies undispatched jobs exist).
            debug_assert!(next_release.is_finite());
            t = t.max(next_release);
            continue;
        }
        if m_avail.max(t) >= next_release {
            // A release lands before (or at) the dispatch instant: admit it
            // first so it can compete for the slot. No overshoot: the new t
            // equals the dispatch instant max(t, m_avail) ≥ next_release.
            t = t.max(m_avail);
            continue;
        }
        // Dispatch the highest-rounded-density queued job (FIFO in bucket).
        let (qpos, &j) = queued
            .iter()
            .enumerate()
            .max_by(|(_, &a), (_, &b)| {
                rounded
                    .job(a)
                    .density
                    .partial_cmp(&rounded.job(b).density)
                    .expect("finite")
                    .then(b.cmp(&a)) // smaller id wins ties
            })
            .expect("non-empty queue");
        queued.remove(qpos);
        let t_start = t.max(m_avail).max(jobs[j].release);
        assignment[j] = m;

        // Growth rule over this machine's jobs released no later than r_j,
        // with the job's rounded density driving the curve.
        let job = rounded.job(j);
        let cut = assigned[m].partition_point(|i| i.release <= job.release);
        let k_j = base_power_over_history(&assigned[m][..cut], job.release, law)?;
        let service = GrowthService::new(law, k_j, job, "run_lazy_hdf: service time")?;
        // Flows with the ORIGINAL density; the segment carries the rounded
        // curve the machine actually drives.
        let served = service.serve(j, &jobs[j], t_start);
        energy += served.energy;
        frac_flow[j] = served.frac_flow;
        completion[j] = served.completion;
        int_flow[j] = served.int_flow;
        builders[m].push(served.segment);
        avail[m] = served.completion;
        assigned[m].insert(cut, *job);
        done += 1;
    }

    let objective = Objective {
        energy,
        frac_flow: frac_flow.iter().sum(),
        int_flow: int_flow.iter().sum(),
    }
    .validated("run_lazy_hdf: objective")?;
    let schedules =
        builders.into_iter().map(ScheduleBuilder::build).collect::<SimResult<Vec<_>>>()?;
    Ok(ParOutcome {
        assignment,
        objective,
        per_job: PerJob { completion, frac_flow, int_flow },
        schedules,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nc_par::run_nc_par;
    use ncss_sim::numeric::rel_diff;

    fn pl(alpha: f64) -> PowerLaw {
        PowerLaw::new(alpha).unwrap()
    }

    #[test]
    fn reduces_to_nc_par_on_uniform_density() {
        // With one density bucket, lazy HDF == global FIFO == NC-PAR.
        let inst = Instance::new(vec![
            Job::unit_density(0.0, 1.0),
            Job::unit_density(0.1, 2.0),
            Job::unit_density(0.4, 0.5),
            Job::unit_density(0.9, 1.1),
        ])
        .unwrap();
        for k in [1usize, 2, 3] {
            let lazy = run_lazy_hdf(&inst, pl(2.0), k, 5.0).unwrap();
            let ncp = run_nc_par(&inst, pl(2.0), k).unwrap();
            assert_eq!(lazy.assignment, ncp.assignment, "k={k}");
            assert!(rel_diff(lazy.objective.fractional(), ncp.objective.fractional()) < 1e-9);
        }
    }

    #[test]
    fn high_density_jumps_the_queue() {
        // All machines busy; a high-density job released later must be
        // dispatched before a low-density job released earlier.
        let inst = Instance::new(vec![
            Job::new(0.0, 3.0, 1.0),  // keeps machine 0 busy
            Job::new(0.1, 1.0, 1.0),  // queued low-density
            Job::new(0.2, 0.5, 25.0), // queued high-density, arrives later
        ])
        .unwrap();
        let lazy = run_lazy_hdf(&inst, pl(2.0), 1, 5.0).unwrap();
        assert!(
            lazy.per_job.completion[2] < lazy.per_job.completion[1],
            "{:?}",
            lazy.per_job.completion
        );
    }

    #[test]
    fn all_jobs_complete_on_every_machine_count() {
        let inst = Instance::new(vec![
            Job::new(0.0, 1.0, 1.0),
            Job::new(0.1, 0.5, 6.0),
            Job::new(0.2, 0.8, 1.4),
            Job::new(0.5, 0.2, 30.0),
            Job::new(1.4, 0.9, 2.0),
        ])
        .unwrap();
        for k in [1usize, 2, 4] {
            let lazy = run_lazy_hdf(&inst, pl(3.0), k, 5.0).unwrap();
            for c in &lazy.per_job.completion {
                assert!(c.is_finite());
            }
            assert!(lazy.assignment.iter().all(|&m| m < k));
        }
    }

    #[test]
    fn rejects_zero_machines() {
        let inst = Instance::new(vec![Job::unit_density(0.0, 1.0)]).unwrap();
        assert!(run_lazy_hdf(&inst, pl(2.0), 0, 5.0).is_err());
    }
}
