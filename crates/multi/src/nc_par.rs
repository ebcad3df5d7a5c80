//! Algorithm NC-PAR: non-clairvoyant scheduling on identical parallel
//! machines without immediate dispatch (Section 6, Theorem 17).
//!
//! A single global FIFO queue holds unassigned jobs. Whenever a machine is
//! *available* (every job previously assigned to it has completed), the
//! queue head is assigned to it; once started, a job never migrates. Each
//! machine runs Algorithm NC over the jobs it has been assigned, so a
//! machine serves one job at a time with the growth-law speed rule
//! `P(s) = K_j + W̆_j(t)`, where `K_j = W^{(C)}(r_j^-)` comes from a C run
//! over that machine's own previously-assigned jobs.
//!
//! The runners here are thin: [`run_nc_par`] is the
//! [`DispatchLog::nc_par`] log replayed on one inline worker, and the
//! fixed-assignment runners replay [`DispatchLog::from_assignment`]. The
//! one implementation of a job's growth-law service, `GrowthService`, is
//! shared by the NC-PAR dispatcher, the NC-PAR replay and
//! [`crate::run_lazy_hdf`].
//!
//! Lemma 20 — verified by the tests and experiment E6 — shows the resulting
//! assignment is *identical* to clairvoyant C-PAR's, which is what lets the
//! single-machine Lemmas 3 and 4 lift to Theorem 17.

use crate::c_par::ParOutcome;
use crate::fleet::{replay_nc_assigned, replay_split, run_nc_par_sharded, DispatchLog};
use ncss_pool::Pool;
use ncss_sim::kernel::GrowthKernel;
use ncss_sim::{Instance, Job, PowerLaw, Segment, SimError, SimResult, SpeedLaw};

/// One job's service on the growth-law curve `P(s) = K_j + processed
/// weight`, started from base power `K_j`.
pub(crate) struct GrowthService {
    kernel: GrowthKernel,
    /// Time the curve takes to deliver the job's volume.
    pub(crate) tau: f64,
}

/// What one `GrowthService` contributes to a run.
pub(crate) struct Served {
    pub(crate) energy: f64,
    pub(crate) completion: f64,
    pub(crate) frac_flow: f64,
    pub(crate) int_flow: f64,
    pub(crate) segment: Segment,
}

impl GrowthService {
    /// Serve `job`'s volume from base power `k_j` on a curve at `job`'s
    /// density. A non-finite service time is a typed error naming `what`,
    /// raised before it can poison a machine's availability.
    pub(crate) fn new(law: PowerLaw, k_j: f64, job: &Job, what: &'static str) -> SimResult<Self> {
        let kernel = GrowthKernel { law, u0: k_j, rho: job.density };
        let tau = kernel.time_to_volume(job.volume);
        if !tau.is_finite() {
            return Err(SimError::Numeric { what, value: tau });
        }
        Ok(Self { kernel, tau })
    }

    /// Job `id` served from `start`. Flows are accounted with the job's
    /// own density; the segment carries the curve's density (lazy HDF
    /// drives the curve at a rounded density), so the auditor's
    /// quadrature reproduces the reported energy and volume.
    pub(crate) fn serve(&self, id: usize, job: &Job, start: f64) -> Served {
        let (tau, k) = (self.tau, &self.kernel);
        let completion = start + tau;
        Served {
            energy: k.energy(tau),
            completion,
            frac_flow: job.density * job.volume * (start - job.release)
                + job.density * (job.volume * tau - k.volume_integral(tau)),
            int_flow: job.weight() * (completion - job.release),
            segment: Segment::new(
                start,
                completion,
                Some(id),
                SpeedLaw::Growth { u0: k.u0, rho: k.rho },
            ),
        }
    }
}

/// Run NC-PAR on `machines` identical machines (uniform densities only,
/// matching the paper's Theorem 17 setting): the global-FIFO dispatch log
/// replayed on one inline worker ([`crate::fleet::run_nc_par_sharded`]).
pub fn run_nc_par(instance: &Instance, law: PowerLaw, machines: usize) -> SimResult<ParOutcome> {
    run_nc_par_sharded(instance, law, machines, &Pool::with_threads(1))
}

/// Run per-machine Algorithm NC under a **fixed** assignment (used by the
/// immediate-dispatch policies and the lower-bound game).
pub fn run_nc_with_assignment(
    instance: &Instance,
    law: PowerLaw,
    assignment: &[usize],
    machines: usize,
) -> SimResult<ParOutcome> {
    let log = DispatchLog::from_assignment(instance, assignment, machines)?;
    replay_nc_assigned(instance, law, &log, &Pool::with_threads(1))
}

/// Run per-machine **non-uniform** Algorithm NC under a fixed assignment —
/// the Section 7 open-problem heuristic (HDF with dispatch-as-needed is
/// approximated by an explicit dispatch policy feeding per-machine NC).
pub fn run_nonuniform_with_assignment(
    instance: &Instance,
    law: PowerLaw,
    assignment: &[usize],
    machines: usize,
    params: ncss_core::NonUniformParams,
) -> SimResult<ParOutcome> {
    let log = DispatchLog::from_assignment(instance, assignment, machines)?;
    let run = |inst: &Instance| {
        let r = ncss_core::run_nc_nonuniform(inst, law, params)?;
        Ok((r.objective, r.per_job, r.schedule))
    };
    let what = "run_nonuniform_with_assignment: objective";
    replay_split(instance, &log, &Pool::with_threads(1), run, what)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::c_par::run_c_par;
    use ncss_core::theory;
    use ncss_sim::numeric::approx_eq;

    fn pl(alpha: f64) -> PowerLaw {
        PowerLaw::new(alpha).unwrap()
    }

    fn instances() -> Vec<Instance> {
        vec![
            Instance::new(vec![
                Job::unit_density(0.0, 1.0),
                Job::unit_density(0.2, 2.0),
                Job::unit_density(0.5, 0.4),
                Job::unit_density(0.9, 1.1),
                Job::unit_density(2.5, 0.8),
            ])
            .unwrap(),
            Instance::new(vec![
                Job::unit_density(0.0, 3.0),
                Job::unit_density(0.1, 0.2),
                Job::unit_density(0.15, 0.2),
                Job::unit_density(0.4, 1.0),
            ])
            .unwrap(),
        ]
    }

    #[test]
    fn rejects_non_uniform_and_zero_machines() {
        let mixed = Instance::new(vec![Job::new(0.0, 1.0, 1.0), Job::new(0.1, 1.0, 2.0)]).unwrap();
        assert!(run_nc_par(&mixed, pl(2.0), 2).is_err());
        let ok = Instance::new(vec![Job::unit_density(0.0, 1.0)]).unwrap();
        assert!(run_nc_par(&ok, pl(2.0), 0).is_err());
    }

    #[test]
    fn lemma20_assignments_match_c_par() {
        for inst in instances() {
            for k in [2usize, 3] {
                for alpha in [2.0, 3.0] {
                    let c = run_c_par(&inst, pl(alpha), k).unwrap();
                    let nc = run_nc_par(&inst, pl(alpha), k).unwrap();
                    assert_eq!(c.assignment, nc.assignment, "k={k} alpha={alpha}");
                }
            }
        }
    }

    #[test]
    fn lemma21_energy_equality() {
        for inst in instances() {
            for k in [2usize, 3] {
                let c = run_c_par(&inst, pl(3.0), k).unwrap();
                let nc = run_nc_par(&inst, pl(3.0), k).unwrap();
                assert!(approx_eq(c.objective.energy, nc.objective.energy, 1e-8));
            }
        }
    }

    #[test]
    fn lemma22_flow_ratio() {
        for inst in instances() {
            for k in [2usize, 3] {
                for alpha in [2.0, 3.0] {
                    let c = run_c_par(&inst, pl(alpha), k).unwrap();
                    let nc = run_nc_par(&inst, pl(alpha), k).unwrap();
                    let ratio = theory::nc_over_c_flow_ratio(alpha);
                    assert!(
                        approx_eq(nc.objective.frac_flow, c.objective.frac_flow * ratio, 1e-8),
                        "k={k} alpha={alpha}: {} vs {}",
                        nc.objective.frac_flow,
                        c.objective.frac_flow * ratio
                    );
                }
            }
        }
    }

    #[test]
    fn single_machine_equals_nc() {
        let inst = instances().remove(0);
        let nc1 = run_nc_par(&inst, pl(2.0), 1).unwrap();
        let nc = ncss_core::run_nc_uniform(&inst, pl(2.0)).unwrap();
        assert!(approx_eq(nc1.objective.fractional(), nc.objective.fractional(), 1e-9));
    }

    #[test]
    fn nonuniform_with_idle_machines_is_the_single_machine_run() {
        let inst = Instance::new(vec![Job::new(0.0, 1.0, 2.0), Job::new(0.5, 1.0, 5.0)]).unwrap();
        let params = ncss_core::NonUniformParams::recommended(3.0);
        let out = run_nonuniform_with_assignment(&inst, pl(3.0), &[0, 0], 3, params).unwrap();
        let one = ncss_core::run_nc_nonuniform(&inst, pl(3.0), params).unwrap();
        assert_eq!(out.objective.energy.to_bits(), one.objective.energy.to_bits());
        assert_eq!(out.objective.frac_flow.to_bits(), one.objective.frac_flow.to_bits());
        assert_eq!(out.schedules[0].segments(), one.schedule.segments());
        assert!(out.schedules[1..].iter().all(|s| s.segments().is_empty()));
    }

    #[test]
    fn fixed_assignment_round_trip() {
        let inst = instances().remove(1);
        let nc = run_nc_par(&inst, pl(2.0), 2).unwrap();
        let fixed = run_nc_with_assignment(&inst, pl(2.0), &nc.assignment, 2).unwrap();
        assert!(approx_eq(fixed.objective.fractional(), nc.objective.fractional(), 1e-9));
    }
}
