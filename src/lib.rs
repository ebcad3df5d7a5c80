//! # ncss — Speed Scaling in the Non-clairvoyant Model
//!
//! A full Rust implementation of the algorithms and analysis of
//! *"Speed Scaling in the Non-clairvoyant Model"* (Azar, Devanur, Huang,
//! Panigrahi; SPAA 2015): scheduling jobs on speed-scalable machines with
//! power `P(s) = s^α` to minimise weighted flow-time plus energy, when a
//! job's **volume is unknown until it completes** but its density
//! (weight/volume) is known at release.
//!
//! ## What's inside
//!
//! | crate | contents |
//! |-------|----------|
//! | [`sim`] | continuous-time substrate: jobs, instances, exact power-curve kernels, analytic schedules, objectives |
//! | [`core`] | Algorithm C (clairvoyant comparator), Algorithm NC (uniform + non-uniform density), the fractional→integral reduction, baselines, theory constants |
//! | [`opt`] | offline optimum: closed forms + an exact dual solve with a certified bracket |
//! | [`workloads`] | seeded generators, adversarial constructions, cloud-billing traces |
//! | [`multi`] | identical parallel machines: C-PAR, NC-PAR, dispatch policies, the `Ω(k^{1−1/α})` lower-bound game |
//! | [`audit`] | independent run auditing: closed-form re-derivation of objectives (sampled quadrature cross-check tier) + event-level invariants |
//! | [`analysis`] | ratio measurement, parallel sweeps, ASCII tables/charts |
//! | [`pool`] | persistent worker pool: order-preserving parallel maps used by sweeps, fleet replays, the OPT solver, and the fault/contract suites |
//! | [`trace`] | crash-safe record/replay: CRC-framed WAL traces, torn-write recovery, checkpoint/resume, corruption contract |
//!
//! ## Quickstart
//!
//! ```
//! use ncss::prelude::*;
//!
//! // Three unit-density jobs; the scheduler will not see the volumes
//! // until each job completes.
//! let instance = Instance::new(vec![
//!     Job::unit_density(0.0, 2.0),
//!     Job::unit_density(0.4, 1.0),
//!     Job::unit_density(1.1, 0.5),
//! ]).unwrap();
//! let law = PowerLaw::cube(); // P(s) = s^3
//!
//! let clairvoyant = run_c(&instance, law).unwrap();
//! let nonclairvoyant = run_nc_uniform(&instance, law).unwrap();
//!
//! // Lemma 3: equal energies. Lemma 4: flow-times differ by 1/(1-1/alpha).
//! let ratio = nonclairvoyant.objective.frac_flow / clairvoyant.objective.frac_flow;
//! assert!((nonclairvoyant.objective.energy - clairvoyant.objective.energy).abs() < 1e-9);
//! assert!((ratio - 1.5).abs() < 1e-9);
//! ```

#![warn(missing_docs)]

pub use ncss_analysis as analysis;
pub use ncss_audit as audit;
pub use ncss_core as core;
pub use ncss_multi as multi;
pub use ncss_opt as opt;
pub use ncss_pool as pool;
pub use ncss_sim as sim;
pub use ncss_trace as trace;
pub use ncss_workloads as workloads;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use ncss_audit::{
        audit_multi, audit_outcome, audit_run, AuditConfig, AuditReport, MultiAudit, ScheduleAudit,
    };
    pub use ncss_core::{
        reduce_to_integral, run_c, run_checked, run_checked_multi, run_nc_nonuniform,
        run_nc_uniform, theory, CStream, CheckedMultiRun, CheckedRun, CRun, IntegralRun, MultiRun,
        NcRun, NcStream, NonUniformParams, StreamConfig,
    };
    pub use ncss_multi::{run_c_par, run_nc_par, ParOutcome, MAX_MACHINES};
    pub use ncss_opt::{
        single_job_opt, solve_fractional_opt, yds, yds_execution, DeadlineJob, SolverOptions,
        YdsExecution,
    };
    pub use ncss_sim::{evaluate, Instance, Job, Objective, PowerLaw, Schedule, SimError, SimResult};
    pub use ncss_workloads::{CloudSpec, VolumeDist, WorkloadSpec};
}
