//! # ncss-opt — offline optimum for flow-time plus energy
//!
//! Two complementary tools for the SPAA 2015 reproduction:
//!
//! * [`closed_form`] — the exact single-job (and uniform-density batch)
//!   optimum from the Euler–Lagrange conditions,
//! * [`solver`] — the fractional optimum on arbitrary instances, solved
//!   exactly through its Lagrangian dual: a certified dual lower bound on
//!   the continuous-time optimum *and* a feasible primal schedule of exact
//!   decay segments, whose gap closes to rounding.
//!
//! [`mod@yds`] is the classic exact algorithm for the deadline problem, and
//! [`integral`] brackets the integral-objective optimum on small instances.
//!
//! Integral-objective optima are NP-hard to pin down exactly; per standard
//! practice (and the paper's own analysis), the fractional optimum is used
//! as the lower bound for integral-objective competitive ratios.

#![warn(missing_docs)]
// `!(x > 1.0)`-style validation is deliberate: unlike `x <= 1.0`, it also
// rejects NaN, which is exactly what input validation wants.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod closed_form;
pub mod integral;
pub mod solver;
pub mod yds;

pub use closed_form::{batch_uniform_opt, single_job_opt, SingleJobOpt};
pub use integral::{integral_opt_upper, IntegralUpperBound};
pub use solver::{fractional_opt_schedule, solve_fractional_opt, FracOpt, OptSchedule, SolverOptions};
pub use yds::{yds, yds_execution, DeadlineJob, YdsExecution, YdsSchedule};
