//! # ncss-cli — the `ncss` command
//!
//! A small, dependency-free command-line front end over the workspace:
//!
//! ```text
//! ncss generate --n 20 --rate 1.5 --volumes exp:1.0 --densities fixed:1.0 --seed 7
//! ncss run      --algorithm nc --alpha 3 --input trace.csv
//! ncss opt      --alpha 3 --input trace.csv
//! ncss compare  --alpha 3 --input trace.csv
//! ```
//!
//! `generate` prints an instance CSV to stdout (redirect to a file);
//! `run`/`opt`/`compare` read one back. The library entry point
//! [`run_cli`] returns the would-be stdout so the whole surface is
//! unit-testable.

#![warn(missing_docs)]
// `!(x > 1.0)`-style validation also rejects NaN, deliberately.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

mod args;
mod commands;
mod fleet_cmd;
mod stream;
mod trace_cmd;

pub use args::{parse_args, ParsedArgs};
pub use commands::run_cli;
