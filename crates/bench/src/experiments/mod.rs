//! Experiment implementations, one module per paper artifact.
//!
//! Each experiment is a pure function returning its full report as a
//! `String`, so the same code backs the `src/bin/*` binaries, the
//! `repro_experiments` bench target, and the integration tests. The
//! experiment ids (T1, F1–F3, E1–E10, A1–A4) are indexed in DESIGN.md.

pub mod ablations;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod lemmas;
pub mod lower_bound;
pub mod open_problems;
pub mod table1;

/// Base seed for every suite (the conference's opening date).
pub const BASE_SEED: u64 = 20150613;

/// Run every experiment in DESIGN.md order, concatenating the reports.
#[must_use]
pub fn run_all() -> String {
    let mut out = String::new();
    out.push_str(&table1::run());
    out.push_str(&fig1::run());
    out.push_str(&fig2::run());
    out.push_str(&fig3::run());
    out.push_str(&lemmas::run());
    out.push_str(&lower_bound::run());
    out.push_str(&ablations::run());
    out.push_str(&open_problems::run());
    out
}
