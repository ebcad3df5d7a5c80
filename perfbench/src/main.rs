//! Command line of the benchmark.
//!
//! ```text
//! perfbench --workload <stream|audited_record|fleet|offline> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the host provenance, the deterministic outputs, the timed parts
//! behind `iteration_ms`, every metric with its unit (and each part's tail
//! percentile) and any failed gate, then, as the last line, the result object
//! `{"correct", "attempted", "failed", "metrics"}`. Exits non-zero only
//! when it cannot run at all.

use perfbench::metrics::{json_num, json_str};
use perfbench::{host, printed_metrics, run, Config, Sizes};
use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} expects {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => args.workload.clone_from(value),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err(bad("a positive number"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("work")
        .join(format!("{}-{}", args.workload, std::process::id()));
    let config = Config {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        sizes: Sizes::full(),
        work_dir: work_dir.clone(),
    };
    let result = run(&args.workload, &config);
    let _ = std::fs::remove_dir_all(&work_dir);
    // The parent goes too once no other run is using it.
    if let Some(parent) = work_dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };

    println!(
        "provenance {}",
        host::provenance(&args.workload, args.seed, args.seconds, args.trace)
    );
    for (name, value) in &report.outputs {
        println!("output {name}: {value}");
    }
    for (name, ms) in &report.parts {
        println!("part {name} = {} ms", json_num(*ms));
    }
    let metrics = printed_metrics(&report, args.trace);
    for (name, value, unit) in &metrics {
        println!("metric {name} = {} {unit}", json_num(*value));
    }
    for (name, p) in &report.tails {
        println!(
            "tail {name}: p{} = {} over {} samples",
            p.pct,
            json_num(p.value),
            p.count
        );
    }
    println!(
        "gates ops_failed_share = {} share ({} of {} operations failed)",
        json_num(report.failed_share()),
        report.failed,
        report.attempted
    );
    for why in &report.failures {
        println!("failed {}", json_str(why));
    }
    println!(
        "{}",
        perfbench::metrics::result_line(report.attempted.max(1), report.failed, &metrics)
    );
    ExitCode::SUCCESS
}
