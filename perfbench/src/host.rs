//! Host provenance and process memory.

use crate::metrics::json_str;

/// CPU model from `/proc/cpuinfo`, or `unknown`.
#[must_use]
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Logical cores this process may use.
#[must_use]
pub fn logical_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident set (`VmHWM`) of this process in MiB, or 0 off Linux.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The provenance object printed with every result.
#[must_use]
pub fn provenance(workload: &str, seed: u64, seconds: f64, trace: bool) -> String {
    format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \
         \"cpu_model\": {}, \"logical_cores\": {}, \"rustc\": {}, \"profile\": {}}}",
        json_str(workload),
        json_str(&cpu_model()),
        logical_cores(),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(env!("PERFBENCH_PROFILE")),
    )
}
