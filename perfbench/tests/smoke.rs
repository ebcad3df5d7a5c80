//! Smoke run of every workload at minimal size, untraced and traced, with
//! every gate live; determinism across runs of one seed; and the metric
//! lists in `BENCHMARK.json` held to the ones the code prints.

use perfbench::metrics::{per_layer, valid_name, END_TO_END};
use perfbench::{fleet, printed_metrics, run, Config, Report, Sizes, WORKLOADS};
use std::path::PathBuf;

fn config(tag: &str, seed: u64, trace: bool) -> Config {
    Config {
        seed,
        seconds: 0.0,
        trace,
        sizes: Sizes::smoke(),
        work_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!("test-{tag}-{seed}-{trace}-{}", std::process::id())),
    }
}

fn run_in(tag: &str, workload: &str, seed: u64, trace: bool) -> Report {
    let c = config(tag, seed, trace);
    let r = run(workload, &c);
    let _ = std::fs::remove_dir_all(&c.work_dir);
    r.unwrap_or_else(|e| panic!("{workload}: {e}"))
}

fn assert_clean(workload: &str, r: &Report) {
    assert!(r.attempted > 0, "{workload}: nothing attempted");
    assert_eq!(r.failed, 0, "{workload}: {:?}", r.failures);
    assert!(
        !r.outputs.is_empty(),
        "{workload}: no deterministic outputs"
    );
}

#[test]
fn every_workload_passes_its_gates_untraced_and_traced() {
    for &w in WORKLOADS {
        let r = run_in("gates", w, 7, false);
        assert_clean(w, &r);
        let printed = printed_metrics(&r, false);
        let names: Vec<&str> = printed.iter().map(|(n, _, _)| n.as_str()).collect();
        let declared: Vec<&str> = END_TO_END.iter().map(|&(n, _)| n).collect();
        assert_eq!(names, declared, "{w}: not every end-to-end metric");
        for (name, value, _) in &printed {
            assert!(value.is_finite() && *value > 0.0, "{w}: {name} = {value}");
        }
        let parts: f64 = r.parts.iter().map(|(_, ms)| ms).sum();
        assert!(r.parts.len() >= 2, "{w}: parts {:?}", r.parts);
        assert!(
            (parts - r.values["iteration_ms"]).abs() <= 1e-9 * parts,
            "{w}: parts do not sum to iteration_ms"
        );

        let t = run_in("gates", w, 7, true);
        assert_clean(w, &t);
        let layer = printed_metrics(&t, true);
        assert_eq!(layer.len(), per_layer().len(), "{w}");
        for key in ["bench.probe_ns", "bench.source_ns_per_event"] {
            let v = t.values.get(key).copied().unwrap_or(0.0);
            assert!(v > 0.0, "{w}: {key} = {v}");
        }
        let unattributed = t.values["bench.unattributed_share"];
        assert!(unattributed < 1.0, "{w}: unattributed {unattributed}");
    }
}

#[test]
fn one_seed_gives_the_same_outputs_and_another_seed_passes() {
    for &w in WORKLOADS {
        let a = run_in("det-a", w, 11, false);
        let b = run_in("det-b", w, 11, false);
        assert_eq!(a.outputs, b.outputs, "{w}");
        let c = run_in("det-c", w, 12, false);
        assert_clean(w, &c);
        if w != "fleet" {
            // The fleet instances are the committed traces; the others
            // come from the seed.
            assert_ne!(a.outputs, c.outputs, "{w}: the seed changed nothing");
        }
    }
}

#[test]
fn a_failed_fleet_gate_is_counted_not_panicked() {
    let motif = fleet::motif().expect("committed trace");
    // One job more than the committed instance: the objective gate must
    // refuse it.
    let inst = fleet::tile(&motif, 2049).expect("tiled instance");
    let law = ncss_sim::PowerLaw::new(3.0).expect("alpha 3");
    let pool = ncss_pool::Pool::with_threads(1);
    let r = fleet::cell(
        &mut perfbench::span::Off,
        fleet::Algo::CPar,
        &inst,
        law,
        8,
        &pool,
    );
    let mut report = Report::default();
    report.ops(1, r.map(|_| ()));
    assert_eq!((report.attempted, report.failed), (1, 1));
    assert!(
        report.failures[0].contains("committed"),
        "{:?}",
        report.failures
    );
}

#[test]
fn benchmark_json_declares_exactly_the_printed_metrics() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let declared = |section: &str| -> Vec<(String, String)> {
        let start = text.find(&format!("\"{section}\"")).expect(section);
        let body = &text[start..];
        let body = &body[..body.find(']').expect("list end")];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |key: &str| {
                    let at = entry
                        .find(&format!("\"{key}\""))
                        .unwrap_or_else(|| panic!("{key} in {entry}"));
                    let rest = &entry[at + key.len() + 2..];
                    let open = rest.find('"').expect("value") + 1;
                    let close = open + rest[open..].find('"').expect("value end");
                    rest[open..close].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(declared("end_to_end"), e2e);
    let layer: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(declared("per_layer"), layer);
    let workloads: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|w| (w.to_string(), String::new()))
        .collect();
    let names: Vec<String> = text
        .match_indices("\"name\": \"")
        .map(|(i, m)| {
            let rest = &text[i + m.len()..];
            rest[..rest.find('"').expect("name end")].to_string()
        })
        .collect();
    for (w, _) in &workloads {
        assert!(names.contains(w), "workload {w} not declared");
    }
    assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
}
