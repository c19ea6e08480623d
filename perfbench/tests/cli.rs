//! The benchmark's command line end to end: a small-size run of every
//! workload, in both modes, must pass its output check and emit every
//! metric `BENCHMARK.json` names, with the unit it names.

use serde_json::Value;
use std::process::{Command, Output};

fn perfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("run perfbench")
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names(b: &Value, key: &str) -> Vec<(String, String)> {
    b[key]
        .as_array()
        .unwrap_or_else(|| panic!("{key} is a list"))
        .iter()
        .map(|m| {
            let field = |f: &str| m[f].as_str().expect("string field").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Run one small workload and check its result line against `expected`.
fn check_run(workload: &str, trace: &str, expected: &[(String, String)]) {
    let out = perfbench(&[
        "--workload",
        workload,
        "--seed",
        "5",
        "--seconds",
        "0.2",
        "--trace",
        trace,
        "--size",
        "small",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let r: Value = serde_json::from_str(last).expect("the last line is JSON");
    let what = format!("{workload} --trace {trace}");
    assert_eq!(r["correct"].as_bool(), Some(true), "{what}");
    assert_eq!(r["failed"].as_u64(), Some(0), "{what}");
    assert!(r["attempted"].as_u64().expect("attempted") > 0, "{what}");
    let metrics = r["metrics"].as_object().expect("metrics object");
    let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = expected.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(got, want, "{what}: metric names");
    for ((name, unit), (_, m)) in expected.iter().zip(metrics) {
        assert_eq!(m["unit"].as_str(), Some(unit.as_str()), "{what}: {name}");
        let v = m["value"]
            .as_f64()
            .unwrap_or_else(|| panic!("{what}: {name} is a number"));
        assert!(v.is_finite(), "{what}: {name}");
    }
}

/// Every workload the command line takes; `BENCHMARK.json` lists all
/// but `attack-mix`, which only the per-layer ledger uses.
const WORKLOADS: [&str; 4] = [
    "caida64-rtc",
    "caida64-pipeline",
    "attack-mix",
    "flow-churn",
];

#[test]
fn benchmark_json_lists_known_workloads() {
    let b = benchmark_json();
    for w in b["workloads"].as_array().expect("workloads") {
        let name = w["name"].as_str().expect("name");
        assert!(WORKLOADS.contains(&name), "unknown workload {name}");
    }
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    let expected = names(&benchmark_json(), "end_to_end");
    for w in WORKLOADS {
        check_run(w, "0", &expected);
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric() {
    let expected = names(&benchmark_json(), "per_layer");
    for w in WORKLOADS {
        check_run(w, "1", &expected);
    }
}

#[test]
fn record_prints_a_fingerprint_block() {
    let out = perfbench(&[
        "--workload",
        "attack-mix",
        "--seed",
        "3",
        "--size",
        "small",
        "--record",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("seed=3\noffered=20000\n"), "{stdout}");
    assert!(stdout.contains("\ntotals: alerts="), "{stdout}");
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "1"][..],
        &["--workload", "attack-mix"][..],
        &["--workload", "attack-mix", "--seed", "1", "--trace", "2"][..],
    ] {
        let out = perfbench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
