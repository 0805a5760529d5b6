//! Runs every workload for two rounds, untraced and traced, and checks that
//! the names and units on the result line are exactly those `BENCHMARK.json`
//! declares, in the form the driver expects. Run with `cargo test --release`:
//! a debug build replays the paper-scale traces an order of magnitude slower.

use std::path::Path;
use std::process::Command;

use serde::Value;

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is at the repo root");
    serde_json::from_str(&text).expect("BENCHMARK.json is JSON")
}

fn names_and_units(list: &Value) -> Vec<(String, String)> {
    let text = |v: &Value, key: &str| v.get(key).as_str().expect("a string field").to_string();
    let mut out: Vec<_> = list
        .as_seq()
        .expect("a list of metrics")
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit")))
        .collect();
    out.sort();
    out
}

/// Runs one workload for two rounds and returns its result line.
fn result_line(workload: &str, trace: &str) -> Value {
    let output = Command::new(env!("CARGO_BIN_EXE_via-benchmark"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", trace, "--rounds", "2"])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} --trace {trace} exited with {}:\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let line = stdout.lines().last().expect("a result line");
    serde_json::from_str(line).expect("the last line is one JSON object")
}

fn check(workload: &str, trace: &str, declared: &[(String, String)]) {
    let result = result_line(workload, trace);
    let keys: Vec<&str> = result
        .as_map()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{workload}"
    );
    assert_eq!(*result.get("correct"), Value::Bool(true), "{workload}");
    assert_eq!(*result.get("failed"), Value::I64(0), "{workload}");
    assert!(
        matches!(result.get("attempted"), Value::I64(n) if *n >= 1),
        "{workload}"
    );
    let mut reported: Vec<(String, String)> = result
        .get("metrics")
        .as_map()
        .expect("metrics is an object")
        .iter()
        .map(|(name, m)| {
            assert!(
                matches!(m.get("value"), Value::F64(v) if v.is_finite())
                    || matches!(m.get("value"), Value::I64(_) | Value::U64(_)),
                "{workload}: {name} is not a finite number: {:?}",
                m.get("value")
            );
            (
                name.clone(),
                m.get("unit").as_str().expect("a unit").to_string(),
            )
        })
        .collect();
    reported.sort();
    assert_eq!(reported, declared, "{workload} --trace {trace}");
}

#[test]
fn every_workload_reports_exactly_the_declared_metrics() {
    let decl = benchmark_json();
    let end_to_end = names_and_units(decl.get("end_to_end"));
    let per_layer = names_and_units(decl.get("per_layer"));
    let workloads = decl.get("workloads").as_seq().expect("workloads").to_vec();
    assert_eq!(workloads.len(), 4);
    for workload in &workloads {
        let name = workload.get("name").as_str().expect("a workload name");
        check(name, "0", &end_to_end);
        check(name, "1", &per_layer);
    }
}

#[test]
fn a_run_outside_the_declared_workloads_is_refused_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_via-benchmark"))
        .args([
            "--workload",
            "no-such-workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark binary runs");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}

#[test]
fn counts_repeat_exactly_across_runs_of_one_seed() {
    let counts = |_: usize| {
        let result = result_line("replay-via", "0");
        let metrics = result.get("metrics");
        let value = |name: &str| match metrics.get(name).get("value") {
            Value::F64(v) => *v,
            other => panic!("{name} is {other:?}"),
        };
        (
            value("allocs_per_call"),
            value("pnr_any"),
            result.get("attempted").clone(),
        )
    };
    assert_eq!(counts(0), counts(1));
}
