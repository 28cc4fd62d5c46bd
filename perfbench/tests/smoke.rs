//! Self-test of the harness: a short smoke run of every workload, in
//! both modes, must print every metric `BENCHMARK.json` names with its
//! unit, and the correctness check must reject a bent verdict count.

use serde::Value;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["campus_pcap", "syn_flood", "campus_open_loop"];

fn field<'v>(value: &'v Value, key: &str) -> &'v Value {
    value
        .as_map()
        .and_then(|m| m.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing key {key} in {value:?}"))
}

fn text(value: &Value) -> &str {
    match value {
        Value::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn number(value: &Value) -> f64 {
    match value {
        Value::F64(x) => *x,
        Value::U64(x) => *x as f64,
        Value::I64(x) => *x as f64,
        other => panic!("expected a number, got {other:?}"),
    }
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec: Value = serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    field(&spec, section)
        .as_seq()
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                text(field(m, "name")).to_string(),
                text(field(m, "unit")).to_string(),
            )
        })
        .collect()
}

/// Runs one smoke run and returns its exit status and final JSON line.
fn smoke(workload: &str, trace: &str, extra: &[&str]) -> (bool, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "0.1",
            "--trace",
            trace,
        ])
        .arg("--smoke")
        .args(extra)
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("some output");
    let result = serde_json::from_str(last).unwrap_or_else(|e| panic!("{e}: {last}"));
    (out.status.success(), result)
}

#[test]
fn every_workload_prints_every_declared_metric_with_its_unit() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = declared(section);
        for workload in WORKLOADS {
            let (ok, result) = smoke(workload, trace, &[]);
            assert!(ok, "{workload} --trace {trace} failed");
            assert_eq!(field(&result, "correct"), &Value::Bool(true), "{workload}");
            assert_eq!(number(field(&result, "failed")), 0.0, "{workload}");
            assert!(number(field(&result, "attempted")) >= 1.0, "{workload}");
            let metrics = field(&result, "metrics").as_map().expect("metrics map");
            let got: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| (name.clone(), text(field(m, "unit")).to_string()))
                .collect();
            assert_eq!(got, want, "{workload} --trace {trace}");
            for (name, m) in metrics {
                assert!(number(field(m, "value")).is_finite(), "{workload} {name}");
            }
        }
    }
}

#[test]
fn correctness_check_rejects_a_perturbed_verdict_count() {
    for workload in WORKLOADS {
        let (ok, result) = smoke(workload, "0", &["--perturb-verdicts"]);
        assert!(ok, "{workload} should still report, not crash");
        assert_eq!(field(&result, "correct"), &Value::Bool(false), "{workload}");
        assert!(number(field(&result, "failed")) >= 1.0, "{workload}");
    }
}
