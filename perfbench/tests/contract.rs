//! Runs the benchmark binary briefly and checks its output contract: the
//! last stdout line is one JSON object whose metrics are exactly the ones
//! `BENCHMARK.json` lists for the mode, every op passed its check, and the
//! summary on stderr names the sample and rotation counts.

use splice::obs::JsonValue;
use std::process::Command;

fn listed(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json");
    let doc = JsonValue::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(JsonValue::as_array)
        .expect("metric list")
        .iter()
        .map(|m| m.get("name").and_then(JsonValue::as_str).expect("name").to_owned())
        .collect()
}

/// Run one short benchmark; returns the result object and stderr.
fn run(workload: &str, trace: u8) -> (JsonValue, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_splice-perfbench"))
        .current_dir("..")
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("benchmark runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "{workload}: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    (JsonValue::parse(last).expect("result is JSON"), stderr)
}

fn check(workload: &str, trace: u8, section: &str) {
    let (result, stderr) = run(workload, trace);
    assert!(matches!(result.get("correct"), Some(JsonValue::Bool(true))), "{workload}: {stderr}");
    assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(0));
    assert!(result.get("attempted").and_then(JsonValue::as_u64).unwrap_or(0) >= 100);
    let JsonValue::Obj(metrics) = result.get("metrics").expect("metrics") else {
        panic!("metrics is an object");
    };
    let mut expected = listed(section);
    expected.sort();
    let names: Vec<&String> = metrics.keys().collect();
    assert_eq!(names, expected.iter().collect::<Vec<_>>(), "{workload} --trace {trace}");
    for (name, m) in metrics {
        let value = m.get("value").and_then(JsonValue::as_f64).expect("numeric value");
        assert!(value.is_finite() && value >= 0.0 || name == "trace.overhead_pct", "{name}");
    }
    assert!(stderr.contains(&format!("{workload} n=")), "{stderr}");
    assert!(stderr.contains("rotations="), "{stderr}");
}

#[test]
fn sim_fig9_2_meets_the_output_contract() {
    check("sim_fig9_2", 0, "end_to_end");
    check("sim_fig9_2", 1, "per_layer");
}

#[test]
fn gen_serve_meets_the_output_contract() {
    check("gen_serve", 0, "end_to_end");
    check("gen_serve", 1, "per_layer");
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_splice-perfbench"))
        .current_dir("..")
        .args(["--workload", "no_such_workload", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
