//! A short run of each workload, untraced and traced: every operation is
//! checked and none may fail, and the JSON line carries every metric.

use std::process::Command;

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.5"])
        .args(["--trace", trace])
        .output()
        .expect("run perfbench");
    assert!(out.status.success(), "{workload}: {}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("text output");
    stdout.lines().last().expect("a result line").to_string()
}

fn assert_clean(workload: &str) {
    for (trace, metric) in [("0", "\"p90_ms\""), ("1", "\"serve.execute_us\"")] {
        let json = run(workload, trace);
        assert!(
            json.starts_with("{\"correct\": true,") && json.contains("\"failed\": 0,"),
            "{workload} --trace {trace}: {json}"
        );
        assert!(json.contains(metric), "{workload} --trace {trace}: {json}");
    }
}

#[test]
fn wire_query_runs_clean() {
    assert_clean("wire_query");
}

#[test]
fn sbl_full_runs_clean() {
    assert_clean("sbl_full");
}

#[test]
fn mutate_mix_runs_clean() {
    assert_clean("mutate_mix");
}

#[test]
fn unknown_workload_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nope"])
        .output()
        .expect("run perfbench");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
