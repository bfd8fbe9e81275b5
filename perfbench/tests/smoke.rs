//! Smoke-scale checks of the benchmark command itself: every workload
//! prints every metric `BENCHMARK.json` names for its mode, with its unit;
//! a tampered served verdict fails the correctness check; the same seed
//! yields byte-identical payloads.

use dquag_perfbench::frames;
use dquag_perfbench::report::{END_TO_END, PER_LAYER};
use serde_json::Value;
use std::process::Command;

/// Run the benchmark binary at smoke scale; returns the exit code and the
/// standard output lines.
fn bench(workload: &str, seed: u64, trace: bool, extra: &[&str]) -> (i32, Vec<String>) {
    let output = Command::new(env!("CARGO_BIN_EXE_dquag-perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", if trace { "1" } else { "0" }])
        .arg("--smoke")
        .args(extra)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    (
        output.status.code().expect("exited normally"),
        stdout.lines().map(str::to_string).collect(),
    )
}

/// The result line's fields.
fn result(lines: &[String]) -> std::collections::BTreeMap<String, Value> {
    let last = lines.last().expect("a result line");
    let value: Value = serde_json::from_str(last).expect("the last line is JSON");
    value.as_object().expect("a JSON object").clone()
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(key: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let manifest: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    manifest.as_object().expect("an object")[key]
        .as_array()
        .expect("a metric list")
        .iter()
        .map(|metric| {
            let metric = metric.as_object().expect("a metric object");
            (
                metric["name"].as_str().expect("a name").to_string(),
                metric["unit"].as_str().expect("a unit").to_string(),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_the_reported_metrics() {
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), owned(&END_TO_END));
    assert_eq!(declared("per_layer"), owned(&PER_LAYER));
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    for (seed, workload) in [(102, "backfill"), (103, "refit")] {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let (code, lines) = bench(workload, seed, trace, &[]);
            assert_eq!(code, 0, "{workload} trace={trace}: {lines:#?}");
            let result = result(&lines);
            let keys: Vec<&str> = result.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(result["correct"], Value::Bool(true), "{lines:#?}");
            assert_eq!(result["failed"].as_f64(), Some(0.0));
            assert!(result["attempted"].as_f64().unwrap() >= 1.0);
            let metrics = result["metrics"].as_object().unwrap();
            let expected = declared(key);
            assert_eq!(metrics.len(), expected.len(), "{workload}: {metrics:?}");
            for (name, unit) in expected {
                let metric = metrics[&name].as_object().unwrap();
                assert_eq!(metric["unit"].as_str(), Some(unit.as_str()), "{name}");
                assert!(metric["value"].as_f64().unwrap().is_finite(), "{name}");
                let summary = format!("{name} ");
                assert!(
                    lines
                        .iter()
                        .any(|l| l.starts_with(&summary) && l.contains("(n=")),
                    "{workload}: no summary line with a sample count for {name}"
                );
            }
        }
    }
}

#[test]
fn a_tampered_verdict_fails_the_correctness_check() {
    for (seed, workload) in [(202, "backfill"), (203, "refit")] {
        let (code, lines) = bench(workload, seed, false, &["--tamper"]);
        assert_eq!(code, 1, "{workload}: {lines:#?}");
        let result = result(&lines);
        assert_eq!(result["correct"], Value::Bool(false));
        assert!(result["failed"].as_f64().unwrap() >= 1.0);
        assert!(lines.iter().any(|l| l.starts_with("problem: ")));
    }
}

#[test]
fn the_same_seed_yields_byte_identical_payloads() {
    let payloads = |inputs: frames::Inputs| -> Vec<Vec<u8>> {
        inputs.frames.into_iter().map(|f| f.payload).collect()
    };
    assert_eq!(
        payloads(frames::backfill(5, 3, 100, 50)),
        payloads(frames::backfill(5, 3, 100, 50))
    );
    assert_ne!(
        payloads(frames::backfill(5, 3, 100, 50)),
        payloads(frames::backfill(6, 3, 100, 50))
    );
    assert_eq!(
        payloads(frames::refit(5, 50, 300)),
        payloads(frames::refit(5, 50, 300))
    );
    assert_ne!(
        payloads(frames::refit(5, 50, 300)),
        payloads(frames::refit(6, 50, 300))
    );
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        vec![
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec!["--workload", "backfill", "--seed", "1", "--seconds", "1"],
        vec![
            "--workload",
            "backfill",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_dquag-perfbench"))
            .args(&args)
            .output()
            .expect("the benchmark binary runs");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}
