//! Runs the real binary for a second per workload and holds its output to
//! `BENCHMARK.json`: every declared name is printed with its unit, and
//! nothing undeclared is. Also holds `BENCHMARK.json` to the metric table
//! in `src/metrics.rs`, and checks that one workload's memory is the same
//! alone and inside the set.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use distbench::json::Json;
use distbench::metrics::{END_TO_END, PER_LAYER};
use distbench::workload::Workload;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("benchmark/ has a parent").to_path_buf()
}

fn benchmark_json() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// Runs `distbench <args>` from the repo root; returns the parsed last
/// line of its standard output.
fn distbench(args: &[&str]) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_distbench"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("distbench runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "distbench {args:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    Json::parse(stdout.lines().last().expect("some output")).expect("the last line is JSON")
}

fn tmp(name: &str) -> String {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name).display().to_string()
}

/// `name -> unit` of a `BENCHMARK.json` metric list.
fn declared(list: &str) -> BTreeMap<String, String> {
    let doc = benchmark_json();
    let metrics = doc.get(list).and_then(Json::as_arr).expect("a metric list");
    metrics
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// `name -> unit` of a result line, after checking its shape.
fn printed(line: &Json) -> BTreeMap<String, String> {
    let keys: Vec<&str> = line.as_obj().expect("an object").keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
    assert!(line.get("attempted").and_then(Json::as_f64).expect("attempted") >= 1.0);
    assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
    let metrics = line.get("metrics").and_then(Json::as_obj).expect("metrics");
    metrics
        .iter()
        .map(|(name, m)| {
            let keys: Vec<&str> =
                m.as_obj().expect("a metric").keys().map(String::as_str).collect();
            assert_eq!(keys, ["unit", "value"], "{name}");
            let value = m.get("value").and_then(Json::as_f64).expect("a number");
            assert!(value.is_finite(), "{name} = {value}");
            (name.clone(), m.get("unit").and_then(Json::as_str).expect("unit").to_string())
        })
        .collect()
}

#[test]
fn benchmark_json_declares_what_the_metric_table_declares() {
    let doc = benchmark_json();
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(names, Workload::ALL.map(Workload::name));

    let end_to_end = doc.get("end_to_end").and_then(Json::as_arr).expect("end_to_end");
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (declared, m) in end_to_end.iter().zip(&END_TO_END) {
        assert_eq!(declared.get("name").and_then(Json::as_str), Some(m.name));
        assert_eq!(declared.get("unit").and_then(Json::as_str), Some(m.unit));
        assert_eq!(declared.get("better").and_then(Json::as_str), Some(m.better.as_str()));
        assert_eq!(declared.get("bound").and_then(Json::as_f64), Some(m.bound), "{}", m.name);
    }
    let per_layer = doc.get("per_layer").and_then(Json::as_arr).expect("per_layer");
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (declared, m) in per_layer.iter().zip(&PER_LAYER) {
        assert_eq!(declared.get("name").and_then(Json::as_str), Some(m.name));
        assert_eq!(declared.get("unit").and_then(Json::as_str), Some(m.unit));
        assert_eq!(declared.get("better").and_then(Json::as_str), Some(m.better.as_str()));
    }
}

#[test]
fn every_workload_prints_exactly_the_declared_end_to_end_metrics() {
    for workload in Workload::ALL {
        let out = tmp(&format!("smoke-{}.json", workload.name()));
        let line = distbench(&[
            "run",
            "--workload",
            workload.name(),
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--out",
            &out,
        ]);
        assert_eq!(printed(&line), declared("end_to_end"), "{}", workload.name());
        for (name, m) in line.get("metrics").and_then(Json::as_obj).expect("metrics") {
            let value = m.get("value").and_then(Json::as_f64).expect("value");
            assert!(
                value > 0.0,
                "{} {name} = {value}: end-to-end metrics are never 0",
                workload.name()
            );
        }
    }
}

#[test]
fn a_traced_run_prints_exactly_the_declared_per_layer_metrics_and_writes_a_trace() {
    let line = distbench(&["run", "--workload", "serve-keyed", "--seconds", "1", "--trace", "1"]);
    assert_eq!(printed(&line), declared("per_layer"));
    let trace = repo_root().join("benchmark/out/trace-serve-keyed.json");
    let doc = Json::parse(&std::fs::read_to_string(trace).expect("a trace file")).expect("JSON");
    let spans = doc.get("spans").and_then(Json::as_arr).expect("spans");
    assert!(!spans.is_empty());
    let root = spans.iter().find(|s| s.get("name").and_then(Json::as_str) == Some("op"));
    assert!(root.is_some(), "sampled ops keep a root span");
    assert!(spans.iter().any(|s| s.get("parent").and_then(Json::as_f64).is_some()));
}

#[test]
fn a_workload_uses_the_same_memory_alone_and_inside_the_set() {
    let rss = |doc: &Json| {
        doc.get("metrics")
            .and_then(|m| m.get("peak_rss_mib"))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .expect("peak_rss_mib")
    };
    let read =
        |path: &str| Json::parse(&std::fs::read_to_string(path).expect("result")).expect("JSON");
    let (alone, set) = (tmp("alone.json"), tmp("set/result.json"));
    distbench(&["run", "--workload", "sim-canonical", "--seconds", "2", "--out", &alone]);
    // The set runs serve-sat, serve-rtt and serve-keyed first, each in a
    // process of its own; the last line of output is not a result line.
    let status = Command::new(env!("CARGO_BIN_EXE_distbench"))
        .args(["run", "--seconds", "2", "--out", &set])
        .current_dir(repo_root())
        .status()
        .expect("the set runs");
    assert!(status.success());
    let set = read(&set);
    let inside = set.get("workloads").and_then(|w| w.get("sim-canonical")).expect("in the set");
    let (alone, inside) = (rss(&read(&alone)), rss(inside));
    assert!(
        (alone - inside).abs() / alone < 0.05,
        "sim-canonical peaked at {alone} MiB alone and {inside} MiB inside the set"
    );
}
