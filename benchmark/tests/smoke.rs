//! Smoke test: every workload in quick mode, untraced and traced. The
//! result lines must name exactly the metrics of `BENCHMARK.json`, every
//! operation must succeed, the traced run must write spans for every
//! timed per-layer metric, and comparing a file with itself must print
//! `within` everywhere.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Json;
use std::path::PathBuf;
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_pgmp-benchmark");

fn spec() -> Json {
    Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

fn names(spec: &Json, list: &str) -> Vec<String> {
    spec.get(list)
        .and_then(Json::as_array)
        .expect("spec list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_owned()
        })
        .collect()
}

fn scratch(name: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_file(&path);
    path
}

fn run(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("benchmark runs")
}

/// The result line of a successful run, checked against the contract.
fn result(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "exit {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let doc =
        Json::parse(stdout.lines().last().expect("a result line")).expect("result line is JSON");
    let keys: Vec<&str> = doc
        .as_object()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)), "{stdout}");
    assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(
        doc.get("attempted")
            .and_then(Json::as_f64)
            .expect("attempted")
            >= 1.0
    );
    doc
}

/// `workload/metric` keys of an all-workloads result line, in order, with
/// each value checked to be a finite number.
fn metric_keys(doc: &Json) -> Vec<String> {
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_object)
        .expect("metrics");
    for (key, m) in metrics {
        let value = m.get("value").and_then(Json::as_f64).expect("value");
        assert!(value.is_finite(), "{key} = {value}");
        assert!(
            m.get("unit").and_then(Json::as_str).is_some(),
            "{key} has a unit"
        );
    }
    metrics.iter().map(|(k, _)| k.clone()).collect()
}

fn expected_keys(spec: &Json, list: &str) -> Vec<String> {
    let workloads = names(spec, "workloads");
    let metrics = names(spec, list);
    workloads
        .iter()
        .flat_map(|w| metrics.iter().map(move |m| format!("{w}/{m}")))
        .collect()
}

#[test]
fn quick_runs_report_the_spec_and_compare_within() {
    let spec = spec();

    let results = scratch("smoke.jsonl");
    let results = results.to_str().expect("UTF-8 path");
    let doc = result(&run(&["--quick", "--seed", "1", "--out", results]));
    assert_eq!(metric_keys(&doc), expected_keys(&spec, "end_to_end"));

    let spans = scratch("smoke-spans.jsonl");
    let spans = spans.to_str().expect("UTF-8 path");
    let doc = result(&run(&[
        "--quick", "--seed", "2", "--trace", "1", "--spans", spans,
    ]));
    assert_eq!(metric_keys(&doc), expected_keys(&spec, "per_layer"));
    let metrics = doc.get("metrics").expect("metrics");
    for w in names(&spec, "workloads") {
        let value = |m: &str| {
            metrics
                .get(&format!("{w}/{m}"))
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64)
        };
        assert!(
            value("expander.reordered_forms").expect("reordered") > 0.0,
            "{w}: profile took effect"
        );
    }
    let coverage = metrics
        .get("many-forms/trace.layer_coverage")
        .and_then(|v| v.get("value"));
    assert!(
        coverage.and_then(Json::as_f64).expect("coverage") >= 0.95,
        "layer spans cover the compile"
    );

    // Spans of every timed per-layer metric, with the fields a reader needs.
    let text = std::fs::read_to_string(spans).expect("spans written");
    let mut seen = std::collections::BTreeSet::new();
    for line in text.lines() {
        let span = Json::parse(line).expect("span line is JSON");
        for field in [
            "id", "parent", "name", "layer", "workload", "sample", "start_us", "end_us",
        ] {
            assert!(span.get(field).is_some(), "span without {field}: {line}");
        }
        seen.insert(
            span.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_owned(),
        );
    }
    for name in [
        "read_str",
        "expand_program",
        "compile_chunk",
        "run_str",
        "run_str_instrumented",
        "current_weights",
        "store_profile_v2",
        "load_file",
        "incremental_compile",
        "recompile",
        "run_chunks",
        "collect_run",
        "tick",
        "vm_serve_run",
    ] {
        assert!(seen.contains(name), "no `{name}` span");
    }

    let out = Command::new(BIN)
        .args(["compare", results, results])
        .output()
        .expect("compare runs");
    let table = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{table}");
    let rows: Vec<&str> = table.lines().skip(1).collect();
    assert_eq!(
        rows.len(),
        expected_keys(&spec, "end_to_end").len(),
        "{table}"
    );
    assert!(rows.iter().all(|r| r.ends_with("within")), "{table}");
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2"],
        &["--seconds", "0"],
        &["--bogus"],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
