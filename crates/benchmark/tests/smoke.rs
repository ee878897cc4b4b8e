//! A short `--smoke` run of every workload through the built binary:
//! the audit passes, every catalogued metric is printed with its unit,
//! and `BENCHMARK.json` says what the catalog says.

use std::path::Path;
use std::process::Command;

use chariots_benchmark::catalog::{self, END_TO_END, PER_LAYER, WORKLOADS};
use chariots_benchmark::json::Json;

fn smoke_run(workload: &str, traced: bool, work_dir: &Path) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "2"])
        .args(["--trace", if traced { "1" } else { "0" }, "--smoke"])
        .arg("--work-dir")
        .arg(work_dir)
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} exited with {}: {}\n{stdout}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let line = stdout.lines().last().expect("a result line");
    let result = Json::parse(line).unwrap_or_else(|e| panic!("{workload}: {e}: {line}"));
    let keys: Vec<&str> = result
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{workload} trace={traced}: audit failed\n{stdout}"
    );
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    result
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// The metrics of a result line are exactly `expected`, in order, each
/// with its unit and a finite value.
fn assert_metrics(result: &Json, expected: &[(&str, &str)], nonzero: bool) {
    let metrics = result
        .get("metrics")
        .and_then(Json::as_object)
        .expect("metrics");
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let expected_names: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, expected_names);
    for ((name, metric), (_, unit)) in metrics.iter().zip(expected) {
        assert!(valid_name(name), "{name:?} is not a metric name");
        assert_eq!(
            metric.get("unit").and_then(Json::as_str),
            Some(*unit),
            "{name}"
        );
        let value = metric
            .get("value")
            .and_then(Json::as_f64)
            .expect("a number");
        assert!(value.is_finite(), "{name} = {value}");
        if nonzero {
            assert!(value > 0.0, "{name} = {value}");
        }
    }
}

#[test]
fn every_workload_passes_its_audit_and_reports_the_catalog() {
    let work_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("work/smoke-test");
    let end_to_end: Vec<(&str, &str)> = END_TO_END.iter().map(|(d, _)| (d.name, d.unit)).collect();
    let per_layer: Vec<(&str, &str)> = PER_LAYER.iter().map(|d| (d.name, d.unit)).collect();
    for workload in &WORKLOADS {
        assert!(valid_name(workload.name));
        let untraced = smoke_run(workload.name, false, &work_dir);
        assert_metrics(&untraced, &end_to_end, true);
        let traced = smoke_run(workload.name, true, &work_dir);
        assert_metrics(&traced, &per_layer, false);
        let spans = work_dir.join(format!("trace-{}-7.json", workload.name));
        let spans = std::fs::read_to_string(&spans).expect("the traced run wrote its spans");
        let spans = Json::parse(&spans).expect("the span file is JSON");
        assert!(!spans
            .get("spans")
            .and_then(Json::as_array)
            .expect("spans")
            .is_empty());
    }
    let _ = std::fs::remove_dir_all(&work_dir);
}

#[test]
fn benchmark_json_is_the_catalog() {
    // The member manifest sits in crates/benchmark, the offline one a
    // directory below it.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .find(|dir| dir.join("BENCHMARK.json").is_file())
        .expect("BENCHMARK.json above the manifest");
    let text = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("read BENCHMARK.json");
    let on_disk = Json::parse(&text).expect("BENCHMARK.json is JSON");
    assert_eq!(
        on_disk,
        catalog::manifest(),
        "regenerate with `benchmark manifest`"
    );
}
