//! Shape check of the whole ledger: every workload at `--smoke` sizes
//! in a child process (so the process-wide trace switches of one run
//! cannot leak into another test), untraced and traced.

use std::path::{Path, PathBuf};
use std::process::Command;

use pkgrec_perf_ledger::report::{is_valid_name, END_TO_END, PER_LAYER};
use pkgrec_trace::json::{self, Json};

const WORKLOADS: [&str; 4] = ["serve_hot", "serve_cold", "exact_batch", "sketch_catalog"];

fn out_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("perf_ledger_smoke_{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run one workload; returns its parsed result line.
fn run(workload: &str, trace: bool, out: &Path) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_perf_ledger"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .output()
        .expect("spawn perf_ledger");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} (trace {trace}) failed: {}\n{stdout}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    json::parse(last).unwrap_or_else(|e| panic!("{workload}: bad result line {last:?}: {e}"))
}

/// Checks every catalogued metric is printed with its unit, and that
/// every answer was right.
fn check_result(workload: &str, result: &Json, catalogue: &[(&str, &str)]) {
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{workload}"
    );
    assert_eq!(
        result.get("failed").and_then(Json::as_u64),
        Some(0),
        "{workload}"
    );
    assert!(
        result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1,
        "{workload}"
    );
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("{workload}: no metrics object");
    };
    assert_eq!(
        metrics.len(),
        catalogue.len(),
        "{workload}: exactly the catalogue"
    );
    for (name, unit) in catalogue {
        let m = result.get("metrics").and_then(|m| m.get(name));
        let m = m.unwrap_or_else(|| panic!("{workload}: {name} missing"));
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(*unit),
            "{workload}: {name}"
        );
        let v = m
            .get("value")
            .and_then(Json::as_f64)
            .expect("numeric value");
        assert!(v.is_finite(), "{workload}: {name} = {v}");
    }
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed = doc.get(key).and_then(Json::as_array).expect("metric list");
        let names: Vec<(&str, &str)> = listed
            .iter()
            .map(|m| {
                let name = m.get("name").and_then(Json::as_str).expect("name");
                let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                assert!(is_valid_name(name), "{name}");
                (name, unit)
            })
            .collect();
        assert_eq!(names, catalogue, "{key} in BENCHMARK.json vs the catalogue");
    }
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);

    // ledger.json records each per-layer metric's layer and the
    // end-to-end metric it should move.
    let ledger = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("ledger.json"))
        .expect("ledger.json in the package");
    let ledger = json::parse(&ledger).expect("ledger.json parses");
    for (name, _) in PER_LAYER {
        let entry = ledger.get("per_layer").and_then(|p| p.get(name));
        let entry = entry.unwrap_or_else(|| panic!("ledger.json lacks {name}"));
        for key in ["layer", "moves"] {
            assert!(
                entry.get(key).and_then(Json::as_str).is_some(),
                "{name}.{key}"
            );
        }
    }
}

/// One test, so the child processes run one at a time: the serve
/// workloads fail a run whose open loop builds a backlog, and two
/// concurrent runs on a small host could make one.
#[test]
fn every_workload_runs_untraced_and_traced() {
    let out = out_dir("runs");
    // One metric per workload that its own layers must have measured.
    let measured = [
        ("serve_hot", "serve.service_us_p50"),
        ("serve_cold", "query.compile_us_p50"),
        ("exact_batch", "core.solve_qc_cq_us_p50"),
        ("sketch_catalog", "data.partition_ms"),
    ];
    for (workload, own) in measured {
        let result = run(workload, false, &out);
        check_result(workload, &result, END_TO_END);
        for (name, _) in END_TO_END {
            let v = result
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"));
            assert!(
                v.and_then(Json::as_f64).unwrap() > 0.0,
                "{workload}: {name} must be > 0"
            );
        }

        let result = run(workload, true, &out);
        check_result(workload, &result, PER_LAYER);
        let v = result
            .get("metrics")
            .and_then(|m| m.get(own))
            .and_then(|m| m.get("value"));
        assert!(
            v.and_then(Json::as_f64).unwrap() > 0.0,
            "{workload}: {own} must be measured"
        );

        let trace = std::fs::read_to_string(out.join(format!("{workload}.trace.json")))
            .expect("trace file written");
        let doc = json::parse(&trace).expect("the trace file parses");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents");
        assert!(events
            .iter()
            .any(|e| e.get("ph").and_then(Json::as_str) == Some("X")));
        assert!(doc.get("selfTimeUs").is_some(), "{workload}: self times");
    }
}
