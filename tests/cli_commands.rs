//! The `pkgrec` commands the oracle matrix does not cover: flag
//! validation, `explain`, `--approx`, `qbf` and `profile`, each run as
//! the built binary on the bundled fixtures.

use std::process::{Command, Output};

const TRAVEL: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/testdata/travel.pkdb");
const FLIGHTS: &str = "q(f,s,d,dd,p) :- flight(f,s,d,dd,p).";

fn pkgrec(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pkgrec"))
        .args(args)
        .output()
        .expect("pkgrec runs")
}

fn stdout_of(args: &[&str]) -> String {
    let out = pkgrec(args);
    assert!(
        out.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 output")
}

/// Every value `/solve` rejects, the CLI rejects too: a typed error
/// naming the flag, exit code 1, never a panic.
#[test]
fn bad_solve_flags_are_rejected_by_name() {
    for (flag, value) in [
        ("--k", "0"),
        ("--budget", "NaN"),
        ("--budget", "inf"),
        ("--min-val", "NaN"),
        ("--max-size", "0"),
        ("--steps", "0"),
        ("--timeout-ms", "0"),
        ("--cost", "max:1"),
    ] {
        let out = pkgrec(&["topk", TRAVEL, FLIGHTS, flag, value]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag} {value}: {stderr}");
        assert!(stderr.contains(flag), "{flag} {value}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag} {value}: {stderr}");
        assert!(out.stdout.is_empty(), "{flag} {value} printed an answer");
    }
}

#[test]
fn explain_matches_the_golden() {
    let golden = include_str!("../testdata/travel_explain.golden");
    let query = "q(a, c) :- flight(f, a, c, d, p), flight(g, c, e, d2, p2).";
    assert_eq!(stdout_of(&["explain", TRAVEL, query]), golden);
}

#[test]
fn approx_results_carry_the_marker() {
    let out = stdout_of(&[
        "topk", TRAVEL, FLIGHTS, "--cost", "sum:4", "--budget", "900", "--val", "sum:4", "--approx",
    ]);
    let marker = "approximate result (sketch engine; not certified optimal):";
    assert_eq!(out.lines().next(), Some(marker), "{out}");
}

#[test]
fn qbf_encodings_agree() {
    let qbf = concat!(env!("CARGO_MANIFEST_DIR"), "/testdata/alt3.qbf");
    let out = stdout_of(&["qbf", qbf]);
    assert!(
        out.contains("encodings agree: datalognr, fo, rpp top-1 membership"),
        "{out}"
    );
}

#[test]
fn profile_prints_phase_and_worker_tables() {
    let out = stdout_of(&[
        "profile", TRAVEL, FLIGHTS, "--cost", "sum:4", "--budget", "900", "--k", "2", "--jobs", "2",
    ]);
    for header in [
        "phases (name, total wall time, % of wall, calls):",
        "workers (id, busy, utilization, units, steps):",
    ] {
        assert!(out.contains(header), "missing `{header}` in {out}");
    }
}

/// `profile` forces its own trace and writes no flight file, so the
/// telemetry flags are rejected by name rather than silently ignored.
#[test]
fn profile_rejects_the_telemetry_flags() {
    let path = std::env::temp_dir().join(format!("pkgrec-profile-{}.jsonl", std::process::id()));
    let flight = path.to_str().expect("UTF-8 temp path");
    for flags in [
        &["--trace"][..],
        &["--trace=json"],
        &["--trace-out", flight],
        &["--flight-out", flight],
        &["--progress"],
    ] {
        let out = pkgrec(&[&["profile", TRAVEL, FLIGHTS], flags].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flags:?}: {stderr}");
        assert!(stderr.contains(flags[0]), "{flags:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{flags:?} printed a report");
    }
    assert!(!path.exists(), "a rejected flag wrote {flight}");
}
