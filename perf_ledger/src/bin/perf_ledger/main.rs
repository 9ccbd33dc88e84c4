//! `perf_ledger` — one benchmark for `pkgrec`, end to end and layer by
//! layer.
//!
//! The paper splits every package problem in two: evaluating `Q(D)`
//! and the `Qc` probes is polynomial, the package search is
//! Σp₂-hard and worse. `pkgrec` mirrors the split as compile/prepare →
//! enumerate behind a resident service. The ledger runs four
//! workloads that load those layers differently, prints the
//! end-to-end metrics a user sees, checks every answer, and — in a
//! separate traced run — attributes the time to the layers.
//!
//! # Workloads
//!
//! | name | what | why |
//! |---|---|---|
//! | `serve_hot` | `item(id, grp, price, score)`, 20 000 rows in 500 groups of 40. Mix `topk` k=3 / `bound` k=2 / `count` `min_val` 100 / `eval` over 8 seeded groups: 32 plan keys, under the plan cache's 64. `max_size` 2, `cost` `sum:1` (price), budget 150, `val` `sum:2` (score). Open loop at 2000 req/s. | Every timed request is a plan-cache hit with a sub-millisecond solve, so HTTP framing, the worker pool, per-request telemetry and short enumerations dominate. A compile-side change should not move it. |
//! | `serve_cold` | The same catalog and mix, the group drawn Zipf(1.0) over all 500 groups: 2000 keys against the FIFO cache of 64. Open loop at a fixed 80 req/s, about 40% of the capacity measured when the ledger was defined. | The plan cache is used write-heavy: most requests insert or evict, and each miss recompiles against the whole relation. A cache-policy or compile change shows here and bypasses `serve_hot`. |
//! | `exact_batch` | Library surface. One op is a fixed batch: FRP top-3, MBP and CPP on a `workloads::random` sweep instance (40 rows, `|Q(D)|` = 32 in five groups, `SizeBound::Constant(4)`) with the CQ distinct-groups `Qc` (`qc_cq`) and without (`qc_none`), and on Example 1.1 with the museum cap (`travel`, 3 flights × 8 POIs); RPP on the Theorem 4.1 reduction of a false Σ₂ sentence (`thm41`); one CPP over a pruning-free 2^20 space at `jobs = 2` (`par_count`). Everything else at `jobs = 1`. | The exponential package search dominates — enumeration, `Qc` probes, the parallel scheduler — with no serve layer at all. Pruning, evaluator and scheduler changes show here. |
//! | `sketch_catalog` | SketchRefine on a 20 000-item `(id, price, score)` catalog, budget 2500, packages of at most 4 items, k = 3. One op is FRP top-3 then MBP, each building its own search context. | `Q(D)` materialization over the whole catalog, partitioning and the refine sub-solves dominate: many small solves instead of one exact one. Carries the certified quality floor, so a speed-for-quality trade shows. |
//!
//! The seed changes generated values only; sizes, rates and mixes are
//! the constants above (smaller ones under `--smoke`). Values that
//! decide how much a solve prunes are drawn stratified (see
//! `pkgrec_perf_ledger::gen`), so each seed does about the same work
//! and the spread between runs is the host's, not the draw's.
//!
//! # End-to-end metrics (untraced runs)
//!
//! | name | unit | definition |
//! |---|---|---|
//! | `setup_s` | s | Generate the inputs, start the server or build the instances, and warm lazy state (first compiles, relation indexes) up to the first timed op. Done three times per run — once before the measured phases, twice after them — and the median reported. |
//! | `ops_per_s` | op/s | Serve: median over 0.5 s windows of 200-OK completions in the closed loop (capacity). Library: completed ops ÷ their summed wall time. |
//! | `latency_p50_us` | us | Serve: open loop at the fixed rate, timed from each request's due time; the median over blocks of consecutive requests (1000 hot, 50 cold) of each block's p50. Library: the median op. |
//! | `peak_rss_mb` | MB | `VmHWM` of the workload's process, read right after the measured phases. |
//!
//! Every answer is checked inside the timed loops: each serve response
//! against the library's answer for its key (computed untimed on the
//! group's own rows, which give the same `Q(D)`); each batch solve
//! against an untimed `jobs = 1` reference pass (so `par_count` at
//! `jobs = 2` must equal `jobs = 1`); each sketch package re-verified
//! with `SearchContext::is_valid_package` on the full instance, the
//! MBP bound equal to the k-th FRP rating, every op's answer equal to
//! the first's, and the quality ratio at most 1. The error rate is
//! `failed ÷ attempted` in the result line; any failure makes it say
//! `"correct": false` and the process exit non-zero. A serve run whose
//! open loop builds a backlog (the last block's median lateness ten
//! times the first's and over 1 ms) is invalid and exits non-zero too.
//!
//! # Per-layer metrics (`--trace 1`)
//!
//! A traced run measures the workload twice at half the time each —
//! untraced, then with `pkgrec_trace::scoped()` and
//! `timeline::scoped()` on and the bench's own spans recording — and
//! then *replays* each layer's public functions on the workload's
//! inputs. Metrics that telemetry which is always on already gives
//! (the serve access log and `Service::metrics`, per-call timings
//! taken by the bench) come from the untraced half; the traced half
//! gives the counters, the timeline and the spans. Layer metrics of a
//! layer a workload does not run read 0.
//!
//! | metric | layer | measured by | should move (metric → workload) |
//! |---|---|---|---|
//! | `loadgen.late_{p50,p99}_us` | bench load generator | due → send gap, including waits for a free connection | growth means backlog on `serve_*` |
//! | `serve.latency_p99_us` | whole service | block-median p99 from due time | the serve tail; not bounded: it swings by more than any usable bound on a shared 2-core host |
//! | `serve.http_us_p50` | `serve::http` + `serve::server` | client send → receive minus access-log `total_us`, joined on `x-pkgrec-request-id` | `latency_p50_us` → `serve_hot` |
//! | `serve.service_us_{p50,p99}` | `serve::service` | access-log `solve_us` | `latency_p50_us` → both serve workloads |
//! | `serve.plan_cache_hit_ratio` | `serve::service` plan cache | hits ÷ (hits + misses) from `Service::metrics` | `ops_per_s` → `serve_cold` (1 on `serve_hot`) |
//! | `serve.access_log_dropped`, `serve.deadline_partials` | `serve::access_log`, `serve::service` | `AccessLog::dropped`, `Service::metrics` | none; non-zero flags telemetry loss or degraded answers |
//! | `query.compile_us_p50` | `query::plan` | `Query::compile` on the workload's query shapes | `latency_p50_us`, `ops_per_s` → `serve_cold` |
//! | `core.prepare_us_p50` | `core::instance` | `PreparedInstance::new` | `serve_cold`; `latency_p50_us` → `sketch_catalog` |
//! | `core.solve_{topk,bound,count,eval}_us_p50` | `core::problems` + `core::enumerate` | `frp::top_k_in` / `mbp::maximum_bound_in` / `cpp::count_valid_in` / the item pool, on a prepared context | `latency_p50_us` → `serve_hot` |
//! | `core.solve_{qc_cq,qc_none,travel,thm41,par_count}_us_p50`, `core.solve_p95_us` | `core::problems` + `core::enumerate` | the batch's solver calls per class, and the p95 over all of them | `ops_per_s`, `latency_p50_us` → `exact_batch` |
//! | `query.qc_probe_ns` | `query::plan` (dynamic `Qc`) | `SearchContext::qc_satisfied` over 10 000 seeded packages | `exact_batch` (`qc_cq`) |
//! | `query.{plan_probes,bitset_probes,bitset_share}` | `query::plan`, `data::columnar` | trace counters per op | `ops_per_s` → `exact_batch` |
//! | `enumerate.{nodes,valid,useful_ratio}`, `enumerate.pruned.{cost,compat,budget,floor}` | `core::enumerate` | trace counters per op | `exact_batch`; `latency_p50_us` → `sketch_catalog` |
//! | `enumerate.busy_share`, `enumerate.steals` | `core::enumerate` (parallel) | `SearchStats.workers` busy ÷ (jobs × wall); counter | `latency_p50_us` → `exact_batch` (`par_count`) |
//! | `data.partition_ms` | `data::partition` | `PartitionIndex::build` with the engine's default knobs | `latency_p50_us` → `sketch_catalog` |
//! | `sketch.phase_share.{compile,sketch,refine,verify}` | `core::sketch` | timeline phase totals ÷ op wall time | `latency_p50_us` → `sketch_catalog` |
//! | `sketch.{sub_solves,refines_improved,partitions_pruned}`, `guard.interrupted` | `core::sketch`, `guard` | trace counters per op | `latency_p50_us` → `sketch_catalog` |
//! | `sketch.quality_ratio` | `core::sketch` | FRP top-1 `val` ÷ an upper bound on the optimum (the smaller of the fractional-knapsack bound and the four best scores) | a speed-for-quality trade on `sketch_catalog` |
//! | `trace.overhead_pct` | `trace` | untraced vs traced `ops_per_s`, same run | none: the cost of tracing |
//!
//! The traced run also writes `DIR/<workload>.trace.json` in Chrome
//! Trace Event Format: open it in Perfetto or `chrome://tracing`.
//! Each bench thread is a track; `request` spans (serve) hold a
//! `loadgen.wait` child (due → send) and an `http.roundtrip` child,
//! `cycle`/`op` spans (library) hold one span per solver call, and
//! `replay.*` spans time single layer calls. Every event's `args` carry
//! its `op` id (shared by one request's or op's spans), `span` and
//! `parent` ids, and serve requests their `request_id`, which also
//! keys the server's access log. The top-level `selfTimeUs` object is
//! each span name's duration minus its children's, summed, and
//! `metadata` holds the run's seed and per-layer result line.
//!
//! # Running
//!
//! ```sh
//! cargo run --release --manifest-path perf_ledger/Cargo.toml -- \
//!     --workload serve_hot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! * `--workload NAME` runs one workload in this process and prints
//!   one JSON line last: `correct`, `attempted`, `failed` and
//!   `metrics` (each `{value, unit}`; the end-to-end metrics, or with
//!   `--trace 1` the per-layer ones).
//! * Without `--workload` every workload runs, each in a fresh child
//!   process, so `peak_rss_mb` and caches are per workload.
//! * `--repeat N` runs each workload N times (seeds `S`, `S+1`, …,
//!   alternating the workload order) and prints per metric the median,
//!   the quartiles and two spreads: (q3 − q1) ÷ median and
//!   (max − min) ÷ median.
//! * `--seconds S` is the measured time per run (default 10),
//!   `--smoke` shrinks every input for a seconds-long shape check, and
//!   `--out DIR` (default `.perf_ledger`) holds trace files and the
//!   access logs while they are written.
//!
//! `ledger.json` in this package records the host, the baseline
//! and why each metric sits where it does. The older single-purpose
//! bench binaries in `crates/bench` and the root `BENCH_*.json` files
//! are untouched: CI calls them, and folding them into the ledger is a
//! later change.

mod library;
mod serve;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use pkgrec_perf_ledger::report::{RunReport, END_TO_END, PER_LAYER};
use pkgrec_perf_ledger::spans::{chrome_trace, SpanLog};
use pkgrec_perf_ledger::stats::{median, quartiles};
use pkgrec_trace::json::{self, Json};

/// Errors end a run: it prints no result line and exits non-zero.
pub type LedgerError = Box<dyn std::error::Error + Send + Sync>;

/// Set-ups per run; the median is `setup_s`.
const SETUPS: usize = 3;

/// The workloads, in their default order.
const WORKLOADS: [&str; 4] = ["serve_hot", "serve_cold", "exact_batch", "sketch_catalog"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    smoke: bool,
    out: PathBuf,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        repeat: 1,
        smoke: false,
        out: PathBuf::from(".perf_ledger"),
    };
    let mut it = raw.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload `{w}` (have: {})",
                        WORKLOADS.join(", ")
                    ));
                }
                args.workload = Some(w);
            }
            "--seed" => args.seed = value("a number")?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                args.seconds = value("a number")?.parse().map_err(|_| "bad --seconds")?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                // `--trace 0|1` as a driver passes it; a bare `--trace`
                // means on.
                let explicit = it.peek().and_then(|v| match v.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                });
                args.trace = explicit.unwrap_or(true);
                if explicit.is_some() {
                    it.next();
                }
            }
            "--repeat" => {
                args.repeat = value("a count")?.parse().map_err(|_| "bad --repeat")?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".to_string());
                }
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = PathBuf::from(value("a directory")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Run one workload in this process; returns the result line and
/// whether every answer was correct.
fn run_one(args: &Args, workload: &str) -> Result<(String, bool), LedgerError> {
    std::fs::create_dir_all(&args.out)?;
    let (mut report, logs): (RunReport, Vec<SpanLog>) = match workload {
        "serve_hot" => serve::run(serve::Traffic::Hot, args)?,
        "serve_cold" => serve::run(serve::Traffic::Cold, args)?,
        "exact_batch" => library::exact_batch(args)?,
        _ => library::sketch_catalog(args)?,
    };
    let correct = report.failed == 0 && report.attempted > 0;
    if !args.trace {
        return Ok((report.to_json(END_TO_END)?, correct));
    }
    for (name, _) in PER_LAYER {
        report.metrics.entry(name).or_insert(0.0);
    }
    let line = report.to_json(PER_LAYER)?;
    let mut meta = String::from("{\"workload\":");
    json::write_string(&mut meta, workload);
    meta.push_str(&format!(
        ",\"seed\":{},\"seconds\":{},\"smoke\":{},\"result\":{line}}}",
        args.seed, args.seconds, args.smoke
    ));
    let path = args.out.join(format!("{workload}.trace.json"));
    std::fs::write(&path, chrome_trace(&logs, &meta))?;
    eprintln!("perf_ledger: wrote {}", path.display());
    Ok((line, correct))
}

/// Run `workload` in a fresh child process; returns its parsed result
/// line.
fn run_child(args: &Args, workload: &str, seed: u64) -> Result<Json, LedgerError> {
    let exe = std::env::current_exe()?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    if !out.status.success() {
        return Err(format!(
            "{workload} (seed {seed}) failed: {}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        )
        .into());
    }
    Ok(json::parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))?)
}

/// The numeric value of `metric` in a result line.
fn metric_value(result: &Json, metric: &str) -> Option<f64> {
    result.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

/// Every workload, `--repeat` times each, in fresh processes; prints
/// per-metric medians, quartiles and spreads. Returns the summary line
/// and whether every run's answers were correct.
fn run_all(args: &Args) -> Result<(String, bool), LedgerError> {
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    let mut values: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); catalogue.len()]; WORKLOADS.len()];
    let mut failed = 0u64;
    for rep in 0..args.repeat {
        let seed = args.seed + rep as u64;
        let order: Vec<usize> = if rep % 2 == 0 {
            (0..WORKLOADS.len()).collect()
        } else {
            (0..WORKLOADS.len()).rev().collect()
        };
        for w in order {
            let result = run_child(args, WORKLOADS[w], seed)?;
            failed += result.get("failed").and_then(Json::as_u64).unwrap_or(1);
            eprintln!("perf_ledger: {} seed {seed} done", WORKLOADS[w]);
            for (m, (name, _)) in catalogue.iter().enumerate() {
                values[w][m].push(metric_value(&result, name).ok_or(format!("{name} missing"))?);
            }
        }
    }
    let mut out = String::from("{");
    for (w, workload) in WORKLOADS.iter().enumerate() {
        if w > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{workload}\":{{"));
        for (m, (name, unit)) in catalogue.iter().enumerate() {
            let v = &values[w][m];
            let med = median(v).unwrap_or(0.0);
            let (q1, q3) = quartiles(v).unwrap_or((med, med));
            let max = v.iter().copied().fold(f64::MIN, f64::max);
            let min = v.iter().copied().fold(f64::MAX, f64::min);
            let rel = |x: f64| if med != 0.0 { x / med.abs() } else { 0.0 };
            eprintln!(
                "{workload:>15} {name:<32} {med:>14.4} {unit:<8} q1 {q1:.4} q3 {q3:.4} iqr/med {:.4} range/med {:.4}",
                rel(q3 - q1),
                rel(max - min)
            );
            if m > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{name}\":{{\"unit\":\"{unit}\",\"median\":{med:?},\"q1\":{q1:?},\"q3\":{q3:?},\
\"iqr_spread\":{:?},\"range_spread\":{:?},\"values\":{v:?}}}",
                rel(q3 - q1),
                rel(max - min)
            ));
        }
        out.push('}');
    }
    out.push_str(&format!(",\"failed\":{failed}}}"));
    Ok((out, failed == 0))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf_ledger: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.clone() {
        Some(w) => run_one(&args, &w),
        None => run_all(&args),
    };
    match outcome {
        Ok((line, correct)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perf_ledger: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn driver_flags_parse() {
        let a = parse("--workload exact_batch --seed 7 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("exact_batch"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 2.5, true));
        assert!(!parse("--trace 0").unwrap().trace);
        assert!(
            parse("--trace --smoke").unwrap().trace,
            "bare --trace means on"
        );
        assert!(parse("--smoke --trace").unwrap().smoke);
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--repeat 0").is_err());
        assert!(parse("--bogus").is_err());
    }
}
