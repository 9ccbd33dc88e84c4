//! Cross-crate observability tests: the counter names emitted by a
//! solve are a stable public contract (dashboards and the bench report
//! key on them), interrupted searches name the span that tripped the
//! budget, and the CLI's JSONL records are valid JSON.
//!
//! The test harness runs tests concurrently, each on its own thread.
//! Tracing is enabled *and* collected per thread, so a test that turns
//! it on changes nothing for the others; the last test pins that.
//! (While enablement was one process-wide switch, it did not hold: a
//! concurrent `pkgrec_trace::scoped()` traced every other test too.)

use pkgrec::core::{
    problems::frp, problems::rpp, Package, PackageFn, RecInstance, SolveOptions,
};
use pkgrec::data::{tuple, AttrType, Database, Relation, RelationSchema};
use pkgrec::query::{ConjunctiveQuery, Query};

const JOBS: [usize; 4] = [1, 2, 4, 8];

/// Items {1, 2, 3}; val = sum of items; cost = |N|; budget 2.
fn small_instance() -> RecInstance {
    let mut db = Database::new();
    let r = RelationSchema::new("r", [("a", AttrType::Int)]).unwrap();
    db.add_relation(Relation::from_tuples(r, [tuple![1], tuple![2], tuple![3]]).unwrap())
        .unwrap();
    RecInstance::new(db, Query::Cq(ConjunctiveQuery::identity("r", 1)))
        .with_budget(2.0)
        .with_val(PackageFn::sum_col(0, true))
}

/// Golden test: the exact counter and span names a small RPP solve
/// emits. A rename here breaks `report --stats` consumers and saved
/// JSONL traces, so it must be deliberate — update the registry table
/// in `crates/trace/src/lib.rs`, DESIGN.md and this list together.
#[test]
fn rpp_solve_emits_the_documented_counter_names() {
    let _scope = pkgrec_trace::scoped();
    let sel = vec![Package::new([tuple![2], tuple![3]])];
    let reports: Vec<_> = JOBS
        .iter()
        .map(|&jobs| {
            pkgrec_trace::reset();
            let inst = small_instance();
            assert!(rpp::is_top_k(&inst, &sel, &SolveOptions::default().with_jobs(jobs)).unwrap());
            pkgrec_trace::take()
        })
        .collect();
    let report = &reports[0];

    let counters: Vec<&str> = report.counters.keys().map(String::as_str).collect();
    assert_eq!(
        counters,
        [
            "core.arity_derivations",
            "cq.join_candidates",
            "enumerate.nodes",
            "enumerate.pruned.cost",
            "enumerate.valid",
            "query.bitset_probes",
            "query.index_builds",
            "query.plan_compiles",
            "query.plan_probes"
        ],
        "counter names are a stable contract; see the registry in pkgrec-trace"
    );
    let spans: Vec<&str> = report.spans.keys().map(String::as_str).collect();
    assert_eq!(
        spans,
        [
            "rpp.check_top_k",
            "rpp.check_top_k/cq.eval",
            "rpp.check_top_k/enumerate.dfs"
        ]
    );
    // The probes carry real measurements, not just names.
    assert!(report.counters["enumerate.nodes"] > 0);
    assert!(report.spans["rpp.check_top_k"].total_ns > 0);
    assert!(report.spans["rpp.check_top_k/enumerate.dfs"].steps > 0);
    // Spawned workers' spans sit where the inline worker's do, so the
    // span tree and every counter value are the same at every jobs
    // level.
    for (jobs, other) in JOBS.iter().zip(&reports).skip(1) {
        assert_eq!(other.spans.keys().collect::<Vec<_>>(), spans, "jobs {jobs}");
        assert_eq!(other.counters, report.counters, "jobs {jobs}");
    }
}

/// Golden test for the compiled-plan counters: one solve compiles `Q`
/// exactly once and answers every item-pool evaluation and membership
/// probe through the plan. A drift here means per-package work crept
/// back into the hot path (e.g. a `tuples()` clone or a re-compile).
#[test]
fn rpp_solve_pins_compiled_plan_counters() {
    let _scope = pkgrec_trace::scoped();
    pkgrec_trace::reset();
    let inst = small_instance();
    let sel = vec![Package::new([tuple![2], tuple![3]])];
    assert!(rpp::is_top_k(&inst, &sel, &SolveOptions::default().with_jobs(1)).unwrap());
    let report = pkgrec_trace::take();

    // One plan per solve: Q compiled once, Qc is empty (no plan).
    assert_eq!(report.counters["query.plan_compiles"], 1);
    // Probes: 1 item-pool evaluation + 2 membership checks for the
    // candidate selection's items {2, 3}.
    assert_eq!(report.counters["query.plan_probes"], 3);
}

/// An FRP search cut off mid-enumeration reports *where* the budget
/// tripped: the interruption is tagged with the innermost open span,
/// which every worker — inline or spawned — opens as `enumerate.dfs`.
#[test]
fn interrupted_frp_solve_names_the_enumeration_span() {
    let _scope = pkgrec_trace::scoped();
    for jobs in [1, 2] {
        pkgrec_trace::reset();
        let out = frp::top_k(&small_instance(), &SolveOptions::limited(3).with_jobs(jobs)).unwrap();
        assert!(!out.exact);
        let cut = out.interrupted.expect("3 steps cannot finish the search");
        assert_eq!(cut.span, Some("enumerate.dfs"), "jobs {jobs}");
        assert!(
            cut.to_string().ends_with("in enumerate.dfs"),
            "Display names the tripping span: {cut}"
        );
    }
}

/// Without tracing enabled the same interruption carries no span — the
/// disabled probes stay invisible.
#[test]
fn interruption_span_is_absent_when_tracing_is_off() {
    let out = frp::top_k(&small_instance(), &SolveOptions::limited(3).with_jobs(1)).unwrap();
    let cut = out.interrupted.expect("3 steps cannot finish the search");
    assert_eq!(cut.span, None);
}

/// The report serializes to valid JSON (one JSONL record), checked by
/// the same validator the `jsonl_check` CI tool uses.
#[test]
fn trace_report_serializes_to_valid_json() {
    let _scope = pkgrec_trace::scoped();
    pkgrec_trace::reset();
    let sel = vec![Package::new([tuple![2], tuple![3]])];
    rpp::is_top_k(&small_instance(), &sel, &SolveOptions::default().with_jobs(1)).unwrap();
    let json = pkgrec_trace::take().to_json();
    assert!(!json.contains('\n'), "JSONL records are single-line");
    pkgrec_trace::json::validate_object(&json).expect("valid JSON object");
}

/// Regression: enablement is per thread. While another thread holds
/// `pkgrec_trace::scoped()`, a solve on this thread still runs
/// untraced, so its cut names no span. With one process-wide switch
/// the cut named `enumerate.dfs`.
#[test]
fn another_threads_tracing_does_not_reach_this_solve() {
    let held = std::sync::Barrier::new(2);
    let solved = std::sync::Barrier::new(2);
    let out = std::thread::scope(|s| {
        s.spawn(|| {
            let _scope = pkgrec_trace::scoped();
            held.wait();
            solved.wait();
        });
        held.wait();
        let out = frp::top_k(&small_instance(), &SolveOptions::limited(3).with_jobs(1));
        solved.wait();
        out
    });
    let cut = out
        .unwrap()
        .interrupted
        .expect("3 steps cannot finish the search");
    assert_eq!(cut.span, None);
}
