//! An exact solve over a large item pool must honour a short deadline:
//! the search partition is decoded from unit indices, never listed, so
//! neither time nor memory grows with the n² subtree units before the
//! first budget poll. This file is a test binary of its own, so the
//! peak resident set it reads (`VmHWM`) is this solve's alone.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pkgrec::core::{
    problems::frp, PackageFn, PreparedInstance, RecInstance, SizeBound, SolveOptions,
};
use pkgrec::data::{tuple, AttrType, Database, Relation, RelationSchema};
use pkgrec::query::{ConjunctiveQuery, Query};
use pkgrec::serve::{Answer, ProblemKind, SolveRequest};

const ITEMS: i64 = 20_000;

/// `item(id, price, score)` with `ITEMS` rows.
fn catalog() -> Database {
    let mut db = Database::new();
    let schema = RelationSchema::new(
        "item",
        [
            ("id", AttrType::Int),
            ("price", AttrType::Int),
            ("score", AttrType::Int),
        ],
    )
    .unwrap();
    let rows = (0..ITEMS).map(|i| tuple![i, 1 + i % 997, 1 + i % 101]);
    db.add_relation(Relation::from_tuples(schema, rows).unwrap())
        .unwrap();
    db
}

/// The process's peak resident set in MB (10^6 bytes), when
/// `/proc/self/status` can be read.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb * 1024.0 / 1e6)
}

#[test]
fn exact_frp_over_a_large_pool_meets_a_1ms_deadline() {
    let db = Arc::new(catalog());

    // Through the library: cost = total price ≤ 2500, val = total
    // score, packages of at most 4 items, top 3.
    let inst = RecInstance::new(
        Arc::clone(&db),
        Query::Cq(ConjunctiveQuery::identity("item", 3)),
    )
    .with_cost(PackageFn::sum_col(1, true))
    .with_budget(2500.0)
    .with_val(PackageFn::sum_col(2, true))
    .with_size_bound(SizeBound::Constant(4))
    .with_k(3);
    let opts = SolveOptions::deadline_in(Duration::from_millis(1)).with_jobs(1);
    let started = Instant::now();
    let out = frp::top_k(&inst, &opts).unwrap();
    let library = started.elapsed();
    assert!(!out.exact);
    assert_eq!(out.interrupted.expect("cut").resource.label(), "deadline");
    assert!(out.stats.progress_at_interrupt.is_some());

    // Through `SolveRequest::solve`, the `/solve` path.
    let mut req = SolveRequest::new("catalog", ProblemKind::TopK, "q(i, p, s) :- item(i, p, s).");
    req.cost = "sum:1".to_string();
    req.budget = Some(2500.0);
    req.val = "sum:2".to_string();
    req.max_size = Some(4);
    req.k = 3;
    req.deadline_ms = Some(1);
    let prepared = PreparedInstance::new(req.instance(db).unwrap()).unwrap();
    let opts = req.options(None, 1);
    let started = Instant::now();
    let answer = req.solve(&prepared, &opts).unwrap();
    let served = started.elapsed();
    let Answer::TopK(out) = answer else {
        panic!("a topk request answers with a selection");
    };
    assert!(!out.exact);
    assert_eq!(out.interrupted.expect("cut").resource.label(), "deadline");

    for (path, took) in [("library", library), ("/solve", served)] {
        assert!(took < Duration::from_secs(1), "{path} solve took {took:?}");
    }
    if let Some(mb) = peak_rss_mb() {
        assert!(mb < 100.0, "peak RSS {mb:.1} MB");
    }
}
