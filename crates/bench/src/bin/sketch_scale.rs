//! `sketch_scale` — the SketchRefine engine on a million-item catalog.
//!
//! The exact engines cannot touch `|Q(D)| = 10^6`: the package space is
//! `2^(10^6)`. This bench builds a synthetic catalog of that size
//! (deterministic pseudo-random prices and scores), solves FRP top-k
//! and MBP maximum-bound with the approximate engine, and checks the
//! two halves of its contract:
//!
//! * **soundness at scale** — every returned package is re-verified
//!   valid against the full instance (budget, size bound,
//!   `Q(D)`-membership), and the outcome is labeled `method: sketch`,
//!   `exact: false`;
//! * **quality, measured** — on a small instance of the same
//!   distribution where the exact solver is feasible, the report
//!   records `approx / exact` as a ratio; the bench asserts the ratio
//!   never exceeds 1 (an approximate answer beating a certified
//!   optimum would mean the exact engine is broken, not that the
//!   sketch engine is good).
//!
//! ```sh
//! cargo run --release -p pkgrec-bench --bin sketch_scale -- BENCH_sketch_scale.json
//! ```
//!
//! `--smoke` shrinks the catalog to 20k items for CI shape checks (still
//! far beyond the exact engines, and large enough to exercise a
//! multi-level partition tree). The report records the process's peak
//! resident set (`peak_rss_mb`, from `VmHWM`), so a run under a
//! `ulimit -v` cap shows how close it came.

use std::time::{Duration, Instant};

use pkgrec_core::{
    problems::frp, problems::mbp, Budget, Ext, Method, PackageFn, RecInstance, SketchParams,
    SolveOptions,
};
use pkgrec_data::{tuple, AttrType, Database, Relation, RelationSchema};
use pkgrec_query::{ConjunctiveQuery, Query};

const ITEMS: usize = 1_000_000;
const ITEMS_SMOKE: usize = 20_000;
/// Small enough for the exact solver (with cost pruning), same
/// distribution: the quality-ratio reference.
const ITEMS_EXACT: usize = 20;
const K: usize = 3;
const BUDGET: f64 = 2500.0;
/// Safety net: the full run takes seconds; a minute means something is
/// wrong, and the anytime contract still returns verified packages.
const DEADLINE: Duration = Duration::from_secs(60);

/// splitmix64 — deterministic catalog generation, no RNG dependency.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A catalog of `n` items `(id, price, score)`: price in [1, 1000],
/// score in [1, 10000], cost = sum of price, val = sum of score.
fn instance(n: usize) -> RecInstance {
    let schema = RelationSchema::new(
        "item",
        [
            ("id", AttrType::Int),
            ("price", AttrType::Int),
            ("score", AttrType::Int),
        ],
    )
    .expect("valid schema");
    let mut seed = 0x5CA1_AB1E_u64;
    let rel = Relation::from_tuples(
        schema,
        (0..n).map(|i| {
            let price = (splitmix64(&mut seed) % 1000 + 1) as i64;
            let score = (splitmix64(&mut seed) % 10_000 + 1) as i64;
            tuple![i as i64, price, score]
        }),
    )
    .expect("schema-conformant");
    let mut db = Database::new();
    db.add_relation(rel).expect("fresh db");
    RecInstance::new(db, Query::Cq(ConjunctiveQuery::identity("item", 3)))
        .with_budget(BUDGET)
        .with_cost(PackageFn::sum_col(1, true))
        .with_val(PackageFn::sum_col(2, true))
        .with_k(K)
}

fn approx_opts() -> SolveOptions {
    SolveOptions::with_budget(Budget::with_timeout(DEADLINE))
        .with_approx(SketchParams::default())
}

fn finite(e: Ext) -> f64 {
    match e {
        Ext::Finite(x) => x,
        other => panic!("expected a finite rating, got {other}"),
    }
}

/// The process's peak resident set (`VmHWM`) in MB (10^6 bytes), as
/// JSON: `null` where `/proc/self/status` is unavailable.
fn peak_rss_mb() -> String {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok());
    kb.map_or_else(|| "null".to_string(), |kb| format!("{:.1}", kb * 1024.0 / 1e6))
}

fn main() {
    let mut out_path = None;
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else {
            out_path = Some(arg);
        }
    }
    let out_path = out_path.unwrap_or_else(|| "BENCH_sketch_scale.json".to_string());
    let items = if smoke { ITEMS_SMOKE } else { ITEMS };

    eprintln!("building {items}-item catalog...");
    let inst = instance(items);

    // FRP top-k at scale. One measured run: the partitioner is part of
    // the solve, and the point is end-to-end seconds, not best-of
    // micro-timing.
    let started = Instant::now();
    let frp_out = frp::top_k(&inst, &approx_opts()).expect("sketch solve");
    let frp_seconds = started.elapsed().as_secs_f64();
    assert!(!frp_out.exact, "the sketch engine must never claim exactness");
    assert_eq!(frp_out.method, Method::Sketch);
    let sel = frp_out.value.as_deref().unwrap_or(&[]);
    assert_eq!(sel.len(), K, "the catalog is dense; a full selection must exist");
    // The acceptance criterion: constraints verifiably satisfied, on
    // the *full* instance, for every returned package.
    let ctx = inst.search_context().expect("plans compile");
    for pkg in sel {
        assert!(
            ctx.is_valid_package(pkg, None).expect("validity probes run"),
            "sketch returned an invalid package: {pkg}"
        );
    }
    let frp_top = finite(inst.val.eval(&sel[0]));
    eprintln!(
        "frp: {frp_seconds:.2}s, top val {frp_top}, {} packages, interrupted={}",
        sel.len(),
        frp_out.interrupted.is_some(),
    );

    // MBP maximum bound at scale.
    let started = Instant::now();
    let mbp_out = mbp::maximum_bound(&inst, &approx_opts()).expect("sketch solve");
    let mbp_seconds = started.elapsed().as_secs_f64();
    assert!(!mbp_out.exact);
    assert_eq!(mbp_out.method, Method::Sketch);
    let bound = finite(mbp_out.value.expect("a full selection exists"));
    eprintln!("mbp: {mbp_seconds:.2}s, bound {bound}");

    // Quality ratio on a small same-distribution instance the exact
    // solver can certify.
    let small = instance(ITEMS_EXACT);
    let exact_out = frp::top_k(&small, &SolveOptions::default()).expect("exact solve");
    assert!(exact_out.exact, "the reference must be certified");
    let exact_top = finite(small.val.eval(&exact_out.value.expect("feasible")[0]));
    let approx_out = frp::top_k(
        &small,
        &SolveOptions::default().with_approx(SketchParams {
            fanout: 4,
            leaf_cap: 4,
            ..SketchParams::default()
        }),
    )
    .expect("sketch solve");
    let approx_top = finite(small.val.eval(&approx_out.value.expect("feasible")[0]));
    let ratio = approx_top / exact_top;
    assert!(ratio > 0.0, "the sketch engine found nothing on a feasible instance");
    assert!(
        ratio <= 1.0 + 1e-9,
        "approximate ({approx_top}) beat the certified optimum ({exact_top})"
    );
    eprintln!("quality on {ITEMS_EXACT} items: approx {approx_top} / exact {exact_top} = {ratio:.4}");

    let json = format!(
        "{{\"bench\":\"SketchRefine frp/mbp on a synthetic catalog\",\
\"items\":{items},\"k\":{K},\"budget\":{BUDGET},\
\"frp\":{{\"seconds\":{frp_seconds:.6},\"top_val\":{frp_top},\"packages\":{},\
\"valid\":true,\"interrupted\":{}}},\
\"mbp\":{{\"seconds\":{mbp_seconds:.6},\"bound\":{bound}}},\
\"quality\":{{\"items\":{ITEMS_EXACT},\"exact\":{exact_top},\"approx\":{approx_top},\
\"ratio\":{ratio:.6}}},\"peak_rss_mb\":{}}}",
        sel.len(),
        mbp_out.interrupted.is_some() || frp_out.interrupted.is_some(),
        peak_rss_mb(),
    );
    pkgrec_trace::json::validate_object(&json).expect("report is valid JSON");
    std::fs::write(&out_path, format!("{json}\n")).expect("write output file");
    eprintln!("wrote {out_path}");
}
