//! `parallel_speedup` — measure the package-space engine at jobs = N
//! against jobs = 1 on a pruning-free search.
//!
//! The workload is CPP over `N` items under an unlimited cost budget:
//! every one of the `2^N` subsets is enumerated, so the whole search is
//! parallel work with no early exit — the cleanest speedup measurement
//! the engine admits. The jobs levels are timed in [`ROUNDS`]
//! interleaved rounds (jobs 1, 2, 4, then again), so a burst of host
//! noise lands on one round's levels alike instead of on one level's
//! whole block. Each level's speedup is the median of its per-round
//! ratios against that round's jobs 1 time, and the report lists the
//! min/median/max of times and ratios per level. Every run must return
//! the *same* count as the first jobs-1 run (the bench doubles as an
//! equivalence check).
//!
//! Speedup is bounded by the cores the host actually has; the report
//! records `available_cores` — both globally and per level (the least
//! seen over its runs), since cgroup limits can shift mid-bench — so a
//! ~1.0× result on a single-core runner reads as a host limit, not an
//! engine regression. On hosts with ≥ 2 cores, full-size runs must
//! clear a conservative ≥ 1.2× median speedup at some jobs level and
//! the report says `"gated": true`; on a single core the gate is
//! refused outright (`"gated": false`) rather than asserted against
//! numbers the host cannot produce.
//!
//! ```sh
//! cargo run --release -p pkgrec-bench --bin parallel_speedup -- BENCH_parallel_speedup.json
//! ```
//!
//! `--smoke` shrinks the space to `2^14` packages for CI shape checks.

use std::time::Instant;

use pkgrec_core::{problems::cpp, Ext, PackageFn, RecInstance, SolveOptions};
use pkgrec_data::{tuple, AttrType, Database, Relation, RelationSchema};
use pkgrec_query::{ConjunctiveQuery, Query};

/// Interleaved rounds; each times every jobs level once.
const ROUNDS: usize = 5;
/// The jobs levels of a round, in the order it times them.
const LEVELS: [usize; 3] = [1, 2, 4];
/// log2 of the package space: the full run covers ≥ 2^20 packages.
const ITEMS: usize = 20;
const ITEMS_SMOKE: usize = 14;

/// `n` integer items under an identity query, unlimited cost budget,
/// val = sum of item ids: nothing prunes, so the search visits all
/// `2^n` subsets.
fn instance(n: usize) -> RecInstance {
    let schema = RelationSchema::new("item", [("id", AttrType::Int)]).expect("valid schema");
    let rel = Relation::from_tuples(schema, (0..n).map(|i| tuple![i as i64]))
        .expect("schema-conformant");
    let mut db = Database::new();
    db.add_relation(rel).expect("fresh db");
    RecInstance::new(db, Query::Cq(ConjunctiveQuery::identity("item", 1)))
        .with_val(PackageFn::sum_col(0, true))
}

/// Cores the scheduler will actually give us right now.
fn cores_now() -> usize {
    std::thread::available_parallelism().map_or(0, usize::from)
}

/// One timed count at `jobs`: seconds and the count.
fn run(inst: &RecInstance, jobs: usize) -> (f64, u128) {
    let opts = SolveOptions::default().with_jobs(jobs);
    let start = Instant::now();
    let out = cpp::count_valid(inst, Ext::NegInf, &opts).expect("solves");
    let seconds = start.elapsed().as_secs_f64();
    assert!(out.exact, "unlimited budget always finishes");
    (seconds, out.value)
}

/// `(min, median, max)` of a non-empty sample.
fn spread(mut xs: Vec<f64>) -> (f64, f64, f64) {
    xs.sort_by(f64::total_cmp);
    (xs[0], xs[xs.len() / 2], xs[xs.len() - 1])
}

fn spread_json((min, median, max): (f64, f64, f64), digits: usize) -> String {
    format!("{{\"min\":{min:.digits$},\"median\":{median:.digits$},\"max\":{max:.digits$}}}")
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
    let out_path = out_path.unwrap_or_else(|| "BENCH_parallel_speedup.json".to_string());

    let items = if smoke { ITEMS_SMOKE } else { ITEMS };
    let cores = cores_now();
    let inst = instance(items);

    // seconds[level][round], and the fewest cores seen per level.
    let mut seconds = vec![Vec::with_capacity(ROUNDS); LEVELS.len()];
    let mut level_cores = vec![usize::MAX; LEVELS.len()];
    let mut expected = None;
    for _ in 0..ROUNDS {
        for (level, &jobs) in LEVELS.iter().enumerate() {
            level_cores[level] = level_cores[level].min(cores_now());
            let (t, count) = run(&inst, jobs);
            let want = *expected.get_or_insert(count);
            assert_eq!(count, want, "jobs={jobs} must agree with jobs=1");
            seconds[level].push(t);
        }
    }
    let speedups: Vec<Vec<f64>> = seconds
        .iter()
        .map(|times| times.iter().zip(&seconds[0]).map(|(t, base)| base / t).collect())
        .collect();
    let medians: Vec<f64> = speedups.iter().map(|s| spread(s.clone()).1).collect();
    for (level, &jobs) in LEVELS.iter().enumerate().skip(1) {
        let (min, median, max) = spread(speedups[level].clone());
        eprintln!(
            "jobs {jobs}: median {median:.2}x vs jobs 1 over {ROUNDS} rounds \
(min {min:.2}x, max {max:.2}x, {} cores)",
            level_cores[level]
        );
    }

    // The speedup gate only means something when the host can actually
    // run two workers at once; a single-core runner refuses the gate
    // instead of failing it.
    let gated = !smoke && cores >= 2;
    if gated {
        let best = medians.iter().skip(1).copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            best >= 1.2,
            "with {cores} cores some jobs level must clear 1.2x, got best median {best:.2}x"
        );
    }

    let runs_json: Vec<String> = LEVELS
        .iter()
        .enumerate()
        .map(|(level, jobs)| {
            format!(
                "{{\"jobs\":{jobs},\"seconds\":{},\"speedup\":{},\"available_cores\":{}}}",
                spread_json(spread(seconds[level].clone()), 6),
                spread_json(spread(speedups[level].clone()), 3),
                level_cores[level]
            )
        })
        .collect();
    let json = format!(
        "{{\"bench\":\"cpp.count_valid, identity query, no pruning\",\
\"packages\":{},\"rounds\":{ROUNDS},\"available_cores\":{cores},\"gated\":{gated},\"runs\":[{}]}}",
        1u64 << items,
        runs_json.join(",")
    );
    pkgrec_trace::json::validate_object(&json).expect("report is valid JSON");
    std::fs::write(&out_path, format!("{json}\n")).expect("write output file");
    eprintln!("wrote {out_path}");
}
