//! `parallel_speedup` — measure the package-space engine at jobs = N
//! against jobs = 1 on a pruning-free search.
//!
//! The workload is CPP over `N` items under an unlimited cost budget:
//! every one of the `2^N` subsets is enumerated, so the whole search is
//! parallel work with no early exit — the cleanest speedup measurement
//! the engine admits. Each `--jobs` level is timed best-of-[`REPS`],
//! and every level must return the *same* count as `--jobs 1` (the
//! bench doubles as an equivalence check).
//!
//! Speedup is bounded by the cores the host actually has; the report
//! records `available_cores` — both globally and per run, since cgroup
//! limits can shift mid-bench — so a ~1.0× result on a single-core
//! runner reads as a host limit, not an engine regression. On hosts
//! with ≥ 2 cores, full-size runs must clear a conservative ≥ 1.2×
//! gate at some jobs level and the report says `"gated": true`; on a
//! single core the gate is refused outright (`"gated": false`) rather
//! than asserted against numbers the host cannot produce.
//!
//! ```sh
//! cargo run --release -p pkgrec-bench --bin parallel_speedup -- BENCH_parallel_speedup.json
//! ```
//!
//! `--smoke` shrinks the space to `2^14` packages for CI shape checks.

use std::time::Duration;

use pkgrec_bench::time_best_of;
use pkgrec_core::{problems::cpp, Ext, PackageFn, RecInstance, SolveOptions};
use pkgrec_data::{tuple, AttrType, Database, Relation, RelationSchema};
use pkgrec_query::{ConjunctiveQuery, Query};

/// Best-of repetitions per jobs level.
const REPS: usize = 3;
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

fn run(inst: &RecInstance, jobs: usize) -> (Duration, u128, usize) {
    let cores = cores_now();
    let opts = SolveOptions::default().with_jobs(jobs);
    let mut count = 0;
    let t = time_best_of(REPS, || {
        let out = cpp::count_valid(inst, Ext::NegInf, &opts).expect("solves");
        assert!(out.exact, "unlimited budget always finishes");
        count = out.value;
        count
    });
    (t, count, cores)
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

    let (base, base_count, base_cores) = run(&inst, 1);
    let mut runs = vec![(1usize, base, 1.0f64, base_cores)];
    for jobs in [2usize, 4] {
        let (t, count, run_cores) = run(&inst, jobs);
        assert_eq!(count, base_count, "jobs={jobs} must agree with jobs=1");
        runs.push((jobs, t, base.as_secs_f64() / t.as_secs_f64(), run_cores));
        eprintln!(
            "jobs {jobs}: {t:?} ({:.2}x vs jobs 1 {base:?}, {run_cores} cores)",
            base.as_secs_f64() / t.as_secs_f64()
        );
    }

    // The speedup gate only means something when the host can actually
    // run two workers at once; a single-core runner refuses the gate
    // instead of failing it.
    let gated = !smoke && cores >= 2;
    if gated {
        let best = runs
            .iter()
            .map(|&(_, _, speedup, _)| speedup)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            best >= 1.2,
            "with {cores} cores some jobs level must clear 1.2x, got best {best:.2}x"
        );
    }

    let runs_json: Vec<String> = runs
        .iter()
        .map(|(jobs, t, speedup, run_cores)| {
            format!(
                "{{\"jobs\":{jobs},\"seconds\":{:.6},\"speedup\":{speedup:.3},\
\"available_cores\":{run_cores}}}",
                t.as_secs_f64()
            )
        })
        .collect();
    let json = format!(
        "{{\"bench\":\"cpp.count_valid, identity query, no pruning\",\
\"packages\":{},\"reps\":{REPS},\"available_cores\":{cores},\"gated\":{gated},\"runs\":[{}]}}",
        1u64 << items,
        runs_json.join(",")
    );
    pkgrec_trace::json::validate_object(&json).expect("report is valid JSON");
    std::fs::write(&out_path, format!("{json}\n")).expect("write output file");
    eprintln!("wrote {out_path}");
}
