//! `columnar_throughput` — posting-intersection fast path versus the
//! row path, on the two probe shapes the columnar layer accelerates:
//!
//! * `dense_cq_membership` — candidate-membership probes `t ∈ Q(D)`
//!   for the identity CQ over a wide, low-cardinality relation (every
//!   column holds a handful of distinct values, so per-column
//!   candidate lists are thousands of rows long). The row path probes
//!   one column's postings and scans its candidates; the fast path
//!   intersects the columns' postings — here every value is on more
//!   than `rows/32` rows, so all are bitsets, AND-ed word by word.
//!   Bitmap indexes classically win exactly here: dense columns,
//!   selective conjunctions, and *absent* rows (the row path must
//!   exhaust a candidate list to say "no").
//! * `qc_banned_combo` — the antimonotone compatibility probe
//!   `Qc(N, D) = ∅`? where `Qc() :- RQ(x, c1, c2, c3), banned(c1,
//!   c2, c3)` rejects any item whose category columns form a banned
//!   combination. The dynamic atom binds all three categories, so the
//!   `banned` atom is a fully-bound existence step — the shape the
//!   greedy join order makes intersection-eligible (a pairwise
//!   `conflict(c1, c2)` across *two* dynamic atoms is placed after
//!   only one category is bound and stays on the row path; the
//!   columnar-vs-row equivalence suite covers that shape for
//!   correctness). 32 values over 28k rows sit at the `rows/32`
//!   container threshold, so about half the postings are sorted runs
//!   and most probes intersect a run with bitsets.
//!
//! Both sides run the *same* compiled plan — the slow side is the
//! plan with [`CompiledPlan::with_bitsets`] disabled, i.e. the
//! compiled row path. Every timed closure re-checks answers against
//! precomputed expectations, so a speedup can never come from wrong
//! answers, and an untimed pre-pass asserts `query.bitset_probes`
//! actually fired (a planner change that silently de-classifies the
//! existence steps would otherwise make this bench vacuous).
//!
//! ```sh
//! cargo run --release -p pkgrec-bench --bin columnar_throughput -- BENCH_columnar_throughput.json
//! ```
//!
//! `--smoke` shrinks the relations and probe counts for CI shape
//! checks (and skips the ≥ 2× assertions, which only full-size runs
//! must meet).

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use pkgrec_bench::time_best_of;
use pkgrec_core::ANSWER_RELATION;
use pkgrec_data::{tuple, AttrType, Database, Relation, RelationSchema, Tuple};
use pkgrec_query::{ConjunctiveQuery, Query, RelAtom, Term};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Best-of repetitions per side.
const REPS: usize = 3;

struct WorkloadResult {
    name: &'static str,
    probes: usize,
    rows: usize,
    bitset_probes: u64,
    row: Duration,
    bitset: Duration,
}

impl WorkloadResult {
    fn speedup(&self) -> f64 {
        self.row.as_secs_f64() / self.bitset.as_secs_f64()
    }

    fn to_json(&self) -> String {
        let r = self.row.as_secs_f64();
        let b = self.bitset.as_secs_f64();
        format!(
            "{{\"name\":\"{}\",\"probes\":{},\"rows\":{},\"bitset_probes\":{},\
\"row_seconds\":{r:.6},\"bitset_seconds\":{b:.6},\"row_probes_per_sec\":{:.1},\
\"bitset_probes_per_sec\":{:.1},\"speedup\":{:.3}}}",
            self.name,
            self.probes,
            self.rows,
            self.bitset_probes,
            self.probes as f64 / r,
            self.probes as f64 / b,
            self.speedup()
        )
    }
}

/// Count the `query.bitset_probes` emitted by `f`, asserting the fast
/// path is actually live for this workload.
fn assert_bitsets_fire(f: impl FnOnce()) -> u64 {
    let _scope = pkgrec_trace::scoped();
    pkgrec_trace::reset();
    f();
    let probes = pkgrec_trace::take()
        .counters
        .get("query.bitset_probes")
        .copied()
        .unwrap_or(0);
    assert!(
        probes > 0,
        "the bitset fast path never fired — the workload no longer \
         compiles to fully-bound existence steps"
    );
    probes
}

/// Membership probes on the identity CQ over `wide(a, b, c, d)` with
/// `vals` distinct values per column: half the probes are present
/// rows, half are absent combinations of *present* values (the row
/// path must exhaust a candidate list to reject them).
fn dense_cq_membership(smoke: bool) -> WorkloadResult {
    let mut rng = StdRng::seed_from_u64(17);
    let (vals, rows, n_probes) = if smoke { (8i64, 1_500, 200) } else { (16i64, 40_000, 4_000) };

    let schema = RelationSchema::new(
        "wide",
        [
            ("a", AttrType::Int),
            ("b", AttrType::Int),
            ("c", AttrType::Int),
            ("d", AttrType::Int),
        ],
    )
    .expect("valid schema");
    let mut rel = Relation::empty(schema);
    while rel.len() < rows {
        rel.insert(tuple![
            rng.gen_range(0..vals),
            rng.gen_range(0..vals),
            rng.gen_range(0..vals),
            rng.gen_range(0..vals)
        ])
        .expect("schema-conformant");
    }
    let present: Vec<Tuple> = rel.iter().cloned().collect();
    let mut db = Database::new();
    db.add_relation(rel).expect("fresh db");
    let db = Arc::new(db);

    let q = Query::Cq(ConjunctiveQuery::identity("wide", 4));
    let probes: Vec<Tuple> = (0..n_probes)
        .map(|i| {
            if i % 2 == 0 {
                present[rng.gen_range(0..present.len())].clone()
            } else {
                // Absent with high probability (rows/vals⁴ of the cube
                // is present); a collision just becomes a true probe.
                tuple![
                    rng.gen_range(0..vals),
                    rng.gen_range(0..vals),
                    rng.gen_range(0..vals),
                    rng.gen_range(0..vals)
                ]
            }
        })
        .collect();

    let bitset_plan = q.compile(&db).expect("identity CQ compiles");
    let row_plan = q.compile(&db).expect("identity CQ compiles").with_bitsets(false);
    let expected: Vec<bool> = probes
        .iter()
        .map(|t| row_plan.contains(t, None, None).expect("membership evaluates"))
        .collect();

    let bitset_probes = assert_bitsets_fire(|| {
        for (t, want) in probes.iter().zip(&expected) {
            assert_eq!(bitset_plan.contains(t, None, None).unwrap(), *want);
        }
    });
    let row = time_best_of(REPS, || {
        for (t, want) in probes.iter().zip(&expected) {
            assert_eq!(
                row_plan.contains(t, None, None).expect("membership evaluates"),
                *want,
                "row-path membership diverged"
            );
        }
    });
    let bitset = time_best_of(REPS, || {
        for (t, want) in probes.iter().zip(&expected) {
            assert_eq!(
                bitset_plan.contains(t, None, None).expect("membership evaluates"),
                *want,
                "bitset membership diverged"
            );
        }
    });
    WorkloadResult {
        name: "dense_cq_membership",
        probes: probes.len(),
        rows,
        bitset_probes,
        row,
        bitset,
    }
}

/// Antimonotone compatibility probes: `Qc(N, D) = ∅`? where `Qc`
/// rejects any item whose `(c1, c2, c3)` categories form a banned
/// combination. Most packages are conflict-free, so the probe usually
/// ends with an *empty* intersection — the case where the row path
/// scans a whole candidate list and the bitset path AND-folds words.
fn qc_banned_combo(smoke: bool) -> WorkloadResult {
    let mut rng = StdRng::seed_from_u64(19);
    let (vals, rows, n_items, n_packages) =
        if smoke { (12i64, 800, 60, 100) } else { (32i64, 28_000, 2_000, 2_000) };

    let schema = RelationSchema::new(
        "banned",
        [
            ("c1", AttrType::Int),
            ("c2", AttrType::Int),
            ("c3", AttrType::Int),
        ],
    )
    .expect("valid schema");
    let mut banned = Relation::empty(schema);
    while banned.len() < rows {
        banned
            .insert(tuple![
                rng.gen_range(0..vals),
                rng.gen_range(0..vals),
                rng.gen_range(0..vals)
            ])
            .expect("schema-conformant");
    }
    let banned_set: BTreeSet<Tuple> = banned.iter().cloned().collect();
    let mut db = Database::new();
    db.add_relation(banned).expect("fresh db");
    let db = Arc::new(db);

    // Item pool: ids with random category columns; most triples are
    // *not* banned (rows/vals³ of the cube is), so packages drawn from
    // the pool are usually conflict-free.
    let items: Vec<Tuple> = (0..n_items)
        .map(|i| {
            tuple![
                i as i64,
                rng.gen_range(0..vals),
                rng.gen_range(0..vals),
                rng.gen_range(0..vals)
            ]
        })
        .collect();
    let packages: Vec<Vec<Tuple>> = (0..n_packages)
        .map(|_| {
            let size = rng.gen_range(1..=8usize);
            (0..size)
                .map(|_| items[rng.gen_range(0..items.len())].clone())
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect()
        })
        .collect();

    let qc = Query::Cq(ConjunctiveQuery::new(
        Vec::<Term>::new(),
        vec![
            RelAtom::new(
                ANSWER_RELATION,
                vec![Term::v("x"), Term::v("c1"), Term::v("c2"), Term::v("c3")],
            ),
            RelAtom::new("banned", vec![Term::v("c1"), Term::v("c2"), Term::v("c3")]),
        ],
        vec![],
    ));
    let bitset_plan = qc
        .compile_with_dynamic(&db, ANSWER_RELATION, 4)
        .expect("Qc compiles");
    let row_plan = qc
        .compile_with_dynamic(&db, ANSWER_RELATION, 4)
        .expect("Qc compiles")
        .with_bitsets(false);
    // Ground truth straight from the banned set, independent of either
    // evaluation path.
    let expected: Vec<bool> = packages
        .iter()
        .map(|pkg| {
            pkg.iter()
                .any(|t| banned_set.contains(&tuple![t[1].clone(), t[2].clone(), t[3].clone()]))
        })
        .collect();

    let bitset_probes = assert_bitsets_fire(|| {
        for (pkg, want) in packages.iter().zip(&expected) {
            assert_eq!(bitset_plan.has_answer_dynamic(pkg.iter(), None, None).unwrap(), *want);
        }
    });
    let row = time_best_of(REPS, || {
        for (pkg, want) in packages.iter().zip(&expected) {
            assert_eq!(
                row_plan
                    .has_answer_dynamic(pkg.iter(), None, None)
                    .expect("Qc probe evaluates"),
                *want,
                "row-path Qc probe diverged"
            );
        }
    });
    let bitset = time_best_of(REPS, || {
        for (pkg, want) in packages.iter().zip(&expected) {
            assert_eq!(
                bitset_plan
                    .has_answer_dynamic(pkg.iter(), None, None)
                    .expect("Qc probe evaluates"),
                *want,
                "bitset Qc probe diverged"
            );
        }
    });
    WorkloadResult {
        name: "qc_banned_combo",
        probes: packages.len(),
        rows,
        bitset_probes,
        row,
        bitset,
    }
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
    let out_path = out_path.unwrap_or_else(|| "BENCH_columnar_throughput.json".to_string());

    let results = [dense_cq_membership(smoke), qc_banned_combo(smoke)];
    for r in &results {
        eprintln!(
            "{}: {} probes over {} rows, row {:?}, bitset {:?} ({:.2}x, {} bitset probes)",
            r.name,
            r.probes,
            r.rows,
            r.row,
            r.bitset,
            r.speedup(),
            r.bitset_probes
        );
    }
    if !smoke {
        for r in &results {
            assert!(
                r.speedup() >= 2.0,
                "{}: bitset probes must be ≥ 2x the row path, got {:.2}x",
                r.name,
                r.speedup()
            );
        }
    }

    let workloads: Vec<String> = results.iter().map(WorkloadResult::to_json).collect();
    let json = format!(
        "{{\"bench\":\"columnar bitset vs row-path probe throughput\",\
\"reps\":{REPS},\"smoke\":{smoke},\"workloads\":[{}]}}",
        workloads.join(",")
    );
    pkgrec_trace::json::validate_object(&json).expect("report is valid JSON");
    std::fs::write(&out_path, format!("{json}\n")).expect("write output file");
    eprintln!("wrote {out_path}");
}
