//! Model, sharing and memory checks for the columnar evaluation layer
//! (the database snapshot and its postings):
//!
//! * `ItemBitset` against a `BTreeSet<u32>` model — every mutating and
//!   combining op must agree with ordinary set semantics;
//! * postings against a `BTreeSet<u32>` model — each value's rows, its
//!   container (sorted run, plus a bitset past `rows/32`), and the
//!   intersection of sparse, dense and mixed postings;
//! * the posting-intersection fast path against the row path — the
//!   same compiled plan with it on and off must produce identical
//!   answers for full evaluation, membership probes and
//!   antimonotone-Qc dynamic probes, across CQ and UCQ workloads;
//! * metered runs — a budget meter forces the fast plan onto the row
//!   path, so tick accounting stays bit-identical to the row plan;
//! * sharing and memory — plans and one-shot calls against one epoch
//!   share its postings, a mutation rebuilds them, concurrent first
//!   touches build a posting once, and a unique-key column's postings
//!   stay under 16 bytes per row.
//!
//! The answers of the posting path and the row path are also checked
//! against the oracle in `tests/oracle_matrix.rs`, on mixed columns too.

mod common;

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;

use common::{cq_strategy, db_strategy, dyn_cq_strategy, rs_db};
use pkgrec::core::ANSWER_RELATION;
use pkgrec::data::{
    tuple, AttrType, Database, ItemBitset, Posting, Relation, RelationSchema, Table, Tuple,
};
use pkgrec::query::{Budget, ConjunctiveQuery, EvalContext, Query, RelAtom, Term, UnionQuery};

// ---------------------------------------------------------------------
// ItemBitset vs BTreeSet<u32> model
// ---------------------------------------------------------------------

/// One step of a random op sequence against the model.
#[derive(Debug, Clone)]
enum Op {
    Insert(u32),
    Remove(u32),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u32..200).prop_map(Op::Insert),
        (0u32..200).prop_map(Op::Remove),
    ]
}

fn id_set_strategy() -> impl Strategy<Value = BTreeSet<u32>> {
    prop::collection::btree_set(0u32..200, 0..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Mutating ops agree with the model step for step, and the final
    /// set reads back identically through every accessor.
    #[test]
    fn bitset_ops_match_btreeset_model(ops in prop::collection::vec(op_strategy(), 0..60)) {
        let mut bits = ItemBitset::new();
        let mut model: BTreeSet<u32> = BTreeSet::new();
        for op in ops {
            match op {
                Op::Insert(id) => {
                    prop_assert_eq!(bits.insert(id), model.insert(id));
                }
                Op::Remove(id) => {
                    prop_assert_eq!(bits.remove(id), model.remove(&id));
                }
            }
        }
        prop_assert_eq!(bits.count_ones(), model.len());
        prop_assert_eq!(bits.is_empty(), model.is_empty());
        for id in 0..200 {
            prop_assert_eq!(bits.contains(id), model.contains(&id));
        }
        prop_assert_eq!(bits.iter_ones().collect::<Vec<_>>(),
                        model.iter().copied().collect::<Vec<_>>());
    }

    /// Combining ops are ordinary set algebra: ∧ is intersection, ∨ is
    /// union, ∧¬ is difference; the in-place forms agree with the
    /// owned forms, and the emptiness probes agree with the results.
    #[test]
    fn bitset_algebra_matches_set_algebra(a in id_set_strategy(), b in id_set_strategy()) {
        let ba: ItemBitset = a.iter().copied().collect();
        let bb: ItemBitset = b.iter().copied().collect();

        let and_model: Vec<u32> = a.intersection(&b).copied().collect();
        let or_model: Vec<u32> = a.union(&b).copied().collect();
        let andnot_model: Vec<u32> = a.difference(&b).copied().collect();
        prop_assert_eq!(ba.and(&bb).iter_ones().collect::<Vec<_>>(), and_model.clone());
        prop_assert_eq!(ba.or(&bb).iter_ones().collect::<Vec<_>>(), or_model.clone());
        prop_assert_eq!(ba.andnot(&bb).iter_ones().collect::<Vec<_>>(), andnot_model.clone());

        let mut inplace = ba.clone();
        inplace.and_assign(&bb);
        prop_assert_eq!(inplace.iter_ones().collect::<Vec<_>>(), and_model.clone());
        let mut inplace = ba.clone();
        inplace.or_assign(&bb);
        prop_assert_eq!(inplace.iter_ones().collect::<Vec<_>>(), or_model.clone());
        let mut inplace = ba.clone();
        inplace.andnot_assign(&bb);
        prop_assert_eq!(inplace.iter_ones().collect::<Vec<_>>(), andnot_model.clone());

        prop_assert_eq!(ba.intersects(&bb), !and_model.is_empty());
        prop_assert_eq!(
            ItemBitset::intersection_nonempty(&[&ba, &bb]),
            !and_model.is_empty()
        );
        prop_assert_eq!(ItemBitset::intersection_nonempty(&[&ba]), !a.is_empty());
    }
}

// ---------------------------------------------------------------------
// Postings vs BTreeSet<u32> model
// ---------------------------------------------------------------------

/// A 3-column table of 32..300 rows. Each column draws from 1..=4
/// values (every value dense), 20..40 values (around the `rows/32`
/// threshold) or 40..400 values (sparse, with the odd dense value), so
/// probes meet sparse, dense and mixed postings.
fn table_strategy() -> impl Strategy<Value = (usize, Vec<Vec<u32>>)> {
    let cards = prop::collection::vec(prop_oneof![1u32..5, 20u32..40, 40u32..400], 3);
    (32usize..300, cards).prop_flat_map(|(rows, cards)| {
        let cols: Vec<_> = cards
            .into_iter()
            .map(|c| prop::collection::vec(0..c, rows))
            .collect();
        cols.prop_map(move |cols| (rows, cols))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Each value's posting is its rows, ascending, with a bitset iff
    /// it holds more than `rows/32` of them; and intersecting postings
    /// over any subset of columns agrees with intersecting the model
    /// sets, for probes taken from a row, from random values, and a
    /// mix of both.
    #[test]
    fn posting_intersection_matches_btreeset_model(
        (rows, cols) in table_strategy(),
        pick in 0usize..1000,
        random in prop::collection::vec(0u32..8, 3),
    ) {
        let cells = (0..rows).flat_map(|r| cols.iter().map(move |c| c[r])).collect();
        let table = Table::new(3, rows, cells);
        let model = |col: usize, v: u32| -> BTreeSet<u32> {
            (0..rows as u32).filter(|&r| cols[col][r as usize] == v).collect()
        };
        for (col, values) in cols.iter().enumerate() {
            for &v in values.iter().collect::<BTreeSet<_>>() {
                let p = table.postings(col).get(v).expect("a present value has a posting");
                let want: Vec<u32> = model(col, v).into_iter().collect();
                prop_assert_eq!(p.rows, &want[..]);
                prop_assert_eq!(p.bits.is_some(), want.len() > rows / 32);
                if let Some(bits) = p.bits {
                    prop_assert_eq!(bits.iter_ones().collect::<Vec<_>>(), want.clone());
                }
            }
        }
        let hit: Vec<u32> = cols.iter().map(|c| c[pick % rows]).collect();
        let mut half = hit.clone();
        half[pick % 3] = random[pick % 3];
        for probe in [hit, half, random] {
            for mask in 1u32..8 {
                let chosen: Vec<usize> = (0..3).filter(|c| mask & (1 << c) != 0).collect();
                let want = chosen
                    .iter()
                    .map(|&c| model(c, probe[c]))
                    .reduce(|a, b| a.intersection(&b).copied().collect())
                    .is_some_and(|rows| !rows.is_empty());
                let postings: Option<Vec<Posting>> =
                    chosen.iter().map(|&c| table.postings(c).get(probe[c])).collect();
                let got = postings.is_some_and(|ps| Posting::intersects_all(&ps));
                prop_assert_eq!(got, want, "probe {:?} on columns {:?}", probe, chosen);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Posting fast path vs row path on compiled plans
// ---------------------------------------------------------------------

/// CQ and UCQ over `a` and `b`: the same plan with the fast path on
/// and off answers full evaluation and membership probes identically,
/// for answers and out-of-domain tuples alike.
fn membership_paths_agree(
    db: &Arc<Database>,
    a: ConjunctiveQuery,
    b: ConjunctiveQuery,
) -> Result<(), TestCaseError> {
    let ucq = UnionQuery::new(vec![a.clone(), b]).expect("same arity");
    for q in [Query::Cq(a), Query::Ucq(ucq)] {
        let fast = q.compile(db).unwrap();
        let slow = q.compile(db).unwrap().with_bitsets(false);
        let answers = fast.eval(None, None).unwrap();
        prop_assert_eq!(&answers, &slow.eval(None, None).unwrap(), "on {}", q);
        let probes: Vec<Tuple> = answers
            .iter()
            .take(4)
            .cloned()
            .chain([tuple![0, 0], tuple![3, 1], tuple![99, 99]])
            .collect();
        for t in &probes {
            prop_assert_eq!(
                fast.contains(t, None, None).unwrap(),
                slow.contains(t, None, None).unwrap(),
                "membership of {} on {}", t, q
            );
            prop_assert_eq!(
                fast.eval_pre_bound(t, None, None).unwrap(),
                slow.eval_pre_bound(t, None, None).unwrap(),
                "pre-bound {} on {}", t, q
            );
        }
    }
    Ok(())
}

/// A dynamic `Qc` probe with the package `items` bound: emptiness and
/// full dynamic evaluation agree with the fast path on and off.
fn qc_paths_agree(
    db: &Arc<Database>,
    qc: ConjunctiveQuery,
    items: &BTreeSet<(i64, i64)>,
) -> Result<(), TestCaseError> {
    let tuples: Vec<Tuple> = items.iter().map(|&(a, b)| tuple![a, b]).collect();
    let q = Query::Cq(qc);
    let fast = q.compile_with_dynamic(db, ANSWER_RELATION, 2).unwrap();
    let slow = q.compile_with_dynamic(db, ANSWER_RELATION, 2).unwrap().with_bitsets(false);
    prop_assert_eq!(
        fast.has_answer_dynamic(tuples.iter(), None, None).unwrap(),
        slow.has_answer_dynamic(tuples.iter(), None, None).unwrap(),
        "on {}", q
    );
    prop_assert_eq!(
        fast.eval_dynamic(tuples.iter(), None, None).unwrap(),
        slow.eval_dynamic(tuples.iter(), None, None).unwrap(),
        "on {}", q
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CQ and UCQ: the same plan with bitsets on and off answers full
    /// evaluation and membership probes identically, for answers and
    /// out-of-domain tuples alike.
    #[test]
    fn bitset_path_matches_row_path(
        db in db_strategy(),
        a in cq_strategy(),
        b in cq_strategy(),
    ) {
        membership_paths_agree(&Arc::new(db), a, b)?;
    }

    /// Antimonotone-Qc dynamic probes (the pairwise-conflict and
    /// banned-combination shapes among them): emptiness and full
    /// dynamic evaluation agree between the two paths for random
    /// packages.
    #[test]
    fn qc_dynamic_probes_match_row_path(
        db in db_strategy(),
        qc in dyn_cq_strategy(),
        items in prop::collection::btree_set((0i64..4, 0i64..4), 0..5),
    ) {
        qc_paths_agree(&Arc::new(db), qc, &items)?;
    }
}

// ---------------------------------------------------------------------
// Metered probes on compiled plans
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Metered probes: a budget meter disables the bitset shortcut, so
    /// the fast plan charges exactly the row plan's ticks — same
    /// outcome and same spent count at every cutoff.
    #[test]
    fn metered_probes_stay_tick_identical(db in db_strategy(), cq in cq_strategy()) {
        let db = Arc::new(db);
        let q = Query::Cq(cq);
        let fast = q.compile(&db).unwrap();
        let slow = q.compile(&db).unwrap().with_bitsets(false);
        let unlimited = Budget::with_steps(u64::MAX).meter();
        let full = slow.eval(None, Some(&unlimited)).unwrap();
        let used = unlimited.spent();
        for steps in [used.saturating_sub(1), used] {
            let fm = Budget::with_steps(steps).meter();
            let sm = Budget::with_steps(steps).meter();
            let lhs = fast.eval(None, Some(&fm));
            let rhs = slow.eval(None, Some(&sm));
            match (&lhs, &rhs) {
                (Ok(l), Ok(r)) => {
                    prop_assert_eq!(l, r, "on {} with {} steps", q, steps);
                    prop_assert_eq!(l, &full, "on {} with {} steps", q, steps);
                }
                (Err(_), Err(_)) => {}
                _ => prop_assert!(
                    false,
                    "divergent outcomes on {} with {} steps: {:?} vs {:?}",
                    q, steps, lhs, rhs
                ),
            }
            prop_assert_eq!(fm.spent(), sm.spent(), "tick drift on {} at {}", q, steps);
        }
    }
}

// ---------------------------------------------------------------------
// One snapshot per epoch: sharing and memory
// ---------------------------------------------------------------------

/// `query.index_builds` counted on this thread while `run` runs.
fn index_builds(run: impl FnOnce()) -> u64 {
    pkgrec_trace::reset();
    run();
    let report = pkgrec_trace::take();
    report.counters.get("query.index_builds").copied().unwrap_or(0)
}

/// Plans and one-shot calls against one epoch share its snapshot, so
/// only the first touch of a column builds its postings; a clone
/// shares the snapshot too, and a mutation starts a new one.
#[test]
fn compiles_and_one_shot_calls_share_one_epochs_postings() {
    let _scope = pkgrec_trace::scoped();
    let db = Arc::new(rs_db((0..40).map(|i| (i % 3, i)).collect(), [1].into()));
    let q = Query::Cq(ConjunctiveQuery::identity("r", 2));
    let member = tuple![1, 4];
    // Membership of the identity query is one existence step over
    // both of r's columns.
    let first = index_builds(|| {
        let plan = q.compile(&db).unwrap();
        assert!(plan.contains(&member, None, None).unwrap());
    });
    assert_eq!(first, 2);
    let again = index_builds(|| {
        let plan = q.compile(&db).unwrap();
        assert!(plan.contains(&member, None, None).unwrap());
        assert!(q.contains(&db, &member).unwrap());
        assert_eq!(q.eval(&db).unwrap().len(), 40);
        let qc = Query::Cq(ConjunctiveQuery::new(
            Vec::<Term>::new(),
            vec![
                RelAtom::new("p", vec![Term::v("x"), Term::v("y")]),
                RelAtom::new("r", vec![Term::v("x"), Term::v("y")]),
            ],
            vec![],
        ));
        let items = [member.clone()];
        assert!(qc.has_answer_with(EvalContext::new(&db), "p", 2, items.iter()).unwrap());
    });
    assert_eq!(again, 0, "a second compile and one-shot calls build nothing");

    let clone = Database::clone(&db);
    assert!(Arc::ptr_eq(db.snapshot(), clone.snapshot()));
    let mut changed = clone;
    changed.insert("r", tuple![2, 99]).unwrap();
    assert!(!Arc::ptr_eq(db.snapshot(), changed.snapshot()));
    assert_eq!(index_builds(|| assert!(q.contains(&changed, &member).unwrap())), 2);
}

/// Eight threads touching one posting for the first time build it
/// once. Tracing is per thread, so each caller turns it on and hands
/// its report back.
#[test]
fn concurrent_first_touches_build_a_posting_once() {
    let db = rs_db((0..200).map(|i| (i % 5, i)).collect(), BTreeSet::new());
    let snap = Arc::clone(db.snapshot());
    let barrier = Arc::new(std::sync::Barrier::new(8));
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let (snap, barrier) = (Arc::clone(&snap), Arc::clone(&barrier));
            std::thread::spawn(move || {
                let _scope = pkgrec_trace::scoped();
                barrier.wait();
                let table = &snap.tables()[snap.find("r").unwrap()];
                index_builds(|| {
                    for _ in 0..100 {
                        assert_eq!(table.postings(1).get(0).unwrap().rows.len(), 1);
                    }
                })
            })
        })
        .collect();
    let total: u64 = handles.into_iter().map(|h| h.join().expect("caller thread")).sum();
    assert_eq!(total, 1);
}

/// A unique-key column's postings are O(rows): one run entry and one
/// value entry per row, no bitset (a bitset per value would need
/// 200k × 25 KB = 5 GB). A low-cardinality column's dense values stay
/// within the same bound.
#[test]
fn unique_key_postings_stay_under_16_bytes_per_row() {
    let rows = 200_000;
    let r = RelationSchema::new("item", [("id", AttrType::Int), ("grp", AttrType::Int)])
        .expect("valid schema");
    let rel = Relation::from_tuples(r, (0..rows as i64).map(|i| tuple![i, i % 8]))
        .expect("schema-conformant");
    let mut db = Database::new();
    db.add_relation(rel).expect("fresh db");
    let table = &db.snapshot().tables()[0];
    for col in 0..2 {
        let bytes = table.postings(col).heap_bytes();
        assert!(bytes < 16 * rows, "column {col}: {bytes} bytes for {rows} rows");
    }
    assert!(table.postings(0).get(0).unwrap().bits.is_none());
    assert!(table.postings(1).get(0).unwrap().bits.is_some());
}
