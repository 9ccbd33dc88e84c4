//! Randomized equivalence for the columnar evaluation layer:
//!
//! * `ItemBitset` against a `BTreeSet<u32>` model — every mutating and
//!   combining op must agree with ordinary set semantics;
//! * the bitset fast path against the row path — the same compiled
//!   plan with bitsets on and off must produce identical answers for
//!   full evaluation, membership probes and antimonotone-Qc dynamic
//!   probes, across CQ and UCQ workloads;
//! * metered runs — a budget meter forces the fast plan onto the row
//!   path, so tick accounting stays bit-identical to the row plan
//!   (and hence to per-call evaluation, which `tests/plan_equivalence.rs`
//!   pins).

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;

use pkgrec::data::{tuple, AttrType, Database, ItemBitset, Relation, RelationSchema, Tuple};
use pkgrec::query::{Budget, ConjunctiveQuery, Query, RelAtom, Term, UnionQuery};

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
// Bitset fast path vs row path on compiled plans
// ---------------------------------------------------------------------

/// A small random database over r(a, b) and s(a) — dense values so
/// fully-bound probes regularly hit populated bitsets.
fn db_strategy() -> impl Strategy<Value = Database> {
    let r_rows = prop::collection::btree_set((0i64..4, 0i64..4), 0..10);
    let s_rows = prop::collection::btree_set(0i64..4, 0..4);
    (r_rows, s_rows).prop_map(|(r_rows, s_rows)| {
        let r = RelationSchema::new("r", [("a", AttrType::Int), ("b", AttrType::Int)])
            .expect("valid schema");
        let s = RelationSchema::new("s", [("a", AttrType::Int)]).expect("valid schema");
        let mut db = Database::new();
        db.add_relation(
            Relation::from_tuples(r, r_rows.into_iter().map(|(a, b)| tuple![a, b]))
                .expect("schema-conformant"),
        )
        .expect("fresh db");
        db.add_relation(
            Relation::from_tuples(s, s_rows.into_iter().map(|a| tuple![a]))
                .expect("schema-conformant"),
        )
        .expect("fresh db");
        db
    })
}

fn term_strategy() -> impl Strategy<Value = Term> {
    prop_oneof![
        (0usize..3).prop_map(|i| Term::v(format!("v{i}"))),
        (0i64..4).prop_map(Term::c),
    ]
}

/// A random safe CQ over r/s whose head repeats body variables — the
/// shape where membership probes bind every atom and the bitset
/// existence steps engage.
fn cq_strategy() -> impl Strategy<Value = ConjunctiveQuery> {
    let atom = prop_oneof![
        (term_strategy(), term_strategy()).prop_map(|(a, b)| RelAtom::new("r", vec![a, b])),
        term_strategy().prop_map(|a| RelAtom::new("s", vec![a])),
    ];
    prop::collection::vec(atom, 1..4).prop_filter_map("need at least one variable", |atoms| {
        let vars: Vec<_> = atoms
            .iter()
            .flat_map(|a| a.variables())
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        if vars.is_empty() {
            return None;
        }
        let head = vec![
            Term::Var(vars[0].clone()),
            Term::Var(vars[vars.len() / 2].clone()),
        ];
        Some(ConjunctiveQuery::new(head, atoms, vec![]))
    })
}

/// An antimonotone-Qc shape over the dynamic relation p(a, b): both
/// the pairwise-conflict form `Qc() :- p(x1,c1), p(x2,c2), r(c1,c2)`
/// and the banned-combination form `Qc() :- p(c1,c2), r(c1,c2)` (the
/// latter compiles to a fully-bound bitset existence step; the former
/// stays on the row path — both must agree with bitsets disabled).
fn qc_strategy() -> impl Strategy<Value = ConjunctiveQuery> {
    prop_oneof![
        Just(ConjunctiveQuery::new(
            Vec::<Term>::new(),
            vec![
                RelAtom::new("p", vec![Term::v("x1"), Term::v("c1")]),
                RelAtom::new("p", vec![Term::v("x2"), Term::v("c2")]),
                RelAtom::new("r", vec![Term::v("c1"), Term::v("c2")]),
            ],
            vec![],
        )),
        Just(ConjunctiveQuery::new(
            Vec::<Term>::new(),
            vec![
                RelAtom::new("p", vec![Term::v("c1"), Term::v("c2")]),
                RelAtom::new("r", vec![Term::v("c1"), Term::v("c2")]),
            ],
            vec![],
        )),
    ]
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
        let db = Arc::new(db);
        let ucq = UnionQuery::new(vec![a.clone(), b.clone()]).expect("same arity");
        for q in [Query::Cq(a.clone()), Query::Ucq(ucq)] {
            let fast = q.compile(&db).unwrap();
            let slow = q.compile(&db).unwrap().with_bitsets(false);
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
    }

    /// Antimonotone-Qc dynamic probes: emptiness and full dynamic
    /// evaluation agree between the two paths for random packages.
    #[test]
    fn qc_dynamic_probes_match_row_path(
        db in db_strategy(),
        qc in qc_strategy(),
        items in prop::collection::btree_set((0i64..4, 0i64..4), 0..5),
    ) {
        let db = Arc::new(db);
        let tuples: Vec<Tuple> = items.iter().map(|&(a, b)| tuple![a, b]).collect();
        let q = Query::Cq(qc);
        let fast = q.compile_with_dynamic(&db, "p", 2).unwrap();
        let slow = q.compile_with_dynamic(&db, "p", 2).unwrap().with_bitsets(false);
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
    }

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
