//! The one set of random-instance generators the root test suites
//! share: small databases and safe queries for the query layer, and
//! item instances for the package solvers.
#![allow(dead_code)] // each test binary uses a different subset

use std::collections::BTreeSet;

use proptest::prelude::*;

use pkgrec::core::{Constraint, PackageFn, RecInstance, ANSWER_RELATION};
use pkgrec::data::text::parse_database;
use pkgrec::data::{tuple, AttrType, Database, Relation, RelationSchema};
use pkgrec::query::parser::parse_query;
use pkgrec::query::{Builtin, CmpOp, ConjunctiveQuery, Query, RelAtom, Term, UnionQuery};

/// A database over r(a, b) and s(a).
pub fn rs_db(r_rows: BTreeSet<(i64, i64)>, s_rows: BTreeSet<i64>) -> Database {
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
}

/// A small random r/s database over the values 0..4, dense enough
/// that fully-bound probes regularly hit populated postings.
pub fn db_strategy() -> impl Strategy<Value = Database> {
    let r_rows = prop::collection::btree_set((0i64..4, 0i64..4), 0..10);
    let s_rows = prop::collection::btree_set(0i64..4, 0..4);
    (r_rows, s_rows).prop_map(|(r_rows, s_rows)| rs_db(r_rows, s_rows))
}

/// A database whose r has mixed columns: `a` takes 3 values, each on
/// far more than `rows/32` rows (bitset postings), while most `b`
/// values sit on one or two rows (sorted-run postings).
pub fn mixed_db_strategy() -> impl Strategy<Value = Database> {
    let r_rows = prop::collection::btree_set((0i64..3, 0i64..64), 40..120);
    let s_rows = prop::collection::btree_set(0i64..4, 0..4);
    (r_rows, s_rows).prop_map(|(r_rows, s_rows)| rs_db(r_rows, s_rows))
}

/// A term over a small variable pool and small constants.
pub fn term_strategy() -> impl Strategy<Value = Term> {
    prop_oneof![
        (0usize..4).prop_map(|i| Term::v(format!("v{i}"))),
        (0i64..4).prop_map(Term::c),
    ]
}

fn cmp_op_strategy() -> impl Strategy<Value = CmpOp> {
    use CmpOp::*;
    prop_oneof![Just(Eq), Just(Neq), Just(Lt), Just(Leq), Just(Gt), Just(Geq)]
}

fn base_atom_strategy() -> impl Strategy<Value = RelAtom> {
    prop_oneof![
        (term_strategy(), term_strategy()).prop_map(|(a, b)| RelAtom::new("r", vec![a, b])),
        term_strategy().prop_map(|a| RelAtom::new("s", vec![a])),
    ]
}

/// Close an atom list into a safe CQ: the head is two variables that
/// occur in some atom, plus one comparison per `cmps` entry.
fn close_cq(atoms: Vec<RelAtom>, cmps: Vec<(CmpOp, i64)>) -> Option<ConjunctiveQuery> {
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
    let builtins: Vec<Builtin> = cmps
        .into_iter()
        .enumerate()
        .map(|(i, (op, c))| Builtin::cmp(Term::Var(vars[i % vars.len()].clone()), op, Term::c(c)))
        .collect();
    Some(ConjunctiveQuery::new(head, atoms, builtins))
}

/// A random safe binary CQ over r/s: 1–3 atoms, up to two comparisons.
pub fn cq_strategy() -> impl Strategy<Value = ConjunctiveQuery> {
    (
        prop::collection::vec(base_atom_strategy(), 1..4),
        prop::collection::vec((cmp_op_strategy(), 0i64..4), 0..3),
    )
        .prop_filter_map("need at least one variable", |(atoms, cmps)| close_cq(atoms, cmps))
}

/// The CQ written as one rule.
pub fn cq(text: &str) -> ConjunctiveQuery {
    match parse_query(text) {
        Ok(Query::Cq(q)) => q,
        other => panic!("`{text}` is not a CQ: {other:?}"),
    }
}

/// A random safe CQ that also reads the binary answer relation `RQ`
/// compatibility constraints bind packages to: either a random binary
/// CQ with 1–2 `RQ` atoms, or one of the two Boolean conflict shapes
/// `Qc() :- RQ(x1, c1), RQ(x2, c2), r(c1, c2)` (a join on the row path)
/// and `Qc() :- RQ(c1, c2), r(c1, c2)` (a fully bound posting
/// intersection).
pub fn dyn_cq_strategy() -> impl Strategy<Value = ConjunctiveQuery> {
    let dyn_atom = (term_strategy(), term_strategy())
        .prop_map(|(a, b)| RelAtom::new(ANSWER_RELATION, vec![a, b]));
    let random = (
        prop::collection::vec(dyn_atom, 1..3),
        prop::collection::vec(base_atom_strategy(), 0..3),
        prop::collection::vec((cmp_op_strategy(), 0i64..4), 0..3),
    )
        .prop_filter_map("need at least one variable", |(dyns, bases, cmps)| {
            close_cq(dyns.into_iter().chain(bases).collect(), cmps)
        });
    let conflict = cq("qc() :- RQ(x1, c1), RQ(x2, c2), r(c1, c2).");
    let banned = cq("qc() :- RQ(c1, c2), r(c1, c2).");
    prop_oneof![random, Just(conflict), Just(banned)]
}

/// `Qc`s over the binary `RQ` for packages of several items: a random
/// [`dyn_cq_strategy`] CQ, the museum-cap shape of Example 1.1 (three
/// `RQ` atoms on one shared value, pairwise distinct names: no three
/// items with the same `b`), and a UCQ of a random dynamic CQ with a
/// random base CQ that reads no `RQ` (both made Boolean, so the
/// arities agree).
pub fn deep_qc_strategy() -> impl Strategy<Value = Query> {
    let museum_cap = cq("qc() :- RQ(n1, c), RQ(n2, c), RQ(n3, c), n1 != n2, n1 != n3, n2 != n3.");
    let boolean =
        |q: ConjunctiveQuery| ConjunctiveQuery::new(Vec::<Term>::new(), q.atoms, q.builtins);
    let ucq = (dyn_cq_strategy(), cq_strategy()).prop_map(move |(with_rq, base)| {
        let u = UnionQuery::new(vec![boolean(with_rq), boolean(base)]).expect("both Boolean");
        Query::Ucq(u)
    });
    prop_oneof![
        dyn_cq_strategy().prop_map(Query::Cq),
        Just(Query::Cq(museum_cap)),
        ucq,
    ]
}

/// A random r/s database (values 0..4) with 4–9 rows in `r`.
pub fn deep_db_strategy() -> impl Strategy<Value = Database> {
    let r_rows = prop::collection::btree_set((0i64..4, 0i64..4), 4..10);
    let s_rows = prop::collection::btree_set(0i64..4, 0..4);
    (r_rows, s_rows).prop_map(|(r_rows, s_rows)| rs_db(r_rows, s_rows))
}

/// Items `Q(D) = r`, packages of up to 4 items (cost `count`, budget
/// 4), val = total `b`, `k` and the query constraint `qc`: deep enough
/// that the search probes children of compatible parents
/// incrementally.
pub fn deep_instance(db: Database, qc: Query, k: usize) -> RecInstance {
    RecInstance::new(db, Query::Cq(cq("q(a, b) :- r(a, b).")))
        .with_val(PackageFn::sum_col(1, true))
        .with_budget(4.0)
        .with_k(k)
        .with_qc(Constraint::Query(qc))
}

/// Which compatibility constraint an item instance carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Qc {
    /// No `Qc`.
    Absent,
    /// "Distinct groups" as a PTIME closure.
    PTime,
    /// "Distinct groups" as a CQ over `RQ`, probed on compiled plans.
    Query,
}

pub fn qc_strategy() -> impl Strategy<Value = Qc> {
    prop_oneof![Just(Qc::Absent), Just(Qc::PTime), Just(Qc::Query)]
}

/// Item rows `(grp, score)`; item `i` gets id `i`.
pub fn scores_strategy() -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((0i64..3, 1i64..50), 1..8)
}

/// `item(id, grp, score)` with the identity query and val = total
/// score, over the rows `(grp, score)`.
pub fn item_base(scores: &[(i64, i64)]) -> RecInstance {
    let mut text = "relation item(id: int, grp: int, score: int)\n".to_string();
    for (i, (g, s)) in scores.iter().enumerate() {
        text.push_str(&format!("{i}, {g}, {s}\n"));
    }
    let db = parse_database(&text).expect("valid database");
    RecInstance::new(db, Query::Cq(ConjunctiveQuery::identity("item", 3)))
        .with_val(PackageFn::sum_col(2, true))
}

/// [`item_base`] with a budget of 2 items, `k` and the given `Qc`.
pub fn item_instance(scores: &[(i64, i64)], qc: Qc, k: usize) -> RecInstance {
    let inst = item_base(scores).with_budget(2.0).with_k(k);
    match qc {
        Qc::Absent => inst,
        Qc::PTime => inst.with_qc(Constraint::ptime("distinct groups", |p, _| {
            let mut seen = BTreeSet::new();
            p.iter().all(|t| seen.insert(t[1].clone()))
        })),
        Qc::Query => inst.with_qc(Constraint::Query(Query::Cq(cq(
            "qc() :- RQ(i1, g, s1), RQ(i2, g, s2), i1 != i2.",
        )))),
    }
}

/// Priced items for the SketchRefine checks: `item(id, price, score)`
/// rows, cost = total price against a budget, val = total score or
/// `|N|`, and `k`.
pub fn priced_strategy() -> impl Strategy<Value = RecInstance> {
    let rows = prop::collection::vec((1i64..10, 1i64..10), 4..11);
    (rows, 5i64..41, 1usize..4, any::<bool>()).prop_map(|(rows, budget, k, count_val)| {
        item_base(&rows)
            .with_cost(PackageFn::sum_col(1, true))
            .with_budget(budget as f64)
            .with_val(if count_val { PackageFn::count() } else { PackageFn::sum_col(2, true) })
            .with_k(k)
    })
}
