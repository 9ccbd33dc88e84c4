//! The oracle matrix: every engine and surface checked against one
//! naive oracle that reads FRP, MBP, CPP and RPP straight off the
//! paper's definitions (§2–3, with the conventions pinned in
//! `tests/paper_conventions.rs`). `Q(D)` comes from the FO embedding on
//! the active-domain engine, Datalog from a naive fixpoint over FO
//! embeddings, `Qc` from the same evaluation over `D` with `RQ = N`
//! materialized, and packages from enumerating the subsets of `Q(D)`.
//! No plan, posting, search unit or prune rule is involved, so the
//! oracle shares no code with the paths it checks. The axes — engines,
//! surfaces (library, `pkgrec` binary, `pkgrec serve` over TCP) and
//! instance classes — are described in DESIGN.md §17.

mod common;

use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::Command;
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use common::*;
use pkgrec::core::problems::rpp::RppRefutation;
use pkgrec::core::problems::{cpp, frp, mbp, rpp};
use pkgrec::core::{
    Constraint, Ext, Method, Outcome, Package, PackageFn, RecInstance, SearchStats, SizeBound,
    SketchParams, SolveOptions, ANSWER_RELATION,
};
use pkgrec::data::{
    tuple, AttrType, Database, PartitionIndex, PartitionParams, Relation, RelationSchema, Tuple,
};
use pkgrec::logic::{count_pi1, count_sigma1, gen, is_satisfiable, max_weight_sat, MaximumSigma2};
use pkgrec::query::parser::{parse_fo, parse_query};
use pkgrec::query::rewrite::{cq_to_datalog, cq_to_fo, posfo_to_ucq, ucq_to_datalog, ucq_to_fo};
use pkgrec::query::{
    BodyLiteral, ConjunctiveQuery, DatalogProgram, EvalContext, FoQuery, Formula, Query,
    UnionQuery,
};
use pkgrec::reductions::{lemma4_4, membership, thm4_1, thm5_1, thm5_2, thm5_3};
use pkgrec::serve::ServerHandle;
use pkgrec::trace::json;
use pkgrec::workloads::random::{distinct_groups_qc, item_db};

// ---------------------------------------------------------------------
// The oracle
// ---------------------------------------------------------------------

/// `name` with the given arity, holding `rows` (types unchecked).
fn relation<'a>(name: &str, arity: usize, rows: impl IntoIterator<Item = &'a Tuple>) -> Relation {
    let attrs = (0..arity).map(|i| (format!("c{i}"), AttrType::Int));
    let schema = RelationSchema::new(name, attrs).expect("valid schema");
    Relation::from_tuples_unchecked(schema, rows.into_iter().cloned())
}

/// `Q(D)` by the reference semantics.
fn answers(q: &Query, ctx: EvalContext<'_>) -> BTreeSet<Tuple> {
    match q {
        Query::Cq(cq) => answers(&Query::Fo(cq_to_fo(cq)), ctx),
        Query::Ucq(u) => answers(&Query::Fo(ucq_to_fo(u)), ctx),
        Query::Fo(_) => q.eval_ctx(ctx).expect("FO evaluates"),
        Query::Datalog(p) => naive_fixpoint(p, ctx),
    }
}

/// Fire every rule through its FO embedding, over `D` plus the IDB
/// facts so far, until a round derives nothing new.
fn naive_fixpoint(p: &DatalogProgram, ctx: EvalContext<'_>) -> BTreeSet<Tuple> {
    let arities = p.idb_arities().expect("well-formed program");
    let mut idb: BTreeMap<_, BTreeSet<Tuple>> =
        arities.keys().map(|name| (name.clone(), BTreeSet::new())).collect();
    loop {
        let mut db = ctx.db.clone();
        for (name, rows) in &idb {
            db.set_relation(relation(name, arities[name], rows));
        }
        let mut changed = false;
        for rule in &p.rules {
            let (mut atoms, mut builtins) = (Vec::new(), Vec::new());
            for lit in &rule.body {
                match lit {
                    BodyLiteral::Rel(a) => atoms.push(a.clone()),
                    BodyLiteral::Builtin(b) => builtins.push(b.clone()),
                }
            }
            let body = ConjunctiveQuery::new(rule.head.terms.clone(), atoms, builtins);
            let derived = answers(&Query::Cq(body), EvalContext { db: &db, ..ctx });
            let rows = idb.get_mut(&rule.head.relation).expect("heads are IDB");
            for t in derived {
                changed |= rows.insert(t);
            }
        }
        if !changed {
            return idb.remove(&p.output).unwrap_or_default();
        }
    }
}

fn eval_ctx(inst: &RecInstance) -> EvalContext<'_> {
    match &inst.metrics {
        Some(m) => EvalContext::with_metrics(&inst.db, m),
        None => EvalContext::new(&inst.db),
    }
}

/// `Qc(N, D) = ∅`.
fn compatible(inst: &RecInstance, pkg: &Package, arity: usize) -> bool {
    match &inst.qc {
        Constraint::Empty => true,
        Constraint::PTime { f, .. } => f(pkg, &inst.db),
        Constraint::Query(qc) => {
            let db = inst.db.with_relation(relation(ANSWER_RELATION, arity, pkg.iter()));
            answers(qc, EvalContext { db: &db, ..eval_ctx(inst) }).is_empty()
        }
    }
}

/// The definitions, evaluated by enumeration.
struct Oracle {
    /// `Q(D)`, in canonical order.
    items: Vec<Tuple>,
    /// Every valid package with its rating, best first: rating
    /// descending, ties to the canonically smaller package.
    valid: Vec<(Ext, Package)>,
    k: usize,
}

impl Oracle {
    /// `None` when `Q(D)` has more than 16 items.
    fn new(inst: &RecInstance) -> Option<Oracle> {
        let items: Vec<Tuple> = answers(&inst.query, eval_ctx(inst)).into_iter().collect();
        if items.len() > 16 {
            return None;
        }
        let arity = inst.query.arity().expect("answer arity");
        let mut valid = Vec::new();
        for mask in 0u32..1 << items.len() {
            if mask.count_ones() as usize > inst.max_package_size() {
                continue;
            }
            let pkg = Package::new(
                (0..items.len()).filter(|i| mask >> i & 1 == 1).map(|i| items[i].clone()),
            );
            if inst.cost.eval(&pkg) <= inst.budget && compatible(inst, &pkg, arity) {
                valid.push((inst.val.eval(&pkg), pkg));
            }
        }
        valid.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        Some(Oracle { items, valid, k: inst.k })
    }

    fn top_k(&self) -> Option<Vec<Package>> {
        (self.valid.len() >= self.k).then(|| self.packages()[..self.k].to_vec())
    }

    fn max_bound(&self) -> Option<Ext> {
        (self.valid.len() >= self.k).then(|| self.valid[self.k - 1].0)
    }

    fn count(&self, bound: Ext) -> u128 {
        self.valid.iter().filter(|(v, _)| *v >= bound).count() as u128
    }

    fn packages(&self) -> Vec<Package> {
        self.valid.iter().map(|(_, p)| p.clone()).collect()
    }

    fn rating(&self, pkg: &Package) -> Option<Ext> {
        self.valid.iter().find(|(_, p)| p == pkg).map(|(v, _)| *v)
    }

    /// RPP by conditions (1)–(6); a "no" names what fails first, and a
    /// dominated selection the canonically first dominating package.
    fn check(&self, sel: &[Package]) -> Result<(), RppRefutation> {
        if sel.len() != self.k {
            return Err(RppRefutation::WrongCount { expected: self.k, found: sel.len() });
        }
        if sel.iter().collect::<BTreeSet<_>>().len() != sel.len() {
            return Err(RppRefutation::NotDistinct);
        }
        let mut min = Ext::PosInf;
        for pkg in sel {
            match self.rating(pkg) {
                Some(v) => min = min.min(v),
                None => return Err(RppRefutation::InvalidPackage(pkg.clone())),
            }
        }
        let dominating = self.valid.iter().filter(|(v, p)| *v > min && !sel.contains(p));
        match dominating.min_by(|a, b| a.1.cmp(&b.1)) {
            Some((val, p)) => Err(RppRefutation::Dominated { better: p.clone(), val: *val }),
            None => Ok(()),
        }
    }

    /// RPP candidates: the top-k, the k weakest, the top-k with the
    /// next best swapped in, and k copies of `∅`.
    fn selections(&self) -> Vec<Vec<Package>> {
        let (pkgs, k) = (self.packages(), self.k);
        let mut out = vec![vec![Package::empty(); k]];
        if pkgs.len() >= k {
            out.push(pkgs[..k].to_vec());
            out.push(pkgs[pkgs.len() - k..].to_vec());
        }
        if pkgs.len() > k {
            let mut swapped = pkgs[..k].to_vec();
            swapped[k - 1] = pkgs[k].clone();
            out.push(swapped);
        }
        out
    }
}

// ---------------------------------------------------------------------
// Engines
// ---------------------------------------------------------------------

/// FRP, MBP, CPP at each bound, and RPP on each selection.
type Solved = (
    Outcome<Option<Vec<Package>>, SearchStats>,
    Outcome<Option<Ext>, SearchStats>,
    Vec<Outcome<u128, SearchStats>>,
    Vec<Result<(), RppRefutation>>,
);

fn solve(inst: &RecInstance, bounds: &[Ext], sels: &[Vec<Package>], opts: &SolveOptions) -> Solved {
    (
        frp::top_k(inst, opts).unwrap(),
        mbp::maximum_bound(inst, opts).unwrap(),
        bounds.iter().map(|&b| cpp::count_valid(inst, b, opts).unwrap()).collect(),
        sels.iter().map(|s| rpp::check_top_k(inst, s, opts).unwrap()).collect(),
    )
}

/// Every exact library engine against the oracle: jobs 1 equals the
/// definitions, jobs 2/4/8 and metered runs (an ample step budget
/// keeps every probe on the row path) equal jobs 1 outright, and the
/// Thm 5.1 oracle-call FRP returns the same selection.
fn check_library(inst: &RecInstance, oracle: &Oracle, bounds: &[Ext]) {
    let sels = oracle.selections();
    let base = solve(inst, bounds, &sels, &SolveOptions::unbounded().with_jobs(1));
    assert!(base.0.exact && base.1.exact && base.2.iter().all(|o| o.exact));
    assert_eq!(base.0.value, oracle.top_k(), "FRP on {inst}");
    assert_eq!(base.1.value, oracle.max_bound(), "MBP on {inst}");
    for (out, &b) in base.2.iter().zip(bounds) {
        assert_eq!(out.value, oracle.count(b), "CPP at B = {b} on {inst}");
    }
    for (got, sel) in base.3.iter().zip(&sels) {
        assert_eq!(got, &oracle.check(sel), "RPP of {sel:?} on {inst}");
    }
    for jobs in &JOBS[1..] {
        let par = solve(inst, bounds, &sels, &SolveOptions::unbounded().with_jobs(*jobs));
        assert_eq!(par, base, "jobs {jobs} on {inst}");
    }
    for jobs in [1, 4] {
        let metered = solve(inst, bounds, &sels, &SolveOptions::limited(1 << 40).with_jobs(jobs));
        assert_eq!(metered, base, "metered at jobs {jobs} on {inst}");
    }
    let via_oracle = frp::top_k_via_oracle(inst, &SolveOptions::unbounded().with_jobs(1));
    assert_eq!(via_oracle.unwrap(), oracle.top_k(), "Thm 5.1 FRP on {inst}");
}

const JOBS: [usize; 4] = [1, 2, 4, 8];

/// SketchRefine, with the default parameters and with a small
/// partition tree (pruning on and off): every package is valid, sorted
/// best first, never above the optimum, and pruning changes nothing.
/// The default parameters solve a pool of at most 16 items directly,
/// in one exact sub-solve, so there the answer is the optimum.
fn check_sketch(inst: &RecInstance, oracle: &Oracle) {
    let small = SketchParams { fanout: 3, leaf_cap: 3, ..SketchParams::default() };
    let unpruned = SketchParams { prune: false, ..small.clone() };
    let mut selections = Vec::new();
    for params in [SketchParams::default(), small, unpruned] {
        let direct = params == SketchParams::default();
        let opts = SolveOptions::unbounded().with_jobs(1).with_approx(params);
        let top = frp::top_k(inst, &opts).unwrap();
        let bound = mbp::maximum_bound(inst, &opts).unwrap();
        if direct {
            assert_eq!(top.value, oracle.top_k(), "direct sketch FRP on {inst}");
            assert_eq!(bound.value, oracle.max_bound(), "direct sketch MBP on {inst}");
        }
        assert_eq!([top.method, bound.method], [Method::Sketch; 2]);
        assert!(!top.exact && !bound.exact, "the sketch engine never claims exactness");
        if let Some(sel) = &top.value {
            let ratings: Vec<Ext> = sel
                .iter()
                .map(|p| oracle.rating(p).unwrap_or_else(|| panic!("invalid {p} on {inst}")))
                .collect();
            assert!(ratings.windows(2).all(|w| w[0] >= w[1]));
            assert!(ratings[0] <= oracle.valid[0].0, "sketch beat the optimum on {inst}");
        }
        if let Some(b) = bound.value {
            assert!(Some(b) <= oracle.max_bound(), "sketch bound above the maximum on {inst}");
        }
        selections.push(top.value);
    }
    assert_eq!(selections[1], selections[2], "pruning changed the sketch answer on {inst}");
    check_sketch_pool(inst, oracle);
}

/// The sketch solve alone (`refine_cap: 0`) is one exact sub-solve over
/// a restricted pool, the small partition tree's top-level
/// representatives (all of `Q(D)` when the tree is one leaf): its
/// answer is the oracle's top-k among the packages drawn from that
/// pool. The end-to-end checks above cannot see a sub-solve that
/// rejects valid packages, for instance one that probes `Qc` with its
/// items at the wrong rows of `Q(D)`: verification only drops invalid
/// ones.
fn check_sketch_pool(inst: &RecInstance, oracle: &Oracle) {
    let params = SketchParams { fanout: 3, leaf_cap: 3, refine_cap: 0, ..SketchParams::default() };
    let mut columns: Vec<usize> =
        inst.cost.numeric_columns().iter().chain(inst.val.numeric_columns()).copied().collect();
    columns.sort_unstable();
    columns.dedup();
    let tree = PartitionParams { fanout: 3, leaf_cap: 3, seed: params.seed, columns };
    let index = PartitionIndex::build(&oracle.items, &tree);
    let root = index.node(index.root());
    let pool: BTreeSet<&Tuple> = match root.children.is_empty() || oracle.items.len() <= 3 {
        true => oracle.items.iter().collect(),
        false => root.children.iter().map(|&c| &oracle.items[index.node(c).rep]).collect(),
    };
    let drawn: Vec<Package> = oracle
        .packages()
        .into_iter()
        .filter(|p| p.iter().all(|t| pool.contains(t)))
        .take(oracle.k)
        .collect();
    let want = (drawn.len() == oracle.k).then_some(drawn);
    let opts = SolveOptions::unbounded().with_jobs(1).with_approx(params);
    let got = frp::top_k(inst, &opts).unwrap().value;
    assert_eq!(got, want, "sketch solve over {pool:?} on {inst}");
}

/// The query forms checked per random CQ pair: the CQ, its UCQ with
/// the second CQ, their FO and Datalog embeddings, the UCQ normalized
/// back from FO, full FO (the negated body), and a recursive program.
fn forms(a: &ConjunctiveQuery, b: &ConjunctiveQuery) -> Vec<Query> {
    let u = UnionQuery::new(vec![a.clone(), b.clone()]).expect("same arity");
    let fo = cq_to_fo(a);
    let tc = "tc(x, y) :- r(x, y). tc(x, z) :- tc(x, y), r(y, z).";
    vec![
        Query::Cq(a.clone()),
        Query::Fo(fo.clone()),
        Query::Datalog(cq_to_datalog(a)),
        Query::Fo(ucq_to_fo(&u)),
        Query::Ucq(posfo_to_ucq(&ucq_to_fo(&u)).expect("positive")),
        Query::Datalog(ucq_to_datalog(&u)),
        Query::Ucq(u),
        Query::Fo(FoQuery::new(fo.head.clone(), Formula::not(fo.body))),
        parse_query(tc).expect("valid program"),
    ]
}

/// Full evaluation, membership and pre-bound probes on a cached plan
/// (postings on and off) and through the one-shot API.
fn check_query(db: &Arc<Database>, q: &Query) {
    let want = answers(q, EvalContext::new(db));
    assert_eq!(q.eval(db).unwrap(), want, "one-shot eval of {q}");
    let foreign = [tuple![0, 0], tuple![3, 1], tuple![99, 99]];
    let probes: Vec<Tuple> = want.iter().take(4).cloned().chain(foreign).collect();
    for bitsets in [true, false] {
        let plan = q.compile(db).unwrap().with_bitsets(bitsets);
        assert_eq!(plan.eval(None, None).unwrap(), want, "plan eval of {q}");
        for t in &probes {
            let member = want.contains(t);
            assert_eq!(plan.contains(t, None, None).unwrap(), member, "{t} in {q}");
            let bound = plan.eval_pre_bound(t, None, None).unwrap();
            assert_eq!(bound, member.then(|| t.clone()).into_iter().collect(), "pre-bound {t}");
        }
    }
    for t in &probes {
        assert_eq!(q.contains(db, t).unwrap(), want.contains(t), "one-shot {t} in {q}");
    }
}

/// Dynamic probes with `RQ` bound to `items`, against evaluating over
/// `D` with `RQ` materialized: a plan's `eval_dynamic` and
/// `has_answer_dynamic` (postings on and off), `has_answer_with`, and
/// `Constraint::satisfied`, for the CQ and its FO and Datalog forms;
/// then the CQ plan's pooled probe and its conflict hypergraph (see
/// `check_pooled`).
fn check_dynamic(db: &Arc<Database>, cq: &ConjunctiveQuery, items: &[Tuple]) {
    let with_rq = db.with_relation(relation(ANSWER_RELATION, 2, items));
    let pkg = Package::new(items.iter().cloned());
    for q in [Query::Cq(cq.clone()), Query::Fo(cq_to_fo(cq)), Query::Datalog(cq_to_datalog(cq))] {
        let want = answers(&q, EvalContext::new(&with_rq));
        for bitsets in [true, false] {
            let plan = q.compile_with_dynamic(db, ANSWER_RELATION, 2).unwrap();
            let plan = plan.with_bitsets(bitsets);
            assert_eq!(plan.eval_dynamic(items.iter(), None, None).unwrap(), want, "on {q}");
            let found = plan.has_answer_dynamic(items.iter(), None, None).unwrap();
            assert_eq!(found, !want.is_empty(), "on {q}");
        }
        let one_shot = q.has_answer_with(EvalContext::new(db), ANSWER_RELATION, 2, items.iter());
        assert_eq!(one_shot.unwrap(), !want.is_empty(), "one-shot on {q}");
        let qc = Constraint::Query(q);
        assert_eq!(qc.satisfied(&pkg, db, 2, None).unwrap(), want.is_empty(), "{qc:?}");
    }
    check_hypergraph(db, cq, items);
}

/// A pool of `items` plus rows foreign to the snapshot and to the
/// plan's constants. Over every subset `N` of the pool, "`N` contains
/// an edge of the conflict hypergraph" (whose edges have at most as
/// many rows as the CQ has `RQ` atoms) equals `has_answer_dynamic`,
/// postings on and off.
fn check_hypergraph(db: &Arc<Database>, cq: &ConjunctiveQuery, items: &[Tuple]) {
    let pool_items: Vec<Tuple> =
        items.iter().cloned().chain([tuple![99, 98], tuple![0, 97]]).collect();
    let n = pool_items.len() as u32;
    let q = Query::Cq(cq.clone());
    let plan = q.compile_with_dynamic(db, ANSWER_RELATION, 2).unwrap();
    let graph = q.conflict_hypergraph(&plan, &pool_items, None);
    let graph = graph.expect("at most two `RQ` atoms fit the cap");
    let width = cq.atoms.iter().filter(|a| &*a.relation == ANSWER_RELATION).count();
    let counts = graph.edge_counts();
    assert!(counts[width + 1..].iter().all(|&c| c == 0), "{counts:?} on {cq}");
    for bitsets in [true, false] {
        let plan = q.compile_with_dynamic(db, ANSWER_RELATION, 2).unwrap().with_bitsets(bitsets);
        for mask in 0u32..1 << n {
            let rows: Vec<u32> = (0..n).filter(|r| mask >> r & 1 == 1).collect();
            let tuples = rows.iter().map(|&r| &pool_items[r as usize]);
            let full = plan.has_answer_dynamic(tuples, None, None).unwrap();
            assert_eq!(graph.hits(&rows), full, "hypergraph on rows {rows:?} on {cq}");
        }
    }
}

/// Each edge size of the conflict hypergraph against
/// `has_answer_dynamic` over every subset of a pool: two UCQs whose
/// `RQ`-free disjunct holds on `D` (one size-0 edge, so even `∅` is
/// incompatible; one per build path: per-row probes for at most one
/// `RQ` atom per disjunct, the witness query for more), two `RQ`
/// atoms that one row can satisfy alone (size
/// 1), two that need distinct rows (size 2), the museum-cap shape
/// (size 3), and a CQ over the cap (no hypergraph), whose instance the
/// solvers still answer as the oracle does.
#[test]
fn conflict_hypergraphs_cover_every_edge_size_and_the_cap() {
    let r = [(0, 1), (1, 1), (2, 1), (3, 0), (1, 0)];
    let db = Arc::new(rs_db(r.into_iter().collect(), [2].into_iter().collect()));
    let items: Vec<Tuple> = r[..4].iter().map(|&(a, b)| tuple![a, b]).collect();
    let ucq = |rq: &str| UnionQuery::new(vec![cq(rq), cq("qc() :- s(z).")]).map(Query::Ucq);
    let museum = [0, 0, 0, 1];
    let cases = [
        (ucq("qc() :- RQ(x, y), r(y, x).").unwrap(), [1, 0, 0, 0]),
        (ucq("qc() :- RQ(x1, c), RQ(x2, c), x1 != x2.").unwrap(), [1, 0, 0, 0]),
        (Query::Cq(cq("qc() :- RQ(x1, c), RQ(x2, c).")), [0, 4, 0, 0]),
        (Query::Cq(cq("qc() :- RQ(x1, c), RQ(x2, c), x1 != x2.")), [0, 0, 3, 0]),
        (Query::Cq(cq("qc() :- RQ(x, c), RQ(y, c), RQ(z, c), x != y, x != z, y != z.")), museum),
    ];
    for (qc, counts) in cases {
        let plan = qc.compile_with_dynamic(&db, ANSWER_RELATION, 2).unwrap();
        let graph = qc.conflict_hypergraph(&plan, &items, None).expect("within the cap");
        assert_eq!(graph.edge_counts(), counts, "{qc}");
        for mask in 0u32..1 << items.len() {
            let rows: Vec<u32> = (0..items.len() as u32).filter(|r| mask >> r & 1 == 1).collect();
            let tuples = rows.iter().map(|&r| &items[r as usize]);
            let full = plan.has_answer_dynamic(tuples, None, None).unwrap();
            assert_eq!(graph.hits(&rows), full, "rows {rows:?} on {qc}");
        }
    }
    // A closed walk of five steps through the package's items: one
    // more `RQ` atom than the cap, so the search probes `Qc` in full.
    let capped = Query::Cq(cq("qc() :- RQ(a, b), RQ(b, c), RQ(c, d), RQ(d, e), RQ(e, a)."));
    let plan = capped.compile_with_dynamic(&db, ANSWER_RELATION, 2).unwrap();
    assert!(capped.conflict_hypergraph(&plan, &items, None).is_none());
    let inst = deep_instance((*db).clone(), capped, 2);
    let oracle = Oracle::new(&inst).expect("small");
    check_library(&inst, &oracle, &[Ext::NegInf, Ext::Finite(4.0)]);
    check_sketch(&inst, &oracle);
}

fn item_set(a: i64, b: i64) -> impl Strategy<Value = Vec<Tuple>> {
    prop::collection::btree_set((0..a, 0..b), 0..5)
        .prop_map(|s| s.into_iter().map(|(x, y)| tuple![x, y]).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn query_paths_match_the_oracle(db in db_strategy(), a in cq_strategy(), b in cq_strategy()) {
        let db = Arc::new(db);
        for q in forms(&a, &b) {
            check_query(&db, &q);
        }
    }

    /// The same on relations whose existence steps intersect sorted
    /// runs with bitsets (values on both sides of `rows/32`).
    #[test]
    fn query_paths_match_the_oracle_on_mixed_columns(
        db in mixed_db_strategy(),
        a in cq_strategy(),
        b in cq_strategy(),
    ) {
        let db = Arc::new(db);
        for q in forms(&a, &b).iter().filter(|q| matches!(q, Query::Cq(_) | Query::Ucq(_))) {
            check_query(&db, q);
        }
    }

    #[test]
    fn dynamic_probes_match_the_oracle(
        db in db_strategy(),
        mixed in mixed_db_strategy(),
        cq in dyn_cq_strategy(),
        items in item_set(4, 4),
        mixed_items in item_set(3, 8),
    ) {
        check_dynamic(&Arc::new(db), &cq, &items);
        check_dynamic(&Arc::new(mixed), &cq, &mixed_items);
    }

    /// Items with groups and scores, two per package, with no `Qc`, a
    /// PTIME `Qc` or a CQ `Qc` (dynamic probes inside the search).
    #[test]
    fn solvers_match_the_oracle_on_grouped_items(
        scores in scores_strategy(),
        qc in qc_strategy(),
        k in 1usize..4,
    ) {
        let inst = item_instance(&scores, qc, k);
        let oracle = Oracle::new(&inst).expect("small");
        check_library(&inst, &oracle, &[Ext::NegInf, Ext::Finite(10.0)]);
        check_sketch(&inst, &oracle);
    }

    /// Packages of up to four items under a random dynamic CQ, the
    /// museum-cap shape or a UCQ with a disjunct that reads no `RQ`:
    /// below each unit's seed pair the search probes a compatible
    /// parent's children with delta plans, and CPP's finite rating
    /// bound leaves rating-rejected parents whose children take the
    /// full probe. SketchRefine's sub-solves probe the same way over
    /// restricted pools.
    #[test]
    fn solvers_match_the_oracle_on_deep_packages(
        db in deep_db_strategy(),
        qc in deep_qc_strategy(),
        k in 1usize..4,
    ) {
        let inst = deep_instance(db, qc, k);
        let oracle = Oracle::new(&inst).expect("small");
        check_library(&inst, &oracle, &[Ext::NegInf, Ext::Finite(4.0)]);
        check_sketch(&inst, &oracle);
    }

    #[test]
    fn solvers_match_the_oracle_on_priced_items(inst in priced_strategy()) {
        let oracle = Oracle::new(&inst).expect("small");
        check_library(&inst, &oracle, &[Ext::NegInf, Ext::Finite(8.0)]);
        check_sketch(&inst, &oracle);
    }
}

// ---------------------------------------------------------------------
// Surfaces
// ---------------------------------------------------------------------

/// An instance in the vocabulary the CLI flags and `/solve` share.
struct Wire {
    name: String,
    db: Database,
    query: &'static str,
    /// `None` leaves the spec out: no flag, no key.
    cost: Option<&'static str>,
    val: Option<&'static str>,
    budget: f64,
    k: usize,
    max_size: Option<usize>,
    /// CPP's rating bound `B`.
    min_val: f64,
}

impl Wire {
    /// The reference reading of the wire: a left-out spec keeps
    /// `RecInstance::new`'s default, and `count` as a cost is
    /// `PackageFn::count()` (`cost(∅) = ∞`).
    fn instance(&self) -> RecInstance {
        let spec = |s| pkgrec::serve::request::parse_fn_spec(s).expect("valid spec");
        let query = parse_query(self.query).or_else(|_| parse_fo(self.query)).expect("parses");
        let mut inst = RecInstance::new(self.db.clone(), query);
        match self.cost {
            Some("count") => inst = inst.with_cost(PackageFn::count()),
            Some(cost) => inst = inst.with_cost(spec(cost)),
            None => {}
        }
        if let Some(val) = self.val {
            inst = inst.with_val(spec(val));
        }
        let inst = inst.with_budget(self.budget).with_k(self.k);
        match self.max_size {
            Some(n) => inst.with_size_bound(SizeBound::Constant(n)),
            None => inst,
        }
    }
}

const SP: &str = "q(id, grp, price, score) :- item(id, grp, price, score), price < 80.";

/// The seeded corpus: `workloads::random` item tables under the
/// fixed SP query (the sweep instances), a self-join, a UCQ, an FO
/// query with negation and a DATALOGnr program.
fn corpus() -> Vec<Wire> {
    let mut rng = StdRng::seed_from_u64(18);
    let mut out = Vec::new();
    for (k, n) in [(1, 6), (2, 9), (3, 12)] {
        let db = item_db(&mut rng, n, 3);
        let wire = |name: String, cost, budget| Wire {
            name, db: db.clone(), query: SP, cost, val: Some("sum:3"), budget, k,
            max_size: None, min_val: 100.0,
        };
        out.push(wire(format!("sp{n}"), Some("count"), 2.0));
        out.push(wire(format!("sp{n}_priced"), Some("sum:2"), 150.0));
    }
    let more = [
        ("join", "count", "sum:2", 2.0, "q(i, j, g) :- item(i, g, p, s), item(j, g, q, t), i < j."),
        ("ucq", "count", "negsum:1", 3.0,
            "q(i, s) :- item(i, 0, p, s). q(i, s) :- item(i, g, p, s), p < 30."),
        ("fo", "sum:1", "sum:1", 200.0, "q(id, p) = exists g, s. item(id, g, p, s) & !(p < 40)"),
        ("datalognr", "count", "sum:0", 2.0,
            "q(x, y) :- c(x), c(y), x < y. c(x) :- item(x, g, p, s), p < 60."),
    ];
    for (name, cost, val, budget, query) in more {
        out.push(Wire {
            name: name.to_string(), db: item_db(&mut rng, 6, 2), query, cost: Some(cost),
            val: Some(val), budget, k: 2, max_size: Some(2), min_val: 3.0,
        });
    }
    // Every spec left at its default (cost and rating `count`), under a
    // finite budget, so that `cost(∅) = ∞` decides whether `∅` counts.
    out.push(Wire {
        name: "defaults".to_string(), db: item_db(&mut rng, 6, 2), query: SP, cost: None,
        val: None, budget: 2.0, k: 3, max_size: None, min_val: 0.0,
    });
    out
}

/// The corpus on the library (with and without `distinct_groups_qc`
/// where the query is the SP query), the `pkgrec` binary and one
/// `pkgrec serve`, all against the oracle.
#[test]
fn corpus_matches_the_oracle_on_every_surface() {
    let corpus = corpus();
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("oracle_matrix");
    std::fs::create_dir_all(&dir).unwrap();
    let mut service = pkgrec::serve::Service::new(pkgrec::serve::ServiceConfig {
        max_jobs: 8,
        ..Default::default()
    });
    for w in &corpus {
        service.add_db(w.name.clone(), w.db.clone());
    }
    let server = pkgrec::serve::start(Default::default(), service).expect("bind loopback");
    for w in &corpus {
        let inst = w.instance();
        let oracle = Oracle::new(&inst).expect("small");
        let bounds = [Ext::NegInf, Ext::Finite(w.min_val)];
        check_library(&inst, &oracle, &bounds);
        check_sketch(&inst, &oracle);
        if w.query == SP {
            let with_qc = inst.clone().with_qc(distinct_groups_qc());
            let oracle = Oracle::new(&with_qc).expect("small");
            check_library(&with_qc, &oracle, &bounds);
            check_sketch(&with_qc, &oracle);
        }

        let path = dir.join(format!("{}.pkdb", w.name));
        std::fs::write(&path, pkgrec::data::text::write_database(&w.db)).unwrap();
        let expected = cli_rendering(w, &inst, &oracle);
        for jobs in [1, 4] {
            for (problem, want) in &expected {
                let got = run_cli(&path, w, problem, jobs);
                assert_eq!(&got, want, "`pkgrec {problem}` at jobs {jobs} on {}", w.name);
            }
            for (problem, want) in serve_rendering(&inst, &oracle, w.min_val) {
                let resp = post_solve(&server, w, problem, jobs);
                let ok = resp.get("status").and_then(json::Json::as_str) == Some("ok")
                    && resp.get("exact").and_then(json::Json::as_bool) == Some(true)
                    && resp.get("method").and_then(json::Json::as_str) == Some("exact");
                assert!(ok, "serve {problem} on {}: {resp:?}", w.name);
                let want = json::parse(&want).expect("valid rendering");
                let at = format!("serve {problem} at jobs {jobs} on {}", w.name);
                assert_eq!(resp.get("result"), Some(&want), "{at}");
            }
        }
    }
    server.shutdown();
}

/// The oracle's answers in the CLI's output format.
fn cli_rendering(w: &Wire, inst: &RecInstance, oracle: &Oracle) -> Vec<(&'static str, String)> {
    let none = format!("no top-{} selection exists\n", w.k);
    let mut eval = format!("{} answers [{}]\n", oracle.items.len(), inst.query.language());
    for t in &oracle.items {
        eval.push_str(&format!("{t}\n"));
    }
    let topk = oracle.top_k().map_or(none.clone(), |sel| {
        sel.iter()
            .enumerate()
            .map(|(r, p)| {
                format!("#{} val={} cost={} {p}\n", r + 1, inst.val.eval(p), inst.cost.eval(p))
            })
            .collect()
    });
    let bound = oracle.max_bound().map_or(none, |b| format!("maximum bound: {b}\n"));
    let b = Ext::Finite(w.min_val);
    let count = format!("{} valid packages with val >= {b}\n", oracle.count(b));
    let items = items_rendering(inst);
    vec![("eval", eval), ("topk", topk), ("bound", bound), ("count", count), ("items", items)]
}

/// `pkgrec items`: the oracle's top-k of the instance with cost
/// `count`, budget 1 and packages of one item, one item a line.
fn items_rendering(inst: &RecInstance) -> String {
    let items = inst
        .clone()
        .with_cost(PackageFn::count())
        .with_budget(1.0)
        .with_size_bound(SizeBound::Constant(1));
    let oracle = Oracle::new(&items).expect("small");
    oracle.top_k().map_or(format!("fewer than {} items\n", inst.k), |sel| {
        sel.iter()
            .enumerate()
            .map(|(r, p)| {
                let item = p.iter().next().expect("one item");
                format!("#{} val={} {item}\n", r + 1, inst.val.eval(p))
            })
            .collect()
    })
}

fn run_cli(db: &std::path::Path, w: &Wire, problem: &str, jobs: usize) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pkgrec"));
    cmd.arg(problem).arg(db).arg(w.query);
    if problem != "eval" {
        let (k, budget, jobs) = (w.k.to_string(), w.budget.to_string(), jobs.to_string());
        cmd.args(["--k", &k, "--budget", &budget, "--jobs", &jobs]);
        for (flag, spec) in [("--cost", w.cost), ("--val", w.val)] {
            if let Some(spec) = spec {
                cmd.args([flag, spec]);
            }
        }
        if problem == "count" {
            cmd.args(["--min-val", &w.min_val.to_string()]);
        }
        if let Some(n) = w.max_size {
            cmd.args(["--max-size", &n.to_string()]);
        }
    }
    let out = cmd.output().expect("pkgrec runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("UTF-8 output")
}

/// The oracle's answers as `/solve` renders its `result` field.
fn serve_rendering(inst: &RecInstance, oracle: &Oracle, b: f64) -> Vec<(&'static str, String)> {
    let ext = |e: Ext| match e {
        Ext::Finite(x) => format!("{x}"),
        inf => format!("\"{inf}\""),
    };
    let tuple = |t: &Tuple| {
        format!("[{}]", t.values().iter().map(ToString::to_string).collect::<Vec<_>>().join(","))
    };
    let list = |parts: Vec<String>| format!("[{}]", parts.join(","));
    let eval = list(oracle.items.iter().map(tuple).collect());
    let topk = oracle.top_k().map_or("null".to_string(), |sel| {
        list(sel
            .iter()
            .map(|p| {
                let items = list(p.iter().map(tuple).collect());
                format!("{{\"items\":{items},\"val\":{}}}", ext(inst.val.eval(p)))
            })
            .collect())
    });
    let bound = oracle.max_bound().map_or("null".to_string(), ext);
    let count = oracle.count(Ext::Finite(b)).to_string();
    vec![("eval", eval), ("topk", topk), ("bound", bound), ("count", count)]
}

fn post_solve(server: &ServerHandle, w: &Wire, problem: &str, jobs: usize) -> json::Json {
    let mut query = String::new();
    json::write_string(&mut query, w.query);
    let max_size = w.max_size.map_or("null".to_string(), |n| n.to_string());
    let mut specs = String::new();
    for (key, spec) in [("cost", w.cost), ("val", w.val)] {
        if let Some(spec) = spec {
            specs.push_str(&format!("\"{key}\":\"{spec}\","));
        }
    }
    let body = format!(
        "{{\"db\":\"{}\",\"problem\":\"{problem}\",\"query\":{query},\"k\":{},\"budget\":{},\
         {specs}\"min_val\":{},\"max_size\":{max_size},\"jobs\":{jobs}}}",
        w.name, w.k, w.budget, w.min_val
    );
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let request = format!(
        "POST /solve HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("receive");
    let (_, body) = response.split_once("\r\n\r\n").expect("framed response");
    json::parse(body).expect("JSON body")
}

// ---------------------------------------------------------------------
// Reduction instances
// ---------------------------------------------------------------------

/// What a theorem pins about a reduction instance.
enum Pin {
    /// RPP: whether the selection is a top-k selection.
    Rpp(Vec<Package>, bool),
    /// FRP: the rating of the top-1 package.
    TopRating(Option<Ext>),
    /// MBP: whether `B` is the maximum bound.
    MaxBound(Ext, bool),
    /// CPP: the count at `B`.
    Count(Ext, u128),
}

/// The library answer meets the pin at every jobs level; when `Q(D)`
/// has at most 16 items the oracle meets it too and every engine
/// matches the oracle. Returns whether the oracle ran.
fn pinned(inst: &RecInstance, pin: Pin) -> bool {
    let rating = |sel: Option<Vec<Package>>| sel.map(|s| inst.val.eval(&s[0]));
    for jobs in JOBS {
        let o = SolveOptions::unbounded().with_jobs(jobs);
        let holds = match &pin {
            Pin::Rpp(sel, yes) => rpp::is_top_k(inst, sel, &o).unwrap() == *yes,
            Pin::TopRating(r) => rating(frp::top_k(inst, &o).unwrap().value) == *r,
            Pin::MaxBound(b, yes) => mbp::is_maximum_bound(inst, *b, &o).unwrap() == *yes,
            Pin::Count(b, n) => cpp::count_valid(inst, *b, &o).unwrap().value == *n,
        };
        assert!(holds, "jobs {jobs} on {inst}");
    }
    let Some(oracle) = Oracle::new(inst) else { return false };
    let (holds, bound) = match &pin {
        Pin::Rpp(sel, yes) => (oracle.check(sel).is_ok() == *yes, Ext::NegInf),
        Pin::TopRating(r) => (rating(oracle.top_k()) == *r, Ext::NegInf),
        Pin::MaxBound(b, yes) => ((oracle.max_bound() == Some(*b)) == *yes, *b),
        Pin::Count(b, n) => (oracle.count(*b) == *n, *b),
    };
    assert!(holds, "oracle on {inst}");
    check_library(inst, &oracle, &[bound]);
    true
}

#[test]
fn reduction_instances_match_the_oracle_and_their_theorems() {
    let mut rng = StdRng::seed_from_u64(18);
    let mut ran = [0, 0];
    for i in 0..3 {
        let mut cases = Vec::new();
        // Thm 4.1: {∅} is a top-1 selection iff ∃X∀Y ψ is false; in
        // Lemma 4.4's data-complexity form, iff the 3CNF is unsatisfiable.
        let phi = gen::random_sigma2(&mut rng, 2, 2, 3);
        let phi = if i == 0 { gen::force_true_sigma2(&phi) } else { phi };
        let cnf = gen::random_3cnf(&mut rng, 3, 2);
        let cnf = if i == 0 { gen::force_unsat(&cnf) } else { cnf };
        let compat = lemma4_4::reduce(&cnf);
        for (r, yes) in [
            (thm4_1::reduce(&phi), !phi.is_true()),
            (thm4_1::from_compat(compat.instance, compat.rating_bound), !is_satisfiable(&cnf)),
        ] {
            cases.push((r.instance, Pin::Rpp(r.selection, yes)));
        }
        // Thm 5.1: the top-1 rating is the rank of the last satisfying
        // X, and the MAX-WEIGHT SAT optimum.
        let sigma2 = gen::random_sigma2(&mut rng, 3, 1, 3);
        let rank = MaximumSigma2(sigma2.clone()).last_satisfying_index();
        let rank = Pin::TopRating(rank.map(|x| Ext::Finite(x as f64)));
        cases.push((thm5_1::reduce_maximum_sigma2(&sigma2), rank));
        let mw = gen::random_max_weight_sat(&mut rng, 3, 2, 9);
        let best = Pin::TopRating(Some(Ext::Finite(max_weight_sat(&mw).0 as f64)));
        cases.push((thm5_1::reduce_max_weight_sat(&mw), best));
        // Thm 5.2: B is the maximum bound iff φ1 is true and φ2 false.
        let phi1 = gen::random_sigma2(&mut rng, 1, 1, 2);
        let phi2 = gen::random_sigma2(&mut rng, 1, 1, 2);
        let (inst, b) = thm5_2::reduce_pair(&phi1, &phi2);
        cases.push((inst, Pin::MaxBound(b, phi1.is_true() && !phi2.is_true())));
        // ...and in data complexity, iff φ1 is satisfiable and φ2 not
        // (42 items: checked against the theorem only).
        let pair = gen::random_sat_unsat(&mut rng, 3, 3);
        let (inst, b) = thm5_2::reduce_sat_unsat(&pair);
        cases.push((inst, Pin::MaxBound(b, pair.is_yes())));
        // Thm 5.3: the CPP count is #Π₁SAT / #Σ₁SAT.
        let dnf = gen::random_3dnf(&mut rng, 4, 3);
        let (inst, b) = thm5_3::reduce_pi1(&dnf, 2);
        cases.push((inst, Pin::Count(b, count_pi1(&dnf, 2))));
        let cnf = gen::random_3cnf(&mut rng, 4, 4);
        let (inst, b) = thm5_3::reduce_sigma1(&cnf, 2);
        cases.push((inst, Pin::Count(b, count_sigma1(&cnf, 2))));
        // Membership (Thm 4.1's PSPACE rows): {()} is a top-1
        // selection of the DATALOGnr / FO encoding iff the QBF holds.
        let qbf = gen::random_qbf(&mut rng, 3, 4);
        for (db, q) in [membership::qbf_to_datalognr(&qbf), membership::qbf_to_fo(&qbf)] {
            let (inst, sel) = membership::rpp_from_membership(db, q, tuple![]);
            cases.push((inst, Pin::Rpp(sel, qbf.is_true())));
        }
        for (inst, pin) in cases {
            ran[pinned(&inst, pin) as usize] += 1;
        }
    }
    assert_eq!(ran, [3, 27], "[theorem only, oracle too]");
}
