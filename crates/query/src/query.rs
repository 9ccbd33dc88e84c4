use std::collections::BTreeSet;
use std::fmt;

use pkgrec_data::{Database, Tuple, Value};

use crate::cq::{ConjunctiveQuery, UnionQuery};
use crate::datalog::{BodyLiteral, DatalogProgram};
use crate::eval::{datalog as dl_eval, fo as fo_eval, EvalContext};
use crate::fo::{Formula, FoQuery};
use crate::language::QueryLanguage;
use crate::metric::MetricSet;
use crate::plan::eval_conj_once;
use crate::term::{Builtin, RelAtom, Term};
use crate::Result;

/// A query in any of the paper's languages (Section 2).
///
/// The variants are syntactic families; the *language* of a query — the
/// least member of the Section 2 lattice containing it — is computed by
/// [`Query::language`]. E.g. a `Fo` query without negation or `∀`
/// classifies as ∃FO⁺, and an acyclic `Datalog` program as DATALOGnr.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Query {
    /// A conjunctive query (possibly SP).
    Cq(ConjunctiveQuery),
    /// A union of conjunctive queries.
    Ucq(UnionQuery),
    /// A first-order query (possibly positive existential).
    Fo(FoQuery),
    /// A Datalog program (possibly non-recursive).
    Datalog(DatalogProgram),
}

impl Query {
    /// Answer arity.
    pub fn arity(&self) -> Result<usize> {
        match self {
            Query::Cq(q) => Ok(q.arity()),
            Query::Ucq(q) => Ok(q.arity()),
            Query::Fo(q) => Ok(q.arity()),
            Query::Datalog(p) => p.output_arity(),
        }
    }

    /// The least language of the Section 2 lattice containing this query.
    pub fn language(&self) -> QueryLanguage {
        match self {
            Query::Cq(q) => {
                if q.is_sp() {
                    QueryLanguage::Sp
                } else {
                    QueryLanguage::Cq
                }
            }
            Query::Ucq(u) => {
                if u.disjuncts.len() == 1 {
                    Query::Cq(u.disjuncts[0].clone()).language()
                } else {
                    QueryLanguage::Ucq
                }
            }
            Query::Fo(q) => {
                if q.body.is_positive_existential() {
                    QueryLanguage::ExistsFoPlus
                } else {
                    QueryLanguage::Fo
                }
            }
            Query::Datalog(p) => {
                if p.is_nonrecursive() {
                    QueryLanguage::DatalogNr
                } else {
                    QueryLanguage::Datalog
                }
            }
        }
    }

    /// Validate the query (safety / well-formedness).
    pub fn check(&self) -> Result<()> {
        match self {
            Query::Cq(q) => q.check_safe(),
            Query::Ucq(q) => q.check_safe(),
            Query::Fo(q) => q.check_safe(),
            Query::Datalog(p) => p.check(),
        }
    }

    /// Evaluate `Q(D)` with an explicit context (metrics for relaxed
    /// queries). CQ/UCQ queries compile a one-shot plan against
    /// `ctx.db` and run it once; to evaluate repeatedly, keep a
    /// [`Query::compile`]d plan instead.
    pub fn eval_ctx(&self, ctx: EvalContext<'_>) -> Result<BTreeSet<Tuple>> {
        match self {
            Query::Cq(q) => eval_conj_once(ctx, std::slice::from_ref(q), None, false),
            Query::Ucq(q) => eval_conj_once(ctx, &q.disjuncts, None, false),
            Query::Fo(q) => fo_eval::eval_fo(ctx, q, None),
            Query::Datalog(p) => dl_eval::eval_datalog(ctx, p),
        }
    }

    /// Evaluate `Q(D)`.
    pub fn eval(&self, db: &Database) -> Result<BTreeSet<Tuple>> {
        self.eval_ctx(EvalContext::new(db))
    }

    /// Evaluate `Q(D)` under a metric set Γ (needed when the query
    /// contains `DistLe` builtins from relaxation).
    pub fn eval_with_metrics(&self, db: &Database, metrics: &MetricSet) -> Result<BTreeSet<Tuple>> {
        self.eval_ctx(EvalContext::with_metrics(db, metrics))
    }

    /// Evaluate `Q(D)` under a resource budget. Evaluation counts one
    /// step per candidate tuple / domain combination considered and
    /// returns [`crate::QueryError::Interrupted`] when the meter's
    /// budget is exhausted, so even queries whose answers are
    /// exponential in the active domain terminate promptly.
    pub fn eval_budgeted(
        &self,
        db: &Database,
        meter: &pkgrec_guard::Meter,
    ) -> Result<BTreeSet<Tuple>> {
        self.eval_ctx(EvalContext::new(db).with_meter(meter))
    }

    /// The membership test `t ∈ Q(D)` — the paper's "membership problem"
    /// whose complexity drives the upper bounds for DATALOGnr, FO and
    /// DATALOG (Theorem 4.1). For CQ/UCQ/FO the head is pre-bound so
    /// evaluation only explores consistent tableaux; CQ/UCQ stop at the
    /// first one.
    pub fn contains_ctx(&self, ctx: EvalContext<'_>, t: &Tuple) -> Result<bool> {
        match self {
            Query::Cq(q) => {
                Ok(!eval_conj_once(ctx, std::slice::from_ref(q), Some(t), true)?.is_empty())
            }
            Query::Ucq(q) => Ok(!eval_conj_once(ctx, &q.disjuncts, Some(t), true)?.is_empty()),
            Query::Fo(q) => Ok(!fo_eval::eval_fo(ctx, q, Some(t))?.is_empty()),
            Query::Datalog(p) => Ok(dl_eval::eval_datalog(ctx, p)?.contains(t)),
        }
    }

    /// [`Query::contains_ctx`] without metrics.
    pub fn contains(&self, db: &Database, t: &Tuple) -> Result<bool> {
        self.contains_ctx(EvalContext::new(db), t)
    }

    /// [`Query::contains`] under a resource budget; see
    /// [`Query::eval_budgeted`].
    pub fn contains_budgeted(
        &self,
        db: &Database,
        t: &Tuple,
        meter: &pkgrec_guard::Meter,
    ) -> Result<bool> {
        self.contains_ctx(EvalContext::new(db).with_meter(meter), t)
    }

    /// Names of database relations the query reads.
    pub fn relations(&self) -> BTreeSet<String> {
        let strs: BTreeSet<&str> = match self {
            Query::Cq(q) => q.relations(),
            Query::Ucq(q) => q.relations(),
            Query::Fo(q) => q.body.relations(),
            Query::Datalog(p) => p.relations(),
        };
        strs.into_iter().map(str::to_string).collect()
    }

    /// Visit every relation atom mutably (used by query relaxation to
    /// substitute variables for constants).
    #[allow(clippy::redundant_closure)] // `f` is `&mut dyn FnMut`; the closure reborrows it
    pub fn visit_atoms_mut(&mut self, f: &mut dyn FnMut(&mut RelAtom)) {
        match self {
            Query::Cq(q) => q.atoms.iter_mut().for_each(|a| f(a)),
            Query::Ucq(u) => u
                .disjuncts
                .iter_mut()
                .flat_map(|q| q.atoms.iter_mut())
                .for_each(|a| f(a)),
            Query::Fo(q) => visit_formula_atoms(&mut q.body, f),
            Query::Datalog(p) => {
                for r in &mut p.rules {
                    for l in &mut r.body {
                        if let BodyLiteral::Rel(a) = l {
                            f(a);
                        }
                    }
                }
            }
        }
    }

    /// Visit every relation atom immutably.
    pub fn visit_atoms(&self, f: &mut dyn FnMut(&RelAtom)) {
        let mut me = self.clone();
        me.visit_atoms_mut(&mut |a| f(a));
    }

    /// Visit every built-in predicate mutably, in canonical order (used
    /// by query relaxation to widen `wc = c` into `dist(wc, c) ≤ d`,
    /// Section 7.1 of the paper).
    #[allow(clippy::redundant_closure)] // `f` is `&mut dyn FnMut`; the closure reborrows it
    pub fn visit_builtins_mut(&mut self, f: &mut dyn FnMut(&mut Builtin)) {
        match self {
            Query::Cq(q) => q.builtins.iter_mut().for_each(|b| f(b)),
            Query::Ucq(u) => u
                .disjuncts
                .iter_mut()
                .flat_map(|q| q.builtins.iter_mut())
                .for_each(|b| f(b)),
            Query::Fo(q) => visit_formula_builtins(&mut q.body, f),
            Query::Datalog(p) => {
                for r in &mut p.rules {
                    for l in &mut r.body {
                        if let BodyLiteral::Builtin(b) = l {
                            f(b);
                        }
                    }
                }
            }
        }
    }

    /// Visit every built-in predicate immutably.
    pub fn visit_builtins(&self, f: &mut dyn FnMut(&Builtin)) {
        let mut me = self.clone();
        me.visit_builtins_mut(&mut |b| f(b));
    }

    /// All constants appearing in relation atoms, with their positions:
    /// `(relation, column, value)` triples. These are the candidate
    /// relaxation parameters `E` of Section 7.1.
    pub fn atom_constants(&self) -> Vec<(String, usize, Value)> {
        let mut out = Vec::new();
        self.visit_atoms(&mut |a| {
            for (col, t) in a.terms.iter().enumerate() {
                if let Term::Const(c) = t {
                    out.push((a.relation.to_string(), col, c.clone()));
                }
            }
        });
        out
    }

    /// Add a conjunct of built-in predicates to the query. For CQ/UCQ
    /// they join the builtin list (of every disjunct); for FO the body is
    /// wrapped in a conjunction; for Datalog they are appended to every
    /// rule defining the output predicate.
    pub fn add_builtins(&mut self, builtins: Vec<Builtin>) {
        if builtins.is_empty() {
            return;
        }
        match self {
            Query::Cq(q) => q.builtins.extend(builtins),
            Query::Ucq(u) => {
                for d in &mut u.disjuncts {
                    d.builtins.extend(builtins.iter().cloned());
                }
            }
            Query::Fo(q) => {
                let mut parts = vec![std::mem::replace(&mut q.body, Formula::And(vec![]))];
                parts.extend(builtins.into_iter().map(Formula::Builtin));
                q.body = Formula::and(parts);
            }
            Query::Datalog(p) => {
                let output = p.output.clone();
                for r in &mut p.rules {
                    if r.head.relation == output {
                        r.body
                            .extend(builtins.iter().cloned().map(BodyLiteral::Builtin));
                    }
                }
            }
        }
    }
}

fn visit_formula_builtins(f: &mut Formula, g: &mut dyn FnMut(&mut Builtin)) {
    match f {
        Formula::Atom(_) => {}
        Formula::Builtin(b) => g(b),
        Formula::And(fs) | Formula::Or(fs) => {
            for h in fs {
                visit_formula_builtins(h, g);
            }
        }
        Formula::Not(h) | Formula::Exists(_, h) | Formula::Forall(_, h) => {
            visit_formula_builtins(h, g);
        }
    }
}

fn visit_formula_atoms(f: &mut Formula, g: &mut dyn FnMut(&mut RelAtom)) {
    match f {
        Formula::Atom(a) => g(a),
        Formula::Builtin(_) => {}
        Formula::And(fs) | Formula::Or(fs) => {
            for h in fs {
                visit_formula_atoms(h, g);
            }
        }
        Formula::Not(h) | Formula::Exists(_, h) | Formula::Forall(_, h) => {
            visit_formula_atoms(h, g);
        }
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Query::Cq(q) => write!(f, "{q}"),
            Query::Ucq(q) => write!(f, "{q}"),
            Query::Fo(q) => write!(f, "{q}"),
            Query::Datalog(p) => write!(f, "{p}"),
        }
    }
}

impl From<ConjunctiveQuery> for Query {
    fn from(q: ConjunctiveQuery) -> Self {
        Query::Cq(q)
    }
}

impl From<UnionQuery> for Query {
    fn from(q: UnionQuery) -> Self {
        Query::Ucq(q)
    }
}

impl From<FoQuery> for Query {
    fn from(q: FoQuery) -> Self {
        Query::Fo(q)
    }
}

impl From<DatalogProgram> for Query {
    fn from(p: DatalogProgram) -> Self {
        Query::Datalog(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datalog::Rule;
    use crate::term::{var, CmpOp};
    use crate::QueryError;
    use pkgrec_data::{tuple, AttrType, Relation, RelationSchema};

    fn db() -> Database {
        let mut db = Database::new();
        let e = RelationSchema::new("e", [("s", AttrType::Int), ("d", AttrType::Int)]).unwrap();
        db.add_relation(
            Relation::from_tuples(e, [tuple![1, 2], tuple![2, 3]]).unwrap(),
        )
        .unwrap();
        db
    }

    /// e = {1→2, 2→3, 3→4, 1→3}; lbl = {2 mid, 3 mid, 4 end}.
    fn join_db() -> Database {
        let mut db = Database::new();
        let e = RelationSchema::new("e", [("src", AttrType::Int), ("dst", AttrType::Int)])
            .unwrap();
        db.add_relation(
            Relation::from_tuples(
                e,
                [tuple![1, 2], tuple![2, 3], tuple![3, 4], tuple![1, 3]],
            )
            .unwrap(),
        )
        .unwrap();
        let lbl = RelationSchema::new("lbl", [("n", AttrType::Int), ("tag", AttrType::Str)])
            .unwrap();
        db.add_relation(
            Relation::from_tuples(lbl, [tuple![2, "mid"], tuple![3, "mid"], tuple![4, "end"]])
                .unwrap(),
        )
        .unwrap();
        db
    }

    fn path2() -> Query {
        Query::Cq(ConjunctiveQuery::new(
            vec![Term::v("x"), Term::v("z")],
            vec![
                RelAtom::new("e", vec![Term::v("x"), Term::v("y")]),
                RelAtom::new("e", vec![Term::v("y"), Term::v("z")]),
            ],
            vec![],
        ))
    }

    fn answers(q: &Query) -> BTreeSet<Tuple> {
        q.eval(&join_db()).unwrap()
    }

    #[test]
    fn single_atom_scan() {
        assert_eq!(answers(&Query::Cq(ConjunctiveQuery::identity("e", 2))).len(), 4);
    }

    #[test]
    fn join_two_atoms() {
        // Q(x, z) :- e(x, y), e(y, z): paths of length 2.
        assert_eq!(
            answers(&path2()),
            [tuple![1, 3], tuple![1, 4], tuple![2, 4]].into_iter().collect()
        );
    }

    #[test]
    fn constants_select() {
        // Q(y) :- e(1, y).
        let q = Query::Cq(ConjunctiveQuery::new(
            vec![Term::v("y")],
            vec![RelAtom::new("e", vec![Term::c(1), Term::v("y")])],
            vec![],
        ));
        assert_eq!(answers(&q), [tuple![2], tuple![3]].into_iter().collect());
    }

    #[test]
    fn builtins_filter() {
        // Q(x, y) :- e(x, y), x != 1, y >= 4.
        let q = Query::Cq(ConjunctiveQuery::new(
            vec![Term::v("x"), Term::v("y")],
            vec![RelAtom::new("e", vec![Term::v("x"), Term::v("y")])],
            vec![
                Builtin::cmp(Term::v("x"), CmpOp::Neq, Term::c(1)),
                Builtin::cmp(Term::v("y"), CmpOp::Geq, Term::c(4)),
            ],
        ));
        assert_eq!(answers(&q), [tuple![3, 4]].into_iter().collect());
    }

    #[test]
    fn cross_relation_join_with_string() {
        // Q(x, t) :- e(x, y), lbl(y, t), t = "mid".
        let q = Query::Cq(ConjunctiveQuery::new(
            vec![Term::v("x"), Term::v("t")],
            vec![
                RelAtom::new("e", vec![Term::v("x"), Term::v("y")]),
                RelAtom::new("lbl", vec![Term::v("y"), Term::v("t")]),
            ],
            vec![Builtin::eq(Term::v("t"), Term::c("mid"))],
        ));
        assert_eq!(
            answers(&q),
            [tuple![1, "mid"], tuple![2, "mid"]].into_iter().collect()
        );
    }

    #[test]
    fn membership_prebinding() {
        let db = join_db();
        let q = path2();
        assert!(q.contains(&db, &tuple![1, 4]).unwrap());
        assert!(!q.contains(&db, &tuple![4, 1]).unwrap());
        // Wrong arity can never match.
        assert!(!q.contains(&db, &tuple![1]).unwrap());
    }

    #[test]
    fn repeated_variable_in_atom() {
        // Q(x) :- e(x, x): no self-loops in db.
        let q = Query::Cq(ConjunctiveQuery::new(
            vec![Term::v("x")],
            vec![RelAtom::new("e", vec![Term::v("x"), Term::v("x")])],
            vec![],
        ));
        assert!(answers(&q).is_empty());
    }

    #[test]
    fn cartesian_product() {
        let q = Query::Cq(ConjunctiveQuery::new(
            vec![Term::v("x"), Term::v("n")],
            vec![
                RelAtom::new("e", vec![Term::v("x"), Term::v("y")]),
                RelAtom::new("lbl", vec![Term::v("n"), Term::v("t")]),
            ],
            vec![],
        ));
        // 3 distinct x values × 3 distinct n values.
        assert_eq!(answers(&q).len(), 9);
    }

    #[test]
    fn unknown_relation_errors() {
        let q = Query::Cq(ConjunctiveQuery::identity("nope", 2));
        assert!(matches!(
            q.eval(&join_db()),
            Err(QueryError::UnknownRelation(_))
        ));
    }

    #[test]
    fn atom_arity_mismatch_errors() {
        let q = Query::Cq(ConjunctiveQuery::identity("e", 3));
        assert!(matches!(
            q.eval(&join_db()),
            Err(QueryError::AtomArityMismatch { .. })
        ));
    }

    #[test]
    fn ucq_unions() {
        let select = |c: i64| {
            ConjunctiveQuery::new(
                vec![Term::v("y")],
                vec![RelAtom::new("e", vec![Term::c(c), Term::v("y")])],
                vec![],
            )
        };
        let q = Query::Ucq(UnionQuery::new(vec![select(1), select(3)]).unwrap());
        assert_eq!(
            answers(&q),
            [tuple![2], tuple![3], tuple![4]].into_iter().collect()
        );
    }

    #[test]
    fn head_constants_pass_through() {
        let q = Query::Cq(ConjunctiveQuery::new(
            vec![Term::c("seen"), Term::v("y")],
            vec![RelAtom::new("e", vec![Term::c(1), Term::v("y")])],
            vec![],
        ));
        assert!(answers(&q).contains(&tuple!["seen", 2]));
    }

    #[test]
    fn boolean_query_emits_empty_tuple() {
        // Q() :- e(1, 2): true, answer is {()}.
        let q = Query::Cq(ConjunctiveQuery::new(
            Vec::<Term>::new(),
            vec![RelAtom::new("e", vec![Term::c(1), Term::c(2)])],
            vec![],
        ));
        let ans = answers(&q);
        assert_eq!(ans.len(), 1);
        assert_eq!(ans.iter().next().unwrap().arity(), 0);

        let qf = Query::Cq(ConjunctiveQuery::new(
            Vec::<Term>::new(),
            vec![RelAtom::new("e", vec![Term::c(4), Term::c(1)])],
            vec![],
        ));
        assert!(answers(&qf).is_empty());
    }

    #[test]
    fn language_classification() {
        let sp = Query::Cq(ConjunctiveQuery::identity("e", 2));
        assert_eq!(sp.language(), QueryLanguage::Sp);

        let cq = Query::Cq(ConjunctiveQuery::new(
            vec![Term::v("x")],
            vec![
                RelAtom::new("e", vec![Term::v("x"), Term::v("y")]),
                RelAtom::new("e", vec![Term::v("y"), Term::v("z")]),
            ],
            vec![],
        ));
        assert_eq!(cq.language(), QueryLanguage::Cq);

        let ucq = Query::Ucq(
            UnionQuery::new(vec![
                ConjunctiveQuery::identity("e", 2),
                ConjunctiveQuery::identity("e", 2),
            ])
            .unwrap(),
        );
        assert_eq!(ucq.language(), QueryLanguage::Ucq);

        let singleton_union = Query::Ucq(
            UnionQuery::new(vec![ConjunctiveQuery::identity("e", 2)]).unwrap(),
        );
        assert_eq!(singleton_union.language(), QueryLanguage::Sp);

        let pos_fo = Query::Fo(FoQuery::new(
            vec![Term::v("x")],
            Formula::exists(
                vec![var("y")],
                Formula::Atom(RelAtom::new("e", vec![Term::v("x"), Term::v("y")])),
            ),
        ));
        assert_eq!(pos_fo.language(), QueryLanguage::ExistsFoPlus);

        let fo = Query::Fo(FoQuery::new(
            vec![Term::v("x")],
            Formula::not(Formula::Atom(RelAtom::new(
                "e",
                vec![Term::v("x"), Term::v("x")],
            ))),
        ));
        assert_eq!(fo.language(), QueryLanguage::Fo);

        let nr = Query::Datalog(DatalogProgram::new(
            vec![Rule::new(
                RelAtom::new("p", vec![Term::v("x")]),
                vec![BodyLiteral::Rel(RelAtom::new(
                    "e",
                    vec![Term::v("x"), Term::v("y")],
                ))],
            )],
            "p",
        ));
        assert_eq!(nr.language(), QueryLanguage::DatalogNr);

        let rec = Query::Datalog(DatalogProgram::new(
            vec![
                Rule::new(
                    RelAtom::new("tc", vec![Term::v("x"), Term::v("y")]),
                    vec![BodyLiteral::Rel(RelAtom::new(
                        "e",
                        vec![Term::v("x"), Term::v("y")],
                    ))],
                ),
                Rule::new(
                    RelAtom::new("tc", vec![Term::v("x"), Term::v("z")]),
                    vec![
                        BodyLiteral::Rel(RelAtom::new("e", vec![Term::v("x"), Term::v("y")])),
                        BodyLiteral::Rel(RelAtom::new("tc", vec![Term::v("y"), Term::v("z")])),
                    ],
                ),
            ],
            "tc",
        ));
        assert_eq!(rec.language(), QueryLanguage::Datalog);
    }

    #[test]
    fn eval_and_membership_agree_across_variants() {
        let db = db();
        let queries: Vec<Query> = vec![
            Query::Cq(ConjunctiveQuery::identity("e", 2)),
            Query::Ucq(UnionQuery::new(vec![ConjunctiveQuery::identity("e", 2)]).unwrap()),
            Query::Fo(FoQuery::new(
                vec![Term::v("x0"), Term::v("x1")],
                Formula::Atom(RelAtom::new("e", vec![Term::v("x0"), Term::v("x1")])),
            )),
            Query::Datalog(DatalogProgram::new(
                vec![Rule::new(
                    RelAtom::new("out", vec![Term::v("x"), Term::v("y")]),
                    vec![BodyLiteral::Rel(RelAtom::new(
                        "e",
                        vec![Term::v("x"), Term::v("y")],
                    ))],
                )],
                "out",
            )),
        ];
        for q in queries {
            let ans = q.eval(&db).unwrap();
            assert_eq!(ans.len(), 2, "query {q}");
            for t in &ans {
                assert!(q.contains(&db, t).unwrap());
            }
            assert!(!q.contains(&db, &tuple![9, 9]).unwrap());
        }
    }

    #[test]
    fn atom_constants_enumerated() {
        let q = Query::Cq(ConjunctiveQuery::new(
            vec![Term::v("y")],
            vec![RelAtom::new("e", vec![Term::c(1), Term::v("y")])],
            vec![],
        ));
        let consts = q.atom_constants();
        assert_eq!(consts, vec![("e".to_string(), 0, Value::Int(1))]);
    }

    #[test]
    fn add_builtins_to_each_variant() {
        let db = db();
        let lt = |n| vec![Builtin::cmp(Term::v("y"), CmpOp::Lt, Term::c(n))];

        let mut cq = Query::Cq(ConjunctiveQuery::new(
            vec![Term::v("x"), Term::v("y")],
            vec![RelAtom::new("e", vec![Term::v("x"), Term::v("y")])],
            vec![],
        ));
        cq.add_builtins(lt(3));
        assert_eq!(cq.eval(&db).unwrap().len(), 1);

        let mut fo = Query::Fo(FoQuery::new(
            vec![Term::v("x"), Term::v("y")],
            Formula::Atom(RelAtom::new("e", vec![Term::v("x"), Term::v("y")])),
        ));
        fo.add_builtins(lt(3));
        assert_eq!(fo.eval(&db).unwrap().len(), 1);

        let mut dl = Query::Datalog(DatalogProgram::new(
            vec![Rule::new(
                RelAtom::new("out", vec![Term::v("x"), Term::v("y")]),
                vec![BodyLiteral::Rel(RelAtom::new(
                    "e",
                    vec![Term::v("x"), Term::v("y")],
                ))],
            )],
            "out",
        ));
        dl.add_builtins(lt(3));
        assert_eq!(dl.eval(&db).unwrap().len(), 1);
    }

    #[test]
    fn visit_atoms_mut_rewrites() {
        let mut q = Query::Cq(ConjunctiveQuery::new(
            vec![Term::v("y")],
            vec![RelAtom::new("e", vec![Term::c(1), Term::v("y")])],
            vec![],
        ));
        q.visit_atoms_mut(&mut |a| {
            for t in &mut a.terms {
                if *t == Term::c(1) {
                    *t = Term::c(2);
                }
            }
        });
        let db = db();
        assert_eq!(q.eval(&db).unwrap(), [tuple![3]].into_iter().collect());
    }
}
