//! Semi-naive bottom-up Datalog evaluation.
//!
//! The paper's DATALOG is positive Datalog with built-ins, evaluated as
//! an inflationary fixpoint (Section 2(f)); DATALOGnr is the acyclic
//! fragment. One engine serves both: semi-naive iteration fires each
//! rule only on derivations that involve at least one newly derived
//! fact, and terminates after at most `#strata` rounds on non-recursive
//! programs.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use pkgrec_data::Tuple;

use crate::cq::ConjunctiveQuery;
use crate::datalog::{BodyLiteral, DatalogProgram};
use crate::eval::EvalContext;
use crate::plan::{EdbRels, RuleRunner};
use crate::Result;

/// The name a semi-naive firing binds `pred`'s new facts under. `#`
/// cannot occur in an identifier of the query syntax, so no parsed
/// relation is shadowed.
fn delta_name(pred: &str) -> String {
    format!("#Δ{pred}")
}

/// One rule, as conjunctive bodies for the executor.
struct RuleParts {
    head: Arc<str>,
    /// The rule body as a conjunction (head terms, atoms, builtins).
    body: ConjunctiveQuery,
    /// Per body atom over an IDB predicate: the predicate, and the body
    /// with that atom reading the predicate's delta.
    delta_bodies: Vec<(Arc<str>, ConjunctiveQuery)>,
}

/// Evaluate a Datalog program over `ctx.db`; returns the derived
/// relation of the output predicate as a set of tuples.
pub(crate) fn eval_datalog(ctx: EvalContext<'_>, prog: &DatalogProgram) -> Result<BTreeSet<Tuple>> {
    let _span = pkgrec_trace::span!("datalog.fixpoint");
    prog.check()?;
    let edb = EdbRels::compile(prog, ctx.db, None)?;
    fixpoint(ctx, prog, RuleRunner::new(&edb))
}

/// The semi-naive fixpoint of a checked program, firing its rules on
/// `runner` (which holds the EDB and any dynamic binding). Callers
/// open the `datalog.fixpoint` span.
pub(crate) fn fixpoint(
    ctx: EvalContext<'_>,
    prog: &DatalogProgram,
    mut runner: RuleRunner<'_>,
) -> Result<BTreeSet<Tuple>> {
    let arities = prog.idb_arities()?;
    let idb: BTreeSet<Arc<str>> = prog.idb_predicates();

    let parts: Vec<RuleParts> = prog
        .rules
        .iter()
        .map(|rule| {
            let mut atoms = Vec::new();
            let mut builtins = Vec::new();
            for l in &rule.body {
                match l {
                    BodyLiteral::Rel(a) => atoms.push(a.clone()),
                    BodyLiteral::Builtin(b) => builtins.push(b.clone()),
                }
            }
            let body = ConjunctiveQuery::new(rule.head.terms.clone(), atoms, builtins);
            let delta_bodies = body
                .atoms
                .iter()
                .enumerate()
                .filter(|(_, a)| idb.contains(&a.relation))
                .map(|(pos, a)| {
                    let mut renamed = body.clone();
                    renamed.atoms[pos].relation = Arc::from(delta_name(&a.relation));
                    (Arc::clone(&a.relation), renamed)
                })
                .collect();
            RuleParts {
                head: Arc::clone(&rule.head.relation),
                body,
                delta_bodies,
            }
        })
        .collect();

    let empty = || -> BTreeMap<Arc<str>, BTreeSet<Tuple>> {
        arities.keys().map(|p| (Arc::clone(p), BTreeSet::new())).collect()
    };
    let mut full = empty();

    // Round 0: naive firing of the rules without IDB atoms, the only
    // ones that can derive anything from an empty IDB.
    let mut delta = empty();
    for p in parts.iter().filter(|p| p.delta_bodies.is_empty()) {
        let derived = runner.fire(ctx, &p.body)?;
        delta.get_mut(&p.head).expect("head is IDB").extend(derived);
    }
    for (pred, d) in &delta {
        full.get_mut(pred).expect("same keys").extend(d.iter().cloned());
    }

    // Semi-naive rounds: each rule fires once per IDB body atom, with
    // that atom reading only the previous round's new facts.
    loop {
        if delta.values().all(BTreeSet::is_empty) {
            break;
        }
        // Each round re-binds every IDB relation for the join executor;
        // charge that copying work (plus one step for the round itself)
        // so a long fixpoint chain is interruptible even when
        // individual rule firings are small.
        ctx.tick()?;
        ctx.tick_n(full.values().map(|s| s.len() as u64).sum())?;
        pkgrec_trace::counter!("datalog.fixpoint_rounds");
        for (pred, &arity) in &arities {
            runner.bind(pred, arity, &full[pred]);
            runner.bind(&delta_name(pred), arity, &delta[pred]);
        }

        let mut new_delta = empty();
        for p in &parts {
            for (pred, body) in &p.delta_bodies {
                if delta[pred].is_empty() {
                    continue;
                }
                let derived = runner.fire(ctx, body)?;
                let head_full = &full[&p.head];
                new_delta
                    .get_mut(&p.head)
                    .expect("head is IDB")
                    .extend(derived.into_iter().filter(|t| !head_full.contains(t)));
            }
        }

        for (pred, d) in &new_delta {
            full.get_mut(pred).expect("same keys").extend(d.iter().cloned());
        }
        pkgrec_trace::counter!(
            "datalog.facts_derived",
            new_delta.values().map(|s| s.len() as u64).sum()
        );
        delta = new_delta;
    }

    Ok(full.remove(&prog.output).expect("output predicate is IDB"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datalog::Rule;
    use crate::term::{CmpOp, RelAtom, Term};
    use crate::QueryError;
    use pkgrec_data::{tuple, AttrType, Database, Relation, RelationSchema};
    use pkgrec_guard::Budget;

    fn edge_db(edges: &[(i64, i64)]) -> Database {
        let mut db = Database::new();
        let schema = RelationSchema::new("e", [("s", AttrType::Int), ("d", AttrType::Int)])
            .unwrap();
        db.add_relation(
            Relation::from_tuples(schema, edges.iter().map(|&(a, b)| tuple![a, b])).unwrap(),
        )
        .unwrap();
        db
    }

    fn atom(rel: &str, vars: &[&str]) -> RelAtom {
        RelAtom::new(rel, vars.iter().map(Term::v).collect::<Vec<_>>())
    }

    fn tc_program() -> DatalogProgram {
        DatalogProgram::new(
            vec![
                Rule::new(atom("tc", &["x", "y"]), vec![BodyLiteral::Rel(atom("e", &["x", "y"]))]),
                Rule::new(
                    atom("tc", &["x", "z"]),
                    vec![
                        BodyLiteral::Rel(atom("tc", &["x", "y"])),
                        BodyLiteral::Rel(atom("e", &["y", "z"])),
                    ],
                ),
            ],
            "tc",
        )
    }

    #[test]
    fn transitive_closure_of_a_path() {
        let db = edge_db(&[(1, 2), (2, 3), (3, 4)]);
        let ans = eval_datalog(EvalContext::new(&db), &tc_program()).unwrap();
        // All 6 ordered pairs (i, j) with i < j on the path.
        assert_eq!(ans.len(), 6);
        assert!(ans.contains(&tuple![1, 4]));
        assert!(!ans.contains(&tuple![4, 1]));
    }

    #[test]
    fn transitive_closure_of_a_cycle_terminates() {
        let db = edge_db(&[(1, 2), (2, 3), (3, 1)]);
        let ans = eval_datalog(EvalContext::new(&db), &tc_program()).unwrap();
        assert_eq!(ans.len(), 9); // complete on {1,2,3}
    }

    #[test]
    fn nonrecursive_program_single_pass() {
        // reach2(x, z) :- e(x, y), e(y, z); goal(x) :- reach2(x, z), z = 4.
        let db = edge_db(&[(1, 2), (2, 4), (3, 4)]);
        let prog = DatalogProgram::new(
            vec![
                Rule::new(
                    atom("reach2", &["x", "z"]),
                    vec![
                        BodyLiteral::Rel(atom("e", &["x", "y"])),
                        BodyLiteral::Rel(atom("e", &["y", "z"])),
                    ],
                ),
                Rule::new(
                    atom("goal", &["x"]),
                    vec![
                        BodyLiteral::Rel(atom("reach2", &["x", "z"])),
                        BodyLiteral::Builtin(crate::term::Builtin::cmp(
                            Term::v("z"),
                            CmpOp::Eq,
                            Term::c(4),
                        )),
                    ],
                ),
            ],
            "goal",
        );
        assert!(prog.is_nonrecursive());
        let ans = eval_datalog(EvalContext::new(&db), &prog).unwrap();
        assert_eq!(ans, [tuple![1]].into_iter().collect());
    }

    #[test]
    fn builtins_in_recursive_rules() {
        // Bounded reachability: tc only through nodes < 4.
        let db = edge_db(&[(1, 2), (2, 3), (3, 4), (4, 5)]);
        let prog = DatalogProgram::new(
            vec![
                Rule::new(
                    atom("r", &["x", "y"]),
                    vec![
                        BodyLiteral::Rel(atom("e", &["x", "y"])),
                        BodyLiteral::Builtin(crate::term::Builtin::cmp(
                            Term::v("x"),
                            CmpOp::Lt,
                            Term::c(4),
                        )),
                    ],
                ),
                Rule::new(
                    atom("r", &["x", "z"]),
                    vec![
                        BodyLiteral::Rel(atom("r", &["x", "y"])),
                        BodyLiteral::Rel(atom("r", &["y", "z"])),
                    ],
                ),
            ],
            "r",
        );
        let ans = eval_datalog(EvalContext::new(&db), &prog).unwrap();
        assert!(ans.contains(&tuple![1, 4]));
        assert!(!ans.contains(&tuple![4, 5]));
        assert!(!ans.contains(&tuple![1, 5]));
    }

    #[test]
    fn mutual_recursion() {
        // even(x) / odd(x) distance from node 1 along a path.
        let db = edge_db(&[(1, 2), (2, 3), (3, 4)]);
        let prog = DatalogProgram::new(
            vec![
                Rule::new(
                    atom("even", &["x"]),
                    vec![
                        BodyLiteral::Rel(atom("e", &["x", "y"])),
                        BodyLiteral::Builtin(crate::term::Builtin::cmp(
                            Term::v("x"),
                            CmpOp::Eq,
                            Term::c(1),
                        )),
                    ],
                ),
                Rule::new(
                    atom("odd", &["y"]),
                    vec![
                        BodyLiteral::Rel(atom("even", &["x"])),
                        BodyLiteral::Rel(atom("e", &["x", "y"])),
                    ],
                ),
                Rule::new(
                    atom("even", &["y"]),
                    vec![
                        BodyLiteral::Rel(atom("odd", &["x"])),
                        BodyLiteral::Rel(atom("e", &["x", "y"])),
                    ],
                ),
            ],
            "odd",
        );
        let ans = eval_datalog(EvalContext::new(&db), &prog).unwrap();
        assert_eq!(ans, [tuple![2], tuple![4]].into_iter().collect());
    }

    #[test]
    fn unknown_edb_is_an_error() {
        let db = edge_db(&[(1, 2)]);
        let prog = DatalogProgram::new(
            vec![Rule::new(
                atom("p", &["x"]),
                vec![BodyLiteral::Rel(atom("missing", &["x"]))],
            )],
            "p",
        );
        assert!(matches!(
            eval_datalog(EvalContext::new(&db), &prog),
            Err(QueryError::UnknownRelation(_))
        ));
    }

    #[test]
    fn empty_output_when_rules_never_fire() {
        let db = edge_db(&[]);
        let ans = eval_datalog(EvalContext::new(&db), &tc_program()).unwrap();
        assert!(ans.is_empty());
    }

    /// Rule firings run inside the fixpoint's span and open none of
    /// their own, so a budget cut mid-fixpoint is attributed to
    /// `datalog.fixpoint`.
    #[test]
    fn rule_firings_stay_under_the_fixpoint_span() {
        let _scope = pkgrec_trace::scoped();
        pkgrec_trace::reset();
        let db = edge_db(&[(1, 2), (2, 3), (3, 4), (4, 5)]);
        eval_datalog(EvalContext::new(&db), &tc_program()).unwrap();
        let report = pkgrec_trace::take();
        let spans: Vec<&str> = report.spans.keys().map(String::as_str).collect();
        assert_eq!(spans, ["datalog.fixpoint"]);

        let meter = Budget::with_steps(5).meter();
        let err = eval_datalog(EvalContext::new(&db).with_meter(&meter), &tc_program());
        match err {
            Err(QueryError::Interrupted(cut)) => assert_eq!(cut.span, Some("datalog.fixpoint")),
            other => panic!("expected an interrupt, got {other:?}"),
        }
    }
}
