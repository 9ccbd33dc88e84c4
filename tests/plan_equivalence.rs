//! Randomized equivalence for the compiled-plan executor: for random
//! databases and queries across every language (CQ, UCQ, ∃FO⁺, FO with
//! negation, DATALOGnr/DATALOG), both a cached `CompiledPlan` and the
//! per-call `Query` API must produce the answers of the reference —
//! the FO embedding (`cq_to_fo`/`ucq_to_fo`) evaluated by the
//! active-domain engine, which shares no join code with the plans — for
//! full evaluation and pre-bound membership probes. Budgeted runs of a
//! plan compiled once and of a plan compiled per call charge the same
//! ticks and trip at the same cut, and dynamic-relation overlays
//! (cached, one-shot, and `Constraint::satisfied`) agree with
//! materializing the relation with `Database::with_relation`. A CQ's
//! text form round-trips through the parser, and FO negation is an
//! exact complement over the active domain. `tests/oracle_matrix.rs`
//! checks the same query paths over more databases and query forms.

mod common;

use std::collections::BTreeSet;

use proptest::prelude::*;

use common::{cq_strategy, db_strategy, dyn_cq_strategy};
use pkgrec::core::{Constraint, Package, ANSWER_RELATION};
use pkgrec::data::{tuple, AttrType, Relation, RelationSchema, Tuple};
use pkgrec::query::parser::parse_query;
use pkgrec::query::rewrite::{cq_to_datalog, cq_to_fo, ucq_to_fo};
use pkgrec::query::{
    Budget, ConjunctiveQuery, EvalContext, FoQuery, Formula, Query, QueryError, UnionQuery,
};

/// The query forms exercised per random CQ pair, each with its
/// reference: the CQ itself, a UCQ, their ∃FO⁺ embeddings, and the
/// CQ's Datalog embedding (`cq_to_datalog` emits a non-recursive
/// program, which `Query::language` classifies as DATALOGnr; the
/// Datalog engine runs both). The reference of each is the FO
/// embedding of the CQ or of the UCQ.
fn embeddings(cq: &ConjunctiveQuery, other: &ConjunctiveQuery) -> Vec<(Query, Query)> {
    let ucq = UnionQuery::new(vec![cq.clone(), other.clone()]).expect("same arity");
    let cq_ref = Query::Fo(cq_to_fo(cq));
    let ucq_ref = Query::Fo(ucq_to_fo(&ucq));
    vec![
        (Query::Cq(cq.clone()), cq_ref.clone()),
        (Query::Ucq(ucq), ucq_ref.clone()),
        (cq_ref.clone(), cq_ref.clone()),
        (ucq_ref.clone(), ucq_ref),
        (Query::Datalog(cq_to_datalog(cq)), cq_ref),
    ]
}

/// Run `probe` under `steps` twice — on the cached plan and compiled
/// per call — and require the same ticks and the same outcome,
/// including the exact cut of an interrupted run. A run that completes
/// must return `expected`, the unmetered answer.
fn same_metered_outcome<T: PartialEq + std::fmt::Debug>(
    steps: u64,
    expected: &T,
    cached: impl Fn(&pkgrec::query::Meter) -> Result<T, QueryError>,
    one_shot: impl Fn(&pkgrec::query::Meter) -> Result<T, QueryError>,
) -> Result<(), TestCaseError> {
    let (cm, om) = (Budget::with_steps(steps).meter(), Budget::with_steps(steps).meter());
    let (lhs, rhs) = (cached(&cm), one_shot(&om));
    prop_assert_eq!(cm.spent(), om.spent(), "ticks diverged under {} steps", steps);
    match (lhs, rhs) {
        (Ok(l), Ok(r)) => {
            prop_assert_eq!(&l, &r, "answers diverged under {} steps", steps);
            prop_assert_eq!(&l, expected, "metered answer differs under {} steps", steps);
        }
        (Err(QueryError::Interrupted(l)), Err(QueryError::Interrupted(r))) => {
            prop_assert_eq!(l, r, "cuts diverged under {} steps", steps)
        }
        (l, r) => prop_assert!(false, "divergent outcomes under {} steps: {:?} vs {:?}", steps, l, r),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Full evaluation: `CompiledPlan::eval` and `Query::eval` both
    /// equal the reference — the FO embedding, run by the active-domain
    /// interpreter — across every language, including full FO with
    /// negation.
    #[test]
    fn compiled_eval_matches_interpreter(
        db in db_strategy(),
        a in cq_strategy(),
        b in cq_strategy(),
    ) {
        let db = std::sync::Arc::new(db);
        for (q, reference) in embeddings(&a, &b) {
            let want = reference.eval(&db).unwrap();
            let plan = q.compile(&db).unwrap();
            prop_assert_eq!(&want, &plan.eval(None, None).unwrap(), "compiled {}", q);
            prop_assert_eq!(&want, &q.eval(&db).unwrap(), "one-shot {}", q);
        }
        // Full FO: the negated body over the active domain.
        let fo = cq_to_fo(&a);
        let neg = Query::Fo(FoQuery::new(fo.head.clone(), Formula::not(fo.body.clone())));
        let want = neg.eval(&db).unwrap();
        let plan = neg.compile(&db).unwrap();
        prop_assert_eq!(&want, &plan.eval(None, None).unwrap(), "on {}", neg);
    }

    /// Membership mode: `eval_pre_bound` returns exactly the matching
    /// answers, and `CompiledPlan::contains` and `Query::contains`
    /// agree with the reference, for answers and for out-of-domain
    /// tuples alike.
    #[test]
    fn pre_bound_probes_match_interpreter(
        db in db_strategy(),
        a in cq_strategy(),
        b in cq_strategy(),
    ) {
        let db = std::sync::Arc::new(db);
        for (q, reference) in embeddings(&a, &b) {
            let answers = reference.eval(&db).unwrap();
            let plan = q.compile(&db).unwrap();
            for t in answers.iter().take(4) {
                let bound = plan.eval_pre_bound(t, None, None).unwrap();
                prop_assert_eq!(&bound, &BTreeSet::from([t.clone()]), "on {}", q);
                prop_assert!(plan.contains(t, None, None).unwrap(), "on {}", q);
                prop_assert!(q.contains(&db, t).unwrap(), "one-shot on {}", q);
            }
            let foreign = tuple![99, 99];
            let want = reference.contains(&db, &foreign).unwrap();
            prop_assert!(plan.eval_pre_bound(&foreign, None, None).unwrap().is_empty());
            prop_assert_eq!(plan.contains(&foreign, None, None).unwrap(), want, "on {}", q);
            prop_assert_eq!(q.contains(&db, &foreign).unwrap(), want, "one-shot on {}", q);
        }
    }

    /// Compile once vs compile per call: under any step budget, a
    /// cached plan and the per-call API charge the same ticks and either
    /// finish with the unmetered answer or trip at the same cut — so a
    /// cached plan carries no state from one probe to the next (each
    /// budget is also probed after an unmetered run of the same plan).
    /// The unmetered answer itself must equal the FO embedding's.
    #[test]
    fn budget_interruption_is_bit_identical(db in db_strategy(), cq in cq_strategy()) {
        let db = std::sync::Arc::new(db);
        let reference = Query::Fo(cq_to_fo(&cq)).eval(&db).unwrap();
        let queries = [
            Query::Cq(cq.clone()),
            Query::Fo(cq_to_fo(&cq)),
            Query::Datalog(cq_to_datalog(&cq)),
        ];
        for q in &queries {
            let unlimited = Budget::with_steps(u64::MAX).meter();
            let full = q
                .eval_ctx(EvalContext::new(&db).with_meter(&unlimited))
                .unwrap();
            prop_assert_eq!(&full, &reference, "unmetered answer on {}", q);
            let used = unlimited.spent();
            let plan = q.compile(&db).unwrap();
            for steps in [used.saturating_sub(1), used] {
                prop_assert_eq!(&plan.eval(None, None).unwrap(), &full, "on {}", q);
                same_metered_outcome(
                    steps,
                    &full,
                    |m| plan.eval(None, Some(m)),
                    |m| q.eval_ctx(EvalContext::new(&db).with_meter(m)),
                )?;
            }
            // Membership probes, for an answer (when there is one) and
            // a foreign tuple.
            for t in full.iter().take(1).cloned().chain([tuple![99, 99]]) {
                let member = full.contains(&t);
                let unlimited = Budget::with_steps(u64::MAX).meter();
                let found = q
                    .contains_ctx(EvalContext::new(&db).with_meter(&unlimited), &t)
                    .unwrap();
                prop_assert_eq!(found, member, "unmetered membership on {}", q);
                let used = unlimited.spent();
                for steps in [used.saturating_sub(1), used] {
                    same_metered_outcome(
                        steps,
                        &member,
                        |m| plan.contains(&t, None, Some(m)),
                        |m| q.contains_ctx(EvalContext::new(&db).with_meter(m), &t),
                    )?;
                }
            }
        }
    }

    /// Dynamic overlays: binding random items to the open relation `RQ`
    /// answers exactly like materializing `RQ` with
    /// `Database::with_relation`, across the CQ, FO and Datalog paths —
    /// for a cached plan, the one-shot `Query::has_answer_with`, and
    /// `Constraint::satisfied` (with the items as the package).
    #[test]
    fn dynamic_overlay_matches_with_relation(
        db in db_strategy(),
        cq in dyn_cq_strategy(),
        items in prop::collection::btree_set((0i64..4, 0i64..4), 0..4),
    ) {
        let tuples: Vec<Tuple> = items.iter().map(|&(a, b)| tuple![a, b]).collect();
        let schema =
            RelationSchema::new(ANSWER_RELATION, [("c0", AttrType::Int), ("c1", AttrType::Int)])
            .expect("valid schema");
        let db = std::sync::Arc::new(db);
        let rel = Relation::from_tuples_unchecked(schema, tuples.iter().cloned());
        let extended = db.with_relation(rel);
        let queries = [
            Query::Cq(cq.clone()),
            Query::Fo(cq_to_fo(&cq)),
            Query::Datalog(cq_to_datalog(&cq)),
        ];
        let package = Package::new(tuples.iter().cloned());
        for q in &queries {
            let materialized = q.eval(&extended).unwrap();
            let plan = q.compile_with_dynamic(&db, ANSWER_RELATION, 2).unwrap();
            prop_assert_eq!(
                &materialized,
                &plan.eval_dynamic(tuples.iter(), None, None).unwrap(),
                "on {}", q
            );
            prop_assert_eq!(
                !materialized.is_empty(),
                plan.has_answer_dynamic(tuples.iter(), None, None).unwrap(),
                "on {}", q
            );
            prop_assert_eq!(
                !materialized.is_empty(),
                q.has_answer_with(EvalContext::new(&db), ANSWER_RELATION, 2, tuples.iter())
                    .unwrap(),
                "one-shot on {}", q
            );
            let qc = Constraint::Query(q.clone());
            prop_assert_eq!(
                materialized.is_empty(),
                qc.satisfied(&package, &db, 2, None).unwrap(),
                "Constraint::satisfied on {}", q
            );
        }
    }

    #[test]
    fn display_round_trips_through_parser(db in db_strategy(), cq in cq_strategy()) {
        let text = format!("{cq}.");
        let parsed = parse_query(&text).unwrap();
        prop_assert_eq!(
            Query::Cq(cq.clone()).eval(&db).unwrap(),
            parsed.eval(&db).unwrap(),
            "round-trip of `{}`", text
        );
    }

    #[test]
    fn negation_complement_law(db in db_strategy(), cq in cq_strategy()) {
        // Q ∪ ¬Q over the active domain covers every domain pair, and
        // Q ∩ ¬Q is empty — the FO engine's complement is exact.
        let fo = cq_to_fo(&cq);
        let pos = Query::Fo(fo.clone()).eval(&db).unwrap();
        let neg_q = FoQuery::new(fo.head.clone(), Formula::not(fo.body.clone()));
        let neg = Query::Fo(neg_q).eval(&db).unwrap();
        prop_assert!(pos.intersection(&neg).next().is_none());
    }
}
