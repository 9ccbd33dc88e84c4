//! Cross-crate property tests: on randomly generated recommendation
//! instances, the solvers must satisfy the defining invariants of
//! Sections 2–5 — every FRP answer passes RPP, MBP's decision and
//! function versions agree, CPP's count is antitone in the bound, and
//! the item fast path matches the Section 2 package embedding.

mod common;

use proptest::prelude::*;

use common::{item_instance, qc_strategy, scores_strategy, Qc};

use pkgrec::core::{
    problems::cpp, problems::frp, problems::mbp, problems::rpp, Ext, ItemInstance,
    ItemUtility, SizeBound, SolveOptions,
};
use pkgrec::data::{tuple, AttrType, Database, Relation, RelationSchema, Tuple};
use pkgrec::query::{ConjunctiveQuery, Query};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every FRP answer is certified by RPP (the function problem's
    /// output satisfies the decision problem's definition).
    #[test]
    fn frp_output_passes_rpp(scores in scores_strategy(), qc in qc_strategy(), k in 1usize..4) {
        let inst = item_instance(&scores, qc, k);
        let opts = SolveOptions::default();
        if let Some(sel) = frp::top_k(&inst, &opts).unwrap().value {
            prop_assert!(rpp::is_top_k(&inst, &sel, &opts).unwrap());
            prop_assert_eq!(sel.len(), k);
            // Ratings are non-increasing in rank.
            for w in sel.windows(2) {
                prop_assert!(inst.val.eval(&w[0]) >= inst.val.eval(&w[1]));
            }
        }
    }

    /// The enumerating solver and the paper's oracle-loop solver agree.
    #[test]
    fn frp_oracle_agrees(scores in scores_strategy(), qc in qc_strategy(), k in 1usize..4) {
        let inst = item_instance(&scores, qc, k);
        let opts = SolveOptions::default();
        prop_assert_eq!(
            frp::top_k(&inst, &opts).unwrap().value,
            frp::top_k_via_oracle(&inst, &opts).unwrap()
        );
    }

    /// `maximum_bound` and `is_maximum_bound` are two views of one
    /// number, and nothing above it is a bound (the L1 ∩ L2 split).
    #[test]
    fn mbp_function_and_decision_agree(scores in scores_strategy(), qc in qc_strategy(), k in 1usize..4) {
        let inst = item_instance(&scores, qc, k);
        let opts = SolveOptions::default();
        match mbp::maximum_bound(&inst, &opts).unwrap().value {
            Some(b) => {
                prop_assert!(mbp::is_maximum_bound(&inst, b, &opts).unwrap());
                let above = Ext::Finite(b.as_finite().unwrap() + 0.5);
                prop_assert!(!mbp::is_bound(&inst, above, &opts).unwrap());
            }
            None => {
                // No top-k selection ⇒ FRP agrees.
                prop_assert!(frp::top_k(&inst, &opts).unwrap().value.is_none());
            }
        }
    }

    /// CPP is antitone in the rating bound and consistent with MBP: at
    /// the maximum bound there are at least k valid packages.
    #[test]
    fn cpp_antitone_and_consistent(scores in scores_strategy(), qc in qc_strategy()) {
        let inst = item_instance(&scores, qc, 1);
        let opts = SolveOptions::default();
        let c_low = cpp::count_valid(&inst, Ext::Finite(0.0), &opts).unwrap().value;
        let c_mid = cpp::count_valid(&inst, Ext::Finite(30.0), &opts).unwrap().value;
        let c_high = cpp::count_valid(&inst, Ext::Finite(1e9), &opts).unwrap().value;
        prop_assert!(c_low >= c_mid && c_mid >= c_high);
        if let Some(b) = mbp::maximum_bound(&inst, &opts).unwrap().value {
            prop_assert!(cpp::count_valid(&inst, b, &opts).unwrap().value >= 1);
        }
    }

    /// Constant size bounds only shrink the candidate space: the
    /// constrained maximum bound never exceeds the unconstrained one.
    #[test]
    fn constant_bound_is_a_restriction(scores in scores_strategy()) {
        let opts = SolveOptions::default();
        let free = item_instance(&scores, Qc::Absent, 1);
        let capped = item_instance(&scores, Qc::Absent, 1).with_size_bound(SizeBound::Constant(1));
        let mb_free = mbp::maximum_bound(&free, &opts).unwrap().value;
        let mb_capped = mbp::maximum_bound(&capped, &opts).unwrap().value;
        if let (Some(f), Some(c)) = (mb_free, mb_capped) {
            prop_assert!(c <= f);
        }
    }

    /// A search that *finishes* within a step budget returns exactly
    /// the unbounded answer: budgets only cut work short, they never
    /// change a completed result.
    #[test]
    fn finished_budgeted_run_equals_unbounded(
        scores in scores_strategy(),
        qc in qc_strategy(),
        k in 1usize..4,
        budget in 1u64..40,
    ) {
        let inst = item_instance(&scores, qc, k);
        let unbounded = frp::top_k(&inst, &SolveOptions::default()).unwrap();
        prop_assert!(unbounded.exact);
        let bounded = frp::top_k(&inst, &SolveOptions::limited(budget)).unwrap();
        if bounded.exact {
            prop_assert_eq!(&bounded.value, &unbounded.value);
            prop_assert!(bounded.stats.packages_enumerated <= budget);
        } else {
            prop_assert!(bounded.stats.interrupted.is_some());
        }
        // A budget at least the unbounded run's step count always
        // finishes exactly.
        let enough = frp::top_k(
            &inst,
            &SolveOptions::limited(unbounded.stats.packages_enumerated),
        )
        .unwrap();
        prop_assert!(enough.exact);
        prop_assert_eq!(enough.value, unbounded.value);
    }

    /// Budget monotonicity: more steps never shrink what the anytime
    /// counter has seen — the partial CPP count is non-decreasing in
    /// the budget and always a lower bound on the exact count.
    #[test]
    fn cpp_partial_counts_are_monotone(
        scores in scores_strategy(),
        qc in qc_strategy(),
        b1 in 1u64..20,
        extra in 0u64..20,
    ) {
        let inst = item_instance(&scores, qc, 1);
        let bound = Ext::Finite(0.0);
        let exact = cpp::count_valid(&inst, bound, &SolveOptions::default()).unwrap();
        prop_assert!(exact.exact);
        // Pinned to the sequential engine: which prefix a step budget
        // covers is engine-dependent, so budget monotonicity is only a
        // contract of the jobs=1 walk.
        let small =
            cpp::count_valid(&inst, bound, &SolveOptions::limited(b1).with_jobs(1)).unwrap();
        let large =
            cpp::count_valid(&inst, bound, &SolveOptions::limited(b1 + extra).with_jobs(1))
                .unwrap();
        prop_assert!(small.value <= large.value);
        prop_assert!(large.value <= exact.value);
        prop_assert!(small.stats.packages_enumerated <= large.stats.packages_enumerated);
    }

    /// The item fast path equals the Section 2 embedding into packages.
    #[test]
    fn items_match_package_embedding(scores in scores_strategy(), k in 1usize..4) {
        let schema = RelationSchema::new(
            "item",
            [("id", AttrType::Int), ("grp", AttrType::Int), ("score", AttrType::Int)],
        ).expect("valid schema");
        let rel = Relation::from_tuples(
            schema,
            scores.iter().enumerate().map(|(i, &(g, s))| tuple![i as i64, g, s]),
        ).expect("schema-conformant");
        let mut db = Database::new();
        db.add_relation(rel).expect("fresh db");
        let item_inst = ItemInstance::new(
            db,
            Query::Cq(ConjunctiveQuery::identity("item", 3)),
            ItemUtility::new("score", |t| t[2].as_numeric().unwrap_or(0) as f64),
            k,
        );
        let fast = item_inst.top_k_items().unwrap();
        let slow = frp::top_k(&item_inst.as_package_instance(), &SolveOptions::default())
            .unwrap()
            .value;
        match (fast, slow) {
            (None, None) => {}
            (Some(f), Some(s)) => {
                let s_items: Vec<Tuple> = s
                    .iter()
                    .map(|p| p.iter().next().expect("singleton").clone())
                    .collect();
                prop_assert_eq!(f, s_items);
            }
            (f, s) => prop_assert!(false, "fast {:?} vs slow {:?}", f, s),
        }
    }
}
