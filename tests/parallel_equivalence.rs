//! Parallel-engine equivalence: the prefix-partitioned multi-worker
//! search must be *bit-identical* to the sequential walk on completed
//! runs — same packages, same ratings, same statistics — for every
//! jobs level, and budget-interrupted parallel runs must still satisfy
//! the anytime contracts (certified lower bounds, charged steps within
//! the budget).

use proptest::prelude::*;

use pkgrec::core::{
    problems::cpp, problems::frp, problems::mbp, problems::rpp, Budget, CancelFlag, Constraint,
    Ext, PackageFn, RecInstance, SolveOptions,
};
use pkgrec::data::{tuple, AttrType, Database, Relation, RelationSchema};
use pkgrec::query::{ConjunctiveQuery, Query};

const JOBS_LEVELS: [usize; 3] = [2, 4, 8];

/// Same generator as `solver_invariants`: items with groups and scores,
/// budget 2 items, val = total score, optional PTIME constraint.
fn instance(scores: Vec<(i64, i64)>, with_qc: bool, k: usize) -> RecInstance {
    let schema = RelationSchema::new(
        "item",
        [("id", AttrType::Int), ("grp", AttrType::Int), ("score", AttrType::Int)],
    )
    .expect("valid schema");
    let rel = Relation::from_tuples(
        schema,
        scores
            .iter()
            .enumerate()
            .map(|(i, &(g, s))| tuple![i as i64, g, s]),
    )
    .expect("schema-conformant");
    let mut db = Database::new();
    db.add_relation(rel).expect("fresh db");
    let mut inst = RecInstance::new(db, Query::Cq(ConjunctiveQuery::identity("item", 3)))
        .with_budget(2.0)
        .with_val(PackageFn::sum_col(2, true))
        .with_k(k);
    if with_qc {
        inst = inst.with_qc(Constraint::ptime("distinct groups", |p, _| {
            let mut seen = std::collections::BTreeSet::new();
            p.iter().all(|t| seen.insert(t[1].clone()))
        }));
    }
    inst
}

fn scores_strategy() -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((0i64..3, 1i64..50), 1..8)
}

/// Like [`instance`] but with no item-count budget: the full 2^n
/// package space is enumerated, so for large enough n the search is
/// guaranteed to cross the amortized (per-worker) deadline and
/// cancellation polls.
fn wide_instance(scores: Vec<(i64, i64)>) -> RecInstance {
    let schema = RelationSchema::new(
        "item",
        [("id", AttrType::Int), ("grp", AttrType::Int), ("score", AttrType::Int)],
    )
    .expect("valid schema");
    let rel = Relation::from_tuples(
        schema,
        scores
            .iter()
            .enumerate()
            .map(|(i, &(g, s))| tuple![i as i64, g, s]),
    )
    .expect("schema-conformant");
    let mut db = Database::new();
    db.add_relation(rel).expect("fresh db");
    RecInstance::new(db, Query::Cq(ConjunctiveQuery::identity("item", 3)))
        .with_val(PackageFn::sum_col(2, true))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Completed runs are bit-identical across engines: the whole FRP
    /// outcome (selection, exactness, statistics), the MBP maximum
    /// bound, the CPP count, and the RPP verdict all match jobs=1
    /// exactly at every jobs level.
    #[test]
    fn all_solvers_agree_across_jobs_levels(
        scores in scores_strategy(),
        with_qc in any::<bool>(),
        k in 1usize..4,
    ) {
        let inst = instance(scores, with_qc, k);
        let seq = SolveOptions::default().with_jobs(1);
        let topk_seq = frp::top_k(&inst, &seq).unwrap();
        let mb_seq = mbp::maximum_bound(&inst, &seq).unwrap();
        let count_seq = cpp::count_valid(&inst, Ext::Finite(10.0), &seq).unwrap();
        let rpp_seq = topk_seq
            .value
            .as_ref()
            .map(|sel| rpp::is_top_k(&inst, sel, &seq).unwrap());
        for jobs in JOBS_LEVELS {
            let par = SolveOptions::default().with_jobs(jobs);
            prop_assert_eq!(&frp::top_k(&inst, &par).unwrap(), &topk_seq, "jobs {}", jobs);
            prop_assert_eq!(&mbp::maximum_bound(&inst, &par).unwrap(), &mb_seq, "jobs {}", jobs);
            prop_assert_eq!(
                &cpp::count_valid(&inst, Ext::Finite(10.0), &par).unwrap(),
                &count_seq,
                "jobs {}", jobs
            );
            let rpp_par = topk_seq
                .value
                .as_ref()
                .map(|sel| rpp::is_top_k(&inst, sel, &par).unwrap());
            prop_assert_eq!(&rpp_par, &rpp_seq, "jobs {}", jobs);
        }
    }

    /// A budget-interrupted parallel run keeps the anytime contracts:
    /// the partial count is a certified lower bound on the exact count,
    /// never exceeds the steps actually charged, the charged steps stay
    /// within the budget, and non-exactness always names the cut-off.
    #[test]
    fn interrupted_parallel_runs_honor_anytime_contracts(
        scores in scores_strategy(),
        with_qc in any::<bool>(),
        budget in 1u64..30,
        jobs_idx in 0usize..3,
    ) {
        let inst = instance(scores, with_qc, 1);
        let jobs = JOBS_LEVELS[jobs_idx];
        let exact = cpp::count_valid(&inst, Ext::NegInf, &SolveOptions::default().with_jobs(jobs))
            .unwrap();
        prop_assert!(exact.exact);
        let bounded = cpp::count_valid(
            &inst,
            Ext::NegInf,
            &SolveOptions::limited(budget).with_jobs(jobs),
        )
        .unwrap();
        prop_assert_eq!(bounded.exact, bounded.stats.interrupted.is_none());
        prop_assert!(bounded.value <= exact.value);
        prop_assert!(bounded.value <= u128::from(bounded.stats.packages_enumerated));
        prop_assert!(bounded.stats.packages_enumerated <= budget);
        if bounded.exact {
            prop_assert_eq!(bounded.value, exact.value);
        }

        // FRP under the same cut: a *finished* budgeted parallel run is
        // the unbounded answer, and an unfinished one says so.
        let full = frp::top_k(&inst, &SolveOptions::default().with_jobs(jobs)).unwrap();
        let cut = frp::top_k(&inst, &SolveOptions::limited(budget).with_jobs(jobs)).unwrap();
        if cut.exact {
            prop_assert_eq!(&cut.value, &full.value);
        } else {
            prop_assert!(cut.interrupted.is_some());
        }
    }

    /// Cutting the same search at ever-later ticks refines the answer
    /// monotonically: sequentially (jobs=1, canonical enumeration
    /// order — the first b steps are a prefix of the first 2b) the
    /// partial count and the reported progress fraction never shrink
    /// as the budget grows. Parallel cuts at the same budgets are
    /// scheduling-dependent in *which* packages get the ticks, so they
    /// promise only the anytime bounds: a valid undercount and a
    /// progress fraction in [0, 1].
    #[test]
    fn progress_is_monotone_across_step_cuts(
        scores in scores_strategy(),
        with_qc in any::<bool>(),
        base in 1u64..20,
        jobs_idx in 0usize..3,
    ) {
        let inst = instance(scores, with_qc, 1);
        let jobs = JOBS_LEVELS[jobs_idx];
        let exact = cpp::count_valid(&inst, Ext::NegInf, &SolveOptions::default()).unwrap();
        let mut prev_count = 0u128;
        let mut prev_progress = 0.0f64;
        for budget in [base, base * 2, base * 4, base * 8] {
            // jobs=1 explicitly: a PKGREC_JOBS override must not turn
            // the sequential-monotonicity half into a parallel run
            // (worker timing makes parallel cuts anytime-only).
            let out =
                cpp::count_valid(&inst, Ext::NegInf, &SolveOptions::limited(budget).with_jobs(1))
                    .unwrap();
            prop_assert!(out.value <= exact.value);
            prop_assert!(out.value >= prev_count, "count shrank as budget grew");
            prev_count = out.value;
            match out.stats.progress_at_interrupt {
                Some(p) => {
                    prop_assert!(!out.exact);
                    prop_assert!((0.0..=1.0).contains(&p), "progress {p} out of range");
                    prop_assert!(
                        p >= prev_progress,
                        "progress receded: {p} < {prev_progress}"
                    );
                    prev_progress = p;
                }
                None => {
                    prop_assert!(out.exact);
                    prop_assert_eq!(out.value, exact.value);
                }
            }

            let par = cpp::count_valid(
                &inst,
                Ext::NegInf,
                &SolveOptions::limited(budget).with_jobs(jobs),
            )
            .unwrap();
            prop_assert!(par.value <= exact.value);
            if let Some(p) = par.stats.progress_at_interrupt {
                prop_assert!(!par.exact);
                prop_assert!((0.0..=1.0).contains(&p), "parallel progress {p} out of range");
            } else {
                prop_assert!(par.exact);
                prop_assert_eq!(par.value, exact.value);
            }
        }
    }

    /// Cancellation raised while a large search is in flight degrades
    /// to a best-so-far partial naming `cancelled` as the cut-off —
    /// never an error, never a wrong (over-counted) answer. The flag is
    /// raised before the solve, but polling is amortized *per worker*
    /// (every 1024 of a worker's own steps), so the search only
    /// notices mid-enumeration — and with 2^14+ packages across at
    /// most 8 workers, some worker is guaranteed to reach its poll.
    #[test]
    fn cancel_mid_search_degrades_to_a_partial(
        scores in prop::collection::vec((0i64..3, 1i64..50), 14..16),
        jobs_idx in 0usize..3,
    ) {
        let n = scores.len() as u32;
        let inst = wide_instance(scores);
        let jobs = JOBS_LEVELS[jobs_idx];
        let flag = CancelFlag::new();
        flag.cancel();
        let opts = SolveOptions::with_budget(Budget::default().cancellable(&flag)).with_jobs(jobs);
        let out = cpp::count_valid(&inst, Ext::NegInf, &opts).unwrap();
        prop_assert!(!out.exact);
        let cut = out.interrupted.as_ref().expect("cancelled run is interrupted");
        prop_assert_eq!(cut.resource.label(), "cancelled");
        prop_assert!(out.value < 1u128 << n, "partial must be a strict undercount");
        let p = out.stats.progress_at_interrupt.expect("interrupted run reports progress");
        prop_assert!((0.0..1.0).contains(&p));

        // Same cut through FRP. Its bound-pruned search may finish
        // before the first amortized poll; the contract is "exact, or
        // a typed cancellation" — never an error or a silent partial.
        let topk = frp::top_k(&inst, &opts).unwrap();
        if !topk.exact {
            prop_assert_eq!(
                topk.interrupted.as_ref().expect("interrupted").resource.label(),
                "cancelled"
            );
        }
    }

    /// An already-expired deadline behaves exactly like cancellation:
    /// the search runs to its first poll, then returns a partial that
    /// names `deadline`.
    #[test]
    fn expired_deadline_degrades_to_a_partial(
        scores in prop::collection::vec((0i64..3, 1i64..50), 14..16),
        jobs_idx in 0usize..3,
    ) {
        let inst = wide_instance(scores);
        let jobs = JOBS_LEVELS[jobs_idx];
        let opts = SolveOptions::with_budget(Budget::with_timeout(std::time::Duration::ZERO))
            .with_jobs(jobs);
        let out = cpp::count_valid(&inst, Ext::NegInf, &opts).unwrap();
        prop_assert!(!out.exact);
        prop_assert_eq!(
            out.interrupted.as_ref().expect("interrupted").resource.label(),
            "deadline"
        );
        let p = out.stats.progress_at_interrupt.expect("interrupted run reports progress");
        prop_assert!((0.0..1.0).contains(&p));
    }
}

/// The refutation search breaks on the canonically *first* dominating
/// package, so even the explanation of a "no" answer is engine-
/// independent.
#[test]
fn refutations_are_deterministic_across_engines() {
    // Items {1,2,3}, budget 2 items, val = sum: {1} (val 1) is beaten
    // first by {1,2} in canonical subset order.
    let mut db = Database::new();
    let r = RelationSchema::new("r", [("a", AttrType::Int)]).unwrap();
    db.add_relation(Relation::from_tuples(r, [tuple![1], tuple![2], tuple![3]]).unwrap())
        .unwrap();
    let inst = RecInstance::new(db, Query::Cq(ConjunctiveQuery::identity("r", 1)))
        .with_budget(2.0)
        .with_val(PackageFn::sum_col(0, true));
    let sel = vec![pkgrec::core::Package::new([tuple![1]])];
    let seq = rpp::check_top_k(&inst, &sel, &SolveOptions::default().with_jobs(1))
        .unwrap()
        .unwrap_err();
    assert!(matches!(
        &seq,
        rpp::RppRefutation::Dominated { better, .. } if *better == pkgrec::core::Package::new([tuple![1], tuple![2]])
    ));
    for jobs in JOBS_LEVELS {
        let par = rpp::check_top_k(&inst, &sel, &SolveOptions::default().with_jobs(jobs))
            .unwrap()
            .unwrap_err();
        assert_eq!(par, seq, "jobs {jobs}");
    }
}
