//! Jobs-level equivalence: the search must return the answers of a
//! brute-force oracle at every jobs level, completed runs at jobs N
//! must be *bit-identical* to jobs = 1 — same packages, same ratings,
//! same statistics — and budget-interrupted multi-worker runs must
//! still satisfy the anytime contracts (certified lower bounds, charged
//! steps within the budget). `tests/oracle_matrix.rs` runs the same
//! comparisons over every instance class and surface.

mod common;

use proptest::prelude::*;

use common::{item_base, item_instance, qc_strategy, scores_strategy};
use pkgrec::core::{
    problems::cpp, problems::frp, problems::mbp, problems::rpp, Budget, CancelFlag, Ext, Package,
    PackageFn, RecInstance, SolveOptions,
};
use pkgrec::data::{tuple, AttrType, Database, Relation, RelationSchema};
use pkgrec::query::{ConjunctiveQuery, Query};

const JOBS_LEVELS: [usize; 3] = [2, 4, 8];

/// The brute-force oracle: every subset of `Q(D)` up to the size
/// bound, kept with its rating when `SearchContext::is_valid_package`
/// accepts it — no units, pruning or merge. Sorted best first: rating
/// descending, ties to the canonically smaller package (FRP's order).
fn oracle(inst: &RecInstance) -> Vec<(Ext, Package)> {
    let ctx = inst.search_context().expect("valid instance");
    let items = ctx.items();
    let mut valid = Vec::new();
    for mask in 0u32..1 << items.len() {
        if mask.count_ones() as usize > ctx.max_package_size() {
            continue;
        }
        let pkg = Package::new(
            items
                .iter()
                .enumerate()
                .filter(|&(i, _)| mask >> i & 1 == 1)
                .map(|(_, t)| t.clone()),
        );
        if ctx.is_valid_package(&pkg, None).expect("checkable") {
            valid.push((inst.val.eval(&pkg), pkg));
        }
    }
    valid.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    valid
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
        qc in qc_strategy(),
        k in 1usize..4,
    ) {
        let inst = item_instance(&scores, qc, k);
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

    /// Every jobs level, jobs = 1 included, returns the oracle's
    /// answers: the FRP top-k selection, the MBP maximum bound (the
    /// k-th best rating) and the CPP count of packages rated ≥ 10.
    #[test]
    fn solvers_match_the_brute_force_oracle(
        scores in scores_strategy(),
        qc in qc_strategy(),
        k in 1usize..4,
    ) {
        let inst = item_instance(&scores, qc, k);
        let valid = oracle(&inst);
        let top_k = (valid.len() >= k)
            .then(|| valid[..k].iter().map(|(_, p)| p.clone()).collect::<Vec<_>>());
        let max_bound = (valid.len() >= k).then(|| valid[k - 1].0);
        let count = valid.iter().filter(|(v, _)| *v >= Ext::Finite(10.0)).count() as u128;
        for jobs in [1].into_iter().chain(JOBS_LEVELS) {
            let opts = SolveOptions::default().with_jobs(jobs);
            let frp = frp::top_k(&inst, &opts).unwrap();
            prop_assert!(frp.exact);
            prop_assert_eq!(&frp.value, &top_k, "jobs {}", jobs);
            prop_assert_eq!(
                mbp::maximum_bound(&inst, &opts).unwrap().value,
                max_bound,
                "jobs {}", jobs
            );
            prop_assert_eq!(
                cpp::count_valid(&inst, Ext::Finite(10.0), &opts).unwrap().value,
                count,
                "jobs {}", jobs
            );
        }
    }

    /// A budget-interrupted parallel run keeps the anytime contracts:
    /// the partial count is a certified lower bound on the exact count,
    /// never exceeds the steps actually charged, the charged steps stay
    /// within the budget, and non-exactness always names the cut-off.
    #[test]
    fn interrupted_parallel_runs_honor_anytime_contracts(
        scores in scores_strategy(),
        qc in qc_strategy(),
        budget in 1u64..30,
        jobs_idx in 0usize..3,
    ) {
        let inst = item_instance(&scores, qc, 1);
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
        qc in qc_strategy(),
        base in 1u64..20,
        jobs_idx in 0usize..3,
    ) {
        let inst = item_instance(&scores, qc, 1);
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
        let inst = item_base(&scores);
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
        let inst = item_base(&scores);
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
    let sel = vec![Package::new([tuple![1]])];
    let seq = rpp::check_top_k(&inst, &sel, &SolveOptions::default().with_jobs(1))
        .unwrap()
        .unwrap_err();
    assert!(matches!(
        &seq,
        rpp::RppRefutation::Dominated { better, .. } if *better == Package::new([tuple![1], tuple![2]])
    ));
    for jobs in JOBS_LEVELS {
        let par = rpp::check_top_k(&inst, &sel, &SolveOptions::default().with_jobs(jobs))
            .unwrap()
            .unwrap_err();
        assert_eq!(par, seq, "jobs {jobs}");
    }
}
