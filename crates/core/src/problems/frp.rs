//! FRP — *the function recommendation problem (packages)*, Section 5:
//! compute a top-k package selection if one exists.
//!
//! Two solvers are provided and cross-tested:
//!
//! * [`top_k`] — a direct enumerator that streams all valid packages
//!   and keeps the k best (rating-descending, package-ascending
//!   tie-break). This is the Corollary 6.1 algorithm when the size
//!   bound is constant. It is *anytime*: under an exhausted
//!   [`SolveOptions`] budget it returns the best selection found so
//!   far, flagged non-exact, instead of failing.
//! * [`top_k_via_oracle`] — the oracle-guided structure of the paper's
//!   FPΣp₂ algorithm (Theorem 5.1): repeatedly call the `EXISTPACK≥`
//!   oracle for the best valid package distinct from those already
//!   selected. Our oracle ([`exist_pack_ge`]) is the exhaustive-search
//!   stand-in for the Σp₂ oracle; because each oracle answer must be
//!   certified by a complete search, this solver is strict and errors
//!   on budget exhaustion.

use std::collections::BTreeSet;
use std::ops::ControlFlow;

use pkgrec_guard::Outcome;

use crate::enumerate::{
    reduce_valid_packages, reduce_valid_packages_in, SearchStats, SolveOptions,
    ValidPackageReducer,
};
use crate::instance::{RecInstance, SearchContext};
use crate::package::Package;
use crate::rating::Ext;
use crate::Result;

/// Candidate ordering key: better = higher rating, then *smaller*
/// package in canonical order. Wrapping `Package` in `Reverse` makes a
/// max-comparison prefer the smaller package on rating ties.
type Key = (Ext, std::cmp::Reverse<Package>);

/// Whether `(val, pkg)` beats the current weakest kept candidate,
/// compared **by reference** — no package clone on the (overwhelmingly
/// common) rejection path.
fn beats(val: Ext, pkg: &Package, weakest: &Key) -> bool {
    match val.cmp(&weakest.0) {
        std::cmp::Ordering::Greater => true,
        std::cmp::Ordering::Less => false,
        // Equal rating: the canonically smaller package wins.
        std::cmp::Ordering::Equal => *pkg < weakest.1 .0,
    }
}

/// Insert a candidate into a size-capped min-keyed working set, cloning
/// the package only when it actually enters the set.
fn insert_capped(best: &mut BTreeSet<Key>, k: usize, pkg: &Package, val: Ext) {
    if best.len() == k {
        let weakest = best.first().expect("k ≥ 1 and the set is full");
        if !beats(val, pkg, weakest) {
            return;
        }
        best.pop_first();
    }
    pkgrec_trace::counter!("frp.candidate_inserts");
    best.insert((val, std::cmp::Reverse(pkg.clone())));
}

/// Merge-side variant of [`insert_capped`] for already-owned keys
/// (combining per-worker working sets; no counter — the insertions were
/// counted when the workers first saw the packages).
fn insert_capped_owned(best: &mut BTreeSet<Key>, k: usize, candidate: Key) {
    if best.len() == k {
        let weakest = best.first().expect("k ≥ 1 and the set is full");
        if !beats(candidate.0, &candidate.1 .0, weakest) {
            return;
        }
        best.pop_first();
    }
    best.insert(candidate);
}

/// Keep the `k` best `(rating, package)` candidates seen.
struct TopKSel {
    k: usize,
}

impl ValidPackageReducer for TopKSel {
    type Acc = BTreeSet<Key>;

    fn new_acc(&self) -> Self::Acc {
        BTreeSet::new()
    }

    fn visit(&self, acc: &mut Self::Acc, pkg: &Package, val: Ext) -> ControlFlow<()> {
        insert_capped(acc, self.k, pkg, val);
        ControlFlow::Continue(())
    }

    fn merge(&self, into: &mut Self::Acc, later: Self::Acc) {
        for candidate in later {
            insert_capped_owned(into, self.k, candidate);
        }
    }
}

/// Keep the single best candidate not in an exclusion list.
struct BestAbove<'a> {
    exclude: &'a [Package],
}

impl ValidPackageReducer for BestAbove<'_> {
    type Acc = Option<Key>;

    fn new_acc(&self) -> Self::Acc {
        None
    }

    fn visit(&self, acc: &mut Self::Acc, pkg: &Package, val: Ext) -> ControlFlow<()> {
        if !self.exclude.contains(pkg) {
            let better = match acc {
                None => true,
                Some(best) => beats(val, pkg, best),
            };
            if better {
                *acc = Some((val, std::cmp::Reverse(pkg.clone())));
            }
        }
        ControlFlow::Continue(())
    }

    fn merge(&self, into: &mut Self::Acc, later: Self::Acc) {
        if let Some(candidate) = later {
            let better = match into {
                None => true,
                Some(best) => beats(candidate.0, &candidate.1 .0, best),
            };
            if better {
                *into = Some(candidate);
            }
        }
    }
}

/// Compute a top-k package selection, sorted by descending rating
/// (ties: canonically smaller package first), deterministically.
///
/// The result is an [`Outcome`]:
///
/// * exact, `Some(sel)` — a certified top-k selection;
/// * exact, `None` — certified that fewer than `k` distinct valid
///   packages exist;
/// * non-exact (budget exhausted) — the best-so-far selection over the
///   visited prefix: `Some` of up to `k` packages, or `None` when the
///   cut-off happened before any valid package was seen. Nothing is
///   certified.
pub fn top_k(
    inst: &RecInstance,
    opts: &SolveOptions,
) -> Result<Outcome<Option<Vec<Package>>, SearchStats>> {
    let ctx = inst.search_context()?;
    top_k_in(&ctx, opts)
}

/// [`top_k`] on a prebuilt [`SearchContext`] — the entry point for
/// callers that amortize plan compilation across solves (e.g. a
/// resident server stamping contexts out of a
/// [`PreparedInstance`](crate::PreparedInstance)).
pub fn top_k_in(
    ctx: &SearchContext<'_>,
    opts: &SolveOptions,
) -> Result<Outcome<Option<Vec<Package>>, SearchStats>> {
    if let Some(params) = &opts.approx {
        return crate::sketch::top_k(ctx, opts, params);
    }
    let _span = pkgrec_trace::span!("frp.top_k");
    let k = ctx.instance().k;
    let (best, stats) = reduce_valid_packages_in(ctx, None, opts, &TopKSel { k })?;
    let found: Vec<Package> = best
        .into_iter()
        .rev() // best first
        .map(|(_, std::cmp::Reverse(p))| p)
        .collect();
    Ok(match stats.interrupted {
        None => {
            let value = if found.len() < k { None } else { Some(found) };
            Outcome::exact(value, stats)
        }
        Some(cut) => {
            let value = if found.is_empty() { None } else { Some(found) };
            Outcome::partial(value, cut, stats)
        }
    })
}

/// The `EXISTPACK≥` oracle of Theorem 5.1: a valid package `N` with
/// `val(N) ≥ bound` that is not in `exclude`, if one exists. The
/// *best* such package (same order as [`top_k`]) is returned, making
/// the oracle deterministic. Strict: a budget cut-off is an error,
/// since a partial search certifies neither the best package nor
/// nonexistence.
pub fn exist_pack_ge(
    inst: &RecInstance,
    exclude: &[Package],
    bound: Ext,
    opts: &SolveOptions,
) -> Result<Option<Package>> {
    let _span = pkgrec_trace::span!("frp.exist_pack_ge");
    let (best, stats) = reduce_valid_packages(inst, Some(bound), opts, &BestAbove { exclude })?;
    if let Some(cut) = stats.interrupted {
        return Err(cut.into());
    }
    Ok(best.map(|(_, std::cmp::Reverse(p))| p))
}

/// Compute a top-k selection with the paper's oracle-call structure:
/// `k` rounds, each selecting the best valid package distinct from the
/// already-selected ones. Strict (see [`exist_pack_ge`]); note the step
/// budget applies per oracle call.
pub fn top_k_via_oracle(inst: &RecInstance, opts: &SolveOptions) -> Result<Option<Vec<Package>>> {
    let mut selected: Vec<Package> = Vec::with_capacity(inst.k);
    for _ in 0..inst.k {
        match exist_pack_ge(inst, &selected, Ext::NegInf, opts)? {
            Some(p) => selected.push(p),
            None => return Ok(None),
        }
    }
    Ok(Some(selected))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::Constraint;
    use crate::functions::PackageFn;
    use crate::CoreError;
    use pkgrec_data::{tuple, AttrType, Database, Relation, RelationSchema};
    use pkgrec_query::{ConjunctiveQuery, Query};

    fn inst() -> RecInstance {
        let mut db = Database::new();
        let r = RelationSchema::new("r", [("a", AttrType::Int)]).unwrap();
        db.add_relation(
            Relation::from_tuples(r, [tuple![1], tuple![2], tuple![3]]).unwrap(),
        )
        .unwrap();
        RecInstance::new(db, Query::Cq(ConjunctiveQuery::identity("r", 1)))
            .with_budget(2.0)
            .with_val(PackageFn::sum_col(0, true))
    }

    /// Exact helper for tests: unwrap an exact outcome's value.
    fn top_k_exact(inst: &RecInstance, opts: &SolveOptions) -> Option<Vec<Package>> {
        let out = top_k(inst, opts).unwrap();
        assert!(out.exact, "expected an exact (uninterrupted) run");
        out.value
    }

    #[test]
    fn top_1_is_the_max_sum_pair() {
        let sel = top_k_exact(&inst(), &SolveOptions::default()).unwrap();
        assert_eq!(sel, vec![Package::new([tuple![2], tuple![3]])]);
    }

    #[test]
    fn top_3_ordering() {
        let sel = top_k_exact(&inst().with_k(3), &SolveOptions::default()).unwrap();
        assert_eq!(
            sel,
            vec![
                Package::new([tuple![2], tuple![3]]), // 5
                Package::new([tuple![1], tuple![3]]), // 4
                Package::new([tuple![1], tuple![2]]), // 3 — beats {3} by tie? no: {3} has 3 too
            ]
        );
    }

    #[test]
    fn tie_break_prefers_smaller_package() {
        // val({1,2}) = 3 = val({3}); the canonical order on packages has
        // {(1),(2)} < {(3)} (first element (1) < (3)), so {1,2} wins.
        let sel = top_k_exact(&inst().with_k(3), &SolveOptions::default()).unwrap();
        assert_eq!(sel[2], Package::new([tuple![1], tuple![2]]));
    }

    #[test]
    fn none_when_not_enough_packages() {
        // Qc rejects everything.
        let i = inst().with_qc(Constraint::ptime("reject all", |_, _| false));
        assert!(top_k_exact(&i, &SolveOptions::default()).is_none());
        // k larger than the number of valid packages (6 nonempty ≤2-item
        // subsets of 3 items).
        let i = inst().with_k(7);
        assert!(top_k_exact(&i, &SolveOptions::default()).is_none());
        let i = inst().with_k(6);
        assert!(top_k_exact(&i, &SolveOptions::default()).is_some());
    }

    #[test]
    fn oracle_and_enumerator_agree() {
        for k in 1..=6 {
            let i = inst().with_k(k);
            let a = top_k_exact(&i, &SolveOptions::default());
            let b = top_k_via_oracle(&i, &SolveOptions::default()).unwrap();
            assert_eq!(a, b, "k = {k}");
        }
    }

    #[test]
    fn every_result_is_a_top_k_selection() {
        use crate::problems::rpp::is_top_k;
        for k in 1..=4 {
            let i = inst().with_k(k);
            let sel = top_k_exact(&i, &SolveOptions::default()).unwrap();
            assert!(is_top_k(&i, &sel, &SolveOptions::default()).unwrap(), "k = {k}");
        }
    }

    #[test]
    fn exist_pack_bound_filters() {
        let i = inst();
        let p = exist_pack_ge(&i, &[], Ext::Finite(5.0), &SolveOptions::default())
            .unwrap()
            .unwrap();
        assert_eq!(p, Package::new([tuple![2], tuple![3]]));
        assert!(exist_pack_ge(&i, &[], Ext::Finite(6.0), &SolveOptions::default())
            .unwrap()
            .is_none());
        // Excluding the best yields the runner-up.
        let second = exist_pack_ge(
            &i,
            &[Package::new([tuple![2], tuple![3]])],
            Ext::NegInf,
            &SolveOptions::default(),
        )
        .unwrap()
        .unwrap();
        assert_eq!(second, Package::new([tuple![1], tuple![3]]));
    }

    #[test]
    fn working_set_clones_only_on_insertion() {
        // Regression: every visited valid package used to be cloned
        // into a candidate key (plus a `weakest.clone()` per visit).
        // Now a candidate enters the working set only when it beats the
        // weakest kept one, and the `frp.candidate_inserts` counter
        // pins the insertion count: with k = 1 the valid ratings arrive
        // as 1, 3, 4, 2, 5, 3 — exactly 4 improve on the incumbent.
        let _scope = pkgrec_trace::scoped();
        pkgrec_trace::reset();
        top_k(&inst(), &SolveOptions::default().with_jobs(1)).unwrap();
        let report = pkgrec_trace::take();
        assert_eq!(report.counters["enumerate.valid"], 6);
        assert_eq!(report.counters["frp.candidate_inserts"], 4);
    }

    #[test]
    fn exhausted_budget_yields_anytime_best() {
        // Canonical DFS order visits ∅, {1}, {1,2}, ... — a budget of 3
        // sees val 1 and 3 but never the true best ({2,3}, val 5).
        // Pinned to jobs = 1: which prefix a step budget covers depends
        // on the worker count.
        let out = top_k(&inst(), &SolveOptions::limited(3).with_jobs(1)).unwrap();
        assert!(!out.exact);
        let sel = out.value.expect("a valid package was seen before cut-off");
        assert!(!sel.is_empty());
        // The unbounded run strictly improves on the partial one.
        let full = top_k_exact(&inst(), &SolveOptions::default()).unwrap();
        assert!(inst().val.eval(&full[0]) > inst().val.eval(&sel[0]));
    }

    #[test]
    fn oracle_is_strict_under_budget() {
        let r = top_k_via_oracle(&inst(), &SolveOptions::limited(2));
        assert!(matches!(r, Err(CoreError::SearchLimitExceeded { .. })));
    }
}
