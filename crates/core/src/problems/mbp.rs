//! MBP — *the maximum bound problem (packages)*, Section 5:
//!
//! > Is `B` the maximum bound such that a top-k package selection
//! > exists with every member rated at least `B`?
//!
//! The decision follows the paper's `L1 ∩ L2` characterization
//! (Theorem 5.2 upper bound): `B` is a bound iff `k` distinct valid
//! packages rate `≥ B` (L1), and it is maximum iff additionally *no*
//! `k` distinct valid packages rate `> B` (L2). Both tests are
//! early-stopping enumerations.
//!
//! The decision procedures are strict — a budget cut-off before the
//! answer is certified is an error — while the function problem
//! [`maximum_bound`] is *anytime*: under an exhausted budget it returns
//! the k-th best rating over the visited prefix (a lower bound on the
//! true maximum bound), flagged non-exact.

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

/// Count matching packages up to `k`, early-stopping at `k`. The break
/// is accumulator-dependent (a worker partition may not reach `k`
/// locally even when the global count does), but the *decision* — is
/// the merged count ≥ k? — is identical for every engine: either some
/// partition reaches `k` (merged count ≥ k) or none does and every
/// partition counts exhaustively (merged count is the true count).
struct CountUpTo {
    k: usize,
    /// When set, count only packages rated strictly above this.
    strictly_above: Option<Ext>,
}

impl ValidPackageReducer for CountUpTo {
    type Acc = usize;

    fn new_acc(&self) -> Self::Acc {
        0
    }

    fn visit(&self, acc: &mut Self::Acc, _pkg: &Package, val: Ext) -> ControlFlow<()> {
        if let Some(b) = self.strictly_above {
            if val <= b {
                return ControlFlow::Continue(());
            }
        }
        *acc += 1;
        if *acc >= self.k {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }

    fn merge(&self, into: &mut Self::Acc, later: Self::Acc) {
        *into += later;
    }
}

/// Keep the `k` largest ratings (multiset) seen.
struct KLargest {
    k: usize,
}

impl ValidPackageReducer for KLargest {
    type Acc = Vec<Ext>;

    fn new_acc(&self) -> Self::Acc {
        Vec::new()
    }

    fn visit(&self, acc: &mut Self::Acc, _pkg: &Package, val: Ext) -> ControlFlow<()> {
        let pos = acc.partition_point(|&v| v < val);
        acc.insert(pos, val);
        if acc.len() > self.k {
            acc.remove(0);
        }
        ControlFlow::Continue(())
    }

    fn merge(&self, into: &mut Self::Acc, later: Self::Acc) {
        for val in later {
            let pos = into.partition_point(|&v| v < val);
            into.insert(pos, val);
            if into.len() > self.k {
                into.remove(0);
            }
        }
    }
}

/// L1: do `k` distinct valid packages rate `≥ B`?
pub fn is_bound(inst: &RecInstance, bound: Ext, opts: &SolveOptions) -> Result<bool> {
    let _span = pkgrec_trace::span!("mbp.is_bound");
    let reducer = CountUpTo {
        k: inst.k,
        strictly_above: None,
    };
    let (found, stats) = reduce_valid_packages(inst, Some(bound), opts, &reducer)?;
    if found >= inst.k {
        return Ok(true); // certified yes, even if the budget then ran out
    }
    match stats.interrupted {
        Some(cut) => Err(cut.into()), // "no" would need the full space
        None => Ok(false),
    }
}

/// L2 (negated): do `k` distinct valid packages rate **strictly above**
/// `B`?
fn k_packages_above(inst: &RecInstance, bound: Ext, opts: &SolveOptions) -> Result<bool> {
    let reducer = CountUpTo {
        k: inst.k,
        strictly_above: Some(bound),
    };
    let (found, stats) = reduce_valid_packages(inst, Some(bound), opts, &reducer)?;
    if found >= inst.k {
        return Ok(true);
    }
    match stats.interrupted {
        Some(cut) => Err(cut.into()),
        None => Ok(false),
    }
}

/// Decide MBP: is `B` the maximum bound for
/// `(Q, D, Qc, cost(), val(), C, k)`?
pub fn is_maximum_bound(inst: &RecInstance, bound: Ext, opts: &SolveOptions) -> Result<bool> {
    Ok(is_bound(inst, bound, opts)? && !k_packages_above(inst, bound, opts)?)
}

/// Compute the maximum bound — the rating of the k-th best valid
/// package — or `None` when no top-k selection exists.
///
/// Anytime: when the budget runs out the outcome is non-exact and
/// carries the k-th best rating over the packages seen so far (a lower
/// bound on the true answer), or `None` if fewer than `k` were seen.
pub fn maximum_bound(
    inst: &RecInstance,
    opts: &SolveOptions,
) -> Result<Outcome<Option<Ext>, SearchStats>> {
    let ctx = inst.search_context()?;
    maximum_bound_in(&ctx, opts)
}

/// [`maximum_bound`] on a prebuilt [`SearchContext`] — for callers that
/// amortize plan compilation across solves.
pub fn maximum_bound_in(
    ctx: &SearchContext<'_>,
    opts: &SolveOptions,
) -> Result<Outcome<Option<Ext>, SearchStats>> {
    if let Some(params) = &opts.approx {
        return crate::sketch::maximum_bound(ctx, opts, params);
    }
    let _span = pkgrec_trace::span!("mbp.maximum_bound");
    let k = ctx.instance().k;
    // The k best ratings over distinct packages.
    let (best, stats) = reduce_valid_packages_in(ctx, None, opts, &KLargest { k })?;
    let value = if best.len() < k {
        None
    } else {
        Some(best[0])
    };
    Ok(match stats.interrupted {
        None => Outcome::exact(value, stats),
        Some(cut) => Outcome::partial(value, cut, stats),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn maximum_bound_exact(inst: &RecInstance) -> Option<Ext> {
        let out = maximum_bound(inst, &SolveOptions::default()).unwrap();
        assert!(out.exact);
        out.value
    }

    #[test]
    fn maximum_bound_is_kth_best_rating() {
        // Ratings of valid packages: {2,3}=5, {1,3}=4, {1,2}=3, {3}=3,
        // {2}=2, {1}=1.
        assert_eq!(maximum_bound_exact(&inst()), Some(Ext::Finite(5.0)));
        assert_eq!(maximum_bound_exact(&inst().with_k(3)), Some(Ext::Finite(3.0)));
        assert_eq!(maximum_bound_exact(&inst().with_k(6)), Some(Ext::Finite(1.0)));
        assert_eq!(maximum_bound_exact(&inst().with_k(7)), None);
    }

    #[test]
    fn decision_agrees_with_function() {
        for k in 1..=6 {
            let i = inst().with_k(k);
            let mb = maximum_bound_exact(&i).unwrap();
            assert!(is_maximum_bound(&i, mb, &SolveOptions::default()).unwrap());
            // A lower value is a bound but not maximum; a higher one is
            // not a bound at all.
            let lower = Ext::Finite(mb.as_finite().unwrap() - 0.5);
            assert!(is_bound(&i, lower, &SolveOptions::default()).unwrap());
            assert!(!is_maximum_bound(&i, lower, &SolveOptions::default()).unwrap());
            let higher = Ext::Finite(mb.as_finite().unwrap() + 0.5);
            assert!(!is_bound(&i, higher, &SolveOptions::default()).unwrap());
            assert!(!is_maximum_bound(&i, higher, &SolveOptions::default()).unwrap());
        }
    }

    #[test]
    fn duplicate_ratings_count_distinct_packages() {
        // Constant val: every nonempty ≤2-subset rates 1; k=6 bound is 1.
        let i = inst().with_val(PackageFn::constant(Ext::Finite(1.0))).with_k(6);
        assert_eq!(maximum_bound_exact(&i), Some(Ext::Finite(1.0)));
        assert!(is_maximum_bound(&i, Ext::Finite(1.0), &SolveOptions::default()).unwrap());
    }

    #[test]
    fn partial_bound_is_a_lower_bound() {
        // Budget 3 sees ∅, {1}, {1,2}: k=1 best-so-far is 3, below the
        // true maximum bound 5. Pinned to jobs = 1: which prefix a step
        // budget covers depends on the worker count.
        let out = maximum_bound(&inst(), &SolveOptions::limited(3).with_jobs(1)).unwrap();
        assert!(!out.exact);
        let partial = out.value.expect("a valid package was seen");
        let full = maximum_bound_exact(&inst()).unwrap();
        assert!(partial <= full);
    }

    #[test]
    fn strict_decision_errors_when_uncertifiable() {
        // "Is 100 a bound?" — no package rates ≥ 100, so certifying
        // "no" needs the whole space; a 2-step budget cannot.
        let r = is_bound(&inst(), Ext::Finite(100.0), &SolveOptions::limited(2));
        assert!(matches!(r, Err(CoreError::SearchLimitExceeded { .. })));
    }
}
