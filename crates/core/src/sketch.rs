//! SketchRefine — the approximate engine for large item pools.
//!
//! The exact solvers enumerate the package space `N ⊆ Q(D)` and are
//! exponential by necessity (the problems are Σp₂-hard and worse, see
//! Sections 4–6 of the paper). That is fine for the paper-scale
//! instances the rest of this crate targets, but useless at a million
//! items. This module trades the exactness certificate for scale with
//! the SketchRefine strategy of Brucato et al. (*Package queries*,
//! VLDB 2016 / VLDB J. 2018):
//!
//! 1. **Partition** (offline): cluster `Q(D)` hierarchically over the
//!    numeric columns the `cost()`/`val()` functions declare
//!    ([`pkgrec_data::partition`]), electing one real member tuple per
//!    partition as its *representative*.
//! 2. **Sketch**: run the *exact* solver over the tiny pool of
//!    top-level representatives, reusing the compiled-plan machinery
//!    unchanged — a representative is a real tuple of `Q(D)`, so every
//!    validity probe keeps its meaning.
//! 3. **Refine**: repeatedly pick a chosen representative, swap it for
//!    its partition's contents (children representatives, or the actual
//!    items at a leaf), and re-solve over `selection ∪ expansion`. Each
//!    refinement strictly descends the partition tree, so the loop
//!    terminates.
//!
//! The contract is explicit: results are labeled
//! [`Method::Sketch`](pkgrec_guard::Method) and can **never** claim
//! `exact: true` ([`Outcome::approximate`] hard-codes that). What *is*
//! guaranteed is soundness — every returned package is re-checked
//! against the full compiled plans ([`SearchContext::is_valid_package`])
//! before it leaves this module, so constraints, budget, and
//! `Q(D)`-membership genuinely hold; only optimality is approximate.
//!
//! Observability mirrors the exact engines: a `sketch.top_k` /
//! `sketch.maximum_bound` span wraps the run, `sketch.partition_builds`
//! / `sketch.sub_solves` / `sketch.refines` count the moving parts, and
//! the inner exact sub-solves emit their usual `enumerate.*` counters
//! and flight events. Refinement rounds additionally split by outcome
//! (`sketch.refines.improved` / `sketch.refines.no_gain`), skipped
//! partitions count under `sketch.partitions_pruned`, and — when the
//! profile timeline is enabled — the sketch solve, each refine
//! re-solve, and the final soundness gate stamp `sketch` / `refine` /
//! `verify` phases so a trace viewer shows where the wall time went.
//!
//! **Pruning.** Refinement skips a partition outright when the
//! per-node column aggregates the offline index carries
//! ([`PartitionNode::mins`]/[`PartitionNode::sums`]) prove expanding
//! it cannot change the answer: its cheapest item already busts the
//! budget (so no item under it fits in *any* valid package), or — once
//! a full selection is held — even claiming its entire value mass
//! cannot beat the incumbent's weakest package. Both bounds are gated
//! on [`PackageFn::is_column_additive`] plus declared monotonicity;
//! opaque functions disable pruning rather than risk soundness.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

use pkgrec_data::{PartitionIndex, PartitionNode, PartitionParams, Tuple};
use pkgrec_guard::{Budget, Interrupted, Outcome, Resource};

use crate::enumerate::{SearchStats, SolveOptions};
use crate::instance::SearchContext;
use crate::package::Package;
use crate::problems::frp;
use crate::rating::Ext;
use crate::Result;

/// Tuning knobs for the SketchRefine engine. The defaults keep every
/// exact sub-solve over a pool of a few dozen tuples, which is what
/// makes million-item instances tractable: solve cost is governed by
/// pool size, never by `|Q(D)|`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SketchParams {
    /// Cluster fanout of the partition tree (children per internal
    /// node).
    pub fanout: usize,
    /// Maximum items per leaf partition.
    pub leaf_cap: usize,
    /// Seed for the deterministic clustering.
    pub seed: u64,
    /// Maximum number of refinement rounds before the engine settles
    /// for the best selection found so far.
    pub refine_cap: usize,
    /// Step allowance per exact sub-solve. A sub-solve that exhausts it
    /// contributes its anytime best and the refinement continues; this
    /// bounds the damage when a sub-pool is adversarially dense.
    pub sub_steps: u64,
    /// Skip partitions whose aggregate bounds prove expanding them
    /// cannot change the answer (see the module docs). On by default;
    /// the off switch exists for A/B benchmarks and the equivalence
    /// property test, not for correctness — pruning never changes the
    /// returned package set.
    pub prune: bool,
}

impl Default for SketchParams {
    fn default() -> SketchParams {
        SketchParams {
            fanout: 16,
            leaf_cap: 16,
            seed: 0x5EED_C0DE,
            refine_cap: 64,
            sub_steps: 200_000,
            prune: true,
        }
    }
}

impl SketchParams {
    /// Largest pool the engine solves directly (one exact sub-solve,
    /// still labeled approximate) instead of partitioning.
    fn direct_threshold(&self) -> usize {
        self.fanout.max(self.leaf_cap)
    }
}

/// The caller's budget with its relative `timeout` resolved to an
/// absolute deadline **once**, so every sub-solve shares the same
/// wall-clock cut-off instead of each restarting the clock.
fn shared_budget(budget: &Budget) -> Budget {
    let mut shared = budget.clone();
    if let Some(timeout) = shared.timeout.take() {
        let from_now = Instant::now() + timeout;
        shared.deadline = Some(match shared.deadline {
            Some(existing) => existing.min(from_now),
            None => from_now,
        });
    }
    shared
}

/// Selection quality, compared lexicographically: ratings in selection
/// order (best first), so a higher leading rating dominates and, on
/// equal prefixes, the longer (more complete) selection wins.
fn quality(ctx: &SearchContext<'_>, sel: &[Package]) -> Vec<Ext> {
    sel.iter().map(|p| ctx.instance().val.eval(p)).collect()
}

/// The union of numeric columns the cost and value functions declare —
/// the feature space the partitioner clusters over. Empty (positional
/// chunking) when both functions are opaque closures.
fn partition_columns(ctx: &SearchContext<'_>) -> Vec<usize> {
    let inst = ctx.instance();
    let mut cols: Vec<usize> = inst
        .cost
        .numeric_columns()
        .iter()
        .chain(inst.val.numeric_columns())
        .copied()
        .collect();
    cols.sort_unstable();
    cols.dedup();
    cols
}

/// Sum of `vals` (a per-node aggregate vector parallel to the sorted
/// partition-column union `pcols`) over the positions of a function's
/// declared columns. `None` when some declared column was not
/// clustered on — bounds are then unavailable and the caller must not
/// prune. (Cannot happen for an index built via [`partition_columns`],
/// which is exactly this union; the `None` arm is defense, not a
/// reachable path.)
fn mapped_sum(pcols: &[usize], fcols: &[usize], vals: &[f64]) -> Option<f64> {
    let mut acc = 0.0;
    for &c in fcols {
        acc += vals[pcols.binary_search(&c).ok()?];
    }
    Some(acc)
}

/// Whether expanding `node` provably cannot change the run's answer,
/// so refinement may skip it without spending a round. Two bounds,
/// both requiring the declared additive-aggregate shape
/// ([`PackageFn::is_column_additive`]) plus monotonicity — opaque
/// functions never prune:
///
/// * **Cost infeasibility.** The cheapest conceivable item under the
///   node costs `Σ_c min_c` (per-column minima, summed over the cost's
///   columns). If even that exceeds the budget then — cost being
///   additive over nonnegative columns — every package containing
///   *any* item under the node is over budget, so the node's items can
///   never appear in a valid package.
/// * **Value ceiling.** Once a full `k`-selection is held, a refine
///   re-solve over `selection ∪ expansion` is adopted only when it
///   *strictly* beats the incumbent (see the adoption rule in
///   [`top_k`]). With an additive, nonnegative `val`, no package drawn
///   from that pool can rate above `val(selection tuples) + Σ_c sum_c`
///   (the node's entire value mass, which over-counts any actual
///   expansion). If that ceiling does not exceed the incumbent's
///   weakest rating, no component of the lexicographic quality can
///   strictly improve, so adoption is impossible.
fn prunable(
    ctx: &SearchContext<'_>,
    pcols: &[usize],
    node: &PartitionNode,
    best: Option<&Vec<Package>>,
    k: usize,
) -> bool {
    let inst = ctx.instance();
    if inst.cost.is_column_additive() && inst.cost.is_monotone_nonempty() {
        if let Some(lb) = mapped_sum(pcols, inst.cost.numeric_columns(), &node.mins) {
            if Ext::Finite(lb) > inst.budget {
                return true;
            }
        }
    }
    if let Some(sel) = best {
        if sel.len() >= k
            && inst.val.is_column_additive()
            && inst.val.is_monotone_nonempty()
        {
            if let Some(mass) = mapped_sum(pcols, inst.val.numeric_columns(), &node.sums) {
                // Per-tuple value under an additive val: the sum of its
                // declared columns (missing/non-numeric ↦ 0, the same
                // convention the aggregates use). Tuples shared between
                // packages count once per appearance, which only
                // inflates the ceiling — conservative, never unsound.
                let retained: f64 = sel
                    .iter()
                    .flat_map(Package::iter)
                    .flat_map(|t| {
                        inst.val.numeric_columns().iter().map(move |&c| {
                            t.get(c).and_then(|v| v.as_numeric()).unwrap_or(0) as f64
                        })
                    })
                    .sum();
                let weakest = quality(ctx, sel)
                    .into_iter()
                    .min()
                    .unwrap_or(Ext::NegInf);
                if Ext::Finite(retained + mass) <= weakest {
                    return true;
                }
            }
        }
    }
    false
}

/// Mutable state of one sketch/refine run.
struct Run<'a, 'b> {
    ctx: &'b SearchContext<'a>,
    opts: &'b SolveOptions,
    params: &'b SketchParams,
    shared: Budget,
    /// Aggregated stats across every exact sub-solve.
    stats: SearchStats,
    /// Set when the *caller's* budget (not a per-sub-solve allowance)
    /// ran out; ends the refinement loop.
    cut: Option<Interrupted>,
}

impl<'a> Run<'a, '_> {
    /// One exact sub-solve over `pool` (already in canonical order —
    /// `BTreeSet<Tuple>` iterates in `Tuple`'s total order, which is
    /// the canonical item order the engines require). `refining` only
    /// labels the timeline phase: the first solve is the sketch, every
    /// later one a refine re-solve.
    fn solve_pool(
        &mut self,
        pool: &BTreeSet<Tuple>,
        refining: bool,
    ) -> Result<Outcome<Option<Vec<Package>>, SearchStats>> {
        pkgrec_trace::counter!("sketch.sub_solves");
        let _phase =
            pkgrec_trace::timeline::phase(if refining { "refine" } else { "sketch" });
        let items: Arc<[Tuple]> = pool.iter().cloned().collect();
        let sub_ctx = self.ctx.with_items(items);
        // Per-sub-solve step allowance: the engine knob, shrunk to
        // whatever remains of the caller's global step budget.
        let global_left = self
            .opts
            .budget
            .steps
            .map(|limit| limit.saturating_sub(self.stats.packages_enumerated));
        let mut budget = self.shared.clone();
        budget.steps = Some(match global_left {
            Some(left) => self.params.sub_steps.min(left),
            None => self.params.sub_steps,
        });
        // One worker: a step allowance that trips with several workers
        // cuts a prefix that depends on thread timing, and the sketch
        // answer would too.
        let sub_opts = SolveOptions {
            budget,
            jobs: 1,
            progress: None,
            approx: None, // the sub-solves are the exact engine
        };
        let out = frp::top_k_in(&sub_ctx, &sub_opts)?;
        self.stats.packages_enumerated += out.stats.packages_enumerated;
        self.stats.valid_packages += out.stats.valid_packages;
        // A deadline or cancellation applies to the whole run; a spent
        // step allowance is either the local knob (keep refining) or
        // the caller's global limit (checked at the loop head).
        if let Some(cut) = out.interrupted {
            if !matches!(cut.resource, Resource::Steps { .. }) {
                self.cut = Some(cut);
            }
        }
        Ok(out)
    }

    /// Whether the caller's global step budget is spent.
    fn global_steps_spent(&mut self) -> bool {
        match self.opts.budget.steps {
            Some(limit) if self.stats.packages_enumerated >= limit => {
                self.cut = Some(Interrupted::new(
                    Resource::Steps { limit },
                    self.stats.packages_enumerated,
                ));
                true
            }
            _ => false,
        }
    }
}

/// The node the next refinement should expand, as `(rep tuple, node)`:
/// the first still-mapped tuple of the current selection in selection
/// order, or — when the selection is incomplete and none of its tuples
/// is mapped — the largest mapped node (more real items behind it),
/// tie-broken by its representative's canonical order. `None` means the
/// run is done: a full selection entirely over refined tuples, or
/// nothing left to expand.
fn refine_target(
    best: Option<&Vec<Package>>,
    mapping: &BTreeMap<Tuple, usize>,
    index: &PartitionIndex,
    k: usize,
) -> Option<(Tuple, usize)> {
    if let Some(sel) = best {
        for pkg in sel {
            for t in pkg.iter() {
                if let Some(&node) = mapping.get(t) {
                    return Some((t.clone(), node));
                }
            }
        }
        if sel.len() >= k {
            return None; // full selection, fully refined
        }
    }
    // No (or incomplete) selection: expose more real items, biggest
    // partition first.
    mapping
        .iter()
        .max_by(|(ta, &na), (tb, &nb)| {
            index
                .node(na)
                .size
                .cmp(&index.node(nb).size)
                .then_with(|| tb.cmp(ta)) // tie: canonically smaller tuple
        })
        .map(|(t, &n)| (t.clone(), n))
}

/// Expand `node` in `pool`/`mapping`: children representatives for an
/// internal node (each becoming mapped), the actual items for a leaf
/// (unmapped — fully refined). The expanded node's own representative
/// tuple is removed from the mapping first; for an internal node it
/// reappears mapped to the child it represents (the partitioner
/// guarantees an internal representative *is* one child's
/// representative), which is the strict descent that makes refinement
/// terminate.
fn expand(
    pool: &mut BTreeSet<Tuple>,
    mapping: &mut BTreeMap<Tuple, usize>,
    index: &PartitionIndex,
    items: &[Tuple],
    rep: &Tuple,
    node: usize,
) {
    mapping.remove(rep);
    let n = index.node(node);
    if n.is_leaf() {
        for &i in &n.items {
            pool.insert(items[i].clone());
        }
    } else {
        for &child in &n.children {
            let child_rep = items[index.node(child).rep].clone();
            pool.insert(child_rep.clone());
            mapping.insert(child_rep, child);
        }
    }
}

/// FRP top-k with the SketchRefine engine. Same shape as
/// [`frp::top_k_in`], but the outcome is always approximate
/// ([`Outcome::approximate`]): `Some` of up to `k` packages — each
/// re-verified valid against the full instance — or `None` when no
/// valid package was found. Nothing is certified about optimality or
/// nonexistence.
pub fn top_k(
    ctx: &SearchContext<'_>,
    opts: &SolveOptions,
    params: &SketchParams,
) -> Result<Outcome<Option<Vec<Package>>, SearchStats>> {
    let _span = pkgrec_trace::span!("sketch.top_k");
    let items = ctx.items();
    let k = ctx.instance().k;
    let mut run = Run {
        ctx,
        opts,
        params,
        shared: shared_budget(&opts.budget),
        stats: SearchStats::default(),
        cut: None,
    };

    let pcols = partition_columns(ctx);
    let mut pool: BTreeSet<Tuple> = BTreeSet::new();
    let mut mapping: BTreeMap<Tuple, usize> = BTreeMap::new();
    let index = if items.len() <= params.direct_threshold() {
        // Small pool: a single exact sub-solve already covers it; no
        // partition tree to refine.
        pool.extend(items.iter().cloned());
        None
    } else {
        pkgrec_trace::counter!("sketch.partition_builds");
        let pparams = PartitionParams {
            fanout: params.fanout,
            leaf_cap: params.leaf_cap,
            seed: params.seed,
            columns: pcols.clone(),
        };
        let built = PartitionIndex::build(items, &pparams);
        let root = built.root();
        if built.node(root).is_leaf() {
            for &i in &built.node(root).items {
                pool.insert(items[i].clone());
            }
        } else {
            for &child in built.node(root).children.iter() {
                let rep = items[built.node(child).rep].clone();
                pool.insert(rep.clone());
                mapping.insert(rep, child);
            }
        }
        Some(built)
    };

    let mut best: Option<Vec<Package>> = None;
    let mut refines = 0usize;
    loop {
        if run.global_steps_spent() {
            break;
        }
        let refining = refines > 0;
        let out = run.solve_pool(&pool, refining)?;
        if let Some(sel) = out.value {
            // Keep the *strictly* better of old and new. The new pool
            // contains the old selection, so an exhaustive sub-solve
            // only improves — but an interrupted one may regress, and
            // ties must keep the incumbent: the value-ceiling prune
            // assumes a tie-quality re-solve is never adopted, which
            // is what makes pruning invisible in the returned set.
            let adopt = match &best {
                None => true,
                Some(old) => quality(ctx, &sel) > quality(ctx, old),
            };
            if refining {
                if adopt {
                    pkgrec_trace::counter!("sketch.refines.improved");
                } else {
                    pkgrec_trace::counter!("sketch.refines.no_gain");
                }
            }
            if adopt {
                best = Some(sel);
            }
        } else if refining {
            pkgrec_trace::counter!("sketch.refines.no_gain");
        }
        if run.cut.is_some() {
            break;
        }
        let Some(ref idx) = index else { break };
        // Skip (and keep skipping) targets whose aggregate bounds
        // prove expansion pointless — each costs a mapping removal,
        // never a refinement round or a sub-solve.
        let mut target = refine_target(best.as_ref(), &mapping, idx, k);
        while let Some((rep, node)) = &target {
            if !(params.prune && prunable(ctx, &pcols, idx.node(*node), best.as_ref(), k)) {
                break;
            }
            pkgrec_trace::counter!("sketch.partitions_pruned");
            mapping.remove(rep);
            target = refine_target(best.as_ref(), &mapping, idx, k);
        }
        let Some((rep, node)) = target else { break };
        if refines >= params.refine_cap {
            break;
        }
        refines += 1;
        pkgrec_trace::counter!("sketch.refines");
        if let Some(sel) = &best {
            // Commit to the current selection: the next pool is its
            // tuples plus the chosen partition's contents.
            pool = sel.iter().flat_map(|p| p.iter().cloned()).collect();
        }
        expand(&mut pool, &mut mapping, idx, items, &rep, node);
    }

    // Soundness gate: nothing leaves the approximate engine without
    // passing the same compiled-plan validity probes the exact engine
    // uses. (The sub-solves only ever saw genuine `Q(D)` tuples, so
    // this should never filter — it is the contract, not a patch.)
    let _verify = pkgrec_trace::timeline::phase("verify");
    let mut verified: Vec<Package> = Vec::new();
    if let Some(sel) = best {
        for pkg in sel {
            if ctx.is_valid_package(&pkg, None)? {
                verified.push(pkg);
            }
        }
    }
    verified.truncate(k);
    let value = if verified.is_empty() {
        None
    } else {
        Some(verified)
    };
    run.stats.interrupted = run.cut;
    Ok(match run.cut {
        None => Outcome::approximate(value, run.stats),
        Some(cut) => Outcome::approximate_interrupted(value, cut, run.stats),
    })
}

/// MBP maximum bound with the SketchRefine engine: the rating of the
/// k-th package of an approximate top-k selection — a *lower bound* on
/// the true maximum bound (every selected package is verified valid, so
/// its rating is achieved by k distinct valid packages) — or `None`
/// when fewer than `k` packages were found. Always approximate.
pub fn maximum_bound(
    ctx: &SearchContext<'_>,
    opts: &SolveOptions,
    params: &SketchParams,
) -> Result<Outcome<Option<Ext>, SearchStats>> {
    let _span = pkgrec_trace::span!("sketch.maximum_bound");
    let k = ctx.instance().k;
    let out = top_k(ctx, opts, params)?;
    Ok(out.map(|sel| {
        sel.and_then(|sel| {
            if sel.len() == k {
                Some(ctx.instance().val.eval(&sel[k - 1]))
            } else {
                None
            }
        })
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::PackageFn;
    use crate::instance::RecInstance;
    use crate::problems::mbp;
    use pkgrec_data::{tuple, AttrType, Database, Relation, RelationSchema};
    use pkgrec_guard::Method;
    use pkgrec_query::{ConjunctiveQuery, Query};

    /// `n` items with value `i` in column 0, budget `budget`, val =
    /// sum of column 0.
    fn inst(n: i64, budget: f64) -> RecInstance {
        let mut db = Database::new();
        let r = RelationSchema::new("r", [("a", AttrType::Int)]).unwrap();
        db.add_relation(
            Relation::from_tuples(r, (1..=n).map(|i| tuple![i])).unwrap(),
        )
        .unwrap();
        RecInstance::new(db, Query::Cq(ConjunctiveQuery::identity("r", 1)))
            .with_budget(budget)
            .with_val(PackageFn::sum_col(0, true))
    }

    fn approx_opts() -> SolveOptions {
        SolveOptions::default().with_approx(SketchParams {
            fanout: 4,
            leaf_cap: 4,
            // Tight sub-solve caps keep these debug-profile tests
            // fast; the anytime sub-solves still fill every selection.
            sub_steps: 5_000,
            refine_cap: 16,
            ..SketchParams::default()
        })
    }

    #[test]
    fn sketch_results_are_valid_and_labeled_approximate() {
        let i = inst(40, 30.0).with_k(3);
        let out = frp::top_k(&i, &approx_opts()).unwrap();
        assert!(!out.exact, "the approximate engine must never claim exactness");
        assert_eq!(out.method, Method::Sketch);
        assert!(out.interrupted.is_none());
        let sel = out.value.expect("a feasible instance yields a selection");
        assert_eq!(sel.len(), 3);
        let ctx = i.search_context().unwrap();
        for pkg in &sel {
            assert!(ctx.is_valid_package(pkg, None).unwrap());
        }
    }

    #[test]
    fn sketch_matches_exact_on_an_easy_instance() {
        // Budget 9 with items 1..=20: the optimum spends the whole
        // budget (e.g. {9} or {4,5} rate 9). The sketch engine must
        // find *a* rating-9 package even if not the same one.
        let i = inst(20, 9.0);
        let exact = frp::top_k(&i, &SolveOptions::default()).unwrap();
        let approx = frp::top_k(&i, &approx_opts()).unwrap();
        let exact_val = i.val.eval(&exact.value.unwrap()[0]);
        let approx_val = i.val.eval(&approx.value.unwrap()[0]);
        assert_eq!(exact_val, approx_val);
    }

    #[test]
    fn small_pools_take_the_direct_path_and_stay_approximate() {
        // 3 items ≤ direct threshold: one exact sub-solve, no
        // partition build — but the label still says sketch.
        let _scope = pkgrec_trace::scoped();
        pkgrec_trace::reset();
        let i = inst(3, 5.0);
        let out = frp::top_k(&i, &approx_opts()).unwrap();
        assert!(!out.exact);
        assert_eq!(out.method, Method::Sketch);
        let report = pkgrec_trace::take();
        assert_eq!(report.counters.get("sketch.partition_builds"), None);
        assert_eq!(report.counters["sketch.sub_solves"], 1);
    }

    #[test]
    fn sketch_is_deterministic() {
        let i = inst(64, 40.0).with_k(2);
        let a = frp::top_k(&i, &approx_opts()).unwrap();
        let b = frp::top_k(&i, &approx_opts()).unwrap();
        assert_eq!(a.value, b.value);
    }

    #[test]
    fn sketch_counters_fire() {
        let _scope = pkgrec_trace::scoped();
        pkgrec_trace::reset();
        let i = inst(64, 40.0).with_k(2);
        frp::top_k(&i, &approx_opts()).unwrap();
        let report = pkgrec_trace::take();
        assert_eq!(report.counters["sketch.partition_builds"], 1);
        assert!(report.counters["sketch.sub_solves"] >= 1);
        assert!(report.counters["sketch.refines"] >= 1);
    }

    #[test]
    fn aggregate_bounds_prune_hopeless_partitions() {
        // Two affordable items and forty whose cheapest possible cost
        // already busts the budget. Exactly `k = 3` valid packages
        // exist ({1,2}, {2}, {1}) — but none are visible until the
        // cheap leaf is refined, so every sketch solve before that
        // certifies "fewer than k" and refinement walks the mapped
        // partitions biggest-first: straight into the expensive ones,
        // whose per-node cost minima prove them hopeless.
        let skewed = || {
            let mut db = Database::new();
            let r = RelationSchema::new("r", [("a", AttrType::Int)]).unwrap();
            db.add_relation(
                Relation::from_tuples(r, (1..=2).chain(1000..1040).map(|i| tuple![i]))
                    .unwrap(),
            )
            .unwrap();
            RecInstance::new(db, Query::Cq(ConjunctiveQuery::identity("r", 1)))
                .with_budget(10.0)
                .with_cost(PackageFn::sum_col(0, true))
                .with_val(PackageFn::sum_col(0, true))
                .with_k(3)
        };
        let opts = |prune| {
            SolveOptions::default().with_approx(SketchParams {
                fanout: 4,
                leaf_cap: 4,
                refine_cap: 256, // never the binding constraint here
                prune,
                ..SketchParams::default()
            })
        };
        let _scope = pkgrec_trace::scoped();
        pkgrec_trace::reset();
        let on = frp::top_k(&skewed(), &opts(true)).unwrap();
        let report = pkgrec_trace::take();
        assert!(
            report.counters["sketch.partitions_pruned"] >= 1,
            "the expensive partitions must be skipped by their cost bound"
        );
        let off = frp::top_k(&skewed(), &opts(false)).unwrap();
        assert_eq!(on.value, off.value, "pruning must not change the answer");
        let sel = on.value.expect("the affordable items form valid packages");
        assert_eq!(sel.len(), 3);
    }

    #[test]
    fn sketch_maximum_bound_is_a_lower_bound() {
        // Small enough for the exact reference: cost is count(), so
        // the exact engine enumerates all 2^12 subsets here.
        let i = inst(12, 5.0).with_k(4);
        let exact = mbp::maximum_bound(&i, &SolveOptions::default()).unwrap();
        let approx = mbp::maximum_bound(&i, &approx_opts()).unwrap();
        assert!(!approx.exact);
        assert_eq!(approx.method, Method::Sketch);
        let (e, a) = (exact.value.unwrap(), approx.value.unwrap());
        assert!(a <= e, "approximate bound {a:?} must not exceed exact {e:?}");
    }

    #[test]
    fn global_step_budget_cuts_the_run() {
        let i = inst(200, 50.0).with_k(2);
        let opts = SolveOptions::limited(5).with_approx(SketchParams::default());
        let out = frp::top_k(&i, &opts).unwrap();
        assert!(!out.exact);
        let cut = out.interrupted.expect("5 steps cannot finish refinement");
        assert!(matches!(cut.resource, Resource::Steps { limit: 5 }));
        // Whatever survived the cut is still genuinely valid.
        if let Some(sel) = out.value {
            let ctx = i.search_context().unwrap();
            for pkg in &sel {
                assert!(ctx.is_valid_package(pkg, None).unwrap());
            }
        }
    }

    #[test]
    fn cancellation_interrupts_immediately() {
        let flag = pkgrec_guard::CancelFlag::new();
        flag.cancel();
        let mut budget = Budget::unlimited();
        budget.cancel = Some(flag);
        let opts =
            SolveOptions::with_budget(budget).with_approx(SketchParams::default());
        let out = frp::top_k(&inst(100, 50.0), &opts).unwrap();
        assert!(!out.exact);
        assert!(matches!(
            out.interrupted.expect("cancelled").resource,
            Resource::Cancelled
        ));
    }
}
