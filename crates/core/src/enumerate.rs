//! Exhaustive package enumeration — the engine behind the exact solvers.
//!
//! The paper's upper-bound algorithms all reduce to searching the space
//! of packages `N ⊆ Q(D)` with `|N| ≤ p(|D|)` (e.g. step 3 of the
//! EXPTIME algorithm in Theorem 4.1, or the subset enumeration of
//! Corollary 6.1). This module walks that space depth-first in
//! canonical order, pruning supersets only when it is sound — a
//! monotone cost bound over the budget, or an anti-monotone
//! compatibility constraint already violated — and enforcing an
//! optional resource [`Budget`] (step count, wall-clock deadline,
//! cancellation) so callers can bound the (inherently exponential)
//! search.
//!
//! Both engines walk the same *prefix partition* of the space (see
//! [`Unit`]): the sequential engine visits the units in index order on
//! one thread, the parallel engine deals them to workers and merges in
//! index order. That shared structure is what the observability layer
//! hangs off:
//!
//! * every prune bumps an attributed `enumerate.pruned.*` counter
//!   (cost / compat / budget / floor) instead of a lump sum;
//! * with the flight recorder on (`pkgrec_trace::flight`), each node,
//!   prune, valid package and interruption is appended to a bounded
//!   per-thread event ring, and parallel workers' rings are replayed in
//!   unit order so sequential and parallel runs produce bit-identical
//!   merged recordings on uninterrupted searches;
//! * a shared [`Progress`] estimate is credited per node and per pruned
//!   subtree — the subtree sizes are known in closed form, so the
//!   fraction is exact, monotone, and reaches 1.0 on completion;
//! * with the profiler on (`pkgrec_trace::timeline`), the same unit
//!   claim records carry a timestamp and worker id, and a timed unit
//!   end follows each walk; they feed the per-worker utilization tables
//!   and Chrome-trace export. The flight recording is the ring's
//!   deterministic projection — time fields and time-only events
//!   dropped — so the bit-identical recording contract is untouched.

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use pkgrec_data::Tuple;
use pkgrec_guard::{Budget, Interrupted, Meter, SharedMeter, WorkerMeter};
use pkgrec_trace::flight::{self, FlightEvent, PruneReason};
use pkgrec_trace::{timeline, Telemetry};

use crate::error::CoreError;
use crate::instance::{Classified, RecInstance, Reject, SearchContext};
use crate::package::Package;
use crate::progress::{count_nodes, Progress, ProgressSink};
use crate::rating::Ext;
use crate::Result;

/// Options for the exact search.
#[derive(Debug, Clone, Default)]
pub struct SolveOptions {
    /// Resource budget for the search. One step is charged per
    /// enumerated package; the deadline and cancellation flag are
    /// checked on the same cadence. Unlimited by default.
    pub budget: Budget,
    /// Worker threads for the package-space walk. `0` (the default)
    /// resolves to the `PKGREC_JOBS` environment variable, or `1` when
    /// it is unset; `1` runs the sequential engine. Any value returns
    /// bit-identical results on uninterrupted runs (see
    /// [`reduce_valid_packages`]).
    pub jobs: usize,
    /// Shared live-progress estimate. When set, the search resets it at
    /// start and credits it as the walk advances, so another thread
    /// (e.g. a CLI `--progress` monitor) can poll
    /// [`Progress::fraction`] concurrently. Each search a solver runs
    /// restarts the estimate. `None` keeps the estimator private to the
    /// search (it still feeds `progress_at_interrupt`).
    pub progress: Option<Arc<Progress>>,
    /// When set, FRP top-k and MBP maximum-bound solves run the
    /// SketchRefine approximate engine ([`crate::sketch`]) with these
    /// knobs instead of the exhaustive search. Outcomes are then always
    /// labeled approximate (`exact: false`,
    /// [`Method::Sketch`](pkgrec_guard::Method)); solvers without an
    /// approximate path ignore the field and stay exact.
    pub approx: Option<crate::sketch::SketchParams>,
}

impl SolveOptions {
    /// Unbounded search.
    pub const fn unbounded() -> SolveOptions {
        SolveOptions {
            budget: Budget::unlimited(),
            jobs: 0,
            progress: None,
            approx: None,
        }
    }

    /// Search bounded to `limit` enumerated packages.
    pub fn limited(limit: u64) -> SolveOptions {
        SolveOptions {
            budget: Budget::with_steps(limit),
            ..SolveOptions::unbounded()
        }
    }

    /// Search bounded by a wall-clock duration from now.
    pub fn deadline_in(timeout: Duration) -> SolveOptions {
        SolveOptions {
            budget: Budget::with_timeout(timeout),
            ..SolveOptions::unbounded()
        }
    }

    /// Search governed by an arbitrary budget.
    pub fn with_budget(budget: Budget) -> SolveOptions {
        SolveOptions {
            budget,
            ..SolveOptions::unbounded()
        }
    }

    /// Builder-style setter for the worker-thread count (`0` = the
    /// `PKGREC_JOBS` default).
    pub fn with_jobs(mut self, jobs: usize) -> SolveOptions {
        self.jobs = jobs;
        self
    }

    /// Builder-style setter for the shared progress estimate.
    pub fn with_progress(mut self, progress: Arc<Progress>) -> SolveOptions {
        self.progress = Some(progress);
        self
    }

    /// Builder-style opt-in to the SketchRefine approximate engine.
    pub fn with_approx(mut self, params: crate::sketch::SketchParams) -> SolveOptions {
        self.approx = Some(params);
        self
    }

    /// The concrete worker count this search will use: `jobs` when set,
    /// otherwise the `PKGREC_JOBS` environment default (read once per
    /// process), otherwise 1.
    pub fn effective_jobs(&self) -> usize {
        if self.jobs != 0 {
            return self.jobs;
        }
        static ENV_DEFAULT: OnceLock<usize> = OnceLock::new();
        *ENV_DEFAULT.get_or_init(|| {
            std::env::var("PKGREC_JOBS")
                .ok()
                .and_then(|v| v.parse().ok())
                .filter(|&n| n > 0)
                .unwrap_or(1)
        })
    }
}

impl From<u64> for SolveOptions {
    /// Back-compat with the old bare `node_limit` field: a plain number
    /// bounds the number of enumerated packages.
    fn from(limit: u64) -> SolveOptions {
        SolveOptions::limited(limit)
    }
}

impl From<Budget> for SolveOptions {
    fn from(budget: Budget) -> SolveOptions {
        SolveOptions::with_budget(budget)
    }
}

/// How a search run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Completion {
    /// The whole space was enumerated: negative answers are certified.
    Exhausted,
    /// The visitor stopped the search early via `ControlFlow::Break`.
    Stopped,
    /// The resource budget ran out; the visitor saw only a prefix of
    /// the space.
    Interrupted(Interrupted),
}

impl Completion {
    /// Whether the whole space was enumerated.
    pub fn is_exhausted(self) -> bool {
        matches!(self, Completion::Exhausted)
    }

    /// The budget violation, when the search was cut off by one.
    pub fn interrupted(self) -> Option<Interrupted> {
        match self {
            Completion::Interrupted(cut) => Some(cut),
            _ => None,
        }
    }
}

/// Statistics reported by a completed search.
///
/// Equality deliberately ignores [`workers`](SearchStats::workers):
/// per-worker busy time and claim counts are wall-clock and scheduling
/// dependent, while everything else — including the deterministic
/// [`unit_skew`](SearchStats::unit_skew) summary — must stay
/// bit-identical between the sequential and parallel engines.
#[derive(Debug, Clone, Default)]
pub struct SearchStats {
    /// Packages enumerated (including invalid ones). This is also the
    /// number of budget steps the search charged.
    pub packages_enumerated: u64,
    /// Packages that passed the validity checks.
    pub valid_packages: u64,
    /// Set when the budget cut the search off before exhausting the
    /// space; the counts above then cover only the visited prefix.
    pub interrupted: Option<Interrupted>,
    /// The live-progress estimate (fraction of the bounded search space
    /// visited or pruned, in `[0.0, 1.0)`) at the moment the budget cut
    /// the search off. `None` on uninterrupted runs — they end at
    /// exactly 1.0, and keeping the field `None` preserves bit-identical
    /// stats across sequential and parallel engines.
    pub progress_at_interrupt: Option<f64>,
    /// Size skew of the unit partition both engines walk: with
    /// `max ≫ mean`, the in-order claim cursor can leave workers idle
    /// behind one giant subtree. Computed in closed form from the
    /// unit list (no wall clock involved), so it is identical across
    /// engines and job counts. `None` for searches that never built a
    /// unit partition.
    pub unit_skew: Option<UnitSkew>,
    /// Per-worker attribution: busy wall time, units claimed, steps
    /// ticked. Populated only while the profiler
    /// (`pkgrec_trace::timeline`) is enabled — the disabled path takes
    /// no timestamps — and excluded from equality.
    pub workers: Vec<WorkerStat>,
}

impl PartialEq for SearchStats {
    fn eq(&self, other: &SearchStats) -> bool {
        // `workers` is intentionally not compared (see the type docs).
        self.packages_enumerated == other.packages_enumerated
            && self.valid_packages == other.valid_packages
            && self.interrupted == other.interrupted
            && self.progress_at_interrupt == other.progress_at_interrupt
            && self.unit_skew == other.unit_skew
    }
}

/// Distribution summary of the per-unit subtree sizes (in search-tree
/// nodes, the closed-form [`count_nodes`] count) of the unit partition.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UnitSkew {
    /// Units in the partition.
    pub units: u64,
    /// Largest unit subtree, in nodes.
    pub max_nodes: f64,
    /// Mean unit subtree size, in nodes.
    pub mean_nodes: f64,
    /// 99th-percentile unit subtree size, in nodes.
    pub p99_nodes: f64,
}

/// What one worker did during a search (profiler-enabled runs only).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkerStat {
    /// Worker index (sequential engine: 0).
    pub worker: u32,
    /// Wall time spent inside claimed units, nanoseconds.
    pub busy_ns: u64,
    /// Units this worker claimed (including abandoned ones).
    pub units_claimed: u64,
    /// Budget steps (enumerated packages) this worker ticked.
    pub steps: u64,
}

/// What stopped a depth-first walk before exhaustion.
enum Stop {
    Visitor,
    Budget(Interrupted),
}

/// Extract a human-readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run one unit's walk with a panic fence at the unit boundary: a
/// panicking visitor, classifier, or injected `PKGREC_CHAOS` fault
/// becomes a typed [`CoreError::WorkerPanic`] instead of unwinding
/// through the engine (which, on a scoped worker thread, would abort
/// the whole process). Bumps `enumerate.worker_panics` on catch.
#[allow(clippy::too_many_arguments)]
fn unit_walk_caught<M: SearchMeter>(
    ctx: &SearchContext<'_>,
    rating_bound: Option<Ext>,
    meter: &M,
    unit_idx: usize,
    floor: &AtomicUsize,
    max_size: usize,
    pkg: &mut Package,
    start: usize,
    visit: &mut impl FnMut(&Package, Ext) -> ControlFlow<()>,
    stats: &mut SearchStats,
    sink: &mut ProgressSink<'_>,
    fl: bool,
) -> ControlFlow<UnitStop> {
    let walk = std::panic::AssertUnwindSafe(|| {
        unit_walk(
            ctx, rating_bound, meter, unit_idx, floor, max_size, pkg, start, visit, stats,
            sink, fl,
        )
    });
    match std::panic::catch_unwind(walk) {
        Ok(flow) => flow,
        Err(payload) => {
            pkgrec_trace::counter!("enumerate.worker_panics");
            ControlFlow::Break(UnitStop::Error(CoreError::WorkerPanic {
                unit: Some(unit_idx),
                message: panic_message(payload.as_ref()),
            }))
        }
    }
}

/// Enumerate every package `N ⊆ items` with `|N| ≤ max_size` (including
/// the empty package), calling `visit` on each. `prune` is consulted
/// after visiting a nonempty package; returning `true` skips all its
/// supersets (the caller must guarantee soundness, e.g. via a monotone
/// cost bound — hence the `enumerate.pruned.cost` attribution).
///
/// Returns how the walk ended; budget exhaustion is reported as
/// [`Completion::Interrupted`] rather than an error so anytime callers
/// can keep their best-so-far answer.
pub fn for_each_package(
    items: &[Tuple],
    max_size: usize,
    opts: &SolveOptions,
    mut prune: impl FnMut(&Package) -> bool,
    mut visit: impl FnMut(&Package) -> Result<ControlFlow<()>>,
) -> Result<Completion> {
    let _span = pkgrec_trace::span!("enumerate.dfs");
    let mut pkg = Package::empty();
    let meter = opts.budget.meter();

    fn dfs(
        items: &[Tuple],
        start: usize,
        max_size: usize,
        meter: &Meter,
        pkg: &mut Package,
        prune: &mut impl FnMut(&Package) -> bool,
        visit: &mut impl FnMut(&Package) -> Result<ControlFlow<()>>,
    ) -> Result<ControlFlow<Stop>> {
        if let Err(cut) = meter.tick() {
            pkgrec_trace::counter!("enumerate.pruned.budget");
            return Ok(ControlFlow::Break(Stop::Budget(cut)));
        }
        pkgrec_trace::counter!("enumerate.nodes");
        if visit(pkg)?.is_break() {
            return Ok(ControlFlow::Break(Stop::Visitor));
        }
        if !pkg.is_empty() && prune(pkg) {
            pkgrec_trace::counter!("enumerate.pruned.cost");
            return Ok(ControlFlow::Continue(()));
        }
        if pkg.len() == max_size {
            return Ok(ControlFlow::Continue(()));
        }
        for i in start..items.len() {
            pkg.insert(items[i].clone());
            let flow = dfs(items, i + 1, max_size, meter, pkg, prune, visit);
            pkg.remove(&items[i]);
            if let ControlFlow::Break(stop) = flow? {
                return Ok(ControlFlow::Break(stop));
            }
        }
        Ok(ControlFlow::Continue(()))
    }

    let flow = dfs(items, 0, max_size, &meter, &mut pkg, &mut prune, &mut visit)?;
    Ok(match flow {
        ControlFlow::Continue(()) => Completion::Exhausted,
        ControlFlow::Break(Stop::Visitor) => Completion::Stopped,
        ControlFlow::Break(Stop::Budget(cut)) => Completion::Interrupted(cut),
    })
}

/// Enumerate the *valid* packages of an instance (optionally also
/// requiring `val(N) ≥ rating_bound`), calling `visit` with each valid
/// package and its rating. Items are taken from `Q(D)` once, so the
/// per-package membership test of [`SearchContext::is_valid_package`]
/// is unnecessary here.
///
/// Returns the search statistics; `visit` may stop the search early via
/// `ControlFlow::Break`, and a budget cut-off is recorded in
/// [`SearchStats::interrupted`] rather than raised as an error.
pub fn for_each_valid_package(
    inst: &RecInstance,
    rating_bound: Option<Ext>,
    opts: &SolveOptions,
    mut visit: impl FnMut(&Package, Ext) -> ControlFlow<()>,
) -> Result<SearchStats> {
    let ctx = inst.search_context()?;
    sequential_walk(&ctx, rating_bound, opts, &mut visit)
}

/// The sequential engine: walk the units in index order on the calling
/// thread. The `FnMut` visitor makes this inherently single-threaded;
/// parallel searches go through [`reduce_valid_packages`]. Walking the
/// same unit partition as the parallel engine (instead of one monolithic
/// DFS) is what makes flight recordings and progress estimates
/// bit-comparable across engines.
fn sequential_walk(
    ctx: &SearchContext<'_>,
    rating_bound: Option<Ext>,
    opts: &SolveOptions,
    visit: &mut impl FnMut(&Package, Ext) -> ControlFlow<()>,
) -> Result<SearchStats> {
    let _span = pkgrec_trace::span!("enumerate.dfs");
    let items = ctx.items();
    let max_size = ctx.max_package_size();
    let (units, preskipped) = build_units(ctx, rating_bound, max_size)?;
    let total_nodes = count_nodes(items.len(), max_size);

    let local_progress = Progress::new();
    let progress = opts.progress.as_deref().unwrap_or(&local_progress);
    progress.begin(units.len());
    let mut sink = ProgressSink::new(progress, total_nodes);
    sink.skip(preskipped);

    let telemetry = pkgrec_trace::telemetry();
    let (fl, tl) = (telemetry.flight, telemetry.profile);
    flight::begin_search(units.len() as u64);
    let _phase = timeline::phase("enumerate");

    let meter = opts.budget.meter();
    // The sequential engine never abandons a unit.
    let floor = AtomicUsize::new(usize::MAX);
    let mut stats = SearchStats {
        unit_skew: Some(unit_skew(&units, items.len(), max_size)),
        ..SearchStats::default()
    };
    let mut wstat = WorkerStat::default();
    let mut interrupted = None;
    for (idx, unit) in units.iter().enumerate() {
        flight::begin_unit(idx as u64);
        let claim_start = tl.then(std::time::Instant::now);
        let steps_before = stats.packages_enumerated;
        let (mut pkg, start) = unit_seed(items, *unit);
        let flow = unit_walk_caught(
            ctx,
            rating_bound,
            &meter,
            idx,
            &floor,
            max_size,
            &mut pkg,
            start,
            visit,
            &mut stats,
            &mut sink,
            fl,
        );
        let steps = stats.packages_enumerated - steps_before;
        flight::end_unit(steps, flow.is_continue());
        if let Some(claimed) = claim_start {
            wstat.busy_ns = wstat.busy_ns.saturating_add(
                u64::try_from(claimed.elapsed().as_nanos()).unwrap_or(u64::MAX),
            );
            wstat.units_claimed += 1;
            wstat.steps += steps;
        }
        match flow {
            ControlFlow::Continue(()) => sink.unit_done(),
            ControlFlow::Break(UnitStop::Visitor) => {
                sink.flush();
                // The rest of the space is decided (the visitor chose
                // to stop), so the search is done.
                progress.finish();
                if tl {
                    stats.workers.push(wstat);
                }
                return Ok(stats);
            }
            ControlFlow::Break(UnitStop::Error(e)) => {
                sink.flush();
                return Err(e);
            }
            ControlFlow::Break(UnitStop::Budget(cut)) => {
                interrupted = Some(cut);
                break;
            }
            ControlFlow::Break(UnitStop::Abandoned) => {
                unreachable!("sequential walks never abandon a unit")
            }
        }
    }
    sink.flush();
    match interrupted {
        None => progress.finish(),
        Some(cut) => {
            stats.interrupted = Some(cut);
            stats.progress_at_interrupt = Some(progress.fraction());
        }
    }
    if tl {
        stats.workers.push(wstat);
    }
    Ok(stats)
}

/// A fold over the valid packages of a search that can be split across
/// worker threads: each worker folds its partition into a fresh
/// accumulator with [`visit`](ValidPackageReducer::visit), and the
/// coordinator combines the per-partition accumulators *in canonical
/// order* with [`merge`](ValidPackageReducer::merge).
///
/// For results to be bit-identical to the sequential engine, `merge`
/// must be the fold homomorphism of `visit`: folding a visit sequence
/// split at any point and merging the halves must equal folding the
/// whole sequence. All reducers in [`crate::problems`] satisfy this.
///
/// `visit` may return `ControlFlow::Break` to stop the search early
/// (e.g. a counting reducer that has seen enough); packages after the
/// breaking one — in canonical order — are then discarded, exactly as
/// the sequential engine never visits them.
pub trait ValidPackageReducer: Sync {
    /// Per-partition accumulator.
    type Acc: Send;

    /// A fresh (identity) accumulator.
    fn new_acc(&self) -> Self::Acc;

    /// Fold one valid package into the accumulator.
    fn visit(&self, acc: &mut Self::Acc, pkg: &Package, val: Ext) -> ControlFlow<()>;

    /// Combine a later partition's accumulator into an earlier one.
    fn merge(&self, into: &mut Self::Acc, later: Self::Acc);
}

/// Fold the valid packages of `inst` with `reducer`, on
/// [`SolveOptions::effective_jobs`] worker threads.
///
/// With `jobs = 1` this is exactly [`for_each_valid_package`]; with
/// more, the canonical-order DFS is partitioned by first-item prefix
/// and the per-worker folds are merged deterministically, so
/// uninterrupted runs return **bit-identical** `(Acc, SearchStats)` for
/// any job count. Budget-interrupted runs cover a canonical-order
/// prefix of the space (possibly smaller than the sequential prefix for
/// the same step limit), so anytime lower-bound guarantees carry over.
pub fn reduce_valid_packages<R: ValidPackageReducer>(
    inst: &RecInstance,
    rating_bound: Option<Ext>,
    opts: &SolveOptions,
    reducer: &R,
) -> Result<(R::Acc, SearchStats)> {
    let ctx = inst.search_context()?;
    reduce_valid_packages_in(&ctx, rating_bound, opts, reducer)
}

/// [`reduce_valid_packages`] on a prebuilt [`SearchContext`] (solvers
/// that need the context for other checks build it once and share it).
pub fn reduce_valid_packages_in<R: ValidPackageReducer>(
    ctx: &SearchContext<'_>,
    rating_bound: Option<Ext>,
    opts: &SolveOptions,
    reducer: &R,
) -> Result<(R::Acc, SearchStats)> {
    let jobs = opts.effective_jobs();
    if jobs <= 1 {
        let mut acc = reducer.new_acc();
        let stats = sequential_walk(ctx, rating_bound, opts, &mut |pkg, val| {
            reducer.visit(&mut acc, pkg, val)
        })?;
        return Ok((acc, stats));
    }
    parallel_reduce(ctx, rating_bound, opts, reducer, jobs)
}

/// One partition of the canonical-order package space. The canonical
/// DFS visits `∅`, then for each `i` the subtree of packages whose
/// smallest item is `i` — which itself is `{i}` followed by, for each
/// `j > i`, the subtree rooted at `{i, j}`. Splitting at this depth
/// yields `O(n²)` units (fine-grained enough to balance `n` ≫ jobs),
/// and concatenating the units in index order reproduces the exact
/// monolithic visitation order. Both engines walk this partition.
#[derive(Clone, Copy)]
enum Unit {
    /// The empty package.
    Root,
    /// The singleton `{items[i]}` alone (its subtrees are separate units).
    Single(usize),
    /// The full subtree rooted at `{items[i], items[j]}`.
    Subtree(usize, usize),
}

/// The seed package and descend position of a unit.
fn unit_seed(items: &[Tuple], unit: Unit) -> (Package, usize) {
    match unit {
        Unit::Root => (Package::empty(), items.len()),
        Unit::Single(i) => (Package::singleton(items[i].clone()), items.len()),
        Unit::Subtree(i, j) => (
            Package::new([items[i].clone(), items[j].clone()]),
            j + 1,
        ),
    }
}

/// Build the unit list in canonical order, shared by both engines. A
/// pruned singleton cuts off all its subtrees in the canonical walk —
/// whether by the monotone cost bound or by an anti-monotone `Qc`
/// violation — so those subtree units must not exist (the singleton
/// unit itself re-checks the prune and bumps the attributed counter).
/// Also returns the number of search-tree nodes skipped this way, so
/// the progress estimate can credit them upfront.
fn build_units(
    ctx: &SearchContext<'_>,
    rating_bound: Option<Ext>,
    max_size: usize,
) -> Result<(Vec<Unit>, f64)> {
    let items = ctx.items();
    let n = items.len();
    let mut units = vec![Unit::Root];
    let mut preskipped = 0.0;
    if max_size >= 1 {
        for (i, item) in items.iter().enumerate() {
            units.push(Unit::Single(i));
            if max_size < 2 || i + 1 >= n {
                continue;
            }
            let single = Package::singleton(item.clone());
            let skip = ctx.prune(&single)
                || (ctx.qc_antimonotone()
                    && matches!(
                        ctx.classify(&single, rating_bound)?,
                        Classified::Rejected(Reject::Compat)
                    ));
            if skip {
                preskipped += count_nodes(n - i - 1, max_size - 1) - 1.0;
            } else {
                for j in (i + 1)..n {
                    units.push(Unit::Subtree(i, j));
                }
            }
        }
    }
    Ok((units, preskipped))
}

/// Closed-form subtree size of one unit, in search-tree nodes.
fn unit_nodes(unit: Unit, n: usize, max_size: usize) -> f64 {
    match unit {
        // Root and singleton units are one node each (their subtrees
        // are separate units).
        Unit::Root | Unit::Single(_) => 1.0,
        // The full subtree rooted at the pair {i, j}: the pair node
        // plus every extension drawn from the items after `j`.
        Unit::Subtree(_, j) => count_nodes(n - j - 1, max_size - 2),
    }
}

/// Summarize how skewed the unit subtree sizes are. Pure arithmetic on
/// the unit list — identical for both engines and any job count.
fn unit_skew(units: &[Unit], n: usize, max_size: usize) -> UnitSkew {
    if units.is_empty() {
        return UnitSkew::default();
    }
    let mut sizes: Vec<f64> = units
        .iter()
        .map(|&u| unit_nodes(u, n, max_size))
        .collect();
    sizes.sort_by(|a, b| a.partial_cmp(b).expect("sizes are finite"));
    let total: f64 = sizes.iter().sum();
    let rank = ((sizes.len() as f64) * 0.99).ceil() as usize;
    UnitSkew {
        units: units.len() as u64,
        max_nodes: sizes[sizes.len() - 1],
        mean_nodes: total / sizes.len() as f64,
        p99_nodes: sizes[rank.max(1) - 1],
    }
}

/// Why a unit's walk stopped before exhausting its partition.
enum UnitStop {
    /// The visitor broke; later units are discarded.
    Visitor,
    /// The budget ran out.
    Budget(Interrupted),
    /// Classification failed; later units are discarded.
    Error(CoreError),
    /// A unit before this one already stopped the search — this unit's
    /// partial work is discarded entirely (parallel engine only).
    Abandoned,
}

/// A completed (or budget-cut) unit, as reported by a worker.
struct UnitOutcome<A> {
    idx: usize,
    acc: A,
    stats: SearchStats,
    error: Option<CoreError>,
    /// The unit's ring records, drained from the worker's ring so the
    /// coordinator can replay them in unit order. `None` while both
    /// the flight and the profile channel are off.
    events: Option<flight::UnitEvents>,
}

/// Per-node budget polling, abstracting over the sequential [`Meter`]
/// and the pooled [`WorkerMeter`] so both engines share one walk.
trait SearchMeter {
    /// Charge one step; `Err` when the budget ran out.
    fn tick(&self) -> std::result::Result<(), Interrupted>;
}

impl SearchMeter for Meter {
    fn tick(&self) -> std::result::Result<(), Interrupted> {
        Meter::tick(self)
    }
}

impl SearchMeter for WorkerMeter<'_> {
    fn tick(&self) -> std::result::Result<(), Interrupted> {
        WorkerMeter::tick(self)
    }
}

/// Depth-first walk of one unit's partition — the single node loop both
/// engines run: floor check, budget tick, counters, flight events,
/// classification, attributed pruning, progress credit, descend.
#[allow(clippy::too_many_arguments)]
fn unit_walk<M: SearchMeter>(
    ctx: &SearchContext<'_>,
    rating_bound: Option<Ext>,
    meter: &M,
    unit_idx: usize,
    floor: &AtomicUsize,
    max_size: usize,
    pkg: &mut Package,
    start: usize,
    visit: &mut impl FnMut(&Package, Ext) -> ControlFlow<()>,
    stats: &mut SearchStats,
    sink: &mut ProgressSink<'_>,
    fl: bool,
) -> ControlFlow<UnitStop> {
    // A monotonically decreasing floor: stale reads only delay the
    // abandon, never cause a unit ≤ the final floor to abandon.
    if floor.load(Ordering::Relaxed) < unit_idx {
        return ControlFlow::Break(UnitStop::Abandoned);
    }
    if let Err(cut) = meter.tick() {
        pkgrec_trace::counter!("enumerate.pruned.budget");
        return ControlFlow::Break(UnitStop::Budget(cut));
    }
    pkgrec_trace::counter!("enumerate.nodes");
    stats.packages_enumerated += 1;
    sink.node();
    if fl {
        flight::record(FlightEvent::BranchEnter {
            depth: pkg.len() as u32,
        });
    }
    let mut rejected = None;
    match ctx.classify(pkg, rating_bound) {
        Err(e) => return ControlFlow::Break(UnitStop::Error(e)),
        Ok(Classified::Valid(val)) => {
            pkgrec_trace::counter!("enumerate.valid");
            stats.valid_packages += 1;
            if fl {
                flight::record(FlightEvent::Valid {
                    size: pkg.len() as u32,
                });
            }
            if visit(pkg, val).is_break() {
                return ControlFlow::Break(UnitStop::Visitor);
            }
        }
        Ok(Classified::Rejected(r)) => rejected = Some(r),
    }
    if !pkg.is_empty() {
        let reason = if ctx.prune(pkg) {
            Some(PruneReason::CostBound)
        } else if rejected == Some(Reject::Compat) && ctx.qc_antimonotone() {
            Some(PruneReason::Compat)
        } else {
            None
        };
        if let Some(reason) = reason {
            pkgrec_trace::add_counter(reason.counter_name(), 1);
            if fl {
                flight::record(FlightEvent::Prune {
                    reason,
                    depth: pkg.len() as u32,
                });
            }
            // The whole subtree below this node is decided.
            sink.skip(count_nodes(ctx.items().len() - start, max_size - pkg.len()) - 1.0);
            return ControlFlow::Continue(());
        }
    }
    if pkg.len() == max_size {
        return ControlFlow::Continue(());
    }
    let items = ctx.items();
    for (i, item) in items.iter().enumerate().skip(start) {
        pkg.insert(item.clone());
        let flow = unit_walk(
            ctx,
            rating_bound,
            meter,
            unit_idx,
            floor,
            max_size,
            pkg,
            i + 1,
            visit,
            stats,
            sink,
            fl,
        );
        pkg.remove(item);
        if flow.is_break() {
            return flow;
        }
    }
    ControlFlow::Continue(())
}

/// How workers pick their next unit: one shared cursor handing out
/// units in canonical ascending order.
///
/// The budget can cut a run at any instant, and the merge keeps only
/// the contiguous prefix below the lowest interrupted unit, so every
/// step spent on a high unit while a low one is still unwalked is a
/// step the merged partial throws away. Claiming in order burns the
/// budget on the lowest-indexed units — the merged partial is then the
/// canonical prefix, the best anytime answer the walked steps can buy
/// (and the same prefix the sequential engine would produce).
/// Unbudgeted runs claim the same way: per-worker deques with stealing
/// measured no faster on them (DESIGN.md §16).
struct Scheduler {
    next: AtomicUsize,
    units: usize,
}

impl Scheduler {
    fn new(units: usize) -> Scheduler {
        Scheduler {
            next: AtomicUsize::new(0),
            units,
        }
    }

    fn claim(&self, floor: &AtomicUsize) -> Option<usize> {
        let u = self.next.fetch_add(1, Ordering::Relaxed);
        // Once the floor is below the cursor, every later unit would be
        // abandoned on arrival — stop claiming.
        (u < self.units && floor.load(Ordering::Relaxed) >= u).then_some(u)
    }
}

/// What one worker hands back to the coordinator.
struct WorkerResult<A> {
    outcomes: Vec<UnitOutcome<A>>,
    trace: pkgrec_trace::TraceReport,
    /// Utilization attribution, when the profiler is on.
    stat: Option<WorkerStat>,
    /// Timed records left in the worker's ring: its start and the
    /// units it abandoned.
    leftover: flight::UnitEvents,
}

/// One worker: run under the coordinator's telemetry (with this
/// worker's index), claim units off the scheduler, walk each, and
/// report the outcomes with their drained ring records.
#[allow(clippy::too_many_arguments)]
fn run_worker<R: ValidPackageReducer>(
    ctx: &SearchContext<'_>,
    reducer: &R,
    rating_bound: Option<Ext>,
    units: &[Unit],
    max_size: usize,
    sched: &Scheduler,
    floor: &AtomicUsize,
    shared: &SharedMeter,
    progress: &Progress,
    total_nodes: f64,
    telemetry: Telemetry,
) -> WorkerResult<R::Acc> {
    let _telemetry = telemetry.enter();
    let (fl, tl, worker) = (telemetry.flight, telemetry.profile, telemetry.worker);
    let keep_events = fl || tl;
    let span = pkgrec_trace::span!("enumerate.worker");
    timeline::worker_alive();
    let meter = shared.worker();
    let items = ctx.items();
    let mut sink = ProgressSink::new(progress, total_nodes);
    let mut outcomes = Vec::new();
    let mut wstat = WorkerStat {
        worker,
        ..WorkerStat::default()
    };
    loop {
        // The budget latch is global: once it trips, every worker
        // exits, leaving unclaimed units behind. Interrupted merges
        // keep the prefix below the floor (whose Budget outcome
        // carries the cut), and the in-order scheduler guarantees the
        // unclaimed units all sit at or above that floor.
        if shared.is_stopped() {
            break;
        }
        let Some(u) = sched.claim(floor) else {
            break;
        };
        let mark = flight::mark();
        flight::begin_unit(u as u64);
        let claim_start = tl.then(std::time::Instant::now);
        let (mut pkg, start) = unit_seed(items, units[u]);
        let mut acc = reducer.new_acc();
        let mut stats = SearchStats::default();
        let flow = unit_walk_caught(
            ctx,
            rating_bound,
            &meter,
            u,
            floor,
            max_size,
            &mut pkg,
            start,
            &mut |p, val| reducer.visit(&mut acc, p, val),
            &mut stats,
            &mut sink,
            fl,
        );
        let steps = stats.packages_enumerated;
        flight::end_unit(steps, flow.is_continue());
        if let Some(claimed) = claim_start {
            wstat.busy_ns = wstat.busy_ns.saturating_add(
                u64::try_from(claimed.elapsed().as_nanos()).unwrap_or(u64::MAX),
            );
            wstat.units_claimed += 1;
            wstat.steps += steps;
        }
        match flow {
            ControlFlow::Continue(()) => {
                sink.unit_done();
                outcomes.push(UnitOutcome {
                    idx: u,
                    acc,
                    stats,
                    error: None,
                    events: keep_events.then(|| flight::drain_from(mark)),
                });
            }
            ControlFlow::Break(UnitStop::Abandoned) => {
                pkgrec_trace::counter!("enumerate.pruned.floor");
                flight::discard_from(mark);
            }
            ControlFlow::Break(UnitStop::Visitor) => {
                floor.fetch_min(u, Ordering::Relaxed);
                outcomes.push(UnitOutcome {
                    idx: u,
                    acc,
                    stats,
                    error: None,
                    events: keep_events.then(|| flight::drain_from(mark)),
                });
            }
            ControlFlow::Break(UnitStop::Error(e)) => {
                floor.fetch_min(u, Ordering::Relaxed);
                outcomes.push(UnitOutcome {
                    idx: u,
                    acc,
                    stats,
                    error: Some(e),
                    events: keep_events.then(|| flight::drain_from(mark)),
                });
            }
            ControlFlow::Break(UnitStop::Budget(cut)) => {
                floor.fetch_min(u, Ordering::Relaxed);
                stats.interrupted = Some(cut);
                outcomes.push(UnitOutcome {
                    idx: u,
                    acc,
                    stats,
                    error: None,
                    events: keep_events.then(|| flight::drain_from(mark)),
                });
                break;
            }
        }
    }
    sink.flush();
    drop(span);
    WorkerResult {
        outcomes,
        trace: pkgrec_trace::take(),
        stat: tl.then_some(wstat),
        leftover: flight::drain_all().into_timed(),
    }
}

/// The parallel engine. Determinism argument: each unit is claimed by
/// exactly one worker and walked independently of claim order, so a unit's outcome depends only on the unit (a
/// walk either runs to completion, stops deterministically inside the
/// unit — visitor break, error — or is cut by the budget). The final
/// `floor` is the least index that broke, erred, or ran out of budget;
/// abandonment only triggers *above* the live floor, which never goes
/// below the final floor, so on runs without a budget trip every unit
/// `< floor` was claimed by some worker and ran to completion. The
/// merge therefore folds, in canonical order, exactly the full units
/// `< floor` plus the floor unit's prefix: the same visit sequence the
/// sequential engine folds. Flight recordings inherit the argument:
/// replaying the kept units' drained events in index order reproduces
/// the sequential event stream. Workers claim through one in-order
/// cursor ([`Scheduler`]), so when a budget latch trips the unclaimed
/// units all sit above the cursor and the merge folds the canonical
/// prefix below the floor plus the floor unit's cut prefix — the same
/// partial the sequential engine's anytime contract promises.
fn parallel_reduce<R: ValidPackageReducer>(
    ctx: &SearchContext<'_>,
    rating_bound: Option<Ext>,
    opts: &SolveOptions,
    reducer: &R,
    jobs: usize,
) -> Result<(R::Acc, SearchStats)> {
    let _span = pkgrec_trace::span!("enumerate.par");
    let items = ctx.items();
    let max_size = ctx.max_package_size();
    let (units, preskipped) = build_units(ctx, rating_bound, max_size)?;
    let total_nodes = count_nodes(items.len(), max_size);

    let local_progress = Progress::new();
    let progress = opts.progress.as_deref().unwrap_or(&local_progress);
    progress.begin(units.len());
    {
        let mut sink = ProgressSink::new(progress, total_nodes);
        sink.skip(preskipped);
        sink.flush();
    }

    // The coordinator's ring holds the merged recording; workers
    // record into their own rings and hand records back per unit.
    flight::begin_search(units.len() as u64);
    // Workers run under the coordinator's telemetry — channels and
    // profiling scope — so a serve request's records stay its own.
    let telemetry = pkgrec_trace::telemetry();
    let _phase = timeline::phase("enumerate");

    let shared = opts.budget.shared_meter();
    let floor = AtomicUsize::new(usize::MAX);
    let jobs = jobs.min(units.len());
    let sched = Scheduler::new(units.len());
    let (worker_results, join_panic): (Vec<WorkerResult<R::Acc>>, Option<String>) =
        std::thread::scope(|s| {
            let units = &units;
            let sched = &sched;
            let floor = &floor;
            let shared = &shared;
            let handles: Vec<_> = (0..jobs)
                .map(|w| {
                    s.spawn(move || {
                        run_worker(
                            ctx,
                            reducer,
                            rating_bound,
                            units,
                            max_size,
                            sched,
                            floor,
                            shared,
                            progress,
                            total_nodes,
                            Telemetry {
                                worker: w as u32,
                                ..telemetry
                            },
                        )
                    })
                })
                .collect();
            // Per-unit panics are already fenced inside `run_worker`; a
            // join error means a worker panicked *outside* any unit.
            // Consume it here — propagating would abort the process.
            let mut results = Vec::with_capacity(jobs);
            let mut join_panic = None;
            for h in handles {
                match h.join() {
                    Ok(r) => results.push(r),
                    Err(payload) => {
                        join_panic = Some(panic_message(payload.as_ref()));
                    }
                }
            }
            (results, join_panic)
        });
    if let Some(message) = join_panic {
        pkgrec_trace::counter!("enumerate.worker_panics");
        return Err(CoreError::WorkerPanic {
            unit: None,
            message,
        });
    }

    let mut outcomes: Vec<UnitOutcome<R::Acc>> = Vec::new();
    let mut worker_stats: Vec<WorkerStat> = Vec::new();
    for result in worker_results {
        pkgrec_trace::absorb(&result.trace);
        flight::replay(&result.leftover);
        outcomes.extend(result.outcomes);
        worker_stats.extend(result.stat);
    }
    outcomes.sort_by_key(|o| o.idx);
    worker_stats.sort_by_key(|w| w.worker);

    let floor = floor.load(Ordering::Relaxed);
    let mut acc = reducer.new_acc();
    let mut stats = SearchStats {
        unit_skew: Some(unit_skew(&units, items.len(), max_size)),
        workers: worker_stats,
        ..SearchStats::default()
    };
    for outcome in outcomes {
        if outcome.idx > floor {
            // Above the floor a unit leaves the recording but stays on
            // the timeline.
            if let Some(events) = outcome.events {
                flight::replay(&events.into_timed());
            }
            continue;
        }
        if let Some(events) = &outcome.events {
            flight::replay(events);
        }
        stats.packages_enumerated += outcome.stats.packages_enumerated;
        stats.valid_packages += outcome.stats.valid_packages;
        if let Some(e) = outcome.error {
            return Err(e);
        }
        reducer.merge(&mut acc, outcome.acc);
        if outcome.idx == floor {
            stats.interrupted = outcome.stats.interrupted;
        }
    }
    match stats.interrupted {
        None => progress.finish(),
        Some(_) => stats.progress_at_interrupt = Some(progress.fraction()),
    }
    Ok((acc, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::Constraint;
    use crate::functions::PackageFn;
    use pkgrec_data::{tuple, AttrType, Database, Relation, RelationSchema};
    use pkgrec_guard::Resource;
    use pkgrec_query::{Builtin, CmpOp, ConjunctiveQuery, Query, RelAtom, Term};

    fn items(n: i64) -> Vec<Tuple> {
        (0..n).map(|i| tuple![i]).collect()
    }

    #[test]
    fn enumerates_all_subsets() {
        let mut count = 0;
        let completion = for_each_package(
            &items(4),
            4,
            &SolveOptions::default(),
            |_| false,
            |_| {
                count += 1;
                Ok(ControlFlow::Continue(()))
            },
        )
        .unwrap();
        assert_eq!(count, 16); // 2^4 including ∅
        assert_eq!(completion, Completion::Exhausted);
    }

    #[test]
    fn size_cap_limits_enumeration() {
        let mut count = 0;
        for_each_package(
            &items(4),
            2,
            &SolveOptions::default(),
            |_| false,
            |_| {
                count += 1;
                Ok(ControlFlow::Continue(()))
            },
        )
        .unwrap();
        // ∅ + 4 singletons + 6 pairs.
        assert_eq!(count, 11);
    }

    #[test]
    fn early_break_stops() {
        let mut count = 0;
        let completion = for_each_package(
            &items(10),
            10,
            &SolveOptions::default(),
            |_| false,
            |_| {
                count += 1;
                Ok(if count == 5 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                })
            },
        )
        .unwrap();
        assert_eq!(completion, Completion::Stopped);
        assert_eq!(count, 5);
    }

    #[test]
    fn node_limit_interrupts() {
        // Seed semantics preserved: a limit of 100 stops the search
        // after 100 enumerated packages — now as a Completion carrying
        // which resource ran out instead of a bare error.
        let mut count = 0;
        let completion = for_each_package(
            &items(20),
            20,
            &SolveOptions::limited(100),
            |_| false,
            |_| {
                count += 1;
                Ok(ControlFlow::Continue(()))
            },
        )
        .unwrap();
        match completion {
            Completion::Interrupted(cut) => {
                assert_eq!(cut.resource, Resource::Steps { limit: 100 });
            }
            other => panic!("expected Interrupted, got {other:?}"),
        }
        assert_eq!(count, 100);
    }

    #[test]
    fn from_u64_preserves_node_limit_back_compat() {
        let opts: SolveOptions = 100u64.into();
        let completion = for_each_package(
            &items(20),
            20,
            &opts,
            |_| false,
            |_| Ok(ControlFlow::Continue(())),
        )
        .unwrap();
        assert!(matches!(completion, Completion::Interrupted(_)));
    }

    #[test]
    fn pruning_skips_supersets() {
        // Prune everything with ≥ 2 elements at the 2-element frontier.
        let mut sizes = Vec::new();
        for_each_package(
            &items(4),
            4,
            &SolveOptions::default(),
            |p| p.len() >= 2,
            |p| {
                sizes.push(p.len());
                Ok(ControlFlow::Continue(()))
            },
        )
        .unwrap();
        // ∅, 4 singletons, 6 pairs — no triples or quads.
        assert_eq!(sizes.iter().filter(|&&s| s >= 3).count(), 0);
        assert_eq!(sizes.len(), 11);
    }

    fn small_instance() -> RecInstance {
        let mut db = Database::new();
        let r = RelationSchema::new("r", [("a", AttrType::Int)]).unwrap();
        db.add_relation(
            Relation::from_tuples(r, [tuple![1], tuple![2], tuple![3]]).unwrap(),
        )
        .unwrap();
        RecInstance::new(db, Query::Cq(ConjunctiveQuery::identity("r", 1)))
    }

    #[test]
    fn valid_package_enumeration_respects_budget_and_qc() {
        // cost = |N| (∞ on ∅), budget 2, Qc: no package containing 3.
        let inst = small_instance()
            .with_budget(2.0)
            .with_qc(Constraint::ptime("no item 3", |p, _| {
                !p.contains(&tuple![3])
            }));
        let mut valid = Vec::new();
        let stats = for_each_valid_package(&inst, None, &SolveOptions::default(), |p, _| {
            valid.push(p.clone());
            ControlFlow::Continue(())
        })
        .unwrap();
        // Valid: {1}, {2}, {1,2} — not ∅ (cost ∞), not anything with 3,
        // not {1,2,3} (cost 3 > 2 and contains 3).
        assert_eq!(valid.len(), 3);
        assert_eq!(stats.valid_packages, 3);
        assert!(stats.interrupted.is_none());
        assert!(stats.progress_at_interrupt.is_none());
        assert!(valid.contains(&Package::new([tuple![1], tuple![2]])));
    }

    #[test]
    fn rating_bound_filters() {
        let inst = small_instance()
            .with_budget(10.0)
            .with_val(PackageFn::cardinality());
        let mut count = 0;
        for_each_valid_package(
            &inst,
            Some(Ext::Finite(2.0)),
            &SolveOptions::default(),
            |_, _| {
                count += 1;
                ControlFlow::Continue(())
            },
        )
        .unwrap();
        // Packages with ≥ 2 items: 3 pairs + 1 triple.
        assert_eq!(count, 4);
    }

    #[test]
    fn interruption_recorded_in_stats() {
        let inst = small_instance()
            .with_budget(10.0)
            .with_val(PackageFn::cardinality());
        let stats =
            for_each_valid_package(&inst, None, &SolveOptions::limited(3), |_, _| {
                ControlFlow::Continue(())
            })
            .unwrap();
        let cut = stats.interrupted.expect("limit 3 < 8 subsets");
        assert_eq!(cut.resource, Resource::Steps { limit: 3 });
        assert_eq!(stats.packages_enumerated, 3);
        let frac = stats.progress_at_interrupt.expect("interrupted run");
        assert!((0.0..1.0).contains(&frac), "{frac}");
    }

    #[test]
    fn pruned_counters_are_attributed_by_reason() {
        let _scope = pkgrec_trace::scoped();
        pkgrec_trace::reset();
        // Budget 1.0 with cost = |N|: every singleton's supersets are
        // over budget, so the cost prune fires on each singleton.
        let inst = small_instance().with_budget(1.0);
        for_each_valid_package(&inst, None, &SolveOptions::default(), |_, _| {
            ControlFlow::Continue(())
        })
        .unwrap();
        let report = pkgrec_trace::take();
        assert!(report.counters["enumerate.pruned.cost"] >= 3);
        assert!(
            !report.counters.contains_key("enumerate.pruned"),
            "the lump-sum counter is gone"
        );
    }

    #[test]
    fn antimonotone_qc_prunes_without_changing_the_answer() {
        // Qc() :- RQ(x), RQ(y), x != y — "no two distinct items", a CQ
        // and therefore anti-monotone; the equivalent opaque PTIME
        // predicate forces the engine to visit every rejected superset.
        let cq = Query::Cq(ConjunctiveQuery::new(
            Vec::<Term>::new(),
            vec![
                RelAtom::new(crate::constraints::ANSWER_RELATION, vec![Term::v("x")]),
                RelAtom::new(crate::constraints::ANSWER_RELATION, vec![Term::v("y")]),
            ],
            vec![Builtin::cmp(Term::v("x"), CmpOp::Neq, Term::v("y"))],
        ));
        let run = |qc: Constraint| {
            let _scope = pkgrec_trace::scoped();
            pkgrec_trace::reset();
            let inst = small_instance().with_budget(10.0).with_qc(qc);
            let mut valid = 0u64;
            let stats = for_each_valid_package(&inst, None, &SolveOptions::default(), |_, _| {
                valid += 1;
                ControlFlow::Continue(())
            })
            .unwrap();
            (valid, stats.valid_packages, pkgrec_trace::take())
        };
        let (valid_cq, stats_cq, report_cq) = run(Constraint::Query(cq));
        let (valid_pt, stats_pt, report_pt) = run(Constraint::ptime("≤ 1 item", |p, _| p.len() <= 1));
        assert_eq!(valid_cq, valid_pt, "pruning must not change the answer");
        assert_eq!(stats_cq, stats_pt);
        assert_eq!(stats_cq, valid_cq);
        assert!(report_cq.counters["enumerate.pruned.compat"] >= 1);
        assert!(!report_pt.counters.contains_key("enumerate.pruned.compat"));
        // The anti-monotone run visits no more nodes than the opaque one.
        assert!(
            report_cq.counters["enumerate.nodes"] <= report_pt.counters["enumerate.nodes"]
        );
    }

    #[test]
    fn qc_panic_becomes_typed_error_not_abort() {
        // A Qc predicate that panics mid-search must surface as
        // CoreError::WorkerPanic from both engines — never tear down
        // the process (the resident server shares it across requests).
        for jobs in [1usize, 2] {
            let inst = small_instance().with_budget(10.0).with_qc(Constraint::ptime(
                "panics on {2}",
                |p, _| {
                    if p.contains(&tuple![2]) {
                        panic!("injected qc fault");
                    }
                    true
                },
            ));
            let opts = SolveOptions::default().with_jobs(jobs);
            let err = for_each_valid_package(&inst, None, &opts, |_, _| {
                ControlFlow::Continue(())
            })
            .expect_err("injected panic must surface as an error");
            match err {
                crate::CoreError::WorkerPanic { message, .. } => {
                    assert!(message.contains("injected qc fault"), "{message}");
                }
                other => panic!("expected WorkerPanic, got {other:?}"),
            }
        }
    }

    #[test]
    fn progress_reaches_one_on_exact_completion() {
        let progress = Arc::new(Progress::new());
        let inst = small_instance().with_budget(10.0);
        let opts = SolveOptions::unbounded().with_progress(Arc::clone(&progress));
        for_each_valid_package(&inst, None, &opts, |_, _| ControlFlow::Continue(())).unwrap();
        assert_eq!(progress.fraction(), 1.0);
        let (done, total) = progress.units();
        assert_eq!(done, total);
        assert!(total > 0);
    }
}
