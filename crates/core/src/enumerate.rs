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
//! There is one engine, [`reduce_valid_packages_in`], for every jobs
//! level. It cuts the space into a *prefix partition* (see [`Unit`]);
//! `jobs` workers claim the units in index order and the coordinator
//! merges their folds in index order. Worker 0 runs inline on the
//! calling thread and only workers `1..jobs` are spawned, so `jobs = 1`
//! is one worker walking every unit on the caller's thread. The unit
//! structure is what the observability layer hangs off:
//!
//! * every prune bumps an attributed `enumerate.pruned.*` counter
//!   (cost / compat / budget / floor) instead of a lump sum;
//! * with the flight recorder on (`pkgrec_trace::flight`), each node,
//!   prune, valid package and interruption is appended to a bounded
//!   per-thread event ring, and the workers' records are replayed in
//!   unit order so every jobs level produces the same merged recording
//!   on uninterrupted searches;
//! * a shared [`Progress`] estimate is credited per node and per pruned
//!   subtree — the subtree sizes are known in closed form, so the
//!   fraction is exact, monotone, and reaches 1.0 on completion;
//! * with the profiler on (`pkgrec_trace::timeline`), the same unit
//!   claim records carry a timestamp and worker id, and a timed unit
//!   end follows each walk; they feed the per-worker utilization tables
//!   and Chrome-trace export. The flight recording is the ring's
//!   deterministic projection — time fields and time-only events
//!   dropped — so the bit-identical recording contract is untouched.

use std::borrow::Cow;
use std::ops::ControlFlow;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use pkgrec_data::Tuple;
use pkgrec_guard::{Budget, Interrupted, SharedMeter, WorkerMeter};
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
    /// Workers for the package-space walk. `0` (the default) resolves
    /// to the `PKGREC_JOBS` environment variable, or `1` when it is
    /// unset. Worker 0 runs on the calling thread and the others on
    /// spawned threads, so `1` spawns none. Any value returns
    /// bit-identical results on uninterrupted runs (see
    /// [`reduce_valid_packages_in`]).
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

/// Statistics reported by a completed search.
///
/// Equality deliberately ignores [`workers`](SearchStats::workers):
/// per-worker busy time and claim counts are wall-clock and scheduling
/// dependent, while everything else — including the deterministic
/// [`unit_skew`](SearchStats::unit_skew) summary — must stay
/// bit-identical across job counts.
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
    /// stats across job counts.
    pub progress_at_interrupt: Option<f64>,
    /// Size skew of the unit partition the workers walk: with
    /// `max ≫ mean`, the in-order claim cursor can leave workers idle
    /// behind one giant subtree. Computed in closed form from the
    /// unit list (no wall clock involved), so it is identical across
    /// job counts. `None` for searches that never built a unit
    /// partition.
    pub unit_skew: Option<UnitSkew>,
    /// Per-worker attribution, one entry per worker in index order:
    /// busy wall time, units claimed, steps ticked. Populated only
    /// while the profiler (`pkgrec_trace::timeline`) is enabled — the
    /// disabled path takes no timestamps — and excluded from equality.
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
    /// Worker index (0 = the inline worker on the calling thread).
    pub worker: u32,
    /// Wall time spent inside claimed units, nanoseconds.
    pub busy_ns: u64,
    /// Units this worker claimed (including abandoned ones).
    pub units_claimed: u64,
    /// Budget steps (enumerated packages) this worker ticked.
    pub steps: u64,
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

/// A fold over the valid packages of a search that can be split across
/// workers: each worker folds every run of consecutive units it claims
/// into a fresh accumulator with [`visit`](ValidPackageReducer::visit),
/// and the coordinator combines the runs' accumulators *in canonical
/// order* with [`merge`](ValidPackageReducer::merge).
///
/// For results to be identical at every job count, `merge` must be the
/// fold homomorphism of `visit`: folding a visit sequence split at any
/// point and merging the halves must equal folding the whole sequence.
/// All reducers in [`crate::problems`] satisfy this.
///
/// `visit` may return `ControlFlow::Break` to stop the search early
/// (e.g. a counting reducer that has seen enough); packages after the
/// breaking one — in canonical order — are then discarded, exactly as
/// if the walk had never reached them.
pub trait ValidPackageReducer: Sync {
    /// Per-run accumulator.
    type Acc: Send;

    /// A fresh (identity) accumulator.
    fn new_acc(&self) -> Self::Acc;

    /// Fold one valid package into the accumulator.
    fn visit(&self, acc: &mut Self::Acc, pkg: &Package, val: Ext) -> ControlFlow<()>;

    /// Combine a later run's accumulator into an earlier one.
    fn merge(&self, into: &mut Self::Acc, later: Self::Acc);
}

/// Fold the valid packages of `inst` (optionally also requiring
/// `val(N) ≥ rating_bound`) with `reducer`, on
/// [`SolveOptions::effective_jobs`] workers; see
/// [`reduce_valid_packages_in`].
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
/// This is the search engine: the item pool is taken from `Q(D)` once,
/// so no package needs the membership test of
/// [`SearchContext::is_valid_package`].
///
/// The canonical-order DFS is partitioned into units (see the module
/// docs), and `jobs` workers claim them in index order off one cursor.
/// Worker 0 runs inline on the calling thread; only workers `1..jobs`
/// are spawned, so `jobs = 1` spawns nothing. A worker folds each run
/// of consecutive units it claims (`u == last + 1`) into one
/// accumulator; a run closes when the next claim is not the successor
/// or when a unit breaks (visitor break, error, budget cut, or
/// abandonment). With one worker the whole search is one run. A budget
/// cut is recorded in [`SearchStats::interrupted`], not raised as an
/// error.
///
/// **Determinism.** Each unit is claimed by exactly one worker and
/// walked independently of claim order, so a unit's outcome depends
/// only on the unit: it runs to completion, stops deterministically
/// inside the unit (visitor break, error), or is cut by the budget.
/// The final `floor` is the least unit index that broke. Abandonment
/// triggers only *above* the live floor, which never drops below the
/// final floor, so every unit `< floor` was claimed, ran to completion
/// and sits in a kept run. Runs are sound because a worker's claims
/// inside a run are contiguous: the floor unit, claimed by another
/// worker, lies entirely below or above the run, unless the run ends at
/// its own break. So an abandoned unit only occurs in a run that starts
/// above the floor, and the merge discards that run whole. The merge
/// folds, in canonical order, the runs starting at or below the floor:
/// exactly the full units `< floor` plus the floor unit's prefix, the
/// same visit sequence for any job count. Flight recordings inherit the
/// argument: replaying the kept runs' drained events in index order
/// yields the same event stream at every `jobs`. When a budget latch
/// trips, the in-order cursor leaves every unclaimed unit above the
/// claimed ones, so an interrupted merge is a canonical-order prefix of
/// the space, and anytime lower-bound guarantees carry over (the prefix
/// may be shorter at higher `jobs` for the same step limit).
pub fn reduce_valid_packages_in<R: ValidPackageReducer>(
    ctx: &SearchContext<'_>,
    rating_bound: Option<Ext>,
    opts: &SolveOptions,
    reducer: &R,
) -> Result<(R::Acc, SearchStats)> {
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

    // The calling thread's ring holds the merged recording; every
    // worker hands its runs' records back for replay in unit order.
    flight::begin_search(units.len() as u64);
    // Spawned workers run under the caller's telemetry — channels and
    // profiling scope — so a serve request's records stay its own.
    let telemetry = pkgrec_trace::telemetry();
    let _phase = timeline::phase("enumerate");

    let search = Search {
        ctx,
        reducer,
        rating_bound,
        units: &units,
        max_size,
        sched: Scheduler::new(units.len()),
        floor: AtomicUsize::new(usize::MAX),
        shared: opts.budget.shared_meter(),
        progress,
        total_nodes,
        flight: telemetry.flight,
        profile: telemetry.profile,
    };
    let jobs = opts.effective_jobs().clamp(1, units.len());
    let results: Vec<std::thread::Result<WorkerDone<R::Acc>>> = std::thread::scope(|s| {
        let search = &search;
        let handles: Vec<_> = (1..jobs)
            .map(|w| {
                s.spawn(move || {
                    let _telemetry = Telemetry {
                        worker: w as u32,
                        ..telemetry
                    }
                    .enter();
                    let done = search.worker(w as u32);
                    // Hand this thread's trace and leftover timed
                    // records (its start, its discarded runs) back.
                    (done, pkgrec_trace::take(), flight::drain_all().into_timed())
                })
            })
            .collect();
        // Worker 0 shares the caller's collector and ring, so it hands
        // back nothing but its runs. Per-unit panics are fenced inside
        // the walk; this fence catches one *outside* any unit, as a
        // join error does for a spawned worker — propagating would
        // abort the process.
        let inline = std::panic::catch_unwind(AssertUnwindSafe(|| search.worker(0)));
        std::iter::once(inline)
            .chain(handles.into_iter().map(|h| {
                h.join().map(|(done, trace, leftover)| {
                    pkgrec_trace::absorb(&trace);
                    flight::replay(&leftover);
                    done
                })
            }))
            .collect()
    });

    let mut runs = Vec::new();
    let mut workers = Vec::new();
    for result in results {
        let done = result.map_err(|payload| {
            pkgrec_trace::counter!("enumerate.worker_panics");
            CoreError::WorkerPanic {
                unit: None,
                message: panic_message(payload.as_ref()),
            }
        })?;
        runs.extend(done.runs);
        workers.extend(done.stat);
    }
    runs.sort_by_key(|r| r.first);

    let floor = search.floor.load(Ordering::Relaxed);
    let mut acc: Option<R::Acc> = None;
    let mut stats = SearchStats {
        unit_skew: Some(unit_skew(&units, items.len(), max_size)),
        workers,
        ..SearchStats::default()
    };
    for run in runs {
        if run.first > floor {
            // Above the floor a run leaves the recording but stays on
            // the timeline.
            if let Some(events) = run.events {
                flight::replay(&events.into_timed());
            }
            continue;
        }
        if let Some(events) = &run.events {
            flight::replay(events);
        }
        stats.packages_enumerated += run.stats.packages_enumerated;
        stats.valid_packages += run.stats.valid_packages;
        if let Some(e) = run.error {
            return Err(e);
        }
        // Only the run ending at the floor can carry the cut.
        stats.interrupted = stats.interrupted.or(run.stats.interrupted);
        acc = Some(match acc {
            None => run.acc,
            Some(mut into) => {
                reducer.merge(&mut into, run.acc);
                into
            }
        });
    }
    match stats.interrupted {
        None => progress.finish(),
        Some(_) => stats.progress_at_interrupt = Some(progress.fraction()),
    }
    Ok((acc.unwrap_or_else(|| reducer.new_acc()), stats))
}

/// One partition of the canonical-order package space. The canonical
/// DFS visits `∅`, then for each `i` the subtree of packages whose
/// smallest item is `i` — which itself is `{i}` followed by, for each
/// `j > i`, the subtree rooted at `{i, j}`. Splitting at this depth
/// yields `O(n²)` units (fine-grained enough to balance `n` ≫ jobs),
/// and concatenating the units in index order reproduces the exact
/// monolithic visitation order. Workers claim these units in index
/// order; a lone worker therefore walks the monolithic DFS.
#[derive(Clone, Copy)]
enum Unit {
    /// The empty package.
    Root,
    /// The singleton `{items[i]}` alone (its subtrees are separate units).
    Single(usize),
    /// The full subtree rooted at `{items[i], items[j]}`.
    Subtree(usize, usize),
}

/// The package a walk is at, with its items' `Qc` pool rows (see
/// [`SearchContext::classify`]). One per worker, reset at every unit.
struct Path {
    pkg: Package,
    rows: Vec<u32>,
}

impl Path {
    /// Reset to the seed of `unit`; returns its descend position.
    fn seed(&mut self, ctx: &SearchContext<'_>, items: &[Tuple], unit: Unit) -> usize {
        let (seed, len, start) = match unit {
            Unit::Root => ([0, 0], 0, items.len()),
            Unit::Single(i) => ([i, 0], 1, items.len()),
            Unit::Subtree(i, j) => ([i, j], 2, j + 1),
        };
        let seed = &seed[..len];
        self.pkg = Package::new(seed.iter().map(|&i| items[i].clone()));
        self.rows.clear();
        self.rows.extend(seed.iter().map(|&i| ctx.pool_row(i)));
        start
    }
}

/// Build the unit list in canonical order. A pruned singleton cuts off
/// all its subtrees in the canonical walk — whether by the monotone
/// cost bound or by an anti-monotone `Qc` violation — so those subtree
/// units must not exist (the singleton unit itself re-checks the prune
/// and bumps the attributed counter). Also returns the number of
/// search-tree nodes skipped this way, so the progress estimate can
/// credit them upfront.
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
                        ctx.classify(&single, rating_bound, &[ctx.pool_row(i)])?,
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
/// the unit list — identical for any job count.
fn unit_skew(units: &[Unit], n: usize, max_size: usize) -> UnitSkew {
    if units.is_empty() {
        return UnitSkew::default();
    }
    let mut sizes: Vec<f64> = units.iter().map(|&u| unit_nodes(u, n, max_size)).collect();
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

/// Why a unit's walk stopped before exhausting its partition. Every
/// stop closes the worker's run and ends the worker.
enum UnitStop {
    /// The visitor broke; later units are discarded.
    Visitor,
    /// The budget ran out.
    Budget(Interrupted),
    /// Classification failed; later units are discarded.
    Error(CoreError),
    /// A unit before this one already stopped the search, so this
    /// unit's run is discarded entirely.
    Abandoned,
}

/// A maximal stretch of consecutive units one worker claimed, folded
/// into one accumulator.
struct Run<A> {
    /// Index of the run's first unit.
    first: usize,
    /// Index one past the run's last unit: the claim that extends it.
    next: usize,
    acc: A,
    /// Counts over the run's units; `interrupted` is set when the run
    /// ends at a budget cut.
    stats: SearchStats,
    error: Option<CoreError>,
    /// Where the run's ring records start on the worker's thread.
    mark: flight::Mark,
    /// The run's ring records, drained so the coordinator can replay
    /// them in unit order. `None` while both the flight and the
    /// profile channel are off.
    events: Option<flight::UnitEvents>,
}

/// What one worker hands back to the coordinator.
struct WorkerDone<A> {
    runs: Vec<Run<A>>,
    /// Utilization attribution, when the profiler is on.
    stat: Option<WorkerStat>,
}

/// How workers pick their next unit: one shared cursor handing out
/// units in canonical ascending order.
///
/// The budget can cut a search at any instant, and the merge keeps only
/// the contiguous prefix below the lowest interrupted unit, so every
/// step spent on a high unit while a low one is still unwalked is a
/// step the merged partial throws away. Claiming in order burns the
/// budget on the lowest-indexed units — the merged partial is then the
/// canonical prefix, the best anytime answer the walked steps can buy.
/// Unbudgeted searches claim the same way: per-worker deques with
/// stealing measured no faster on them (DESIGN.md §16).
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

/// Everything the workers of one search share.
struct Search<'s, 'c, R> {
    ctx: &'s SearchContext<'c>,
    reducer: &'s R,
    rating_bound: Option<Ext>,
    units: &'s [Unit],
    max_size: usize,
    sched: Scheduler,
    /// The least unit index that broke so far (`usize::MAX`: none).
    floor: AtomicUsize,
    shared: SharedMeter,
    progress: &'s Progress,
    total_nodes: f64,
    /// The caller's flight and profile channels, which every worker
    /// runs under.
    flight: bool,
    profile: bool,
}

/// What one worker walks with: its handle on the shared meter and the
/// item pool it clones package items from.
struct Lane<'s> {
    meter: WorkerMeter<'s>,
    items: Cow<'s, [Tuple]>,
}

impl<R: ValidPackageReducer> Search<'_, '_, R> {
    /// One worker: claim units off the scheduler, fold consecutive
    /// claims into runs, and return the runs with their drained ring
    /// records.
    fn worker(&self, worker: u32) -> WorkerDone<R::Acc> {
        let _span = pkgrec_trace::span!("enumerate.dfs");
        timeline::worker_alive();
        // Cloning an item into the package and dropping it again writes
        // its reference count, so on a shared pool every worker would
        // write the same lines per node. Spawned workers walk a private
        // copy; worker 0 keeps the shared pool, so `jobs = 1` copies
        // nothing.
        let pool = self.ctx.items();
        let items = match worker {
            0 => Cow::Borrowed(pool),
            _ => Cow::Owned(pool.iter().map(|t| Tuple::new(t.values())).collect()),
        };
        let lane = Lane {
            meter: self.shared.worker(),
            items,
        };
        let mut path = Path {
            pkg: Package::empty(),
            rows: Vec::new(),
        };
        let mut sink = ProgressSink::new(self.progress, self.total_nodes);
        let mut runs = Vec::new();
        let mut open: Option<Run<R::Acc>> = None;
        let mut stat = WorkerStat {
            worker,
            ..WorkerStat::default()
        };
        // The budget latch is global: once it trips, every worker
        // exits, leaving unclaimed units behind. Interrupted merges
        // keep the prefix below the floor (whose run carries the cut),
        // and the in-order scheduler guarantees the unclaimed units all
        // sit at or above that floor.
        while !self.shared.is_stopped() {
            let Some(u) = self.sched.claim(&self.floor) else {
                break;
            };
            if let Some(run) = open.take_if(|run| run.next != u) {
                runs.push(self.close(run));
            }
            let run = open.get_or_insert_with(|| Run {
                first: u,
                next: u,
                acc: self.reducer.new_acc(),
                stats: SearchStats::default(),
                error: None,
                mark: flight::mark(),
                events: None,
            });
            run.next = u + 1;
            flight::begin_unit(u as u64);
            let claimed = self.profile.then(std::time::Instant::now);
            let steps_before = run.stats.packages_enumerated;
            let flow = self.walk_unit(&lane, run, &mut sink, &mut path, u);
            let steps = run.stats.packages_enumerated - steps_before;
            flight::end_unit(steps, flow.is_continue());
            if let Some(claimed) = claimed {
                stat.busy_ns = stat.busy_ns.saturating_add(
                    u64::try_from(claimed.elapsed().as_nanos()).unwrap_or(u64::MAX),
                );
                stat.units_claimed += 1;
                stat.steps += steps;
            }
            let ControlFlow::Break(stop) = flow else {
                sink.unit_done();
                continue;
            };
            match stop {
                UnitStop::Abandoned => pkgrec_trace::counter!("enumerate.pruned.floor"),
                UnitStop::Visitor => {}
                UnitStop::Error(e) => run.error = Some(e),
                UnitStop::Budget(cut) => run.stats.interrupted = Some(cut),
            }
            // An abandoned unit already sits above the floor, so this
            // lowers it only for the other stops.
            self.floor.fetch_min(u, Ordering::Relaxed);
            break;
        }
        runs.extend(open.map(|run| self.close(run)));
        sink.flush();
        WorkerDone {
            runs,
            stat: self.profile.then_some(stat),
        }
    }

    /// Close a run: drain its ring records for the coordinator.
    fn close(&self, mut run: Run<R::Acc>) -> Run<R::Acc> {
        if self.flight || self.profile {
            run.events = Some(flight::drain_from(run.mark));
        }
        run
    }

    /// Walk unit `u` into `run` with a panic fence at the unit
    /// boundary: a panicking reducer, classifier, or injected
    /// `PKGREC_CHAOS` fault becomes a typed [`CoreError::WorkerPanic`]
    /// instead of unwinding through the engine (which, on a spawned
    /// worker thread, would abort the whole process). Bumps
    /// `enumerate.worker_panics` on catch.
    fn walk_unit(
        &self,
        lane: &Lane<'_>,
        run: &mut Run<R::Acc>,
        sink: &mut ProgressSink<'_>,
        path: &mut Path,
        u: usize,
    ) -> ControlFlow<UnitStop> {
        let start = path.seed(self.ctx, &lane.items, self.units[u]);
        let walk = AssertUnwindSafe(|| self.walk(lane, run, sink, u, path, start));
        match std::panic::catch_unwind(walk) {
            Ok(flow) => flow,
            Err(payload) => {
                pkgrec_trace::counter!("enumerate.worker_panics");
                ControlFlow::Break(UnitStop::Error(CoreError::WorkerPanic {
                    unit: Some(u),
                    message: panic_message(payload.as_ref()),
                }))
            }
        }
    }

    /// Depth-first walk below `path` within unit `u` — the one node
    /// loop: floor check, budget tick, counters, flight events,
    /// classification, attributed pruning, progress credit, descend.
    fn walk(
        &self,
        lane: &Lane<'_>,
        run: &mut Run<R::Acc>,
        sink: &mut ProgressSink<'_>,
        u: usize,
        path: &mut Path,
        start: usize,
    ) -> ControlFlow<UnitStop> {
        // A monotonically decreasing floor: stale reads only delay the
        // abandon, never cause a unit ≤ the final floor to abandon.
        if self.floor.load(Ordering::Relaxed) < u {
            return ControlFlow::Break(UnitStop::Abandoned);
        }
        if let Err(cut) = lane.meter.tick() {
            pkgrec_trace::counter!("enumerate.pruned.budget");
            return ControlFlow::Break(UnitStop::Budget(cut));
        }
        pkgrec_trace::counter!("enumerate.nodes");
        run.stats.packages_enumerated += 1;
        sink.node();
        let pkg = &path.pkg;
        if self.flight {
            flight::record(FlightEvent::BranchEnter {
                depth: pkg.len() as u32,
            });
        }
        let ctx = self.ctx;
        let mut rejected = None;
        match ctx.classify(pkg, self.rating_bound, &path.rows) {
            Err(e) => return ControlFlow::Break(UnitStop::Error(e)),
            Ok(Classified::Valid(val)) => {
                pkgrec_trace::counter!("enumerate.valid");
                run.stats.valid_packages += 1;
                if self.flight {
                    flight::record(FlightEvent::Valid {
                        size: pkg.len() as u32,
                    });
                }
                if self.reducer.visit(&mut run.acc, pkg, val).is_break() {
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
                if self.flight {
                    flight::record(FlightEvent::Prune {
                        reason,
                        depth: pkg.len() as u32,
                    });
                }
                // The whole subtree below this node is decided.
                sink.skip(count_nodes(lane.items.len() - start, self.max_size - pkg.len()) - 1.0);
                return ControlFlow::Continue(());
            }
        }
        if pkg.len() == self.max_size {
            return ControlFlow::Continue(());
        }
        for (i, item) in lane.items.iter().enumerate().skip(start) {
            path.pkg.insert(item.clone());
            path.rows.push(ctx.pool_row(i));
            let flow = self.walk(lane, run, sink, u, path, i + 1);
            path.pkg.remove(item);
            path.rows.pop();
            if flow.is_break() {
                return flow;
            }
        }
        ControlFlow::Continue(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::Constraint;
    use crate::functions::PackageFn;
    use crate::instance::SizeBound;
    use pkgrec_data::{tuple, AttrType, Database, Relation, RelationSchema};
    use pkgrec_guard::Resource;
    use pkgrec_query::{Builtin, CmpOp, ConjunctiveQuery, Query, RelAtom, Term};

    /// Collects every valid package in visit order, breaking on
    /// `stop_at` (a position-independent test, so the fold stays a
    /// homomorphism at any job count).
    struct Collect {
        stop_at: Option<Package>,
    }

    const COLLECT: Collect = Collect { stop_at: None };

    impl ValidPackageReducer for Collect {
        type Acc = Vec<Package>;

        fn new_acc(&self) -> Vec<Package> {
            Vec::new()
        }

        fn visit(&self, acc: &mut Vec<Package>, pkg: &Package, _val: Ext) -> ControlFlow<()> {
            acc.push(pkg.clone());
            if self.stop_at.as_ref() == Some(pkg) {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        }

        fn merge(&self, into: &mut Vec<Package>, later: Vec<Package>) {
            into.extend(later);
        }
    }

    /// Items `0..n` of a unary relation; cost = |N| (∞ on ∅), no
    /// cost budget, default size bound `|D|`.
    fn instance(n: i64) -> RecInstance {
        let mut db = Database::new();
        let r = RelationSchema::new("r", [("a", AttrType::Int)]).unwrap();
        db.add_relation(Relation::from_tuples(r, (0..n).map(|i| tuple![i])).unwrap())
            .unwrap();
        RecInstance::new(db, Query::Cq(ConjunctiveQuery::identity("r", 1)))
            .with_budget(f64::INFINITY)
    }

    /// Items {1, 2, 3}.
    fn small_instance() -> RecInstance {
        let mut db = Database::new();
        let r = RelationSchema::new("r", [("a", AttrType::Int)]).unwrap();
        db.add_relation(Relation::from_tuples(r, [tuple![1], tuple![2], tuple![3]]).unwrap())
            .unwrap();
        RecInstance::new(db, Query::Cq(ConjunctiveQuery::identity("r", 1)))
    }

    fn collect(inst: &RecInstance, opts: &SolveOptions) -> (Vec<Package>, SearchStats) {
        reduce_valid_packages(inst, None, opts, &COLLECT).unwrap()
    }

    #[test]
    fn size_cap_limits_enumeration() {
        let inst = instance(4).with_size_bound(SizeBound::Constant(2));
        let (valid, stats) = collect(&inst, &SolveOptions::default());
        // ∅ + 4 singletons + 6 pairs enumerated; ∅ (cost ∞) is invalid.
        assert_eq!(stats.packages_enumerated, 11);
        assert_eq!(valid.len(), 10);
        assert!(valid.iter().all(|p| p.len() <= 2));
    }

    #[test]
    fn node_limit_interrupts() {
        // A limit of 100 stops the search after 100 enumerated
        // packages, recording which resource ran out instead of
        // raising an error.
        let (valid, stats) = collect(&instance(20), &SolveOptions::limited(100).with_jobs(1));
        let cut = stats.interrupted.expect("100 < 2^20 packages");
        assert_eq!(cut.resource, Resource::Steps { limit: 100 });
        assert_eq!(stats.packages_enumerated, 100);
        // Every enumerated package but ∅ is valid.
        assert_eq!(valid.len(), 99);
        let frac = stats.progress_at_interrupt.expect("interrupted run");
        assert!((0.0..1.0).contains(&frac), "{frac}");
    }

    #[test]
    fn from_u64_preserves_node_limit_back_compat() {
        let opts: SolveOptions = 100u64.into();
        let (_, stats) = collect(&instance(20), &opts);
        assert_eq!(
            stats.interrupted.map(|cut| cut.resource),
            Some(Resource::Steps { limit: 100 })
        );
    }

    #[test]
    fn early_break_stops() {
        // Canonical order: {0}, {0,1}, {0,1,2}, … — breaking on
        // {0,1,2} keeps exactly the three packages up to it, at any
        // job count.
        let stop = Package::new([tuple![0], tuple![1], tuple![2]]);
        let reducer = Collect {
            stop_at: Some(stop.clone()),
        };
        for jobs in [1, 2, 4] {
            let opts = SolveOptions::default().with_jobs(jobs);
            let (valid, stats) =
                reduce_valid_packages(&instance(10), None, &opts, &reducer).unwrap();
            assert_eq!(valid.len(), 3, "jobs {jobs}");
            assert_eq!(valid.last(), Some(&stop), "jobs {jobs}");
            assert!(stats.interrupted.is_none(), "jobs {jobs}");
        }
    }

    #[test]
    fn valid_package_enumeration_respects_budget_and_qc() {
        // cost = |N| (∞ on ∅), budget 2, Qc: no package containing 3.
        let inst = small_instance()
            .with_budget(2.0)
            .with_qc(Constraint::ptime("no item 3", |p, _| {
                !p.contains(&tuple![3])
            }));
        let (valid, stats) = collect(&inst, &SolveOptions::default());
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
        let (valid, _) = reduce_valid_packages(
            &inst,
            Some(Ext::Finite(2.0)),
            &SolveOptions::default(),
            &COLLECT,
        )
        .unwrap();
        // Packages with ≥ 2 items: 3 pairs + 1 triple.
        assert_eq!(valid.len(), 4);
    }

    #[test]
    fn pruned_counters_are_attributed_by_reason() {
        let _scope = pkgrec_trace::scoped();
        pkgrec_trace::reset();
        // Budget 1.0 with cost = |N|: every singleton's supersets are
        // over budget, so the cost prune fires on each singleton.
        let inst = small_instance().with_budget(1.0);
        collect(&inst, &SolveOptions::default().with_jobs(1));
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
            let (valid, stats) = collect(&inst, &SolveOptions::default().with_jobs(1));
            (
                valid.len() as u64,
                stats.valid_packages,
                pkgrec_trace::take(),
            )
        };
        let (valid_cq, stats_cq, report_cq) = run(Constraint::Query(cq));
        let (valid_pt, stats_pt, report_pt) =
            run(Constraint::ptime("≤ 1 item", |p, _| p.len() <= 1));
        assert_eq!(valid_cq, valid_pt, "pruning must not change the answer");
        assert_eq!(stats_cq, stats_pt);
        assert_eq!(stats_cq, valid_cq);
        assert!(report_cq.counters["enumerate.pruned.compat"] >= 1);
        assert!(!report_pt.counters.contains_key("enumerate.pruned.compat"));
        // The anti-monotone run visits no more nodes than the opaque one.
        assert!(report_cq.counters["enumerate.nodes"] <= report_pt.counters["enumerate.nodes"]);
    }

    /// A restricted pool (`SearchContext::with_items`, as SketchRefine's
    /// sub-solves build) probes a CQ `Qc` by the full pool's rows: its
    /// valid packages are exactly the subsets of its items that
    /// `is_valid_package` accepts.
    #[test]
    fn restricted_pools_probe_qc_by_their_full_pool_rows() {
        // Items (i, i mod 4); Qc: two distinct items of one group.
        let mut db = Database::new();
        let r = RelationSchema::new("r", [("id", AttrType::Int), ("g", AttrType::Int)]).unwrap();
        db.add_relation(Relation::from_tuples(r, (0..8).map(|i| tuple![i, i % 4])).unwrap())
            .unwrap();
        let rq = |id: &str| {
            RelAtom::new(crate::constraints::ANSWER_RELATION, vec![Term::v(id), Term::v("g")])
        };
        let qc = Query::Cq(ConjunctiveQuery::new(
            Vec::<Term>::new(),
            vec![rq("a"), rq("b")],
            vec![Builtin::cmp(Term::v("a"), CmpOp::Neq, Term::v("b"))],
        ));
        let inst = RecInstance::new(db, Query::Cq(ConjunctiveQuery::identity("r", 2)))
            .with_budget(3.0)
            .with_qc(Constraint::Query(qc));
        let ctx = inst.search_context().unwrap();
        // Ids 1, 3, 5, 7: groups 1, 3, 1, 3, at rows 1, 3, 5, 7 of the
        // full pool (rows 0..4 would hold four distinct groups).
        let picked: Arc<[Tuple]> = ctx.items().iter().skip(1).step_by(2).cloned().collect();
        let sub = ctx.with_items(Arc::clone(&picked));
        let opts = SolveOptions::default().with_jobs(1);
        let (mut got, _) = reduce_valid_packages_in(&sub, None, &opts, &COLLECT).unwrap();
        let mut want: Vec<Package> = (0u32..1 << picked.len())
            .map(|mask| {
                let picks = (0..picked.len()).filter(|i| mask >> i & 1 == 1);
                Package::new(picks.map(|i| picked[i].clone()))
            })
            .filter(|p| ctx.is_valid_package(p, None).unwrap())
            .collect();
        got.sort();
        want.sort();
        assert_eq!(got, want);
        assert_eq!(want.len(), 8, "four singletons and the four cross-group pairs");
    }

    #[test]
    fn qc_panic_becomes_typed_error_not_abort() {
        // A Qc predicate that panics mid-search must surface as
        // CoreError::WorkerPanic at every job count — never tear down
        // the process (the resident server shares it across requests).
        for jobs in [1usize, 2] {
            let inst = small_instance()
                .with_budget(10.0)
                .with_qc(Constraint::ptime("panics on {2}", |p, _| {
                    if p.contains(&tuple![2]) {
                        panic!("injected qc fault");
                    }
                    true
                }));
            let opts = SolveOptions::default().with_jobs(jobs);
            let err = reduce_valid_packages(&inst, None, &opts, &COLLECT)
                .expect_err("injected panic must surface as an error");
            match err {
                crate::CoreError::WorkerPanic { unit, message } => {
                    assert!(unit.is_some(), "the panic is fenced at its unit");
                    assert!(message.contains("injected qc fault"), "{message}");
                }
                other => panic!("expected WorkerPanic, got {other:?}"),
            }
        }
    }

    #[test]
    fn panic_outside_a_unit_becomes_typed_error() {
        // `new_acc` runs when a worker opens a run, outside every unit
        // fence: the inline worker's panic and a spawned worker's
        // alike must come back as a unit-less WorkerPanic.
        struct Unopenable;
        impl ValidPackageReducer for Unopenable {
            type Acc = ();
            fn new_acc(&self) {
                panic!("injected new_acc fault");
            }
            fn visit(&self, _: &mut (), _: &Package, _: Ext) -> ControlFlow<()> {
                ControlFlow::Continue(())
            }
            fn merge(&self, _: &mut (), _: ()) {}
        }
        for jobs in [1usize, 2] {
            let opts = SolveOptions::default().with_jobs(jobs);
            let err = reduce_valid_packages(&small_instance(), None, &opts, &Unopenable)
                .expect_err("injected panic must surface as an error");
            match err {
                crate::CoreError::WorkerPanic { unit, message } => {
                    assert_eq!(unit, None, "jobs {jobs}");
                    assert!(message.contains("injected new_acc fault"), "{message}");
                }
                other => panic!("expected WorkerPanic, got {other:?}"),
            }
        }
    }

    #[test]
    fn progress_reaches_one_on_exact_completion() {
        let progress = Arc::new(Progress::new());
        let inst = small_instance().with_budget(10.0);
        let opts = SolveOptions::unbounded()
            .with_jobs(1)
            .with_progress(Arc::clone(&progress));
        collect(&inst, &opts);
        assert_eq!(progress.fraction(), 1.0);
        let (done, total) = progress.units();
        assert_eq!(done, total);
        assert!(total > 0);
    }

    #[test]
    fn one_job_visits_every_package_on_the_calling_thread() {
        // jobs = 1 is worker 0 alone, inline: no thread is spawned.
        struct Threads;
        impl ValidPackageReducer for Threads {
            type Acc = Vec<std::thread::ThreadId>;
            fn new_acc(&self) -> Self::Acc {
                Vec::new()
            }
            fn visit(&self, acc: &mut Self::Acc, _: &Package, _: Ext) -> ControlFlow<()> {
                acc.push(std::thread::current().id());
                ControlFlow::Continue(())
            }
            fn merge(&self, into: &mut Self::Acc, later: Self::Acc) {
                into.extend(later);
            }
        }
        let opts = SolveOptions::default().with_jobs(1);
        let (threads, stats) = reduce_valid_packages(&instance(6), None, &opts, &Threads).unwrap();
        assert_eq!(threads.len() as u64, stats.valid_packages);
        assert_eq!(threads.len(), 63);
        let caller = std::thread::current().id();
        assert!(threads.iter().all(|&t| t == caller));
    }
}
