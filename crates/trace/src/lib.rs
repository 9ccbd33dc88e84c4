//! Structured tracing and solver metrics for the solver stack.
//!
//! The paper's results are asymptotic — NP/Σ₂ᵖ/PSPACE bounds per
//! language and regime — so the only way to *see* those complexity
//! cliffs in a running system is to measure where the work goes: DPLL
//! branching, Datalog fixpoint rounds, package-space DFS nodes. This
//! crate is the dependency-free observability layer the rest of the
//! workspace reports into:
//!
//! * **spans** — hierarchical RAII regions ([`span!`]) recording call
//!   count, wall time and search steps per span *path* (e.g.
//!   `frp.top_k/enumerate.dfs`);
//! * **counters** — named monotonic counters ([`counter!`]), e.g.
//!   `dpll.conflicts` or `enumerate.nodes` (see the registry below);
//! * **histograms** — log₂-bucketed per-call latency distributions,
//!   recorded automatically for every span path;
//! * **reports** — a thread-local collector snapshots into a
//!   serializable [`TraceReport`] with merge, stable (sorted) JSON
//!   export and a human-readable rendering.
//!
//! Tracing is **off by default** and near-free while off: every probe
//! reduces to one thread-local load. Enablement and aggregation are
//! both per-thread ([`Telemetry`]): [`scoped`] turns tracing on for the
//! calling thread only, so concurrent solves never contend on a lock and
//! never switch each other's telemetry on.
//!
//! ```
//! let _on = pkgrec_trace::scoped();
//! {
//!     let _solve = pkgrec_trace::span!("demo.solve");
//!     pkgrec_trace::counter!("demo.nodes", 3);
//!     pkgrec_trace::add_steps(7);
//! }
//! let report = pkgrec_trace::take();
//! assert_eq!(report.counters["demo.nodes"], 3);
//! assert_eq!(report.spans["demo.solve"].steps, 7);
//! ```
//!
//! # Counter name registry
//!
//! Counter and span names are a **stable public contract** (tests pin
//! them; downstream dashboards may key on them):
//!
//! | name | layer | meaning |
//! |------|-------|---------|
//! | `dpll.decisions` | logic | DPLL branching decisions |
//! | `dpll.propagations` | logic | unit-propagation assignments |
//! | `dpll.conflicts` | logic | falsified-clause backtracks |
//! | `dpll.pure_literals` | logic | pure-literal eliminations |
//! | `qbf.expansions` | logic | quantifier-block assignments tried |
//! | `sharpsat.branches` | logic | #SAT branch nodes |
//! | `maxsat.branches` | logic | MaxSAT branch-and-bound nodes |
//! | `datalog.fixpoint_rounds` | query | semi-naive fixpoint rounds |
//! | `datalog.facts_derived` | query | new IDB facts per round |
//! | `cq.join_candidates` | query | candidate tuples tried by the join |
//! | `query.plan_compiles` | query | query plans compiled (once per (query, db) pair) |
//! | `query.plan_probes` | query | compiled-plan evaluations / membership probes |
//! | `query.index_builds` | query | column postings built (snapshot columns, once per epoch; per-run IDB tables) |
//! | `query.bitset_probes` | query | fully-bound existence steps answered by posting intersection |
//! | `query.hypergraph_edges.size0` | query | empty conflict-hypergraph edges: `Qc` rejects every package |
//! | `query.hypergraph_edges.size1` | query | one-row conflict-hypergraph edges: pool rows no package may hold |
//! | `query.hypergraph_edges.size2` | query | two-row conflict-hypergraph edges: conflicting pool-row pairs |
//! | `query.hypergraph_edges.size3plus` | query | conflict-hypergraph edges of three or more pool rows |
//! | `query.hypergraph_fallbacks` | query | CQ/UCQ `Qc`s over the conflict hypergraph's cap, probed per package instead |
//! | `fo.assignments` | query | active-domain rows enumerated |
//! | `rewrite.steps` | query | language-lattice rewrite steps |
//! | `enumerate.nodes` | core | package-space DFS nodes visited |
//! | `enumerate.pruned.cost` | core | subtrees skipped: every superset over the cost budget |
//! | `enumerate.pruned.compat` | core | subtrees skipped: anti-monotone `Qc` already violated |
//! | `enumerate.pruned.budget` | core | walks cut short by the resource budget |
//! | `enumerate.pruned.floor` | core | parallel units discarded above the merge floor |
//! | `enumerate.valid` | core | packages passing all validity checks |
//! | `enumerate.worker_panics` | core | search-unit panics caught and converted to typed errors |
//! | `core.arity_derivations` | core | query answer-arity derivations (O(1) per search) |
//! | `core.hypergraph_checks` | core | package compatibility checks answered by the conflict hypergraph |
//! | `frp.candidate_inserts` | core | top-k working-set insertions |
//! | `sketch.partition_builds` | core | partition indexes built for approximate solves |
//! | `sketch.sub_solves` | core | exact sub-solves run by the sketch/refine loop |
//! | `sketch.refines` | core | representatives swapped for their partition's contents |
//! | `sketch.refines.improved` | core | refine rounds whose re-solve beat the incumbent |
//! | `sketch.refines.no_gain` | core | refine rounds whose re-solve did not beat the incumbent |
//! | `sketch.partitions_pruned` | core | partitions skipped by aggregate bounds during refinement |
//! | `qrpp.relaxations` | relax | relaxation candidates tried |
//! | `arpp.adjustments` | adjust | adjustment candidates tried |
//! | `guard.interrupted` | guard | budget interruptions raised |
//! | `serve.requests` | serve | HTTP requests accepted for processing |
//! | `serve.rejected.overload` | serve | requests shed by admission control |
//! | `serve.rejected.bad_request` | serve | malformed requests answered with a typed error |
//! | `serve.worker_panics` | serve | request-handler panics caught at the worker fence |
//! | `serve.deadline_partial` | serve | responses returned best-so-far at a deadline |
//! | `serve.plan_cache_hits` | serve | solve requests served from the prepared-plan cache |
//! | `serve.plan_cache_misses` | serve | solve requests that compiled a fresh plan |

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::marker::PhantomData;
use std::sync::OnceLock;
use std::time::Instant;

pub mod chaos;
pub mod flight;
pub mod json;
pub mod prom;
pub mod timeline;
pub mod window;

/// Number of log₂ histogram buckets: bucket `i` holds values whose bit
/// length is `i` (bucket 0 holds the value 0).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// One row of the counter name registry (the table in the crate docs,
/// machine-readable). The `name` column doubles as the fault-site name
/// `pkgrec_trace::chaos` directives target, since every [`counter!`]
/// probe is a chaos site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterInfo {
    /// The stable counter / fault-site name, e.g. `enumerate.nodes`.
    pub name: &'static str,
    /// The layer that owns the probe (`logic`, `query`, `core`, …).
    pub layer: &'static str,
    /// What one increment means.
    pub help: &'static str,
}

/// The counter name registry as data: one entry per row of the table
/// in the crate docs, in the same order. A test pins the two in sync,
/// so `pkgrec chaos-sites` can enumerate valid `PKGREC_CHAOS` targets
/// from this constant without parsing doc comments at runtime.
pub const COUNTER_REGISTRY: &[CounterInfo] = &[
    CounterInfo { name: "dpll.decisions", layer: "logic", help: "DPLL branching decisions" },
    CounterInfo { name: "dpll.propagations", layer: "logic", help: "unit-propagation assignments" },
    CounterInfo { name: "dpll.conflicts", layer: "logic", help: "falsified-clause backtracks" },
    CounterInfo { name: "dpll.pure_literals", layer: "logic", help: "pure-literal eliminations" },
    CounterInfo { name: "qbf.expansions", layer: "logic", help: "quantifier-block assignments tried" },
    CounterInfo { name: "sharpsat.branches", layer: "logic", help: "#SAT branch nodes" },
    CounterInfo { name: "maxsat.branches", layer: "logic", help: "MaxSAT branch-and-bound nodes" },
    CounterInfo { name: "datalog.fixpoint_rounds", layer: "query", help: "semi-naive fixpoint rounds" },
    CounterInfo { name: "datalog.facts_derived", layer: "query", help: "new IDB facts per round" },
    CounterInfo { name: "cq.join_candidates", layer: "query", help: "candidate tuples tried by the join" },
    CounterInfo { name: "query.plan_compiles", layer: "query", help: "query plans compiled (once per (query, db) pair)" },
    CounterInfo { name: "query.plan_probes", layer: "query", help: "compiled-plan evaluations / membership probes" },
    CounterInfo { name: "query.index_builds", layer: "query", help: "column postings built (snapshot columns, once per epoch; per-run IDB tables)" },
    CounterInfo { name: "query.bitset_probes", layer: "query", help: "fully-bound existence steps answered by posting intersection" },
    CounterInfo { name: "query.hypergraph_edges.size0", layer: "query", help: "empty conflict-hypergraph edges: `Qc` rejects every package" },
    CounterInfo { name: "query.hypergraph_edges.size1", layer: "query", help: "one-row conflict-hypergraph edges: pool rows no package may hold" },
    CounterInfo { name: "query.hypergraph_edges.size2", layer: "query", help: "two-row conflict-hypergraph edges: conflicting pool-row pairs" },
    CounterInfo { name: "query.hypergraph_edges.size3plus", layer: "query", help: "conflict-hypergraph edges of three or more pool rows" },
    CounterInfo { name: "query.hypergraph_fallbacks", layer: "query", help: "CQ/UCQ `Qc`s over the conflict hypergraph's cap, probed per package instead" },
    CounterInfo { name: "fo.assignments", layer: "query", help: "active-domain rows enumerated" },
    CounterInfo { name: "rewrite.steps", layer: "query", help: "language-lattice rewrite steps" },
    CounterInfo { name: "enumerate.nodes", layer: "core", help: "package-space DFS nodes visited" },
    CounterInfo { name: "enumerate.pruned.cost", layer: "core", help: "subtrees skipped: every superset over the cost budget" },
    CounterInfo { name: "enumerate.pruned.compat", layer: "core", help: "subtrees skipped: anti-monotone `Qc` already violated" },
    CounterInfo { name: "enumerate.pruned.budget", layer: "core", help: "walks cut short by the resource budget" },
    CounterInfo { name: "enumerate.pruned.floor", layer: "core", help: "parallel units discarded above the merge floor" },
    CounterInfo { name: "enumerate.valid", layer: "core", help: "packages passing all validity checks" },
    CounterInfo { name: "enumerate.worker_panics", layer: "core", help: "search-unit panics caught and converted to typed errors" },
    CounterInfo { name: "core.arity_derivations", layer: "core", help: "query answer-arity derivations (O(1) per search)" },
    CounterInfo { name: "core.hypergraph_checks", layer: "core", help: "package compatibility checks answered by the conflict hypergraph" },
    CounterInfo { name: "frp.candidate_inserts", layer: "core", help: "top-k working-set insertions" },
    CounterInfo { name: "sketch.partition_builds", layer: "core", help: "partition indexes built for approximate solves" },
    CounterInfo { name: "sketch.sub_solves", layer: "core", help: "exact sub-solves run by the sketch/refine loop" },
    CounterInfo { name: "sketch.refines", layer: "core", help: "representatives swapped for their partition's contents" },
    CounterInfo { name: "sketch.refines.improved", layer: "core", help: "refine rounds whose re-solve beat the incumbent" },
    CounterInfo { name: "sketch.refines.no_gain", layer: "core", help: "refine rounds whose re-solve did not beat the incumbent" },
    CounterInfo { name: "sketch.partitions_pruned", layer: "core", help: "partitions skipped by aggregate bounds during refinement" },
    CounterInfo { name: "qrpp.relaxations", layer: "relax", help: "relaxation candidates tried" },
    CounterInfo { name: "arpp.adjustments", layer: "adjust", help: "adjustment candidates tried" },
    CounterInfo { name: "guard.interrupted", layer: "guard", help: "budget interruptions raised" },
    CounterInfo { name: "serve.requests", layer: "serve", help: "HTTP requests accepted for processing" },
    CounterInfo { name: "serve.rejected.overload", layer: "serve", help: "requests shed by admission control" },
    CounterInfo { name: "serve.rejected.bad_request", layer: "serve", help: "malformed requests answered with a typed error" },
    CounterInfo { name: "serve.worker_panics", layer: "serve", help: "request-handler panics caught at the worker fence" },
    CounterInfo { name: "serve.deadline_partial", layer: "serve", help: "responses returned best-so-far at a deadline" },
    CounterInfo { name: "serve.plan_cache_hits", layer: "serve", help: "solve requests served from the prepared-plan cache" },
    CounterInfo { name: "serve.plan_cache_misses", layer: "serve", help: "solve requests that compiled a fresh plan" },
];

/// Fault sites that are *not* counters: places that call
/// [`chaos::hit`] directly. Append these to [`COUNTER_REGISTRY`] for
/// the full set of valid `PKGREC_CHAOS` targets.
pub const EXTRA_FAULT_SITES: &[CounterInfo] = &[CounterInfo {
    name: "serve.request",
    layer: "serve",
    help: "connection loop, after reading a request (a `drop` here severs the socket)",
}];

/// The telemetry state of one thread: which of the three channels
/// record, and the profiling scope and worker index timed records
/// carry.
///
/// State is **per thread**. A guard from [`Telemetry::enter`] (or one
/// of the `scoped` shorthands: [`scoped`], [`flight::scoped`],
/// [`timeline::scoped`]) changes the calling thread only, so a
/// concurrent test or serve request can never switch another thread's
/// telemetry on or off. A thread that spawns workers hands its state
/// over explicitly: [`telemetry`] on the spawning side,
/// [`Telemetry::enter`] on the worker.
///
/// A fresh thread starts with tracing off and the flight and profile
/// channels at the defaults `PKGREC_FLIGHT` / `PKGREC_PROFILE` ask for
/// (any nonempty value other than `0`), read once per thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Telemetry {
    /// Spans, counters and histograms ([`span!`], [`counter!`]).
    pub trace: bool,
    /// The deterministic projection of the event ring ([`flight`]).
    pub flight: bool,
    /// The timed projection of the event ring ([`timeline`]).
    pub profile: bool,
    /// Profiling scope timed records are tagged with (0 = none); see
    /// [`timeline::begin_scope`].
    pub scope: u64,
    /// Worker index timed records carry (0 = the coordinator, whose
    /// thread also runs search worker 0).
    pub worker: u32,
}

impl Telemetry {
    /// The state a fresh thread starts in: tracing off, flight and
    /// profile as the environment asks.
    fn from_env() -> Telemetry {
        static ENV: OnceLock<(bool, bool)> = OnceLock::new();
        let on = |var| std::env::var(var).is_ok_and(|v| !v.is_empty() && v != "0");
        let &(flight, profile) = ENV.get_or_init(|| (on("PKGREC_FLIGHT"), on("PKGREC_PROFILE")));
        Telemetry {
            flight,
            profile,
            ..Telemetry::default()
        }
    }

    /// Make this the calling thread's state until the guard drops.
    #[must_use = "the previous state is restored when the guard drops"]
    pub fn enter(self) -> TelemetryGuard {
        TelemetryGuard {
            prev: STATE.try_with(|s| s.replace(self)).ok(),
            _thread: PhantomData,
        }
    }
}

thread_local! {
    static STATE: Cell<Telemetry> = Cell::new(Telemetry::from_env());
}

/// The calling thread's telemetry state.
#[inline]
pub fn telemetry() -> Telemetry {
    STATE.try_with(Cell::get).unwrap_or_default()
}

/// RAII guard from [`Telemetry::enter`]: restores the thread's previous
/// state when dropped. Not `Send`: it restores the thread it was made
/// on.
#[derive(Debug)]
pub struct TelemetryGuard {
    prev: Option<Telemetry>,
    _thread: PhantomData<*const ()>,
}

impl Drop for TelemetryGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev {
            let _ = STATE.try_with(|s| s.set(prev));
        }
    }
}

/// Whether tracing is on for the calling thread. This is the *only*
/// cost a probe pays while tracing is off.
#[inline]
pub fn is_enabled() -> bool {
    telemetry().trace
}

/// Turn tracing on for the calling thread until the guard drops.
#[must_use = "tracing is switched off again when the guard drops"]
pub fn scoped() -> TelemetryGuard {
    Telemetry {
        trace: true,
        ..telemetry()
    }
    .enter()
}

/// One frame of the active span stack.
struct Frame {
    name: &'static str,
    /// Length of the collector's `path` string up to and including this
    /// frame's segment.
    path_len: usize,
    start: Instant,
    steps: u64,
}

/// Per-thread aggregation state.
#[derive(Default)]
struct Collector {
    stack: Vec<Frame>,
    /// Slash-joined path of the open spans, e.g. `frp.top_k/enumerate.dfs`.
    path: String,
    spans: BTreeMap<String, SpanStat>,
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<String, Histogram>,
    /// Steps ticked while no span was open.
    orphan_steps: u64,
    /// Reports handed over from other threads via [`absorb`] (e.g.
    /// per-worker traces from a parallel search), folded into this
    /// thread's report at snapshot time. Kept separate because the live
    /// counters are keyed by `&'static str` while absorbed reports own
    /// their keys.
    absorbed: TraceReport,
}

thread_local! {
    static COLLECTOR: RefCell<Collector> = RefCell::new(Collector::default());
}

/// Run `f` with the thread's collector; silently a no-op during thread
/// teardown (TLS already destroyed).
#[inline]
fn with_collector<R>(f: impl FnOnce(&mut Collector) -> R) -> Option<R> {
    COLLECTOR.try_with(|c| f(&mut c.borrow_mut())).ok()
}

/// Aggregate statistics for one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of completed calls.
    pub count: u64,
    /// Total wall time across calls, in nanoseconds.
    pub total_ns: u64,
    /// Search steps attributed to this span (fed by `Meter::tick` and
    /// [`add_steps`]); *self* steps only — not rolled up into parents.
    pub steps: u64,
}

impl SpanStat {
    fn merge(&mut self, other: &SpanStat) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.steps += other.steps;
    }
}

/// A log₂-bucketed histogram of `u64` samples (nanoseconds for the
/// automatic per-span latency histograms).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// `buckets[i]` counts samples of bit length `i` (bucket 0: the
    /// value 0), i.e. sample `v` lands in bucket `64 - v.leading_zeros()`.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl Histogram {
    /// The bucket index a value falls into.
    pub fn bucket_of(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.buckets[Self::bucket_of(value)] += 1;
    }

    /// Mean sample, or 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Approximate quantile `q` (in `0.0..=1.0`). Buckets are log₂, so
    /// the estimate is the *lower bound* of the bucket the quantile
    /// falls in — good enough to see orders of magnitude, cheap enough
    /// to always keep. Merging histograms then taking a percentile
    /// gives the same answer as recording all samples into one
    /// histogram, because the estimate depends only on bucket counts.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * q).ceil() as u64;
        let mut seen = 0u64;
        for (bucket, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if n > 0 && seen >= rank {
                return Self::bucket_floor(bucket);
            }
        }
        self.max
    }

    /// The smallest value that lands in `bucket` (the lower bound the
    /// percentile estimate reports).
    pub fn bucket_floor(bucket: usize) -> u64 {
        if bucket == 0 {
            0
        } else {
            1u64 << (bucket - 1)
        }
    }

    /// Pointwise merge of another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }
}

/// RAII guard for an open span; closing (dropping) it records the
/// call's wall time, step count and latency-histogram sample. Created
/// by [`span`] / [`span!`]. Drop order is panic-safe: unwinding closes
/// inner spans first, and a leaked guard (`mem::forget`) is healed by
/// truncation on the next close.
#[must_use = "a span measures the region until the guard drops"]
pub struct SpanGuard {
    /// Stack depth this guard expects to close (1-based); 0 marks a
    /// no-op guard created while tracing was disabled.
    depth: usize,
}

/// Open a span named `name`. Names are static so probes never allocate
/// on the hot path; the dynamic span *path* is maintained by the
/// collector. Prefer the [`span!`] macro.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard { depth: 0 };
    }
    let depth = with_collector(|c| {
        if !c.path.is_empty() {
            c.path.push('/');
        }
        c.path.push_str(name);
        let frame = Frame {
            name,
            path_len: c.path.len(),
            start: Instant::now(),
            steps: 0,
        };
        c.stack.push(frame);
        c.stack.len()
    });
    SpanGuard {
        depth: depth.unwrap_or(0),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.depth == 0 {
            return;
        }
        let depth = self.depth;
        with_collector(|c| {
            // Heal any leaked inner guards, then close our frame.
            while c.stack.len() >= depth {
                let frame = c.stack.pop().expect("len >= depth >= 1");
                let elapsed = u64::try_from(frame.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                let path = c.path[..frame.path_len].to_string();
                let stat = c.spans.entry(path.clone()).or_default();
                stat.count += 1;
                stat.total_ns += elapsed;
                stat.steps += frame.steps;
                c.histograms.entry(path).or_default().record(elapsed);
                let parent_len = c.stack.last().map_or(0, |f| f.path_len);
                c.path.truncate(parent_len);
            }
        });
    }
}

/// Open a span: `let _guard = span!("dpll.solve");`
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}

/// Add `n` to the named monotonic counter. Prefer the [`counter!`]
/// macro.
///
/// Every counter probe is also a [`chaos`] fault site (keyed by the
/// counter name) — the chaos hook runs *before* the enabled check so
/// fault injection works with tracing off, as in production serving.
#[inline]
pub fn add_counter(name: &'static str, n: u64) {
    let _ = chaos::hit(name);
    if !is_enabled() {
        return;
    }
    with_collector(|c| *c.counters.entry(name).or_insert(0) += n);
}

/// Bump a named counter: `counter!("dpll.conflicts")` or
/// `counter!("datalog.facts_derived", n)`.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {
        $crate::add_counter($name, 1)
    };
    ($name:expr, $n:expr) => {
        $crate::add_counter($name, $n)
    };
}

/// Attribute `n` search steps to the innermost open span. This is the
/// hook `pkgrec_guard::Meter::tick` feeds, so metered solvers get span
/// step counts without maintaining a second parallel counter.
#[inline]
pub fn add_steps(n: u64) {
    if !is_enabled() {
        return;
    }
    with_collector(|c| match c.stack.last_mut() {
        Some(frame) => frame.steps += n,
        None => c.orphan_steps += n,
    });
}

/// Fold a report produced on *another* thread into this thread's
/// aggregates, as if its spans/counters/histograms had been recorded
/// here: span and histogram paths are re-rooted under the spans open
/// on this thread. This is how a parallel search's coordinator
/// reunites the per-worker traces ([`take`]n on each worker before it
/// exits) into the solve's single report, with a spawned worker's
/// spans at the same paths as the inline worker's, so span trees do
/// not depend on the jobs level. No-op while tracing is disabled.
pub fn absorb(report: &TraceReport) {
    if !is_enabled() || report.is_empty() {
        return;
    }
    with_collector(|c| {
        let root = |path: &String| match c.path.as_str() {
            "" => path.clone(),
            open => format!("{open}/{path}"),
        };
        let rerooted = TraceReport {
            spans: report.spans.iter().map(|(p, s)| (root(p), *s)).collect(),
            counters: report.counters.clone(),
            histograms: report.histograms.iter().map(|(p, h)| (root(p), h.clone())).collect(),
        };
        c.absorbed.merge(&rerooted);
    });
}

/// Name of the innermost open span on this thread, if tracing is
/// enabled and a span is open. Used by `pkgrec_guard` to tag
/// `Interrupted` errors with where the budget tripped.
#[inline]
pub fn current_span_name() -> Option<&'static str> {
    if !is_enabled() {
        return None;
    }
    with_collector(|c| c.stack.last().map(|f| f.name)).flatten()
}

/// Slash-joined path of the open spans on this thread (empty when no
/// span is open or tracing is disabled).
pub fn current_span_path() -> String {
    if !is_enabled() {
        return String::new();
    }
    with_collector(|c| c.path.clone()).unwrap_or_default()
}

/// A serializable aggregate of everything recorded on one thread (or
/// merged across threads/solves): per-path span statistics, counters,
/// and per-path latency histograms. Keys are sorted (`BTreeMap`), so
/// every rendering of a report is deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceReport {
    /// Span statistics keyed by slash-joined span path.
    pub spans: BTreeMap<String, SpanStat>,
    /// Monotonic counters keyed by registry name.
    pub counters: BTreeMap<String, u64>,
    /// Per-span-path latency histograms (nanoseconds).
    pub histograms: BTreeMap<String, Histogram>,
}

impl TraceReport {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Merge another report into this one (counters add, span stats
    /// add, histograms merge pointwise).
    pub fn merge(&mut self, other: &TraceReport) {
        for (path, stat) in &other.spans {
            self.spans.entry(path.clone()).or_default().merge(stat);
        }
        for (name, n) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += n;
        }
        for (path, h) in &other.histograms {
            self.histograms.entry(path.clone()).or_default().merge(h);
        }
    }

    /// The counter with the largest value.
    ///
    /// **Tie rule (stable contract):** equal values break toward the
    /// lexicographically *first* name, so `report --stats` cells and
    /// anything else keyed on this choice are identical across runs and
    /// across report merges. Implemented by maximizing `(value, Reverse
    /// (name))`: among equal values, the reversed name order makes the
    /// smallest name the maximum.
    pub fn dominant_counter(&self) -> Option<(&str, u64)> {
        self.counters
            .iter()
            .max_by_key(|(name, &value)| (value, std::cmp::Reverse(name.as_str())))
            .map(|(n, &v)| (n.as_str(), v))
    }

    /// The `enumerate.pruned.*` breakdown: `(reason suffix, count)`
    /// pairs in name order, when any attributed prune counter is
    /// present.
    pub fn pruned_breakdown(&self) -> Vec<(&str, u64)> {
        self.counters
            .iter()
            .filter_map(|(name, &n)| {
                name.strip_prefix("enumerate.pruned.").map(|r| (r, n))
            })
            .collect()
    }

    /// Serialize as one JSON object (sorted keys, no whitespace) —
    /// suitable as a JSONL record.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        self.write_json(&mut out);
        out
    }

    /// Append the JSON object form to `out`.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"spans\":{");
        for (i, (path, s)) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_string(out, path);
            let _ = write!(
                out,
                ":{{\"count\":{},\"total_ns\":{},\"steps\":{}}}",
                s.count, s.total_ns, s.steps
            );
        }
        out.push_str("},\"counters\":{");
        for (i, (name, n)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_string(out, name);
            let _ = write!(out, ":{n}");
        }
        out.push_str("},\"histograms\":{");
        for (i, (path, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_string(out, path);
            let _ = write!(
                out,
                ":{{\"count\":{},\"sum_ns\":{},\"min_ns\":{},\"max_ns\":{},\"buckets\":[",
                h.count, h.sum, h.min, h.max
            );
            let mut first = true;
            for (b, &n) in h.buckets.iter().enumerate() {
                if n > 0 {
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    let _ = write!(out, "[{b},{n}]");
                }
            }
            out.push_str("]}");
        }
        out.push_str("}}");
    }

    /// Multi-line human rendering (sorted, aligned), for `--trace=human`.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        if self.is_empty() {
            out.push_str("trace: nothing recorded\n");
            return out;
        }
        if !self.spans.is_empty() {
            out.push_str("spans (path, calls, total wall time, steps):\n");
            let width = self.spans.keys().map(|p| p.len()).max().unwrap_or(0);
            for (path, s) in &self.spans {
                let _ = writeln!(
                    out,
                    "  {path:<width$}  ×{:<8} {:>12}  steps={}",
                    s.count,
                    format_ns(s.total_ns),
                    s.steps
                );
            }
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            let width = self.counters.keys().map(|p| p.len()).max().unwrap_or(0);
            for (name, n) in &self.counters {
                let _ = writeln!(out, "  {name:<width$}  {n}");
            }
        }
        let pruned = self.pruned_breakdown();
        if !pruned.is_empty() {
            let total: u64 = pruned.iter().map(|&(_, n)| n).sum();
            let _ = writeln!(out, "pruned subtrees by reason (total {total}):");
            for (reason, n) in pruned {
                let pct = if total > 0 {
                    n as f64 * 100.0 / total as f64
                } else {
                    0.0
                };
                let _ = writeln!(out, "  {reason:<8}  {n} ({pct:.1}%)");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("per-call latency (min / mean / max):\n");
            let width = self.histograms.keys().map(|p| p.len()).max().unwrap_or(0);
            for (path, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {path:<width$}  {} / {} / {}",
                    format_ns(h.min),
                    format_ns(h.mean()),
                    format_ns(h.max)
                );
            }
        }
        out
    }
}

/// Render nanoseconds with an adaptive unit.
fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn report_of(c: &Collector) -> TraceReport {
    let mut report = TraceReport {
        spans: c
            .spans
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect(),
        counters: c
            .counters
            .iter()
            .map(|(&k, &v)| (k.to_string(), v))
            .collect(),
        histograms: c.histograms.clone(),
    };
    if c.orphan_steps > 0 {
        report
            .counters
            .insert("trace.orphan_steps".to_string(), c.orphan_steps);
    }
    report.merge(&c.absorbed);
    report
}

/// Copy this thread's aggregates into a report without resetting them.
/// Open (unfinished) spans are not included.
pub fn snapshot() -> TraceReport {
    with_collector(|c| report_of(c)).unwrap_or_default()
}

/// Snapshot this thread's aggregates and reset them (open spans stay
/// open and will record into the fresh epoch when they close).
pub fn take() -> TraceReport {
    with_collector(|c| {
        let report = report_of(c);
        c.spans.clear();
        c.counters.clear();
        c.histograms.clear();
        c.orphan_steps = 0;
        c.absorbed = TraceReport::default();
        report
    })
    .unwrap_or_default()
}

/// Discard this thread's aggregates (open spans stay open).
pub fn reset() {
    let _ = take();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_probes_record_nothing() {
        reset();
        let _s = span!("off.span");
        counter!("off.counter", 5);
        add_steps(9);
        drop(_s);
        assert!(snapshot().is_empty());
        assert_eq!(current_span_name(), None);
    }

    #[test]
    fn enablement_is_per_thread_and_guards_restore_it() {
        let _on = scoped();
        assert!(is_enabled());
        let elsewhere = std::thread::spawn(is_enabled).join().unwrap();
        assert!(!elsewhere, "one thread's scoped() must not reach another");
        {
            let _off = Telemetry::default().enter();
            assert!(!is_enabled());
        }
        assert!(is_enabled(), "the guard restores the previous state");
    }

    #[test]
    fn nested_spans_build_paths_and_attribute_steps() {
        let _on = scoped();
        reset();
        {
            let _outer = span!("outer");
            add_steps(2);
            {
                let _inner = span!("inner");
                assert_eq!(current_span_name(), Some("inner"));
                assert_eq!(current_span_path(), "outer/inner");
                add_steps(5);
            }
            add_steps(1);
        }
        let r = take();
        assert_eq!(r.spans["outer"].steps, 3);
        assert_eq!(r.spans["outer/inner"].steps, 5);
        assert_eq!(r.spans["outer"].count, 1);
        assert!(r.spans["outer"].total_ns >= r.spans["outer/inner"].total_ns);
        assert!(r.histograms.contains_key("outer/inner"));
    }

    #[test]
    fn repeated_spans_aggregate() {
        let _on = scoped();
        reset();
        for _ in 0..4 {
            let _s = span!("repeat");
        }
        let r = take();
        assert_eq!(r.spans["repeat"].count, 4);
        assert_eq!(r.histograms["repeat"].count, 4);
    }

    #[test]
    fn panic_unwinds_close_spans_cleanly() {
        let _on = scoped();
        reset();
        let result = std::panic::catch_unwind(|| {
            let _outer = span!("panic.outer");
            let _inner = span!("panic.inner");
            panic!("boom");
        });
        assert!(result.is_err());
        // Both spans were closed by the unwind and the stack is empty.
        assert_eq!(current_span_name(), None);
        assert_eq!(current_span_path(), "");
        let r = take();
        assert_eq!(r.spans["panic.outer"].count, 1);
        assert_eq!(r.spans["panic.outer/panic.inner"].count, 1);
        // A fresh span after the panic nests at the root again.
        let _on2 = scoped();
        let s = span!("after");
        assert_eq!(current_span_path(), "after");
        drop(s);
        let _ = take();
    }

    #[test]
    fn orphan_steps_are_reported() {
        let _on = scoped();
        reset();
        add_steps(11);
        let r = take();
        assert_eq!(r.counters["trace.orphan_steps"], 11);
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 1024] {
            h.record(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1024);
        assert_eq!(h.sum, 1030);
        assert_eq!(h.mean(), 206);
        assert_eq!(h.buckets[0], 1); // 0
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[2], 2); // 2, 3
        assert_eq!(h.buckets[11], 1); // 1024
    }

    #[test]
    fn report_merge_adds_everything() {
        let mut a = TraceReport::default();
        a.counters.insert("c".into(), 2);
        a.spans.insert(
            "s".into(),
            SpanStat {
                count: 1,
                total_ns: 10,
                steps: 3,
            },
        );
        let mut ha = Histogram::default();
        ha.record(10);
        a.histograms.insert("s".into(), ha);

        let mut b = TraceReport::default();
        b.counters.insert("c".into(), 5);
        b.counters.insert("d".into(), 1);
        b.spans.insert(
            "s".into(),
            SpanStat {
                count: 2,
                total_ns: 30,
                steps: 4,
            },
        );
        let mut hb = Histogram::default();
        hb.record(20);
        hb.record(40);
        b.histograms.insert("s".into(), hb);

        a.merge(&b);
        assert_eq!(a.counters["c"], 7);
        assert_eq!(a.counters["d"], 1);
        assert_eq!(
            a.spans["s"],
            SpanStat {
                count: 3,
                total_ns: 40,
                steps: 7
            }
        );
        let h = &a.histograms["s"];
        assert_eq!((h.count, h.min, h.max, h.sum), (3, 10, 40, 70));
    }

    #[test]
    fn dominant_counter_is_deterministic() {
        let mut r = TraceReport::default();
        assert_eq!(r.dominant_counter(), None);
        r.counters.insert("b".into(), 9);
        r.counters.insert("a".into(), 9);
        r.counters.insert("z".into(), 3);
        // Tie on 9 → lexicographically first name.
        assert_eq!(r.dominant_counter(), Some(("a", 9)));
    }

    #[test]
    fn dominant_counter_tie_rule_is_insertion_order_independent() {
        // The documented rule — largest value, ties toward the
        // lexicographically first name — must not depend on how the
        // report was built or merged.
        let names = ["m.zz", "m.aa", "a.zz", "z.aa"];
        for (i, rotate) in names.iter().enumerate() {
            let mut r = TraceReport::default();
            for name in names.iter().cycle().skip(i).take(names.len()) {
                r.counters.insert((*name).into(), 7);
            }
            assert_eq!(
                r.dominant_counter(),
                Some(("a.zz", 7)),
                "rotation starting at {rotate}"
            );
        }
        // An all-zero report still yields a deterministic choice.
        let mut r = TraceReport::default();
        r.counters.insert("b".into(), 0);
        r.counters.insert("a".into(), 0);
        assert_eq!(r.dominant_counter(), Some(("a", 0)));
    }

    #[test]
    fn histogram_bucket_edges_pin_the_65_bucket_contract() {
        // Regression: bucket_of(u64::MAX) must land in bucket 64, so
        // HISTOGRAM_BUCKETS can never silently shrink below 65.
        assert_eq!(HISTOGRAM_BUCKETS, 65);
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX >> 1), 63);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        let mut h = Histogram::default();
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.buckets[64], 1);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, u64::MAX);
    }

    #[test]
    fn histogram_record_and_merge_are_equivalent() {
        // Recording a sample stream into one histogram must equal
        // recording any split of it into two and merging — including
        // the extremes (0, u64::MAX) and an empty side.
        let samples: &[u64] = &[0, 1, 1, 7, 4096, u64::MAX, 3, u64::MAX >> 1];
        let mut whole = Histogram::default();
        for &s in samples {
            whole.record(s);
        }
        for split in 0..=samples.len() {
            let (left, right) = samples.split_at(split);
            let mut a = Histogram::default();
            let mut b = Histogram::default();
            for &s in left {
                a.record(s);
            }
            for &s in right {
                b.record(s);
            }
            a.merge(&b);
            assert_eq!(a, whole, "split at {split}");
        }
    }

    #[test]
    fn json_is_valid_and_sorted() {
        let mut r = TraceReport::default();
        r.counters.insert("zeta".into(), 1);
        r.counters.insert("alpha \"quoted\"".into(), 2);
        r.spans.insert(
            "a/b".into(),
            SpanStat {
                count: 1,
                total_ns: 5,
                steps: 2,
            },
        );
        let mut h = Histogram::default();
        h.record(7);
        r.histograms.insert("a/b".into(), h);
        let line = r.to_json();
        json::validate(&line).expect("valid JSON");
        assert!(line.find("alpha").unwrap() < line.find("zeta").unwrap());
        assert!(line.contains("\"total_ns\":5"));
        assert!(line.contains("\"buckets\":[[3,1]]"));
    }

    #[test]
    fn take_resets_but_snapshot_does_not() {
        let _on = scoped();
        reset();
        counter!("x");
        assert_eq!(snapshot().counters["x"], 1);
        assert_eq!(snapshot().counters["x"], 1);
        assert_eq!(take().counters["x"], 1);
        assert!(take().is_empty());
    }

    #[test]
    fn absorbed_worker_reports_merge_into_the_thread_report() {
        let _on = scoped();
        reset();
        counter!("local.counter", 1);
        // Simulate a worker thread's report (String-keyed) being folded
        // into the coordinator's aggregates.
        let worker = std::thread::spawn(|| {
            let _on = scoped();
            {
                let _s = span!("worker.span");
                counter!("local.counter", 2);
                add_steps(4);
            }
            take()
        })
        .join()
        .unwrap();
        absorb(&worker);
        let r = take();
        assert_eq!(r.counters["local.counter"], 3);
        assert_eq!(r.spans["worker.span"].steps, 4);
        // `take` cleared the absorbed state along with everything else.
        assert!(take().is_empty());
    }

    #[test]
    fn absorb_is_a_noop_while_disabled() {
        reset();
        let mut foreign = TraceReport::default();
        foreign.counters.insert("ghost".into(), 7);
        absorb(&foreign);
        assert!(snapshot().is_empty());
    }

    #[test]
    fn human_rendering_mentions_everything() {
        let _on = scoped();
        reset();
        {
            let _s = span!("render.me");
            counter!("render.counter", 42);
        }
        let text = take().render_human();
        assert!(text.contains("render.me"));
        assert!(text.contains("render.counter"));
        assert!(text.contains("42"));
        assert!(TraceReport::default().render_human().contains("nothing recorded"));
    }

    #[test]
    fn human_rendering_breaks_down_prune_reasons() {
        let mut r = TraceReport::default();
        r.counters.insert("enumerate.pruned.cost".into(), 30);
        r.counters.insert("enumerate.pruned.compat".into(), 10);
        r.counters.insert("enumerate.nodes".into(), 100);
        assert_eq!(
            r.pruned_breakdown(),
            vec![("compat", 10), ("cost", 30)]
        );
        let text = r.render_human();
        assert!(text.contains("pruned subtrees by reason (total 40)"), "{text}");
        assert!(text.contains("cost"), "{text}");
        assert!(text.contains("75.0%"), "{text}");
        // No breakdown block without attributed prune counters.
        let mut plain = TraceReport::default();
        plain.counters.insert("enumerate.nodes".into(), 5);
        assert!(!plain.render_human().contains("pruned subtrees"));
    }

    /// Golden percentiles on known distributions: the estimate is the
    /// lower bound of the log₂ bucket the quantile rank falls in.
    #[test]
    fn percentile_goldens_on_known_distributions() {
        // Empty histogram: everything is 0.
        let empty = Histogram::default();
        assert_eq!(empty.percentile(0.5), 0);
        assert_eq!(empty.percentile(0.99), 0);

        // Uniform 1..=1000. Buckets 1..=9 hold 1+2+…+256 = 511 samples
        // (values 1..=511), so rank 500 (p50) lands in bucket 9
        // (floor 256) and rank 990 (p99) in bucket 10 (floor 512).
        let mut uniform = Histogram::default();
        for v in 1..=1000u64 {
            uniform.record(v);
        }
        assert_eq!(uniform.percentile(0.50), 256);
        assert_eq!(uniform.percentile(0.99), 512);

        // A constant distribution collapses every percentile onto the
        // one occupied bucket's floor: 7 has bit length 3, floor 4.
        let mut constant = Histogram::default();
        for _ in 0..1000 {
            constant.record(7);
        }
        assert_eq!(constant.percentile(0.50), 4);
        assert_eq!(constant.percentile(0.99), 4);

        // Bimodal: 99 fast samples, 1 slow one — p50 stays in the fast
        // bucket, p99 must not (the rank-99 sample is the 99th fast
        // one) while p100 reaches the slow bucket.
        let mut bimodal = Histogram::default();
        for _ in 0..99 {
            bimodal.record(100); // bucket 7, floor 64
        }
        bimodal.record(1_000_000); // bucket 20, floor 524288
        assert_eq!(bimodal.percentile(0.50), 64);
        assert_eq!(bimodal.percentile(0.99), 64);
        assert_eq!(bimodal.percentile(1.0), 524_288);
    }

    /// Merge-then-percentile must equal percentile-of-merged: the
    /// estimate depends only on bucket counts, which merge exactly.
    #[test]
    fn merge_then_percentile_equals_percentile_of_merged() {
        let samples: Vec<u64> = (0..500u64).map(|i| (i * i * 37 + i) % 100_000).collect();
        let mut whole = Histogram::default();
        let mut left = Histogram::default();
        let mut right = Histogram::default();
        for (i, &v) in samples.iter().enumerate() {
            whole.record(v);
            if i % 3 == 0 {
                left.record(v);
            } else {
                right.record(v);
            }
        }
        let mut merged = Histogram::default();
        merged.merge(&left);
        merged.merge(&right);
        assert_eq!(merged, whole);
        for q in [0.0, 0.25, 0.50, 0.90, 0.99, 1.0] {
            assert_eq!(merged.percentile(q), whole.percentile(q), "q={q}");
        }
    }

    /// The machine-readable registry and the doc-comment table are the
    /// same contract: every `| \`name\` | layer | …` row in the crate
    /// docs must appear in `COUNTER_REGISTRY`, in order, and vice
    /// versa — so `pkgrec chaos-sites` never drifts from the docs.
    #[test]
    fn counter_registry_matches_the_doc_table() {
        let source = include_str!("lib.rs");
        let doc_rows: Vec<(String, String)> = source
            .lines()
            .filter_map(|line| {
                let row = line.strip_prefix("//! | `")?;
                let (name, rest) = row.split_once("` | ")?;
                let (layer, _) = rest.split_once(" | ")?;
                Some((name.to_string(), layer.to_string()))
            })
            .collect();
        let registry_rows: Vec<(String, String)> = COUNTER_REGISTRY
            .iter()
            .map(|c| (c.name.to_string(), c.layer.to_string()))
            .collect();
        assert_eq!(doc_rows, registry_rows);
        // Names are unique across counters and explicit fault sites.
        let mut all: Vec<&str> = COUNTER_REGISTRY
            .iter()
            .chain(EXTRA_FAULT_SITES)
            .map(|c| c.name)
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "duplicate registry names");
    }
}
