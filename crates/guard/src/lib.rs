//! Resource budgets and anytime outcomes for the solver stack.
//!
//! Every search loop in this workspace — DPLL branching, QBF
//! quantifier expansion, model counting, Datalog fixpoints, FO
//! active-domain enumeration, package-space DFS — is exponential in
//! the worst case (the paper proves most of these problems
//! NP-/Σ₂ᵖ-/PSPACE-hard). A [`Budget`] bounds such a loop by three
//! independent resources:
//!
//! * **steps** — a deterministic count of basic search operations,
//! * **deadline** — a wall-clock instant after which work must stop,
//! * **cancellation** — a flag another thread can raise at any time.
//!
//! A budget is a cheap `Copy` description; to enforce it, a solver
//! materializes a [`Meter`] and calls [`Meter::tick`] once per basic
//! operation. `tick` is amortized: the step counter moves every call,
//! but the clock and the cancellation flag are only consulted every
//! [`CHECK_INTERVAL`] steps, so metering adds a few nanoseconds per
//! node even in hot loops.
//!
//! Metering also feeds the observability layer: every `tick` reports
//! its step count to `pkgrec_trace`, so when tracing is enabled the
//! innermost open span accumulates the search steps spent inside it —
//! one counter, not two parallel ones. An interruption is tagged with
//! the span that tripped it ([`Interrupted::span`]) and bumps the
//! `guard.interrupted` trace counter. When the flight recorder is on,
//! the interruption is also appended to the tripping thread's event
//! ring (`pkgrec_trace::flight`) — the guard carries the recorder
//! handle, so every cut-off recording ends with the exact interruption
//! that caused it, with no cooperation needed from the solver loop.
//!
//! When a resource runs out, `tick` returns an [`Interrupted`] error
//! naming the exhausted [`Resource`] and the steps spent. Decision
//! procedures propagate it; optimization procedures instead degrade
//! gracefully by returning an [`Outcome`] whose `exact` flag records
//! whether the search finished or was cut off with a best-so-far
//! value (the *anytime* contract).
//!
//! ```
//! use pkgrec_guard::{Budget, Resource};
//!
//! let meter = Budget::with_steps(10).meter();
//! for _ in 0..10 {
//!     meter.tick().unwrap();
//! }
//! let err = meter.tick().unwrap_err();
//! assert_eq!(err.resource, Resource::Steps { limit: 10 });
//! assert_eq!(err.steps, 11); // the interrupting tick is counted too
//! ```

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// How many steps pass between wall-clock / cancellation checks.
///
/// Step-limit accounting is exact; only the *expensive* checks are
/// amortized, so a deadline or a cancellation is noticed at most this
/// many steps late.
pub const CHECK_INTERVAL: u64 = 1024;

/// A cancellation flag shared between the caller and a running solver.
///
/// Cloning is cheap (an `Arc` bump); raising the flag from any clone
/// interrupts every meter built from a budget carrying it.
#[derive(Debug, Clone, Default)]
pub struct CancelFlag(Arc<AtomicBool>);

impl CancelFlag {
    /// A fresh, un-raised flag.
    pub fn new() -> Self {
        CancelFlag::default()
    }

    /// Request cancellation; running solvers notice within
    /// [`CHECK_INTERVAL`] steps.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// A declarative bound on how much work a solver call may do.
///
/// The default budget is unbounded — every limit is optional and they
/// compose: the first resource to run out interrupts the search.
///
/// # Per-meter timeout semantics
///
/// A *timeout* is a duration, resolved to a concrete deadline when a
/// [`Meter`] (or [`SharedMeter`]) is materialized — **not** when the
/// budget is built. Every meter therefore gets the full window: a
/// solver that materializes one meter per phase (e.g. the FRP oracle
/// loop, which is documented as "budget applies per oracle call") gives
/// each phase the whole timeout, and time spent between building the
/// budget and starting the solve does not count against it. For a hard
/// wall-clock cut-off shared by every meter, use the absolute
/// [`Budget::deadline`] instead; when both are set, the earlier instant
/// wins.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    /// Maximum number of basic search steps (`None` = unlimited).
    pub steps: Option<u64>,
    /// Absolute wall-clock instant after which the search must stop
    /// (shared by every meter built from this budget).
    pub deadline: Option<Instant>,
    /// Wall-clock allowance resolved to a deadline *per meter*, at
    /// [`Budget::meter`] time.
    pub timeout: Option<Duration>,
    /// Cooperative cancellation flag checked during the search.
    pub cancel: Option<CancelFlag>,
}

impl Budget {
    /// The unbounded budget: never interrupts. `const` so option
    /// structs embedding a budget stay const-constructible.
    pub const fn unlimited() -> Budget {
        Budget {
            steps: None,
            deadline: None,
            timeout: None,
            cancel: None,
        }
    }

    /// A budget bounded only by a step count.
    pub fn with_steps(steps: u64) -> Budget {
        Budget {
            steps: Some(steps),
            ..Budget::default()
        }
    }

    /// A budget bounded only by a wall-clock duration, counted from the
    /// moment a meter is materialized (see *Per-meter timeout
    /// semantics* on [`Budget`]).
    pub fn with_timeout(timeout: Duration) -> Budget {
        Budget {
            timeout: Some(timeout),
            ..Budget::default()
        }
    }

    /// Add / replace the step bound.
    pub fn steps(mut self, steps: u64) -> Budget {
        self.steps = Some(steps);
        self
    }

    /// Add / replace the per-meter wall-clock allowance (resolved to a
    /// deadline at [`Budget::meter`] time, not here).
    pub fn timeout(mut self, timeout: Duration) -> Budget {
        self.timeout = Some(timeout);
        self
    }

    /// Add / replace the deadline as an absolute instant, shared by
    /// every meter built from this budget.
    pub fn deadline(mut self, deadline: Instant) -> Budget {
        self.deadline = Some(deadline);
        self
    }

    /// Attach a cancellation flag.
    pub fn cancellable(mut self, flag: &CancelFlag) -> Budget {
        self.cancel = Some(flag.clone());
        self
    }

    /// Whether this budget can never interrupt.
    pub fn is_unlimited(&self) -> bool {
        self.steps.is_none()
            && self.deadline.is_none()
            && self.timeout.is_none()
            && self.cancel.is_none()
    }

    /// The wall-clock cut-off a meter materialized *now* must honor:
    /// the earlier of the absolute deadline and `now + timeout`.
    fn effective_deadline(&self) -> Option<Instant> {
        let from_timeout = self.timeout.map(|t| Instant::now() + t);
        match (self.deadline, from_timeout) {
            (Some(d), Some(t)) => Some(d.min(t)),
            (d, t) => d.or(t),
        }
    }

    /// Materialize a meter that enforces this budget. The timeout (if
    /// any) starts counting here.
    pub fn meter(&self) -> Meter {
        Meter {
            budget: self.clone(),
            deadline: self.effective_deadline(),
            spent: Cell::new(0),
            next_check: Cell::new(CHECK_INTERVAL),
            observed: true,
        }
    }

    /// A meter for a work cap internal to a solver step, not the
    /// caller's budget: it enforces the same limits, but its steps are
    /// not added to the open trace span, and running out is no
    /// interruption of the search (no `guard.interrupted`, no flight
    /// event). The caller handles the error itself.
    pub fn unobserved_meter(&self) -> Meter {
        Meter {
            observed: false,
            ..self.meter()
        }
    }

    /// Materialize a `Sync` meter enforcing this budget *jointly*
    /// across cooperating worker threads (see [`SharedMeter`]). As with
    /// [`Budget::meter`], the timeout starts counting here.
    pub fn shared_meter(&self) -> SharedMeter {
        SharedMeter {
            steps_limit: self.steps,
            deadline: self.effective_deadline(),
            cancel: self.cancel.clone(),
            spent: AtomicU64::new(0),
            stopped: AtomicBool::new(false),
            first: OnceLock::new(),
        }
    }
}

impl From<u64> for Budget {
    /// Back-compat with the old bare `node_limit`: a plain number is a
    /// step bound.
    fn from(steps: u64) -> Budget {
        Budget::with_steps(steps)
    }
}

/// The resource that ran out when a search was interrupted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// The step budget was spent.
    Steps {
        /// The configured limit.
        limit: u64,
    },
    /// The wall-clock deadline passed.
    Deadline,
    /// The cancellation flag was raised.
    Cancelled,
}

impl Resource {
    /// Stable short label used in flight-recorder JSONL records.
    pub fn label(self) -> &'static str {
        match self {
            Resource::Steps { .. } => "steps",
            Resource::Deadline => "deadline",
            Resource::Cancelled => "cancelled",
        }
    }
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Resource::Steps { limit } => write!(f, "step limit {limit}"),
            Resource::Deadline => write!(f, "deadline"),
            Resource::Cancelled => write!(f, "cancellation"),
        }
    }
}

/// A search was cut off before finishing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interrupted {
    /// Which resource ran out.
    pub resource: Resource,
    /// Steps spent when the interruption was noticed.
    pub steps: u64,
    /// The innermost `pkgrec_trace` span open when the budget tripped
    /// (`None` when tracing is disabled or no span was open). Names
    /// *where* the search was cut off, e.g. `enumerate.dfs`.
    pub span: Option<&'static str>,
}

impl Interrupted {
    /// Build an interruption record without span attribution (the
    /// span is captured automatically by [`Meter`]; this constructor
    /// serves tests and synthetic outcomes).
    pub fn new(resource: Resource, steps: u64) -> Interrupted {
        Interrupted {
            resource,
            steps,
            span: None,
        }
    }
}

/// Append an interruption to the current thread's flight-recorder ring
/// (no-op while recording is disabled). Called on *every* path that
/// surfaces an interruption to a solver — including workers observing
/// another worker's trip — so whichever thread's recording survives the
/// merge, its tail names the cut.
fn flight_interrupted(cut: &Interrupted) {
    pkgrec_trace::flight::record(pkgrec_trace::flight::FlightEvent::Interrupted {
        resource: cut.resource.label(),
        steps: cut.steps,
    });
}

impl fmt::Display for Interrupted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "search interrupted by {} after {} steps",
            self.resource, self.steps
        )?;
        if let Some(span) = self.span {
            write!(f, " in {span}")?;
        }
        Ok(())
    }
}

impl std::error::Error for Interrupted {}

/// Enforces a [`Budget`] inside a solver call.
///
/// Interior mutability (`Cell`) lets hot loops tick through a shared
/// reference, so evaluation contexts stay `Copy`-friendly and a single
/// meter can be threaded through recursion without `&mut` plumbing.
#[derive(Debug)]
pub struct Meter {
    budget: Budget,
    /// Wall-clock cut-off resolved when this meter was materialized
    /// (min of the budget's absolute deadline and its per-meter
    /// timeout counted from materialization).
    deadline: Option<Instant>,
    spent: Cell<u64>,
    next_check: Cell<u64>,
    /// Whether steps and interruptions are reported to `pkgrec_trace`
    /// (see [`Budget::unobserved_meter`]).
    observed: bool,
}

impl Meter {
    /// An unbounded meter (still counts steps for statistics).
    pub fn unlimited() -> Meter {
        Budget::unlimited().meter()
    }

    /// Steps spent so far.
    pub fn spent(&self) -> u64 {
        self.spent.get()
    }

    /// Count one basic operation, interrupting if a resource ran out.
    ///
    /// The step bound is enforced exactly; deadline and cancellation
    /// are polled every [`CHECK_INTERVAL`] steps.
    #[inline]
    pub fn tick(&self) -> Result<(), Interrupted> {
        let spent = self.spent.get() + 1;
        self.spent.set(spent);
        if self.observed {
            pkgrec_trace::add_steps(1);
        }
        if let Some(limit) = self.budget.steps {
            if spent > limit {
                return Err(self.interrupted(Resource::Steps { limit }));
            }
        }
        if spent >= self.next_check.get() {
            self.next_check.set(spent + CHECK_INTERVAL);
            self.check_slow()
        } else {
            Ok(())
        }
    }

    /// Count `n` basic operations at once (bulk attribution for loops
    /// whose body is itself cheap, e.g. scanning a relation).
    #[inline]
    pub fn tick_n(&self, n: u64) -> Result<(), Interrupted> {
        let spent = self.spent.get() + n;
        self.spent.set(spent);
        if self.observed {
            pkgrec_trace::add_steps(n);
        }
        if let Some(limit) = self.budget.steps {
            if spent > limit {
                return Err(self.interrupted(Resource::Steps { limit }));
            }
        }
        if spent >= self.next_check.get() {
            self.next_check.set(spent + CHECK_INTERVAL);
            self.check_slow()
        } else {
            Ok(())
        }
    }

    /// Poll deadline and cancellation immediately, bypassing the
    /// amortization window. Useful at phase boundaries.
    pub fn check_now(&self) -> Result<(), Interrupted> {
        if let Some(limit) = self.budget.steps {
            if self.spent.get() > limit {
                return Err(self.interrupted(Resource::Steps { limit }));
            }
        }
        self.check_slow()
    }

    #[cold]
    fn check_slow(&self) -> Result<(), Interrupted> {
        if let Some(flag) = &self.budget.cancel {
            if flag.is_cancelled() {
                return Err(self.interrupted(Resource::Cancelled));
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(self.interrupted(Resource::Deadline));
            }
        }
        Ok(())
    }

    fn interrupted(&self, resource: Resource) -> Interrupted {
        let cut = Interrupted {
            resource,
            steps: self.spent.get(),
            span: pkgrec_trace::current_span_name(),
        };
        if self.observed {
            pkgrec_trace::counter!("guard.interrupted");
            flight_interrupted(&cut);
        }
        cut
    }
}

/// A `Sync` meter enforcing one [`Budget`] **jointly** across
/// cooperating worker threads — the parallel package-space search
/// charges every worker's steps against a single shared counter, so a
/// step limit means the same total amount of work whether the search
/// runs on one thread or eight.
///
/// Under a step limit, step accounting is an `AtomicU64` moved on every
/// tick, exact across workers: at most `limit` ticks ever succeed
/// globally. Without one, nothing needs the global count per tick, so
/// each worker counts locally and publishes its count at its slow check
/// and when its handle drops: no worker writes the shared line per node,
/// and [`spent`](SharedMeter::spent) lags by less than
/// [`CHECK_INTERVAL`] steps per live worker. The expensive checks (deadline,
/// cancellation, and the shared stop latch) are amortized per worker
/// via [`WorkerMeter`], so an interruption observed by one worker stops
/// the others within [`CHECK_INTERVAL`] of their own steps. The first
/// interruption is latched and every later worker reports that same
/// record, giving the coordinator one consistent cut to surface.
#[derive(Debug)]
pub struct SharedMeter {
    steps_limit: Option<u64>,
    deadline: Option<Instant>,
    cancel: Option<CancelFlag>,
    spent: AtomicU64,
    stopped: AtomicBool,
    first: OnceLock<Interrupted>,
}

impl SharedMeter {
    /// Total steps spent across all workers so far (exact once every
    /// worker handle has dropped; see the type docs for the lag before).
    pub fn spent(&self) -> u64 {
        self.spent.load(Ordering::Relaxed)
    }

    /// Whether some worker already tripped the budget (workers consult
    /// this between units of work to stop early).
    pub fn is_stopped(&self) -> bool {
        self.stopped.load(Ordering::Acquire)
    }

    /// The latched first interruption, once one worker tripped.
    pub fn interruption(&self) -> Option<Interrupted> {
        self.first.get().copied()
    }

    /// A per-worker handle. Each worker thread gets its own (the handle
    /// amortizes the slow checks with thread-local state and is not
    /// `Sync`).
    pub fn worker(&self) -> WorkerMeter<'_> {
        WorkerMeter {
            shared: self,
            until_check: Cell::new(CHECK_INTERVAL),
            unpublished: Cell::new(0),
        }
    }

    /// Latch an interruption and raise the stop flag; returns the
    /// winning (first-latched) record so racing workers agree. Every
    /// tripping worker records the cut into its *own* flight ring
    /// (only the winner bumps the `guard.interrupted` counter): the
    /// merged recording keeps exactly the floor unit's events, and that
    /// unit may belong to a worker that lost the latch race.
    fn trip(&self, resource: Resource, spent: u64) -> Interrupted {
        let mut won = false;
        let cut = *self.first.get_or_init(|| {
            won = true;
            Interrupted {
                resource,
                steps: spent,
                span: pkgrec_trace::current_span_name(),
            }
        });
        if won {
            pkgrec_trace::counter!("guard.interrupted");
        }
        flight_interrupted(&cut);
        self.stopped.store(true, Ordering::Release);
        cut
    }
}

/// One worker thread's handle on a [`SharedMeter`]: under a step limit
/// ticks move the shared counter, otherwise they are counted here and
/// published at the slow check and on drop; the slow checks stay
/// amortized with per-worker state.
#[derive(Debug)]
pub struct WorkerMeter<'a> {
    shared: &'a SharedMeter,
    /// This worker's ticks remaining until the next slow check.
    until_check: Cell<u64>,
    /// Ticks not yet added to the shared counter (always 0 under a step
    /// limit, which charges the counter per tick).
    unpublished: Cell<u64>,
}

impl WorkerMeter<'_> {
    /// Count one basic operation against the shared budget. The step
    /// bound is exact globally; deadline, cancellation and the stop
    /// latch are polled every [`CHECK_INTERVAL`] of *this worker's*
    /// steps.
    #[inline]
    pub fn tick(&self) -> Result<(), Interrupted> {
        pkgrec_trace::add_steps(1);
        let charged = match self.shared.steps_limit {
            Some(limit) => {
                let spent = self.shared.spent.fetch_add(1, Ordering::Relaxed) + 1;
                if spent > limit {
                    return Err(self.shared.trip(Resource::Steps { limit }, spent));
                }
                Some(spent)
            }
            None => {
                self.unpublished.set(self.unpublished.get() + 1);
                None
            }
        };
        let left = self.until_check.get();
        if left <= 1 {
            self.until_check.set(CHECK_INTERVAL);
            self.check_slow(charged.unwrap_or_else(|| self.publish()))
        } else {
            self.until_check.set(left - 1);
            Ok(())
        }
    }

    /// Add this worker's unpublished ticks to the shared counter and
    /// return the shared total.
    fn publish(&self) -> u64 {
        match self.unpublished.replace(0) {
            0 => self.shared.spent(),
            n => self.shared.spent.fetch_add(n, Ordering::Relaxed) + n,
        }
    }

    /// Poll every resource immediately, bypassing the amortization
    /// window.
    pub fn check_now(&self) -> Result<(), Interrupted> {
        let spent = self.publish();
        if let Some(limit) = self.shared.steps_limit {
            if spent > limit {
                return Err(self.shared.trip(Resource::Steps { limit }, spent));
            }
        }
        self.check_slow(spent)
    }

    #[cold]
    fn check_slow(&self, spent: u64) -> Result<(), Interrupted> {
        if self.shared.is_stopped() {
            // Another worker tripped first; report its record — and
            // append it to *this* thread's flight ring, since this
            // worker's current unit may be the one the merge keeps.
            let cut = self
                .shared
                .interruption()
                .unwrap_or(Interrupted::new(Resource::Cancelled, spent));
            flight_interrupted(&cut);
            return Err(cut);
        }
        if let Some(flag) = &self.shared.cancel {
            if flag.is_cancelled() {
                return Err(self.shared.trip(Resource::Cancelled, spent));
            }
        }
        if let Some(deadline) = self.shared.deadline {
            if Instant::now() >= deadline {
                return Err(self.shared.trip(Resource::Deadline, spent));
            }
        }
        Ok(())
    }
}

impl Drop for WorkerMeter<'_> {
    fn drop(&mut self) {
        self.publish();
    }
}

/// Which engine produced an [`Outcome`].
///
/// The marker travels with the outcome so every downstream rendering —
/// CLI qualifiers, serve JSON, access-log labels — can distinguish a
/// certified exact answer from an approximate one without re-deriving
/// it from context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Method {
    /// The exhaustive engine: `exact: true` means certified.
    #[default]
    Exact,
    /// The SketchRefine approximate engine: results are *never*
    /// certified optimal, only verified feasible. An outcome carrying
    /// this marker always has `exact: false` — the only constructors
    /// that set it ([`Outcome::approximate`],
    /// [`Outcome::approximate_interrupted`]) hard-code that.
    Sketch,
}

impl Method {
    /// Stable short label used in JSON renderings (`"exact"` /
    /// `"sketch"`).
    pub fn label(self) -> &'static str {
        match self {
            Method::Exact => "exact",
            Method::Sketch => "sketch",
        }
    }
}

/// The result of an anytime computation: a value plus whether the
/// search ran to completion.
///
/// When `exact` is `false`, `value` is the best answer found before
/// the budget ran out and `interrupted` records why the search
/// stopped; the true optimum may be better. Outcomes from the
/// approximate engine ([`Method::Sketch`]) are `exact: false` by
/// construction even when they finished under budget: feasibility is
/// verified, optimality is not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome<T, S> {
    /// The (possibly partial) answer.
    pub value: T,
    /// Whether the search finished *and* certified its answer; `false`
    /// means best-so-far (budget cut) or approximate (sketch engine).
    pub exact: bool,
    /// Why the search stopped early, when it did.
    pub interrupted: Option<Interrupted>,
    /// Which engine produced the value.
    pub method: Method,
    /// Search statistics (layer-specific).
    pub stats: S,
}

impl<T, S> Outcome<T, S> {
    /// An exact, completed outcome.
    pub fn exact(value: T, stats: S) -> Self {
        Outcome {
            value,
            exact: true,
            interrupted: None,
            method: Method::Exact,
            stats,
        }
    }

    /// A partial (anytime) outcome cut off by `interrupted`.
    pub fn partial(value: T, interrupted: Interrupted, stats: S) -> Self {
        Outcome {
            value,
            exact: false,
            interrupted: Some(interrupted),
            method: Method::Exact,
            stats,
        }
    }

    /// An approximate-engine outcome that ran to completion. `exact` is
    /// hard-coded `false`: this constructor (and its interrupted
    /// sibling) is the *only* way to build a [`Method::Sketch`] outcome,
    /// so the approximate engine cannot claim certification even by
    /// accident.
    pub fn approximate(value: T, stats: S) -> Self {
        Outcome {
            value,
            exact: false,
            interrupted: None,
            method: Method::Sketch,
            stats,
        }
    }

    /// An approximate-engine outcome additionally cut off by the
    /// resource budget mid-refinement.
    pub fn approximate_interrupted(value: T, interrupted: Interrupted, stats: S) -> Self {
        Outcome {
            value,
            exact: false,
            interrupted: Some(interrupted),
            method: Method::Sketch,
            stats,
        }
    }

    /// Map the value, preserving exactness, method and stats.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Outcome<U, S> {
        Outcome {
            value: f(self.value),
            exact: self.exact,
            interrupted: self.interrupted,
            method: self.method,
            stats: self.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_interrupts() {
        let m = Meter::unlimited();
        for _ in 0..10_000 {
            m.tick().unwrap();
        }
        assert_eq!(m.spent(), 10_000);
    }

    #[test]
    fn step_limit_is_exact() {
        let m = Budget::with_steps(5).meter();
        for _ in 0..5 {
            m.tick().unwrap();
        }
        let err = m.tick().unwrap_err();
        assert_eq!(err.resource, Resource::Steps { limit: 5 });
        assert_eq!(err.steps, 6);
        // Further ticks keep failing.
        assert!(m.tick().is_err());
    }

    #[test]
    fn tick_n_bulk_counts() {
        let m = Budget::with_steps(100).meter();
        m.tick_n(60).unwrap();
        m.tick_n(40).unwrap();
        assert!(m.tick_n(1).is_err());
    }

    #[test]
    fn deadline_interrupts_within_interval() {
        let m = Budget::with_timeout(Duration::from_millis(0)).meter();
        let mut result = Ok(());
        for _ in 0..=CHECK_INTERVAL {
            result = m.tick();
            if result.is_err() {
                break;
            }
        }
        let err = result.unwrap_err();
        assert_eq!(err.resource, Resource::Deadline);
    }

    #[test]
    fn expired_deadline_caught_by_check_now() {
        let m = Budget::with_timeout(Duration::from_millis(0)).meter();
        assert_eq!(m.check_now().unwrap_err().resource, Resource::Deadline);
    }

    #[test]
    fn cancellation_noticed() {
        let flag = CancelFlag::new();
        let m = Budget::unlimited().cancellable(&flag).meter();
        m.tick().unwrap();
        flag.cancel();
        let mut result = Ok(());
        for _ in 0..=CHECK_INTERVAL {
            result = m.tick();
            if result.is_err() {
                break;
            }
        }
        assert_eq!(result.unwrap_err().resource, Resource::Cancelled);
        // The flag is shared: clones observe the raise too.
        assert!(flag.clone().is_cancelled());
    }

    #[test]
    fn timeout_window_starts_at_meter_not_at_budget_construction() {
        // Regression: `with_timeout` used to resolve `now + timeout`
        // when the *budget* was built, so setup time (here simulated by
        // sleeping) silently ate the search's allowance.
        let budget = Budget::with_timeout(Duration::from_millis(40));
        std::thread::sleep(Duration::from_millis(60));
        let m = budget.meter();
        assert!(
            m.check_now().is_ok(),
            "the timeout window must start when the meter is materialized"
        );
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(m.check_now().unwrap_err().resource, Resource::Deadline);
    }

    #[test]
    fn each_meter_gets_the_full_timeout_window() {
        // The per-oracle-call contract: successive meters from one
        // budget each get the whole allowance.
        let budget = Budget::with_timeout(Duration::from_millis(30));
        for _ in 0..3 {
            std::thread::sleep(Duration::from_millis(15));
            assert!(budget.meter().check_now().is_ok());
        }
    }

    #[test]
    fn absolute_deadline_is_shared_and_wins_over_timeout() {
        let budget = Budget::unlimited()
            .timeout(Duration::from_secs(3600))
            .deadline(Instant::now());
        assert_eq!(
            budget.meter().check_now().unwrap_err().resource,
            Resource::Deadline
        );
        assert!(!budget.is_unlimited());
        assert!(!Budget::with_timeout(Duration::from_secs(1)).is_unlimited());
    }

    #[test]
    fn shared_meter_enforces_one_step_budget_across_workers() {
        let shared = Budget::with_steps(100).shared_meter();
        let ok = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let w = shared.worker();
                    while w.tick().is_ok() {
                        ok.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        // Exactly `limit` ticks succeed globally, no matter the racing.
        assert_eq!(ok.load(Ordering::Relaxed), 100);
        assert!(shared.is_stopped());
        let cut = shared.interruption().expect("tripped");
        assert_eq!(cut.resource, Resource::Steps { limit: 100 });
    }

    #[test]
    fn shared_meter_latches_the_first_interruption_for_all_workers() {
        let shared = Budget::with_steps(5).shared_meter();
        let w1 = shared.worker();
        for _ in 0..5 {
            w1.tick().unwrap();
        }
        let first = w1.tick().unwrap_err();
        // A different worker that never exceeded anything itself still
        // observes the stop latch and reports the same record.
        let w2 = shared.worker();
        assert_eq!(w2.check_now().unwrap_err(), first);
        assert_eq!(shared.interruption(), Some(first));
    }

    #[test]
    fn shared_meter_sees_cancellation() {
        let flag = CancelFlag::new();
        let shared = Budget::unlimited().cancellable(&flag).shared_meter();
        let w = shared.worker();
        w.tick().unwrap();
        flag.cancel();
        assert_eq!(w.check_now().unwrap_err().resource, Resource::Cancelled);
        assert!(shared.is_stopped());
    }

    #[test]
    fn worker_ticks_without_a_step_limit_are_published_by_drop() {
        for budget in [
            Budget::unlimited(),
            Budget::with_timeout(Duration::from_secs(3600)),
        ] {
            let shared = budget.shared_meter();
            let ok = std::sync::atomic::AtomicU64::new(0);
            std::thread::scope(|s| {
                for t in 0..4u64 {
                    let (shared, ok) = (&shared, &ok);
                    s.spawn(move || {
                        let w = shared.worker();
                        // Not a multiple of the check interval, so some
                        // ticks are still unpublished at the drop.
                        for _ in 0..3 * CHECK_INTERVAL + 101 * t + 7 {
                            w.tick().unwrap();
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                }
            });
            assert_eq!(shared.spent(), ok.load(Ordering::Relaxed));
            assert!(!shared.is_stopped());
        }
    }

    #[test]
    fn worker_without_a_step_limit_latches_a_cancel_within_the_interval() {
        let flag = CancelFlag::new();
        let shared = Budget::unlimited().cancellable(&flag).shared_meter();
        let w = shared.worker();
        for _ in 0..100 {
            w.tick().unwrap();
        }
        flag.cancel();
        let mut ticks = 100;
        let cut = loop {
            ticks += 1;
            assert!(
                ticks <= CHECK_INTERVAL,
                "cancel unnoticed after {ticks} ticks"
            );
            if let Err(cut) = w.tick() {
                break cut;
            }
        };
        assert_eq!(cut.resource, Resource::Cancelled);
        // The slow check published every tick before reading the count.
        assert_eq!(cut.steps, ticks);
        assert!(shared.is_stopped());
        assert_eq!(shared.interruption(), Some(cut));
        assert_eq!(shared.worker().check_now().unwrap_err(), cut);
    }

    #[test]
    fn from_u64_is_step_bound() {
        let b: Budget = 42u64.into();
        assert_eq!(b.steps, Some(42));
        assert!(b.deadline.is_none());
    }

    #[test]
    fn builders_compose() {
        let flag = CancelFlag::new();
        let b = Budget::unlimited()
            .steps(7)
            .timeout(Duration::from_secs(3600))
            .cancellable(&flag);
        assert!(!b.is_unlimited());
        let m = b.meter();
        for _ in 0..7 {
            m.tick().unwrap();
        }
        assert_eq!(
            m.tick().unwrap_err().resource,
            Resource::Steps { limit: 7 }
        );
    }

    #[test]
    fn outcome_constructors() {
        let o = Outcome::exact(3, ());
        assert!(o.exact && o.interrupted.is_none());
        assert_eq!(o.method, Method::Exact);
        let cut = Interrupted::new(Resource::Deadline, 9);
        let p = Outcome::partial(vec![1], cut, ()).map(|v| v.len());
        assert!(!p.exact);
        assert_eq!(p.value, 1);
        assert_eq!(p.interrupted, Some(cut));
        assert_eq!(p.method, Method::Exact);
    }

    #[test]
    fn approximate_outcomes_are_never_exact() {
        // The exactness-labeling contract: both sketch constructors
        // hard-code `exact: false` and the method marker, and `map`
        // preserves them — there is no path to a `Sketch`+`exact` pair.
        let a = Outcome::approximate(7, ()).map(|v| v + 1);
        assert!(!a.exact);
        assert_eq!(a.method, Method::Sketch);
        assert!(a.interrupted.is_none());
        let cut = Interrupted::new(Resource::Deadline, 5);
        let b = Outcome::approximate_interrupted(7, cut, ());
        assert!(!b.exact);
        assert_eq!(b.method, Method::Sketch);
        assert_eq!(b.interrupted, Some(cut));
        assert_eq!(Method::Sketch.label(), "sketch");
        assert_eq!(Method::Exact.label(), "exact");
        assert_eq!(Method::default(), Method::Exact);
    }

    #[test]
    fn ticks_feed_trace_spans_and_interrupts_carry_span() {
        let _on = pkgrec_trace::scoped();
        pkgrec_trace::reset();
        let m = Budget::with_steps(3).meter();
        let err = {
            let _s = pkgrec_trace::span!("guard.test");
            m.tick().unwrap();
            m.tick_n(2).unwrap();
            m.tick().unwrap_err()
        };
        assert_eq!(err.span, Some("guard.test"));
        let report = pkgrec_trace::take();
        // 1 + 2 + the interrupting tick, all attributed to the span.
        assert_eq!(report.spans["guard.test"].steps, 4);
        assert_eq!(report.counters["guard.interrupted"], 1);
    }

    #[test]
    fn unobserved_meters_enforce_limits_without_reporting() {
        let _on = pkgrec_trace::scoped();
        let _fl = pkgrec_trace::flight::scoped();
        pkgrec_trace::reset();
        pkgrec_trace::flight::reset();
        let m = Budget::with_steps(2).unobserved_meter();
        let err = {
            let _s = pkgrec_trace::span!("guard.test");
            m.tick_n(2).unwrap();
            m.tick().unwrap_err()
        };
        assert_eq!((err.resource, err.steps), (Resource::Steps { limit: 2 }, 3));
        let report = pkgrec_trace::take();
        assert_eq!(report.spans["guard.test"].steps, 0);
        assert!(!report.counters.contains_key("guard.interrupted"));
        assert!(pkgrec_trace::flight::take_recording().events.is_empty());
    }

    #[test]
    fn meter_trips_append_to_the_flight_recorder() {
        let _fl = pkgrec_trace::flight::scoped();
        pkgrec_trace::flight::reset();
        let m = Budget::with_steps(2).meter();
        m.tick().unwrap();
        m.tick().unwrap();
        let err = m.tick().unwrap_err();
        let rec = pkgrec_trace::flight::take_recording();
        assert_eq!(
            rec.events.last().map(|r| r.event),
            Some(pkgrec_trace::flight::FlightEvent::Interrupted {
                resource: "steps",
                steps: err.steps,
            })
        );
    }

    #[test]
    fn every_worker_trip_lands_in_its_own_flight_ring() {
        let _fl = pkgrec_trace::flight::scoped();
        pkgrec_trace::flight::reset();
        let shared = Budget::with_steps(5).shared_meter();
        let w1 = shared.worker();
        for _ in 0..5 {
            w1.tick().unwrap();
        }
        let first = w1.tick().unwrap_err();
        // A worker on another thread that only observes the latch still
        // gets the same cut recorded on *its* thread.
        let other = std::thread::scope(|s| {
            s.spawn(|| {
                let _fl = pkgrec_trace::flight::scoped();
                pkgrec_trace::flight::reset();
                let w2 = shared.worker();
                assert!(w2.check_now().is_err());
                pkgrec_trace::flight::take_recording()
            })
            .join()
            .unwrap()
        });
        let mine = pkgrec_trace::flight::take_recording();
        let expect = pkgrec_trace::flight::FlightEvent::Interrupted {
            resource: "steps",
            steps: first.steps,
        };
        assert_eq!(mine.events.last().map(|r| r.event), Some(expect));
        assert_eq!(other.events.last().map(|r| r.event), Some(expect));
    }

    #[test]
    fn resource_labels_are_stable() {
        assert_eq!(Resource::Steps { limit: 3 }.label(), "steps");
        assert_eq!(Resource::Deadline.label(), "deadline");
        assert_eq!(Resource::Cancelled.label(), "cancelled");
    }

    #[test]
    fn display_formats() {
        let cut = Interrupted::new(Resource::Steps { limit: 10 }, 11);
        assert_eq!(
            cut.to_string(),
            "search interrupted by step limit 10 after 11 steps"
        );
        let placed = Interrupted {
            span: Some("enumerate.dfs"),
            ..cut
        };
        assert_eq!(
            placed.to_string(),
            "search interrupted by step limit 10 after 11 steps in enumerate.dfs"
        );
        assert_eq!(Resource::Deadline.to_string(), "deadline");
        assert_eq!(Resource::Cancelled.to_string(), "cancellation");
    }
}
