use std::fmt;
use std::sync::Arc;

use pkgrec_data::{Database, Tuple};
use pkgrec_query::{CompiledPlan, EvalContext, MetricSet, Query};

use crate::constraints::{Constraint, ANSWER_RELATION};
use crate::error::{ColumnIssue, CoreError};
use crate::functions::PackageFn;
use crate::package::Package;
use crate::rating::Ext;
use crate::Result;

/// The bound on package sizes.
///
/// The paper requires `|N| ≤ p(|D|)` for a predefined polynomial `p`
/// (Section 2, condition (4)), and separately studies the special case
/// of a constant bound `Bp` (Section 6) — the switch that moves the data
/// complexity of RPP/FRP/MBP/CPP from coNP/FPNP/DP/#P down to PTIME/FP
/// (Corollary 6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizeBound {
    /// `|N| ≤ coeff · |D|^degree`.
    Poly {
        /// Multiplier.
        coeff: usize,
        /// Exponent.
        degree: u32,
    },
    /// `|N| ≤ Bp` for a constant `Bp`.
    Constant(usize),
}

impl SizeBound {
    /// The identity polynomial `|N| ≤ |D|` — the default.
    pub fn linear() -> SizeBound {
        SizeBound::Poly {
            coeff: 1,
            degree: 1,
        }
    }

    /// The bound evaluated at a database size.
    pub fn max_size(&self, db_size: usize) -> usize {
        match *self {
            SizeBound::Poly { coeff, degree } => {
                coeff.saturating_mul(db_size.saturating_pow(degree))
            }
            SizeBound::Constant(b) => b,
        }
    }

    /// Whether this is the constant-bound regime of Section 6.
    pub fn is_constant(&self) -> bool {
        matches!(self, SizeBound::Constant(_))
    }
}

/// A package recommendation instance
/// `(Q, D, Qc, cost(), val(), C, k)` — the common input of the problems
/// RPP, FRP, MBP and CPP (Sections 3–5).
#[derive(Debug, Clone)]
pub struct RecInstance {
    /// The item database `D`, behind a shared handle so compiled plans
    /// (and a resident server's plan cache) can hold onto it without
    /// borrowing the instance. Cloning the instance shares the data.
    pub db: Arc<Database>,
    /// The selection query `Q`.
    pub query: Query,
    /// The compatibility constraint `Qc`.
    pub qc: Constraint,
    /// The cost function.
    pub cost: PackageFn,
    /// The rating function.
    pub val: PackageFn,
    /// The cost budget `C`.
    pub budget: Ext,
    /// How many packages to select (`k ≥ 1`).
    pub k: usize,
    /// The package-size bound.
    pub size_bound: SizeBound,
    /// Distance functions Γ, when `Q`/`Qc` contain `DistLe` builtins
    /// (relaxed queries).
    pub metrics: Option<MetricSet>,
}

impl RecInstance {
    /// Start building an instance; defaults: no `Qc`, `cost = count`
    /// (`cost(∅) = ∞`), `val = |N|`, budget `C` = +∞, `k = 1`, linear
    /// size bound, no metrics.
    pub fn new(db: impl Into<Arc<Database>>, query: Query) -> RecInstance {
        RecInstance {
            db: db.into(),
            query,
            qc: Constraint::Empty,
            cost: PackageFn::count(),
            val: PackageFn::cardinality(),
            budget: Ext::PosInf,
            k: 1,
            size_bound: SizeBound::linear(),
            metrics: None,
        }
    }

    /// Builder-style setter for `Qc`.
    pub fn with_qc(mut self, qc: Constraint) -> Self {
        self.qc = qc;
        self
    }

    /// Builder-style setter for the cost function.
    pub fn with_cost(mut self, cost: PackageFn) -> Self {
        self.cost = cost;
        self
    }

    /// Builder-style setter for the rating function.
    pub fn with_val(mut self, val: PackageFn) -> Self {
        self.val = val;
        self
    }

    /// Builder-style setter for the budget `C`.
    pub fn with_budget(mut self, budget: impl Into<Ext>) -> Self {
        self.budget = budget.into();
        self
    }

    /// Builder-style setter for `k`.
    pub fn with_k(mut self, k: usize) -> Self {
        assert!(k >= 1, "the paper requires k ≥ 1");
        self.k = k;
        self
    }

    /// Builder-style setter for the size bound.
    pub fn with_size_bound(mut self, bound: SizeBound) -> Self {
        self.size_bound = bound;
        self
    }

    /// Builder-style setter for the metric set Γ.
    pub fn with_metrics(mut self, metrics: MetricSet) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The item pool `Q(D)`, in canonical order. Each call evaluates
    /// `Q` afresh; a search computes it once in its [`SearchContext`].
    pub fn items(&self) -> Result<Vec<Tuple>> {
        let ctx = match &self.metrics {
            Some(m) => EvalContext::with_metrics(&self.db, m),
            None => EvalContext::new(&self.db),
        };
        Ok(self.query.eval_ctx(ctx)?.into_iter().collect())
    }

    /// The arity of the answer schema `R_Q`.
    ///
    /// Deriving the arity walks the query AST, so searches must not
    /// call this per package — [`SearchContext`] caches it once per
    /// solve, and the `core.arity_derivations` trace counter pins that.
    pub fn answer_arity(&self) -> Result<usize> {
        pkgrec_trace::counter!("core.arity_derivations");
        Ok(self.query.arity()?)
    }

    /// Precompute the per-search state — the item pool `Q(D)`, the
    /// answer arity, compiled plans for `Q` and `Qc`, and the
    /// query-evaluation context — and validate the `cost`/`val`
    /// functions' declared numeric columns against the items. Every
    /// solve (and every worker of a parallel solve) shares one context,
    /// so this work happens O(1) times per search instead of once per
    /// enumerated package.
    pub fn search_context(&self) -> Result<SearchContext<'_>> {
        let parts = PreparedParts::build(self)?;
        Ok(parts.context(self))
    }

    /// The concrete maximum package size `p(|D|)` (or `Bp`).
    pub fn max_package_size(&self) -> usize {
        self.size_bound.max_size(self.db.size())
    }
}

/// Check a function's declared numeric columns against the actual
/// items, surfacing a typed error instead of letting the closure
/// silently score the column as 0.
fn validate_fn_columns(role: &'static str, f: &PackageFn, items: &[Tuple]) -> Result<()> {
    for &col in f.numeric_columns() {
        for t in items {
            let issue = match t.get(col) {
                None => ColumnIssue::Missing { arity: t.arity() },
                Some(v) if v.as_numeric().is_none() => ColumnIssue::NonNumeric,
                Some(_) => continue,
            };
            return Err(CoreError::FunctionColumn {
                role,
                function: f.description().to_string(),
                column: col,
                issue,
            });
        }
    }
    Ok(())
}

/// The compile-once parts of a search context: the item pool, cached
/// arity, and the compiled plans for `Q`/`Qc`, all behind shared
/// handles so stamping out a [`SearchContext`] from them is O(1).
#[derive(Debug, Clone)]
struct PreparedParts {
    items: Arc<[Tuple]>,
    answer_arity: usize,
    qc_antimonotone: bool,
    q_plan: Arc<CompiledPlan>,
    qc_plan: Option<Arc<CompiledPlan>>,
}

impl PreparedParts {
    fn build(inst: &RecInstance) -> Result<PreparedParts> {
        // Profiler phase: plan compilation + item materialization is
        // the front half of every solve; the timeline separates it from
        // the search proper (a stamp side-channel, not a trace span —
        // span-path goldens stay untouched).
        let _phase = pkgrec_trace::timeline::phase("compile");
        let answer_arity = inst.answer_arity()?;
        let q_plan = inst.query.compile(&inst.db)?;
        let items: Vec<Tuple> = q_plan
            .eval(inst.metrics.as_ref(), None)?
            .into_iter()
            .collect();
        let qc_plan = match &inst.qc {
            Constraint::Query(qc) => {
                Some(qc.compile_with_dynamic(&inst.db, ANSWER_RELATION, answer_arity)?)
            }
            _ => None,
        };
        validate_fn_columns("cost", &inst.cost, &items)?;
        validate_fn_columns("val", &inst.val, &items)?;
        Ok(PreparedParts {
            items: items.into(),
            answer_arity,
            qc_antimonotone: inst.qc.is_antimonotone(),
            q_plan: Arc::new(q_plan),
            qc_plan: qc_plan.map(Arc::new),
        })
    }

    fn context<'a>(&self, inst: &'a RecInstance) -> SearchContext<'a> {
        SearchContext {
            inst,
            items: Arc::clone(&self.items),
            answer_arity: self.answer_arity,
            qc_antimonotone: self.qc_antimonotone,
            q_plan: Arc::clone(&self.q_plan),
            qc_plan: self.qc_plan.as_ref().map(Arc::clone),
        }
    }
}

/// An instance whose per-search state — compiled plans, item pool,
/// cached arity — has been computed once and can be reused across many
/// solves (compile once, probe many, *solve many*). This is the unit a
/// resident server caches per `(database, query, parameters)` key:
/// [`PreparedInstance::context`] stamps out a fresh [`SearchContext`]
/// per request without recompiling anything, so concurrent requests on
/// the same prepared instance each pay O(1) setup.
///
/// The instance is owned (not borrowed) and only readable afterwards,
/// which is what makes the cached plans sound: nothing can swap the
/// database or query out from under them.
#[derive(Debug, Clone)]
pub struct PreparedInstance {
    inst: RecInstance,
    parts: PreparedParts,
}

impl PreparedInstance {
    /// Compile the instance's per-search state once. Surfaces the same
    /// typed errors an individual solve would (bad query, invalid
    /// `cost`/`val` columns, …).
    pub fn new(inst: RecInstance) -> Result<PreparedInstance> {
        let parts = PreparedParts::build(&inst)?;
        Ok(PreparedInstance { inst, parts })
    }

    /// The underlying instance (read-only).
    pub fn instance(&self) -> &RecInstance {
        &self.inst
    }

    /// A fresh search context sharing the precompiled plans — O(1), no
    /// recompilation, safe to call concurrently from many threads.
    pub fn context(&self) -> SearchContext<'_> {
        self.parts.context(&self.inst)
    }
}

/// Per-search state shared by every visitor (and every worker thread)
/// of one solve: the item pool `Q(D)` in canonical order, the cached
/// answer arity, and the instance itself. Built once by
/// [`RecInstance::search_context`] (or stamped out from a
/// [`PreparedInstance`]); the construction also validates the
/// `cost`/`val` functions' declared columns against the items.
#[derive(Debug)]
pub struct SearchContext<'a> {
    inst: &'a RecInstance,
    items: Arc<[Tuple]>,
    answer_arity: usize,
    qc_antimonotone: bool,
    /// `Q` compiled against `D` — answers membership probes without
    /// re-interning or re-planning per package item.
    q_plan: Arc<CompiledPlan>,
    /// `Qc` compiled against `D` with the answer relation `R_Q` bound
    /// dynamically, when `Qc` is a query constraint.
    qc_plan: Option<Arc<CompiledPlan>>,
}

/// Why [`SearchContext::classify`] rejected a package. The search uses
/// the distinction both to attribute prunes (`enumerate.pruned.*`
/// counters, flight-recorder [`PruneReason`]s) and to decide whether
/// rejection licenses skipping the supersets.
///
/// [`PruneReason`]: pkgrec_trace::flight::PruneReason
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reject {
    /// `cost(N) > C`.
    Cost,
    /// `val(N) < B` for the given rating bound.
    Rating,
    /// `Qc(N, D) ≠ ∅`.
    Compat,
}

/// The outcome of classifying an enumerated package.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Classified {
    /// Valid; carries `val(N)`.
    Valid(Ext),
    /// Invalid, with the first check that failed (cost → rating →
    /// compatibility, in that fixed order so attribution is
    /// deterministic across engines).
    Rejected(Reject),
}

impl<'a> SearchContext<'a> {
    /// The instance this context belongs to.
    pub fn instance(&self) -> &'a RecInstance {
        self.inst
    }

    /// A context over the same instance and compiled plans but a
    /// restricted item pool — the SketchRefine engine runs exact
    /// sub-solves over representative pools this way. `items` must be a
    /// subset of this context's pool in canonical order; any package
    /// over a subset of `Q(D)` is a package over `Q(D)`, so every
    /// validity probe keeps its meaning. O(1): plans and cached arity
    /// are shared.
    pub(crate) fn with_items(&self, items: Arc<[Tuple]>) -> SearchContext<'a> {
        SearchContext {
            inst: self.inst,
            items,
            answer_arity: self.answer_arity,
            qc_antimonotone: self.qc_antimonotone,
            q_plan: Arc::clone(&self.q_plan),
            qc_plan: self.qc_plan.as_ref().map(Arc::clone),
        }
    }

    /// The item pool `Q(D)`, in canonical order (computed once).
    pub fn items(&self) -> &[Tuple] {
        &self.items
    }

    /// The cached answer arity.
    pub fn answer_arity(&self) -> usize {
        self.answer_arity
    }

    /// The concrete package-size cap for the search: `p(|D|)` clamped
    /// to the item-pool size.
    pub fn max_package_size(&self) -> usize {
        self.inst.max_package_size().min(self.items.len())
    }

    /// `Qc(N, D) = ∅`, using the cached arity (no per-package query
    /// AST walk). Query constraints go through the compiled plan: the
    /// package is bound to `R_Q` as a zero-copy overlay instead of
    /// cloning the whole database per probe.
    pub fn qc_satisfied(&self, pkg: &Package) -> Result<bool> {
        if let (Constraint::Query(_), Some(plan)) = (&self.inst.qc, &self.qc_plan) {
            for t in pkg.iter() {
                if t.arity() != self.answer_arity {
                    return Err(CoreError::Invalid(format!(
                        "package item arity {} does not match answer arity {}",
                        t.arity(),
                        self.answer_arity
                    )));
                }
            }
            return Ok(!plan.has_answer_dynamic(pkg.iter(), self.inst.metrics.as_ref(), None)?);
        }
        self.inst
            .qc
            .satisfied(pkg, &self.inst.db, self.answer_arity, self.inst.metrics.as_ref())
    }

    /// Full validity of a package against the instance and a rating
    /// bound: `N ⊆ Q(D)`, `Qc(N, D) = ∅`, `cost(N) ≤ C`, `val(N) ≥ B`
    /// (when `B` is given), and `|N| ≤ p(|D|)` — the "valid for
    /// `(Q, D, Qc, cost(), val(), C, B)`" notion of Section 5.
    /// Membership in `Q(D)` is probed on the compiled plan, not read
    /// off the (possibly restricted) item pool.
    pub fn is_valid_package(&self, pkg: &Package, rating_bound: Option<Ext>) -> Result<bool> {
        if pkg.len() > self.inst.max_package_size() {
            return Ok(false);
        }
        if self.inst.cost.eval(pkg) > self.inst.budget {
            return Ok(false);
        }
        if let Some(b) = rating_bound {
            if self.inst.val.eval(pkg) < b {
                return Ok(false);
            }
        }
        for t in pkg.iter() {
            if !self.q_plan.contains(t, self.inst.metrics.as_ref(), None)? {
                return Ok(false);
            }
        }
        self.qc_satisfied(pkg)
    }

    /// Whether every superset of `pkg` is over budget (sound to skip).
    pub(crate) fn prune(&self, pkg: &Package) -> bool {
        self.inst
            .cost
            .superset_bound(pkg)
            .is_some_and(|b| b > self.inst.budget)
    }

    /// Whether `Qc` is anti-monotone (cached from
    /// [`Constraint::is_antimonotone`]): a compatibility rejection then
    /// also rules out every superset, so the search may prune.
    pub(crate) fn qc_antimonotone(&self) -> bool {
        self.qc_antimonotone
    }

    /// Classify an enumerated package: [`Classified::Valid`] carries
    /// `val(N)`; [`Classified::Rejected`] names the first failing check
    /// (cost → rating → compatibility). Membership in `Q(D)` is already
    /// guaranteed by enumeration from `self.items`.
    pub(crate) fn classify(&self, pkg: &Package, rating_bound: Option<Ext>) -> Result<Classified> {
        if self.inst.cost.eval(pkg) > self.inst.budget {
            return Ok(Classified::Rejected(Reject::Cost));
        }
        let val = self.inst.val.eval(pkg);
        if let Some(b) = rating_bound {
            if val < b {
                return Ok(Classified::Rejected(Reject::Rating));
            }
        }
        if !self.qc_satisfied(pkg)? {
            return Ok(Classified::Rejected(Reject::Compat));
        }
        Ok(Classified::Valid(val))
    }
}

impl fmt::Display for RecInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Q [{}]: {}", self.query.language(), self.query)?;
        writeln!(f, "Qc: {:?}", self.qc)?;
        writeln!(
            f,
            "cost: {}; val: {}; C = {}; k = {}; bound = {:?}",
            self.cost.description(),
            self.val.description(),
            self.budget,
            self.k,
            self.size_bound
        )?;
        write!(f, "|D| = {}", self.db.size())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pkgrec_data::{tuple, AttrType, Relation, RelationSchema};
    use pkgrec_query::ConjunctiveQuery;

    fn inst() -> RecInstance {
        let mut db = Database::new();
        let r = RelationSchema::new("r", [("a", AttrType::Int)]).unwrap();
        db.add_relation(
            Relation::from_tuples(r, [tuple![1], tuple![2], tuple![3]]).unwrap(),
        )
        .unwrap();
        RecInstance::new(db, Query::Cq(ConjunctiveQuery::identity("r", 1)))
    }

    #[test]
    fn size_bounds() {
        assert_eq!(SizeBound::linear().max_size(7), 7);
        assert_eq!(SizeBound::Poly { coeff: 2, degree: 2 }.max_size(3), 18);
        assert_eq!(SizeBound::Constant(4).max_size(100), 4);
        assert!(SizeBound::Constant(1).is_constant());
        assert!(!SizeBound::linear().is_constant());
    }

    #[test]
    fn items_and_arity() {
        let i = inst();
        assert_eq!(i.items().unwrap().len(), 3);
        assert_eq!(i.answer_arity().unwrap(), 1);
        assert_eq!(i.max_package_size(), 3);
    }

    #[test]
    fn validity() {
        let inst = inst().with_budget(2.0);
        let i = inst.search_context().unwrap();
        // {1}: cost 1 ≤ 2, all items in Q(D).
        assert!(i
            .is_valid_package(&Package::new([tuple![1]]), None)
            .unwrap());
        // {1,2,3}: cost 3 > 2.
        assert!(!i
            .is_valid_package(&Package::new([tuple![1], tuple![2], tuple![3]]), None)
            .unwrap());
        // {9}: not in Q(D).
        assert!(!i
            .is_valid_package(&Package::new([tuple![9]]), None)
            .unwrap());
        // Empty package: cost(∅) = ∞ > 2.
        assert!(!i.is_valid_package(&Package::empty(), None).unwrap());
        // Rating bound filters.
        assert!(!i
            .is_valid_package(&Package::new([tuple![1]]), Some(Ext::Finite(2.0)))
            .unwrap());
    }

    #[test]
    fn search_context_caches_items_and_arity() {
        let i = inst();
        let ctx = i.search_context().unwrap();
        assert_eq!(ctx.items().len(), 3);
        assert_eq!(ctx.answer_arity(), 1);
        assert_eq!(ctx.max_package_size(), 3);
        assert!(ctx
            .is_valid_package(&Package::new([tuple![1]]), None)
            .unwrap());
    }

    #[test]
    fn arity_is_derived_once_per_search() {
        // Regression: `qc_satisfied` used to re-derive the query's
        // answer arity for every enumerated package (O(2^n) AST walks);
        // the search context derives it once per solve.
        use crate::problems::cpp;
        let _scope = pkgrec_trace::scoped();
        pkgrec_trace::reset();
        let i = inst()
            .with_budget(10.0)
            .with_qc(Constraint::ptime("accept all", |_, _| true));
        cpp::count_valid(&i, Ext::NegInf, &crate::SolveOptions::default().with_jobs(1)).unwrap();
        let report = pkgrec_trace::take();
        assert!(report.counters["enumerate.nodes"] >= 8);
        assert_eq!(
            report.counters["core.arity_derivations"], 1,
            "arity derivation must be O(1) per search, not O(2^n)"
        );
    }

    #[test]
    fn missing_function_column_is_a_typed_error() {
        // Regression: sum_col(5) on 1-column items used to silently
        // score every package as 0.
        let i = inst().with_val(PackageFn::sum_col(5, true));
        match i.search_context() {
            Err(CoreError::FunctionColumn {
                role,
                column,
                issue,
                ..
            }) => {
                assert_eq!(role, "val");
                assert_eq!(column, 5);
                assert_eq!(issue, ColumnIssue::Missing { arity: 1 });
            }
            other => panic!("expected FunctionColumn error, got {other:?}"),
        }
    }

    #[test]
    fn non_numeric_function_column_is_a_typed_error() {
        let mut db = Database::new();
        let r = RelationSchema::new("s", [("name", AttrType::Str)]).unwrap();
        db.add_relation(Relation::from_tuples(r, [tuple!["a"], tuple!["b"]]).unwrap())
            .unwrap();
        let i = RecInstance::new(db, Query::Cq(ConjunctiveQuery::identity("s", 1)))
            .with_cost(PackageFn::sum_col(0, true));
        match i.search_context() {
            Err(CoreError::FunctionColumn { role, issue, .. }) => {
                assert_eq!(role, "cost");
                assert_eq!(issue, ColumnIssue::NonNumeric);
            }
            other => panic!("expected FunctionColumn error, got {other:?}"),
        }
        // The error message names the function and the problem.
        let msg = i.search_context().unwrap_err().to_string();
        assert!(msg.contains("cost"), "{msg}");
        assert!(msg.contains("sum(col 0)"), "{msg}");
        assert!(msg.contains("not numeric"), "{msg}");
    }

    #[test]
    fn constant_bound_restricts_size() {
        let inst = inst().with_size_bound(SizeBound::Constant(1)).with_budget(10.0);
        let i = inst.search_context().unwrap();
        assert!(i
            .is_valid_package(&Package::new([tuple![1]]), None)
            .unwrap());
        assert!(!i
            .is_valid_package(&Package::new([tuple![1], tuple![2]]), None)
            .unwrap());
    }
}
