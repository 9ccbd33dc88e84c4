//! Query evaluation engines other than the conjunctive join.
//!
//! Conjunctive bodies — CQ/UCQ answers and membership, Datalog rule
//! bodies, conjunctive `Qc` checks — all run on the one executor
//! behind [`crate::CompiledPlan`]. This module holds the rest:
//!
//! * `fo` — active-domain evaluation of first-order formulas (and
//!   their positive-existential fragment). It shares no join code with
//!   the plans, which makes the FO embedding of a CQ/UCQ
//!   (`rewrite::cq_to_fo`/`ucq_to_fo`) the reference the conjunctive
//!   executor is tested against;
//! * `datalog` — semi-naive bottom-up fixpoint for Datalog, with a
//!   single stratified pass for DATALOGnr programs; each rule firing
//!   runs its body on the conjunctive executor.

pub(crate) mod datalog;
pub(crate) mod fo;

use pkgrec_data::{Database, Relation, Value};
use pkgrec_guard::Meter;

use crate::metric::MetricSet;
use crate::term::Builtin;
use crate::{QueryError, Result};

/// A source of named relations. `Database` is the usual provider; the
/// Datalog engine overlays IDB relations on top of one.
pub trait RelProvider {
    /// Resolve a relation by name.
    fn get_relation(&self, name: &str) -> Option<&Relation>;
}

impl RelProvider for Database {
    fn get_relation(&self, name: &str) -> Option<&Relation> {
        self.relation(name)
    }
}

/// A database with exactly one relation shadowed by an overlay — the
/// zero-copy equivalent of [`Database::set_relation`] on a clone.
/// Compiled plans use this to bind the dynamic answer relation `RQ` per
/// probe without cloning the whole database.
pub(crate) struct OverlayProvider<'a> {
    pub base: &'a Database,
    pub name: &'a str,
    pub rel: &'a Relation,
}

impl RelProvider for OverlayProvider<'_> {
    fn get_relation(&self, name: &str) -> Option<&Relation> {
        if name == self.name {
            Some(self.rel)
        } else {
            self.base.relation(name)
        }
    }
}

/// Evaluation context: the database, the metric set Γ needed to
/// evaluate distance builtins introduced by query relaxation, and an
/// optional [`Meter`] bounding how much work evaluation may do.
#[derive(Clone, Copy)]
pub struct EvalContext<'a> {
    /// The database `D`.
    pub db: &'a Database,
    /// Distance functions for `DistLe` builtins; `None` when the query
    /// contains none.
    pub metrics: Option<&'a MetricSet>,
    /// Resource meter ticked by the evaluation engines; `None` runs
    /// unbounded.
    pub meter: Option<&'a Meter>,
}

impl<'a> EvalContext<'a> {
    /// Context without metrics.
    pub fn new(db: &'a Database) -> Self {
        EvalContext {
            db,
            metrics: None,
            meter: None,
        }
    }

    /// Context with a metric set Γ.
    pub fn with_metrics(db: &'a Database, metrics: &'a MetricSet) -> Self {
        EvalContext {
            db,
            metrics: Some(metrics),
            meter: None,
        }
    }

    /// Attach a resource meter; evaluation interrupts with
    /// [`QueryError::Interrupted`] when its budget runs out.
    pub fn with_meter(mut self, meter: &'a Meter) -> Self {
        self.meter = Some(meter);
        self
    }

    /// Count one basic evaluation step against the budget, if any.
    #[inline]
    pub(crate) fn tick(&self) -> Result<()> {
        match self.meter {
            Some(m) => m.tick().map_err(QueryError::from),
            None => Ok(()),
        }
    }

    /// Count `n` basic evaluation steps against the budget, if any.
    #[inline]
    pub(crate) fn tick_n(&self, n: u64) -> Result<()> {
        match self.meter {
            Some(m) => m.tick_n(n).map_err(QueryError::from),
            None => Ok(()),
        }
    }

    /// Evaluate `dist_metric(a, b) ≤ bound`.
    pub(crate) fn dist_le(&self, metric: &str, a: &Value, b: &Value, bound: i64) -> Result<bool> {
        let metrics = self
            .metrics
            .ok_or_else(|| QueryError::UnknownMetric(metric.to_string()))?;
        let m = metrics
            .get(metric)
            .ok_or_else(|| QueryError::UnknownMetric(metric.to_string()))?;
        Ok(m.distance(a, b).is_some_and(|d| d <= bound))
    }

    /// Evaluate a builtin on fully ground terms resolved to values.
    pub(crate) fn eval_builtin(&self, b: &Builtin, l: &Value, r: &Value) -> Result<bool> {
        match b {
            Builtin::Cmp(c) => Ok(c.op.apply(l, r)),
            Builtin::DistLe { metric, bound, .. } => self.dist_le(metric, l, r, *bound),
        }
    }
}
