//! # pkgrec-query — query languages and evaluation
//!
//! The paper parameterizes every recommendation problem by a query
//! language `L_Q` ranging over (Section 2):
//!
//! * **CQ** — conjunctive queries (with built-ins `=, ≠, <, ≤, >, ≥`),
//! * **UCQ** — unions of conjunctive queries,
//! * **∃FO⁺** — positive existential first-order queries,
//! * **DATALOGnr** — non-recursive Datalog,
//! * **FO** — full first-order logic, and
//! * **DATALOG** — (recursive, positive) Datalog,
//!
//! plus the **SP** fragment of Corollary 6.2. This crate implements all
//! of them from scratch: ASTs ([`ConjunctiveQuery`], [`UnionQuery`],
//! [`FoQuery`], [`DatalogProgram`]), a unified [`Query`] type with
//! least-language classification into the [`QueryLanguage`] lattice,
//! evaluators (backtracking joins for conjunctive bodies, active-domain
//! semantics for FO, semi-naive fixpoint for Datalog), membership tests,
//! a text [`parser`], and the distance builtins + [`MetricSet`] that
//! query relaxation (Section 7) introduces.

mod cq;
mod datalog;
mod error;
pub mod eval;
mod fo;
mod hypergraph;
mod language;
mod metric;
pub mod parser;
mod plan;
mod query;
pub mod rewrite;
mod term;

pub use cq::{ConjunctiveQuery, UnionQuery};
pub use datalog::{BodyLiteral, DatalogProgram, Rule};
pub use error::QueryError;
pub use eval::{EvalContext, RelProvider};
pub use fo::{Formula, FoQuery};
pub use hypergraph::ConflictHypergraph;
pub use language::QueryLanguage;
pub use metric::{AbsDiff, Discrete, Metric, MetricSet, TableMetric};
pub use plan::CompiledPlan;
pub use query::Query;
pub use term::{var, Builtin, CmpOp, Comparison, RelAtom, Term, Var};

// Re-export the budget vocabulary so downstream crates can bound
// evaluation without depending on pkgrec-guard directly.
pub use pkgrec_guard::{Budget, CancelFlag, Interrupted, Meter, Resource};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, QueryError>;
