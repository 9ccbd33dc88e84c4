//! # pkgrec-core — the package recommendation model and exact solvers
//!
//! This crate implements the model of
//! *Deng, Fan & Geerts, "On the Complexity of Package Recommendation
//! Problems"* (PODS 2012 / SICOMP 2013), Sections 2–6:
//!
//! * [`Package`] — a set of items drawn from a query answer `Q(D)`;
//! * [`PackageFn`] — PTIME `cost()` / `val()` functions, with the
//!   paper's conventions (`cost(∅) = ∞`) via the extended value type
//!   [`Ext`];
//! * [`Constraint`] — compatibility constraints `Qc(N, D) = ∅` (query-
//!   based, PTIME-closure-based per Corollary 6.3, or absent);
//! * [`RecInstance`] / [`SizeBound`] — the problem input
//!   `(Q, D, Qc, cost(), val(), C, k)` with polynomial or constant
//!   package-size bounds;
//! * [`problems`] — exact solvers for RPP (decision), FRP (function),
//!   MBP (maximum bound), CPP (counting), the compatibility problem,
//!   and item recommendations;
//! * [`sketch`] — the SketchRefine approximate engine for item pools
//!   the exact search cannot touch, opted into per solve via
//!   [`SolveOptions::with_approx`]; its outcomes can never claim
//!   `exact: true`.
//!
//! The solvers implement the *upper-bound algorithms* of the paper
//! (validity check + dominating-package search for RPP; the
//! `EXISTPACK≥`-oracle loop for FRP; the `L1 ∩ L2` split for MBP), with
//! exhaustive package search standing in for the oracles. They are
//! exponential-time by necessity — the problems are Σp₂-hard and worse —
//! but exact, deterministic, and prune soundly using declared cost
//! monotonicity. When the size bound is a constant `Bp`, the same code
//! *is* the PTIME algorithm of Corollary 6.1.

mod constraints;
mod enumerate;
mod error;
mod functions;
mod instance;
mod package;
pub mod problems;
mod progress;
mod rating;
pub mod sketch;

pub use constraints::{Constraint, ANSWER_RELATION};
pub use enumerate::{
    reduce_valid_packages, reduce_valid_packages_in, SearchStats, SolveOptions, UnitSkew,
    ValidPackageReducer, WorkerStat,
};
pub use error::{ColumnIssue, CoreError};

// Re-export the budget vocabulary so downstream crates can configure
// and inspect bounded searches without a direct pkgrec-guard
// dependency.
pub use pkgrec_guard::{Budget, CancelFlag, Interrupted, Meter, Method, Outcome, Resource};
pub use functions::PackageFn;
pub use instance::{PreparedInstance, RecInstance, SearchContext, SizeBound};
pub use sketch::SketchParams;
pub use package::Package;
pub use progress::Progress;
pub use problems::group::{GroupInstance, GroupSemantics};
pub use problems::items::{ItemInstance, ItemUtility};
pub use rating::Ext;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CoreError>;
