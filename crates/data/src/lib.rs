//! # pkgrec-data — relational substrate
//!
//! The paper models a recommendation system's item collection as a
//! relational database `D` over a schema `R = (R1, ..., Rn)` (Section 2).
//! This crate provides that substrate from scratch:
//!
//! * [`Value`] — the attribute value domain (booleans, integers, strings),
//!   with a total order so values can serve as join keys and be compared by
//!   the built-in predicates `=, ≠, <, ≤, >, ≥` the paper allows in every
//!   query language.
//! * [`Tuple`] — an immutable, cheaply clonable row.
//! * [`RelationSchema`] / [`Attribute`] — named, typed relation schemas.
//! * [`Relation`] — a set of tuples under a schema, deduplicated and kept
//!   in canonical (sorted) order so all downstream algorithms are
//!   deterministic.
//! * [`Database`] — a catalog of relations, plus the *active domain*
//!   computation used by FO evaluation and by query-relaxation search.
//! * [`Snapshot`] — a database interned once per epoch: one
//!   [`ValueInterner`] over all of `D`, `u32` row-major cells per
//!   relation, and per-column [`Postings`] built lazily, at most once.
//!   Every compiled query plan and one-shot call shares it. A posting
//!   is a sorted row run, plus an [`ItemBitset`] once its value holds
//!   more than `rows/32` rows, so a column's index is O(rows) bytes.
//! * [`partition`] — the offline, deterministic hierarchical clustering
//!   behind the SketchRefine approximate engine: per-partition
//!   representative tuples and size/aggregate metadata.
//!
//! Everything here is deliberately simple and exact: the paper's
//! complexity analyses concern the logical structure of queries and
//! packages, not storage engineering, so the substrate favours
//! determinism and clarity while still using indexes where joins need
//! them.

mod bitset;
mod database;
mod error;
mod interner;
pub mod partition;
mod relation;
mod schema;
mod snapshot;
pub mod text;
mod tuple;
mod value;

pub use bitset::ItemBitset;
pub use database::{ActiveDomain, Database};
pub use partition::{PartitionIndex, PartitionNode, PartitionParams};
pub use error::DataError;
pub use interner::ValueInterner;
pub use relation::Relation;
pub use schema::{Attribute, RelationSchema};
pub use snapshot::{Posting, Postings, Snapshot, Table};
pub use tuple::Tuple;
pub use value::{AttrType, Value};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, DataError>;
