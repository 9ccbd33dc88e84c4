use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use crate::{ColumnarRelation, RelationSchema, Result, Tuple, Value};

/// A relation instance: a set of tuples under a [`RelationSchema`].
///
/// Tuples are stored in a `BTreeSet` so iteration order is canonical —
/// every solver, counter and bench in the workspace is deterministic as a
/// consequence. Query evaluation builds its own `u32` indexes in
/// compiled plans; the relation caches only its columnar layout (see
/// [`Relation::columnar`]), which compiled plans share.
#[derive(Debug)]
pub struct Relation {
    schema: RelationSchema,
    tuples: BTreeSet<Tuple>,
    /// Lazily built columnar (struct-of-arrays) layout: double-checked
    /// build, cleared on mutation, never copied by `Clone`. It sits
    /// behind an `RwLock` (not a `RefCell`) so parallel search workers
    /// can share one relation. See [`ColumnarRelation`].
    columnar: std::sync::RwLock<Option<Arc<ColumnarRelation>>>,
}

impl Clone for Relation {
    fn clone(&self) -> Self {
        Relation {
            schema: self.schema.clone(),
            tuples: self.tuples.clone(),
            // The cache rebuilds lazily; cloning it would just copy work.
            columnar: Default::default(),
        }
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.tuples == other.tuples
    }
}

impl Eq for Relation {}

impl Relation {
    /// An empty relation under the given schema.
    pub fn empty(schema: RelationSchema) -> Self {
        Relation {
            schema,
            tuples: BTreeSet::new(),
            columnar: Default::default(),
        }
    }

    /// A relation populated from an iterator of tuples, each checked
    /// against the schema.
    pub fn from_tuples(
        schema: RelationSchema,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<Self> {
        let mut r = Relation::empty(schema);
        for t in tuples {
            r.insert(t)?;
        }
        Ok(r)
    }

    /// Like [`Relation::from_tuples`] but without type checking — for
    /// internal construction of query answers whose schema is untyped.
    pub fn from_tuples_unchecked(
        schema: RelationSchema,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Self {
        Relation {
            schema,
            tuples: tuples.into_iter().collect(),
            columnar: Default::default(),
        }
    }

    /// The relation's schema.
    pub fn schema(&self) -> &RelationSchema {
        &self.schema
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Insert a tuple after schema-checking it. Returns whether the tuple
    /// was new.
    pub fn insert(&mut self, t: Tuple) -> Result<bool> {
        self.schema.check_tuple(&t)?;
        let new = self.tuples.insert(t);
        if new {
            self.invalidate_caches();
        }
        Ok(new)
    }

    /// Remove a tuple. Returns whether it was present.
    pub fn remove(&mut self, t: &Tuple) -> bool {
        let removed = self.tuples.remove(t);
        if removed {
            self.invalidate_caches();
        }
        removed
    }

    /// Drop the lazily built columnar layout after a mutation.
    fn invalidate_caches(&mut self) {
        *self.columnar.get_mut().unwrap_or_else(|e| e.into_inner()) = None;
    }

    /// Membership test.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.tuples.contains(t)
    }

    /// Iterate over tuples in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> + '_ {
        self.tuples.iter()
    }

    /// All tuples, cloned, in canonical order.
    pub fn tuples(&self) -> Vec<Tuple> {
        self.tuples.iter().cloned().collect()
    }

    /// The columnar (struct-of-arrays + per-column bitset index) layout
    /// of this relation, built lazily on first use and cached until the
    /// next mutation. The handle is `Arc`-shared, so compiled plans can
    /// keep the layout alive past a mutation of the relation (they
    /// snapshot, exactly as they snapshot tuples).
    ///
    /// Poisoned locks are recovered rather than propagated: the slot is
    /// only ever filled with a finished layout (the build closure returns it
    /// whole or unwinds before insertion), so it is never observable
    /// half-built, and a panic elsewhere in the process must not wedge
    /// every later probe of this relation.
    pub fn columnar(&self) -> Arc<ColumnarRelation> {
        if let Some(c) = self
            .columnar
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
        {
            return Arc::clone(c);
        }
        // Double-checked build: two callers can both miss the read lock
        // above; the write-locked slot is re-probed so the second one
        // reuses the first one's layout instead of rebuilding it (the
        // `query.index_builds` counter pins at-most-once builds).
        let mut slot = self.columnar.write().unwrap_or_else(|e| e.into_inner());
        Arc::clone(slot.get_or_insert_with(|| {
            pkgrec_trace::counter!("query.index_builds");
            Arc::new(ColumnarRelation::build(self))
        }))
    }

    /// All distinct values appearing anywhere in the relation.
    pub fn value_set(&self) -> BTreeSet<Value> {
        self.tuples
            .iter()
            .flat_map(|t| t.values().iter().cloned())
            .collect()
    }

    /// Distinct values in one column.
    pub fn column_values(&self, col: usize) -> BTreeSet<Value> {
        self.tuples.iter().map(|t| t[col].clone()).collect()
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.schema)?;
        for t in &self.tuples {
            writeln!(f, "  {t}")?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a Relation {
    type Item = &'a Tuple;
    type IntoIter = std::collections::btree_set::Iter<'a, Tuple>;
    fn into_iter(self) -> Self::IntoIter {
        self.tuples.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{tuple, AttrType};

    fn rel() -> Relation {
        let schema =
            RelationSchema::new("r", [("a", AttrType::Int), ("b", AttrType::Str)]).unwrap();
        Relation::from_tuples(
            schema,
            [tuple![1, "x"], tuple![2, "y"], tuple![1, "z"]],
        )
        .unwrap()
    }

    #[test]
    fn dedup_and_len() {
        let mut r = rel();
        assert_eq!(r.len(), 3);
        assert!(!r.insert(tuple![1, "x"]).unwrap());
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn canonical_iteration_order() {
        let r = rel();
        let order: Vec<Tuple> = r.iter().cloned().collect();
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(order, sorted);
    }

    #[test]
    fn columnar_layout_is_cached_and_shared() {
        let r = rel();
        let a = r.columnar();
        let b = r.columnar();
        // Same allocation handed out to every caller.
        assert!(Arc::ptr_eq(&a, &b));
        let one = a.interner().get(&Value::Int(1)).expect("1 is interned");
        assert_eq!(a.rows_with(0, one).expect("two matches").count_ones(), 2);
    }

    #[test]
    fn mutation_invalidates_columnar_layout() {
        let rows_with_1 = |r: &Relation| {
            let c = r.columnar();
            let id = c.interner().get(&Value::Int(1)).expect("1 is interned");
            c.rows_with(0, id).map_or(0, |rows| rows.count_ones())
        };
        let mut r = rel();
        assert_eq!(rows_with_1(&r), 2);
        r.insert(tuple![1, "w"]).unwrap();
        assert_eq!(rows_with_1(&r), 3);
        r.remove(&tuple![1, "w"]);
        assert_eq!(rows_with_1(&r), 2);
    }

    /// Regression: concurrent first calls must build the columnar
    /// layout exactly once. Tracing is per thread, so each caller turns
    /// it on and hands its report back to the main thread.
    #[test]
    fn concurrent_lookups_build_the_index_at_most_once() {
        let r = std::sync::Arc::new(rel());
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(8));
        let mut total = pkgrec_trace::TraceReport::default();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let r = std::sync::Arc::clone(&r);
                let barrier = std::sync::Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let _scope = pkgrec_trace::scoped();
                    barrier.wait();
                    for _ in 0..100 {
                        let _ = r.columnar();
                    }
                    pkgrec_trace::take()
                })
            })
            .collect();
        for h in handles {
            total.merge(&h.join().expect("caller thread"));
        }
        assert_eq!(
            total.counters.get("query.index_builds").copied(),
            Some(1),
            "double-checked rebuild must dedupe concurrent builds"
        );
    }

    /// Regression: a panic while holding the cache lock (as a crashed
    /// search worker would leave it) poisons the `RwLock`, but the cache
    /// must keep serving — the resident server reuses one `Relation`
    /// across requests, and a single fault must not wedge every later
    /// probe.
    #[test]
    fn lookup_recovers_from_poisoned_index_lock() {
        let r = std::sync::Arc::new(rel());
        let r2 = std::sync::Arc::clone(&r);
        std::thread::spawn(move || {
            let _guard = r2.columnar.write().unwrap();
            panic!("poison the cache lock");
        })
        .join()
        .expect_err("the poisoning thread panicked");
        assert!(r.columnar.is_poisoned());
        let c = r.columnar();
        assert_eq!(c.rows(), 3);
        assert!(c.interner().get(&Value::Int(9)).is_none());
        assert!(Arc::ptr_eq(&c, &r.columnar()));
    }

    #[test]
    fn schema_violations_rejected() {
        let mut r = rel();
        assert!(r.insert(tuple![1]).is_err());
        assert!(r.insert(tuple!["no", "x"]).is_err());
    }

    #[test]
    fn value_sets() {
        let r = rel();
        assert_eq!(r.column_values(0).len(), 2);
        assert_eq!(r.value_set().len(), 5);
    }
}
