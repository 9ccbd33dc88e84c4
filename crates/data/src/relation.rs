use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

use crate::{ColumnarRelation, RelationSchema, Result, Tuple, Value};

/// A relation instance: a set of tuples under a [`RelationSchema`].
///
/// Tuples are stored in a `BTreeSet` so iteration order is canonical —
/// every solver, counter and bench in the workspace is deterministic as a
/// consequence. Hash indexes on single columns are built lazily by query
/// evaluation (see [`Relation::index`]) and invalidated on mutation. The
/// index cache sits behind an `RwLock` (not a `RefCell`) so a relation
/// can be probed concurrently by the parallel search workers; reads
/// share the lock and only the first probe of a column takes it
/// exclusively. Buckets are `Arc<[Tuple]>` so a probe hands out a
/// shared reference — no per-probe allocation or tuple cloning.
#[derive(Debug)]
pub struct Relation {
    schema: RelationSchema,
    tuples: BTreeSet<Tuple>,
    /// Lazily built per-column indexes: column position → value → tuples.
    indexes: std::sync::RwLock<IndexCache>,
    /// Lazily built columnar (struct-of-arrays) layout, cached with the
    /// same discipline as `indexes`: double-checked build, cleared on
    /// mutation, never copied by `Clone`. See [`ColumnarRelation`].
    columnar: std::sync::RwLock<Option<Arc<ColumnarRelation>>>,
}

/// Per-column hash indexes: column position → value → shared bucket.
type IndexCache = HashMap<usize, HashMap<Value, Arc<[Tuple]>>>;

impl Clone for Relation {
    fn clone(&self) -> Self {
        Relation {
            schema: self.schema.clone(),
            tuples: self.tuples.clone(),
            // The caches rebuild lazily; cloning them would just copy work.
            indexes: Default::default(),
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
            indexes: Default::default(),
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
            indexes: Default::default(),
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

    /// Drop every lazily built access structure after a mutation.
    fn invalidate_caches(&mut self) {
        self.indexes
            .get_mut()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
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

    /// Tuples whose column `col` equals `v`, via a lazily built hash
    /// index: a shared bucket in canonical order, or `None` when no
    /// tuple matches. Cloning the returned `Arc` is a refcount bump, so
    /// repeated probes do no per-probe allocation.
    ///
    /// Poisoned locks are recovered rather than propagated: the `entry`
    /// API only inserts a finished index (the builder closure returns
    /// the complete map or unwinds before insertion), so the cache is
    /// never observable half-built and a panic elsewhere in the process
    /// must not wedge every future probe of this relation.
    pub fn lookup(&self, col: usize, v: &Value) -> Option<Arc<[Tuple]>> {
        if let Some(index) = self
            .indexes
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(&col)
        {
            return index.get(v).cloned();
        }
        // Double-checked build: two probes can both miss the read lock
        // above; `entry` re-probes under the write lock so the second
        // thread reuses the first one's index instead of rebuilding it
        // (the `query.index_builds` counter pins at-most-once builds).
        let mut indexes = self.indexes.write().unwrap_or_else(|e| e.into_inner());
        let index = indexes.entry(col).or_insert_with(|| {
            pkgrec_trace::counter!("query.index_builds");
            let mut m: HashMap<Value, Vec<Tuple>> = HashMap::new();
            for t in &self.tuples {
                m.entry(t[col].clone()).or_default().push(t.clone());
            }
            m.into_iter().map(|(k, b)| (k, Arc::from(b))).collect()
        });
        index.get(v).cloned()
    }

    /// Hint used by `lookup` consumers: `index(col)` forces index
    /// construction, which amortizes repeated probes in joins.
    pub fn index(&self, col: usize) {
        let _ = self.lookup(col, &Value::Int(i64::MIN));
    }

    /// The columnar (struct-of-arrays + per-column bitset index) layout
    /// of this relation, built lazily on first use and cached until the
    /// next mutation — the same double-checked, poison-recovering
    /// discipline as [`Relation::lookup`]'s index cache. The handle is
    /// `Arc`-shared, so compiled plans can keep the layout alive past a
    /// mutation of the relation (they snapshot, exactly as they snapshot
    /// tuples).
    pub fn columnar(&self) -> Arc<ColumnarRelation> {
        if let Some(c) = self
            .columnar
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
        {
            return Arc::clone(c);
        }
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
    fn lookup_uses_index() {
        let r = rel();
        let hits = r.lookup(0, &Value::Int(1)).expect("two matches");
        assert_eq!(hits.len(), 2);
        assert!(r.lookup(0, &Value::Int(9)).is_none());
    }

    #[test]
    fn lookup_buckets_are_shared_and_canonical() {
        let r = rel();
        let a = r.lookup(0, &Value::Int(1)).unwrap();
        let b = r.lookup(0, &Value::Int(1)).unwrap();
        // Same allocation handed out to every probe.
        assert!(Arc::ptr_eq(&a, &b));
        let mut sorted: Vec<Tuple> = a.to_vec();
        sorted.sort();
        assert_eq!(&*a, &sorted[..]);
    }

    #[test]
    fn mutation_invalidates_index() {
        let mut r = rel();
        assert_eq!(r.lookup(0, &Value::Int(1)).unwrap().len(), 2);
        r.insert(tuple![1, "w"]).unwrap();
        assert_eq!(r.lookup(0, &Value::Int(1)).unwrap().len(), 3);
        r.remove(&tuple![1, "w"]);
        assert_eq!(r.lookup(0, &Value::Int(1)).unwrap().len(), 2);
    }

    /// Satellite regression: concurrent first probes of the same column
    /// must build its index exactly once. Tracing is per thread, so
    /// each prober turns it on and hands its report back to the main
    /// thread.
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
                        let _ = r.lookup(0, &Value::Int(1));
                    }
                    pkgrec_trace::take()
                })
            })
            .collect();
        for h in handles {
            total.merge(&h.join().expect("prober thread"));
        }
        assert_eq!(
            total.counters.get("query.index_builds").copied(),
            Some(1),
            "double-checked rebuild must dedupe concurrent index builds"
        );
    }

    /// Satellite regression: a panic while holding the index lock (as a
    /// crashed search worker would leave it) poisons the `RwLock`, but
    /// the cache must keep serving probes — the resident server reuses
    /// one `Relation` across requests, and a single fault must not
    /// wedge every later lookup.
    #[test]
    fn lookup_recovers_from_poisoned_index_lock() {
        let r = std::sync::Arc::new(rel());
        let r2 = std::sync::Arc::clone(&r);
        std::thread::spawn(move || {
            let _guard = r2.indexes.write().unwrap();
            panic!("poison the index lock");
        })
        .join()
        .expect_err("the poisoning thread panicked");
        assert!(r.indexes.is_poisoned());
        let hits = r.lookup(0, &Value::Int(1)).expect("two matches");
        assert_eq!(hits.len(), 2);
        assert!(r.lookup(0, &Value::Int(9)).is_none());
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
