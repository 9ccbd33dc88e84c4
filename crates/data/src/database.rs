use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::{DataError, Relation, RelationSchema, Result, Snapshot, Tuple, Value};

/// The *active domain* of a database (plus any constants supplied by a
/// query): all values occurring in it.
///
/// FO queries are evaluated under active-domain semantics (as usual in
/// finite model theory and as the paper's PSPACE upper bounds assume),
/// and the relaxation search of Theorem 7.2 enumerates distance bounds
/// realized by active-domain value pairs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ActiveDomain {
    values: BTreeSet<Value>,
}

impl ActiveDomain {
    /// Empty domain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one value.
    pub fn add(&mut self, v: Value) {
        self.values.insert(v);
    }

    /// Add all values of a tuple.
    pub fn add_tuple(&mut self, t: &Tuple) {
        for v in t.values() {
            self.values.insert(v.clone());
        }
    }

    /// Iterate in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = &Value> + '_ {
        self.values.iter()
    }

    /// Number of distinct values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the domain is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, v: &Value) -> bool {
        self.values.contains(v)
    }

    /// Merge another domain into this one.
    pub fn extend(&mut self, other: &ActiveDomain) {
        self.values.extend(other.values.iter().cloned());
    }
}

impl FromIterator<Value> for ActiveDomain {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        ActiveDomain {
            values: iter.into_iter().collect(),
        }
    }
}

/// Process-global generation counter behind [`Database::epoch`].
/// Starts at 1 so epoch 0 never occurs and stays free as a sentinel.
static NEXT_EPOCH: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

fn next_epoch() -> u64 {
    NEXT_EPOCH.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// A database `D`: a catalog of relation instances, keyed by name.
///
/// This is the item collection of the paper's model (Section 2). The
/// catalog is a `BTreeMap` for deterministic iteration.
///
/// Every database carries an *epoch* — a process-globally unique
/// generation token, re-stamped on every mutation — so caches keyed on
/// database identity (e.g. a resident server's compiled-plan cache)
/// can tell two different contents registered under the same name
/// apart. The epoch is bookkeeping, not data: equality ignores it.
///
/// Each epoch has at most one [`Snapshot`], built on first use and
/// shared by clones until either side mutates.
#[derive(Debug, Clone)]
pub struct Database {
    relations: BTreeMap<String, Relation>,
    /// Generation token; see the type docs.
    epoch: u64,
    /// This epoch's interned snapshot; cleared by every mutation.
    snapshot: OnceLock<Arc<Snapshot>>,
}

impl Default for Database {
    fn default() -> Self {
        Database {
            relations: BTreeMap::new(),
            epoch: next_epoch(),
            snapshot: OnceLock::new(),
        }
    }
}

impl PartialEq for Database {
    fn eq(&self, other: &Self) -> bool {
        // Structural equality only: the epoch is cache-invalidation
        // bookkeeping, and two builds of the same content must compare
        // equal.
        self.relations == other.relations
    }
}

impl Eq for Database {}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// The generation token: distinct whenever the contents could be.
    /// Any two databases that were ever observably different — or the
    /// same database before and after a mutation — carry different
    /// epochs, so `(name, epoch)` is a sound cache key where a name
    /// alone is not.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Stamp a fresh generation and drop the old one's snapshot;
    /// called by every mutating method.
    fn touch(&mut self) {
        self.epoch = next_epoch();
        self.snapshot = OnceLock::new();
    }

    /// This epoch's interned snapshot, built on first use. Concurrent
    /// first callers share one build.
    pub fn snapshot(&self) -> &Arc<Snapshot> {
        self.snapshot.get_or_init(|| Arc::new(Snapshot::build(self)))
    }

    /// Add a relation; errors if the name is taken.
    pub fn add_relation(&mut self, rel: Relation) -> Result<()> {
        let name = rel.schema().name().to_string();
        if self.relations.contains_key(&name) {
            return Err(DataError::DuplicateRelation(name));
        }
        self.relations.insert(name, rel);
        self.touch();
        Ok(())
    }

    /// Add or replace a relation.
    pub fn set_relation(&mut self, rel: Relation) {
        self.relations
            .insert(rel.schema().name().to_string(), rel);
        self.touch();
    }

    /// Create an empty relation under `schema` and add it.
    pub fn add_empty(&mut self, schema: RelationSchema) -> Result<()> {
        self.add_relation(Relation::empty(schema))
    }

    /// Look up a relation by name.
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name)
    }

    /// Look up a relation by name, as an error-carrying result.
    pub fn relation_required(&self, name: &str) -> Result<&Relation> {
        self.relations
            .get(name)
            .ok_or_else(|| DataError::UnknownRelation(name.to_string()))
    }

    /// Mutable lookup. Conservatively stamps a fresh epoch: handing out
    /// `&mut` means the contents may change.
    pub fn relation_mut(&mut self, name: &str) -> Option<&mut Relation> {
        if self.relations.contains_key(name) {
            self.touch();
        }
        self.relations.get_mut(name)
    }

    /// Remove a relation, returning it if present.
    pub fn remove_relation(&mut self, name: &str) -> Option<Relation> {
        let removed = self.relations.remove(name);
        if removed.is_some() {
            self.touch();
        }
        removed
    }

    /// Iterate over relations in name order.
    pub fn relations(&self) -> impl Iterator<Item = &Relation> + '_ {
        self.relations.values()
    }

    /// Names of all relations, in order.
    pub fn relation_names(&self) -> Vec<&str> {
        self.relations.keys().map(String::as_str).collect()
    }

    /// Total number of tuples across all relations — the `|D|` that the
    /// paper's polynomial package-size bound `p(|D|)` is measured in.
    pub fn size(&self) -> usize {
        self.relations.values().map(Relation::len).sum()
    }

    /// Insert a tuple into a named relation.
    pub fn insert(&mut self, rel: &str, t: Tuple) -> Result<bool> {
        let inserted = self
            .relations
            .get_mut(rel)
            .ok_or_else(|| DataError::UnknownRelation(rel.to_string()))?
            .insert(t)?;
        if inserted {
            self.touch();
        }
        Ok(inserted)
    }

    /// Remove a tuple from a named relation; `Ok(false)` if absent.
    pub fn delete(&mut self, rel: &str, t: &Tuple) -> Result<bool> {
        let removed = self
            .relations
            .get_mut(rel)
            .ok_or_else(|| DataError::UnknownRelation(rel.to_string()))?
            .remove(t);
        if removed {
            self.touch();
        }
        Ok(removed)
    }

    /// The active domain `adom(D)`: every value in every relation.
    pub fn active_domain(&self) -> ActiveDomain {
        self.relations
            .values()
            .flat_map(|r| r.iter().flat_map(|t| t.values().iter().cloned()))
            .collect()
    }

    /// A copy of this database with one extra relation bound. This
    /// clones every relation; to evaluate a compatibility constraint
    /// `Qc(N, D)` with the package `N` bound as `R_Q`, bind it as an
    /// overlay instead (`Query::has_answer_with` or a compiled plan).
    pub fn with_relation(&self, rel: Relation) -> Database {
        let mut db = self.clone();
        db.set_relation(rel);
        db
    }
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in self.relations.values() {
            write!(f, "{r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{tuple, AttrType};

    fn db() -> Database {
        let mut db = Database::new();
        let r = RelationSchema::new("r", [("a", AttrType::Int)]).unwrap();
        let s = RelationSchema::new("s", [("b", AttrType::Str)]).unwrap();
        db.add_relation(Relation::from_tuples(r, [tuple![1], tuple![2]]).unwrap())
            .unwrap();
        db.add_relation(Relation::from_tuples(s, [tuple!["x"]]).unwrap())
            .unwrap();
        db
    }

    #[test]
    fn size_counts_all_tuples() {
        assert_eq!(db().size(), 3);
    }

    #[test]
    fn duplicate_relation_rejected() {
        let mut d = db();
        let r = RelationSchema::new("r", [("a", AttrType::Int)]).unwrap();
        assert!(d.add_empty(r).is_err());
    }

    #[test]
    fn insert_and_delete() {
        let mut d = db();
        assert!(d.insert("r", tuple![3]).unwrap());
        assert_eq!(d.size(), 4);
        assert!(d.delete("r", &tuple![3]).unwrap());
        assert!(!d.delete("r", &tuple![3]).unwrap());
        assert!(d.insert("nope", tuple![3]).is_err());
    }

    #[test]
    fn active_domain_collects_all_values() {
        let dom = db().active_domain();
        assert_eq!(dom.len(), 3);
        assert!(dom.contains(&Value::Int(1)));
        assert!(dom.contains(&Value::str("x")));
    }

    #[test]
    fn with_relation_overlays_without_mutating() {
        let d = db();
        let extra = RelationSchema::new("rq", [("a", AttrType::Int)]).unwrap();
        let overlay = d.with_relation(Relation::from_tuples(extra, [tuple![9]]).unwrap());
        assert!(overlay.relation("rq").is_some());
        assert!(d.relation("rq").is_none());
    }

    #[test]
    fn required_lookup_errors() {
        assert!(matches!(
            db().relation_required("zzz"),
            Err(DataError::UnknownRelation(_))
        ));
    }

    #[test]
    fn epochs_are_unique_and_bump_on_mutation() {
        let a = Database::new();
        let b = Database::new();
        assert_ne!(a.epoch(), b.epoch(), "fresh databases get distinct epochs");

        let mut d = db();
        let e0 = d.epoch();
        assert!(d.insert("r", tuple![9]).unwrap());
        let e1 = d.epoch();
        assert_ne!(e0, e1, "insert must re-stamp the epoch");
        // A no-op insert (duplicate) leaves the epoch alone.
        assert!(!d.insert("r", tuple![9]).unwrap());
        assert_eq!(d.epoch(), e1);
        assert!(d.delete("r", &tuple![9]).unwrap());
        assert_ne!(d.epoch(), e1);
        let e2 = d.epoch();
        assert!(!d.delete("r", &tuple![9]).unwrap());
        assert_eq!(d.epoch(), e2, "deleting an absent tuple is a no-op");
        d.remove_relation("s").unwrap();
        assert_ne!(d.epoch(), e2);
        let e3 = d.epoch();
        assert!(d.remove_relation("s").is_none());
        assert_eq!(d.epoch(), e3);
        d.relation_mut("r").unwrap();
        assert_ne!(d.epoch(), e3, "handing out &mut re-stamps conservatively");
    }

    #[test]
    fn equality_ignores_the_epoch() {
        // Two independent builds of the same content have different
        // epochs but must still compare equal — the epoch is cache
        // bookkeeping, not data.
        let a = db();
        let b = db();
        assert_ne!(a.epoch(), b.epoch());
        assert_eq!(a, b);
    }
}
