use std::collections::BTreeSet;
use std::fmt;

use crate::{RelationSchema, Result, Tuple, Value};

/// A relation instance: a set of tuples under a [`RelationSchema`].
///
/// Tuples are stored in a `BTreeSet` so iteration order is canonical —
/// every solver, counter and bench in the workspace is deterministic as a
/// consequence. Query evaluation reads relations through the owning
/// database's interned [`Snapshot`](crate::Snapshot), which numbers
/// rows in this order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relation {
    schema: RelationSchema,
    tuples: BTreeSet<Tuple>,
}

impl Relation {
    /// An empty relation under the given schema.
    pub fn empty(schema: RelationSchema) -> Self {
        Relation {
            schema,
            tuples: BTreeSet::new(),
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
        Ok(self.tuples.insert(t))
    }

    /// Remove a tuple. Returns whether it was present.
    pub fn remove(&mut self, t: &Tuple) -> bool {
        self.tuples.remove(t)
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
