use std::fmt;

use pkgrec_data::Tuple;

/// A package: a set of items (tuples) drawn from a query answer `Q(D)`
/// (Section 2). Stored as a sorted, deduplicated vector, so packages
/// compare and hash canonically (lexicographically, as a sorted set
/// would) and top-k selections are deterministic.
///
/// The search inserts items in pool order — `Q(D)` is sorted — so the
/// common `insert` is a push past the last item and the matching
/// `remove` a pop; other positions fall back to a binary search.
///
/// The empty package is representable — the paper uses it explicitly
/// ("no recommendation is made", Theorem 4.1 proof) and excludes it from
/// selection via `cost(∅) = ∞`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Package {
    /// Strictly increasing in `Tuple` order.
    items: Vec<Tuple>,
}

impl Package {
    /// The empty package.
    pub fn empty() -> Package {
        Package::default()
    }

    /// A package over the given items.
    pub fn new(items: impl IntoIterator<Item = Tuple>) -> Package {
        let mut items: Vec<Tuple> = items.into_iter().collect();
        items.sort_unstable();
        items.dedup();
        Package { items }
    }

    /// A singleton package (an *item* in the paper's sense).
    pub fn singleton(item: Tuple) -> Package {
        Package { items: vec![item] }
    }

    /// Number of items `|N|`.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the package is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterate over items in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> + '_ {
        self.items.iter()
    }

    /// Membership test.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.items.binary_search(t).is_ok()
    }

    /// Add an item; returns whether it was new.
    pub fn insert(&mut self, t: Tuple) -> bool {
        if self.items.last().is_none_or(|last| *last < t) {
            self.items.push(t);
            return true;
        }
        match self.items.binary_search(&t) {
            Ok(_) => false,
            Err(at) => {
                self.items.insert(at, t);
                true
            }
        }
    }

    /// Remove an item; returns whether it was present.
    pub fn remove(&mut self, t: &Tuple) -> bool {
        if self.items.last() == Some(t) {
            self.items.pop();
            return true;
        }
        match self.items.binary_search(t) {
            Ok(at) => {
                self.items.remove(at);
                true
            }
            Err(_) => false,
        }
    }

    /// Whether this package is a subset of another.
    pub fn is_subset(&self, other: &Package) -> bool {
        self.len() <= other.len() && self.items.iter().all(|t| other.contains(t))
    }

    /// The items as a vector.
    pub fn to_vec(&self) -> Vec<Tuple> {
        self.items.clone()
    }
}

impl FromIterator<Tuple> for Package {
    fn from_iter<I: IntoIterator<Item = Tuple>>(iter: I) -> Package {
        Package::new(iter)
    }
}

impl<'a> IntoIterator for &'a Package {
    type Item = &'a Tuple;
    type IntoIter = std::slice::Iter<'a, Tuple>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

/// Set-style, as the package's items are a set:
/// `Package { items: {Tuple([Int(1)])} }`.
impl fmt::Debug for Package {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Items<'a>(&'a [Tuple]);
        impl fmt::Debug for Items<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_set().entries(self.0).finish()
            }
        }
        f.debug_struct("Package")
            .field("items", &Items(&self.items))
            .finish()
    }
}

impl fmt::Display for Package {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, t) in self.items.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pkgrec_data::tuple;

    #[test]
    fn canonical_and_deduplicated() {
        let p = Package::new([tuple![2], tuple![1], tuple![2]]);
        assert_eq!(p.len(), 2);
        let order: Vec<Tuple> = p.iter().cloned().collect();
        assert_eq!(order, vec![tuple![1], tuple![2]]);
    }

    #[test]
    fn equality_ignores_insertion_order() {
        let a = Package::new([tuple![1], tuple![2]]);
        let b = Package::new([tuple![2], tuple![1]]);
        assert_eq!(a, b);
    }

    #[test]
    fn subset_and_membership() {
        let a = Package::new([tuple![1]]);
        let b = Package::new([tuple![1], tuple![2]]);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(b.contains(&tuple![2]));
        assert!(Package::empty().is_subset(&a));
    }

    #[test]
    fn mutation() {
        let mut p = Package::empty();
        assert!(p.insert(tuple![1]));
        assert!(!p.insert(tuple![1]));
        assert!(p.remove(&tuple![1]));
        assert!(p.is_empty());
    }

    #[test]
    fn display() {
        assert_eq!(Package::new([tuple![1, 2]]).to_string(), "{(1, 2)}");
        assert_eq!(Package::empty().to_string(), "{}");
    }
}
