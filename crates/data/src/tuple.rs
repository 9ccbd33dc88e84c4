use std::fmt;
use std::sync::Arc;


use crate::Value;

/// An immutable database row.
///
/// Tuples are the items of the paper's model: a package is a set of
/// tuples drawn from a query answer `Q(D)` (Section 2). They are shared
/// via `Arc` because package enumeration clones tuples heavily — a clone
/// is a pointer copy, but also an atomic read-modify-write on the
/// shared reference count (dropping it is another), so threads cloning
/// the same tuple contend on that count's cache line. A thread that
/// clones a tuple per search node should clone from its own copy
/// (`Tuple::new(t.values())`).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tuple(Arc<[Value]>);

impl Tuple {
    /// Build a tuple from values.
    pub fn new(values: impl Into<Vec<Value>>) -> Self {
        Tuple(Arc::from(values.into()))
    }

    /// Number of attributes (the tuple's arity).
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// The values of this tuple.
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// The value in position `i`, if in range.
    pub fn get(&self, i: usize) -> Option<&Value> {
        self.0.get(i)
    }

    /// Concatenate two tuples (used for Cartesian products in evaluation).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let mut v = Vec::with_capacity(self.arity() + other.arity());
        v.extend_from_slice(&self.0);
        v.extend_from_slice(&other.0);
        Tuple::new(v)
    }

    /// Project onto the given positions. Positions out of range are an
    /// internal logic error and panic.
    pub fn project(&self, positions: &[usize]) -> Tuple {
        Tuple::new(
            positions
                .iter()
                .map(|&i| self.0[i].clone())
                .collect::<Vec<_>>(),
        )
    }
}

impl std::ops::Index<usize> for Tuple {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        &self.0[i]
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Tuple(iter.into_iter().collect::<Vec<_>>().into())
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// Convenience macro for building tuples from heterogeneous literals.
///
/// ```
/// use pkgrec_data::{tuple, Value};
/// let t = tuple![1, "edi", true];
/// assert_eq!(t[1], Value::str("edi"));
/// ```
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::Tuple::new(vec![$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = tuple![1, "a", false];
        assert_eq!(t.arity(), 3);
        assert_eq!(t[0], Value::Int(1));
        assert_eq!(t.get(2), Some(&Value::Bool(false)));
        assert_eq!(t.get(3), None);
    }

    #[test]
    fn concat_preserves_order() {
        let t = tuple![1, 2].concat(&tuple![3]);
        assert_eq!(t, tuple![1, 2, 3]);
    }

    #[test]
    fn project_reorders_and_duplicates() {
        let t = tuple![10, 20, 30];
        assert_eq!(t.project(&[2, 0, 0]), tuple![30, 10, 10]);
    }

    #[test]
    fn display_is_parenthesized() {
        assert_eq!(tuple![1, "x"].to_string(), "(1, x)");
    }

    #[test]
    fn clone_is_shallow() {
        let t = tuple![1, 2, 3];
        let u = t.clone();
        assert_eq!(t, u);
        // Same allocation: Arc pointer equality.
        assert!(std::ptr::eq(t.values().as_ptr(), u.values().as_ptr()));
    }
}
