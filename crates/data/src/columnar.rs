//! Columnar (struct-of-arrays) relation storage and item bitsets.
//!
//! The row-oriented [`Relation`](crate::Relation) stores `Tuple`s —
//! every probe chases an `Arc` per value. For the hot probes of package
//! search (membership `t ∈ Q(D)` and antimonotone-`Qc` compat checks),
//! compiled plans instead want the layout scalable package-query
//! engines use: one dense-`u32` column vector per attribute over a
//! per-relation [`ValueInterner`], plus an inverted index mapping each
//! column value to the *set of rows* carrying it, represented as a
//! word-packed [`ItemBitset`]. A fully-bound atom probe then reduces to
//! intersecting one bitset per column — branch-free `u64` AND loops the
//! compiler auto-vectorizes — instead of scanning an index bucket row
//! by row.
//!
//! A [`ColumnarRelation`] is built lazily from the canonical
//! (`BTreeSet`-ordered) tuple layout and cached on the owning
//! `Relation`: double-checked under an `RwLock`, invalidated on
//! mutation, never cloned across relation clones. Row numbers are therefore *canonical positions*, identical
//! to the row numbering compiled plans derive from `Relation::iter`.

use std::collections::HashMap;
use std::sync::Arc;

use crate::{Relation, ValueInterner};

/// A set of dense row/item ids packed into `u64` words.
///
/// No dependencies, no compression: the sets this represents (rows of
/// one relation) are bounded by the relation's cardinality, and the
/// word ops (`and`/`or`/`andnot`) are what the probe hot path needs —
/// plain slice loops over `u64`s that LLVM turns into SIMD.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ItemBitset {
    /// Packed words; bit `i` of word `w` is id `w * 64 + i`. Trailing
    /// words may be zero; `words.len()` is the capacity the set was
    /// built with, not its cardinality.
    words: Vec<u64>,
}

impl ItemBitset {
    /// An empty set able to hold ids `0..capacity` without resizing.
    pub fn with_capacity(capacity: usize) -> ItemBitset {
        ItemBitset {
            words: vec![0; capacity.div_ceil(64)],
        }
    }

    /// An empty set.
    pub fn new() -> ItemBitset {
        ItemBitset::default()
    }

    /// Number of backing words.
    pub fn word_len(&self) -> usize {
        self.words.len()
    }

    /// The backing word at `w`, or 0 past the end — so sets of
    /// different capacities compose in the word loops below.
    #[inline]
    pub fn word(&self, w: usize) -> u64 {
        self.words.get(w).copied().unwrap_or(0)
    }

    /// Insert an id, growing the word vector as needed. Returns whether
    /// the id was new.
    pub fn insert(&mut self, id: u32) -> bool {
        let (w, bit) = (id as usize / 64, 1u64 << (id % 64));
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let new = self.words[w] & bit == 0;
        self.words[w] |= bit;
        new
    }

    /// Remove an id. Returns whether it was present.
    pub fn remove(&mut self, id: u32) -> bool {
        let (w, bit) = (id as usize / 64, 1u64 << (id % 64));
        match self.words.get_mut(w) {
            Some(word) if *word & bit != 0 => {
                *word &= !bit;
                true
            }
            _ => false,
        }
    }

    /// Membership test.
    pub fn contains(&self, id: u32) -> bool {
        self.word(id as usize / 64) & (1u64 << (id % 64)) != 0
    }

    /// Number of ids in the set.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// `self &= other`.
    pub fn and_assign(&mut self, other: &ItemBitset) {
        for (w, word) in self.words.iter_mut().enumerate() {
            *word &= other.word(w);
        }
    }

    /// `self |= other`.
    pub fn or_assign(&mut self, other: &ItemBitset) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (w, word) in self.words.iter_mut().enumerate() {
            *word |= other.word(w);
        }
    }

    /// `self &= !other` (set difference).
    pub fn andnot_assign(&mut self, other: &ItemBitset) {
        for (w, word) in self.words.iter_mut().enumerate() {
            *word &= !other.word(w);
        }
    }

    /// `self & other` as a new set.
    pub fn and(&self, other: &ItemBitset) -> ItemBitset {
        let mut out = self.clone();
        out.and_assign(other);
        out
    }

    /// `self | other` as a new set.
    pub fn or(&self, other: &ItemBitset) -> ItemBitset {
        let mut out = self.clone();
        out.or_assign(other);
        out
    }

    /// `self & !other` as a new set.
    pub fn andnot(&self, other: &ItemBitset) -> ItemBitset {
        let mut out = self.clone();
        out.andnot_assign(other);
        out
    }

    /// Whether `self ∩ other` is nonempty, with early exit at the first
    /// overlapping word — the probe fast path never materializes the
    /// intersection.
    pub fn intersects(&self, other: &ItemBitset) -> bool {
        let n = self.words.len().min(other.words.len());
        (0..n).any(|w| self.words[w] & other.words[w] != 0)
    }

    /// Whether the intersection of all `sets` is nonempty, scanning
    /// word-parallel with early exit at the first surviving word.
    /// An empty slice is the universe (vacuously nonempty).
    pub fn intersection_nonempty(sets: &[&ItemBitset]) -> bool {
        let Some((first, rest)) = sets.split_first() else {
            return true;
        };
        'words: for (w, &word) in first.words.iter().enumerate() {
            let mut acc = word;
            if acc == 0 {
                continue;
            }
            for s in rest {
                acc &= s.word(w);
                if acc == 0 {
                    continue 'words;
                }
            }
            return true;
        }
        false
    }

    /// Iterate the ids in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut rem = word;
            std::iter::from_fn(move || {
                if rem == 0 {
                    return None;
                }
                let bit = rem.trailing_zeros();
                rem &= rem - 1;
                Some(w as u32 * 64 + bit)
            })
        })
    }
}

impl FromIterator<u32> for ItemBitset {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> ItemBitset {
        let mut s = ItemBitset::new();
        for id in iter {
            s.insert(id);
        }
        s
    }
}

/// A relation re-laid out column-major over dense interned ids, with a
/// per-column inverted index. See the module docs.
///
/// Row numbering is the relation's canonical (sorted) tuple order, so
/// row `r` here is the `r`-th tuple of `Relation::iter` — the same
/// numbering compiled plans use for their row-major cell arrays.
#[derive(Debug)]
pub struct ColumnarRelation {
    rows: usize,
    /// This relation's private interner: ids are dense in first-seen
    /// (row-major, canonical) order and meaningless outside this layout.
    interner: ValueInterner,
    /// One dense-id vector per attribute, each `rows` long.
    columns: Vec<Vec<u32>>,
    /// Per column: interned value id → the set of rows carrying it.
    /// Bitsets are `Arc`-shared so consumers (compiled plans) can hold
    /// them without copying words.
    index: Vec<HashMap<u32, Arc<ItemBitset>>>,
}

impl ColumnarRelation {
    /// Build the columnar layout of `rel` (canonical row order).
    pub fn build(rel: &Relation) -> ColumnarRelation {
        let arity = rel.schema().arity();
        let rows = rel.len();
        let mut interner = ValueInterner::new();
        let mut columns: Vec<Vec<u32>> =
            (0..arity).map(|_| Vec::with_capacity(rows)).collect();
        let mut building: Vec<HashMap<u32, ItemBitset>> = vec![HashMap::new(); arity];
        for (row, t) in rel.iter().enumerate() {
            for (col, v) in t.values().iter().enumerate() {
                let id = interner.intern(v);
                columns[col].push(id);
                building[col]
                    .entry(id)
                    .or_insert_with(|| ItemBitset::with_capacity(rows))
                    .insert(row as u32);
            }
        }
        let index = building
            .into_iter()
            .map(|m| m.into_iter().map(|(id, bs)| (id, Arc::new(bs))).collect())
            .collect();
        ColumnarRelation {
            rows,
            interner,
            columns,
            index,
        }
    }

    /// Number of rows (canonical positions).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// The relation-local interner mapping this layout's dense ids to
    /// values.
    pub fn interner(&self) -> &ValueInterner {
        &self.interner
    }

    /// Column `col` as a dense-id vector in canonical row order.
    pub fn column(&self, col: usize) -> &[u32] {
        &self.columns[col]
    }

    /// The rows whose column `col` holds the value with local id `id`,
    /// or `None` when no row does.
    pub fn rows_with(&self, col: usize, id: u32) -> Option<&Arc<ItemBitset>> {
        self.index[col].get(&id)
    }

    /// The full inverted index of column `col`.
    pub fn column_index(&self, col: usize) -> &HashMap<u32, Arc<ItemBitset>> {
        &self.index[col]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{tuple, AttrType, RelationSchema, Value};

    #[test]
    fn bitset_ops_roundtrip() {
        let mut a = ItemBitset::new();
        assert!(a.insert(3));
        assert!(a.insert(200));
        assert!(!a.insert(3));
        assert!(a.contains(3) && a.contains(200) && !a.contains(4));
        assert_eq!(a.count_ones(), 2);
        assert_eq!(a.iter_ones().collect::<Vec<_>>(), vec![3, 200]);
        assert!(a.remove(3));
        assert!(!a.remove(3));
        assert_eq!(a.count_ones(), 1);

        let b: ItemBitset = [200u32, 7].into_iter().collect();
        assert!(a.intersects(&b));
        assert_eq!(a.and(&b).iter_ones().collect::<Vec<_>>(), vec![200]);
        assert_eq!(b.or(&a).count_ones(), 2);
        assert_eq!(b.andnot(&a).iter_ones().collect::<Vec<_>>(), vec![7]);
        assert!(ItemBitset::intersection_nonempty(&[&a, &b]));
        let empty = ItemBitset::new();
        assert!(empty.is_empty());
        assert!(!ItemBitset::intersection_nonempty(&[&a, &empty]));
        assert!(ItemBitset::intersection_nonempty(&[]));
    }

    #[test]
    fn mixed_capacity_word_loops_compose() {
        let small: ItemBitset = [1u32].into_iter().collect();
        let big: ItemBitset = [1u32, 1000].into_iter().collect();
        assert!(small.intersects(&big));
        assert!(big.intersects(&small));
        let mut grown = small.clone();
        grown.or_assign(&big);
        assert_eq!(grown.count_ones(), 2);
        let mut shrunk = big.clone();
        shrunk.and_assign(&small);
        assert_eq!(shrunk.iter_ones().collect::<Vec<_>>(), vec![1]);
    }

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
    fn columnar_layout_matches_canonical_rows() {
        let r = rel();
        let c = ColumnarRelation::build(&r);
        assert_eq!(c.rows(), 3);
        assert_eq!(c.arity(), 2);
        for (row, t) in r.iter().enumerate() {
            for col in 0..2 {
                assert_eq!(c.interner().resolve(c.column(col)[row]), &t[col]);
            }
        }
        let one = c.interner().get(&Value::Int(1)).unwrap();
        let rows = c.rows_with(0, one).unwrap();
        // Canonical order sorts [1,"x"], [1,"z"], [2,"y"]: rows 0 and 1
        // hold a = 1.
        assert_eq!(rows.iter_ones().collect::<Vec<_>>(), vec![0, 1]);
        assert!(c.rows_with(0, 999).is_none());
    }

    #[test]
    fn relation_caches_and_invalidates_columnar() {
        let mut r = rel();
        let a = r.columnar();
        let b = r.columnar();
        assert!(Arc::ptr_eq(&a, &b), "cache hands out one build");
        r.insert(tuple![5, "w"]).unwrap();
        let c = r.columnar();
        assert!(!Arc::ptr_eq(&a, &c), "mutation invalidates the cache");
        assert_eq!(c.rows(), 4);
        r.remove(&tuple![5, "w"]);
        assert_eq!(r.columnar().rows(), 3);
        // Clones rebuild lazily rather than sharing the cache.
        let clone = r.clone();
        assert_eq!(clone.columnar().rows(), 3);
    }
}
