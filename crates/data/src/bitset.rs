//! [`ItemBitset`]: the dense container of the snapshot's postings.

/// A set of dense row/item ids packed into `u64` words.
///
/// No dependencies, no compression: a [`Posting`](crate::Posting)
/// carries one only when its value holds more than `rows/32` of a
/// column's rows, where the bitset is the smaller container, and the
/// word ops are plain slice loops over `u64`s that LLVM turns into
/// SIMD.
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

    /// The set of `ids`, able to hold ids `0..capacity`.
    pub(crate) fn from_ids(ids: &[u32], capacity: usize) -> ItemBitset {
        let mut words = vec![0u64; capacity.div_ceil(64)];
        for &id in ids {
            words[id as usize / 64] |= 1 << (id % 64);
        }
        ItemBitset { words }
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
    #[inline]
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
