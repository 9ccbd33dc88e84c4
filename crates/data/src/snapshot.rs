//! The interned snapshot of a database, shared by every query plan.
//!
//! A [`Snapshot`] is `D` laid out once for the conjunctive executor:
//! one [`ValueInterner`] over every value of `D` (relations in name
//! order, rows in canonical order, row-major), and per relation a
//! [`Table`] of row-major `u32` cells. A [`Database`] builds its
//! snapshot lazily, at most once per epoch, and hands out one `Arc` to
//! every compiled plan and one-shot call, so compiling a query costs
//! O(|query|) and never re-interns `D`.
//!
//! Each column's inverted index — its [`Postings`] — is built on first
//! touch, at most once (`query.index_builds` counts builds), and
//! stored as CSR: one array of row numbers grouped by value, rows
//! ascending within a value, plus each value's `(start, len)`. A value
//! holding more than `rows/32` rows also gets a dense [`ItemBitset`]:
//! past that point a bitset (`rows/8` bytes) is smaller than its run
//! (4 bytes per row) — the container rule of Roaring bitmaps (Chambi
//! et al., 2016). At most 32 values of a column can be dense, so a
//! column's postings take O(rows + distinct) bytes instead of the
//! O(rows × distinct) of one bitset per value.

use std::fmt;
use std::sync::OnceLock;

use crate::{Database, ItemBitset, ValueInterner};

/// The interned layout of a whole database. See the module docs.
pub struct Snapshot {
    syms: ValueInterner,
    /// Relation names, ascending (the database's catalog order).
    names: Vec<String>,
    tables: Vec<Table>,
}

impl Snapshot {
    /// Intern every relation of `db`: relations in name order, rows in
    /// canonical order.
    pub fn build(db: &Database) -> Snapshot {
        let mut syms = ValueInterner::new();
        let (mut names, mut tables) = (Vec::new(), Vec::new());
        for rel in db.relations() {
            let arity = rel.schema().arity();
            let mut cells = Vec::with_capacity(rel.len() * arity);
            for t in rel.iter() {
                cells.extend(t.values().iter().map(|v| syms.intern(v)));
            }
            names.push(rel.schema().name().to_string());
            tables.push(Table::new(arity, rel.len(), cells));
        }
        Snapshot { syms, names, tables }
    }

    /// The interner over all of `D`.
    pub fn symbols(&self) -> &ValueInterner {
        &self.syms
    }

    /// The index of the relation called `name`, if any.
    pub fn find(&self, name: &str) -> Option<usize> {
        self.names.binary_search_by(|n| n.as_str().cmp(name)).ok()
    }

    /// The name of relation `i`.
    pub fn name(&self, i: usize) -> &str {
        &self.names[i]
    }

    /// All relations' tables, indexed like [`Snapshot::find`].
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }
}

impl fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Snapshot")
            .field("symbols", &self.syms.len())
            .field("relations", &self.names)
            .finish()
    }
}

/// Rows of interned cells with lazily built per-column [`Postings`]:
/// a snapshot relation, or a relation a query run binds itself.
#[derive(Debug)]
pub struct Table {
    arity: usize,
    rows: usize,
    /// Row-major: row `r` is `cells[r * arity..(r + 1) * arity]`.
    cells: Vec<u32>,
    postings: Box<[OnceLock<Postings>]>,
}

impl Table {
    /// A table of `rows` rows over row-major `cells` (`rows * arity`
    /// of them).
    pub fn new(arity: usize, rows: usize, cells: Vec<u32>) -> Table {
        debug_assert_eq!(cells.len(), rows * arity);
        Table {
            arity,
            rows,
            cells,
            postings: (0..arity).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Number of columns.
    #[inline]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The cells of row `row`.
    #[inline]
    pub fn row(&self, row: u32) -> &[u32] {
        let start = row as usize * self.arity;
        &self.cells[start..start + self.arity]
    }

    /// Column `col`'s postings, built on first use. Concurrent first
    /// callers block on one build rather than racing their own.
    #[inline]
    pub fn postings(&self, col: usize) -> &Postings {
        self.postings[col].get_or_init(|| {
            pkgrec_trace::counter!("query.index_builds");
            Postings::build(self, col)
        })
    }
}

/// One column's inverted index: value id → the rows holding it. See
/// the module docs for the layout.
#[derive(Debug)]
pub struct Postings {
    /// Distinct value ids, ascending.
    vals: Vec<u32>,
    /// Value `vals[i]`'s rows are `rows[starts[i]..starts[i + 1]]`.
    starts: Vec<u32>,
    rows: Vec<u32>,
    /// The dense values' bitsets, keyed by their index in `vals`.
    dense: Vec<(u32, ItemBitset)>,
    /// Runs longer than this are dense.
    sparse_max: usize,
}

impl Postings {
    fn build(table: &Table, col: usize) -> Postings {
        let mut pairs: Vec<(u32, u32)> = (0..table.rows as u32)
            .map(|row| (table.row(row)[col], row))
            .collect();
        pairs.sort_unstable();
        let (mut vals, mut starts) = (Vec::new(), Vec::new());
        for (i, &(v, _)) in pairs.iter().enumerate() {
            if vals.last() != Some(&v) {
                vals.push(v);
                starts.push(i as u32);
            }
        }
        starts.push(pairs.len() as u32);
        let rows: Vec<u32> = pairs.iter().map(|&(_, row)| row).collect();
        let sparse_max = table.rows / 32;
        let dense = starts
            .windows(2)
            .enumerate()
            .filter(|(_, w)| (w[1] - w[0]) as usize > sparse_max)
            .map(|(i, w)| {
                let run = &rows[w[0] as usize..w[1] as usize];
                (i as u32, ItemBitset::from_ids(run, table.rows))
            })
            .collect();
        vals.shrink_to_fit();
        starts.shrink_to_fit();
        Postings { vals, starts, rows, dense, sparse_max }
    }

    /// The rows whose column holds value `id`, or `None` when no row
    /// does.
    #[inline]
    pub fn get(&self, id: u32) -> Option<Posting<'_>> {
        let i = self.vals.binary_search(&id).ok()?;
        let rows = &self.rows[self.starts[i] as usize..self.starts[i + 1] as usize];
        let bits = (rows.len() > self.sparse_max).then(|| {
            let d = self.dense.binary_search_by_key(&(i as u32), |(k, _)| *k);
            &self.dense[d.expect("long runs are dense")].1
        });
        Some(Posting { rows, bits })
    }

    /// Heap bytes held, for the memory bound the module docs state.
    pub fn heap_bytes(&self) -> usize {
        let words: usize = self.dense.iter().map(|(_, b)| b.word_len() * 8).sum();
        (self.vals.capacity() + self.starts.capacity() + self.rows.capacity()) * 4
            + self.dense.capacity() * std::mem::size_of::<(u32, ItemBitset)>()
            + words
    }
}

/// The rows holding one value: an ascending run, plus the same set as
/// a bitset when the value is dense.
#[derive(Debug, Clone, Copy)]
pub struct Posting<'a> {
    /// The rows, ascending.
    pub rows: &'a [u32],
    /// The same rows as a bitset, for a dense value.
    pub bits: Option<&'a ItemBitset>,
}

impl Posting<'_> {
    /// Whether all `postings` share a row; an empty slice is the
    /// universe. All-dense sets run the word loop; otherwise the
    /// shortest run is walked and each of its rows checked against the
    /// others (`contains` on a bitset, galloping search on a run),
    /// stopping at the first row in all of them.
    pub fn intersects_all(postings: &[Posting<'_>]) -> bool {
        let shortest_as_bits: ItemBitset;
        let mut bits: Vec<&ItemBitset> = postings.iter().filter_map(|p| p.bits).collect();
        // Each run's unread rest (candidate rows only ascend), shortest
        // first.
        let mut runs: Vec<&[u32]> =
            postings.iter().filter(|p| p.bits.is_none()).map(|p| p.rows).collect();
        runs.sort_unstable_by_key(|run| run.len());
        // With no bitset to filter rows, galloping through runs of
        // similar length mispredicts on most rows. When the shortest run
        // holds more than 1/64 of its range, a bitset of it is smaller
        // than the run: walk the next run against that instead.
        if let ([], [lead, _, ..]) = (&bits[..], &runs[..]) {
            let span = lead.last().map_or(0, |&r| r as usize + 1);
            if lead.len() * 64 > span {
                shortest_as_bits = ItemBitset::from_ids(lead, span);
                bits.push(&shortest_as_bits);
                runs.remove(0);
            }
        }
        let Some((lead, others)) = runs.split_first_mut() else {
            return ItemBitset::intersection_nonempty(&bits);
        };
        lead.iter().any(|&row| {
            bits.iter().all(|b| b.contains(row)) && others.iter_mut().all(|run| gallop(run, row))
        })
    }
}

/// Drop the rows of `run` below `row` and report whether `row` comes
/// next. Runs of similar density advance a row or two per call, so a
/// few rows are scanned before the exponential and binary search.
fn gallop(run: &mut &[u32], row: u32) -> bool {
    let mut hi = 4;
    let skip = match run.iter().take(hi).position(|&r| r >= row) {
        Some(i) => i,
        None => {
            while hi < run.len() && run[hi - 1] < row {
                hi *= 2;
            }
            let (lo, hi) = ((hi / 2).min(run.len()), hi.min(run.len()));
            lo + run[lo..hi].partition_point(|&r| r < row)
        }
    };
    *run = &run[skip..];
    run.first() == Some(&row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{tuple, AttrType, Relation, RelationSchema, Value};

    fn db() -> Database {
        let mut db = Database::new();
        let schema =
            RelationSchema::new("r", [("a", AttrType::Int), ("b", AttrType::Str)]).unwrap();
        db.add_relation(
            Relation::from_tuples(schema, [tuple![1, "x"], tuple![2, "y"], tuple![1, "z"]])
                .unwrap(),
        )
        .unwrap();
        db
    }

    #[test]
    fn snapshot_layout_matches_canonical_rows() {
        let db = db();
        let snap = db.snapshot();
        let r = snap.find("r").unwrap();
        assert_eq!(snap.name(r), "r");
        assert!(snap.find("s").is_none());
        let table = &snap.tables()[r];
        assert_eq!((table.rows(), table.arity()), (3, 2));
        for (row, t) in db.relation("r").unwrap().iter().enumerate() {
            for col in 0..2 {
                assert_eq!(snap.symbols().resolve(table.row(row as u32)[col]), &t[col]);
            }
        }
        // Canonical order sorts [1,"x"], [1,"z"], [2,"y"]: rows 0 and 1
        // hold a = 1. Three rows make every value dense (rows/32 = 0).
        let one = snap.symbols().get(&Value::Int(1)).unwrap();
        let p = table.postings(0).get(one).unwrap();
        assert_eq!(p.rows, &[0, 1]);
        assert_eq!(p.bits.unwrap().iter_ones().collect::<Vec<_>>(), vec![0, 1]);
        assert!(table.postings(0).get(999).is_none());
    }

    /// Two sparse columns whose runs are long for their range: the
    /// shortest becomes a temporary bitset.
    #[test]
    fn long_sparse_runs_intersect_like_the_model() {
        let rows = 640;
        let cells = (0..rows as u32).flat_map(|r| [r % 40, r % 41]).collect();
        let table = Table::new(2, rows, cells);
        for (a, b) in (0..40).flat_map(|a| (0..41).map(move |b| (a, b))) {
            let ps = [table.postings(0).get(a).unwrap(), table.postings(1).get(b).unwrap()];
            assert!(ps.iter().all(|p| p.bits.is_none() && p.rows.len() * 64 > rows));
            let want = (0..rows as u32).any(|r| r % 40 == a && r % 41 == b);
            assert_eq!(Posting::intersects_all(&ps), want, "probe ({a}, {b})");
        }
    }

    #[test]
    fn gallop_skips_to_the_first_row_not_below() {
        let rows: Vec<u32> = (0..100).map(|i| i * 3).collect();
        let mut run = &rows[..];
        assert!(gallop(&mut run, 0));
        assert!(!gallop(&mut run, 4));
        assert_eq!(run[0], 6);
        assert!(gallop(&mut run, 150));
        assert!(!gallop(&mut run, 1000));
        assert!(run.is_empty());
    }
}
