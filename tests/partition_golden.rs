//! Golden fingerprints of the SketchRefine partition tree.
//!
//! `PartitionIndex::build` must produce the identical tree for the same
//! items, columns and seed, whatever the internal layout of the builder:
//! every node's representative, size, children and leaf items, and the
//! exact bits of its per-column minima, maxima and sums. The
//! fingerprints below pin the tree bit for bit over six shapes: a
//! small `(id, price, score)` catalog clustered on price and score,
//! one column, three columns, no columns (the positional chunk
//! path), all-equal values (the degenerate-cluster fallback), and
//! values above 2^53, where the order of the f64 sums shows.
//!
//! The sketch answers on the catalog are pinned too: the FRP top-3 and
//! the MBP bound with the engine's default knobs.

use pkgrec::core::problems::{frp, mbp};
use pkgrec::core::{Ext, PackageFn, RecInstance, SizeBound, SketchParams, SolveOptions};
use pkgrec::data::{
    tuple, AttrType, Database, PartitionIndex, PartitionParams, Relation, RelationSchema, Tuple,
};
use pkgrec::query::{ConjunctiveQuery, Query};

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn list(&mut self, ws: impl ExactSizeIterator<Item = u64>) {
        self.word(ws.len() as u64);
        for w in ws {
            self.word(w);
        }
    }
}

/// Everything the tree carries, hashed in node order.
fn fingerprint(idx: &PartitionIndex) -> u64 {
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);
    h.word(idx.len() as u64);
    h.word(idx.root() as u64);
    h.word(idx.items_len() as u64);
    for n in idx.nodes() {
        h.word(n.rep as u64);
        h.word(n.size as u64);
        h.list(n.children.iter().map(|&c| c as u64));
        h.list(n.items.iter().map(|&i| i as u64));
        for agg in [&n.mins, &n.maxs, &n.sums] {
            h.list(agg.iter().map(|v| v.to_bits()));
        }
    }
    h.0
}

/// A deterministic split-mix stream, so the catalog does not depend on
/// any random-number crate's output.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo + 1) as u64) as i64
    }
}

const CATALOG_ITEMS: usize = 5_000;

/// `(id, price, score)` rows with price in `1..=1000` and score in
/// `1..=10000`, the distribution of the sketch benchmarks.
fn catalog() -> Vec<Tuple> {
    let mut rng = Mix(42);
    (0..CATALOG_ITEMS as i64)
        .map(|id| tuple![id, rng.range(1, 1000), rng.range(1, 10_000)])
        .collect()
}

/// The engine's default knobs over `columns`.
fn engine_params(columns: Vec<usize>) -> PartitionParams {
    let d = SketchParams::default();
    PartitionParams {
        fanout: d.fanout,
        leaf_cap: d.leaf_cap,
        seed: d.seed,
        columns,
    }
}

/// A narrow tree, so the shapes below recurse several levels deep.
fn narrow_params(columns: Vec<usize>) -> PartitionParams {
    PartitionParams {
        fanout: 4,
        leaf_cap: 8,
        seed: 7,
        columns,
    }
}

fn check(name: &str, items: &[Tuple], params: &PartitionParams, want: u64) {
    let idx = PartitionIndex::build(items, params);
    let got = fingerprint(&idx);
    assert_eq!(
        got, want,
        "{name}: tree fingerprint {got:#018x}, pinned {want:#018x}"
    );
}

#[test]
fn catalog_tree_on_price_and_score_is_pinned() {
    let items = catalog();
    check(
        "catalog",
        &items,
        &engine_params(vec![1, 2]),
        0x7e5d_604d_88f9_1c11,
    );
    check(
        "catalog narrow",
        &items,
        &narrow_params(vec![1, 2]),
        0xcf01_36f1_a8e3_2bc1,
    );
}

#[test]
fn one_column_tree_is_pinned() {
    let items = catalog();
    check(
        "price",
        &items[..2_000],
        &narrow_params(vec![1]),
        0xd264_7761_e116_984b,
    );
}

#[test]
fn three_column_tree_is_pinned() {
    let items = catalog();
    check(
        "id, price, score",
        &items[..2_000],
        &narrow_params(vec![0, 1, 2]),
        0xe0c2_fa0d_08ca_a131,
    );
}

#[test]
fn chunked_tree_without_columns_is_pinned() {
    let items = catalog();
    check(
        "no columns",
        &items[..1_000],
        &narrow_params(Vec::new()),
        0xbba7_55ec_e8d7_166c,
    );
}

#[test]
fn all_equal_tree_is_pinned() {
    let items: Vec<Tuple> = (0..500).map(|_| tuple![5, 5]).collect();
    check(
        "all equal",
        &items,
        &narrow_params(vec![0, 1]),
        0x6106_8893_cbe0_dba5,
    );
}

#[test]
fn tree_over_values_above_2_pow_53_is_pinned() {
    // Consecutive integers this large round to the same f64, and the
    // sums depend on the order they are added in.
    let mut rng = Mix(9);
    let base = 1i64 << 60;
    let items: Vec<Tuple> = (0..1_000)
        .map(|_| tuple![base + rng.range(0, 1 << 12), base - rng.range(0, 1 << 20)])
        .collect();
    check(
        "above 2^53",
        &items,
        &narrow_params(vec![0, 1]),
        0xb144_e32a_0d18_a4ec,
    );
}

/// The `sketch_catalog` instance, at 5k items: budget 2500 on price,
/// value the score sum, packages of at most 4 items, k = 3.
fn sketch_instance() -> RecInstance {
    let schema = RelationSchema::new(
        "item",
        [
            ("id", AttrType::Int),
            ("price", AttrType::Int),
            ("score", AttrType::Int),
        ],
    )
    .unwrap();
    let mut db = Database::new();
    db.add_relation(Relation::from_tuples(schema, catalog()).unwrap())
        .unwrap();
    RecInstance::new(db, Query::Cq(ConjunctiveQuery::identity("item", 3)))
        .with_budget(2500.0)
        .with_cost(PackageFn::sum_col(1, true))
        .with_val(PackageFn::sum_col(2, true))
        .with_size_bound(SizeBound::Constant(4))
        .with_k(3)
}

#[test]
fn sketch_answers_on_the_catalog_are_pinned() {
    let inst = sketch_instance();
    let opts = SolveOptions::default().with_approx(SketchParams::default());
    let top = frp::top_k(&inst, &opts).unwrap();
    assert!(top.interrupted.is_none());
    let ids: Vec<Vec<i64>> = top
        .value
        .expect("the catalog has valid packages")
        .iter()
        .map(|p| p.iter().map(|t| t[0].as_int().unwrap()).collect())
        .collect();
    let want = [
        vec![1245, 1274, 1816, 4180],
        vec![199, 1245, 1274, 1816],
        vec![199, 1245, 1816, 4180],
    ];
    assert_eq!(ids, want, "FRP top-3 item ids");
    let bound = mbp::maximum_bound(&inst, &opts).unwrap();
    assert!(bound.interrupted.is_none());
    assert_eq!(bound.value, Some(Ext::Finite(39932.0)), "MBP bound");
}
