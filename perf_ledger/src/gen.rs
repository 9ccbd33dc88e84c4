//! Seeded input generators shared by the workloads.
//!
//! The seed changes generated *values* only: row counts, group sizes
//! and value ranges are fixed by the caller. Where a few dozen values
//! decide how much a solve prunes, they are drawn *stratified* — one
//! value from each of `n` equal slices of the range, in seeded order —
//! so every seed gives the same spread of values and about the same
//! amount of work, and the seed-to-seed spread of a metric is the
//! host's noise rather than the luck of the draw.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pkgrec_data::{tuple, AttrType, Database, Relation, RelationSchema, Tuple};

/// Shuffle `items` in place (Fisher–Yates).
pub fn shuffle<T>(rng: &mut impl Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// `n` integers from `lo..=hi`, one drawn uniformly from each of `n`
/// equal slices of the range, in a seeded random order.
pub fn stratified(rng: &mut impl Rng, n: usize, lo: i64, hi: i64) -> Vec<i64> {
    let width = (hi - lo + 1) as f64 / n.max(1) as f64;
    let mut values: Vec<i64> = (0..n)
        .map(|j| {
            let x = lo as f64 + (j as f64 + rng.gen::<f64>()) * width;
            (x.floor() as i64).clamp(lo, hi)
        })
        .collect();
    shuffle(rng, &mut values);
    values
}

/// An `item(id, grp, price, score)` catalog of `rows` rows spread
/// evenly over `groups` groups (`grp = id mod groups`, so every group
/// holds the same number of rows). Within each group, price and score
/// are [`stratified`] over `1..=100`. The serve workloads query it one
/// group at a time.
pub fn grouped_catalog(seed: u64, rows: usize, groups: usize) -> Database {
    let schema = RelationSchema::new(
        "item",
        [
            ("id", AttrType::Int),
            ("grp", AttrType::Int),
            ("price", AttrType::Int),
            ("score", AttrType::Int),
        ],
    )
    .expect("valid schema");
    let mut rng = StdRng::seed_from_u64(seed);
    let groups = groups.max(1);
    let per_group = rows.div_ceil(groups);
    let values: Vec<(Vec<i64>, Vec<i64>)> = (0..groups)
        .map(|_| {
            let price = stratified(&mut rng, per_group, 1, 100);
            (price, stratified(&mut rng, per_group, 1, 100))
        })
        .collect();
    let rel = Relation::from_tuples(
        schema,
        (0..rows).map(|id| {
            let (g, slot) = (id % groups, id / groups);
            let (price, score) = &values[g];
            tuple![id as i64, g as i64, price[slot], score[slot]]
        }),
    )
    .expect("schema-conformant");
    single_relation_db(rel)
}

/// The rows of each group of a [`grouped_catalog`] with `groups`
/// groups, as one database per group (indexed by `grp`) with the same
/// schema.
pub fn group_slices(catalog: &Database, groups: usize) -> Vec<Database> {
    let item = catalog.relation("item").expect("catalog has `item`");
    let mut rows: Vec<Vec<Tuple>> = vec![Vec::new(); groups];
    for t in item.iter() {
        let grp = t[1].as_int().and_then(|g| usize::try_from(g).ok());
        if let Some(slot) = grp.and_then(|g| rows.get_mut(g)) {
            slot.push(t.clone());
        }
    }
    rows.into_iter()
        .map(|r| {
            single_relation_db(
                Relation::from_tuples(item.schema().clone(), r).expect("same schema"),
            )
        })
        .collect()
}

/// An `item(id, price, score)` catalog of `n` rows with price in
/// `1..=1000` and score in `1..=10000` — the distribution of the
/// SketchRefine scale bench.
pub fn flat_catalog(seed: u64, n: usize) -> Database {
    let schema = RelationSchema::new(
        "item",
        [
            ("id", AttrType::Int),
            ("price", AttrType::Int),
            ("score", AttrType::Int),
        ],
    )
    .expect("valid schema");
    let mut rng = StdRng::seed_from_u64(seed);
    let rel = Relation::from_tuples(
        schema,
        (0..n as i64)
            .map(|id| tuple![id, rng.gen_range(1..=1000i64), rng.gen_range(1..=10_000i64)]),
    )
    .expect("schema-conformant");
    single_relation_db(rel)
}

fn single_relation_db(rel: Relation) -> Database {
    let mut db = Database::new();
    db.add_relation(rel).expect("fresh db");
    db
}

/// Zipf(`s`) over ranks `0..n`: rank `r` has weight `1 / (r + 1)^s`.
/// Sampled by inverse transform over the cumulative weights.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n ≥ 1` ranks.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n >= 1, "Zipf needs at least one rank");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grouped_catalog_has_fixed_shape_and_seeded_values() {
        let a = grouped_catalog(1, 100, 10);
        let b = grouped_catalog(1, 100, 10);
        let c = grouped_catalog(2, 100, 10);
        assert_eq!(a, b, "same seed, same inputs");
        assert_ne!(a, c, "the seed changes values");
        assert_eq!(a.relation("item").unwrap().len(), 100);
        for db in group_slices(&a, 10).iter().chain(&group_slices(&c, 10)) {
            assert_eq!(db.relation("item").unwrap().len(), 10);
        }
    }

    #[test]
    fn stratified_covers_every_slice() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut v = stratified(&mut rng, 10, 1, 100);
        v.sort_unstable();
        for (j, x) in v.iter().enumerate() {
            assert!(
                (1 + 10 * j as i64..=10 + 10 * j as i64).contains(x),
                "{j}: {x}"
            );
        }
        let mut w = stratified(&mut rng, 3, 5, 5);
        w.sort_unstable();
        assert_eq!(w, vec![5, 5, 5]);
        let mut order: Vec<usize> = (0..50).collect();
        shuffle(&mut rng, &mut order);
        assert_ne!(order, (0..50).collect::<Vec<_>>());
        order.sort_unstable();
        assert_eq!(order, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn flat_catalog_values_in_range() {
        let db = flat_catalog(3, 50);
        let item = db.relation("item").unwrap();
        assert_eq!(item.len(), 50);
        for t in item.iter() {
            assert!((1..=1000).contains(&t[1].as_int().unwrap()));
            assert!((1..=10_000).contains(&t[2].as_int().unwrap()));
        }
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(100, 1.0);
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = [0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        // Rank 0 carries 1/H(100) ≈ 19% of the mass, rank 1 half that.
        assert!(counts[0] > 3000 && counts[0] < 4500, "{}", counts[0]);
        assert!(counts[0] > counts[1] && counts[1] > counts[9]);
        assert_eq!(Zipf::new(1, 1.0).sample(&mut rng), 0);
    }
}
