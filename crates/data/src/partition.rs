//! Offline partition index for the SketchRefine approximate engine.
//!
//! "Scalable Package Queries in Relational Database Systems" (Brucato
//! et al.) makes million-tuple package queries tractable by splitting
//! the item pool into partitions, solving a *sketch* over one
//! representative tuple per partition, then *refining* partition by
//! partition. This module is the offline half of that strategy: a
//! deterministic, hierarchical clustering of an item slice over its
//! numeric columns, with one representative per node and per-partition
//! size/aggregate metadata.
//!
//! The index is a tree rather than a flat partitioning because the
//! online half solves each sketch with the exact (exponential) package
//! enumerator: every pool it is handed must stay small, so a
//! million-item pool needs `log_fanout` levels of representatives, not
//! one level of a thousand.
//!
//! Two invariants the online engine relies on:
//!
//! * **Representatives are real items.** Every `rep` is an index into
//!   the clustered slice, so any package assembled from representatives
//!   is a genuine candidate package — its cost, rating and
//!   compatibility can be checked for real, never estimated.
//! * **An internal node's representative is one of its children's
//!   representatives.** Refining a node therefore *keeps* the chosen
//!   tuple available (now standing for the child) while exposing the
//!   sibling representatives — each refinement step strictly descends
//!   the tree, so refinement terminates.
//!
//! Construction is deterministic: the same items, columns and seed
//! produce the identical tree (pinned by tests), which keeps the
//! benchmark reports reproducible.

use crate::Tuple;

/// Tuning knobs for [`PartitionIndex::build`].
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionParams {
    /// Maximum children per internal node — and therefore the largest
    /// representative pool the sketch solve sees at once. Clamped to
    /// at least 2, so every split makes progress.
    pub fanout: usize,
    /// Maximum items in a leaf partition: the pool size of a per-leaf
    /// refine solve. Clamped to at least 1, since a singleton must fit.
    pub leaf_cap: usize,
    /// Seed for the k-means center jitter.
    pub seed: u64,
    /// Columns clustered on (the cost/val numeric columns). Empty means
    /// no numeric structure: items are split into contiguous chunks.
    pub columns: Vec<usize>,
}

impl Default for PartitionParams {
    fn default() -> Self {
        PartitionParams {
            fanout: 16,
            leaf_cap: 16,
            seed: 0x5EED_C0DE,
            columns: Vec::new(),
        }
    }
}

/// One partition: a tree node over a contiguous set of item indices.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionNode {
    /// Index (into the clustered slice) of this partition's
    /// representative item. Always a member of the partition; for
    /// internal nodes, always the representative of one of `children`.
    pub rep: usize,
    /// Child node ids; empty for leaves.
    pub children: Vec<usize>,
    /// Item indices of a leaf partition (empty for internal nodes —
    /// their items are the union of their descendants').
    pub items: Vec<usize>,
    /// Number of items under this node.
    pub size: usize,
    /// Per-column minimum over the partition's items (parallel to
    /// `PartitionParams::columns`).
    pub mins: Vec<f64>,
    /// Per-column maximum.
    pub maxs: Vec<f64>,
    /// Per-column sum.
    pub sums: Vec<f64>,
}

impl PartitionNode {
    /// Whether this node is a leaf partition.
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }
}

/// A hierarchical partitioning of an item slice; see the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionIndex {
    params: PartitionParams,
    nodes: Vec<PartitionNode>,
    root: usize,
    items_len: usize,
}

/// The split-mix pseudo-random step used for center jitter — tiny,
/// seedable and stable across platforms.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Squared Euclidean distance between feature points.
fn dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Past this depth the clustering falls back to chunked splits, which
/// divide by `fanout` unconditionally — a backstop against adversarial
/// value distributions where k-means keeps shaving off single points.
const MAX_CLUSTER_DEPTH: usize = 32;

/// Lloyd iterations per clustering round (on the center sample).
const LLOYD_ITERATIONS: usize = 4;

/// Cap on the sample Lloyd's iteration runs over; assignment of the
/// full set is always a single exact pass afterwards.
const CENTER_SAMPLE: usize = 2048;

struct Builder<'a> {
    params: &'a PartitionParams,
    /// Clustered columns per item: `params.columns.len()`.
    dims: usize,
    /// The clustered columns' values, row-major (`i * dims + c`); `0`
    /// for missing/non-numeric cells, as the aggregate `PackageFn`s do.
    raw: Vec<f64>,
    /// The same points normalized per column to [0, 1] over the whole
    /// slice (so no column dominates the distances).
    features: Vec<f64>,
    nodes: Vec<PartitionNode>,
    rng: u64,
}

/// Index of the center in the row-major `centers` nearest to `point`
/// (ties: the lowest center id). `D` is the column count when it is
/// fixed at compile time, or `0` to take it from `point`. Two columns,
/// one cost and one val, is the shape the engine clusters on; fixing
/// that width lets the compiler unroll the distance, which takes a
/// 20k-item, 2-column build from about 13 ms to 9 ms.
fn nearest<const D: usize>(centers: &[f64], point: &[f64]) -> usize {
    let dims = if D == 0 { point.len() } else { D };
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (j, c) in centers.chunks_exact(dims).enumerate() {
        let d = dist2(c, &point[..dims]);
        if d < best_d {
            best_d = d;
            best = j;
        }
    }
    best
}

impl Builder<'_> {
    /// Item `i`'s row of a row-major buffer.
    fn row<'b>(&self, buf: &'b [f64], i: usize) -> &'b [f64] {
        &buf[i * self.dims..(i + 1) * self.dims]
    }

    /// Aggregate metadata for a set of items.
    fn aggregates(&self, set: &[usize]) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut mins = vec![f64::INFINITY; self.dims];
        let mut maxs = vec![f64::NEG_INFINITY; self.dims];
        let mut sums = vec![0.0; self.dims];
        for &i in set {
            for (c, &v) in self.row(&self.raw, i).iter().enumerate() {
                mins[c] = mins[c].min(v);
                maxs[c] = maxs[c].max(v);
                sums[c] += v;
            }
        }
        (mins, maxs, sums)
    }

    /// The member of `set` whose feature point is closest to `center`
    /// (ties: the smallest item index, which comes first in `set`).
    fn closest(&self, set: &[usize], center: &[f64]) -> usize {
        let mut best = set[0];
        let mut best_d = f64::INFINITY;
        for &i in set {
            let d = dist2(self.row(&self.features, i), center);
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        best
    }

    /// Mean feature point of a set.
    fn centroid(&self, set: &[usize]) -> Vec<f64> {
        let mut c = vec![0.0; self.dims];
        for &i in set {
            for (acc, v) in c.iter_mut().zip(self.row(&self.features, i)) {
                *acc += v;
            }
        }
        for acc in &mut c {
            *acc /= set.len() as f64;
        }
        c
    }

    /// Split `set` into at most `fanout` contiguous chunks — the
    /// structure-free fallback (no numeric columns, degenerate
    /// clusters, or the depth backstop).
    fn chunk_split(&self, set: &[usize]) -> Vec<Vec<usize>> {
        let k = self.params.fanout.max(2).min(set.len());
        let per = set.len().div_ceil(k);
        set.chunks(per).map(<[usize]>::to_vec).collect()
    }

    /// One k-means-style round: jittered initial centers, a few Lloyd
    /// iterations over a bounded sample, then one exact assignment pass
    /// over the full set. Falls back to [`chunk_split`] when the values
    /// carry no usable structure.
    fn cluster(&mut self, set: &[usize], depth: usize) -> Vec<Vec<usize>> {
        let n = set.len();
        let k = self.params.fanout.max(2).min(n);
        if self.dims == 0 || depth >= MAX_CLUSTER_DEPTH {
            return self.chunk_split(set);
        }
        let dims = self.dims;
        let nearest = if dims == 2 { nearest::<2> } else { nearest::<0> };

        // Initial centers, row-major: one per stride, jittered by the
        // seed so the seed genuinely changes the tree.
        let stride = n / k;
        let mut centers = Vec::with_capacity(k * dims);
        for j in 0..k {
            let jitter = (splitmix64(&mut self.rng) as usize) % stride.max(1);
            let i = set[(j * stride + jitter).min(n - 1)];
            centers.extend_from_slice(self.row(&self.features, i));
        }

        // Lloyd's iteration over a bounded, evenly spaced sample.
        let sample: Vec<usize> = if n <= CENTER_SAMPLE {
            set.to_vec()
        } else {
            (0..CENTER_SAMPLE).map(|i| set[i * n / CENTER_SAMPLE]).collect()
        };
        let mut acc = vec![0.0; k * dims];
        let mut cnt = vec![0usize; k];
        for _ in 0..LLOYD_ITERATIONS {
            acc.fill(0.0);
            cnt.fill(0);
            for &i in &sample {
                let point = self.row(&self.features, i);
                let j = nearest(&centers, point);
                for (a, v) in acc[j * dims..(j + 1) * dims].iter_mut().zip(point) {
                    *a += v;
                }
                cnt[j] += 1;
            }
            for (j, &m) in cnt.iter().enumerate().filter(|(_, &m)| m > 0) {
                for c in j * dims..(j + 1) * dims {
                    centers[c] = acc[c] / m as f64;
                }
            }
        }

        // Exact assignment of the full set.
        let mut clusters: Vec<Vec<usize>> = vec![Vec::new(); k];
        for &i in set {
            let j = nearest(&centers, self.row(&self.features, i));
            clusters[j].push(i);
        }
        clusters.retain(|c| !c.is_empty());
        // Degenerate (all points identical / one attractor): no
        // progress is possible by value, so split positionally.
        if clusters.len() < 2 {
            return self.chunk_split(set);
        }
        clusters
    }

    /// Build the subtree over `set`; returns the node id.
    fn build_node(&mut self, set: Vec<usize>, depth: usize) -> usize {
        let (mins, maxs, sums) = self.aggregates(&set);
        // A leaf holds at least one item, or a singleton would never
        // fit and the recursion would never end.
        if set.len() <= self.params.leaf_cap.max(1) {
            let center = self.centroid(&set);
            let rep = self.closest(&set, &center);
            self.nodes.push(PartitionNode {
                rep,
                children: Vec::new(),
                size: set.len(),
                items: set,
                mins,
                maxs,
                sums,
            });
            return self.nodes.len() - 1;
        }
        let clusters = self.cluster(&set, depth);
        let children: Vec<usize> = clusters
            .into_iter()
            .map(|c| self.build_node(c, depth + 1))
            .collect();
        // The representative is the rep of the child closest to this
        // node's centroid — a member of the partition *and* of the
        // child pool the refine step will expose.
        let center = self.centroid(&set);
        let child_reps: Vec<usize> = children.iter().map(|&c| self.nodes[c].rep).collect();
        let rep = self.closest(&child_reps, &center);
        self.nodes.push(PartitionNode {
            rep,
            children,
            items: Vec::new(),
            size: set.len(),
            mins,
            maxs,
            sums,
        });
        self.nodes.len() - 1
    }
}

impl PartitionIndex {
    /// Cluster `items` under `params`. Deterministic: the same inputs
    /// produce the identical index. An empty slice yields an index with
    /// one empty leaf, so callers need no special case.
    pub fn build(items: &[Tuple], params: &PartitionParams) -> PartitionIndex {
        if items.is_empty() {
            return PartitionIndex {
                params: params.clone(),
                nodes: vec![PartitionNode {
                    rep: 0,
                    children: Vec::new(),
                    items: Vec::new(),
                    size: 0,
                    mins: vec![f64::INFINITY; params.columns.len()],
                    maxs: vec![f64::NEG_INFINITY; params.columns.len()],
                    sums: vec![0.0; params.columns.len()],
                }],
                root: 0,
                items_len: 0,
            };
        }
        // Read the clustered columns once, then normalize each to
        // [0, 1] over the whole slice so distance is scale-free.
        let dims = params.columns.len();
        let mut raw = Vec::with_capacity(items.len() * dims);
        for t in items {
            for &col in &params.columns {
                raw.push(t.get(col).and_then(|v| v.as_numeric()).unwrap_or(0) as f64);
            }
        }
        let mut b = Builder {
            params,
            dims,
            raw,
            features: Vec::new(),
            nodes: Vec::new(),
            rng: params.seed,
        };
        let all: Vec<usize> = (0..items.len()).collect();
        let (mins, maxs, _) = b.aggregates(&all);
        b.features = b.raw.clone();
        for (x, v) in b.features.iter_mut().enumerate() {
            let c = x % dims;
            let span = maxs[c] - mins[c];
            *v = if span > 0.0 { (*v - mins[c]) / span } else { 0.0 };
        }
        let root = b.build_node(all, 0);
        PartitionIndex {
            params: params.clone(),
            nodes: b.nodes,
            root,
            items_len: items.len(),
        }
    }

    /// The parameters the index was built with.
    pub fn params(&self) -> &PartitionParams {
        &self.params
    }

    /// The root node id.
    pub fn root(&self) -> usize {
        self.root
    }

    /// A node by id.
    pub fn node(&self, id: usize) -> &PartitionNode {
        &self.nodes[id]
    }

    /// All nodes, in construction (post-)order.
    pub fn nodes(&self) -> &[PartitionNode] {
        &self.nodes
    }

    /// Number of nodes in the tree.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the index covers no items.
    pub fn is_empty(&self) -> bool {
        self.items_len == 0
    }

    /// Number of items the index was built over.
    pub fn items_len(&self) -> usize {
        self.items_len
    }

    /// Number of leaf partitions.
    pub fn leaves(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_leaf()).count()
    }

    /// Tree depth (a single-leaf index has depth 1).
    pub fn depth(&self) -> usize {
        fn depth_of(idx: &PartitionIndex, id: usize) -> usize {
            1 + idx
                .node(id)
                .children
                .iter()
                .map(|&c| depth_of(idx, c))
                .max()
                .unwrap_or(0)
        }
        depth_of(self, self.root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn items(n: usize) -> Vec<Tuple> {
        // Two numeric columns with different scales plus a string.
        (0..n)
            .map(|i| tuple![(i % 97) as i64, (i * 13 % 1009) as i64, "x"])
            .collect()
    }

    fn params() -> PartitionParams {
        PartitionParams {
            fanout: 4,
            leaf_cap: 8,
            seed: 7,
            columns: vec![0, 1],
        }
    }

    /// Collect all item indices under a node.
    fn items_under(idx: &PartitionIndex, id: usize, out: &mut Vec<usize>) {
        let n = idx.node(id);
        if n.is_leaf() {
            out.extend_from_slice(&n.items);
        } else {
            for &c in &n.children {
                items_under(idx, c, out);
            }
        }
    }

    #[test]
    fn partitions_cover_all_items_exactly_once() {
        let its = items(300);
        let idx = PartitionIndex::build(&its, &params());
        let mut covered = Vec::new();
        items_under(&idx, idx.root(), &mut covered);
        covered.sort_unstable();
        assert_eq!(covered, (0..300).collect::<Vec<_>>());
        assert_eq!(idx.node(idx.root()).size, 300);
        assert!(idx.depth() >= 2);
    }

    #[test]
    fn node_invariants_hold_everywhere() {
        let its = items(300);
        let p = params();
        let idx = PartitionIndex::build(&its, &p);
        for (id, node) in idx.nodes().iter().enumerate() {
            let mut under = Vec::new();
            items_under(&idx, id, &mut under);
            assert_eq!(node.size, under.len());
            // The representative is a real member of the partition.
            assert!(under.contains(&node.rep), "rep must live in its partition");
            if node.is_leaf() {
                assert!(node.items.len() <= p.leaf_cap);
            } else {
                assert!(node.children.len() <= p.fanout);
                // … and for internal nodes, one of the children's reps.
                assert!(
                    node.children.iter().any(|&c| idx.node(c).rep == node.rep),
                    "internal rep must be a child rep (refinement descends)"
                );
            }
            // Aggregates are over the real column values.
            for (c, &col) in p.columns.iter().enumerate() {
                let vals: Vec<f64> = under
                    .iter()
                    .map(|&i| its[i].get(col).unwrap().as_numeric().unwrap() as f64)
                    .collect();
                let min = vals.iter().cloned().fold(f64::INFINITY, f64::min);
                let max = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let sum: f64 = vals.iter().sum();
                assert_eq!(node.mins[c], min);
                assert_eq!(node.maxs[c], max);
                assert!((node.sums[c] - sum).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn same_seed_same_tree_different_seed_may_differ() {
        let its = items(200);
        let p = params();
        let a = PartitionIndex::build(&its, &p);
        let b = PartitionIndex::build(&its, &p);
        assert_eq!(a, b, "identical inputs must give the identical index");
        let other = PartitionIndex::build(&its, &PartitionParams { seed: 8, ..p });
        // Not asserting inequality (a tiny instance may cluster the
        // same way), only that the build is well-formed.
        assert_eq!(other.node(other.root()).size, 200);
    }

    #[test]
    fn no_columns_chunks_positionally() {
        let its = items(100);
        let p = PartitionParams {
            columns: vec![],
            fanout: 4,
            leaf_cap: 10,
            seed: 1,
        };
        let idx = PartitionIndex::build(&its, &p);
        let mut covered = Vec::new();
        items_under(&idx, idx.root(), &mut covered);
        covered.sort_unstable();
        assert_eq!(covered.len(), 100);
        assert!(idx.leaves() >= 10);
    }

    #[test]
    fn identical_values_still_terminate() {
        // All-equal features defeat k-means; the chunk fallback must
        // still split the set down to leaves.
        let its: Vec<Tuple> = (0..100).map(|_| tuple![5, 5]).collect();
        let idx = PartitionIndex::build(&its, &params());
        assert!(idx.leaves() > 1);
        let mut covered = Vec::new();
        items_under(&idx, idx.root(), &mut covered);
        assert_eq!(covered.len(), 100);
    }

    #[test]
    fn zero_leaf_cap_is_clamped_to_one() {
        // A leaf must hold at least one item: a singleton cannot be
        // split further.
        let its = items(50);
        let p = PartitionParams {
            leaf_cap: 0,
            ..params()
        };
        let idx = PartitionIndex::build(&its, &p);
        let mut covered = Vec::new();
        items_under(&idx, idx.root(), &mut covered);
        covered.sort_unstable();
        assert_eq!(covered, (0..50).collect::<Vec<_>>());
        assert_eq!(idx.leaves(), 50, "every leaf holds exactly one item");
    }

    #[test]
    fn small_and_empty_inputs() {
        let idx = PartitionIndex::build(&[], &params());
        assert!(idx.is_empty());
        assert_eq!(idx.len(), 1);
        assert!(idx.node(idx.root()).is_leaf());

        let one = [tuple![1, 2]];
        let idx = PartitionIndex::build(&one, &params());
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.node(idx.root()).rep, 0);
        assert_eq!(idx.items_len(), 1);
    }
}
