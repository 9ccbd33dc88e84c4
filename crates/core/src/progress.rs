//! Live progress estimation for package-space searches.
//!
//! The prefix-partitioned unit structure (see `enumerate`) gives the
//! estimator its backbone: the total number of search-tree nodes under
//! each unit is known in closed form (sums of binomial coefficients),
//! so a walk can report *exactly* what fraction of the bounded search
//! space it has visited or pruned away — a weighted within-unit
//! estimate in the spirit of Knuth's tree-size estimator, but exact
//! here because the tree shape is fixed by `(|Q(D)|, p(|D|))`.
//!
//! The estimate is shared across worker threads as a single atomic
//! parts-per-billion counter, so a CLI monitor thread can render a
//! throttled progress line with an ETA while the solve runs, and
//! anytime outcomes can report `progress_at_interrupt`.

use std::sync::atomic::{AtomicU64, Ordering};

/// Parts-per-billion denominator for the shared progress counter.
const PPB: u64 = 1_000_000_000;

/// A shared, monotone progress estimate for one search.
///
/// `done_ppb` accumulates credit in parts-per-billion of the total
/// search-tree size; visiting a node credits its share, pruning a
/// subtree credits the whole subtree at once. Credits only ever grow,
/// so [`Progress::fraction`] is monotone nondecreasing over a run, and
/// [`Progress::finish`] pins it to exactly `1.0` on exhaustive
/// completion (covering rounding slack from the fixed-point split).
#[derive(Debug, Default)]
pub struct Progress {
    done_ppb: AtomicU64,
    units_total: AtomicU64,
    units_done: AtomicU64,
}

impl Progress {
    /// A fresh estimator at zero.
    pub fn new() -> Progress {
        Progress::default()
    }

    /// Reset for a search over `units` work units.
    pub(crate) fn begin(&self, units: usize) {
        self.done_ppb.store(0, Ordering::Relaxed);
        self.units_done.store(0, Ordering::Relaxed);
        self.units_total.store(units as u64, Ordering::Relaxed);
    }

    /// Credit `ppb` parts-per-billion of the search space.
    pub(crate) fn add_ppb(&self, ppb: u64) {
        if ppb > 0 {
            self.done_ppb.fetch_add(ppb, Ordering::Relaxed);
        }
    }

    /// Record `n` finished work units.
    pub(crate) fn add_units_done(&self, n: u64) {
        self.units_done.fetch_add(n, Ordering::Relaxed);
    }

    /// Pin the estimate to 1.0 — called when a walk completes (either
    /// exhaustively or because a visitor stopped it, in which case the
    /// remaining space is decided and therefore "done").
    pub(crate) fn finish(&self) {
        self.done_ppb.fetch_max(PPB, Ordering::Relaxed);
        let total = self.units_total.load(Ordering::Relaxed);
        self.units_done.fetch_max(total, Ordering::Relaxed);
    }

    /// The current estimate in `[0.0, 1.0]`.
    pub fn fraction(&self) -> f64 {
        self.done_ppb.load(Ordering::Relaxed).min(PPB) as f64 / PPB as f64
    }

    /// `(units done, units total)` — the coarse units-completed view.
    pub fn units(&self) -> (u64, u64) {
        let total = self.units_total.load(Ordering::Relaxed);
        (self.units_done.load(Ordering::Relaxed).min(total), total)
    }
}

/// The number of search-tree nodes for packages drawn from `avail`
/// remaining items with at most `cap` more slots:
/// `Σ_{t=0}^{min(cap, avail)} C(avail, t)`, counting the current
/// (empty-extension) node as `t = 0`. Computed as a running product in
/// `f64`; saturates to `f64::INFINITY` for spaces too large to matter
/// (any share of them rounds to whole-unit granularity anyway).
pub(crate) fn count_nodes(avail: usize, cap: usize) -> f64 {
    let mut total = 1.0f64;
    let mut term = 1.0f64;
    for t in 1..=cap.min(avail) {
        term *= (avail - t + 1) as f64 / t as f64;
        total += term;
        if !total.is_finite() {
            return f64::INFINITY;
        }
    }
    total
}

/// A per-thread accumulator that batches node, prune and unit credits
/// into the shared [`Progress`], flushing every
/// [`ProgressSink::FLUSH_NODES`] nodes to keep the hot loop free of
/// atomics — units included, since a small search's units are about
/// one node each.
pub(crate) struct ProgressSink<'a> {
    progress: &'a Progress,
    /// PPB value of a single node: `PPB / total_nodes` (0 when the
    /// space is infinite or empty — whole-unit granularity only).
    ppb_per_node: f64,
    pending: f64,
    since_flush: u32,
    /// Finished units not yet published.
    units_pending: u64,
}

impl<'a> ProgressSink<'a> {
    const FLUSH_NODES: u32 = 4096;

    /// A sink for a search whose full tree has `total_nodes` nodes.
    pub(crate) fn new(progress: &'a Progress, total_nodes: f64) -> ProgressSink<'a> {
        let ppb_per_node = if total_nodes.is_finite() && total_nodes >= 1.0 {
            PPB as f64 / total_nodes
        } else {
            0.0
        };
        ProgressSink {
            progress,
            ppb_per_node,
            pending: 0.0,
            since_flush: 0,
            units_pending: 0,
        }
    }

    /// Credit one visited node.
    pub(crate) fn node(&mut self) {
        self.pending += self.ppb_per_node;
        self.since_flush += 1;
        if self.since_flush >= Self::FLUSH_NODES {
            self.flush();
        }
    }

    /// Credit `nodes` skipped nodes (a pruned subtree) at once.
    pub(crate) fn skip(&mut self, nodes: f64) {
        if nodes > 0.0 && nodes.is_finite() {
            self.pending += nodes * self.ppb_per_node;
        }
        if self.pending >= PPB as f64 / 1024.0 {
            self.flush();
        }
    }

    /// Push the pending credit and unit count to the shared counters.
    pub(crate) fn flush(&mut self) {
        if self.pending >= 1.0 {
            self.progress.add_ppb(self.pending as u64);
            self.pending = 0.0;
        }
        if self.units_pending > 0 {
            self.progress.add_units_done(self.units_pending);
            self.units_pending = 0;
        }
        self.since_flush = 0;
    }

    /// Count one finished unit (published with the next flush).
    pub(crate) fn unit_done(&mut self) {
        self.units_pending += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_nodes_matches_binomial_sums() {
        // avail=3, cap=3: 1 + 3 + 3 + 1 = 8 (the full power set).
        assert_eq!(count_nodes(3, 3), 8.0);
        // avail=4, cap=2: 1 + 4 + 6 = 11.
        assert_eq!(count_nodes(4, 2), 11.0);
        // cap=0 or avail=0: just the current node.
        assert_eq!(count_nodes(0, 5), 1.0);
        assert_eq!(count_nodes(5, 0), 1.0);
        // Huge spaces saturate instead of overflowing.
        assert_eq!(count_nodes(10_000, 10_000), f64::INFINITY);
    }

    #[test]
    fn fraction_is_monotone_and_finish_pins_to_one() {
        let p = Progress::new();
        p.begin(4);
        assert_eq!(p.fraction(), 0.0);
        p.add_ppb(250_000_000);
        let a = p.fraction();
        p.add_ppb(250_000_000);
        let b = p.fraction();
        assert!(a <= b);
        assert!((a - 0.25).abs() < 1e-9);
        p.finish();
        assert_eq!(p.fraction(), 1.0);
        assert_eq!(p.units(), (4, 4));
    }

    #[test]
    fn sink_batches_and_flushes_node_credit() {
        let p = Progress::new();
        p.begin(1);
        let mut sink = ProgressSink::new(&p, 8.0);
        for _ in 0..4 {
            sink.node();
        }
        sink.flush();
        assert!((p.fraction() - 0.5).abs() < 1e-6);
        sink.skip(4.0);
        sink.flush();
        assert!((p.fraction() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn infinite_spaces_fall_back_to_unit_granularity() {
        let p = Progress::new();
        p.begin(2);
        let mut sink = ProgressSink::new(&p, f64::INFINITY);
        for _ in 0..100 {
            sink.node();
        }
        sink.unit_done();
        sink.flush();
        assert_eq!(p.fraction(), 0.0);
        assert_eq!(p.units(), (1, 2));
    }
}
