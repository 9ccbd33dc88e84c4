//! Order statistics used by every workload.
//!
//! Percentiles are *nearest-rank*: the value at rank `ceil(q · n)`
//! (1-based, clamped to `1..=n`) of the sorted samples, so every
//! reported percentile is a sample that was actually measured. Spreads
//! across runs use the same quartile method as Python's
//! `statistics.quantiles(values, n=4)` (the default "exclusive"
//! method), so a spread printed by `--repeat` is the one a driver
//! script computes from the same values.

/// Nearest-rank percentile of `samples`; `None` when there are none.
/// `q` is clamped to `[0, 1]`; `q = 0` gives the minimum.
pub fn percentile<T: Copy + PartialOrd>(samples: &[T], q: f64) -> Option<T> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are comparable"));
    let n = sorted.len();
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// Block-median percentile: split `samples` (in arrival order) into
/// consecutive blocks of `block` samples, take each full block's
/// nearest-rank `q` percentile, and return the median of those.
///
/// One stalled second on a shared host then moves one block's value
/// instead of the whole run's tail. A trailing partial block is
/// ignored; `None` when no block is full.
pub fn block_percentile(samples: &[u64], block: usize, q: f64) -> Option<u64> {
    let per_block = block_values(samples, block, q);
    percentile(&per_block, 0.5)
}

/// The per-block nearest-rank `q` percentiles of the full blocks of
/// `samples`, in block order.
pub fn block_values(samples: &[u64], block: usize, q: f64) -> Vec<u64> {
    if block == 0 {
        return Vec::new();
    }
    samples
        .chunks_exact(block)
        .filter_map(|chunk| percentile(chunk, q))
        .collect()
}

/// Nanoseconds to microseconds; a missing value (no samples) reads 0.
pub fn micros(ns: Option<u64>) -> f64 {
    ns.map_or(0.0, |v| v as f64 / 1000.0)
}

/// Median of `values` (mean of the two middle values for an even
/// count); `None` when empty. Used for run-level summaries where the
/// values are not latency samples.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`. `None` for fewer than two
/// values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut d = values.to_vec();
    d.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_edge_cases() {
        let empty: [u64; 0] = [];
        assert_eq!(percentile(&empty, 0.5), None);
        assert_eq!(percentile(&[7u64], 0.0), Some(7));
        assert_eq!(percentile(&[7u64], 0.5), Some(7));
        assert_eq!(percentile(&[7u64], 1.0), Some(7));
        // 1..=100: rank ceil(q·100) is exact, so p50 = 50, p99 = 99.
        let hundred: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&hundred, 0.5), Some(50));
        assert_eq!(percentile(&hundred, 0.99), Some(99));
        assert_eq!(percentile(&hundred, 1.0), Some(100));
        assert_eq!(percentile(&hundred, 0.0), Some(1));
        // Between ranks the next sample up is taken: ceil(0.5·5) = 3.
        assert_eq!(percentile(&[5u64, 1, 4, 2, 3], 0.5), Some(3));
        assert_eq!(percentile(&[1.5f64, 0.5], 0.5), Some(0.5));
    }

    #[test]
    fn block_median_ignores_one_bad_block() {
        // Three blocks of ten; the middle one stalled.
        let mut samples: Vec<u64> = (1..=10).collect();
        samples.extend((1..=10).map(|x| x * 1000));
        samples.extend(1..=10);
        assert_eq!(block_values(&samples, 10, 0.5), vec![5, 5000, 5]);
        assert_eq!(block_percentile(&samples, 10, 0.5), Some(5));
        assert_eq!(block_percentile(&samples, 10, 1.0), Some(10));
        // A trailing partial block does not count; no full block → None.
        samples.push(1_000_000);
        assert_eq!(block_values(&samples, 10, 1.0).len(), 3);
        assert_eq!(block_percentile(&samples[..9], 10, 0.5), None);
        assert_eq!(block_percentile(&samples, 0, 0.5), None);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(quartiles(&[1.0]), None);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 4.5)));
    }
}
