//! Fixed-bucket log2 histograms.
//!
//! 64 buckets cover the whole `u64` range: bucket 0 holds the value 0 and
//! bucket `i` (`i ≥ 1`) holds values in `[2^(i-1), 2^i)`, with the last
//! bucket absorbing everything from `2^62` up. Recording a value is two
//! relaxed `fetch_add`s (bucket + running sum) — no locks, no allocation —
//! so histograms sit directly on request hot paths.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of log2 buckets (one per bit of `u64`).
pub(crate) const BUCKET_COUNT: usize = 64;

/// Bucket index for a value: 0 for 0, else `1 + floor(log2 v)`, capped.
#[inline]
fn bucket_index(value: u64) -> usize {
    ((u64::BITS - value.leading_zeros()) as usize).min(BUCKET_COUNT - 1)
}

/// Inclusive lower bound of bucket `i`.
fn bucket_lower(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Inclusive upper bound of bucket `i`.
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= BUCKET_COUNT - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A lock-free log2 histogram of `u64` observations (latencies in
/// nanoseconds, sizes in bytes, ...).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKET_COUNT],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one observation. Lock-free: two relaxed `fetch_add`s plus
    /// a relaxed `fetch_max` tracking the exact maximum.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Record a duration as nanoseconds (saturating past ~584 years).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Total observations so far.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// A point-in-time copy of the bucket array.
    ///
    /// Taken bucket-by-bucket with relaxed loads, so under concurrent
    /// recording the snapshot may tear by a handful of in-flight
    /// observations — fine for monitoring, and exact once writers quiesce.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An immutable copy of a histogram: mergeable, quantile-answering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts.
    pub buckets: [u64; BUCKET_COUNT],
    /// Sum of all observed values.
    pub sum: u64,
    /// Exact maximum observed value (0 when empty). Log2 buckets lose
    /// the true maximum, so it is tracked separately; `quantile` clamps
    /// its bucket-bound estimates by it.
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKET_COUNT],
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Estimate the `q`-quantile (`q` in `[0, 1]`) by rank-walking the
    /// buckets and interpolating linearly inside the winning bucket. The
    /// estimate is always within the winning bucket's bounds, so the
    /// relative error is bounded by the log2 bucket width (< 2×).
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if cum + c >= target {
                let lo = bucket_lower(i);
                // The exact max caps the top bucket: quantile(1.0)
                // returns the true maximum instead of a bucket bound.
                let hi = bucket_upper(i).min(self.max.max(lo));
                let frac = (target - cum) as f64 / c as f64;
                return lo + ((hi - lo) as f64 * frac) as u64;
            }
            cum += c;
        }
        bucket_upper(BUCKET_COUNT - 1)
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Merge two snapshots: the result is exactly the snapshot that a
    /// single histogram would hold after both recording histories.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i] + other.buckets[i]),
            sum: self.sum + other.sum,
            max: self.max.max(other.max),
        }
    }

    /// Cumulative counts per bucket upper bound, for exposition rendering:
    /// `(le, cumulative_count)` pairs up to the last non-empty bucket.
    pub fn cumulative(&self) -> Vec<(u64, u64)> {
        let last = self
            .buckets
            .iter()
            .rposition(|&c| c > 0)
            .unwrap_or(0)
            .min(BUCKET_COUNT - 2);
        let mut cum = 0u64;
        let mut out = Vec::with_capacity(last + 1);
        for i in 0..=last {
            cum += self.buckets[i];
            out.push((bucket_upper(i), cum));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), BUCKET_COUNT - 1);
    }

    #[test]
    fn bucket_bounds_partition_the_range() {
        for i in 1..BUCKET_COUNT {
            assert_eq!(bucket_lower(i), bucket_upper(i - 1) + 1, "bucket {i}");
            assert!(bucket_lower(i) <= bucket_upper(i));
            assert_eq!(bucket_index(bucket_lower(i)), i);
            if i < BUCKET_COUNT - 1 {
                assert_eq!(bucket_index(bucket_upper(i)), i);
            }
        }
    }

    #[test]
    fn count_and_sum_track_recordings() {
        let h = Histogram::new();
        for v in [0u64, 1, 1, 7, 1000, 1_000_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum.load(Ordering::Relaxed), 1_001_009);
        let s = h.snapshot();
        assert_eq!(s.count(), 6);
        assert_eq!(s.sum, 1_001_009);
    }

    #[test]
    fn quantiles_bracket_the_data() {
        let h = Histogram::new();
        for _ in 0..90 {
            h.record(100); // bucket [64,127]
        }
        for _ in 0..10 {
            h.record(10_000); // bucket [8192,16383]
        }
        let s = h.snapshot();
        let p50 = s.p50();
        assert!((64..=127).contains(&p50), "p50={p50}");
        let p99 = s.p99();
        assert!((8192..=16383).contains(&p99), "p99={p99}");
        // Quantiles never decrease in q.
        let mut prev = 0;
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let v = s.quantile(q);
            assert!(v >= prev, "quantile({q})={v} < {prev}");
            prev = v;
        }
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.p99(), 0);
        assert_eq!(s.sum, 0);
        assert_eq!(s.cumulative(), vec![(0, 0)]);
    }

    #[test]
    fn merge_is_exact() {
        let a = Histogram::new();
        let b = Histogram::new();
        let both = Histogram::new();
        for v in [3u64, 5, 1000] {
            a.record(v);
            both.record(v);
        }
        for v in [0u64, 9, 70_000] {
            b.record(v);
            both.record(v);
        }
        assert_eq!(a.snapshot().merge(&b.snapshot()), both.snapshot());
    }

    #[test]
    fn cumulative_is_monotone_and_ends_at_count() {
        let h = Histogram::new();
        for v in [1u64, 2, 4, 8, 16, 1_000_000] {
            h.record(v);
        }
        let s = h.snapshot();
        let cum = s.cumulative();
        let mut prev = 0;
        for &(_, c) in &cum {
            assert!(c >= prev);
            prev = c;
        }
        assert_eq!(prev, s.count());
    }

    #[test]
    fn max_is_exact_not_a_bucket_bound() {
        let h = Histogram::new();
        for v in [100u64, 5000, 77_777] {
            h.record(v);
        }
        assert_eq!(h.max.load(Ordering::Relaxed), 77_777);
        let s = h.snapshot();
        assert_eq!(s.max, 77_777);
        // quantile(1.0) returns the true maximum, not the bucket upper
        // bound (which would be 131071 for 77777).
        assert_eq!(s.quantile(1.0), 77_777);
    }

    #[test]
    fn merge_takes_the_larger_max() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(10);
        b.record(9_999);
        let m = a.snapshot().merge(&b.snapshot());
        assert_eq!(m.max, 9_999);
        assert_eq!(m.quantile(1.0), 9_999);
    }

    #[test]
    fn empty_snapshot_max_is_zero() {
        assert_eq!(Histogram::new().snapshot().max, 0);
    }

    #[test]
    fn record_duration_uses_nanos() {
        let h = Histogram::new();
        h.record_duration(Duration::from_micros(3));
        assert_eq!(h.sum.load(Ordering::Relaxed), 3_000);
    }
}
