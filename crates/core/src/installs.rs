//! Install counts and Google-Play-style install ranges.
//!
//! Google Play reports installs binned into ranges ("50,000 – 100,000"),
//! while most Chinese markets report a raw counter (Section 4.2). To
//! compare markets the paper normalizes every store's counter into the
//! seven coarse ranges used by its Figure 2.

use std::fmt;

/// The seven download buckets of the paper's Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum InstallRange {
    R0To10,
    R10To100,
    R100To1K,
    R1KTo10K,
    R10KTo100K,
    R100KTo1M,
    ROver1M,
}

impl InstallRange {
    /// All buckets in ascending order.
    pub const ALL: [InstallRange; 7] = [
        InstallRange::R0To10,
        InstallRange::R10To100,
        InstallRange::R100To1K,
        InstallRange::R1KTo10K,
        InstallRange::R10KTo100K,
        InstallRange::R100KTo1M,
        InstallRange::ROver1M,
    ];

    /// Bucket a raw install counter, mirroring the paper's normalization
    /// (e.g. `75,123` becomes the `[50,000, 100,000)`-style coarse bucket
    /// `10K-100K` in the seven-bin Figure 2 scheme).
    pub fn from_count(installs: u64) -> InstallRange {
        match installs {
            0..=9 => InstallRange::R0To10,
            10..=99 => InstallRange::R10To100,
            100..=999 => InstallRange::R100To1K,
            1_000..=9_999 => InstallRange::R1KTo10K,
            10_000..=99_999 => InstallRange::R10KTo100K,
            100_000..=999_999 => InstallRange::R100KTo1M,
            _ => InstallRange::ROver1M,
        }
    }

    /// The inclusive lower bound of the bucket.
    ///
    /// The paper estimates aggregate downloads "considering the lower bound
    /// limit of Google Play's install range"; this is that bound.
    pub fn lower_bound(self) -> u64 {
        match self {
            InstallRange::R0To10 => 0,
            InstallRange::R10To100 => 10,
            InstallRange::R100To1K => 100,
            InstallRange::R1KTo10K => 1_000,
            InstallRange::R10KTo100K => 10_000,
            InstallRange::R100KTo1M => 100_000,
            InstallRange::ROver1M => 1_000_000,
        }
    }

    /// Exclusive upper bound, or `None` for the open-ended top bucket.
    pub fn upper_bound(self) -> Option<u64> {
        match self {
            InstallRange::R0To10 => Some(10),
            InstallRange::R10To100 => Some(100),
            InstallRange::R100To1K => Some(1_000),
            InstallRange::R1KTo10K => Some(10_000),
            InstallRange::R10KTo100K => Some(100_000),
            InstallRange::R100KTo1M => Some(1_000_000),
            InstallRange::ROver1M => None,
        }
    }

    /// Stable dense index in `0..7`.
    pub fn index(self) -> usize {
        match Self::ALL.iter().position(|v| *v == self) {
            Some(i) => i,
            None => unreachable!("all variants listed"),
        }
    }

    /// Figure 2 column label.
    pub fn label(self) -> &'static str {
        match self {
            InstallRange::R0To10 => "0-10",
            InstallRange::R10To100 => "10-100",
            InstallRange::R100To1K => "100-1K",
            InstallRange::R1KTo10K => "1K-10K",
            InstallRange::R10KTo100K => "10K-100K",
            InstallRange::R100KTo1M => "100K-1M",
            InstallRange::ROver1M => ">1M",
        }
    }
}

impl fmt::Display for InstallRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Histogram of apps over the seven install buckets; the row type behind
/// the paper's Figure 2.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InstallHistogram {
    counts: [u64; 7],
}

impl InstallHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one app with the given raw install counter.
    pub fn record(&mut self, installs: u64) {
        self.counts[InstallRange::from_count(installs).index()] += 1;
    }

    /// Total apps recorded.
    pub(crate) fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Share of apps per bucket, as fractions summing to 1 (all zeros when
    /// the histogram is empty).
    pub fn shares(&self) -> [f64; 7] {
        let total = self.total();
        let mut out = [0.0; 7];
        if total == 0 {
            return out;
        }
        for (o, c) in out.iter_mut().zip(self.counts.iter()) {
            *o = *c as f64 / total as f64;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(InstallRange::from_count(0), InstallRange::R0To10);
        assert_eq!(InstallRange::from_count(9), InstallRange::R0To10);
        assert_eq!(InstallRange::from_count(10), InstallRange::R10To100);
        assert_eq!(InstallRange::from_count(999), InstallRange::R100To1K);
        assert_eq!(InstallRange::from_count(75_123), InstallRange::R10KTo100K);
        assert_eq!(InstallRange::from_count(1_000_000), InstallRange::ROver1M);
        assert_eq!(InstallRange::from_count(u64::MAX), InstallRange::ROver1M);
    }

    #[test]
    fn bounds_are_consistent() {
        for w in InstallRange::ALL.windows(2) {
            assert_eq!(w[0].upper_bound().unwrap(), w[1].lower_bound());
        }
        assert_eq!(InstallRange::ROver1M.upper_bound(), None);
    }

    #[test]
    fn every_count_lands_within_its_bucket_bounds() {
        for c in [0u64, 1, 9, 10, 55, 100, 5_000, 99_999, 100_000, 2_000_000] {
            let r = InstallRange::from_count(c);
            assert!(c >= r.lower_bound());
            if let Some(u) = r.upper_bound() {
                assert!(c < u);
            }
        }
    }

    #[test]
    fn histogram_shares_sum_to_one() {
        let mut h = InstallHistogram::new();
        for c in [5, 50, 500, 5_000, 50_000, 500_000, 5_000_000, 7, 70] {
            h.record(c);
        }
        assert_eq!(h.total(), 9);
        let sum: f64 = h.shares().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert_eq!(h.counts[InstallRange::R0To10.index()], 2);
    }

    #[test]
    fn empty_histogram_shares_are_zero() {
        let h = InstallHistogram::new();
        assert_eq!(h.shares(), [0.0; 7]);
        assert_eq!(h.total(), 0);
    }
}
