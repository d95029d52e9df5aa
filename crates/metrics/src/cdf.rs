//! Empirical cumulative distribution functions.

/// An empirical CDF over `f64` samples.
#[derive(Debug, Clone)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Build from samples (NaNs are dropped).
    pub fn new(mut samples: Vec<f64>) -> Cdf {
        samples.retain(|x| !x.is_nan());
        samples.sort_by(|a, b| a.total_cmp(b));
        Cdf { sorted: samples }
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`), `None` for an empty CDF.
    pub(crate) fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let idx = ((self.sorted.len() - 1) as f64 * q).round() as usize;
        Some(self.sorted[idx])
    }

    /// Median.
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marketscope_core::propcheck::{check, f64_in, vec_of};

    #[test]
    fn quantiles_and_median() {
        let c = Cdf::new(vec![10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!(c.quantile(0.0), Some(10.0));
        assert_eq!(c.median(), Some(30.0));
        assert_eq!(c.quantile(1.0), Some(50.0));
    }

    #[test]
    fn empty_cdf_is_graceful() {
        let c = Cdf::new(vec![]);
        assert!(c.sorted.is_empty());
        assert_eq!(c.quantile(0.5), None);
    }

    #[test]
    fn nans_are_dropped() {
        let c = Cdf::new(vec![f64::NAN, 1.0, f64::NAN, 2.0]);
        assert_eq!(c.sorted.len(), 2);
    }

    #[test]
    fn constant_samples() {
        let c = Cdf::new(vec![7.0; 5]);
        assert_eq!(c.median(), Some(7.0));
    }

    #[test]
    fn quantile_in_sample_range() {
        check("cdf::quantile_in_sample_range", 256, |rng| {
            let xs = vec_of(rng, 1..100, |r| f64_in(r, -1e6, 1e6));
            let q = f64_in(rng, 0.0, 1.0);
            let v = Cdf::new(xs.clone()).quantile(q).unwrap();
            let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            assert!(v >= lo && v <= hi, "q={q} gave {v} outside [{lo}, {hi}]");
        });
    }
}
