//! Five-number summaries (box plots).
//!
//! Figures 3 and 11 plot Google Play as a point against *box plots over
//! the 16 Chinese markets*; this module is the summary behind those
//! boxes.

/// A five-number summary of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxPlot {
    /// Minimum.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
}

impl BoxPlot {
    /// Summarize a non-empty sample (NaNs are dropped). Returns `None`
    /// when nothing remains.
    pub fn new(samples: &[f64]) -> Option<BoxPlot> {
        let mut xs: Vec<f64> = samples.iter().copied().filter(|x| !x.is_nan()).collect();
        if xs.is_empty() {
            return None;
        }
        xs.sort_by(|a, b| a.total_cmp(b));
        Some(BoxPlot {
            min: xs[0],
            q1: quantile(&xs, 0.25),
            median: quantile(&xs, 0.5),
            q3: quantile(&xs, 0.75),
            max: xs[xs.len() - 1],
        })
    }
}

/// Linear-interpolated quantile over a sorted sample.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_numbers_of_a_simple_sample() {
        let b = BoxPlot::new(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(b.min, 1.0);
        assert_eq!(b.q1, 2.0);
        assert_eq!(b.median, 3.0);
        assert_eq!(b.q3, 4.0);
        assert_eq!(b.max, 5.0);
        assert_eq!(b.q3 - b.q1, 2.0);
    }

    #[test]
    fn interpolated_quartiles() {
        let b = BoxPlot::new(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!((b.q1 - 1.75).abs() < 1e-12);
        assert!((b.median - 2.5).abs() < 1e-12);
        assert!((b.q3 - 3.25).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(BoxPlot::new(&[]).is_none());
        assert!(BoxPlot::new(&[f64::NAN]).is_none());
        let b = BoxPlot::new(&[7.0]).unwrap();
        assert_eq!(b.min, 7.0);
        assert_eq!(b.max, 7.0);
        assert_eq!(b.median, 7.0);
    }

    #[test]
    fn unsorted_input_is_fine() {
        let b = BoxPlot::new(&[5.0, 1.0, 3.0, 2.0, 4.0]).unwrap();
        assert_eq!(b.median, 3.0);
    }
}
