//! Rank correlation: the statistic behind "the shape holds".
//!
//! Comparing our recovered per-market tables with the paper's is a rank
//! question — does the ordering of markets survive? — which Spearman's ρ
//! measures directly.

/// Average ranks (1-based), ties sharing their mean rank.
fn ranks(xs: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|a, b| xs[*a].total_cmp(&xs[*b]));
    let mut out = vec![0.0; xs.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && xs[idx[j + 1]] == xs[idx[i]] {
            j += 1;
        }
        let mean_rank = (i + j) as f64 / 2.0 + 1.0;
        for k in i..=j {
            out[idx[k]] = mean_rank;
        }
        i = j + 1;
    }
    out
}

/// Pearson correlation of two equal-length samples.
pub(crate) fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "length mismatch");
    let n = xs.len() as f64;
    if xs.len() < 2 {
        return 0.0;
    }
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let (mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0);
    for (x, y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    if sxx == 0.0 || syy == 0.0 {
        return 0.0;
    }
    sxy / (sxx * syy).sqrt()
}

/// Spearman rank correlation ρ in `[-1, 1]`.
pub fn spearman(xs: &[f64], ys: &[f64]) -> f64 {
    pearson(&ranks(xs), &ranks(ys))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_monotone_agreement() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [10.0, 20.0, 40.0, 80.0]; // nonlinear but monotone
        assert!((spearman(&xs, &ys) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_inversion() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [9.0, 5.0, 1.0];
        assert!((spearman(&xs, &ys) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn ties_share_ranks() {
        let r = ranks(&[5.0, 1.0, 5.0, 3.0]);
        assert_eq!(r, vec![3.5, 1.0, 3.5, 2.0]);
    }

    #[test]
    fn independent_series_near_zero() {
        let xs: Vec<f64> = (0..100).map(|i| ((i * 37) % 100) as f64).collect();
        let ys: Vec<f64> = (0..100).map(|i| ((i * 61 + 13) % 100) as f64).collect();
        assert!(spearman(&xs, &ys).abs() < 0.35);
    }

    #[test]
    fn constant_series_is_zero() {
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
        assert_eq!(spearman(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic]
    fn length_mismatch_panics() {
        let _ = spearman(&[1.0], &[1.0, 2.0]);
    }
}
