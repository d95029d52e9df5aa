//! Concentration measures for heavy-tailed distributions.
//!
//! Section 4.2's headline statistics — "the top 0.1% of the apps account
//! for more than 50% of the total downloads", "the top 1% … over 80%" —
//! are *top-share* measures.

/// Share of the total mass held by the top `fraction` of items
/// (`fraction` in `(0,1]`; at least one item counts when non-empty).
pub fn top_share(values: &[u64], fraction: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let total: u128 = values.iter().map(|v| *v as u128).sum();
    if total == 0 {
        return 0.0;
    }
    let mut sorted: Vec<u64> = values.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let k = ((values.len() as f64 * fraction).ceil() as usize).clamp(1, values.len());
    let top: u128 = sorted[..k].iter().map(|v| *v as u128).sum();
    top as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use marketscope_core::propcheck::{check, f64_in, vec_of};

    #[test]
    fn top_share_of_uniform_matches_fraction() {
        let values = vec![100u64; 1000];
        let s = top_share(&values, 0.1);
        assert!((s - 0.1).abs() < 0.01, "{s}");
    }

    #[test]
    fn top_share_of_concentrated_mass() {
        let mut values = vec![1u64; 999];
        values.push(1_000_000);
        let s = top_share(&values, 0.001);
        assert!(s > 0.99, "{s}");
    }

    #[test]
    fn top_share_edge_cases() {
        assert_eq!(top_share(&[], 0.1), 0.0);
        assert_eq!(top_share(&[0, 0], 0.5), 0.0);
        assert_eq!(top_share(&[5], 0.001), 1.0); // at least one item
        assert_eq!(top_share(&[3, 3], 1.0), 1.0);
    }

    #[test]
    fn top_share_bounded_and_monotone() {
        check("powerlaw::top_share_bounded_and_monotone", 256, |rng| {
            let values = vec_of(rng, 1..300, |r| r.range_u64(0, 1_000_000));
            let (f1, f2) = (f64_in(rng, 0.001, 1.0), f64_in(rng, 0.001, 1.0));
            let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
            let a = top_share(&values, lo);
            let b = top_share(&values, hi);
            assert!((0.0..=1.0 + 1e-9).contains(&a));
            assert!(a <= b + 1e-9, "top_share not monotone: {a} > {b}");
        });
    }
}
