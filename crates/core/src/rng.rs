//! Deterministic randomness and heavy-tailed samplers.
//!
//! The entire synthetic world flows from one `u64` seed. Sub-streams are
//! derived by hashing a label into the parent seed, so adding a new
//! consumer of randomness never perturbs existing streams — a property the
//! reproducibility tests rely on.
//!
//! The samplers match the distributions the paper observes:
//! * downloads follow a power law ("top 0.1% of apps account for more than
//!   50% of total downloads", Section 4.2), and catalog growth and cluster
//!   sizes are heavy-tailed — [`pareto_u64`];
//! * categorical choices (market mixes, malware families) —
//!   [`WeightedIndex`].

use crate::hash::{fnv1a64, mix64};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// A deterministic RNG stream with labeled sub-stream derivation.
#[derive(Debug, Clone)]
pub struct DetRng {
    seed: u64,
    rng: SmallRng,
}

impl DetRng {
    /// Root stream from a seed.
    pub fn new(seed: u64) -> Self {
        DetRng {
            seed,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Derive an independent sub-stream identified by `label`.
    ///
    /// Derivation depends only on `(parent seed, label)`, not on how much
    /// of the parent stream has been consumed.
    pub fn derive(&self, label: &str) -> DetRng {
        DetRng::new(mix64(self.seed, fnv1a64(label.as_bytes())))
    }

    /// Derive an independent sub-stream identified by `label` and an index
    /// (e.g. one stream per generated app).
    pub fn derive_indexed(&self, label: &str, index: u64) -> DetRng {
        DetRng::new(mix64(
            mix64(self.seed, fnv1a64(label.as_bytes())),
            index ^ 0xA5A5_5A5A,
        ))
    }

    /// The seed identifying this stream.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.rng.gen::<f64>()
    }

    /// Uniform integer in `[lo, hi)`. Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        self.rng.gen_range(lo..hi)
    }

    /// Uniform usize in `[0, n)`. Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index over empty domain");
        self.rng.gen_range(0..n)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.rng.gen::<f64>() < p
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.index(items.len())]
    }
}

impl RngCore for DetRng {
    fn next_u32(&mut self) -> u32 {
        self.rng.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.rng.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.rng.try_fill_bytes(dest)
    }
}

/// Pareto-tailed positive integer: `floor(xm / U^(1/alpha))`, clamped to
/// `cap`. Produces the long-tailed download counters of Figure 2.
pub fn pareto_u64(rng: &mut DetRng, xm: f64, alpha: f64, cap: u64) -> u64 {
    assert!(xm > 0.0 && alpha > 0.0);
    let u = rng.unit().max(f64::MIN_POSITIVE);
    let v = xm / u.powf(1.0 / alpha);
    if v >= cap as f64 {
        cap
    } else {
        v as u64
    }
}

/// Weighted categorical sampler over `0..weights.len()`.
#[derive(Debug, Clone)]
pub struct WeightedIndex {
    cumulative: Vec<f64>,
}

impl WeightedIndex {
    /// Build from non-negative weights; at least one must be positive.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "no weights");
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in weights {
            assert!(w >= 0.0 && w.is_finite(), "bad weight {w}");
            acc += w;
            cumulative.push(acc);
        }
        assert!(acc > 0.0, "all weights zero");
        for v in &mut cumulative {
            *v /= acc;
        }
        WeightedIndex { cumulative }
    }

    /// Draw an index with probability proportional to its weight.
    pub fn sample(&self, rng: &mut DetRng) -> usize {
        let u = rng.unit();
        match self.cumulative.binary_search_by(|p| p.total_cmp(&u)) {
            Ok(i) => (i + 1).min(self.cumulative.len() - 1),
            Err(i) => i.min(self.cumulative.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every calibrated threshold in `tests/paper_shape.rs` rides on this
    /// stream (xoshiro256++ seeded through SplitMix64, rand 0.8's
    /// `SmallRng` on 64-bit targets). A different `rand` resolving, or a
    /// change to the derivation mix, moves these literals.
    #[test]
    fn stream_is_pinned() {
        let draws = |seed: u64| {
            let mut r = DetRng::new(seed);
            let units = [r.unit(), r.unit(), r.unit()];
            let ranges = [(); 3].map(|()| r.range_u64(10, 1_000_003));
            (units, ranges)
        };
        assert_eq!(
            draws(42),
            (
                [0.8143051451229099, 0.3188210400616611, 0.9838941681774888],
                [701_140, 793_508, 588_104]
            )
        );
        assert_eq!(
            draws(0xBE7C4),
            (
                [0.6907818496373598, 0.5297661108400666, 0.16324316718470455],
                [674_488, 178_858, 939_828]
            )
        );
        let mut d = DetRng::new(42).derive("apps");
        assert_eq!(d.seed(), 0x700C_B167_7F6F_2A70);
        assert_eq!(
            (d.unit(), d.range_u64(0, 1 << 40)),
            (0.3480590424045631, 5_016_878_695)
        );
        let mut d = DetRng::new(42).derive_indexed("app", 7);
        assert_eq!(d.seed(), 0x77E1_83DC_4D57_68D9);
        assert_eq!(
            (d.unit(), d.range_u64(0, 1 << 40)),
            (0.8254782841759598, 1_051_438_395_806)
        );
    }

    #[test]
    fn derivation_is_stable_and_independent() {
        let root = DetRng::new(42);
        let mut a1 = root.derive("apps");
        let mut a2 = root.derive("apps");
        let mut b = root.derive("devs");
        let xs: Vec<u64> = (0..8).map(|_| a1.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| a2.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn derivation_unaffected_by_parent_consumption() {
        let mut root = DetRng::new(7);
        let d1 = root.derive("x");
        let _ = root.next_u64();
        let d2 = root.derive("x");
        assert_eq!(d1.seed(), d2.seed());
    }

    #[test]
    fn indexed_streams_differ() {
        let root = DetRng::new(1);
        assert_ne!(
            root.derive_indexed("a", 0).seed(),
            root.derive_indexed("a", 1).seed()
        );
        assert_ne!(
            root.derive_indexed("a", 0).seed(),
            root.derive_indexed("b", 0).seed()
        );
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::new(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-5.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn pareto_is_capped_and_positive_tail() {
        let mut r = DetRng::new(11);
        let mut max = 0;
        for _ in 0..10_000 {
            let v = pareto_u64(&mut r, 5.0, 0.8, 1_000_000);
            assert!(v <= 1_000_000);
            max = max.max(v);
        }
        assert!(max > 10_000, "pareto tail too light: max {max}");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let w = WeightedIndex::new(&[0.0, 9.0, 1.0]);
        let mut r = DetRng::new(123);
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[w.sample(&mut r)] += 1;
        }
        assert_eq!(counts[0], 0);
        assert!(counts[1] > counts[2] * 5, "{counts:?}");
    }

    #[test]
    #[should_panic]
    fn weighted_index_rejects_all_zero() {
        let _ = WeightedIndex::new(&[0.0, 0.0]);
    }
}
