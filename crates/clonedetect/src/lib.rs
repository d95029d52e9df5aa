//! # marketscope-clonedetect
//!
//! App clone detection, reproducing the paper's two strategies
//! (Section 6.2):
//!
//! * **Signature-based** — cluster by package name; a package signed by
//!   two or more distinct developer keys is a repackaging cluster (the
//!   package namespace should be globally unique and consistently
//!   signed).
//! * **Code-based (WuKong)** — a two-phase detector: phase 1 compares
//!   sparse API-call frequency vectors (>45 K dimensions) under the
//!   normalized Manhattan distance
//!   `Σ|Aᵢ−Bᵢ| / Σ(Aᵢ+Bᵢ)` with the paper's conservative threshold
//!   **0.05** (95% similarity); phase 2 confirms candidates by
//!   code-segment overlap (**≥ 85%** shared segments). Third-party
//!   library code — which the paper notes averages 60%+ of an app and
//!   causes false positives/negatives — is excluded from the vectors
//!   first, using the library packages identified by
//!   `marketscope-libdetect`.
//!
//! Candidate pairs are generated with MinHash banding over the API-id
//! sets rather than all-pairs comparison, keeping the pass near-linear in
//! corpus size (WuKong's "scalable two-phase" property).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use marketscope_apk::digest::ApkDigest;
use marketscope_core::hash::mix64;
use marketscope_core::{DeveloperKey, MarketId};
use std::collections::{HashMap, HashSet};

/// One unique app (deduplicated across markets) prepared for clone
/// detection.
#[derive(Debug, Clone)]
pub struct UniqueApp {
    /// Package name.
    pub package: String,
    /// Signing developer.
    pub developer: DeveloperKey,
    /// Own-code API vector (library packages removed), sorted by id.
    pub own_api: Vec<(u32, u32)>,
    /// Own-code segment hashes, sorted.
    pub own_segments: Vec<u64>,
    /// Markets carrying this app, with the download counter seen there
    /// (0 where the store reports none).
    pub markets: Vec<(MarketId, u64)>,
}

impl UniqueApp {
    /// Build from a digest, excluding the given library packages from the
    /// code features.
    pub fn from_digest(
        digest: &ApkDigest,
        lib_packages: &HashSet<String>,
        markets: Vec<(MarketId, u64)>,
    ) -> UniqueApp {
        let mut own_api: Vec<(u32, u32)> = Vec::new();
        let mut own_segments = Vec::new();
        for f in &digest.package_features {
            if lib_packages.contains(&f.java_package) {
                continue;
            }
            own_api.extend(f.api_counts().map(|(id, c)| (id, u32::from(c))));
            own_segments.extend_from_slice(&f.code_segments);
        }
        // Each package's run is already ascending, and the stable sorts
        // merge runs; then add up the counts of an id several packages
        // call.
        own_api.sort_by_key(|(id, _)| *id);
        own_api.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                kept.1 += next.1;
            }
            same
        });
        own_segments.sort();
        UniqueApp {
            package: digest.package.as_str().to_owned(),
            developer: digest.developer,
            own_api,
            own_segments,
            markets,
        }
    }

    /// The best download counter seen for this app anywhere.
    pub fn max_downloads(&self) -> u64 {
        self.markets.iter().map(|(_, d)| *d).max().unwrap_or(0)
    }

    /// The market where this app is most downloaded (origin attribution).
    /// Ties break toward the earliest market in [`MarketId::ALL`] order —
    /// Google Play first, matching its role as the primary publication
    /// venue.
    pub fn top_market(&self) -> Option<MarketId> {
        self.markets
            .iter()
            .max_by(|(ma, da), (mb, db)| da.cmp(db).then_with(|| mb.index().cmp(&ma.index())))
            .map(|(m, _)| *m)
    }
}

/// Normalized Manhattan distance between two sorted sparse vectors:
/// `Σ|Aᵢ−Bᵢ| / Σ(Aᵢ+Bᵢ)`. Returns 1.0 when both are empty.
pub fn normalized_manhattan(a: &[(u32, u32)], b: &[(u32, u32)]) -> f64 {
    let (mut i, mut j) = (0usize, 0usize);
    let (mut num, mut den) = (0u64, 0u64);
    while i < a.len() || j < b.len() {
        match (a.get(i), b.get(j)) {
            (Some(&(ka, va)), Some(&(kb, vb))) if ka == kb => {
                num += va.abs_diff(vb) as u64;
                den += (va + vb) as u64;
                i += 1;
                j += 1;
            }
            (Some(&(ka, va)), Some(&(kb, _))) if ka < kb => {
                num += va as u64;
                den += va as u64;
                i += 1;
            }
            (Some(_), Some(&(_, vb))) => {
                num += vb as u64;
                den += vb as u64;
                j += 1;
            }
            (Some(&(_, va)), None) => {
                num += va as u64;
                den += va as u64;
                i += 1;
            }
            (None, Some(&(_, vb))) => {
                num += vb as u64;
                den += vb as u64;
                j += 1;
            }
            (None, None) => unreachable!(),
        }
    }
    if den == 0 {
        1.0
    } else {
        num as f64 / den as f64
    }
}

/// Share of code segments two sorted multisets have in common,
/// normalized by the larger one.
pub fn segment_overlap(a: &[u64], b: &[u64]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let (mut i, mut j, mut shared) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Equal => {
                shared += 1;
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
        }
    }
    shared as f64 / a.len().max(b.len()) as f64
}

/// A confirmed code-clone pair (indices into the input slice).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClonePair {
    /// Index of the first app.
    pub a: usize,
    /// Index of the second app.
    pub b: usize,
    /// Phase-1 distance.
    pub distance: f64,
    /// Phase-2 code-segment overlap.
    pub segment_share: f64,
}

impl ClonePair {
    /// The likelier original: the app with more downloads (the paper's
    /// heuristic, acknowledged imperfect).
    pub fn origin(&self, apps: &[UniqueApp]) -> usize {
        if apps[self.a].max_downloads() >= apps[self.b].max_downloads() {
            self.a
        } else {
            self.b
        }
    }

    /// The clone side of the pair.
    pub fn copy(&self, apps: &[UniqueApp]) -> usize {
        if self.origin(apps) == self.a {
            self.b
        } else {
            self.a
        }
    }
}

/// Signature-based clone clusters.
#[derive(Debug, Clone)]
pub struct SigCloneReport {
    /// For each input app, whether its package is signed by ≥2 keys.
    pub flagged: Vec<bool>,
    /// Package → number of distinct signing keys (only multi-key ones).
    pub clusters: HashMap<String, usize>,
    /// Package → the signing key of its likelier original (only
    /// multi-key ones); see [`CloneDetector::sig_clones`].
    pub representatives: HashMap<String, DeveloperKey>,
}

impl SigCloneReport {
    /// Share of apps listed in `market` that are signature-based copies:
    /// flagged apps other than their package's representative. The
    /// original a copy was made from is not itself a clone, so a market
    /// that lists only the original reads 0.
    pub fn market_rate(&self, apps: &[UniqueApp], market: MarketId) -> f64 {
        let mut total = 0usize;
        let mut hit = 0usize;
        for (i, app) in apps.iter().enumerate() {
            if app.markets.iter().any(|(m, _)| *m == market) {
                total += 1;
                if self.flagged[i]
                    && self.representatives.get(app.package.as_str()) != Some(&app.developer)
                {
                    hit += 1;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            hit as f64 / total as f64
        }
    }
}

/// Phase-1 normalized Manhattan distance ceiling (0.05 = 95% similar).
const DISTANCE_THRESHOLD: f64 = 0.05;
/// Phase-2 minimum shared code-segment share.
const SEGMENT_THRESHOLD: f64 = 0.85;
/// MinHash signature length.
const MINHASH_LEN: usize = 16;
/// Rows per MinHash band.
const BAND_ROWS: usize = 4;

/// The clone detector, with the paper's thresholds: a code clone is at
/// most 0.05 apart in normalized Manhattan distance over own-code API
/// counts and shares at least 85% of its code segments.
#[derive(Debug, Clone, Default)]
pub struct CloneDetector;

impl CloneDetector {
    /// The detector.
    pub fn new() -> Self {
        CloneDetector
    }

    /// Signature-based clone detection: same package, ≥2 developer keys.
    ///
    /// Each multi-key package gets one representative, its likelier
    /// original, chosen from crawl data alone: the app listed in the most
    /// markets, then the one with the largest summed download count, then
    /// the smaller [`DeveloperKey`], so the choice does not depend on
    /// input order.
    pub fn sig_clones(&self, apps: &[UniqueApp]) -> SigCloneReport {
        let mut keys_by_package: HashMap<&str, HashSet<DeveloperKey>> = HashMap::new();
        for app in apps {
            keys_by_package
                .entry(&app.package)
                .or_default()
                .insert(app.developer);
        }
        let clusters: HashMap<String, usize> = keys_by_package
            .iter()
            .filter(|(_, keys)| keys.len() >= 2)
            .map(|(pkg, keys)| ((*pkg).to_owned(), keys.len()))
            .collect();
        let flagged = apps
            .iter()
            .map(|a| clusters.contains_key(a.package.as_str()))
            .collect();
        let rank = |a: &UniqueApp| {
            let downloads: u64 = a.markets.iter().map(|(_, d)| *d).sum();
            (a.markets.len(), downloads, std::cmp::Reverse(a.developer))
        };
        let mut best: HashMap<&str, &UniqueApp> = HashMap::new();
        for app in apps
            .iter()
            .filter(|a| clusters.contains_key(a.package.as_str()))
        {
            let kept = best.entry(&app.package).or_insert(app);
            if rank(app) > rank(kept) {
                *kept = app;
            }
        }
        let representatives = best
            .into_iter()
            .map(|(pkg, app)| (pkg.to_owned(), app.developer))
            .collect();
        SigCloneReport {
            flagged,
            clusters,
            representatives,
        }
    }

    /// Code-based clone detection (two-phase WuKong).
    ///
    /// Only pairs with *different package names and different developers*
    /// qualify: same-package pairs are the signature-based clones above,
    /// and same-developer pairs are legitimate re-releases.
    pub fn code_clones(&self, apps: &[UniqueApp]) -> Vec<ClonePair> {
        self.code_clones_batch(apps, 1)
    }

    /// [`code_clones`](Self::code_clones), fanning the two expensive phases
    /// (per-app MinHash signatures; per-candidate verification) out over up
    /// to `workers` threads. Candidates are canonically sorted before
    /// verification and each verification is a pure function of its pair,
    /// so the output is bit-identical for any `workers`.
    pub fn code_clones_batch(&self, apps: &[UniqueApp], workers: usize) -> Vec<ClonePair> {
        // Phase 1 (parallel): per-app MinHash signatures over own-code APIs.
        let bands = MINHASH_LEN / BAND_ROWS;
        let sigs: Vec<Option<Vec<u64>>> =
            marketscope_core::parallel::par_map(workers, apps, |app| {
                if app.own_api.is_empty() {
                    None
                } else {
                    Some(minhash(&app.own_api, MINHASH_LEN))
                }
            });
        // Banding (sequential, cheap): bucket apps whose band keys collide.
        let mut buckets: HashMap<(usize, u64), Vec<usize>> = HashMap::new();
        for (idx, sig) in sigs.iter().enumerate() {
            let Some(sig) = sig else { continue };
            for band in 0..bands {
                let mut key = 0xB0A7u64 ^ band as u64;
                for r in 0..BAND_ROWS {
                    key = mix64(key, sig[band * BAND_ROWS + r]);
                }
                buckets.entry((band, key)).or_default().push(idx);
            }
        }
        // Candidate pairs, deduped across bands and canonically ordered so
        // the parallel verification below is index-ordered.
        let mut seen: HashSet<(usize, usize)> = HashSet::new();
        let mut candidates: Vec<(usize, usize)> = Vec::new();
        for bucket in buckets.values() {
            if bucket.len() < 2 {
                continue;
            }
            for (pos, &i) in bucket.iter().enumerate() {
                for &j in &bucket[pos + 1..] {
                    let (lo, hi) = if i < j { (i, j) } else { (j, i) };
                    if !seen.insert((lo, hi)) {
                        continue;
                    }
                    let (a, b) = (&apps[lo], &apps[hi]);
                    if a.package == b.package || a.developer == b.developer {
                        continue;
                    }
                    candidates.push((lo, hi));
                }
            }
        }
        candidates.sort_unstable();
        // Phase 2 (parallel): verify each candidate pair.
        let verified = marketscope_core::parallel::par_map(workers, &candidates, |&(lo, hi)| {
            let (a, b) = (&apps[lo], &apps[hi]);
            let distance = normalized_manhattan(&a.own_api, &b.own_api);
            if distance > DISTANCE_THRESHOLD {
                return None;
            }
            let segment_share = segment_overlap(&a.own_segments, &b.own_segments);
            if segment_share < SEGMENT_THRESHOLD {
                return None;
            }
            Some(ClonePair {
                a: lo,
                b: hi,
                distance,
                segment_share,
            })
        });
        verified.into_iter().flatten().collect()
    }

    /// Share of apps listed in `market` involved in any confirmed
    /// code-clone pair.
    pub fn market_code_clone_rate(
        &self,
        apps: &[UniqueApp],
        pairs: &[ClonePair],
        market: MarketId,
    ) -> f64 {
        let mut involved = vec![false; apps.len()];
        for p in pairs {
            involved[p.a] = true;
            involved[p.b] = true;
        }
        let mut total = 0usize;
        let mut hit = 0usize;
        for (i, app) in apps.iter().enumerate() {
            if app.markets.iter().any(|(m, _)| *m == market) {
                total += 1;
                if involved[i] {
                    hit += 1;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            hit as f64 / total as f64
        }
    }
}

/// MinHash signature over the id set of a sparse vector: value `k` is
/// the least `mix64(id, 0x5A17_0000 + k)` over the ids. Each value keeps
/// four running minima, so four hashes are in flight at once.
fn minhash(api: &[(u32, u32)], len: usize) -> Vec<u64> {
    (0..len as u64)
        .map(|k| {
            let seed = 0x5A17_0000 + k;
            let hash = |(id, _): &(u32, u32)| mix64(u64::from(*id), seed);
            let mut quads = api.chunks_exact(4);
            let mut least = [u64::MAX; 4];
            for quad in &mut quads {
                for (m, row) in least.iter_mut().zip(quad) {
                    *m = (*m).min(hash(row));
                }
            }
            let tail = quads.remainder().iter().map(hash).min();
            least.into_iter().chain(tail).fold(u64::MAX, u64::min)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app(pkg: &str, dev: &str, api: Vec<(u32, u32)>, segs: Vec<u64>, dl: u64) -> UniqueApp {
        let mut api = api;
        api.sort_unstable();
        let mut segs = segs;
        segs.sort_unstable();
        UniqueApp {
            package: pkg.into(),
            developer: DeveloperKey::from_label(dev),
            own_api: api,
            own_segments: segs,
            markets: vec![(MarketId::GooglePlay, dl)],
        }
    }

    fn wide_api(seed: u32, n: usize) -> Vec<(u32, u32)> {
        (0..n)
            .map(|i| (seed + i as u32 * 37, 1 + (i as u32 % 3)))
            .collect()
    }

    #[test]
    fn manhattan_identities() {
        let a = vec![(1u32, 2u32), (5, 3)];
        assert_eq!(normalized_manhattan(&a, &a), 0.0);
        let b = vec![(9u32, 4u32)];
        assert_eq!(normalized_manhattan(&a, &b), 1.0); // disjoint
        assert_eq!(normalized_manhattan(&[], &[]), 1.0);
        // Partial overlap: a=(1:2),(5:3); c=(1:2),(5:1) → |0|+|2| / (4+4).
        let c = vec![(1u32, 2u32), (5, 1)];
        assert!((normalized_manhattan(&a, &c) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn manhattan_is_symmetric() {
        let a = wide_api(10, 50);
        let mut b = wide_api(10, 50);
        b[3].1 += 2;
        b.push((9999, 1));
        b.sort_unstable();
        assert_eq!(normalized_manhattan(&a, &b), normalized_manhattan(&b, &a));
    }

    #[test]
    fn segment_overlap_cases() {
        assert_eq!(segment_overlap(&[1, 2, 3], &[1, 2, 3]), 1.0);
        assert_eq!(segment_overlap(&[1, 2, 3, 4], &[1, 2]), 0.5);
        assert_eq!(segment_overlap(&[], &[1]), 0.0);
        // Multiset semantics: duplicates count individually.
        assert_eq!(segment_overlap(&[5, 5], &[5, 5]), 1.0);
    }

    #[test]
    fn sig_clones_flag_multi_key_packages() {
        let apps = vec![
            app(
                "com.kugou.android",
                "kugou",
                wide_api(1, 30),
                vec![1, 2],
                1_000_000,
            ),
            app(
                "com.kugou.android",
                "attacker",
                wide_api(1, 30),
                vec![1, 2],
                50,
            ),
            app("com.other.app", "someone", wide_api(500, 30), vec![9], 10),
        ];
        let report = CloneDetector::new().sig_clones(&apps);
        assert_eq!(report.flagged, vec![true, true, false]);
        assert_eq!(report.clusters.get("com.kugou.android"), Some(&2));
        assert!((report.market_rate(&apps, MarketId::GooglePlay) - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn sig_representative_is_the_likelier_original() {
        let listed = |pkg: &str, dev: &str, markets: &[(MarketId, u64)]| UniqueApp {
            markets: markets.to_vec(),
            ..app(pkg, dev, vec![(1, 1)], vec![1], 0)
        };
        let (gp, tencent, pco) = (
            MarketId::GooglePlay,
            MarketId::TencentMyapp,
            MarketId::PcOnline,
        );
        let apps = vec![
            // More markets beats more downloads.
            listed("com.wide.app", "popular", &[(pco, 5_000_000)]),
            listed("com.wide.app", "everywhere", &[(gp, 10), (tencent, 10)]),
            // Downloads break a tie on market count.
            listed("com.tie.app", "small", &[(gp, 100), (pco, 100)]),
            listed("com.tie.app", "big", &[(gp, 1_000), (tencent, 100)]),
            // The smaller key breaks a full tie.
            listed("com.same.app", "one", &[(gp, 50)]),
            listed("com.same.app", "two", &[(gp, 50)]),
        ];
        let report = CloneDetector::new().sig_clones(&apps);
        let rep = |pkg: &str| report.representatives[pkg];
        assert_eq!(rep("com.wide.app"), DeveloperKey::from_label("everywhere"));
        assert_eq!(rep("com.tie.app"), DeveloperKey::from_label("big"));
        let smaller = DeveloperKey::from_label("one").min(DeveloperKey::from_label("two"));
        assert_eq!(rep("com.same.app"), smaller);
        let reversed: Vec<UniqueApp> = apps.iter().rev().cloned().collect();
        let again = CloneDetector::new().sig_clones(&reversed);
        assert_eq!(again.representatives, report.representatives);
        // Google Play lists two copies ("small" and com.same.app's larger
        // key) among five apps, PC Online only copies, Tencent only
        // originals.
        assert!((report.market_rate(&apps, gp) - 2.0 / 5.0).abs() < 1e-9);
        assert_eq!(report.market_rate(&apps, pco), 1.0);
        assert_eq!(report.market_rate(&apps, tencent), 0.0);
    }

    #[test]
    fn code_clones_found_for_near_identical_apps() {
        // Victim and clone: same API vector except one swapped id; 90%+
        // shared segments; different package and developer.
        let api = wide_api(100, 200);
        let mut clone_api = api.clone();
        clone_api[0].0 += 1; // one call swapped
        clone_api.sort_unstable();
        let segs: Vec<u64> = (0..100u64).collect();
        let mut clone_segs = segs.clone();
        for s in clone_segs.iter_mut().take(10) {
            *s += 1000; // 10% of segments rewritten
        }
        let apps = vec![
            app("com.orig.app", "victim", api, segs, 500_000),
            app("com.fakeco.app", "cloner", clone_api, clone_segs, 300),
        ];
        let pairs = CloneDetector::new().code_clones(&apps);
        assert_eq!(pairs.len(), 1);
        let p = pairs[0];
        assert!(p.distance <= 0.05, "distance {}", p.distance);
        assert!(p.segment_share >= 0.85, "share {}", p.segment_share);
        assert_eq!(p.origin(&apps), 0);
        assert_eq!(p.copy(&apps), 1);
    }

    #[test]
    fn unrelated_apps_are_not_clones() {
        let apps = vec![
            app(
                "com.a.one",
                "d1",
                wide_api(0, 150),
                (0..80u64).collect(),
                10,
            ),
            app(
                "com.b.two",
                "d2",
                wide_api(40_000 / 2, 150),
                (500..580u64).collect(),
                10,
            ),
        ];
        assert!(CloneDetector::new().code_clones(&apps).is_empty());
    }

    #[test]
    fn same_developer_pairs_are_skipped() {
        let api = wide_api(7, 100);
        let segs: Vec<u64> = (0..50u64).collect();
        let apps = vec![
            app("com.a.free", "samedev", api.clone(), segs.clone(), 100),
            app("com.a.pro", "samedev", api, segs, 100),
        ];
        assert!(CloneDetector::new().code_clones(&apps).is_empty());
    }

    #[test]
    fn same_package_pairs_are_skipped_in_code_pass() {
        let api = wide_api(7, 100);
        let segs: Vec<u64> = (0..50u64).collect();
        let apps = vec![
            app("com.same.pkg", "d1", api.clone(), segs.clone(), 100),
            app("com.same.pkg", "d2", api, segs, 100),
        ];
        assert!(CloneDetector::new().code_clones(&apps).is_empty());
        // ... but the signature pass catches them.
        assert_eq!(CloneDetector::new().sig_clones(&apps).clusters.len(), 1);
    }

    #[test]
    fn dissimilar_segments_fail_phase_two() {
        // Phase 1 passes (identical API vectors) but the code segments
        // differ: not a clone (e.g. independent apps against the same
        // framework surface).
        let api = wide_api(3, 120);
        let apps = vec![
            app("com.x.a", "d1", api.clone(), (0..100u64).collect(), 10),
            app("com.y.b", "d2", api, (1000..1100u64).collect(), 10),
        ];
        assert!(CloneDetector::new().code_clones(&apps).is_empty());
    }

    #[test]
    fn market_code_clone_rate_counts_both_sides() {
        let api = wide_api(100, 200);
        let segs: Vec<u64> = (0..100u64).collect();
        let apps = vec![
            app("com.orig.app", "victim", api.clone(), segs.clone(), 500_000),
            app("com.thief.app", "cloner", api, segs, 10),
            app(
                "com.clean.app",
                "ok",
                wide_api(30_000 / 2, 100),
                (900..950u64).collect(),
                10,
            ),
        ];
        let det = CloneDetector::new();
        let pairs = det.code_clones(&apps);
        assert_eq!(pairs.len(), 1);
        let rate = det.market_code_clone_rate(&apps, &pairs, MarketId::GooglePlay);
        assert!((rate - 2.0 / 3.0).abs() < 1e-9);
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use marketscope_core::propcheck::{any_u64, check, usize_in, vec_of};
    use marketscope_core::rng::DetRng;
    use std::collections::BTreeMap;

    fn arb_app(rng: &mut DetRng, idx: usize) -> UniqueApp {
        let api: BTreeMap<u32, u32> = vec_of(rng, 10..120, |r| {
            (r.range_u64(0, 5_000) as u32, r.range_u64(1, 6) as u32)
        })
        .into_iter()
        .collect();
        let mut segs = vec_of(rng, 10..120, any_u64);
        segs.sort_unstable();
        UniqueApp {
            package: format!("com.orig{idx}.app"),
            developer: DeveloperKey::from_label(&format!("orig{idx}")),
            own_api: api.into_iter().collect(),
            own_segments: segs,
            markets: vec![(MarketId::GooglePlay, idx as u64)],
        }
    }

    /// Derive a near-clone of `base`: perturb a few entries, re-key the
    /// identity.
    fn derive_clone(base: &UniqueApp, idx: usize, perturb: usize) -> UniqueApp {
        let mut api = base.own_api.clone();
        for k in 0..perturb.min(api.len()) {
            api[k].0 = api[k].0.wrapping_add(40_001 + k as u32);
        }
        api.sort_unstable();
        let mut segs = base.own_segments.clone();
        for k in 0..perturb.min(segs.len()) {
            segs[k] ^= 0xDEAD_0000 + k as u64;
        }
        segs.sort_unstable();
        UniqueApp {
            package: format!("com.clone{idx}.app"),
            developer: DeveloperKey::from_label(&format!("cloner{idx}")),
            own_api: api,
            own_segments: segs,
            markets: vec![(MarketId::Pp25, 1)],
        }
    }

    /// The exhaustive reference: every index pair the two thresholds
    /// accept, with no candidate generation in front of them.
    fn code_clones_all_pairs(apps: &[UniqueApp]) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        for i in 0..apps.len() {
            for j in i + 1..apps.len() {
                let (a, b) = (&apps[i], &apps[j]);
                if a.package == b.package || a.developer == b.developer {
                    continue;
                }
                if normalized_manhattan(&a.own_api, &b.own_api) > DISTANCE_THRESHOLD {
                    continue;
                }
                if segment_overlap(&a.own_segments, &b.own_segments) < SEGMENT_THRESHOLD {
                    continue;
                }
                pairs.push((i, j));
            }
        }
        pairs
    }

    /// `minhash` is its definition — value `k` is the least
    /// `mix64(id, 0x5A17_0000 + k)` over the ids — at every row count
    /// from 0 to 40, so at every remainder modulo four.
    #[test]
    fn minhash_equals_its_definition() {
        check("clonedetect::minhash_equals_its_definition", 8, |rng| {
            for rows in 0..=40 {
                let api: Vec<(u32, u32)> = vec_of(rng, rows..rows + 1, |r| {
                    (any_u64(r) as u32, r.range_u64(1, 6) as u32)
                });
                let expect: Vec<u64> = (0..16)
                    .map(|k| {
                        api.iter()
                            .map(|(id, _)| mix64(u64::from(*id), 0x5A17_0000 + k))
                            .min()
                            .unwrap_or(u64::MAX)
                    })
                    .collect();
                assert_eq!(minhash(&api, 16), expect, "{rows} rows");
            }
        });
    }

    /// MinHash candidate generation must find every pair the threshold
    /// criteria accept: plant near-clones among distractors and require
    /// banded LSH to return everything the all-pairs scan does.
    #[test]
    fn minhash_recalls_planted_pairs() {
        check("clonedetect::minhash_recalls_planted_pairs", 32, |rng| {
            let mut apps = Vec::new();
            for i in 0..usize_in(rng, 2..6) {
                let base = arb_app(rng, i);
                // 2% perturbation keeps the pair inside both thresholds.
                let clone = derive_clone(&base, i, base.own_segments.len() / 50);
                apps.push(base);
                apps.push(clone);
            }
            let pairs = CloneDetector::new().code_clones(&apps);
            let found: Vec<(usize, usize)> = pairs.iter().map(|p| (p.a, p.b)).collect();
            let exact = code_clones_all_pairs(&apps);
            let missed: Vec<_> = exact.iter().filter(|p| !found.contains(p)).collect();
            assert!(
                missed.is_empty(),
                "LSH missed {missed:?}: found {} of the {} pairs the all-pairs scan accepts",
                exact.len() - missed.len(),
                exact.len()
            );
            // Every reported pair actually satisfies the thresholds.
            for p in &pairs {
                let (a, b) = (&apps[p.a], &apps[p.b]);
                assert!(p.distance <= 0.05);
                assert!(p.segment_share >= 0.85);
                assert!(a.package != b.package);
                assert!(a.developer != b.developer);
            }
        });
    }

    /// The signature pass flags exactly the packages with ≥2 keys.
    #[test]
    fn sig_pass_is_exact() {
        check("clonedetect::sig_pass_is_exact", 32, |rng| {
            let n_pkgs = usize_in(rng, 1..8);
            let dup = usize_in(rng, 0..8) % n_pkgs;
            let mut apps = Vec::new();
            for i in 0..n_pkgs {
                apps.push(UniqueApp {
                    package: format!("com.pkg{i}.app"),
                    developer: DeveloperKey::from_label(&format!("owner{i}")),
                    own_api: vec![(1, 1)],
                    own_segments: vec![1],
                    markets: vec![(MarketId::GooglePlay, 0)],
                });
            }
            apps.push(UniqueApp {
                package: format!("com.pkg{dup}.app"),
                developer: DeveloperKey::from_label("attacker"),
                own_api: vec![(1, 1)],
                own_segments: vec![1],
                markets: vec![(MarketId::PcOnline, 0)],
            });
            let report = CloneDetector::new().sig_clones(&apps);
            assert_eq!(report.clusters.len(), 1);
            let key = format!("com.pkg{dup}.app");
            assert!(report.clusters.contains_key(&key));
            let flagged = report.flagged.iter().filter(|f| **f).count();
            assert_eq!(flagged, 2);
        });
    }
}
