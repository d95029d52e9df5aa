//! Fake-app detection (Section 6.1).
//!
//! Fakes mimic a popular app's *display name* under a different package.
//! The paper clusters apps by exact name and applies a heuristic learned
//! from manual inspection: a fake cluster is **small (size < 5) with an
//! uncommon name**, containing **one popular app (> 1 M installs)** — the
//! official one — and **unpopular members (≤ 1,000 installs)** signed by
//! other developers, which are the fakes. Clusters around generic names
//! ("Flashlight", "Calculator") and same-developer multi-platform
//! releases are legitimate and excluded.

use marketscope_core::{DeveloperKey, MarketId};
use std::collections::HashMap;

/// One app record for fake detection (already deduplicated by package).
#[derive(Debug, Clone)]
pub struct FakeInput {
    /// Package name.
    pub package: String,
    /// Display name.
    pub label: String,
    /// Signing developer.
    pub developer: DeveloperKey,
    /// Best install counter seen in any market.
    pub max_downloads: u64,
    /// Markets listing the app.
    pub markets: Vec<MarketId>,
}

/// Clusters at or above this size are "common names", not fakes.
const MAX_CLUSTER: usize = 5;
/// The official app must exceed this install count.
const POPULAR_FLOOR: u64 = 1_000_000;
/// Fakes must sit at or below this install count.
const UNPOPULAR_CEILING: u64 = 1_000;

/// Detection output.
#[derive(Debug, Clone)]
pub struct FakeReport {
    /// Indices (into the input) of apps judged fake.
    pub fakes: Vec<usize>,
    /// For each fake, the index of the official app it mimics.
    pub mimics: Vec<(usize, usize)>,
}

impl FakeReport {
    /// Share of apps listed in `market` judged fake.
    pub fn market_rate(&self, apps: &[FakeInput], market: MarketId) -> f64 {
        let fake_set: std::collections::HashSet<usize> = self.fakes.iter().copied().collect();
        let mut total = 0usize;
        let mut hit = 0usize;
        for (i, app) in apps.iter().enumerate() {
            if app.markets.contains(&market) {
                total += 1;
                if fake_set.contains(&i) {
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

/// The clustering + heuristic detector, with the paper's thresholds
/// (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct FakeDetector;

impl FakeDetector {
    /// The detector.
    pub fn new() -> Self {
        FakeDetector
    }

    /// Run detection.
    pub fn detect(&self, apps: &[FakeInput]) -> FakeReport {
        // Cluster by exact display name.
        let mut clusters: HashMap<&str, Vec<usize>> = HashMap::new();
        for (i, app) in apps.iter().enumerate() {
            clusters.entry(app.label.as_str()).or_default().push(i);
        }
        let mut fakes = Vec::new();
        let mut mimics = Vec::new();
        for members in clusters.values() {
            if members.len() < 2 || members.len() >= MAX_CLUSTER {
                continue; // singleton, or a common-name cluster
            }
            // Exactly one popular member — the official app.
            let populars: Vec<usize> = members
                .iter()
                .copied()
                .filter(|i| apps[*i].max_downloads > POPULAR_FLOOR)
                .collect();
            if populars.len() != 1 {
                continue;
            }
            let official = populars[0];
            for &i in members {
                if i == official {
                    continue;
                }
                let app = &apps[i];
                // Same developer → a legitimate multi-platform release.
                if app.developer == apps[official].developer {
                    continue;
                }
                if app.max_downloads <= UNPOPULAR_CEILING {
                    fakes.push(i);
                    mimics.push((i, official));
                }
            }
        }
        fakes.sort_unstable();
        mimics.sort_unstable();
        FakeReport { fakes, mimics }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input(pkg: &str, label: &str, dev: &str, dl: u64, markets: &[MarketId]) -> FakeInput {
        FakeInput {
            package: pkg.into(),
            label: label.into(),
            developer: DeveloperKey::from_label(dev),
            max_downloads: dl,
            markets: markets.to_vec(),
        }
    }

    #[test]
    fn classic_fake_cluster_is_detected() {
        let apps = vec![
            input(
                "com.kugou.android",
                "KuGou Music",
                "kugou",
                50_000_000,
                &[MarketId::TencentMyapp],
            ),
            input(
                "com.evil.x1",
                "KuGou Music",
                "attacker1",
                300,
                &[MarketId::PcOnline],
            ),
            input(
                "com.evil.x2",
                "KuGou Music",
                "attacker2",
                12,
                &[MarketId::Sougou],
            ),
        ];
        let report = FakeDetector::new().detect(&apps);
        assert_eq!(report.fakes, vec![1, 2]);
        assert_eq!(report.mimics, vec![(1, 0), (2, 0)]);
        assert_eq!(report.market_rate(&apps, MarketId::PcOnline), 1.0);
        assert_eq!(report.market_rate(&apps, MarketId::TencentMyapp), 0.0);
    }

    #[test]
    fn common_name_clusters_are_legitimate() {
        // Five+ "Flashlight" apps: a generic name, not mimicry.
        let apps: Vec<FakeInput> = (0..6)
            .map(|i| {
                let dl = if i == 0 { 5_000_000 } else { 100 };
                input(
                    &format!("com.dev{i}.torch"),
                    "Flashlight",
                    &format!("d{i}"),
                    dl,
                    &[MarketId::GooglePlay],
                )
            })
            .collect();
        let report = FakeDetector::new().detect(&apps);
        assert!(report.fakes.is_empty(), "generic cluster misflagged");
    }

    #[test]
    fn same_developer_variants_are_legitimate() {
        // The paper's Sogou Maps example: same developer, two packages.
        let apps = vec![
            input(
                "com.sogou.map.android.maps",
                "Sogou Map",
                "sogou",
                80_000_000,
                &[MarketId::Sougou],
            ),
            input(
                "com.sogou.map.android.maps.pad",
                "Sogou Map",
                "sogou",
                500,
                &[MarketId::Sougou],
            ),
        ];
        let report = FakeDetector::new().detect(&apps);
        assert!(report.fakes.is_empty());
    }

    #[test]
    fn cluster_without_a_popular_official_is_ignored() {
        let apps = vec![
            input("com.a.x", "Obscure Thing", "d1", 40, &[MarketId::Liqu]),
            input("com.b.y", "Obscure Thing", "d2", 70, &[MarketId::Liqu]),
        ];
        assert!(FakeDetector::new().detect(&apps).fakes.is_empty());
    }

    #[test]
    fn two_popular_apps_sharing_a_name_are_ambiguous_not_fake() {
        let apps = vec![
            input(
                "com.a.x",
                "Battle Game",
                "d1",
                9_000_000,
                &[MarketId::GooglePlay],
            ),
            input(
                "com.b.y",
                "Battle Game",
                "d2",
                7_000_000,
                &[MarketId::TencentMyapp],
            ),
            input("com.c.z", "Battle Game", "d3", 10, &[MarketId::PcOnline]),
        ];
        assert!(FakeDetector::new().detect(&apps).fakes.is_empty());
    }

    #[test]
    fn mid_popularity_mimics_are_not_flagged() {
        // A 100K-install same-name app is suspicious but above the
        // paper's ≤1,000 bar — not flagged by this heuristic.
        let apps = vec![
            input(
                "com.real.app",
                "Mega Hit",
                "real",
                20_000_000,
                &[MarketId::GooglePlay],
            ),
            input(
                "com.gray.app",
                "Mega Hit",
                "other",
                100_000,
                &[MarketId::GooglePlay],
            ),
        ];
        assert!(FakeDetector::new().detect(&apps).fakes.is_empty());
    }
}
