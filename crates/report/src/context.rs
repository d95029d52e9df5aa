//! Shared analysis context: cross-market deduplication and the one-time
//! expensive passes every experiment reads from.
//!
//! The passes themselves are scheduled by the staged
//! [`AnalysisEngine`]; [`Analyzed::compute`] is a thin wrapper over it.

use marketscope_analysis::av::AvReport;
use marketscope_analysis::fake::{FakeInput, FakeReport};
use marketscope_analysis::overpriv::OverprivilegeResult;
use marketscope_analysis::taint::LeakResult;
use marketscope_apk::digest::ApkDigest;
use marketscope_clonedetect::{ClonePair, SigCloneReport};
use marketscope_core::{DeveloperKey, MarketId};
use marketscope_crawler::Snapshot;
use marketscope_ecosystem::{LibCategory, World};
use marketscope_libdetect::LibraryReport;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

pub use crate::engine::{AnalysisEngine, EngineConfig, STAGES};

/// The stand-in for the paper's *manual* library labelling (AppBrain /
/// PrivacyGrade / Common-Library classifications): a map from library
/// root package to functional label, plus the ad-library subset.
#[derive(Debug, Clone, Default)]
pub struct LabelSource {
    /// Library package → human label ("Advertisement", "Development", ...).
    pub labels: HashMap<String, &'static str>,
    /// The ad-library package set (Figure 5b's input).
    pub ad_packages: HashSet<String>,
}

impl LabelSource {
    /// Derive labels from the generated world's catalog — the analogue of
    /// the paper's researchers looking up each top library's vendor.
    pub fn from_world(world: &World) -> LabelSource {
        let mut labels = HashMap::new();
        let mut ad_packages = HashSet::new();
        for spec in world.libraries.specs() {
            let label = match spec.category {
                LibCategory::Ad => "Advertisement",
                LibCategory::Analytics => "Analytics",
                LibCategory::SocialNetworking => "Social Networking",
                LibCategory::Development => "Development",
                LibCategory::Payment => "Payment",
                LibCategory::GameEngine => "Game Engine",
            };
            labels.insert(spec.package.clone(), label);
            if spec.category == LibCategory::Ad {
                ad_packages.insert(spec.package.clone());
            }
        }
        LabelSource {
            labels,
            ad_packages,
        }
    }

    /// Label for a detected library package (default "Unknown").
    pub(crate) fn label(&self, package: &str) -> &'static str {
        self.labels.get(package).copied().unwrap_or("Unknown")
    }
}

/// One unique app across markets: the paper's identity is
/// `(package, developer signature)`.
#[derive(Debug, Clone)]
pub struct UniqueApp {
    /// Package name.
    pub package: String,
    /// Display label.
    pub label: String,
    /// Signing key.
    pub developer: DeveloperKey,
    /// A representative digest (highest version seen), shared with the
    /// snapshot's listing — selecting a higher version swaps the `Arc`
    /// pointer instead of deep-copying the digest.
    pub digest: Arc<ApkDigest>,
    /// Markets listing the app, with the normalized install counter.
    pub markets: Vec<(MarketId, u64)>,
    /// Highest version code seen anywhere.
    pub max_version: u32,
}

/// All one-time analysis artifacts, aligned index-wise with `apps`.
pub struct Analyzed {
    /// Unique apps (with harvested APKs).
    pub apps: Vec<UniqueApp>,
    /// Per-market index into `apps`: positions of the apps listed in each
    /// market, ascending, each app at most once. Built during dedup so the
    /// market-scoped queries below never rescan the whole corpus.
    pub market_index: HashMap<MarketId, Vec<usize>>,
    /// Library detection output.
    pub lib_report: LibraryReport,
    /// Detected library root packages.
    pub lib_packages: HashSet<String>,
    /// Privacy-leak results (taint flows attributed host vs library),
    /// index-aligned with `apps`.
    pub leaks: Vec<LeakResult>,
    /// Clone-detection inputs (library code excluded).
    pub clone_inputs: Vec<marketscope_clonedetect::UniqueApp>,
    /// Signature-clone report.
    pub sig_report: SigCloneReport,
    /// Confirmed code-clone pairs.
    pub code_pairs: Vec<ClonePair>,
    /// Fake-detection inputs.
    pub fake_inputs: Vec<FakeInput>,
    /// Fake-detection report.
    pub fake_report: FakeReport,
    /// AV ensemble scans.
    pub av_reports: Vec<AvReport>,
    /// Over-privilege results.
    pub overpriv: Vec<OverprivilegeResult>,
}

/// The paper's malware bar: AV-rank ≥ 10.
pub(crate) const MALWARE_AV_RANK: usize = 10;

impl Analyzed {
    /// Run every shared pass over a snapshot, using the staged engine with
    /// the machine's available parallelism. Output is bit-identical to the
    /// sequential schedule (`EngineConfig::sequential()`) by construction.
    pub fn compute(snapshot: &Snapshot) -> Analyzed {
        AnalysisEngine::new(EngineConfig::default()).run(snapshot)
    }

    /// Indices of apps listed in a market (ascending, precomputed).
    pub fn apps_in(&self, market: MarketId) -> impl Iterator<Item = usize> + '_ {
        self.market_index
            .get(&market)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
            .iter()
            .copied()
    }

    /// Malware packages (AV-rank ≥ 10) listed in a market.
    pub(crate) fn malware_packages(&self, market: MarketId) -> Vec<String> {
        self.apps_in(market)
            .filter(|i| self.av_reports[*i].rank >= MALWARE_AV_RANK)
            .map(|i| self.apps[i].package.clone())
            .collect()
    }
}
