//! The engine's determinism contract: the staged, data-parallel schedule
//! must produce *bit-identical* output to the legacy sequential monolith,
//! for any worker count, on the default campaign seed.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};

use marketscope_analysis::av::{AvReport, AvSimulator};
use marketscope_analysis::fake::{FakeDetector, FakeInput};
use marketscope_analysis::overpriv::{OverprivilegeAnalyzer, OverprivilegeResult};
use marketscope_analysis::taint::{LeakAnalyzer, LeakResult};
use marketscope_apk::digest::{ApkDigest, FeatureTable};
use marketscope_clonedetect::CloneDetector;
use marketscope_core::{DeveloperKey, MarketId};
use marketscope_crawler::{CrawlStats, CrawledListing, MarketSnapshot, Snapshot};
use marketscope_ecosystem::{generate, profile, Scale, WorldConfig};
use marketscope_libdetect::{LibraryDetector, PackageOwnership};
use marketscope_report::{
    run_campaign, AnalysisEngine, Analyzed, Campaign, CampaignConfig, EngineConfig,
};

/// One campaign, shared by every test in this binary.
fn campaign() -> &'static Campaign {
    static CAMPAIGN: OnceLock<Campaign> = OnceLock::new();
    CAMPAIGN.get_or_init(|| run_campaign(CampaignConfig::default()))
}

/// Field-by-field equality over everything the experiments read.
fn assert_analyzed_eq(a: &Analyzed, b: &Analyzed, what: &str) {
    assert_eq!(a.apps.len(), b.apps.len(), "{what}: app count");
    for (x, y) in a.apps.iter().zip(&b.apps) {
        assert_eq!(x.package, y.package, "{what}: package");
        assert_eq!(x.label, y.label, "{what}: label");
        assert_eq!(x.developer, y.developer, "{what}: developer");
        assert_eq!(x.markets, y.markets, "{what}: markets");
        assert_eq!(x.max_version, y.max_version, "{what}: max_version");
        assert_eq!(x.digest.file_md5, y.digest.file_md5, "{what}: digest");
    }
    assert_eq!(a.market_index, b.market_index, "{what}: market_index");
    assert_eq!(
        a.lib_report.libraries, b.lib_report.libraries,
        "{what}: libraries"
    );
    assert_eq!(
        a.lib_report.per_app, b.lib_report.per_app,
        "{what}: per-app libraries"
    );
    assert_eq!(a.lib_packages, b.lib_packages, "{what}: lib_packages");
    assert_eq!(
        a.clone_inputs.len(),
        b.clone_inputs.len(),
        "{what}: clone input count"
    );
    for (x, y) in a.clone_inputs.iter().zip(&b.clone_inputs) {
        assert_eq!(x.own_api, y.own_api, "{what}: own_api");
        assert_eq!(x.own_segments, y.own_segments, "{what}: own_segments");
        assert_eq!(x.markets, y.markets, "{what}: clone input markets");
    }
    assert_eq!(
        a.sig_report.flagged, b.sig_report.flagged,
        "{what}: sig flagged"
    );
    assert_eq!(
        a.sig_report.clusters, b.sig_report.clusters,
        "{what}: sig clusters"
    );
    assert_eq!(
        a.sig_report.representatives, b.sig_report.representatives,
        "{what}: sig representatives"
    );
    assert_eq!(a.code_pairs, b.code_pairs, "{what}: code pairs");
    assert_eq!(
        a.fake_report.fakes, b.fake_report.fakes,
        "{what}: fake indices"
    );
    assert_eq!(
        a.fake_report.mimics, b.fake_report.mimics,
        "{what}: fake mimics"
    );
    assert_eq!(a.av_reports, b.av_reports, "{what}: av reports");
    assert_eq!(a.overpriv, b.overpriv, "{what}: overpriv results");
    assert_eq!(a.leaks, b.leaks, "{what}: leak results");
}

/// A faithful replica of the pre-refactor `Analyzed::compute` monolith:
/// strictly sequential, deep-cloning nothing it doesn't need, calling the
/// same public detector APIs in the same order. The engine at any worker
/// count must match this exactly.
fn oracle_compute(snapshot: &Snapshot) -> Analyzed {
    struct LegacyApp {
        package: String,
        label: String,
        developer: DeveloperKey,
        digest: Arc<ApkDigest>,
        markets: Vec<(MarketId, u64)>,
        max_version: u32,
    }
    let mut index: HashMap<(String, DeveloperKey), usize> = HashMap::new();
    let mut apps: Vec<LegacyApp> = Vec::new();
    for (market, listing) in snapshot.iter() {
        let Some(digest) = &listing.digest else {
            continue;
        };
        let key = (listing.package.clone(), digest.developer);
        let downloads = listing.downloads.unwrap_or(0);
        match index.get(&key) {
            Some(&i) => {
                let app = &mut apps[i];
                app.markets.push((market, downloads));
                if digest.version_code.0 > app.max_version {
                    app.max_version = digest.version_code.0;
                    app.digest = Arc::clone(digest);
                }
            }
            None => {
                index.insert(key, apps.len());
                apps.push(LegacyApp {
                    package: listing.package.clone(),
                    label: listing.label.clone(),
                    developer: digest.developer,
                    digest: Arc::clone(digest),
                    markets: vec![(market, downloads)],
                    max_version: digest.version_code.0,
                });
            }
        }
    }
    let digest_refs: Vec<&ApkDigest> = apps.iter().map(|a| a.digest.as_ref()).collect();
    let lib_report = LibraryDetector::new().detect(&digest_refs);
    let lib_packages: HashSet<String> = lib_report
        .libraries
        .iter()
        .map(|l| l.package.clone())
        .collect();
    let clone_inputs: Vec<marketscope_clonedetect::UniqueApp> = apps
        .iter()
        .map(|a| {
            let binned: Vec<(MarketId, u64)> = a
                .markets
                .iter()
                .map(|(m, d)| {
                    (
                        *m,
                        marketscope_core::InstallRange::from_count(*d).lower_bound(),
                    )
                })
                .collect();
            marketscope_clonedetect::UniqueApp::from_digest(&a.digest, &lib_packages, binned)
        })
        .collect();
    let leak_analyzer = LeakAnalyzer::new();
    let ownership = PackageOwnership::new(lib_packages.iter().cloned());
    let leaks: Vec<LeakResult> = digest_refs
        .iter()
        .map(|d| leak_analyzer.analyze(d, &ownership))
        .collect();
    let detector = CloneDetector::new();
    let sig_report = detector.sig_clones(&clone_inputs);
    let code_pairs = detector.code_clones(&clone_inputs);
    let fake_inputs: Vec<FakeInput> = apps
        .iter()
        .map(|a| FakeInput {
            package: a.package.clone(),
            label: a.label.clone(),
            developer: a.developer,
            max_downloads: a.markets.iter().map(|(_, d)| *d).max().unwrap_or(0),
            markets: a.markets.iter().map(|(m, _)| *m).collect(),
        })
        .collect();
    let fake_report = FakeDetector::new().detect(&fake_inputs);
    let av = AvSimulator::new();
    let av_reports: Vec<AvReport> = av.scan_batch(&digest_refs, 1);
    let op = OverprivilegeAnalyzer::new();
    let overpriv: Vec<OverprivilegeResult> = op.analyze_batch(&digest_refs, 1);

    let mut market_index: HashMap<MarketId, Vec<usize>> = HashMap::new();
    for (i, app) in apps.iter().enumerate() {
        for (market, _) in &app.markets {
            let positions = market_index.entry(*market).or_default();
            if positions.last() != Some(&i) {
                positions.push(i);
            }
        }
    }
    Analyzed {
        apps: apps
            .into_iter()
            .map(|a| marketscope_report::UniqueApp {
                package: a.package,
                label: a.label,
                developer: a.developer,
                digest: a.digest,
                markets: a.markets,
                max_version: a.max_version,
            })
            .collect(),
        market_index,
        lib_report,
        lib_packages,
        leaks,
        clone_inputs,
        sig_report,
        code_pairs,
        fake_inputs,
        fake_report,
        av_reports,
        overpriv,
    }
}

#[test]
fn engine_output_is_identical_for_1_2_and_8_workers() {
    let cam = campaign();
    let base = AnalysisEngine::new(EngineConfig::sequential()).run(&cam.snapshot);
    for workers in [2usize, 8] {
        let got = AnalysisEngine::new(EngineConfig { workers }).run(&cam.snapshot);
        assert_analyzed_eq(&base, &got, &format!("workers={workers}"));
    }
    // The campaign's own `Analyzed` used the machine's default worker
    // count; it must agree too.
    assert_analyzed_eq(&base, &cam.analyzed, "campaign default workers");
}

#[test]
fn engine_matches_the_pre_refactor_sequential_monolith() {
    let cam = campaign();
    let legacy = oracle_compute(&cam.snapshot);
    assert_analyzed_eq(&legacy, &cam.analyzed, "legacy oracle");
}

#[test]
fn representative_digests_share_the_listing_allocation() {
    // Satellite: picking the highest-version digest must be an Arc pointer
    // swap, never a deep copy — every app's representative digest is the
    // *same allocation* as some listing's digest in the snapshot.
    let cam = campaign();
    let mut listing_digests: Vec<&Arc<ApkDigest>> = Vec::new();
    for (_, listing) in cam.snapshot.iter() {
        if let Some(d) = &listing.digest {
            listing_digests.push(d);
        }
    }
    assert!(!cam.analyzed.apps.is_empty());
    for app in &cam.analyzed.apps {
        let shared = listing_digests.iter().any(|d| Arc::ptr_eq(d, &app.digest));
        assert!(
            shared,
            "app {} holds a deep-copied digest instead of sharing the \
             snapshot listing's Arc",
            app.package
        );
        // And it really is the highest version among the app's listings.
        let max_seen = cam
            .snapshot
            .iter()
            .filter_map(|(_, l)| l.digest.as_ref())
            .filter(|d| d.package.as_str() == app.package && d.developer == app.developer)
            .map(|d| d.version_code.0)
            .max()
            .unwrap();
        assert_eq!(app.digest.version_code.0, max_seen, "{}", app.package);
    }
}

#[test]
fn market_index_agrees_with_membership_scan() {
    let cam = campaign();
    for market in MarketId::ALL.iter() {
        let indexed: Vec<usize> = cam.analyzed.apps_in(*market).collect();
        let scanned: Vec<usize> = cam
            .analyzed
            .apps
            .iter()
            .enumerate()
            .filter(|(_, a)| a.markets.iter().any(|(m, _)| m == market))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(indexed, scanned, "{market:?}");
        // Ascending, no duplicates.
        assert!(indexed.windows(2).all(|w| w[0] < w[1]), "{market:?}");
    }
}

/// A complete crawl of a small default-seed world, built without a
/// network; every listing's digest holds its own package features.
fn offline_snapshot() -> Snapshot {
    let world = generate(WorldConfig {
        scale: Scale { divisor: 20_000 },
        ..WorldConfig::default()
    });
    let markets = MarketId::ALL
        .iter()
        .map(|&market| MarketSnapshot {
            market,
            listings: world
                .market_listings(market)
                .iter()
                .map(|id| {
                    let l = world.listing(*id);
                    let json = marketscope_market::endpoints::listing_json(&world, l);
                    let mut listing = CrawledListing::from_metadata(&json).unwrap();
                    let obfuscated = profile(market).requires_obfuscation;
                    let bytes = world.build_apk(l.app, l.version, obfuscated);
                    listing.digest = Some(Arc::new(ApkDigest::from_bytes(&bytes).unwrap()));
                    listing
                })
                .collect(),
        })
        .collect();
    Snapshot {
        markets,
        stats: CrawlStats::default(),
    }
}

#[test]
fn engine_output_is_identical_on_an_interned_snapshot() {
    let private = offline_snapshot();
    let mut interned = private.clone();
    let mut table = FeatureTable::new();
    for market in &mut interned.markets {
        for listing in &mut market.listings {
            let digest = listing.digest.as_mut().unwrap();
            table.intern_digest(Arc::make_mut(digest));
        }
    }
    let refs: usize = private
        .iter()
        .filter_map(|(_, l)| l.digest.as_ref())
        .map(|d| d.package_features.len())
        .sum();
    assert!(
        table.len() < refs,
        "{refs} references, {} distinct",
        table.len()
    );
    for config in [EngineConfig::sequential(), EngineConfig::default()] {
        let what = format!("workers={}", config.workers);
        let engine = AnalysisEngine::new(config);
        assert_analyzed_eq(&engine.run(&private), &engine.run(&interned), &what);
    }
}
