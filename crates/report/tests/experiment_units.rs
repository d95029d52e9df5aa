//! Unit tests for the experiment modules over a hand-built snapshot —
//! no crawl, no generator: every number is pinned by construction.

use marketscope_apk::apicalls::ApiCallId;
use marketscope_apk::builder::ApkBuilder;
use marketscope_apk::dex::DexFile;
use marketscope_apk::digest::ApkDigest;
use marketscope_apk::manifest::Manifest;
use marketscope_core::{DeveloperKey, MarketId, PackageName, VersionCode};
use marketscope_crawler::{CrawlStats, CrawledListing, MarketSnapshot, Snapshot};
use marketscope_report::context::Analyzed;
use marketscope_report::experiments as ex;

/// Build a digest with chosen identity and code.
fn digest(
    pkg: &str,
    version: u32,
    dev: &str,
    label: &str,
    calls: &[u32],
    hashes: &[u64],
) -> ApkDigest {
    let manifest = Manifest {
        package: PackageName::new(pkg).unwrap(),
        version_code: VersionCode(version),
        version_name: format!("{version}.0"),
        min_sdk: 9,
        target_sdk: 23,
        app_label: label.to_owned(),
        permissions: vec![],
        category: "Game".into(),
        components: vec![],
    };
    let calls: Vec<ApiCallId> = calls.iter().map(|c| ApiCallId(*c)).collect();
    let mut dex = DexFile::default();
    dex.push_class(&format!("L{}/Main;", pkg.replace('.', "/")));
    for h in hashes {
        dex.push_method(*h, &calls, &[]);
    }
    let bytes = ApkBuilder::new(manifest, dex)
        .build(DeveloperKey::from_label(dev))
        .unwrap();
    ApkDigest::from_bytes(&bytes).unwrap()
}

/// A listing shell around a digest.
#[allow(clippy::too_many_arguments)]
fn listing(
    pkg: &str,
    version: u32,
    dev: &str,
    label: &str,
    downloads: Option<u64>,
    rating: f64,
    category: &str,
    updated: &str,
) -> CrawledListing {
    CrawledListing {
        package: pkg.to_owned(),
        label: label.to_owned(),
        version_code: version,
        version_name: format!("{version}.0"),
        raw_category: category.to_owned(),
        downloads,
        downloads_from_range: false,
        rating,
        updated: updated.parse().ok(),
        developer_name: dev.to_owned(),
        digest: Some(std::sync::Arc::new(digest(
            pkg,
            version,
            dev,
            label,
            &[5, 9],
            &[version as u64, 100],
        ))),
    }
}

/// Snapshot with chosen listings per market (everything else empty).
fn snapshot(per_market: Vec<(MarketId, Vec<CrawledListing>)>) -> Snapshot {
    let mut markets: Vec<MarketSnapshot> = MarketId::ALL
        .iter()
        .map(|m| MarketSnapshot {
            market: *m,
            listings: Vec::new(),
        })
        .collect();
    for (m, listings) in per_market {
        markets[m.index()].listings = listings;
    }
    Snapshot {
        markets,
        stats: CrawlStats::default(),
    }
}

#[test]
fn table1_counts_developers_and_uniqueness() {
    // dev-a publishes in GP only; dev-b in GP and Tencent.
    let snap = snapshot(vec![
        (
            MarketId::GooglePlay,
            vec![
                listing(
                    "com.a.one",
                    1,
                    "dev-a",
                    "One",
                    Some(100),
                    4.0,
                    "Game",
                    "2016-01-01",
                ),
                listing(
                    "com.b.two",
                    1,
                    "dev-b",
                    "Two",
                    Some(200),
                    4.5,
                    "Game",
                    "2016-01-01",
                ),
            ],
        ),
        (
            MarketId::TencentMyapp,
            vec![listing(
                "com.b.two",
                1,
                "dev-b",
                "Two",
                Some(9_000),
                0.0,
                "Game",
                "2016-01-01",
            )],
        ),
    ]);
    let t1 = ex::table1::run(&snap);
    let gp = &t1.rows[MarketId::GooglePlay.index()];
    assert_eq!(gp.apps, 2);
    assert_eq!(gp.developers, 2);
    assert!((gp.unique_developer_share - 0.5).abs() < 1e-9);
    assert_eq!(gp.aggregated_downloads, 300);
    let tencent = &t1.rows[MarketId::TencentMyapp.index()];
    assert_eq!(tencent.developers, 1);
    assert_eq!(tencent.unique_developer_share, 0.0);
    assert_eq!(t1.total_apps(), 3);
}

#[test]
fn fig1_consolidates_raw_categories() {
    let snap = snapshot(vec![(
        MarketId::BaiduMarket,
        vec![
            listing("com.a.x", 1, "d", "A", None, 0.0, "Games", "2016-01-01"),
            listing("com.b.x", 1, "d", "B", None, 0.0, "ARCADE", "2016-01-01"),
            listing("com.c.x", 1, "d", "C", None, 0.0, "102229", "2016-01-01"),
            listing(
                "com.d.x",
                1,
                "d",
                "D",
                None,
                0.0,
                "Music & Audio",
                "2016-01-01",
            ),
        ],
    )]);
    let f1 = ex::fig1::run(&snap);
    use marketscope_core::Category;
    assert!((f1.share(MarketId::BaiduMarket, Category::Game) - 0.5).abs() < 1e-9);
    assert!((f1.share(MarketId::BaiduMarket, Category::NullOther) - 0.25).abs() < 1e-9);
    assert!((f1.share(MarketId::BaiduMarket, Category::Music) - 0.25).abs() < 1e-9);
    // Empty markets are all-zero, not NaN.
    assert_eq!(f1.share(MarketId::Liqu, Category::Game), 0.0);
}

#[test]
fn fig2_buckets_and_concentration() {
    let snap = snapshot(vec![(
        MarketId::HuaweiMarket,
        vec![
            listing("com.a.x", 1, "d", "A", Some(5), 0.0, "Game", "2016-01-01"),
            listing("com.b.x", 1, "d", "B", Some(500), 0.0, "Game", "2016-01-01"),
            listing(
                "com.c.x",
                1,
                "d",
                "C",
                Some(2_000_000),
                0.0,
                "Game",
                "2016-01-01",
            ),
            listing("com.d.x", 1, "d", "D", None, 0.0, "Game", "2016-01-01"), // unreported
        ],
    )]);
    let f2 = ex::fig2::run(&snap);
    use marketscope_core::InstallRange;
    let m = MarketId::HuaweiMarket;
    assert!((f2.share(m, InstallRange::R0To10) - 1.0 / 3.0).abs() < 1e-9);
    assert!((f2.share(m, InstallRange::ROver1M) - 1.0 / 3.0).abs() < 1e-9);
    // One blockbuster holds nearly all downloads.
    assert!(f2.top_1pct_share[m.index()] > 0.99);
}

#[test]
fn fig4_year_buckets_and_freshness() {
    let snap = snapshot(vec![
        (
            MarketId::GooglePlay,
            vec![
                listing("com.a.x", 1, "d", "A", None, 0.0, "Game", "2017-08-01"), // fresh
                listing("com.b.x", 1, "d", "B", None, 0.0, "Game", "2012-05-01"),
            ],
        ),
        (
            MarketId::Liqu,
            vec![listing(
                "com.c.x",
                1,
                "d",
                "C",
                None,
                0.0,
                "Game",
                "2011-01-01",
            )],
        ),
    ]);
    let f4 = ex::fig4::run(&snap);
    assert!(
        (f4.old_share.0 - 0.5).abs() < 1e-9,
        "GP old {}",
        f4.old_share.0
    );
    assert!((f4.fresh_share.0 - 0.5).abs() < 1e-9);
    assert_eq!(f4.old_share.1, 1.0);
    assert_eq!(f4.chinese[1], 1.0); // 2011 bucket
}

#[test]
fn fig6_rating_bands() {
    let snap = snapshot(vec![(
        MarketId::PcOnline,
        vec![
            listing("com.a.x", 1, "d", "A", None, 3.0, "Game", "2016-01-01"),
            listing("com.b.x", 1, "d", "B", None, 0.0, "Game", "2016-01-01"),
            listing("com.c.x", 1, "d", "C", None, 4.5, "Game", "2016-01-01"),
            listing("com.d.x", 1, "d", "D", None, 2.7, "Game", "2016-01-01"),
        ],
    )]);
    let f6 = ex::fig6::run(&snap);
    let row = f6.row(MarketId::PcOnline);
    assert!((row.unrated_share - 0.25).abs() < 1e-9);
    assert!((row.above_4_share - 0.25).abs() < 1e-9);
    assert!((row.default_band_share - 0.5).abs() < 1e-9); // 3.0 and 2.7
}

#[test]
fn fig8_versions_names_developers() {
    // One package with two versions across stores, two apps sharing a
    // label, one package with two signing keys.
    let snap = snapshot(vec![
        (
            MarketId::GooglePlay,
            vec![
                listing(
                    "com.multi.ver",
                    2,
                    "dev-a",
                    "Multi",
                    None,
                    0.0,
                    "Game",
                    "2016-01-01",
                ),
                listing(
                    "com.shared.one",
                    1,
                    "dev-b",
                    "Shared Name",
                    None,
                    0.0,
                    "Game",
                    "2016-01-01",
                ),
            ],
        ),
        (
            MarketId::TencentMyapp,
            vec![
                listing(
                    "com.multi.ver",
                    1,
                    "dev-a",
                    "Multi",
                    None,
                    0.0,
                    "Game",
                    "2016-01-01",
                ),
                listing(
                    "com.shared.two",
                    1,
                    "dev-c",
                    "Shared Name",
                    None,
                    0.0,
                    "Game",
                    "2016-01-01",
                ),
                listing(
                    "com.twokeys.x",
                    1,
                    "dev-d",
                    "TwoKeys",
                    None,
                    0.0,
                    "Game",
                    "2016-01-01",
                ),
            ],
        ),
        (
            MarketId::Pp25,
            vec![listing(
                "com.twokeys.x",
                1,
                "dev-e",
                "TwoKeys",
                None,
                0.0,
                "Game",
                "2016-01-01",
            )],
        ),
    ]);
    let f8 = ex::fig8::run(&snap);
    // com.multi.ver contributes a 2-version cluster.
    assert!(f8.versions_per_cluster.max_size() == 2);
    // Shared Name + TwoKeys → 4 of 5 packages share a label... count:
    // labels: Multi(1 pkg), Shared Name(2 pkgs), TwoKeys(1 pkg).
    assert!(
        (f8.shared_name_share - 0.5).abs() < 1e-9,
        "{}",
        f8.shared_name_share
    );
    // One of four packages has ≥2 developer keys.
    assert!(
        (f8.multi_developer_share - 0.25).abs() < 1e-9,
        "{}",
        f8.multi_developer_share
    );
}

#[test]
fn fig9_up_to_date_requires_version_skew() {
    let snap = snapshot(vec![
        (
            MarketId::GooglePlay,
            vec![
                listing("com.skew.x", 3, "d", "S", None, 0.0, "Game", "2016-01-01"),
                listing("com.same.x", 1, "d", "T", None, 0.0, "Game", "2016-01-01"),
            ],
        ),
        (
            MarketId::BaiduMarket,
            vec![
                listing("com.skew.x", 1, "d", "S", None, 0.0, "Game", "2016-01-01"),
                listing("com.same.x", 1, "d", "T", None, 0.0, "Game", "2016-01-01"),
            ],
        ),
    ]);
    let f9 = ex::fig9::run(&snap);
    // Only com.skew.x is eligible (multi-store AND version skew).
    assert_eq!(f9.market(MarketId::GooglePlay), 1.0);
    assert_eq!(f9.market(MarketId::BaiduMarket), 0.0);
    // A market with no eligible apps reports None → 0.
    assert_eq!(f9.market(MarketId::Liqu), 0.0);
}

#[test]
fn analyzed_dedup_and_sig_clones() {
    // The same app (pkg+dev) in two stores is ONE unique app; the same
    // package under a second key is a signature-clone cluster.
    let snap = snapshot(vec![
        (
            MarketId::GooglePlay,
            vec![listing(
                "com.app.x",
                2,
                "legit",
                "App",
                Some(1000),
                4.0,
                "Game",
                "2016-01-01",
            )],
        ),
        (
            MarketId::TencentMyapp,
            vec![listing(
                "com.app.x",
                2,
                "legit",
                "App",
                Some(800),
                0.0,
                "Game",
                "2016-01-01",
            )],
        ),
        (
            MarketId::PcOnline,
            vec![listing(
                "com.app.x",
                2,
                "pirate",
                "App",
                Some(3),
                0.0,
                "Game",
                "2016-01-01",
            )],
        ),
    ]);
    let analyzed = Analyzed::compute(&snap);
    assert_eq!(analyzed.apps.len(), 2, "dedup failed");
    let legit = analyzed
        .apps
        .iter()
        .find(|a| a.developer == DeveloperKey::from_label("legit"))
        .unwrap();
    assert_eq!(legit.markets.len(), 2);
    assert_eq!(analyzed.sig_report.clusters.get("com.app.x"), Some(&2));
    let t3 = ex::table3::run(&analyzed);
    assert_eq!(t3.row(MarketId::PcOnline).sig_clone, 1.0);
    // The legitimate app, listed in more markets, is the original: the
    // markets that carry only it list no clone.
    assert_eq!(t3.row(MarketId::GooglePlay).sig_clone, 0.0);
    assert_eq!(t3.row(MarketId::TencentMyapp).sig_clone, 0.0);
    assert_eq!(t3.row(MarketId::Liqu).sig_clone, 0.0);
}

#[test]
fn analyzed_keeps_highest_version_digest() {
    let snap = snapshot(vec![
        (
            MarketId::GooglePlay,
            vec![listing(
                "com.app.x",
                5,
                "dev",
                "App",
                None,
                0.0,
                "Game",
                "2016-01-01",
            )],
        ),
        (
            MarketId::BaiduMarket,
            vec![listing(
                "com.app.x",
                2,
                "dev",
                "App",
                None,
                0.0,
                "Game",
                "2016-01-01",
            )],
        ),
    ]);
    let analyzed = Analyzed::compute(&snap);
    assert_eq!(analyzed.apps.len(), 1);
    assert_eq!(analyzed.apps[0].max_version, 5);
    assert_eq!(analyzed.apps[0].digest.version_code.0, 5);
}

#[test]
fn table4_clean_apps_score_zero() {
    let snap = snapshot(vec![(
        MarketId::GooglePlay,
        vec![
            listing("com.a.x", 1, "d1", "A", None, 0.0, "Game", "2016-01-01"),
            listing("com.b.x", 1, "d2", "B", None, 0.0, "Game", "2016-01-01"),
        ],
    )]);
    let analyzed = Analyzed::compute(&snap);
    let t4 = ex::table4::run(&analyzed);
    assert_eq!(t4.row(MarketId::GooglePlay).av10, 0.0);
    assert_eq!(t4.row(MarketId::GooglePlay).malware_count, 0);
    let t5 = ex::table5::run(&analyzed, 10);
    assert!(
        t5.rows.is_empty(),
        "clean corpus must have no ranked malware"
    );
}

#[test]
fn table6_excludes_hiapk_and_oppo() {
    let snap = snapshot(vec![]);
    let analyzed = Analyzed::compute(&snap);
    let t6 = ex::table6::run(&analyzed, &snap);
    assert!(t6.market(MarketId::HiApk).is_none());
    assert!(t6.market(MarketId::OppoMarket).is_none());
    assert_eq!(t6.reports.len(), 15);
}

#[test]
fn sec53_identical_copies_are_identical() {
    // Same bytes in two stores (no channel injection in this synthetic
    // snapshot) → byte-identical triple.
    let l1 = listing("com.same.x", 1, "dev", "S", None, 0.0, "Game", "2016-01-01");
    let l2 = listing("com.same.x", 1, "dev", "S", None, 0.0, "Game", "2016-01-01");
    assert_eq!(
        l1.digest.as_ref().unwrap().file_md5,
        l2.digest.as_ref().unwrap().file_md5
    );
    let snap = snapshot(vec![
        (MarketId::GooglePlay, vec![l1]),
        (MarketId::HuaweiMarket, vec![l2]),
    ]);
    let r = ex::sec53_identity::run(&snap);
    assert_eq!(r.multi_store_triples, 1);
    assert_eq!(r.byte_identical, 1);
    assert_eq!(r.total_diverging(), 0);
}

#[test]
fn fig7_single_developer_spread() {
    let snap = snapshot(vec![
        (
            MarketId::GooglePlay,
            vec![listing(
                "com.a.x",
                1,
                "only-gp",
                "A",
                None,
                0.0,
                "Game",
                "2016-01-01",
            )],
        ),
        (
            MarketId::TencentMyapp,
            vec![listing(
                "com.b.x",
                1,
                "only-cn",
                "B",
                None,
                0.0,
                "Game",
                "2016-01-01",
            )],
        ),
    ]);
    let analyzed = Analyzed::compute(&snap);
    let f7 = ex::fig7::run(&analyzed);
    assert!((f7.on_google_play - 0.5).abs() < 1e-9);
    assert_eq!(f7.gp_only_share, 1.0);
    assert!((f7.chinese_only_share - 0.5).abs() < 1e-9);
    assert_eq!(f7.cdf[0], 1.0); // everyone publishes in exactly one market
}

#[test]
fn fig13_runs_on_sparse_data() {
    let snap = snapshot(vec![(
        MarketId::GooglePlay,
        vec![listing(
            "com.a.x",
            1,
            "d",
            "A",
            Some(10),
            4.0,
            "Game",
            "2016-01-01",
        )],
    )]);
    let analyzed = Analyzed::compute(&snap);
    let f13 = ex::fig13::run(&analyzed, &snap);
    assert_eq!(f13.raw.len(), 5);
    assert!(f13.render().contains("Google Play"));
}
