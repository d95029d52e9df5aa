//! End-to-end crawl over a live simulated fleet.

use marketscope_apk::digest::PackageFeature;
use marketscope_core::MarketId;
use marketscope_crawler::{CrawlConfig, CrawlTargets, Crawler};
use marketscope_ecosystem::{generate, Scale, WorldConfig};
use marketscope_market::{CrawlPhase, MarketFleet};
use std::collections::HashMap;
use std::sync::Arc;

fn seeds_for(world: &marketscope_ecosystem::World, share: f64) -> Vec<String> {
    // The paper seeds Google Play BFS with PrivacyGrade's package list —
    // an external, partial name list. Emulate with a deterministic subset
    // of GP packages.
    world
        .market_listings(MarketId::GooglePlay)
        .iter()
        .enumerate()
        .filter(|(i, _)| {
            (*i as f64 / world.market_listings(MarketId::GooglePlay).len() as f64) < share
        })
        .map(|(_, l)| world.app(world.listing(*l).app).package.as_str().to_owned())
        .collect()
}

#[test]
fn full_crawl_reconstructs_catalogs() {
    let world = Arc::new(generate(WorldConfig {
        seed: 77,
        scale: Scale { divisor: 40_000 },
    }));
    let fleet = MarketFleet::spawn(Arc::clone(&world)).unwrap();
    let targets = CrawlTargets {
        markets: MarketId::ALL.iter().map(|m| fleet.addr(*m)).collect(),
        repository: Some(fleet.repository_addr()),
    };
    let crawler = Crawler::new(CrawlConfig {
        seeds: seeds_for(&world, 0.5),
        ..CrawlConfig::default()
    });
    let snap = crawler.crawl(&targets);

    // Chinese markets enumerate fully via their indexes.
    for m in MarketId::chinese() {
        let want = world.market_listings(m).len();
        let got = snap.market(m).listings.len();
        assert!(got >= want, "{m}: crawled {got} < listed {want}");
    }
    // Google Play: seeds + BFS + parallel search recovers most of the
    // catalog despite having no index.
    let gp_want = world.market_listings(MarketId::GooglePlay).len();
    let gp_got = snap.market(MarketId::GooglePlay).listings.len();
    assert!(
        gp_got as f64 > gp_want as f64 * 0.6,
        "GP coverage {gp_got}/{gp_want}"
    );
    assert!(
        snap.stats.parallel_search_hits > 0,
        "parallel search inactive"
    );

    // APK harvesting: rate limiting hit Google Play and backfill kicked in.
    assert!(snap.stats.rate_limited > 0, "GP rate limiter never fired");
    assert!(snap.stats.apks_backfilled > 0, "no AndroZoo backfill");
    assert!(snap.stats.parse_failures == 0, "parse failures");
    // Every digest parses consistently with its metadata.
    let mut with_apk = 0usize;
    for (market, listing) in snap.iter() {
        if let Some(d) = &listing.digest {
            assert_eq!(d.package.as_str(), listing.package, "{market}");
            let _ = d.signature_valid; // parsed and recorded either way
            with_apk += 1;
        }
    }
    assert!(with_apk as f64 > snap.total_listings() as f64 * 0.8);
    // The crawl interned its digests: equal package features are one
    // allocation, and library packages make most references shared.
    let mut held: HashMap<(&str, u64), Vec<&Arc<PackageFeature>>> = HashMap::new();
    let (mut references, mut distinct) = (0usize, 0usize);
    for f in snap
        .iter()
        .filter_map(|(_, l)| l.digest.as_ref())
        .flat_map(|d| &d.package_features)
    {
        references += 1;
        let same_key = held.entry((&f.java_package, f.feature_hash)).or_default();
        match same_key.iter().copied().find(|&g| g == f) {
            Some(g) => assert!(Arc::ptr_eq(g, f), "{} held twice", f.java_package),
            None => {
                same_key.push(f);
                distinct += 1;
            }
        }
    }
    assert!(2 * distinct < references, "{distinct} of {references}");
    // Chinese APKs carry store channel files; Google Play's do not.
    let tencent = snap.market(MarketId::TencentMyapp);
    assert!(tencent
        .listings
        .iter()
        .filter_map(|l| l.digest.as_ref())
        .all(|d| d.channels.iter().any(|c| c.contains("tencentchannel"))));
    let gp = snap.market(MarketId::GooglePlay);
    assert!(gp
        .listings
        .iter()
        .filter_map(|l| l.digest.as_ref())
        .all(|d| d.channels.is_empty()));
}

#[test]
fn second_crawl_sees_removals() {
    let world = Arc::new(generate(WorldConfig {
        seed: 9,
        scale: Scale { divisor: 40_000 },
    }));
    let fleet = MarketFleet::spawn(Arc::clone(&world)).unwrap();
    let targets = CrawlTargets {
        markets: MarketId::ALL.iter().map(|m| fleet.addr(*m)).collect(),
        repository: None,
    };
    let crawler = Crawler::new(CrawlConfig {
        seeds: seeds_for(&world, 1.0),
        fetch_apks: false,
        ..CrawlConfig::default()
    });
    let first = crawler.crawl(&targets);
    fleet.set_phase(CrawlPhase::Second);
    let second = crawler.crawl(&targets);
    assert!(
        second.total_listings() < first.total_listings(),
        "second crawl must be smaller ({} vs {})",
        second.total_listings(),
        first.total_listings()
    );
    // Everything still present in the second crawl was present in the first.
    for m in MarketId::chinese() {
        let first_set: std::collections::HashSet<&str> = first
            .market(m)
            .listings
            .iter()
            .map(|l| l.package.as_str())
            .collect();
        for l in &second.market(m).listings {
            assert!(first_set.contains(l.package.as_str()), "{m}: {}", l.package);
        }
    }
}
