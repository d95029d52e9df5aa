//! Drive the crawl machinery by hand: spin up the simulated market fleet,
//! point the crawler at it, and watch the paper's Section 3 mechanics —
//! index walking, Google Play BFS, parallel search, rate limiting and
//! AndroZoo backfill — play out over real loopback HTTP.
//!
//! ```text
//! cargo run --release --example market_crawl
//! ```

use marketscope::core::MarketId;
use marketscope::crawler::{CrawlConfig, CrawlTargets, Crawler};
use marketscope::ecosystem::{generate, Scale, WorldConfig};
use marketscope::market::MarketFleet;
use std::sync::Arc;

fn main() {
    let world = Arc::new(generate(WorldConfig {
        seed: 7,
        scale: Scale { divisor: 8_000 },
    }));
    println!(
        "world: {} listings, {} apps, {} developers",
        world.listing_count(),
        world.apps.len(),
        world.developers.len()
    );

    let fleet = MarketFleet::spawn(Arc::clone(&world)).expect("spawn fleet");
    println!("fleet: 17 markets + repository on loopback");
    for m in [
        MarketId::GooglePlay,
        MarketId::TencentMyapp,
        MarketId::BaiduMarket,
    ] {
        println!("  {:<14} {}", m.slug(), fleet.addr(m));
    }

    // Seed Google Play's BFS with 60% of its packages (an external list
    // never covers everything — the crawler must discover the rest).
    let gp = world.market_listings(MarketId::GooglePlay);
    let seeds: Vec<String> = gp
        .iter()
        .step_by(2)
        .map(|l| world.app(world.listing(*l).app).package.as_str().to_owned())
        .collect();
    println!("seeding Google Play BFS with {} package names", seeds.len());

    let crawler = Crawler::new(CrawlConfig {
        seeds,
        ..CrawlConfig::default()
    });
    let targets = CrawlTargets {
        markets: MarketId::ALL.iter().map(|m| fleet.addr(*m)).collect(),
        repository: Some(fleet.repository_addr()),
    };
    let start = std::time::Instant::now();
    let snap = crawler.crawl(&targets);
    println!(
        "\ncrawl finished in {:.2}s — {} HTTP requests served by the fleet",
        start.elapsed().as_secs_f64(),
        fleet.total_requests()
    );
    println!(
        "listings {}  APKs {}  (direct {}, backfilled {}, missing {})",
        snap.total_listings(),
        snap.total_apks(),
        snap.stats.apks_direct,
        snap.stats.apks_backfilled,
        snap.stats.apks_missing
    );
    println!(
        "google play rate-limited {} times; parallel search found {} cross-market listings",
        snap.stats.rate_limited, snap.stats.parallel_search_hits
    );

    // Show coverage per market.
    println!(
        "\n{:<16} {:>8} {:>8} {:>9}",
        "market", "listed", "crawled", "with APK"
    );
    for m in MarketId::ALL {
        let listed = world.market_listings(m).len();
        let ms = snap.market(m);
        println!(
            "{:<16} {:>8} {:>8} {:>9}",
            m.slug(),
            listed,
            ms.listings.len(),
            ms.apk_count()
        );
    }
}
