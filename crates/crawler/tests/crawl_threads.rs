//! The crawl's thread budget: one loop on the caller's thread, the mux
//! driver, and the digest workers — nothing per market.
//!
//! Its own test binary with a single test, like the fleet's: the count
//! comes from `/proc/self/status`, which a sibling test spawning threads
//! of its own would move.
//!
//! The crawl samples its own thread peak at its phase barriers. An
//! observer thread polling the count all through the crawl must see the
//! same peak, so a thread the crawl starts between barriers fails here.

use marketscope_core::parallel::default_workers;
use marketscope_core::MarketId;
use marketscope_crawler::{CrawlConfig, CrawlTargets, Crawler};
use marketscope_ecosystem::{generate, Scale, WorldConfig};
use marketscope_market::MarketFleet;
use marketscope_telemetry::perf::thread_count;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn a_crawl_adds_the_driver_and_the_digest_workers() {
    let threads = || thread_count().expect("linux /proc");
    let world = Arc::new(generate(WorldConfig {
        seed: 6,
        scale: Scale { divisor: 40_000 },
    }));
    let fleet = MarketFleet::spawn(Arc::clone(&world)).unwrap();
    let targets = CrawlTargets {
        markets: MarketId::ALL.iter().map(|m| fleet.addr(*m)).collect(),
        repository: Some(fleet.repository_addr()),
    };
    let seeds = world
        .market_listings(MarketId::GooglePlay)
        .iter()
        .map(|l| world.app(world.listing(*l).app).package.as_str().to_owned())
        .collect();
    let crawler = Crawler::new(CrawlConfig {
        seeds,
        ..CrawlConfig::default()
    });

    let stop = Arc::new(AtomicBool::new(false));
    let observer = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut peak = 0;
            while !stop.load(Ordering::Relaxed) {
                peak = peak.max(threads());
                std::thread::sleep(Duration::from_micros(50));
            }
            peak
        })
    };
    let baseline = threads();
    let snapshot = crawler.crawl(&targets);
    stop.store(true, Ordering::Relaxed);
    let peak = observer.join().expect("observer");
    assert!(snapshot.total_apks() > 0, "the harvest ran");
    let budget = 1 + default_workers() as u64;
    assert!(
        peak <= baseline + budget,
        "a 17-market crawl peaked at {} threads over {baseline}; the budget is {budget}",
        peak - baseline
    );
    let sampled = crawler
        .registry()
        .snapshot()
        .gauge_value("marketscope_process_threads_peak", &[]);
    assert_eq!(
        sampled,
        Some(peak as i64),
        "the crawl's own thread peak differs from the observer's"
    );

    // The digest stage is joined with the harvest, the driver with the
    // crawler. A joined thread leaves the kernel's count a moment after
    // `join` returns.
    drop(crawler);
    let deadline = Instant::now() + Duration::from_secs(5);
    while threads() > baseline - 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(threads(), baseline - 1, "the crawl left threads behind");
    fleet.stop();
}
