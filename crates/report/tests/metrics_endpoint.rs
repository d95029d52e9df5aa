//! End-to-end observability: spawn the fleet, run a small crawl, scrape
//! `GET /__metrics`, and check the exposition agrees with the crawler's
//! own accounting.

use marketscope_core::MarketId;
use marketscope_crawler::{CrawlConfig, CrawlTargets, Crawler};
use marketscope_ecosystem::{generate, Scale, WorldConfig};
use marketscope_market::MarketFleet;
use marketscope_net::HttpClient;
use marketscope_telemetry::{parse, Sample};
use std::sync::Arc;

fn sample_value(samples: &[Sample], name: &str, labels: &[(&str, &str)]) -> Option<f64> {
    samples
        .iter()
        .find(|s| {
            s.name == name
                && labels
                    .iter()
                    .all(|(k, v)| s.labels.iter().any(|(sk, sv)| sk == k && sv == v))
                && s.labels.len() == labels.len()
        })
        .map(|s| s.value)
}

#[test]
fn crawl_metrics_scrape_is_self_consistent() {
    let world = Arc::new(generate(WorldConfig {
        seed: 7,
        scale: Scale { divisor: 60_000 },
    }));
    let fleet = MarketFleet::spawn(Arc::clone(&world)).unwrap();
    let targets = CrawlTargets {
        markets: MarketId::ALL.iter().map(|m| fleet.addr(*m)).collect(),
        repository: Some(fleet.repository_addr()),
    };
    let gp = world.market_listings(MarketId::GooglePlay);
    let seeds: Vec<String> = gp
        .iter()
        .take(10)
        .map(|l| world.app(world.listing(*l).app).package.as_str().to_owned())
        .collect();

    let crawler = Crawler::new(CrawlConfig {
        seeds,
        ..CrawlConfig::default()
    });
    let snapshot = crawler.crawl(&targets);
    assert!(snapshot.stats.metadata_fetched > 0, "crawl did nothing");

    // One scrape serves the whole fleet's registry.
    let client = HttpClient::new();
    let resp = client
        .get(fleet.addr(MarketId::GooglePlay), "/__metrics")
        .unwrap();
    let text = String::from_utf8(resp.body).unwrap();
    let samples = parse(&text).expect("exposition must parse");

    for m in MarketId::ALL {
        let slug = m.slug();
        let labels = [("market", slug)];
        let requests = sample_value(&samples, "marketscope_net_requests_total", &labels)
            .unwrap_or_else(|| panic!("no request counter for {slug}"));
        assert!(requests >= 1.0, "{slug} served no requests");

        // Per-status counters: everything served must be accounted for,
        // and at least one 200 happened on every market.
        let by_status: f64 = samples
            .iter()
            .filter(|s| {
                s.name == "marketscope_net_responses_total"
                    && s.labels.iter().any(|(k, v)| k == "market" && v == slug)
            })
            .map(|s| s.value)
            .sum();
        assert_eq!(by_status, requests, "{slug} status counters disagree");
        let ok = sample_value(
            &samples,
            "marketscope_net_responses_total",
            &[("market", slug), ("status", "200")],
        )
        .unwrap_or(0.0);
        assert!(ok >= 1.0, "{slug} returned no 200s");

        // The latency histogram timed exactly the requests served: the
        // scrape itself is still in flight when the registry renders, so
        // counts and timings agree.
        let timed = sample_value(&samples, "marketscope_net_handler_nanos_count", &labels)
            .unwrap_or_else(|| panic!("no handler histogram for {slug}"));
        assert_eq!(timed, requests, "{slug} latency count != requests");
    }

    // Crawler-side listing counters agree with CrawlStats.
    let crawler_snap = crawler.registry().snapshot();
    assert_eq!(
        crawler_snap.counter_sum("marketscope_crawler_listings_fetched_total", &[]),
        snapshot.stats.metadata_fetched,
        "telemetry and CrawlStats disagree on listings fetched"
    );

    // And the harvest counters match the snapshot's digest count.
    let harvested = crawler_snap.counter_sum("marketscope_crawler_apks_harvested_total", &[]);
    assert!(harvested >= snapshot.total_apks() as u64);
    fleet.stop();
}
