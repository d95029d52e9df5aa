//! `crawl_meta`: a metadata-only crawl of a running fleet. Isolates the
//! fan-out path — crawler `fetch_many`, net client, mux, reactor, market
//! metadata handlers — with hundreds of requests in flight, no APK work
//! and (no `/apk`, hence no 429) no backoff sleeping.

use super::{Layer, Rep, Workload};
use crate::harness::{InputHash, Recorder};
use marketscope_core::MarketId;
use marketscope_crawler::{CrawlConfig, CrawlTargets, Crawler};
use marketscope_ecosystem::World;
use marketscope_market::MarketFleet;
use std::sync::Arc;
use std::time::Instant;

/// About 3 000 listings and 30 000 requests a crawl, ~1 s here.
const DIVISOR: u32 = 2000;

pub struct CrawlMeta {
    world: Arc<World>,
    fleet: MarketFleet,
    targets: CrawlTargets,
    seeds: Vec<String>,
    /// (listings, requests, transparent retries) of each crawl.
    crawls: Vec<(u64, u64, u64)>,
    failed: u64,
}

impl Workload for CrawlMeta {
    fn setup(seed: u64) -> Self {
        let world = Arc::new(super::world(seed, DIVISOR));
        let fleet = MarketFleet::spawn(Arc::clone(&world)).expect("spawn fleet on loopback");
        let targets = CrawlTargets {
            markets: MarketId::ALL.iter().map(|m| fleet.addr(*m)).collect(),
            repository: Some(fleet.repository_addr()),
        };
        let seeds = super::gp_seeds(&world, 0.75);
        CrawlMeta {
            world,
            fleet,
            targets,
            seeds,
            crawls: Vec::new(),
            failed: 0,
        }
    }

    fn rep(&mut self, rec: &Recorder, parent: Option<usize>) -> Rep {
        let before = self.fleet.total_requests();
        let start = Instant::now();
        // A fresh crawler each time: connections are opened inside the
        // timed region, as a real crawl opens them.
        let crawler = Crawler::new(CrawlConfig {
            seeds: self.seeds.clone(),
            fetch_apks: false,
            ..CrawlConfig::default()
        });
        let (snapshot, _) = rec.span("crawler.crawl", parent, |_| crawler.crawl(&self.targets));
        let wall_s = start.elapsed().as_secs_f64();
        let requests = self.fleet.total_requests() - before;
        let failed = snapshot.stats.fetch_errors + snapshot.stats.parse_failures;
        let retries = crawler
            .registry()
            .snapshot()
            .counter_sum("marketscope_net_client_retries_total", &[]);
        self.crawls
            .push((snapshot.total_listings() as u64, requests, retries));
        self.failed += failed;
        Rep {
            wall_s,
            ops: snapshot.total_listings() as u64,
            attempted: requests,
            failed,
        }
    }

    fn check(&mut self) -> Vec<String> {
        let mut problems = Vec::new();
        let (listings, requests, _) = self.crawls[0];
        // Google Play has no walkable index: seeds and related-app links
        // reach all but a listing or two of it.
        if (listings as usize) < self.world.listing_count() * 99 / 100 {
            problems.push(format!(
                "crawl found {listings} of the world's {} listings",
                self.world.listing_count()
            ));
        }
        if self
            .crawls
            .iter()
            .any(|c| (c.0, c.1) != (listings, requests))
        {
            problems.push(format!(
                "listing and request counts must repeat: {:?}",
                self.crawls
            ));
        }
        if self.failed > 0 {
            problems.push(format!("{} fetch errors or parse failures", self.failed));
        }
        problems
    }

    fn schedule_hash(&self) -> f64 {
        let mut hash = InputHash::new();
        for seed in &self.seeds {
            hash.bytes(seed.as_bytes());
        }
        for listing in &self.world.listings {
            hash.bytes(self.world.app(listing.app).package.as_str().as_bytes());
        }
        hash.finish()
    }

    fn layers(
        &mut self,
        _: &Recorder,
        _: Option<usize>,
        _: f64,
        untraced_rep_s: f64,
    ) -> Vec<Layer> {
        // Counts come from the repetitions already run: they repeat
        // exactly, so there is nothing further to probe.
        let (_, requests, retries) = *self.crawls.last().expect("at least one crawl ran");
        let (non200, probe_hit) = super::response_shares(&self.fleet.registry().snapshot());
        vec![
            ("crawler.meta_requests", requests as f64),
            ("crawler.req_per_s", requests as f64 / untraced_rep_s),
            ("net.client.transparent_retries", retries as f64),
            ("market.non200_share", non200),
            ("crawler.probe_hit_share", probe_hit),
        ]
    }
}
