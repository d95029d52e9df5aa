//! `campaign`: the user-visible job. Untraced it calls `run_campaign`
//! and renders all 23 artifacts as the `reproduce` binary does; traced it
//! drives the same phases by hand, one span each, mirroring
//! `marketscope_report::pipeline`.

use super::{Layer, Rep, Workload};
use crate::harness::{self, InputHash, Recorder};
use marketscope_core::MarketId;
use marketscope_crawler::{CrawlConfig, CrawlStats, CrawlTargets, Crawler, Snapshot};
use marketscope_ecosystem::Scale;
use marketscope_market::{CrawlPhase, MarketFleet};
use marketscope_report::{
    run_campaign, AnalysisEngine, Analyzed, CampaignConfig, EngineConfig, LabelSource, OpsSummary,
};
use marketscope_telemetry::trace::{Tracer, TracerConfig};
use marketscope_telemetry::Registry;
use std::sync::Arc;
use std::time::Instant;

/// About 3 100 listings over 17 markets: one campaign takes ~6 s here.
/// The scale is this large because a campaign's time comes in steps:
/// Google Play's download bucket refills on the wall clock, so one
/// repetition waits out a 250 ms backoff more or fewer than the next
/// (7 ± 1 at this scale), and `run_campaign` returns on its 100 ms
/// resource sampler's tick. Here a step is 4 % of a repetition. At
/// divisor 8000 a repetition has one backoff or two and a step is 20 %:
/// which of the two a run's median lands on then depends on the seed.
const DIVISOR: u32 = 2000;
const SEED_SHARE: f64 = 0.75;

pub struct Campaign {
    seed: u64,
    hash: f64,
    listings: Vec<u64>,
    failed: u64,
    /// Counts and phase times of the hand-driven repetitions.
    phases: Vec<Phases>,
}

#[derive(Debug, Default, Clone)]
struct Phases {
    generate_ms: f64,
    spawn_ms: f64,
    crawl1_s: f64,
    crawl2_s: f64,
    engine_ms: f64,
    render_ms: f64,
    crawl1_req: f64,
    stats: CrawlStats,
    crawl1_apks: f64,
    apps: f64,
    retries: f64,
    transparent_retries: f64,
    backoff_ms: f64,
    non200_share: f64,
    probe_hit_share: f64,
}

fn config(seed: u64, trace_sample: f64) -> CampaignConfig {
    CampaignConfig {
        seed,
        scale: Scale { divisor: DIVISOR },
        seed_share: SEED_SHARE,
        trace_sample,
        ..CampaignConfig::default()
    }
}

fn render_all(
    snapshot: &Snapshot,
    second: &Snapshot,
    analyzed: &Analyzed,
    labels: &LabelSource,
    ops: &OpsSummary,
) -> u64 {
    let mut artifacts = super::snapshot_artifacts(snapshot);
    artifacts.extend(super::analysis_artifacts(
        analyzed, labels, snapshot, second,
    ));
    artifacts.push(("ops", ops.render()));
    assert_eq!(artifacts.len(), 23, "the paper has 23 artifacts");
    super::empty_artifacts(&std::hint::black_box(artifacts))
}

impl Campaign {
    fn by_hand(&mut self, rec: &Recorder, parent: Option<usize>) -> Rep {
        let start = Instant::now();
        let mut p = Phases::default();
        let (world, s) = rec.span("ecosystem.generate", parent, |_| {
            Arc::new(super::world(self.seed, DIVISOR))
        });
        p.generate_ms = s * 1e3;
        let (fleet, s) = rec.span("market.fleet_spawn", parent, |_| {
            MarketFleet::spawn(Arc::clone(&world)).expect("spawn fleet on loopback")
        });
        p.spawn_ms = s * 1e3;
        let targets = CrawlTargets {
            markets: MarketId::ALL.iter().map(|m| fleet.addr(*m)).collect(),
            repository: Some(fleet.repository_addr()),
        };
        let registry = Arc::new(Registry::new());
        let tracer = Arc::new(Tracer::new(TracerConfig {
            sample_rate: 0.0,
            capacity: 65_536,
        }));
        fleet.add_scrape_source(Arc::clone(&registry));
        let log = Arc::clone(fleet.event_log());
        let crawler = |config: CrawlConfig| {
            Crawler::with_ops(
                config,
                Arc::clone(&registry),
                Arc::clone(&tracer),
                Some(Arc::clone(&log)),
            )
        };

        let (snapshot, s) = rec.span("crawler.crawl1", parent, |_| {
            let snapshot = crawler(CrawlConfig {
                seeds: super::gp_seeds(&world, SEED_SHARE),
                ..CrawlConfig::default()
            })
            .crawl(&targets);
            fleet.tick_now();
            snapshot
        });
        p.crawl1_s = s;
        p.crawl1_req = fleet.total_requests() as f64;
        p.stats = snapshot.stats;
        p.crawl1_apks = snapshot.total_apks() as f64;

        let (second, s) = rec.span("crawler.crawl2", parent, |_| {
            fleet.set_phase(CrawlPhase::Second);
            let second = crawler(CrawlConfig {
                seeds: snapshot
                    .market(MarketId::GooglePlay)
                    .listings
                    .iter()
                    .map(|l| l.package.clone())
                    .collect(),
                fetch_apks: false,
                ..CrawlConfig::default()
            })
            .crawl(&targets);
            fleet.tick_now();
            fleet.tick_now();
            second
        });
        p.crawl2_s = s;
        let requests = fleet.total_requests();

        let analysis_registry = Arc::new(Registry::new());
        let ((analyzed, labels, ops), s) = rec.span("report.engine", parent, |_| {
            let slo = fleet.slo_verdicts();
            let serving = fleet.registry().snapshot();
            fleet.stop();
            let events = fleet.events();
            let labels = LabelSource::from_world(&world);
            let analyzed = AnalysisEngine::with_telemetry(
                EngineConfig::default(),
                Arc::clone(&analysis_registry),
                Arc::clone(&tracer),
            )
            .run(&snapshot);
            let telemetry = serving
                .merge(&registry.snapshot())
                .merge(&analysis_registry.snapshot());
            let ops = OpsSummary::from_snapshot(&telemetry)
                .with_slo(&slo)
                .with_events(&events, 12);
            (analyzed, labels, ops)
        });
        p.engine_ms = s * 1e3;
        p.apps = analyzed.apps.len() as f64;

        let (empty, s) = rec.span("report.render", parent, |_| {
            render_all(&snapshot, &second, &analyzed, &labels, &ops)
        });
        p.render_ms = s * 1e3;

        let client = registry.snapshot();
        p.retries =
            client.counter_sum("marketscope_net_client_resilient_retries_total", &[]) as f64;
        p.transparent_retries =
            client.counter_sum("marketscope_net_client_retries_total", &[]) as f64;
        p.backoff_ms =
            client.counter_sum("marketscope_net_client_backoff_nanos_total", &[]) as f64 / 1e6;
        (p.non200_share, p.probe_hit_share) = super::response_shares(&fleet.registry().snapshot());

        let failed = failures(&snapshot.stats, &second.stats, empty);
        self.listings.push(snapshot.total_listings() as u64);
        self.failed += failed;
        self.phases.push(p);
        Rep {
            wall_s: start.elapsed().as_secs_f64(),
            ops: snapshot.total_listings() as u64,
            attempted: requests,
            failed,
        }
    }
}

fn failures(first: &CrawlStats, second: &CrawlStats, empty_artifacts: u64) -> u64 {
    first.fetch_errors
        + first.parse_failures
        + second.fetch_errors
        + second.parse_failures
        + empty_artifacts
}

impl Workload for Campaign {
    /// A run shorter than three campaigns is extended to three.
    const MIN_REPS: usize = 3;

    fn setup(seed: u64) -> Self {
        // The campaign generates, serves and tears down its own world in
        // the timed region; set-up only generates the same world once, to
        // fingerprint the inputs the seed yields.
        let world = super::world(seed, DIVISOR);
        let mut hash = InputHash::new();
        for listing in &world.listings {
            hash.bytes(world.app(listing.app).package.as_str().as_bytes());
            hash.u64(u64::from(listing.version));
        }
        Campaign {
            seed,
            hash: hash.finish(),
            listings: Vec::new(),
            failed: 0,
            phases: Vec::new(),
        }
    }

    fn rep(&mut self, rec: &Recorder, parent: Option<usize>) -> Rep {
        if rec.enabled() {
            return self.by_hand(rec, parent);
        }
        let start = Instant::now();
        let c = run_campaign(config(self.seed, 0.0));
        let empty = render_all(&c.snapshot, &c.second, &c.analyzed, &c.labels, &c.ops);
        let wall_s = start.elapsed().as_secs_f64();
        let failed = failures(&c.snapshot.stats, &c.second.stats, empty);
        self.listings.push(c.snapshot.total_listings() as u64);
        self.failed += failed;
        Rep {
            wall_s,
            ops: c.snapshot.total_listings() as u64,
            attempted: c
                .telemetry
                .counter_sum("marketscope_net_requests_total", &[]),
            failed,
        }
    }

    fn check(&mut self) -> Vec<String> {
        let mut problems = Vec::new();
        if self
            .listings
            .iter()
            .any(|n| *n != self.listings[0] || *n == 0)
        {
            problems.push(format!(
                "first-crawl listing count must repeat: {:?}",
                self.listings
            ));
        }
        if self.failed > 0 {
            problems.push(format!(
                "{} fetch errors, parse failures or empty artifacts",
                self.failed
            ));
        }
        problems
    }

    fn schedule_hash(&self) -> f64 {
        self.hash
    }

    fn layers(
        &mut self,
        rec: &Recorder,
        parent: Option<usize>,
        seconds: f64,
        untraced_rep_s: f64,
    ) -> Vec<Layer> {
        // The program's own tracer at full sampling, against this run's
        // untraced repetitions: its single end-to-end overhead line.
        let start = Instant::now();
        let mut sampled = Vec::new();
        while sampled.is_empty() || start.elapsed().as_secs_f64() < seconds {
            let (c, s) = rec.span("telemetry.sampled_campaign", parent, |_| {
                let c = run_campaign(config(self.seed, 1.0));
                render_all(&c.snapshot, &c.second, &c.analyzed, &c.labels, &c.ops);
                c
            });
            self.listings.push(c.snapshot.total_listings() as u64);
            sampled.push(s);
        }
        let med =
            |f: fn(&Phases) -> f64| harness::median(&self.phases.iter().map(f).collect::<Vec<_>>());
        vec![
            ("ecosystem.generate_ms", med(|p| p.generate_ms)),
            ("market.fleet_spawn_ms", med(|p| p.spawn_ms)),
            ("crawler.crawl1_s", med(|p| p.crawl1_s)),
            ("crawler.crawl2_s", med(|p| p.crawl2_s)),
            ("report.engine_ms", med(|p| p.engine_ms)),
            ("report.render_ms", med(|p| p.render_ms)),
            ("crawler.crawl1_req", med(|p| p.crawl1_req)),
            (
                "crawler.crawl1_listings",
                med(|p| p.stats.metadata_fetched as f64),
            ),
            ("crawler.crawl1_apks", med(|p| p.crawl1_apks)),
            ("crawler.rate_limited", med(|p| p.stats.rate_limited as f64)),
            (
                "crawler.apks_backfilled",
                med(|p| p.stats.apks_backfilled as f64),
            ),
            ("crawler.apks_missing", med(|p| p.stats.apks_missing as f64)),
            ("net.client.retries", med(|p| p.retries)),
            (
                "net.client.transparent_retries",
                med(|p| p.transparent_retries),
            ),
            ("net.client.backoff_ms", med(|p| p.backoff_ms)),
            ("market.non200_share", med(|p| p.non200_share)),
            ("crawler.probe_hit_share", med(|p| p.probe_hit_share)),
            ("report.engine.apps", med(|p| p.apps)),
            (
                "telemetry.trace_overhead_share",
                harness::median(&sampled) / untraced_rep_s - 1.0,
            ),
        ]
    }
}
