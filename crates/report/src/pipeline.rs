//! End-to-end campaign runner: generate a world, serve it, crawl it
//! twice, analyze everything.

use crate::context::{Analyzed, LabelSource};
use crate::engine::{AnalysisEngine, EngineConfig};
use crate::ops::OpsSummary;
use marketscope_core::MarketId;
use marketscope_crawler::{CrawlConfig, CrawlTargets, Crawler, Snapshot};
use marketscope_ecosystem::{generate, Scale, World, WorldConfig};
use marketscope_market::{ChaosProfile, CrawlPhase, MarketFleet};
use marketscope_telemetry::trace::{Tracer, TracerConfig};
use marketscope_telemetry::{
    perf, JournalSnapshot, LogSnapshot, Registry, RegistrySnapshot, SeriesSnapshot, SloVerdict,
};
use std::sync::Arc;

/// Campaign parameters.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// World seed.
    pub seed: u64,
    /// World scale.
    pub scale: Scale,
    /// Share of the Google Play catalog present in the external seed
    /// list (the paper's PrivacyGrade list covered ~74% of GP).
    pub seed_share: f64,
    /// Emit a structured `crawl-progress` line to stderr for each market
    /// as it finishes each phase of either crawl.
    pub progress: bool,
    /// Share of crawl fetches opening sampled trace spans (`0.0` = off,
    /// `1.0` = every fetch). Sampled spans propagate over the wire, so
    /// the fleet's server-side spans join the same traces.
    pub trace_sample: f64,
    /// Seeded chaos for the market fleet (`None` = clean weather). The
    /// same profile injects the same fault sequence every run, so a
    /// chaos campaign replays exactly.
    pub chaos: Option<ChaosProfile>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 0x1517_2018,
            scale: Scale::SMALL,
            seed_share: 0.75,
            progress: false,
            trace_sample: 0.0,
            chaos: None,
        }
    }
}

/// Everything a full campaign produces.
pub struct Campaign {
    /// The generated ground-truth world (kept for validation only).
    pub world: Arc<World>,
    /// First-crawl snapshot (metadata + APK digests).
    pub snapshot: Snapshot,
    /// Second-crawl snapshot (catalog presence only), 8 simulated months
    /// later.
    pub second: Snapshot,
    /// Library labelling source (the manual-labelling stand-in).
    pub labels: LabelSource,
    /// Shared analysis artifacts.
    pub analyzed: Analyzed,
    /// Operational summary from the merged fleet + crawler + analysis
    /// telemetry: per-market request counts, error rates, handler-latency
    /// percentiles, harvest totals, and per-stage analysis latencies.
    pub ops: OpsSummary,
    /// Merged trace journal (crawler-side + fleet-side + ops tick
    /// spans); sampled fetch traces appear only when `trace_sample` was
    /// above zero. Export with [`marketscope_telemetry::chrome_trace`].
    pub traces: JournalSnapshot,
    /// Final SLO verdicts from the fleet's evaluator (after the
    /// post-traffic settle tick).
    pub slo: Vec<SloVerdict>,
    /// The windowed time series over the merged fleet + crawler
    /// registries: one point per phase mark.
    pub series: SeriesSnapshot,
    /// The structured event log: alerts, fault injections, breaker
    /// transitions, quarantines, shed, fleet lifecycle.
    pub events: LogSnapshot,
    /// The merged end-of-campaign registry snapshot (fleet + crawler +
    /// analysis) — the same numbers the ops summary and the `--ops-bundle`
    /// exposition render.
    pub telemetry: RegistrySnapshot,
}

/// Run the whole measurement campaign.
pub fn run_campaign(config: CampaignConfig) -> Campaign {
    let world = Arc::new(generate(WorldConfig {
        seed: config.seed,
        scale: config.scale,
    }));
    let fleet = match config.chaos {
        Some(profile) => MarketFleet::spawn_with_chaos(Arc::clone(&world), profile),
        None => MarketFleet::spawn(Arc::clone(&world)),
    }
    .unwrap_or_else(|e| panic!("spawn fleet: {e}"));
    let targets = CrawlTargets {
        markets: MarketId::ALL.iter().map(|m| fleet.addr(*m)).collect(),
        repository: Some(fleet.repository_addr()),
    };
    // Seed list: a deterministic share of GP packages, as an external
    // list would cover.
    let gp = world.market_listings(MarketId::GooglePlay);
    let seeds: Vec<String> = gp
        .iter()
        .enumerate()
        .filter(|(i, _)| (*i as f64) < gp.len() as f64 * config.seed_share)
        .map(|(_, l)| world.app(world.listing(*l).app).package.as_str().to_owned())
        .collect();

    // Both campaigns share one crawler registry so harvest totals
    // accumulate across crawls; merged with the fleet's registry at the
    // end, it becomes the ops summary.
    let crawl_registry = Arc::new(Registry::new());
    // Resource profiling rides the crawl registry: the process's RSS
    // high-water mark and its thread peak (sampled here, at each crawl
    // phase barrier and at the end), plus the build-info marker, surface
    // as the ops summary's perf section.
    perf::register_build_info(
        &crawl_registry,
        env!("CARGO_PKG_VERSION"),
        perf::build_profile(),
    );
    perf::sample(&crawl_registry);
    // One crawl-side tracer shared by both crawlers and the analysis
    // engine; the fleet keeps its own propagate-only tracer, and the two
    // journals merge into one timeline at the end.
    let tracer = Arc::new(Tracer::new(TracerConfig {
        sample_rate: config.trace_sample,
        capacity: 65_536,
    }));

    // The fleet's ticks also sample the crawler's registry, so
    // client-side SLOs (breaker opens) are judged with the servers', and
    // crawler events land in the fleet's shared log.
    fleet.add_scrape_source(Arc::clone(&crawl_registry));
    let event_log = Arc::clone(fleet.event_log());

    // Each crawler is a temporary: its client's mux driver thread is
    // joined as soon as its crawl returns, not kept idle through the
    // next crawl and the analysis.
    let snapshot = Crawler::with_ops(
        CrawlConfig {
            seeds,
            trace_sample: config.trace_sample,
            progress: config.progress,
            ..CrawlConfig::default()
        },
        Arc::clone(&crawl_registry),
        Arc::clone(&tracer),
        Some(Arc::clone(&event_log)),
    )
    .crawl(&targets);
    // The ops plane ticks only at phase marks: each window holds whole
    // phases of requests, so what fires is a function of the seed.
    fleet.tick_now();

    fleet.set_phase(CrawlPhase::Second);
    let second = Crawler::with_ops(
        CrawlConfig {
            seeds: snapshot
                .market(MarketId::GooglePlay)
                .listings
                .iter()
                .map(|l| l.package.clone())
                .collect(),
            fetch_apks: false,
            trace_sample: config.trace_sample,
            progress: config.progress,
            ..CrawlConfig::default()
        },
        Arc::clone(&crawl_registry),
        Arc::clone(&tracer),
        Some(Arc::clone(&event_log)),
    )
    .crawl(&targets);
    // The second crawl's mark, then a settle tick with traffic stopped:
    // its fast window sees zero deltas, so any still-firing burn-rate
    // alert resolves before the final verdicts are read.
    fleet.tick_now();
    fleet.tick_now();
    let slo = fleet.slo_verdicts();
    let series = fleet.series();
    let serving = fleet.registry().snapshot();
    fleet.stop();
    let events = fleet.events();
    // Snapshot after stop: server-side spans record when the response
    // write returns, so stopping first guarantees the journal is settled.
    let serving_traces = fleet.tracer().snapshot();
    let ops_traces = fleet.ops_traces();

    let labels = LabelSource::from_world(&world);
    // Staged analysis, instrumented into its own registry so the ops
    // summary can report per-stage latencies alongside the crawl totals.
    let analysis_registry = Arc::new(Registry::new());
    let analyzed = AnalysisEngine::with_telemetry(
        EngineConfig::default(),
        Arc::clone(&analysis_registry),
        Arc::clone(&tracer),
    )
    .run(&snapshot);
    // Request-side journal (crawler + analysis + fleet servers) feeds
    // the slowest-traces view; the ops plane's tick spans merge in
    // afterwards so alert events' trace ids resolve without ticks
    // crowding the operator's slow list.
    let request_traces = tracer.snapshot().merge(&serving_traces);
    // The last sample, before the registry is snapshotted below.
    perf::sample(&crawl_registry);
    let telemetry = serving
        .merge(&crawl_registry.snapshot())
        .merge(&analysis_registry.snapshot());
    let ops = OpsSummary::from_snapshot(&telemetry)
        .with_traces(&request_traces, 5)
        .with_slo(&slo)
        .with_events(&events, 12);
    let traces = request_traces.merge(&ops_traces);
    Campaign {
        world,
        snapshot,
        second,
        labels,
        analyzed,
        ops,
        traces,
        slo,
        series,
        events,
        telemetry,
    }
}
