//! The full serving fleet: 17 markets plus the offline repository.

use crate::chaos::ChaosProfile;
use crate::repository::AndroZooServer;
use crate::server::{CrawlPhase, MarketServer, OpsHandles};
use marketscope_core::MarketId;
use marketscope_ecosystem::World;
use marketscope_net::fault::{FaultInjector, FaultPlan};
use marketscope_net::{ReactorConfig, Transport};
use marketscope_telemetry::trace::{JournalSnapshot, Tracer, TracerConfig};
use marketscope_telemetry::{
    EventLog, LogLevel, LogSnapshot, Registry, SeriesSnapshot, SeriesStore, SloEvaluator,
    SloPolicy, SloVerdict,
};
use parking_lot::Mutex;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Points the ops plane keeps per instrument. A campaign cuts three
/// ticks (one after each crawl and a settle tick), so its series never
/// wrap; a fleet ticked more often keeps its newest 600.
const SERIES_CAPACITY: usize = 600;

/// Retained structured events; the fleet-wide incident narrative
/// (alerts, fault injections, breaker flips, shed) rarely outruns this
/// between scrapes of `/__log`.
const EVENT_LOG_CAPACITY: usize = 4096;

/// All 17 market servers plus the AndroZoo repository, bound to ephemeral
/// loopback ports: eighteen listeners on one [`Transport`], so the fleet
/// costs one acceptor and one shard set (three threads) however many
/// markets it serves.
///
/// The whole fleet shares one telemetry [`Registry`]: every server's
/// request counters, latency histograms and rate-limiter instruments
/// carry a `market="<slug>"` label, and any market's `GET /__metrics`
/// endpoint serves the combined fleet exposition.
///
/// The fleet also holds the ops plane. Each
/// [`tick_now`](MarketFleet::tick_now) cuts one point of windowed time
/// series from the merged registry and re-judges the fleet SLOs with an
/// [`SloEvaluator`] (served at any market's `GET /__slo`); a shared
/// [`EventLog`] collects structured incidents from every seam (served
/// at `GET /__log`). No thread ticks: the fleet's owner calls `tick_now`
/// at its phase marks, so what fires is a function of the traffic, not
/// of wall time. Each tick runs inside a span on a dedicated
/// always-sampling ops tracer, so alert events carry trace ids that
/// resolve in the journal returned by
/// [`ops_traces`](MarketFleet::ops_traces).
pub struct MarketFleet {
    servers: Vec<MarketServer>,
    repository: AndroZooServer,
    transport: Arc<Transport>,
    registry: Arc<Registry>,
    tracer: Arc<Tracer>,
    event_log: Arc<EventLog>,
    slo: Arc<Mutex<SloEvaluator>>,
    ops_tracer: Arc<Tracer>,
    series: Mutex<SeriesStore>,
    extra_sources: Mutex<Vec<Arc<Registry>>>,
    stopped: AtomicBool,
}

impl MarketFleet {
    /// Spawn the whole fleet over a world.
    pub fn spawn(world: Arc<World>) -> Result<MarketFleet, marketscope_net::NetError> {
        MarketFleet::spawn_inner(world, None)
    }

    /// Spawn the fleet with seeded chaos: each market serves behind the
    /// [`FaultInjector`] its [`ChaosProfile`] plan prescribes (Google
    /// Play stays clean — its pathology is the rate limiter). The
    /// offline repository is never faulted; it is the backfill anchor.
    pub fn spawn_with_chaos(
        world: Arc<World>,
        chaos: ChaosProfile,
    ) -> Result<MarketFleet, marketscope_net::NetError> {
        MarketFleet::spawn_inner(world, Some(chaos))
    }

    fn spawn_inner(
        world: Arc<World>,
        chaos: Option<ChaosProfile>,
    ) -> Result<MarketFleet, marketscope_net::NetError> {
        // Servers never *start* traces (sample rate 0), but a shared
        // journal records the spans that crawler-sampled requests
        // propagate in — one fleet-wide timeline.
        let tracer = Arc::new(Tracer::new(TracerConfig::propagate_only(16_384)));
        let registry = Arc::new(Registry::new());
        // Stamp the exposition with the producing binary: scrapes record
        // which version/profile served the fleet.
        marketscope_telemetry::perf::register_build_info(
            &registry,
            env!("CARGO_PKG_VERSION"),
            marketscope_telemetry::perf::build_profile(),
        );

        // The ops plane. A tick needs its own always-sampling tracer: the
        // fleet request tracer records nothing it starts locally, and
        // alert events must carry resolvable trace ids.
        let event_log = Arc::new(EventLog::new(EVENT_LOG_CAPACITY));
        let slo = Arc::new(Mutex::new(
            SloEvaluator::new(SloPolicy::fleet_default())
                .instrumented(&registry)
                .with_log(Arc::clone(&event_log)),
        ));
        let ops_tracer = Arc::new(Tracer::new(TracerConfig::always(4096)));

        let ops = OpsHandles {
            slo: Arc::clone(&slo),
            log: Arc::clone(&event_log),
        };
        let transport = Transport::spawn(ReactorConfig::default())?;
        let mut servers = Vec::with_capacity(17);
        for m in MarketId::ALL {
            let plan = chaos.map(|c| c.plan_for(m)).unwrap_or(FaultPlan::none());
            let faults = match (plan.is_noop(), chaos) {
                (false, Some(c)) => Some(
                    FaultInjector::instrumented(
                        c.seed_for(m),
                        plan,
                        &registry,
                        &[("market", m.slug())],
                    )
                    .with_log(Arc::clone(&event_log), m.slug()),
                ),
                _ => None,
            };
            let server = MarketServer::spawn_on(
                &transport,
                Arc::clone(&world),
                m,
                Arc::clone(&registry),
                Arc::clone(&tracer),
                faults,
                Some(ops.clone()),
            )?;
            event_log.record(
                LogLevel::Info,
                "market.fleet",
                "market server started",
                &[
                    ("market", m.slug()),
                    ("addr", &server.addr().to_string()),
                    ("chaos", if plan.is_noop() { "none" } else { "seeded" }),
                ],
            );
            servers.push(server);
        }
        let repository = AndroZooServer::spawn_on(
            &transport,
            Arc::clone(&world),
            Arc::clone(&registry),
            Arc::clone(&tracer),
        )?;
        event_log.record(
            LogLevel::Info,
            "market.fleet",
            "fleet started",
            &[
                ("markets", &servers.len().to_string()),
                ("repository", &repository.addr().to_string()),
            ],
        );
        Ok(MarketFleet {
            servers,
            repository,
            transport,
            registry,
            tracer,
            event_log,
            slo,
            ops_tracer,
            series: Mutex::new(SeriesStore::new(SERIES_CAPACITY)),
            extra_sources: Mutex::new(Vec::new()),
            stopped: AtomicBool::new(false),
        })
    }

    /// The registry shared by every server in the fleet.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The tracer shared by every server in the fleet (including the
    /// repository). Its journal holds the server side of every sampled
    /// crawl request; any market's `GET /__trace` renders it.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// The fleet-wide structured event log.
    pub fn event_log(&self) -> &Arc<EventLog> {
        &self.event_log
    }

    /// Snapshot of the structured event log.
    pub fn events(&self) -> LogSnapshot {
        self.event_log.snapshot()
    }

    /// The SLO verdicts from the latest tick (empty before the first).
    pub fn slo_verdicts(&self) -> Vec<SloVerdict> {
        self.slo.lock().verdicts()
    }

    /// Snapshot of the windowed time series the ticks have cut.
    pub fn series(&self) -> SeriesSnapshot {
        self.series.lock().snapshot()
    }

    /// Cut one tick: snapshot the registry merged with every scrape
    /// source, append it to the series as one point per instrument, and
    /// re-judge the SLOs over the new windows. The ops plane's only
    /// tick; campaigns call it at their phase marks, and once more after
    /// traffic stops so firing alerts observe a zero-delta tick and
    /// resolve.
    pub fn tick_now(&self) {
        // Each tick is its own trace: `root_span` starts one even with no
        // ambient context, so alert events always carry a resolvable
        // trace id.
        let span = self.ops_tracer.root_span("ops", "scrape-tick");
        let mut snap = self.registry.snapshot();
        for source in self.extra_sources.lock().iter() {
            snap = snap.merge(&source.snapshot());
        }
        let mut series = self.series.lock();
        series.observe(&snap);
        self.slo.lock().evaluate(&series);
        drop(series);
        span.finish();
    }

    /// Journal of the ops tracer: one span per tick, the spans alert
    /// events' trace ids resolve against.
    pub fn ops_traces(&self) -> JournalSnapshot {
        self.ops_tracer.snapshot()
    }

    /// Merge another registry into every future tick (the campaign adds
    /// the crawler's client-side registry so breaker SLOs are judged on
    /// the same ticks as the servers').
    pub fn add_scrape_source(&self, registry: Arc<Registry>) {
        self.extra_sources.lock().push(registry);
    }

    /// Address of one market's server.
    pub fn addr(&self, market: MarketId) -> SocketAddr {
        self.servers[market.index()].addr()
    }

    /// Address of the offline repository.
    pub fn repository_addr(&self) -> SocketAddr {
        self.repository.addr()
    }

    /// Switch every market to a crawl phase.
    pub fn set_phase(&self, phase: CrawlPhase) {
        for s in &self.servers {
            s.set_phase(phase);
        }
    }

    /// Total HTTP requests served across the fleet.
    pub fn total_requests(&self) -> u64 {
        self.servers.iter().map(|s| s.request_count()).sum()
    }

    /// Retire every server's listener, then join the transport they
    /// shared.
    pub fn stop(&self) {
        let first = !self.stopped.swap(true, Ordering::SeqCst);
        for s in &self.servers {
            s.stop();
        }
        self.repository.stop();
        self.transport.stop();
        if first {
            self.event_log.record(
                LogLevel::Info,
                "market.fleet",
                "fleet stopped",
                &[("markets", &self.servers.len().to_string())],
            );
        }
    }
}

impl Drop for MarketFleet {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marketscope_ecosystem::{generate, Scale, WorldConfig};
    use marketscope_net::HttpClient;
    use marketscope_telemetry::AlertState;

    #[test]
    fn fleet_serves_all_markets() {
        let w = Arc::new(generate(WorldConfig {
            seed: 1,
            scale: Scale { divisor: 60_000 },
        }));
        let fleet = MarketFleet::spawn(Arc::clone(&w)).unwrap();
        let client = HttpClient::new();
        for m in MarketId::ALL {
            let doc = client.get_json(fleet.addr(m), "/index").unwrap();
            assert!(
                !doc.get("packages").unwrap().as_arr().unwrap().is_empty(),
                "{m} index empty"
            );
        }
        assert!(fleet.total_requests() >= 17);
        fleet.stop();
    }

    #[test]
    fn metrics_endpoint_serves_fleet_exposition() {
        let w = Arc::new(generate(WorldConfig {
            seed: 5,
            scale: Scale { divisor: 60_000 },
        }));
        let fleet = MarketFleet::spawn(Arc::clone(&w)).unwrap();
        let client = HttpClient::new();
        // Generate some traffic on two markets.
        let gp = MarketId::GooglePlay;
        let huawei = MarketId::HuaweiMarket;
        client.get_json(fleet.addr(gp), "/index").unwrap();
        client.get_json(fleet.addr(huawei), "/index").unwrap();

        // Any market's /__metrics serves the combined registry.
        let resp = client.get(fleet.addr(gp), "/__metrics").unwrap();
        let text = String::from_utf8(resp.body).unwrap();
        let samples = marketscope_telemetry::parse(&text).unwrap();
        assert!(!samples.is_empty());
        for slug in [gp.slug(), huawei.slug()] {
            assert!(
                samples.iter().any(|s| {
                    s.name == "marketscope_net_requests_total"
                        && s.labels.iter().any(|(k, v)| k == "market" && v == slug)
                        && s.value >= 1.0
                }),
                "no request counter for {slug} in exposition"
            );
        }
        // The exposition matches the in-process registry's view.
        let snap = fleet.registry().snapshot();
        assert_eq!(
            snap.counter_value(
                "marketscope_net_requests_total",
                &[("market", huawei.slug())]
            ),
            Some(1)
        );
    }

    #[test]
    fn fleet_exposition_carries_build_info() {
        let w = Arc::new(generate(WorldConfig {
            seed: 3,
            scale: Scale { divisor: 60_000 },
        }));
        let fleet = MarketFleet::spawn(Arc::clone(&w)).unwrap();
        let snap = fleet.registry().snapshot();
        assert_eq!(
            snap.gauge_value(
                "marketscope_build_info",
                &[
                    ("version", env!("CARGO_PKG_VERSION")),
                    ("profile", marketscope_telemetry::perf::build_profile()),
                ]
            ),
            Some(1)
        );
    }

    #[test]
    fn addresses_are_distinct() {
        let w = Arc::new(generate(WorldConfig {
            seed: 2,
            scale: Scale { divisor: 60_000 },
        }));
        let fleet = MarketFleet::spawn(Arc::clone(&w)).unwrap();
        let mut addrs: Vec<SocketAddr> = MarketId::ALL.iter().map(|m| fleet.addr(*m)).collect();
        addrs.push(fleet.repository_addr());
        let n = addrs.len();
        addrs.sort();
        addrs.dedup();
        assert_eq!(addrs.len(), n);
    }

    #[test]
    fn ops_plane_scrapes_judges_and_serves() {
        let w = Arc::new(generate(WorldConfig {
            seed: 4,
            scale: Scale { divisor: 60_000 },
        }));
        let fleet = MarketFleet::spawn(Arc::clone(&w)).unwrap();
        let client = HttpClient::new();
        let gp = MarketId::GooglePlay;
        client.get_json(fleet.addr(gp), "/index").unwrap();
        fleet.tick_now();

        // The tick saw the traffic as a windowed delta...
        let series = fleet.series();
        assert!(series.ticks >= 1);
        assert!(series.counter_window_sum("marketscope_net_requests_total", &[], 600) >= 1);
        // ...and the evaluator judged a clean fleet clean.
        let verdicts = fleet.slo_verdicts();
        assert!(!verdicts.is_empty());
        assert!(
            verdicts
                .iter()
                .all(|v| v.state == AlertState::Ok && v.fired == 0),
            "clean fleet must not alert: {verdicts:?}"
        );
        // Lifecycle events landed in the shared log.
        let events = fleet.events();
        assert!(events
            .events
            .iter()
            .any(|e| e.message == "market server started"
                && e.fields
                    .iter()
                    .any(|(k, v)| k == "market" && v == gp.slug())));
        assert!(events.events.iter().any(|e| e.message == "fleet started"));

        // Every market serves the shared plane over HTTP.
        let doc = client.get_json(fleet.addr(gp), "/__slo").unwrap();
        assert_eq!(
            doc.get("rules").unwrap().as_arr().unwrap().len(),
            verdicts.len()
        );
        let doc = client.get_json(fleet.addr(gp), "/__log").unwrap();
        assert!(doc.get("recorded").unwrap().as_u64().unwrap() >= 18);
        let health = client.get_json(fleet.addr(gp), "/__health").unwrap();
        let summary = health.get("slo").unwrap();
        assert_eq!(summary.get("firing").unwrap().as_u64(), Some(0));
        // The tick ran inside an ops-tracer span.
        assert!(!fleet.ops_traces().is_empty());
        fleet.stop();
        assert!(fleet
            .events()
            .events
            .iter()
            .any(|e| e.message == "fleet stopped"));
    }
}
