//! One market's HTTP server.

use crate::endpoints::listing_json;
use marketscope_apk::zip::ZipArchive;
use marketscope_core::json::Json;
use marketscope_core::MarketId;
use marketscope_ecosystem::{profile, ListingId, World};
use marketscope_net::fault::FaultInjector;
use marketscope_net::http::{Request, Response, Status};
use marketscope_net::ratelimit::{RateLimitMetrics, TokenBucket};
use marketscope_net::router::Router;
use marketscope_net::server::{HttpServer, ServerHandle, ServerMetrics};
use marketscope_net::{ReactorConfig, Transport};
use marketscope_telemetry::trace::{Tracer, TracerConfig};
use marketscope_telemetry::{EventLog, Registry, SloEvaluator};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;

/// Which crawl campaign the server is serving (Section 3 vs Section 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrawlPhase {
    /// August 2017: everything listed.
    First,
    /// April 2018: listings removed in between return 404 and vanish
    /// from the index.
    Second,
}

/// Shared per-market serving state.
struct MarketState {
    world: Arc<World>,
    market: MarketId,
    phase: RwLock<CrawlPhase>,
    /// Catalog in stable index order.
    catalog: Vec<ListingId>,
    by_package: HashMap<String, ListingId>,
    /// APK-download rate limiter (Google Play only).
    apk_bucket: Option<TokenBucket>,
}

impl MarketState {
    fn visible(&self, id: ListingId) -> bool {
        match *self.phase.read() {
            CrawlPhase::First => true,
            CrawlPhase::Second => !self.world.listing(id).removed_in_second_crawl,
        }
    }

    fn lookup(&self, package: &str) -> Option<ListingId> {
        let id = *self.by_package.get(package)?;
        self.visible(id).then_some(id)
    }
}

/// Handles into the fleet's ops plane, shared by every server in a
/// fleet: the SLO evaluator the scraper updates each tick (served at
/// `GET /__slo`) and the structured event log (served at `GET /__log`,
/// and fed by the server's own fault/shed seams).
#[derive(Clone)]
pub struct OpsHandles {
    /// Fleet-wide SLO evaluator; the scraper's tick hook refreshes it.
    pub slo: Arc<Mutex<SloEvaluator>>,
    /// Fleet-wide structured event log.
    pub log: Arc<EventLog>,
}

/// A running market server.
pub struct MarketServer {
    market: MarketId,
    handle: ServerHandle,
    state: Arc<MarketState>,
    registry: Arc<Registry>,
    tracer: Arc<Tracer>,
}

/// Page size for the catalog index.
pub const PAGE_SIZE: usize = 50;

impl MarketServer {
    /// Spawn a server for `market` over `world` with private telemetry:
    /// its own registry, and a tracer whose local sampling is off but
    /// whose journal is live — requests arriving with a propagated trace
    /// context still record.
    pub fn spawn(
        world: Arc<World>,
        market: MarketId,
    ) -> Result<MarketServer, marketscope_net::NetError> {
        let tracer = Arc::new(Tracer::new(TracerConfig::propagate_only(4096)));
        MarketServer::spawn_with_ops(world, market, Arc::new(Registry::new()), tracer, None, None)
    }

    /// The general constructor. The server's instruments live in
    /// `registry` (shared across the fleet by
    /// [`MarketFleet`](crate::MarketFleet)), each carrying a
    /// `market="<slug>"` label, and the whole registry is exposed at
    /// `GET /__metrics` in Prometheus text format. Requests that arrive
    /// with a propagated `x-marketscope-trace` header open spans in
    /// `tracer`, whose journal is exposed as Chrome trace-event JSON at
    /// `GET /__trace`.
    ///
    /// With `faults`, the server runs behind a seeded [`FaultInjector`]:
    /// requests may be reset, stalled, truncated or answered 5xx before
    /// the market logic runs (ops paths under `/__` are exempt); pair
    /// with a [`ChaosProfile`](crate::chaos::ChaosProfile) for
    /// paper-flavoured per-market weather. With `ops`, the server is
    /// wired into a fleet ops plane: `/__slo` serves the evaluator's
    /// latest verdicts, `/__log` serves the shared event log,
    /// `/__health` gains an `slo` summary, and the server's own incident
    /// seams (fault injections, connection shed) record events.
    pub fn spawn_with_ops(
        world: Arc<World>,
        market: MarketId,
        registry: Arc<Registry>,
        tracer: Arc<Tracer>,
        faults: Option<FaultInjector>,
        ops: Option<OpsHandles>,
    ) -> Result<MarketServer, marketscope_net::NetError> {
        MarketServer::spawn_on(None, world, market, registry, tracer, faults, ops)
    }

    /// [`spawn_with_ops`](Self::spawn_with_ops), as one more listener on
    /// the transport a [`MarketFleet`](crate::MarketFleet) spawned for
    /// all of its servers (with the reactor defaults) or, given `None`,
    /// on one of its own that stops with the server.
    pub(crate) fn spawn_on(
        transport: Option<&Arc<Transport>>,
        world: Arc<World>,
        market: MarketId,
        registry: Arc<Registry>,
        tracer: Arc<Tracer>,
        faults: Option<FaultInjector>,
        ops: Option<OpsHandles>,
    ) -> Result<MarketServer, marketscope_net::NetError> {
        let faults = faults.map(Arc::new);
        let started = std::time::Instant::now();
        // What /__health reports of the transport, its own or a fleet's:
        // the shard and worker counts (shared with whatever else listens
        // on it) and the ceiling the acceptor sheds this listener's
        // connections against. A transport of its own runs the reactor
        // defaults.
        let transport_cfg = transport.map_or_else(ReactorConfig::default, |t| t.config().clone());
        let catalog: Vec<ListingId> = world.market_listings(market).to_vec();
        let by_package = catalog
            .iter()
            .map(|id| {
                (
                    world
                        .app(world.listing(*id).app)
                        .package
                        .as_str()
                        .to_owned(),
                    *id,
                )
            })
            .collect();
        let p = profile(market);
        let state = Arc::new(MarketState {
            world,
            market,
            phase: RwLock::new(CrawlPhase::First),
            catalog,
            by_package,
            // Tight enough that a bulk harvest only gets a small direct
            // sample (the paper managed 287K of 2.03M directly, ~14%).
            apk_bucket: p.rate_limited_downloads.then(|| {
                TokenBucket::instrumented(
                    20,
                    2.0,
                    RateLimitMetrics::register(
                        &registry,
                        &[("limiter", "apk_download"), ("market", market.slug())],
                    ),
                )
            }),
        });
        let mut metrics = ServerMetrics::register(&registry, &[("market", market.slug())])
            .traced(Arc::clone(&tracer));
        if let Some(o) = &ops {
            metrics = metrics.logged(Arc::clone(&o.log));
        }
        let router = build_router(Arc::clone(&state))
            .get("/__metrics", {
                let registry = Arc::clone(&registry);
                move |_req: &Request, _: &marketscope_net::router::Params| {
                    Response::ok("text/plain; version=0.0.4", registry.render().into_bytes())
                }
            })
            .get("/__trace", {
                let tracer = Arc::clone(&tracer);
                move |_req: &Request, _: &marketscope_net::router::Params| {
                    let json = marketscope_telemetry::chrome_trace(&tracer.snapshot());
                    Response::ok("application/json", json.into_bytes())
                }
            })
            .get("/__slo", {
                let ops = ops.clone();
                move |_req: &Request, _: &marketscope_net::router::Params| {
                    let verdicts = ops
                        .as_ref()
                        .map(|o| o.slo.lock().verdicts())
                        .unwrap_or_default();
                    Response::json(&crate::opsjson::slo_json(&verdicts))
                }
            })
            .get("/__log", {
                let ops = ops.clone();
                move |_req: &Request, _: &marketscope_net::router::Params| {
                    let snap = ops.as_ref().map(|o| o.log.snapshot()).unwrap_or_default();
                    Response::json(&crate::opsjson::log_json(&snap))
                }
            })
            .get("/__health", {
                // The health closure reads the very instruments the
                // transport records into, so totals here match
                // `/__metrics` exactly; section assembly is shared with
                // the other ops surfaces via `opsjson`.
                let st = Arc::clone(&state);
                let metrics = metrics.clone();
                let transport_cfg = transport_cfg.clone();
                let faults = faults.clone();
                let ops = ops.clone();
                move |_req: &Request, _: &marketscope_net::router::Params| {
                    let phase = match *st.phase.read() {
                        CrawlPhase::First => "first",
                        CrawlPhase::Second => "second",
                    };
                    let open = metrics.live_connections();
                    let slo = match &ops {
                        Some(o) => crate::opsjson::slo_summary_json(&o.slo.lock().verdicts()),
                        None => Json::Null,
                    };
                    Response::json(&Json::obj([
                        ("status", Json::from("ok")),
                        ("market", Json::from(st.market.slug())),
                        ("phase", Json::from(phase)),
                        (
                            "uptime_ms",
                            Json::from(started.elapsed().as_millis() as u64),
                        ),
                        ("requests_total", Json::from(metrics.request_count())),
                        ("live_connections", Json::from(open)),
                        ("catalog_size", Json::from(st.catalog.len())),
                        (
                            "transport",
                            crate::opsjson::transport_json(
                                &transport_cfg,
                                open,
                                metrics.shed_connections(),
                                metrics.accept_errors(),
                            ),
                        ),
                        (
                            "rate_limiter",
                            crate::opsjson::rate_limiter_json(st.apk_bucket.as_ref()),
                        ),
                        ("chaos", crate::opsjson::chaos_json(faults.as_deref())),
                        ("slo", slo),
                    ]))
                }
            });
        let addr = "127.0.0.1:0";
        let handle = match transport {
            Some(shared) => HttpServer::spawn_on(shared, addr, router, metrics, faults)?,
            None => HttpServer::spawn_configured(addr, router, metrics, faults, transport_cfg)?,
        };
        Ok(MarketServer {
            market,
            handle,
            state,
            registry,
            tracer,
        })
    }

    /// The registry this server's instruments are registered in.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The tracer recording this server's request spans.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// The market this server simulates.
    pub fn market(&self) -> MarketId {
        self.market
    }

    /// Bound address.
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// Requests served so far.
    pub fn request_count(&self) -> u64 {
        self.handle.request_count()
    }

    /// Total faults this server's injector has fired (`0` when the
    /// server runs without chaos).
    pub fn faults_injected(&self) -> u64 {
        self.handle.fault_injector().map_or(0, |f| f.injected())
    }

    /// Switch the serving phase (both campaigns run against one server).
    pub fn set_phase(&self, phase: CrawlPhase) {
        *self.state.phase.write() = phase;
    }

    /// Stop serving.
    pub fn stop(&self) {
        self.handle.stop();
    }
}

fn build_router(state: Arc<MarketState>) -> Router {
    let p = profile(state.market);
    let mut router = Router::new();

    // Catalog index: /index?page=N → { packages: [...], next: N+1? }
    {
        let st = Arc::clone(&state);
        router = router.get("/index", move |req: &Request, _| {
            let page: usize = req
                .query_param("page")
                .and_then(|p| p.parse().ok())
                .unwrap_or(0);
            let visible: Vec<&ListingId> =
                st.catalog.iter().filter(|id| st.visible(**id)).collect();
            let start = page * PAGE_SIZE;
            if start >= visible.len() && page != 0 {
                return Response::json(&Json::obj([("packages", Json::Arr(vec![]))]));
            }
            let slice = &visible[start.min(visible.len())..(start + PAGE_SIZE).min(visible.len())];
            let packages: Vec<Json> = slice
                .iter()
                .map(|id| Json::from(st.world.app(st.world.listing(**id).app).package.as_str()))
                .collect();
            let mut fields = vec![("packages", Json::Arr(packages))];
            if start + PAGE_SIZE < visible.len() {
                fields.push(("next", Json::from((page + 1) as u64)));
            }
            Response::json(&Json::obj(fields))
        });
    }

    // Baidu-style sequential integer detail pages: /soft/{n}.
    if p.incremental_index {
        let st = Arc::clone(&state);
        router = router.get("/soft/{n}", move |_req, params| {
            let Ok(n) = params["n"].parse::<usize>() else {
                return Response::status(Status::BadRequest);
            };
            match st.catalog.get(n) {
                Some(id) if st.visible(*id) => {
                    Response::json(&listing_json(&st.world, st.world.listing(*id)))
                }
                _ => Response::status(Status::NotFound),
            }
        });
    }

    // App detail: /app/{pkg}.
    {
        let st = Arc::clone(&state);
        router = router.get("/app/{pkg}", move |_req, params| {
            match st.lookup(&params["pkg"]) {
                Some(id) => Response::json(&listing_json(&st.world, st.world.listing(id))),
                None => Response::status(Status::NotFound),
            }
        });
    }

    // Search by app name or package: /search?q=...
    {
        let st = Arc::clone(&state);
        router = router.get("/search", move |req: &Request, _| {
            let Some(q) = req.query_param("q") else {
                return Response::status(Status::BadRequest);
            };
            let q_lower = q.to_lowercase();
            let mut hits = Vec::new();
            for id in &st.catalog {
                if !st.visible(*id) {
                    continue;
                }
                let app = st.world.app(st.world.listing(*id).app);
                if app.package.as_str() == q || app.label.to_lowercase().contains(&q_lower) {
                    hits.push(Json::from(app.package.as_str()));
                    if hits.len() >= 50 {
                        break;
                    }
                }
            }
            Response::json(&Json::obj([("results", Json::Arr(hits))]))
        });
    }

    // Related apps for BFS crawling: same developer, then same category.
    {
        let st = Arc::clone(&state);
        router = router.get("/related/{pkg}", move |_req, params| {
            let Some(id) = st.lookup(&params["pkg"]) else {
                return Response::status(Status::NotFound);
            };
            let seed_app = st.world.app(st.world.listing(id).app);
            let mut related = Vec::new();
            // Same developer everywhere in this market.
            for other in &st.catalog {
                if *other == id || !st.visible(*other) {
                    continue;
                }
                let app = st.world.app(st.world.listing(*other).app);
                if app.developer == seed_app.developer {
                    related.push(Json::from(app.package.as_str()));
                }
            }
            // Category neighbours: deterministic window around the seed
            // (at most 401 listings scanned, as before).
            let pos = st.catalog.iter().position(|l| *l == id).unwrap_or(0);
            for offset in (1..st.catalog.len()).take(401) {
                if related.len() >= 12 {
                    break;
                }
                let other = st.catalog[(pos + offset) % st.catalog.len()];
                if other == id || !st.visible(other) {
                    continue;
                }
                let app = st.world.app(st.world.listing(other).app);
                if app.category == seed_app.category {
                    related.push(Json::from(app.package.as_str()));
                }
            }
            Response::json(&Json::obj([("related", Json::Arr(related))]))
        });
    }

    // Developer submission (Section 2.1): POST /upload with the APK as
    // the body; certificates travel as headers.
    {
        let market = state.market;
        router = router.post("/upload", move |req: &Request, _| {
            let outcome = crate::submission::evaluate(market, &req.headers, &req.body);
            let doc = crate::submission::outcome_json(&outcome);
            match outcome {
                crate::submission::SubmissionOutcome::Rejected(_) => Response {
                    status: Status::BadRequest,
                    headers: std::collections::BTreeMap::from([(
                        "content-type".to_owned(),
                        "application/json".to_owned(),
                    )]),
                    body: doc.to_string_compact().into_bytes(),
                },
                _ => Response::json(&doc),
            }
        });
    }

    // APK download: /apk/{pkg} (the listed version's bytes).
    {
        let st = Arc::clone(&state);
        let obfuscate = p.requires_obfuscation;
        // Channel injection is a web-company/specialized-store habit
        // (user-acquisition attribution); Google Play and the vendor
        // stores serve the developer's bytes untouched — which is what
        // leaves some multi-store listings byte-identical (Section 5.3).
        let channel = match state.market.kind() {
            marketscope_core::MarketKind::WebCompany
            | marketscope_core::MarketKind::Specialized => {
                Some(format!("{}channel", state.market.slug()))
            }
            _ => None,
        };
        router = router.get("/apk/{pkg}", move |_req, params| {
            if let Some(bucket) = &st.apk_bucket {
                if !bucket.try_acquire() {
                    // Lands on the server-side handler span (if any), so
                    // a traced harvest shows exactly which attempts the
                    // limiter stalled.
                    marketscope_telemetry::trace::current_event("rate_limited");
                    // Tell the client when a token will be free: an
                    // honest `retry-after` lets a polite retry policy
                    // decide whether waiting fits its budget (for the
                    // drained bulk-harvest bucket it never does, which
                    // is what pushes the crawler onto the backfill path).
                    return Response::status_with_retry_after(
                        Status::TooManyRequests,
                        bucket.wait_hint(),
                    );
                }
            }
            let Some(id) = st.lookup(&params["pkg"]) else {
                return Response::status(Status::NotFound);
            };
            let listing = st.world.listing(id);
            let bytes = st.world.build_apk(listing.app, listing.version, obfuscate);
            let bytes = match &channel {
                Some(name) => match inject_channel(&bytes, name, st.market) {
                    Ok(b) => b,
                    Err(_) => return Response::status(Status::InternalError),
                },
                None => bytes,
            };
            Response::ok("application/vnd.android.package-archive", bytes)
        });
    }

    router
}

/// Store-side channel injection: add `META-INF/<name>` recording the
/// distribution source. Signature stays valid because the payload digest
/// excludes `META-INF/` (Section 5.3's `kgchannel` mechanism).
pub fn inject_channel(
    apk: &[u8],
    name: &str,
    market: MarketId,
) -> Result<Vec<u8>, marketscope_apk::ApkError> {
    let mut zip = ZipArchive::parse(apk)?;
    zip.add(
        &format!("META-INF/{name}"),
        format!("source={}", market.slug()).into_bytes(),
    )?;
    Ok(zip.to_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use marketscope_apk::ParsedApk;
    use marketscope_ecosystem::{generate, Scale, WorldConfig};
    use marketscope_net::HttpClient;

    fn world() -> Arc<World> {
        Arc::new(generate(WorldConfig {
            seed: 21,
            scale: Scale { divisor: 40_000 },
            ..WorldConfig::default()
        }))
    }

    #[test]
    fn index_pages_cover_catalog() {
        let w = world();
        let server = MarketServer::spawn(Arc::clone(&w), MarketId::HuaweiMarket).unwrap();
        let client = HttpClient::new();
        let mut seen = Vec::new();
        let mut page = 0u64;
        loop {
            let doc = client
                .get_json(server.addr(), &format!("/index?page={page}"))
                .unwrap();
            for p in doc.get("packages").unwrap().as_arr().unwrap() {
                seen.push(p.as_str().unwrap().to_owned());
            }
            match doc.get("next").and_then(|n| n.as_u64()) {
                Some(n) => page = n,
                None => break,
            }
        }
        assert_eq!(seen.len(), w.market_listings(MarketId::HuaweiMarket).len());
    }

    #[test]
    fn detail_and_apk_round_trip() {
        let w = world();
        let server = MarketServer::spawn(Arc::clone(&w), MarketId::TencentMyapp).unwrap();
        let client = HttpClient::new();
        let doc = client.get_json(server.addr(), "/index").unwrap();
        let pkg = doc.get("packages").unwrap().as_arr().unwrap()[0]
            .as_str()
            .unwrap()
            .to_owned();
        let detail = client
            .get_json(server.addr(), &format!("/app/{pkg}"))
            .unwrap();
        assert_eq!(detail.get("package").unwrap().as_str().unwrap(), pkg);
        assert!(detail.get("downloads").is_some() || detail.get("installs").is_some());
        let apk = client.get(server.addr(), &format!("/apk/{pkg}")).unwrap();
        let parsed = ParsedApk::parse(&apk.body).unwrap();
        assert_eq!(parsed.manifest.package.as_str(), pkg);
        // Tencent injects its channel file; the signature must survive.
        assert!(parsed
            .channels
            .iter()
            .any(|(n, _)| n.contains("tencentchannel")));
        assert!(parsed.signature_valid);
    }

    #[test]
    fn trace_endpoint_serves_propagated_spans_as_chrome_json() {
        let w = world();
        let tracer = Arc::new(Tracer::new(TracerConfig::always(256)));
        let server = MarketServer::spawn_with_ops(
            Arc::clone(&w),
            MarketId::HuaweiMarket,
            Arc::new(Registry::new()),
            Arc::clone(&tracer),
            None,
            None,
        )
        .unwrap();
        let client = marketscope_net::client::HttpClient::builder()
            .tracer(Arc::clone(&tracer))
            .build();
        let root = tracer.root_span("crawler", "fetch index");
        client.get(server.addr(), "/index").unwrap();
        root.finish();

        // Server spans record after the response write; poll the journal
        // through the endpoint itself until they show up.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            let resp = client.get(server.addr(), "/__trace").unwrap();
            let text = String::from_utf8(resp.body).unwrap();
            let doc =
                marketscope_core::json::Json::parse(&text).expect("__trace must serve valid JSON");
            let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
            if events
                .iter()
                .any(|e| e.get("name").and_then(|n| n.as_str()) == Some("handler"))
            {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "no handler span ever appeared in {text}"
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        server.stop();
    }

    #[test]
    fn health_endpoint_reports_ops_state() {
        let w = world();
        let server = MarketServer::spawn(Arc::clone(&w), MarketId::GooglePlay).unwrap();
        let client = HttpClient::new();
        client.get_json(server.addr(), "/index").unwrap();
        let health = client.get_json(server.addr(), "/__health").unwrap();
        assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(
            health.get("market").unwrap().as_str(),
            Some(MarketId::GooglePlay.slug())
        );
        assert_eq!(health.get("phase").unwrap().as_str(), Some("first"));
        // The /index request above is counted; the health request itself
        // is not yet (metrics record after the handler returns).
        assert_eq!(health.get("requests_total").unwrap().as_u64(), Some(1));
        assert_eq!(
            health.get("catalog_size").unwrap().as_u64(),
            Some(w.market_listings(MarketId::GooglePlay).len() as u64)
        );
        assert!(health.get("uptime_ms").unwrap().as_u64().is_some());
        // Google Play rate-limits APK downloads, so the limiter reports.
        let limiter = health.get("rate_limiter").unwrap();
        assert_eq!(
            limiter.get("limiter").unwrap().as_str(),
            Some("apk_download")
        );
        assert!(limiter.get("wait_hint_ms").unwrap().as_u64().is_some());
        // The transport section mirrors the reactor config plus live
        // counters. One pooled keep-alive client connection is open (it
        // just carried this very health request).
        let transport = health.get("transport").unwrap();
        assert!(transport.get("shards").unwrap().as_u64().unwrap() >= 1);
        assert!(transport.get("handler_threads").unwrap().as_u64().unwrap() >= 1);
        assert!(transport.get("max_connections").unwrap().as_u64().unwrap() >= 1);
        assert!(transport.get("open_connections").unwrap().as_u64().unwrap() >= 1);
        assert_eq!(transport.get("connections_shed").unwrap().as_u64(), Some(0));
        assert_eq!(transport.get("accept_errors").unwrap().as_u64(), Some(0));
        // No chaos and no ops plane on a plain spawn.
        assert_eq!(health.get("chaos"), Some(&Json::Null));
        assert_eq!(health.get("slo"), Some(&Json::Null));

        server.set_phase(CrawlPhase::Second);
        let health = client.get_json(server.addr(), "/__health").unwrap();
        assert_eq!(health.get("phase").unwrap().as_str(), Some("second"));
        // An unlimited market reports no limiter.
        let huawei = MarketServer::spawn(Arc::clone(&w), MarketId::HuaweiMarket).unwrap();
        let health = client.get_json(huawei.addr(), "/__health").unwrap();
        assert_eq!(health.get("rate_limiter"), Some(&Json::Null));
    }

    #[test]
    fn health_reports_the_config_of_the_transport_it_serves_on() {
        let transport = Transport::spawn(ReactorConfig {
            max_connections: 7,
            ..ReactorConfig::default()
        })
        .unwrap();
        let server = MarketServer::spawn_on(
            Some(&transport),
            world(),
            MarketId::HuaweiMarket,
            Arc::new(Registry::new()),
            Arc::new(Tracer::new(TracerConfig::propagate_only(64))),
            None,
            None,
        )
        .unwrap();
        let health = HttpClient::new()
            .get_json(server.addr(), "/__health")
            .unwrap();
        let transport_doc = health.get("transport").unwrap();
        assert_eq!(
            transport_doc.get("max_connections").unwrap().as_u64(),
            Some(7)
        );
        server.stop();
        transport.stop();
    }

    #[test]
    fn slo_and_log_endpoints_serve_ops_plane() {
        use marketscope_telemetry::{LogLevel, SeriesStore, SloPolicy};
        let w = world();
        let log = Arc::new(EventLog::new(32));
        let slo = Arc::new(Mutex::new(SloEvaluator::new(SloPolicy::fleet_default())));
        let server = MarketServer::spawn_with_ops(
            Arc::clone(&w),
            MarketId::HuaweiMarket,
            Arc::new(Registry::new()),
            Arc::new(Tracer::new(TracerConfig::propagate_only(64))),
            None,
            Some(OpsHandles {
                slo: Arc::clone(&slo),
                log: Arc::clone(&log),
            }),
        )
        .unwrap();
        let client = HttpClient::new();
        // Before any evaluation: no verdicts, nothing firing.
        let doc = client.get_json(server.addr(), "/__slo").unwrap();
        assert_eq!(doc.get("firing").unwrap().as_u64(), Some(0));
        assert!(doc.get("rules").unwrap().as_arr().unwrap().is_empty());
        // Events recorded into the shared log surface through /__log.
        log.record(LogLevel::Info, "test", "hello", &[("k", "v")]);
        let doc = client.get_json(server.addr(), "/__log").unwrap();
        let events = doc.get("events").unwrap().as_arr().unwrap();
        assert!(events
            .iter()
            .any(|e| e.get("message").and_then(|m| m.as_str()) == Some("hello")));
        // Once the evaluator has run, /__slo and the /__health summary
        // report every fleet rule.
        let mut store = SeriesStore::new(4);
        store.observe(&Registry::new().snapshot());
        slo.lock().evaluate(&store);
        let doc = client.get_json(server.addr(), "/__slo").unwrap();
        assert!(!doc.get("rules").unwrap().as_arr().unwrap().is_empty());
        let health = client.get_json(server.addr(), "/__health").unwrap();
        let summary = health.get("slo").unwrap();
        assert_eq!(summary.get("firing").unwrap().as_u64(), Some(0));
        assert!(summary
            .get("rules")
            .unwrap()
            .get("error_rate_5xx")
            .is_some());
        server.stop();
    }

    #[test]
    fn health_endpoint_reports_chaos_and_survives_faults() {
        use marketscope_net::fault::FaultPlan;
        let w = world();
        // A plan that faults every request — ops paths must still answer.
        let plan = FaultPlan {
            error_5xx: 1.0,
            ..FaultPlan::none()
        };
        let server = MarketServer::spawn_with_ops(
            Arc::clone(&w),
            MarketId::BaiduMarket,
            Arc::new(Registry::new()),
            Arc::new(Tracer::new(TracerConfig::propagate_only(256))),
            Some(FaultInjector::new(7, plan)),
            None,
        )
        .unwrap();
        let client = HttpClient::new();
        // Market traffic 503s...
        assert!(matches!(
            client.get(server.addr(), "/index"),
            Err(marketscope_net::NetError::Status { code: 503, .. })
        ));
        // ...but the health endpoint is exempt and reports the chaos.
        let health = client.get_json(server.addr(), "/__health").unwrap();
        let chaos = health.get("chaos").unwrap();
        assert_eq!(chaos.get("error_5xx").unwrap().as_f64(), Some(1.0));
        assert_eq!(chaos.get("faults_injected").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn google_play_reports_ranges_and_rate_limits() {
        let w = world();
        let server = MarketServer::spawn(Arc::clone(&w), MarketId::GooglePlay).unwrap();
        let client = HttpClient::new();
        let doc = client.get_json(server.addr(), "/index").unwrap();
        let pkg = doc.get("packages").unwrap().as_arr().unwrap()[0]
            .as_str()
            .unwrap()
            .to_owned();
        let detail = client
            .get_json(server.addr(), &format!("/app/{pkg}"))
            .unwrap();
        let installs = detail.get("installs").unwrap().as_str().unwrap();
        assert!(
            installs.contains('-') || installs.ends_with('+'),
            "{installs}"
        );
        // Hammer the APK endpoint until the bucket runs dry.
        let mut limited = false;
        for _ in 0..120 {
            match client.get(server.addr(), &format!("/apk/{pkg}")) {
                Err(marketscope_net::NetError::Status { code: 429, .. }) => {
                    limited = true;
                    break;
                }
                Ok(_) => {}
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(limited, "rate limiter never tripped");
    }

    #[test]
    fn market_360_serves_obfuscated_apks() {
        let w = world();
        let server = MarketServer::spawn(Arc::clone(&w), MarketId::Market360).unwrap();
        let client = HttpClient::new();
        let doc = client.get_json(server.addr(), "/index").unwrap();
        let pkg = doc.get("packages").unwrap().as_arr().unwrap()[0]
            .as_str()
            .unwrap()
            .to_owned();
        let apk = client.get(server.addr(), &format!("/apk/{pkg}")).unwrap();
        let parsed = ParsedApk::parse(&apk.body).unwrap();
        assert!(parsed
            .dex
            .classes()
            .any(|c| c.name().starts_with("Lcom/jiagu/")));
    }

    #[test]
    fn baidu_incremental_index_works() {
        let w = world();
        let server = MarketServer::spawn(Arc::clone(&w), MarketId::BaiduMarket).unwrap();
        let client = HttpClient::new();
        let detail = client.get_json(server.addr(), "/soft/0").unwrap();
        assert!(detail.get("package").is_some());
        // Far past the catalog end: 404.
        assert!(matches!(
            client.get(server.addr(), "/soft/99999999"),
            Err(marketscope_net::NetError::Status { code: 404, .. })
        ));
        // Non-Baidu markets don't expose it.
        let huawei = MarketServer::spawn(Arc::clone(&w), MarketId::HuaweiMarket).unwrap();
        assert!(matches!(
            client.get(huawei.addr(), "/soft/0"),
            Err(marketscope_net::NetError::Status { code: 404, .. })
        ));
    }

    #[test]
    fn second_phase_hides_removed_listings() {
        let w = world();
        // Find a market+package with a removed listing.
        let mut target = None;
        for m in MarketId::ALL {
            for l in w.market_listings(m) {
                if w.listing(*l).removed_in_second_crawl {
                    target = Some((m, w.app(w.listing(*l).app).package.as_str().to_owned()));
                    break;
                }
            }
            if target.is_some() {
                break;
            }
        }
        let (m, pkg) = target.expect("world contains removed listings");
        let server = MarketServer::spawn(Arc::clone(&w), m).unwrap();
        let client = HttpClient::new();
        assert!(client
            .get_json(server.addr(), &format!("/app/{pkg}"))
            .is_ok());
        server.set_phase(CrawlPhase::Second);
        assert!(matches!(
            client.get(server.addr(), &format!("/app/{pkg}")),
            Err(marketscope_net::NetError::Status { code: 404, .. })
        ));
        server.set_phase(CrawlPhase::First);
        assert!(client
            .get_json(server.addr(), &format!("/app/{pkg}"))
            .is_ok());
    }

    #[test]
    fn search_finds_by_label_and_package() {
        let w = world();
        let m = MarketId::Wandoujia;
        let server = MarketServer::spawn(Arc::clone(&w), m).unwrap();
        let client = HttpClient::new();
        let lid = w.market_listings(m)[0];
        let app = w.app(w.listing(lid).app);
        let by_pkg = client
            .get_json(server.addr(), &format!("/search?q={}", app.package))
            .unwrap();
        let results = by_pkg.get("results").unwrap().as_arr().unwrap();
        assert!(results
            .iter()
            .any(|r| r.as_str() == Some(app.package.as_str())));
        let by_label = client
            .get_json(
                server.addr(),
                &format!(
                    "/search?q={}",
                    marketscope_net::http::url_encode(&app.label)
                ),
            )
            .unwrap();
        assert!(!by_label
            .get("results")
            .unwrap()
            .as_arr()
            .unwrap()
            .is_empty());
    }
}
