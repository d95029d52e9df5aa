//! One market's HTTP server.

use crate::endpoints::listing_json;
use marketscope_core::json::Json;
use marketscope_core::{MarketId, MarketKind};
use marketscope_ecosystem::{profile, App, DevId, ListingId, World};
use marketscope_net::fault::FaultInjector;
use marketscope_net::http::{Method, Request, Response, Status};
use marketscope_net::server::{Handler, HttpServer, ServerHandle, ServerMetrics};
use marketscope_net::{ReactorConfig, Transport};
use marketscope_telemetry::trace::{Tracer, TracerConfig};
use marketscope_telemetry::{Counter, EventLog, Registry, SloEvaluator};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
    /// Each package's position in `catalog`.
    by_package: HashMap<String, usize>,
    /// Each developer's listings, in catalog order.
    by_developer: HashMap<DevId, Vec<ListingId>>,
    /// The APK download limit (Google Play only).
    downloads: Option<DownloadLimit>,
    /// The `META-INF/` channel file `(name, contents)` served APKs carry,
    /// recording the distribution source. Channel injection is a
    /// web-company/specialized-store habit (user-acquisition
    /// attribution); the signature stays valid because the payload
    /// digest excludes `META-INF/` (Section 5.3's `kgchannel`
    /// mechanism). Google Play and the vendor stores serve the
    /// developer's bytes untouched — which is what leaves some
    /// multi-store listings byte-identical (Section 5.3).
    channel: Option<(String, Vec<u8>)>,
}

impl MarketState {
    /// `market`'s catalog over `world`, indexed by package and by
    /// developer, serving the first crawl; the APK limiter (if the market
    /// has one) records into `registry`.
    fn new(world: Arc<World>, market: MarketId, registry: &Registry) -> MarketState {
        let catalog = world.market_listings(market).to_vec();
        let mut by_package = HashMap::with_capacity(catalog.len());
        let mut by_developer: HashMap<DevId, Vec<ListingId>> = HashMap::new();
        for (pos, id) in catalog.iter().enumerate() {
            let app = world.app(world.listing(*id).app);
            by_package.insert(app.package.as_str().to_owned(), pos);
            by_developer.entry(app.developer).or_default().push(*id);
        }
        MarketState {
            world,
            market,
            phase: RwLock::new(CrawlPhase::First),
            catalog,
            by_package,
            by_developer,
            downloads: profile(market).rate_limited_downloads.then(|| {
                let labels = [("limiter", "apk_download"), ("market", market.slug())];
                DownloadLimit {
                    requests: AtomicU64::new(0),
                    grants: registry.counter("marketscope_net_ratelimit_grants_total", &labels),
                    rejections: registry
                        .counter("marketscope_net_ratelimit_rejections_total", &labels),
                }
            }),
            channel: matches!(
                market.kind(),
                MarketKind::WebCompany | MarketKind::Specialized
            )
            .then(|| {
                let slug = market.slug();
                (
                    format!("{slug}channel"),
                    format!("source={slug}").into_bytes(),
                )
            }),
        }
    }

    fn visible(&self, id: ListingId) -> bool {
        match *self.phase.read() {
            CrawlPhase::First => true,
            CrawlPhase::Second => !self.world.listing(id).removed_in_second_crawl,
        }
    }

    /// The catalog position of `package`, if it is listed and visible in
    /// the current phase.
    fn locate(&self, package: &str) -> Option<usize> {
        let pos = *self.by_package.get(package)?;
        self.visible(self.catalog[pos]).then_some(pos)
    }

    fn lookup(&self, package: &str) -> Option<ListingId> {
        self.locate(package).map(|pos| self.catalog[pos])
    }

    fn app(&self, id: ListingId) -> &App {
        self.world.app(self.world.listing(id).app)
    }

    /// `/related` for the listing at catalog position `pos`: every visible
    /// same-developer listing in catalog order, then same-category ones
    /// from the (at most 401) catalog positions after it, wrapping, until
    /// there are 12.
    fn related(&self, pos: usize) -> Json {
        let id = self.catalog[pos];
        let seed = self.app(id);
        let package = |other: ListingId| Json::from(self.app(other).package.as_str());
        let mut related: Vec<Json> = self
            .by_developer
            .get(&seed.developer)
            .into_iter()
            .flatten()
            .filter(|other| **other != id && self.visible(**other))
            .map(|other| package(*other))
            .collect();
        let n = self.catalog.len();
        for offset in (1..n).take(401) {
            if related.len() >= 12 {
                break;
            }
            let other = self.catalog[(pos + offset) % n];
            if other == id || !self.visible(other) {
                continue;
            }
            if self.app(other).category == seed.category {
                related.push(package(other));
            }
        }
        Json::obj([("related", Json::Arr(related))])
    }

    /// Catalog index page `page` → `{ packages: [...], next: page + 1? }`.
    /// `page` is the client's: any page past the end, even one whose
    /// offset overflows, is empty and names no next page.
    fn index(&self, page: usize) -> Response {
        let visible: Vec<&ListingId> = self
            .catalog
            .iter()
            .filter(|id| self.visible(**id))
            .collect();
        let start = match page.checked_mul(PAGE_SIZE) {
            Some(start) if start < visible.len() || page == 0 => start,
            _ => return Response::json(&Json::obj([("packages", Json::Arr(vec![]))])),
        };
        let end = (start + PAGE_SIZE).min(visible.len());
        let packages: Vec<Json> = visible[start..end]
            .iter()
            .map(|id| Json::from(self.app(**id).package.as_str()))
            .collect();
        let mut fields = vec![("packages", Json::Arr(packages))];
        if end < visible.len() {
            fields.push(("next", Json::from((page + 1) as u64)));
        }
        Response::json(&Json::obj(fields))
    }

    /// Baidu-style sequential integer detail page `n`.
    fn soft(&self, n: &str) -> Response {
        let Ok(n) = n.parse::<usize>() else {
            return Response::status(Status::BadRequest);
        };
        match self.catalog.get(n) {
            Some(id) if self.visible(*id) => {
                Response::json(&listing_json(&self.world, self.world.listing(*id)))
            }
            _ => Response::status(Status::NotFound),
        }
    }

    /// Search by app name or package: the first 50 visible listings whose
    /// package is `q` or whose label contains it, ignoring case.
    fn search(&self, q: &str) -> Response {
        let q_lower = q.to_lowercase();
        let mut hits = Vec::new();
        for id in &self.catalog {
            if !self.visible(*id) {
                continue;
            }
            let app = self.app(*id);
            if app.package.as_str() == q || app.label.to_lowercase().contains(&q_lower) {
                hits.push(Json::from(app.package.as_str()));
                if hits.len() >= 50 {
                    break;
                }
            }
        }
        Response::json(&Json::obj([("results", Json::Arr(hits))]))
    }

    /// APK download: the listed version's bytes, behind the market's
    /// download limit if it has one.
    fn apk(&self, package: &str) -> Response {
        if self.downloads.as_ref().is_some_and(|d| !d.admit()) {
            // Lands on the server-side handler span (if any), so a traced
            // harvest shows exactly which attempts the limit refused.
            marketscope_telemetry::trace::current_event("rate_limited");
            return Response::status_with_retry_after(Status::TooManyRequests, RETRY_AFTER);
        }
        let Some(id) = self.lookup(package) else {
            return Response::status(Status::NotFound);
        };
        let listing = self.world.listing(id);
        let obfuscate = profile(self.market).requires_obfuscation;
        let channel = self
            .channel
            .as_ref()
            .map(|(name, contents)| (name.as_str(), contents.as_slice()));
        let bytes =
            self.world
                .build_apk_with_channel(listing.app, listing.version, obfuscate, channel);
        Response::ok("application/vnd.android.package-archive", bytes)
    }
}

/// Google Play's download limit, counted in requests rather than time,
/// so a harvest's direct share is a function of the seed: the first
/// `BURST` `/apk` requests are [`served`], then the last of every run of
/// `EVERY`. The paper fetched 287K of 2.03M Play APKs directly and
/// backfilled the rest from AndroZoo.
struct DownloadLimit {
    requests: AtomicU64,
    grants: Arc<Counter>,
    rejections: Arc<Counter>,
}

const BURST: u64 = 20;
const EVERY: u64 = 256;

/// Every refused download's `retry-after`: longer than any retry budget
/// (250 ms by default), so a refused fetch goes straight to backfill.
const RETRY_AFTER: Duration = Duration::from_secs(1);

/// Whether `/apk` request `n` (from 0) gets through the download limit.
fn served(n: u64) -> bool {
    n < BURST || (n - BURST + 1) % EVERY == 0
}

impl DownloadLimit {
    /// Count one request, and whether it is served.
    fn admit(&self) -> bool {
        let ok = served(self.requests.fetch_add(1, Ordering::Relaxed));
        if ok { &self.grants } else { &self.rejections }.inc();
        ok
    }

    /// The `/__health` section: the requests counted so far, and whether
    /// the next one would be served.
    fn health(&self) -> Json {
        let n = self.requests.load(Ordering::Relaxed);
        Json::obj([
            ("limiter", Json::from("apk_download")),
            ("ready", Json::from(served(n))),
            ("requests", Json::from(n)),
        ])
    }
}

/// Developer submission (Section 2.1): `POST /upload` with the APK as the
/// body; certificates travel as headers.
fn upload(market: MarketId, req: &Request) -> Response {
    let outcome = crate::submission::evaluate(market, &req.headers, &req.body);
    let resp = Response::json(&crate::submission::outcome_json(&outcome));
    match outcome {
        crate::submission::SubmissionOutcome::Rejected(_) => Response {
            status: Status::BadRequest,
            ..resp
        },
        _ => resp,
    }
}

/// Handles into the fleet's ops plane, shared by every server in a
/// fleet: the SLO evaluator the fleet re-judges at each tick (served at
/// `GET /__slo`) and the structured event log (served at `GET /__log`,
/// and fed by the server's own fault/shed seams).
#[derive(Clone)]
pub struct OpsHandles {
    /// Fleet-wide SLO evaluator; [`MarketFleet::tick_now`](crate::MarketFleet::tick_now)
    /// refreshes it.
    pub slo: Arc<Mutex<SloEvaluator>>,
    /// Fleet-wide structured event log.
    pub log: Arc<EventLog>,
}

/// One market server's [`Handler`]: the market's routes over its
/// catalog, and the ops routes under `/__` over its telemetry.
struct MarketHandler {
    state: Arc<MarketState>,
    registry: Arc<Registry>,
    tracer: Arc<Tracer>,
    /// The instruments the transport records this server's requests in.
    metrics: ServerMetrics,
    /// What `/__health` reports of the transport, its own or a fleet's:
    /// the ceiling the acceptor sheds this listener's connections against.
    transport: ReactorConfig,
    faults: Option<Arc<FaultInjector>>,
    ops: Option<OpsHandles>,
    started: Instant,
}

impl MarketHandler {
    fn new(
        state: Arc<MarketState>,
        registry: Arc<Registry>,
        tracer: Arc<Tracer>,
        transport: ReactorConfig,
        faults: Option<Arc<FaultInjector>>,
        ops: Option<OpsHandles>,
    ) -> MarketHandler {
        let mut metrics = ServerMetrics::register(&registry, &[("market", state.market.slug())])
            .traced(Arc::clone(&tracer));
        if let Some(o) = &ops {
            metrics = metrics.logged(Arc::clone(&o.log));
        }
        MarketHandler {
            state,
            registry,
            tracer,
            metrics,
            transport,
            faults,
            ops,
            started: Instant::now(),
        }
    }

    /// `/__health` reads the very instruments the transport records into,
    /// so totals here match `/__metrics` exactly; section assembly is
    /// shared with the other ops surfaces via `opsjson`.
    fn health(&self) -> Response {
        let st = &self.state;
        let phase = match *st.phase.read() {
            CrawlPhase::First => "first",
            CrawlPhase::Second => "second",
        };
        let open = self.metrics.live_connections();
        let slo = match &self.ops {
            Some(o) => crate::opsjson::slo_summary_json(&o.slo.lock().verdicts()),
            None => Json::Null,
        };
        Response::json(&Json::obj([
            ("status", Json::from("ok")),
            ("market", Json::from(st.market.slug())),
            ("phase", Json::from(phase)),
            (
                "uptime_ms",
                Json::from(self.started.elapsed().as_millis() as u64),
            ),
            ("requests_total", Json::from(self.metrics.request_count())),
            ("live_connections", Json::from(open)),
            ("catalog_size", Json::from(st.catalog.len())),
            (
                "transport",
                crate::opsjson::transport_json(
                    &self.transport,
                    open,
                    self.metrics.shed_connections(),
                    self.metrics.accept_errors(),
                ),
            ),
            (
                "rate_limiter",
                st.downloads
                    .as_ref()
                    .map_or(Json::Null, DownloadLimit::health),
            ),
            ("chaos", crate::opsjson::chaos_json(self.faults.as_deref())),
            ("slo", slo),
        ]))
    }
}

impl Handler for MarketHandler {
    /// Route on the method and the path's segments; no two routes
    /// overlap, and what matches none is a 404.
    fn handle(&self, req: &Request) -> Response {
        let st = &*self.state;
        let segments = req.segments();
        let segments: Vec<&str> = segments.iter().map(String::as_str).collect();
        match (req.method, segments.as_slice()) {
            (Method::Get, ["index"]) => {
                let page = req.query_param("page").and_then(|p| p.parse().ok());
                st.index(page.unwrap_or(0))
            }
            (Method::Get, ["soft", n]) if profile(st.market).incremental_index => st.soft(n),
            (Method::Get, ["app", pkg]) => match st.lookup(pkg) {
                Some(id) => Response::json(&listing_json(&st.world, st.world.listing(id))),
                None => Response::status(Status::NotFound),
            },
            (Method::Get, ["search"]) => match req.query_param("q") {
                Some(q) => st.search(q),
                None => Response::status(Status::BadRequest),
            },
            // Related apps for BFS crawling. A 404 here means exactly what
            // it means on /app/{pkg}.
            (Method::Get, ["related", pkg]) => match st.locate(pkg) {
                Some(pos) => Response::json(&st.related(pos)),
                None => Response::status(Status::NotFound),
            },
            (Method::Post, ["upload"]) => upload(st.market, req),
            (Method::Get, ["apk", pkg]) => st.apk(pkg),
            (Method::Get, ["__metrics"]) => Response::ok(
                "text/plain; version=0.0.4",
                self.registry.render().into_bytes(),
            ),
            (Method::Get, ["__trace"]) => {
                let json = marketscope_telemetry::chrome_trace(&self.tracer.snapshot());
                Response::ok("application/json", json.into_bytes())
            }
            (Method::Get, ["__slo"]) => {
                let verdicts = self.ops.as_ref().map(|o| o.slo.lock().verdicts());
                Response::json(&crate::opsjson::slo_json(&verdicts.unwrap_or_default()))
            }
            (Method::Get, ["__log"]) => {
                let snap = self.ops.as_ref().map(|o| o.log.snapshot());
                Response::json(&crate::opsjson::log_json(&snap.unwrap_or_default()))
            }
            (Method::Get, ["__health"]) => self.health(),
            _ => Response::status(Status::NotFound),
        }
    }
}

/// A running market server.
pub struct MarketServer {
    handle: ServerHandle,
    state: Arc<MarketState>,
}

/// Page size for the catalog index.
pub(crate) const PAGE_SIZE: usize = 50;

impl MarketServer {
    /// Spawn a server for `market` over `world` on a transport of its own,
    /// with private telemetry: its own registry, and a tracer whose local
    /// sampling is off but whose journal is live — requests arriving with
    /// a propagated trace context still record.
    pub fn spawn(
        world: Arc<World>,
        market: MarketId,
    ) -> Result<MarketServer, marketscope_net::NetError> {
        let tracer = Arc::new(Tracer::new(TracerConfig::propagate_only(4096)));
        let transport = Transport::spawn(ReactorConfig::default())?;
        MarketServer::spawn_on(
            &transport,
            world,
            market,
            Arc::new(Registry::new()),
            tracer,
            None,
            None,
        )
    }

    /// The general constructor: one more listener on `transport` — the
    /// one a [`MarketFleet`](crate::MarketFleet) spawned for all of its
    /// servers, or a fresh one the server then holds alone. The server's
    /// instruments live in `registry` (shared across the fleet), each
    /// carrying a `market="<slug>"` label, and the whole registry is
    /// exposed at `GET /__metrics` in Prometheus text format. Requests
    /// that arrive with a propagated `x-marketscope-trace` header open
    /// spans in `tracer`, whose journal is exposed as Chrome trace-event
    /// JSON at `GET /__trace`.
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
    pub fn spawn_on(
        transport: &Arc<Transport>,
        world: Arc<World>,
        market: MarketId,
        registry: Arc<Registry>,
        tracer: Arc<Tracer>,
        faults: Option<FaultInjector>,
        ops: Option<OpsHandles>,
    ) -> Result<MarketServer, marketscope_net::NetError> {
        let faults = faults.map(Arc::new);
        let state = Arc::new(MarketState::new(world, market, &registry));
        let handler = MarketHandler::new(
            Arc::clone(&state),
            registry,
            tracer,
            transport.config().clone(),
            faults.clone(),
            ops,
        );
        let metrics = handler.metrics.clone();
        let handle = HttpServer::spawn_on(transport, "127.0.0.1:0", handler, metrics, faults)?;
        Ok(MarketServer { handle, state })
    }

    /// Bound address.
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// Requests served so far.
    pub(crate) fn request_count(&self) -> u64 {
        self.handle.request_count()
    }

    /// Switch the serving phase (both campaigns run against one server).
    pub(crate) fn set_phase(&self, phase: CrawlPhase) {
        *self.state.phase.write() = phase;
    }

    /// Stop serving.
    pub fn stop(&self) {
        self.handle.stop();
    }
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
        }))
    }

    /// `/related/{pkg}` as it was served before the index: the whole
    /// catalog scanned for the developer's other listings, then for the
    /// seed's own position.
    fn related_by_scan(st: &MarketState, package: &str) -> Response {
        let Some(id) = st.lookup(package) else {
            return Response::status(Status::NotFound);
        };
        let seed_app = st.world.app(st.world.listing(id).app);
        let mut related = Vec::new();
        for other in &st.catalog {
            if *other == id || !st.visible(*other) {
                continue;
            }
            let app = st.world.app(st.world.listing(*other).app);
            if app.developer == seed_app.developer {
                related.push(Json::from(app.package.as_str()));
            }
        }
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
    }

    #[test]
    fn related_index_serves_the_bytes_the_catalog_scan_served() {
        use marketscope_net::server::Handler;
        let w = world();
        let mut hidden = 0;
        for market in MarketId::ALL {
            let state = Arc::new(MarketState::new(Arc::clone(&w), market, &Registry::new()));
            let router = MarketHandler::new(
                Arc::clone(&state),
                Arc::new(Registry::new()),
                Arc::new(Tracer::disabled()),
                ReactorConfig::default(),
                None,
                None,
            );
            let mut packages: Vec<&str> = state
                .catalog
                .iter()
                .map(|id| w.app(w.listing(*id).app).package.as_str())
                .collect();
            packages.push("com.listed.nowhere");
            for phase in [CrawlPhase::First, CrawlPhase::Second] {
                *state.phase.write() = phase;
                for pkg in &packages {
                    let served = router.handle(&Request::get(&format!("/related/{pkg}")));
                    let oracle = related_by_scan(&state, pkg);
                    assert_eq!(served.status, oracle.status, "{market} {phase:?} {pkg}");
                    assert_eq!(served.body, oracle.body, "{market} {phase:?} {pkg}");
                    hidden += usize::from(
                        phase == CrawlPhase::Second && served.status == Status::NotFound,
                    );
                }
            }
        }
        // The absent package in each market, and at least one listing the
        // second crawl no longer sees.
        assert!(hidden > MarketId::ALL.len(), "{hidden}");
    }

    #[test]
    fn channel_markets_serve_the_bytes_injection_produced() {
        use marketscope_apk::zip::ZipArchive;
        use marketscope_net::server::Handler;
        let w = world();
        let (mut markets, mut served) = (0, 0);
        for market in MarketId::ALL {
            let router = handler(&w, market);
            if router.state.channel.is_none() {
                continue;
            }
            markets += 1;
            let slug = market.slug();
            let obfuscate = profile(market).requires_obfuscation;
            for id in w.market_listings(market) {
                let l = w.listing(*id);
                let pkg = w.app(l.app).package.as_str();
                let resp = router.handle(&Request::get(&format!("/apk/{pkg}")));
                assert_eq!(resp.status, Status::Ok, "{market} {pkg}");
                // The store-side injection this build replaced: parse the
                // developer's APK, append the channel file, re-serialize.
                let mut zip = ZipArchive::parse(&w.build_apk(l.app, l.version, obfuscate)).unwrap();
                let channel = format!("source={slug}").into_bytes();
                zip.add(&format!("META-INF/{slug}channel"), channel)
                    .unwrap();
                assert!(resp.body == zip.to_bytes(), "{market} {pkg}");
                served += 1;
            }
        }
        assert_eq!(markets, 11, "web-company and specialized stores");
        assert!(served > 100, "{served}");
    }

    /// `market`'s handler with private telemetry, no chaos, no ops plane.
    fn handler(w: &Arc<World>, market: MarketId) -> MarketHandler {
        let registry = Arc::new(Registry::new());
        MarketHandler::new(
            Arc::new(MarketState::new(Arc::clone(w), market, &registry)),
            registry,
            Arc::new(Tracer::disabled()),
            ReactorConfig::default(),
            None,
            None,
        )
    }

    fn json_of(resp: &Response) -> Json {
        Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap()
    }

    #[test]
    fn routes_match_on_method_and_decoded_segments() {
        let w = world();
        let baidu = handler(&w, MarketId::BaiduMarket);
        let huawei = handler(&w, MarketId::HuaweiMarket);
        let pkg = huawei.state.app(huawei.state.catalog[0]).package.as_str();
        let encoded = format!("/app/{}", pkg.replacen('.', "%2E", 1));
        let rows = [
            (&huawei, Method::Get, encoded.as_str(), Status::Ok),
            (&huawei, Method::Get, "/index/", Status::Ok),
            (&huawei, Method::Get, "/upload", Status::NotFound),
            (&huawei, Method::Post, "/index", Status::NotFound),
            (&huawei, Method::Get, "/app", Status::NotFound),
            (&huawei, Method::Get, "/apk/a/b", Status::NotFound),
            (&baidu, Method::Get, "/soft/0", Status::Ok),
            (&huawei, Method::Get, "/soft/0", Status::NotFound),
            (&huawei, Method::Get, "/nope", Status::NotFound),
            (&huawei, Method::Get, "/__metrics", Status::Ok),
            (&huawei, Method::Get, "/__trace", Status::Ok),
            (&huawei, Method::Get, "/__slo", Status::Ok),
            (&huawei, Method::Get, "/__log", Status::Ok),
            (&huawei, Method::Get, "/__health", Status::Ok),
        ];
        for (handler, method, path, status) in rows {
            let mut req = Request::get(path);
            req.method = method;
            assert_eq!(handler.handle(&req).status, status, "{method:?} {path}");
        }
        // Each segment is decoded on its own, and a trailing slash is
        // no segment at all.
        let detail = json_of(&huawei.handle(&Request::get(&encoded)));
        assert_eq!(detail.get("package").and_then(|p| p.as_str()), Some(pkg));
        assert_eq!(
            huawei.handle(&Request::get("/index/")).body,
            huawei.handle(&Request::get("/index")).body
        );
    }

    #[test]
    fn index_pages_past_the_end_are_empty_even_when_the_offset_overflows() {
        let huawei = handler(&world(), MarketId::HuaweiMarket);
        // The first overflows `page * PAGE_SIZE` and `page + 1`, the
        // second only the multiply.
        for page in [usize::MAX, usize::MAX / PAGE_SIZE + 1] {
            let resp = huawei.handle(&Request::get(&format!("/index?page={page}")));
            assert_eq!(resp.status, Status::Ok, "page {page}");
            let doc = json_of(&resp);
            let packages = doc.get("packages").and_then(|p| p.as_arr());
            assert_eq!(packages.map(|p| p.len()), Some(0), "page {page}");
            assert!(doc.get("next").is_none(), "page {page}");
        }
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
        let server = MarketServer::spawn_on(
            &Transport::spawn(ReactorConfig::default()).unwrap(),
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
        assert_eq!(limiter.get("requests").unwrap().as_u64(), Some(0));
        // The transport section mirrors the reactor config plus live
        // counters. One pooled keep-alive client connection is open (it
        // just carried this very health request).
        let transport = health.get("transport").unwrap();
        assert!(transport.get("shards").unwrap().as_u64().unwrap() >= 1);
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
            &transport,
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
        let server = MarketServer::spawn_on(
            &Transport::spawn(ReactorConfig::default()).unwrap(),
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
        let server = MarketServer::spawn_on(
            &Transport::spawn(ReactorConfig::default()).unwrap(),
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
    fn google_play_limits_downloads_by_request_count_not_time() {
        use marketscope_net::NetError;
        let w = world();
        let first = w.market_listings(MarketId::GooglePlay)[0];
        let path = format!("/apk/{}", w.app(w.listing(first).app).package);
        let client = HttpClient::new();
        // One fresh server's statuses, sleeping after request `pause`.
        let statuses = |pause: Option<u64>| -> Vec<u16> {
            let server = MarketServer::spawn(Arc::clone(&w), MarketId::GooglePlay).unwrap();
            (0..BURST + 2 * EVERY)
                .map(|n| {
                    let status = match client.get(server.addr(), &path) {
                        Ok(_) => 200,
                        Err(NetError::Status {
                            code: 429,
                            retry_after,
                        }) => {
                            let after = retry_after.unwrap_or_default();
                            assert!(after >= Duration::from_millis(250), "{n}: {after:?}");
                            429
                        }
                        Err(e) => panic!("request {n}: {e}"),
                    };
                    if pause == Some(n) {
                        std::thread::sleep(Duration::from_millis(600));
                    }
                    status
                })
                .collect()
        };
        let steady = statuses(None);
        assert_eq!(statuses(Some(BURST)), steady, "a pause changed the limit");
        let positions: Vec<u64> = (0..)
            .zip(&steady)
            .filter(|(_, status)| **status == 200)
            .map(|(n, _)| n)
            .collect();
        let last_of_each_run = [BURST + EVERY - 1, BURST + 2 * EVERY - 1];
        assert_eq!(
            positions,
            (0..BURST).chain(last_of_each_run).collect::<Vec<_>>()
        );
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
