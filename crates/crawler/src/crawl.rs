//! The crawl engine.

use crate::health::MarketHealth;
use crate::snapshot::{CrawlStats, CrawledListing, MarketSnapshot, Snapshot};
use marketscope_apk::digest::ApkDigest;
use marketscope_core::json::Json;
use marketscope_core::MarketId;
use marketscope_net::client::{ClientConfig, ClientMetrics, FetchSpec, HttpClient};
use marketscope_net::ratelimit::{RateLimitMetrics, TokenBucket};
use marketscope_net::resilience::{BreakerConfig, ResilienceMetrics, RetryPolicy};
use marketscope_net::{NetError, Ticket};
use marketscope_telemetry::trace::{Tracer, TracerConfig};
use marketscope_telemetry::{Counter, EventLog, Gauge, LogLevel, Registry, TraceSpan};
use parking_lot::Mutex;
use std::collections::{HashSet, VecDeque};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

/// Where to crawl: one address per market, plus the offline repository.
#[derive(Debug, Clone)]
pub struct CrawlTargets {
    /// Market server addresses in [`MarketId::ALL`] order.
    pub markets: Vec<SocketAddr>,
    /// The AndroZoo-style repository (backfill source), if any.
    pub repository: Option<SocketAddr>,
}

impl CrawlTargets {
    /// Address for one market.
    pub fn addr(&self, m: MarketId) -> SocketAddr {
        self.markets[m.index()]
    }
}

/// Crawl configuration.
#[derive(Debug, Clone)]
pub struct CrawlConfig {
    /// Seed packages for BFS-mode markets (the paper's PrivacyGrade list).
    pub seeds: Vec<String>,
    /// Markets with no walkable index, crawled by seed+BFS instead
    /// (Google Play in the paper).
    pub bfs_markets: Vec<MarketId>,
    /// Whether to harvest APKs (the second crawl campaign only re-checks
    /// catalog presence).
    pub fetch_apks: bool,
    /// Upper bound on listings per market (0 = unlimited) — a safety
    /// valve for exploratory runs.
    pub per_market_cap: usize,
    /// Politeness: per-market request rate cap in requests/second
    /// (`None` = unthrottled; the paper crawled politely from 50 cloud
    /// workers over two weeks).
    pub politeness_rps: Option<f64>,
    /// Probability that one listing/APK fetch starts a distributed
    /// trace (0.0 = tracing off, 1.0 = trace everything). Sampled
    /// fetches propagate their context to the market servers via the
    /// `x-marketscope-trace` header.
    pub trace_sample: f64,
    /// Status-level retry policy for the crawl client: deterministic
    /// exponential backoff honoring server `retry-after` hints within a
    /// capped budget (`None` = surface every failure immediately).
    pub retry: Option<RetryPolicy>,
    /// Per-host circuit breaking for the crawl client: after a run of
    /// host faults the host is fast-failed instead of hammered
    /// (`None` = no breaker).
    pub breaker: Option<BreakerConfig>,
    /// Quarantine a market mid-harvest after this many *consecutive*
    /// terminal fetch failures; its remaining listings are deferred to a
    /// single revisit pass (`0` = never quarantine).
    pub quarantine_threshold: u32,
}

impl Default for CrawlConfig {
    fn default() -> Self {
        CrawlConfig {
            seeds: Vec::new(),
            bfs_markets: vec![MarketId::GooglePlay],
            fetch_apks: true,
            per_market_cap: 0,
            politeness_rps: None,
            trace_sample: 0.0,
            retry: Some(RetryPolicy::default()),
            breaker: Some(BreakerConfig::default()),
            quarantine_threshold: 8,
        }
    }
}

/// Burst allowance for a politeness bucket running at `rps`
/// requests/second: a quarter-second of budget, floored at one token.
///
/// The floor matters: [`TokenBucket::new`] rejects zero-capacity buckets,
/// and any `rps < 4.0` would otherwise truncate to a zero burst. With the
/// floor, sub-1 rps configurations (e.g. one request every ten seconds)
/// still get exactly one token of burst and are governed purely by the
/// refill rate; fast configurations get `ceil(rps / 4)` so the
/// steady-state rate, not the burst, dominates.
pub fn politeness_burst(rps: f64) -> u32 {
    (rps / 4.0).ceil().max(1.0) as u32
}

/// Per-market crawl instruments (names under `marketscope_crawler_*`,
/// one `market=<slug>` label per market).
#[derive(Debug)]
struct MarketMetrics {
    /// `marketscope_crawler_listings_fetched_total`
    listings: Arc<Counter>,
    /// `marketscope_crawler_apks_harvested_total`
    apks: Arc<Counter>,
    /// `marketscope_crawler_dedup_hits_total` (BFS frontier re-visits)
    dedup_hits: Arc<Counter>,
    /// `marketscope_crawler_bfs_queue_depth` (live frontier size)
    queue_depth: Arc<Gauge>,
    /// `marketscope_crawler_fetch_errors_total{market,kind}` — terminal
    /// fetch failures observed while crawling this market, by
    /// [`NetError::kind`]. Definitive 404s are answers, not degradation,
    /// and are never counted here.
    fetch_errors: Vec<(&'static str, Arc<Counter>)>,
    /// `marketscope_crawler_quarantines_total` — times this market was
    /// quarantined mid-harvest.
    quarantines: Arc<Counter>,
    /// `marketscope_crawler_deferred_fetches_total` — APK fetches pushed
    /// past a quarantine to the revisit pass.
    deferred: Arc<Counter>,
    /// `marketscope_crawler_revisit_recovered_total` — deferred fetches
    /// the market answered on revisit.
    recovered: Arc<Counter>,
}

impl MarketMetrics {
    fn register(registry: &Registry, market: MarketId) -> MarketMetrics {
        let labels = [("market", market.slug())];
        MarketMetrics {
            listings: registry.counter("marketscope_crawler_listings_fetched_total", &labels),
            apks: registry.counter("marketscope_crawler_apks_harvested_total", &labels),
            dedup_hits: registry.counter("marketscope_crawler_dedup_hits_total", &labels),
            queue_depth: registry.gauge("marketscope_crawler_bfs_queue_depth", &labels),
            // Pre-registered for every kind so snapshots are shaped
            // identically whether or not a kind ever fires.
            fetch_errors: NetError::KINDS
                .iter()
                .map(|kind| {
                    let labels = [("market", market.slug()), ("kind", *kind)];
                    (
                        *kind,
                        registry.counter("marketscope_crawler_fetch_errors_total", &labels),
                    )
                })
                .collect(),
            quarantines: registry.counter("marketscope_crawler_quarantines_total", &labels),
            deferred: registry.counter("marketscope_crawler_deferred_fetches_total", &labels),
            recovered: registry.counter("marketscope_crawler_revisit_recovered_total", &labels),
        }
    }

    fn note_fetch_error(&self, kind: &str) {
        // Never misses: the counters come from `NetError::KINDS`.
        if let Some((_, c)) = self.fetch_errors.iter().find(|(k, _)| *k == kind) {
            c.inc();
        }
    }
}

/// Account one terminal fetch failure: per-kind market counter, the
/// campaign-wide stat, and a `fetch_error:<kind>` event on `span` — the
/// fetch's own span handle, because by the time a batched probe drains
/// the thread's *current* span is whichever probe was submitted last.
/// Definitive 404s are answers, not degradation — they are deliberately
/// *not* counted (BFS probes and parallel search live on expected
/// misses).
fn note_fetch_failure(
    span: &TraceSpan,
    metrics: &MarketMetrics,
    stats: &Mutex<CrawlStats>,
    err: &NetError,
) {
    if matches!(err, NetError::Status { code: 404, .. }) {
        return;
    }
    metrics.note_fetch_error(err.kind());
    stats.lock().fetch_errors += 1;
    span.event(&format!("fetch_error:{}", err.kind()));
}

/// The crawler: a shared HTTP client plus configuration.
pub struct Crawler {
    config: CrawlConfig,
    client: Arc<HttpClient>,
    /// One politeness bucket per market (when politeness is on).
    buckets: Option<Vec<TokenBucket>>,
    /// Telemetry registry every crawler instrument lives in.
    registry: Arc<Registry>,
    /// Per-market instruments, in [`MarketId::ALL`] order.
    metrics: Vec<MarketMetrics>,
    /// Tracer sampling per-fetch spans (per `config.trace_sample`).
    tracer: Arc<Tracer>,
    /// Structured event log quarantine/breaker seams record to: the
    /// fleet's in campaigns, a small private one otherwise.
    log: Arc<EventLog>,
}

impl Crawler {
    /// A crawler with the given configuration and a private telemetry
    /// registry (see [`Crawler::registry`]).
    pub fn new(config: CrawlConfig) -> Crawler {
        let tracer = Arc::new(Tracer::new(TracerConfig {
            sample_rate: config.trace_sample,
            capacity: 16_384,
        }));
        Crawler::with_ops(config, Arc::new(Registry::new()), tracer, None)
    }

    /// The general constructor. Instruments are registered in `registry`
    /// — pass a shared one to scrape crawler progress alongside other
    /// components. Trace spans record into `tracer`; pass the same
    /// tracer to other components to merge their spans into one journal
    /// up front instead of merging snapshots later. Circuit breaker
    /// transitions and quarantine lifecycle emit events (with the active
    /// trace context attached) alongside their counters — into `log`
    /// when given one, else into a small private [`EventLog`].
    pub fn with_ops(
        config: CrawlConfig,
        registry: Arc<Registry>,
        tracer: Arc<Tracer>,
        log: Option<Arc<EventLog>>,
    ) -> Crawler {
        let log = log.unwrap_or_else(|| Arc::new(EventLog::new(16)));
        let buckets = config.politeness_rps.map(|rps| {
            MarketId::ALL
                .iter()
                .map(|m| {
                    TokenBucket::instrumented(
                        politeness_burst(rps),
                        rps,
                        RateLimitMetrics::register(
                            &registry,
                            &[("limiter", "politeness"), ("market", m.slug())],
                        ),
                    )
                })
                .collect()
        });
        let metrics = MarketId::ALL
            .iter()
            .map(|m| MarketMetrics::register(&registry, *m))
            .collect();
        let mut builder = HttpClient::builder()
            .config(ClientConfig {
                pool_per_host: 4,
                ..ClientConfig::default()
            })
            .metrics(ClientMetrics::register(&registry, &[]))
            .tracer(Arc::clone(&tracer));
        if config.retry.is_some() || config.breaker.is_some() {
            builder = builder.resilience_metrics(
                ResilienceMetrics::register(&registry, &[]).with_log(Arc::clone(&log)),
            );
        }
        if let Some(policy) = config.retry {
            builder = builder.retry(policy);
        }
        if let Some(breaker) = config.breaker {
            builder = builder.breaker(breaker);
        }
        Crawler {
            config,
            client: Arc::new(builder.build()),
            buckets,
            registry,
            metrics,
            tracer,
            log,
        }
    }

    /// The registry holding this crawler's instruments: per-market
    /// listing/APK/dedup counters, BFS queue depth, politeness-bucket
    /// grants and waits, and HTTP client latency/retries/errors.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The tracer holding this crawler's sampled fetch spans.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// Block until the politeness budget allows another request to
    /// `market` (no-op when politeness is off). Time actually spent
    /// blocked is recorded on the market's rate-limit instruments.
    fn polite(&self, market: MarketId) {
        let Some(buckets) = &self.buckets else { return };
        let bucket = &buckets[market.index()];
        if bucket.try_acquire() {
            return;
        }
        let started = Instant::now();
        loop {
            std::thread::sleep(bucket.wait_hint().min(std::time::Duration::from_millis(25)));
            if bucket.try_acquire() {
                break;
            }
        }
        bucket.note_wait(started.elapsed());
        // If this stall happened inside a sampled fetch span, pin it to
        // the trace timeline too.
        marketscope_telemetry::trace::current_event("politeness_wait");
    }

    /// Open one (sampled) root span for a metadata probe and enqueue
    /// the fetch on the market's ordering lane. The span's context
    /// flows through the driver into the market server; the lane
    /// serializes this market's probes so its server sees them in
    /// submission order (seeded fault windows stay bit-identical).
    fn submit_metadata_probe(
        &self,
        market: MarketId,
        addr: SocketAddr,
        kind: &str,
        pkg: &str,
    ) -> (TraceSpan, Ticket) {
        let span = self
            .tracer
            .root_span("crawler", &format!("{kind} {}/{pkg}", market.slug()));
        let spec = FetchSpec::new(addr, format!("/app/{pkg}"))
            .parent(span.context())
            .lane(market.index() as u64);
        (span, self.client.submit_get_json(&spec))
    }

    /// The batched metadata fan-out: submit one `/app/{pkg}` probe per
    /// package through the mux driver — all in flight at once, the
    /// whole batch riding the one driver thread — then drain and settle
    /// in submission order.
    fn fetch_many(
        &self,
        market: MarketId,
        addr: SocketAddr,
        kind: &str,
        packages: &[String],
        stats: &Mutex<CrawlStats>,
    ) -> Vec<Option<CrawledListing>> {
        let probes: Vec<(TraceSpan, Ticket)> = packages
            .iter()
            .map(|pkg| self.submit_metadata_probe(market, addr, kind, pkg))
            .collect();
        let metrics = &self.metrics[market.index()];
        probes
            .into_iter()
            .map(|(span, ticket)| {
                let listing = settle_metadata(self.client.wait_json(ticket), &span, stats, metrics);
                span.finish();
                listing
            })
            .collect()
    }

    /// Run a full crawl campaign against `targets`.
    ///
    /// Three phases, mirroring Section 3:
    /// 1. *enumerate* every market (index walk or seed+BFS) in parallel;
    /// 2. *parallel search*: look up every globally discovered package in
    ///    every market that did not list it;
    /// 3. *harvest* APKs, backfilling rate-limited fetches from the
    ///    offline repository.
    pub fn crawl(&self, targets: &CrawlTargets) -> Snapshot {
        let stats = Arc::new(Mutex::new(CrawlStats::default()));

        // Phase 1: enumerate.
        let mut markets: Vec<MarketSnapshot> = std::thread::scope(|s| {
            let handles: Vec<_> = MarketId::ALL
                .iter()
                .map(|m| {
                    let stats = Arc::clone(&stats);
                    let client = Arc::clone(&self.client);
                    s.spawn(move || self.enumerate_market(*m, targets, &client, &stats))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        });

        // Phase 2: parallel search. Probed in sorted order so the
        // per-market request sequence is run-to-run deterministic —
        // index-keyed fault windows (chaos downtime) would otherwise see
        // a different request stream every run.
        let mut global: Vec<String> = markets
            .iter()
            .flat_map(|m| m.listings.iter().map(|l| l.package.clone()))
            .collect::<HashSet<String>>()
            .into_iter()
            .collect();
        global.sort_unstable();
        // The batched fetch path: every market's probes are submitted
        // up front and ride the mux driver's one readiness loop — no
        // per-market thread pile. Each market's ordering lane delivers
        // its probes in submission order, so seeded fault windows (and
        // with them campaign datasets) stay bit-identical; across
        // markets the probes overlap freely.
        let search_batches: Vec<Vec<(TraceSpan, Ticket)>> = markets
            .iter()
            .map(|snapshot| {
                let have: HashSet<&str> = snapshot
                    .listings
                    .iter()
                    .map(|l| l.package.as_str())
                    .collect();
                let addr = targets.addr(snapshot.market);
                global
                    .iter()
                    .filter(|pkg| !have.contains(pkg.as_str()))
                    .map(|pkg| self.submit_metadata_probe(snapshot.market, addr, "search", pkg))
                    .collect()
            })
            .collect();
        for (snapshot, probes) in markets.iter_mut().zip(search_batches) {
            let metrics = &self.metrics[snapshot.market.index()];
            for (span, ticket) in probes {
                if let Some(listing) =
                    settle_metadata(self.client.wait_json(ticket), &span, &stats, metrics)
                {
                    snapshot.listings.push(listing);
                    stats.lock().parallel_search_hits += 1;
                }
                span.finish();
            }
        }

        // Phase 3: harvest APKs.
        if self.config.fetch_apks {
            std::thread::scope(|s| {
                let handles: Vec<_> = markets
                    .iter_mut()
                    .map(|snapshot| {
                        let stats = Arc::clone(&stats);
                        let client = Arc::clone(&self.client);
                        s.spawn(move || self.harvest_market(snapshot, targets, &client, &stats))
                    })
                    .collect();
                for h in handles {
                    h.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
                }
            });
        }

        let stats = *stats.lock();
        Snapshot { markets, stats }
    }

    fn enumerate_market(
        &self,
        market: MarketId,
        targets: &CrawlTargets,
        client: &HttpClient,
        stats: &Mutex<CrawlStats>,
    ) -> MarketSnapshot {
        let addr = targets.addr(market);
        let packages = if self.config.bfs_markets.contains(&market) {
            self.bfs_enumerate(market, addr, client, stats)
        } else {
            self.index_enumerate(market, addr, client, stats)
        };
        // Unthrottled, uncapped enumeration takes the batched fetch
        // path: the whole listing sweep is submitted at once and rides
        // the mux driver. Politeness needs per-request pacing, and a
        // cap counts *successful* listings (a failed fetch means one
        // more package gets tried) — both are inherently sequential, so
        // those configurations fetch one listing at a time.
        if self.buckets.is_none() && self.config.per_market_cap == 0 {
            let listings = self
                .fetch_many(market, addr, "listing", &packages, stats)
                .into_iter()
                .flatten()
                .collect();
            return MarketSnapshot { market, listings };
        }
        let mut listings = Vec::with_capacity(packages.len());
        for pkg in packages {
            if self.config.per_market_cap > 0 && listings.len() >= self.config.per_market_cap {
                break;
            }
            // One (sampled) trace per listing fetch: the root span's
            // context flows through the client into the market server.
            let span = self
                .tracer
                .root_span("crawler", &format!("listing {}/{pkg}", market.slug()));
            self.polite(market);
            let metrics = &self.metrics[market.index()];
            let fetched = client.get_json(addr, &format!("/app/{pkg}"));
            if let Some(listing) = settle_metadata(fetched, &span, stats, metrics) {
                listings.push(listing);
            }
            span.finish();
        }
        MarketSnapshot { market, listings }
    }

    /// Walk `/index?page=N` to exhaustion.
    fn index_enumerate(
        &self,
        market: MarketId,
        addr: SocketAddr,
        client: &HttpClient,
        stats: &Mutex<CrawlStats>,
    ) -> Vec<String> {
        let mut out = Vec::new();
        let mut page = 0u64;
        loop {
            let doc = match client.get_json(addr, &format!("/index?page={page}")) {
                Ok(doc) => doc,
                Err(e) => {
                    // An index walk that dies mid-pagination is a real
                    // coverage loss — account it, don't swallow it. (No
                    // span is open around enumeration requests.)
                    let metrics = &self.metrics[market.index()];
                    note_fetch_failure(&TraceSpan::noop(), metrics, stats, &e);
                    break;
                }
            };
            let Some(packages) = doc.get("packages").and_then(|p| p.as_arr()) else {
                break;
            };
            for p in packages {
                if let Some(s) = p.as_str() {
                    out.push(s.to_owned());
                }
            }
            match doc.get("next").and_then(|n| n.as_u64()) {
                Some(n) => page = n,
                None => break,
            }
        }
        out
    }

    /// Seed + BFS enumeration: expand through `/related/{pkg}`.
    fn bfs_enumerate(
        &self,
        market: MarketId,
        addr: SocketAddr,
        client: &HttpClient,
        stats: &Mutex<CrawlStats>,
    ) -> Vec<String> {
        let metrics = &self.metrics[market.index()];
        let mut visited: HashSet<String> = HashSet::new();
        let mut found = Vec::new();
        let mut frontier: VecDeque<String> = self.config.seeds.iter().cloned().collect();
        while let Some(pkg) = frontier.pop_front() {
            metrics.queue_depth.set(frontier.len() as i64);
            if !visited.insert(pkg.clone()) {
                metrics.dedup_hits.inc();
                continue;
            }
            // Confirm the package exists in this market. A 404 is the
            // expected answer for a probe that misses; anything else is
            // degradation and gets accounted.
            match client.get_json(addr, &format!("/app/{pkg}")) {
                Ok(_) => found.push(pkg.clone()),
                Err(e) => {
                    note_fetch_failure(&TraceSpan::noop(), metrics, stats, &e);
                    continue;
                }
            }
            if let Ok(doc) = client.get_json(addr, &format!("/related/{pkg}")) {
                if let Some(related) = doc.get("related").and_then(|r| r.as_arr()) {
                    for r in related {
                        if let Some(s) = r.as_str() {
                            if !visited.contains(s) {
                                frontier.push_back(s.to_owned());
                            }
                        }
                    }
                }
            }
        }
        metrics.queue_depth.set(0);
        found
    }

    /// Harvest one market's APKs, degrading gracefully: consecutive
    /// terminal failures quarantine the market (via [`MarketHealth`]),
    /// deferring its remaining listings to a single revisit pass instead
    /// of burning politeness and retry budget against a dead host.
    fn harvest_market(
        &self,
        snapshot: &mut MarketSnapshot,
        targets: &CrawlTargets,
        client: &HttpClient,
        stats: &Mutex<CrawlStats>,
    ) {
        let market = snapshot.market;
        let metrics = &self.metrics[market.index()];
        let mut health = MarketHealth::new(self.config.quarantine_threshold);
        let mut deferred: Vec<usize> = Vec::new();
        for i in 0..snapshot.listings.len() {
            if health.is_quarantined() {
                deferred.push(i);
                continue;
            }
            if self.harvest_one(market, targets, &mut snapshot.listings[i], client, stats) {
                health.note_ok();
            } else if health.note_failure() {
                metrics.quarantines.inc();
                stats.lock().markets_quarantined += 1;
                self.log.record(
                    LogLevel::Warn,
                    "crawler.quarantine",
                    "market quarantined",
                    &[
                        ("market", market.slug()),
                        ("threshold", &self.config.quarantine_threshold.to_string()),
                    ],
                );
            }
        }
        if deferred.is_empty() {
            return;
        }
        // Revisit pass: by the time the deferred tail comes back around,
        // a flapping market's downtime window has had time to rotate out
        // and an open circuit breaker to half-open. Each deferred listing
        // gets exactly one more chance; what still fails is accounted the
        // normal way (error kinds, `apks_missing`).
        metrics.deferred.add(deferred.len() as u64);
        stats.lock().fetches_deferred += deferred.len() as u64;
        self.log.record(
            LogLevel::Info,
            "crawler.quarantine",
            "deferred fetches queued for revisit",
            &[
                ("market", market.slug()),
                ("count", &deferred.len().to_string()),
            ],
        );
        health.release();
        let mut recovered = 0u64;
        for i in deferred {
            if self.harvest_one(market, targets, &mut snapshot.listings[i], client, stats) {
                metrics.recovered.inc();
                stats.lock().revisit_recovered += 1;
                recovered += 1;
            }
        }
        self.log.record(
            LogLevel::Info,
            "crawler.quarantine",
            "revisit pass finished",
            &[
                ("market", market.slug()),
                ("recovered", &recovered.to_string()),
            ],
        );
    }

    /// Harvest one listing's APK: the direct fetch, any backfill, and
    /// digesting. Returns whether the market answered definitively
    /// (success, 404, or a rate limit) — `false` is a vote toward
    /// quarantine.
    fn harvest_one(
        &self,
        market: MarketId,
        targets: &CrawlTargets,
        listing: &mut CrawledListing,
        client: &HttpClient,
        stats: &Mutex<CrawlStats>,
    ) -> bool {
        let metrics = &self.metrics[market.index()];
        // One (sampled) trace per APK harvest, covering the direct
        // fetch, any 429 + repository backfill, and digesting.
        let trace_span = self.tracer.root_span(
            "crawler",
            &format!("apk {}/{}", market.slug(), listing.package),
        );
        self.polite(market);
        let path = format!("/apk/{}", listing.package);
        let mut healthy = true;
        let bytes = match client.get(targets.addr(market), &path) {
            Ok(resp) => {
                stats.lock().apks_direct += 1;
                Some(resp.body)
            }
            Err(NetError::Status { code: 429, .. }) => {
                // Throttled — an answer, not an outage. Backfill from
                // the offline repository by (pkg, version).
                stats.lock().rate_limited += 1;
                trace_span.event("rate_limited_429");
                self.backfill(targets, listing, client, stats, metrics, &trace_span)
            }
            Err(NetError::Status { code: 404, .. }) => {
                // Definitive miss: the store answered that it no longer
                // serves this package.
                trace_span.event("gone_404");
                None
            }
            Err(e) => {
                // Degraded fetch: account the kind and still try the
                // repository — it mirrors the catalogs, so a flaky
                // market need not cost us the APK.
                note_fetch_failure(&trace_span, metrics, stats, &e);
                healthy = false;
                self.backfill(targets, listing, client, stats, metrics, &trace_span)
            }
        };
        match bytes {
            Some(bytes) => {
                metrics.apks.inc();
                let digest_span = self
                    .tracer
                    .child_of(trace_span.context(), "crawler", "digest");
                match ApkDigest::from_bytes(&bytes) {
                    Ok(digest) => listing.digest = Some(std::sync::Arc::new(digest)),
                    Err(_) => stats.lock().parse_failures += 1,
                }
                digest_span.finish();
            }
            None => {
                trace_span.event("missing");
                stats.lock().apks_missing += 1;
            }
        }
        trace_span.finish();
        healthy
    }

    /// Fetch `(package, version)` from the offline repository, if one is
    /// configured. Repository failures are accounted like any other
    /// fetch error (under the market being harvested); a repository 404
    /// just means that version was never archived.
    fn backfill(
        &self,
        targets: &CrawlTargets,
        listing: &CrawledListing,
        client: &HttpClient,
        stats: &Mutex<CrawlStats>,
        metrics: &MarketMetrics,
        trace_span: &TraceSpan,
    ) -> Option<Vec<u8>> {
        let repo = targets.repository?;
        trace_span.event("backfill");
        let path = format!("/apk/{}/{}", listing.package, listing.version_code);
        match client.get(repo, &path) {
            Ok(resp) => {
                stats.lock().apks_backfilled += 1;
                Some(resp.body)
            }
            Err(e) => {
                note_fetch_failure(trace_span, metrics, stats, &e);
                None
            }
        }
    }
}

/// Settle one `/app/{pkg}` metadata fetch: failures accounted per kind
/// (on the fetch's own span), successes counted and decoded into a
/// listing.
fn settle_metadata(
    result: Result<Json, NetError>,
    span: &TraceSpan,
    stats: &Mutex<CrawlStats>,
    metrics: &MarketMetrics,
) -> Option<CrawledListing> {
    let doc = match result {
        Ok(doc) => doc,
        Err(e) => {
            note_fetch_failure(span, metrics, stats, &e);
            return None;
        }
    };
    stats.lock().metadata_fetched += 1;
    metrics.listings.inc();
    CrawledListing::from_metadata(&doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn politeness_burst_is_quarter_second_of_budget() {
        assert_eq!(politeness_burst(8.0), 2);
        assert_eq!(politeness_burst(100.0), 25);
        // Non-multiples round up, never down.
        assert_eq!(politeness_burst(9.0), 3);
    }

    #[test]
    fn politeness_burst_never_drops_below_one_token() {
        // rps < 4 truncates to zero without the floor; TokenBucket::new
        // panics on zero capacity, so these must all stay at 1.
        assert_eq!(politeness_burst(4.0), 1);
        assert_eq!(politeness_burst(1.0), 1);
        assert_eq!(politeness_burst(0.1), 1);
        // ...and the bucket construction they feed must not panic.
        let _ = TokenBucket::new(politeness_burst(0.1), 0.1);
    }

    #[test]
    fn slow_politeness_config_builds_a_crawler() {
        // Regression: sub-1 rps politeness used to be one `ceil` away from
        // a zero-capacity bucket panic.
        let crawler = Crawler::new(CrawlConfig {
            politeness_rps: Some(0.5),
            ..CrawlConfig::default()
        });
        assert!(crawler.buckets.as_ref().map(Vec::len) == Some(MarketId::ALL.len()));
    }

    #[test]
    fn crawler_registers_per_market_instruments() {
        let crawler = Crawler::new(CrawlConfig::default());
        crawler.metrics[0].listings.inc();
        let snap = crawler.registry().snapshot();
        let slug = MarketId::ALL[0].slug();
        assert_eq!(
            snap.counter_value(
                "marketscope_crawler_listings_fetched_total",
                &[("market", slug)]
            ),
            Some(1)
        );
        // Every market got its own instrument set.
        assert_eq!(
            snap.label_values("market").len(),
            MarketId::ALL.len(),
            "one market label per market"
        );
    }
}
