//! The crawl engine: one completion-driven loop over per-market state
//! machines.
//!
//! [`Crawler::crawl`] runs the paper's three phases (Section 3) as
//! barriers — enumerate, parallel search, harvest — and drives all
//! seventeen markets through each phase from the calling thread. Each
//! market is a small state machine (an index walk or seed + BFS, then a
//! listing sweep; a search sweep; a harvest). Every request is submitted
//! to the shared mux client with a callback that sends its answer, the
//! market and the data the loop applies it by, down one channel: the
//! loop receives whichever answer came next, applies it, and lets that
//! market submit what comes next. A market's requests ride its own
//! ordering lane: one connection with up to four requests written ahead,
//! whose callbacks run, and whose answers reach the channel, in
//! submission order, so the loop applies each answer as it settles. Its
//! server sees the sequence a blocking per-market loop sends (retried 5xx
//! answers aside, which are keyed per path), so seeded faults, breaker
//! and quarantine decisions and the dataset replay.
//!
//! The loop never waits on a timer: it blocks on the channel until a
//! request or a digest finishes. Retry backoff is the client's to time.
//!
//! * **BFS window.** One `/related/{pkg}` per frontier package answers
//!   both "is it listed?" (a 404 says no) and "what next?"; the listing
//!   sweep fetches its metadata. Up to `BFS_WINDOW` not-yet-visited
//!   packages are popped from the FIFO frontier and submitted at once on
//!   the market's lane, which answers them in pop order. Popping ahead
//!   only takes entries already in the FIFO and answers still append in
//!   pop order, so the packages are visited, found and missed in the
//!   sequential BFS's order, and the server receives the same `/related`
//!   sequence. Only the push-time `visited` filter sees more, so fewer
//!   duplicates enter the frontier (and `crawler_dedup_hits_total`
//!   counts fewer).
//! * **Negative set.** An index walk is complete when it reaches a page
//!   without `next` and no page failed or came back malformed; the market
//!   then cannot list a package the walk did not see. A definitive 404
//!   from a BFS `/related` is an answer too. Parallel search probes a market
//!   only for packages it did not list that are not such known misses, so
//!   an index package whose listing fetch failed still gets its second
//!   chance, and a walk that died mid-pagination rules nothing out.
//! * **Harvest window.** Each market keeps exactly one direct `/apk/{pkg}`
//!   fetch in flight, in listing order, so its server and its
//!   `MarketHealth` see the sequential outcomes in the sequential order.
//!   A 429 or a degraded fetch submits its backfill on the market's
//!   repository lane (one backfill at a time per market), and the next
//!   direct fetch goes out without waiting for it or for the digest.
//!   Bodies are digested on a [`Stage`] of `default_workers()` threads
//!   and applied by (market, listing index), so the dataset does not
//!   depend on completion order.
//! * **Bound.** While harvesting, at most two responses are in flight per
//!   market (one direct, one backfill), plus `DIGEST_BACKLOG_PER_WORKER`
//!   queued bodies per digest worker and the one each worker is digesting.
//!   A full digest queue blocks the loop until a worker takes a body. A
//!   BFS keeps at most `BFS_WINDOW` `/related` requests in flight.

use crate::health::MarketHealth;
use crate::progress::progress_line;
use crate::snapshot::{CrawlStats, CrawledListing, MarketSnapshot, Snapshot};
use marketscope_apk::digest::{ApkDigest, FeatureTable};
use marketscope_core::json::Json;
use marketscope_core::parallel::{default_workers, Stage};
use marketscope_core::MarketId;
use marketscope_net::client::{ClientConfig, ClientMetrics, FetchSpec, HttpClient};
use marketscope_net::http::Response;
use marketscope_net::resilience::{BreakerConfig, ResilienceMetrics, RetryPolicy};
use marketscope_net::NetError;
use marketscope_telemetry::trace::{Tracer, TracerConfig};
use marketscope_telemetry::{perf, Counter, EventLog, Gauge, LogLevel, Registry, TraceSpan};
use std::collections::{HashSet, VecDeque};
use std::net::SocketAddr;
use std::sync::{mpsc, Arc};

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
    pub(crate) fn addr(&self, m: MarketId) -> SocketAddr {
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
    /// Print a market's `crawl-progress` line to stderr each time it
    /// finishes a phase (see [`crate::progress`]).
    pub progress: bool,
}

impl Default for CrawlConfig {
    fn default() -> Self {
        CrawlConfig {
            seeds: Vec::new(),
            bfs_markets: vec![MarketId::GooglePlay],
            fetch_apks: true,
            trace_sample: 0.0,
            retry: Some(RetryPolicy::default()),
            breaker: Some(BreakerConfig::default()),
            quarantine_threshold: 8,
            progress: false,
        }
    }
}

/// Lane-key bit of a market's repository backfills: a lane of their own,
/// so a backfill never holds up the market's next direct fetch, while
/// the repository's breaker still sees one market's backfills one at a
/// time.
const REPOSITORY_LANE: u64 = 1 << 32;

/// `/related/{pkg}` expansions a BFS keeps submitted at once. The lane
/// writes up to `LANE_DEPTH` of them ahead on its connection and the
/// window keeps that pipeline fed; 64 already does, and it bounds the
/// requests a BFS holds.
const BFS_WINDOW: usize = 64;

/// Bodies the digest stage may queue per worker before the loop blocks.
const DIGEST_BACKLOG_PER_WORKER: usize = 2;

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
/// fetch's own span handle, since many fetches are open at once on the
/// crawl loop. Definitive 404s are answers, not degradation — they are
/// deliberately *not* counted (BFS expansions and parallel search live on
/// expected misses).
fn note_fetch_failure(
    span: &TraceSpan,
    metrics: &MarketMetrics,
    stats: &mut CrawlStats,
    err: &NetError,
) {
    if is_404(err) {
        return;
    }
    metrics.note_fetch_error(err.kind());
    stats.fetch_errors += 1;
    span.event(&format!("fetch_error:{}", err.kind()));
}

fn is_404(err: &NetError) -> bool {
    matches!(err, NetError::Status { code: 404, .. })
}

/// The crawler: a shared HTTP client plus configuration.
pub struct Crawler {
    config: CrawlConfig,
    client: HttpClient,
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
        let log = log.unwrap_or_else(EventLog::private);
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
            client: builder.build(),
            registry,
            metrics,
            tracer,
            log,
        }
    }

    /// The registry holding this crawler's instruments: per-market
    /// listing/APK/dedup counters, BFS queue depth, and HTTP client
    /// latency/retries/errors.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Run a full crawl campaign against `targets`.
    ///
    /// Three phases, mirroring Section 3, each finished before the next
    /// begins:
    /// 1. *enumerate* every market (index walk or seed+BFS, then one
    ///    metadata fetch per package found);
    /// 2. *parallel search*: look up every globally discovered package in
    ///    every market that did not list it and is not known to lack it;
    /// 3. *harvest* APKs, backfilling rate-limited fetches from the
    ///    offline repository.
    pub fn crawl(&self, targets: &CrawlTargets) -> Snapshot {
        let mut run = Run::new(self, targets);
        run.enumerate();
        run.search();
        if self.config.fetch_apks {
            run.harvest();
        }
        Snapshot {
            markets: run
                .markets
                .into_iter()
                .map(|m| MarketSnapshot {
                    market: m.id,
                    listings: m.listings,
                })
                .collect(),
            stats: run.stats,
        }
    }
}

/// Settle one `/app/{pkg}` metadata fetch: failures accounted per kind
/// (on the fetch's own span), successes counted and decoded into a
/// listing.
fn settle_metadata(
    result: Result<Json, NetError>,
    span: &TraceSpan,
    stats: &mut CrawlStats,
    metrics: &MarketMetrics,
) -> Option<CrawledListing> {
    let doc = match result {
        Ok(doc) => doc,
        Err(e) => {
            note_fetch_failure(span, metrics, stats, &e);
            return None;
        }
    };
    stats.metadata_fetched += 1;
    metrics.listings.inc();
    CrawledListing::from_metadata(&doc)
}

/// What reaches the loop: a market's answered request, or word that the
/// digest stage finished a body.
enum Event {
    Answer(usize, Answer),
    Digested,
}

/// One request's outcome, with the data the loop applies it by.
enum Answer {
    /// One `/index?page=N` of an index walk.
    Page(Result<Json, NetError>),
    /// The BFS `/related/{pkg}` expansion of a package.
    Related(String, Result<Json, NetError>),
    /// One `/app/{pkg}` of a listing or search sweep, under its span.
    Metadata(TraceSpan, Result<Json, NetError>),
    /// The direct `/apk/{pkg}` fetch of a listing, under its harvest's
    /// root span.
    Direct(usize, TraceSpan, Result<Response, NetError>),
    /// The repository backfill of a listing.
    Backfill(usize, TraceSpan, Result<Response, NetError>),
}

/// The loop's side of the client: every answer comes back as an
/// [`Event`] on one channel.
struct Io<'c> {
    client: &'c HttpClient,
    events: mpsc::Sender<Event>,
    inbox: mpsc::Receiver<Event>,
    /// Requests submitted whose answer has not been received.
    outstanding: usize,
}

impl Io<'_> {
    /// The callback of one request of market `m`: it hands the outcome,
    /// as `answer` wraps it, to the loop.
    fn reply<T>(
        &mut self,
        m: usize,
        answer: impl FnOnce(Result<T, NetError>) -> Answer + Send + 'static,
    ) -> impl FnOnce(Result<T, NetError>) + Send + 'static {
        self.outstanding += 1;
        let events = self.events.clone();
        move |result| {
            // The loop holds the receiver until nothing is outstanding.
            let _ = events.send(Event::Answer(m, answer(result)));
        }
    }
}

/// One market's share of the current phase.
#[derive(Default)]
enum Task {
    /// Nothing left to submit in this phase.
    #[default]
    Idle,
    Index(IndexWalk),
    Bfs(Bfs),
    Sweep(Sweep),
    Harvest(Harvest),
}

/// `/index?page=N` to exhaustion, one page in flight.
struct IndexWalk {
    /// The page to request next; `None` while one is in flight.
    next_page: Option<u64>,
    seen: Vec<String>,
    /// No page failed or came back malformed.
    intact: bool,
    done: bool,
}

/// Seed + BFS through `/related/{pkg}`, up to `BFS_WINDOW` expansions
/// submitted at once and applied in pop order.
struct Bfs {
    frontier: VecDeque<String>,
    visited: HashSet<String>,
    found: Vec<String>,
    in_flight: usize,
}

/// `/app/{pkg}` over a package list, every fetch submitted at once:
/// enumeration's listing sweep or a parallel-search batch. Listings are
/// appended as they settle, which is list order.
struct Sweep {
    search: bool,
    packages: Vec<String>,
    next: usize,
    in_flight: usize,
}

impl Sweep {
    fn new(search: bool, packages: Vec<String>) -> Sweep {
        Sweep {
            search,
            packages,
            next: 0,
            in_flight: 0,
        }
    }
}

/// One pass over the listings with one direct fetch in flight, then one
/// revisit pass over what a quarantine deferred.
struct Harvest {
    health: MarketHealth,
    /// The listings of the pass under way, in listing order.
    pass: Vec<usize>,
    next: usize,
    deferred: Vec<usize>,
    revisit: bool,
    recovered: u64,
    direct: bool,
}

struct Market {
    id: MarketId,
    addr: SocketAddr,
    listings: Vec<CrawledListing>,
    task: Task,
    /// Negative set: the whole catalog, when an index walk completed.
    catalog: Option<HashSet<String>>,
    /// Negative set: packages whose BFS `/related` answered 404.
    misses: HashSet<String>,
}

impl Market {
    fn known_missing(&self, pkg: &str) -> bool {
        self.misses.contains(pkg) || self.catalog.as_ref().is_some_and(|c| !c.contains(pkg))
    }
}

/// One harvested APK on its way through the digest stage: where its
/// digest belongs, and its harvest's root span, which the loop finishes
/// once the digest is applied.
struct Harvested {
    market: usize,
    listing: usize,
    span: TraceSpan,
}

/// Bodies in, digests (`None` when the APK does not parse) out.
type DigestStage = Stage<(Harvested, Vec<u8>), (Harvested, Option<ApkDigest>)>;

/// One crawl in progress.
struct Run<'c> {
    crawler: &'c Crawler,
    repository: Option<SocketAddr>,
    io: Io<'c>,
    markets: Vec<Market>,
    stats: CrawlStats,
    /// Live for the harvest phase only.
    digests: Option<DigestStage>,
    /// Bodies pushed to the digest stage and not yet applied.
    digesting: usize,
    /// Per market, its harvest's backfills in flight and bodies in the
    /// digest stage: the harvest ends once its pass is over and this is 0.
    settling: Vec<usize>,
    /// Every distinct package feature this crawl's digests hold, so
    /// digests embedding the same library share its features.
    features: FeatureTable,
}

impl<'c> Run<'c> {
    fn new(crawler: &'c Crawler, targets: &CrawlTargets) -> Run<'c> {
        Run {
            crawler,
            repository: targets.repository,
            io: {
                let (events, inbox) = mpsc::channel();
                Io {
                    client: &crawler.client,
                    events,
                    inbox,
                    outstanding: 0,
                }
            },
            markets: MarketId::ALL
                .iter()
                .map(|&id| Market {
                    id,
                    addr: targets.addr(id),
                    listings: Vec::new(),
                    task: Task::Idle,
                    catalog: None,
                    misses: HashSet::new(),
                })
                .collect(),
            stats: CrawlStats::default(),
            digests: None,
            digesting: 0,
            settling: vec![0; MarketId::ALL.len()],
            features: FeatureTable::new(),
        }
    }

    /// Phase 1: walk every market's index (or BFS from the seeds), then
    /// fetch each package's metadata.
    fn enumerate(&mut self) {
        let config = &self.crawler.config;
        for market in &mut self.markets {
            market.task = if config.bfs_markets.contains(&market.id) {
                Task::Bfs(Bfs {
                    frontier: config.seeds.iter().cloned().collect(),
                    visited: HashSet::new(),
                    found: Vec::new(),
                    in_flight: 0,
                })
            } else {
                Task::Index(IndexWalk {
                    next_page: Some(0),
                    seen: Vec::new(),
                    intact: true,
                    done: false,
                })
            };
        }
        self.drive();
    }

    /// Phase 2: parallel search. Probed in sorted order so the
    /// per-market request sequence is run-to-run deterministic —
    /// index-keyed fault windows (chaos downtime) would otherwise see a
    /// different request stream every run.
    fn search(&mut self) {
        let mut global: Vec<String> = self
            .markets
            .iter()
            .flat_map(|m| m.listings.iter().map(|l| l.package.clone()))
            .collect::<HashSet<String>>()
            .into_iter()
            .collect();
        global.sort_unstable();
        for market in &mut self.markets {
            let have: HashSet<&str> = market.listings.iter().map(|l| l.package.as_str()).collect();
            let probes = global
                .iter()
                .filter(|pkg| !have.contains(pkg.as_str()) && !market.known_missing(pkg))
                .cloned()
                .collect();
            market.task = Task::Sweep(Sweep::new(true, probes));
        }
        self.drive();
    }

    /// Phase 3: harvest every listing's APK, digesting on a bounded
    /// stage that lives as long as the phase.
    fn harvest(&mut self) {
        let workers = default_workers();
        let tracer = Arc::clone(&self.crawler.tracer);
        let events = self.io.events.clone();
        self.digests = Some(Stage::spawn(
            workers,
            DIGEST_BACKLOG_PER_WORKER * workers,
            move |(apk, bytes): (Harvested, Vec<u8>)| {
                let span = tracer.child_of(apk.span.context(), "crawler", "digest");
                let digest = ApkDigest::from_bytes(&bytes).ok();
                span.finish();
                (apk, digest)
            },
            move || {
                let _ = events.send(Event::Digested);
            },
        ));
        for market in &mut self.markets {
            market.task = Task::Harvest(Harvest {
                health: MarketHealth::new(self.crawler.config.quarantine_threshold),
                pass: (0..market.listings.len()).collect(),
                next: 0,
                deferred: Vec::new(),
                revisit: false,
                recovered: 0,
                direct: false,
            });
        }
        self.drive();
        // Joins the digest workers.
        self.digests = None;
    }

    /// Run the phase to completion: wait for whichever request (or
    /// digest) finishes next, and let the market it belongs to move on.
    fn drive(&mut self) {
        for m in 0..self.markets.len() {
            self.pump(m);
        }
        // A phase barrier: the mux driver is up, and in the harvest the
        // digest workers too, so this is where the crawl's thread set is
        // largest.
        perf::sample(&self.crawler.registry);
        while self.io.outstanding > 0 || self.digesting > 0 {
            // Never disconnected: `self.io` holds a sender.
            match self.io.inbox.recv() {
                Ok(Event::Answer(m, answer)) => self.settle(m, answer),
                Ok(Event::Digested) => self.apply_digests(),
                Err(mpsc::RecvError) => break,
            }
        }
        debug_assert!(self.markets.iter().all(|m| matches!(m.task, Task::Idle)));
    }

    /// Let market `m` submit whatever its task allows now; a finished
    /// task hands over to the next one.
    fn pump(&mut self, m: usize) {
        let Run {
            crawler,
            io,
            markets,
            stats,
            settling,
            ..
        } = &mut *self;
        let market = &mut markets[m];
        let lane = m as u64;
        let ended = match &mut market.task {
            Task::Idle => false,
            Task::Index(walk) => {
                if let Some(page) = walk.next_page.take() {
                    let spec = FetchSpec::new(market.addr, format!("/index?page={page}"))
                        .parent(None)
                        .lane(lane);
                    io.client.submit_json(&spec, io.reply(m, Answer::Page));
                }
                walk.done
            }
            Task::Bfs(bfs) => {
                let metrics = &crawler.metrics[m];
                while bfs.in_flight < BFS_WINDOW {
                    let Some(pkg) = bfs.frontier.pop_front() else {
                        break;
                    };
                    if bfs.visited.contains(&pkg) {
                        metrics.dedup_hits.inc();
                        continue;
                    }
                    bfs.visited.insert(pkg.clone());
                    let spec = FetchSpec::new(market.addr, format!("/related/{pkg}"))
                        .parent(None)
                        .lane(lane);
                    io.client
                        .submit_json(&spec, io.reply(m, |r| Answer::Related(pkg, r)));
                    bfs.in_flight += 1;
                }
                metrics.queue_depth.set(bfs.frontier.len() as i64);
                bfs.in_flight == 0 && bfs.frontier.is_empty()
            }
            Task::Sweep(sweep) => {
                let kind = if sweep.search { "search" } else { "listing" };
                while sweep.next < sweep.packages.len() {
                    let pkg = &sweep.packages[sweep.next];
                    // One (sampled) trace per metadata fetch: the root
                    // span's context flows through the driver into the
                    // market server.
                    let span = crawler
                        .tracer
                        .root_span("crawler", &format!("{kind} {}/{pkg}", market.id.slug()));
                    let spec = FetchSpec::new(market.addr, format!("/app/{pkg}"))
                        .parent(span.context())
                        .lane(lane);
                    io.client
                        .submit_json(&spec, io.reply(m, |r| Answer::Metadata(span, r)));
                    sweep.next += 1;
                    sweep.in_flight += 1;
                }
                sweep.in_flight == 0
            }
            Task::Harvest(h) => {
                let metrics = &crawler.metrics[m];
                let mut ended = false;
                while !h.direct {
                    let Some(&i) = h.pass.get(h.next) else {
                        if h.revisit || h.deferred.is_empty() {
                            ended = settling[m] == 0;
                            break;
                        }
                        // Revisit pass: by the time the deferred tail
                        // comes back around, a flapping market's downtime
                        // window has had time to rotate out and an open
                        // circuit breaker to half-open. Each deferred
                        // listing gets exactly one more chance; what
                        // still fails is accounted the normal way.
                        let deferred = h.deferred.len();
                        metrics.deferred.add(deferred as u64);
                        stats.fetches_deferred += deferred as u64;
                        crawler.log.record(
                            LogLevel::Info,
                            "crawler.quarantine",
                            "deferred fetches queued for revisit",
                            &[
                                ("market", market.id.slug()),
                                ("count", &deferred.to_string()),
                            ],
                        );
                        h.health.release();
                        h.pass = std::mem::take(&mut h.deferred);
                        h.next = 0;
                        h.revisit = true;
                        continue;
                    };
                    if !h.revisit && h.health.is_quarantined() {
                        h.deferred.push(i);
                        h.next += 1;
                        continue;
                    }
                    h.next += 1;
                    let pkg = &market.listings[i].package;
                    // One (sampled) trace per APK harvest, covering the
                    // direct fetch, any 429 + repository backfill, and
                    // the digest.
                    let span = crawler
                        .tracer
                        .root_span("crawler", &format!("apk {}/{pkg}", market.id.slug()));
                    let spec = FetchSpec::new(market.addr, format!("/apk/{pkg}"))
                        .parent(span.context())
                        .lane(lane);
                    io.client
                        .submit(&spec, io.reply(m, move |r| Answer::Direct(i, span, r)));
                    h.direct = true;
                }
                ended
            }
        };
        if ended {
            self.advance(m);
        }
    }

    /// Market `m`'s task is over: hand its results on and start the next
    /// task of the phase, if any. A market whose phase ends here prints
    /// its progress line.
    fn advance(&mut self, m: usize) {
        let found = match std::mem::take(&mut self.markets[m].task) {
            Task::Index(walk) => {
                if walk.intact {
                    self.markets[m].catalog = Some(walk.seen.iter().cloned().collect());
                }
                walk.seen
            }
            Task::Bfs(bfs) => bfs.found,
            Task::Sweep(sweep) => {
                self.report(m, if sweep.search { "search" } else { "enumerate" });
                return;
            }
            Task::Harvest(h) => {
                if h.revisit {
                    self.crawler.log.record(
                        LogLevel::Info,
                        "crawler.quarantine",
                        "revisit pass finished",
                        &[
                            ("market", self.markets[m].id.slug()),
                            ("recovered", &h.recovered.to_string()),
                        ],
                    );
                }
                self.report(m, "harvest");
                return;
            }
            Task::Idle => return,
        };
        // Enumeration found its packages: fetch each one's metadata.
        self.markets[m].task = Task::Sweep(Sweep::new(false, found));
        self.pump(m);
    }

    /// Print market `m`'s progress line for the end of `phase`, if the
    /// crawl was asked to.
    fn report(&self, m: usize, phase: &str) {
        let metrics = &self.crawler.metrics[m];
        if self.crawler.config.progress {
            let (listings, apks) = (metrics.listings.get(), metrics.apks.get());
            let (dedup, queue) = (metrics.dedup_hits.get(), metrics.queue_depth.get());
            let market = self.markets[m].id.slug();
            let line = progress_line(market, phase, listings, apks, dedup, queue);
            eprintln!("{line}");
        }
    }

    /// Apply one answer of market `m`, then let the market move on.
    fn settle(&mut self, m: usize, answer: Answer) {
        self.io.outstanding -= 1;
        match answer {
            Answer::Page(page) => self.on_page(m, page),
            Answer::Related(pkg, related) => self.on_related(m, pkg, related),
            Answer::Metadata(span, result) => {
                let metrics = &self.crawler.metrics[m];
                let listing = settle_metadata(result, &span, &mut self.stats, metrics);
                span.finish();
                let market = &mut self.markets[m];
                if let Task::Sweep(sweep) = &mut market.task {
                    sweep.in_flight -= 1;
                    if let Some(listing) = listing {
                        self.stats.parallel_search_hits += u64::from(sweep.search);
                        market.listings.push(listing);
                    }
                }
            }
            Answer::Direct(i, span, fetched) => self.on_direct(m, i, span, fetched),
            Answer::Backfill(i, span, fetched) => self.on_backfill(m, i, span, fetched),
        }
        self.pump(m);
    }

    fn on_page(&mut self, m: usize, page: Result<Json, NetError>) {
        let metrics = &self.crawler.metrics[m];
        let Task::Index(walk) = &mut self.markets[m].task else {
            return;
        };
        // An index walk that dies mid-pagination is a real coverage loss
        // — account it, don't swallow it. (No span is open around
        // enumeration requests.)
        let failure = match page {
            Err(e) => Some(e),
            Ok(doc) => match doc.get("packages").and_then(Json::as_arr) {
                None => Some(NetError::Protocol("index page without packages")),
                Some(packages) => {
                    for p in packages {
                        match p.as_str() {
                            Some(s) => walk.seen.push(s.to_owned()),
                            None => walk.intact = false,
                        }
                    }
                    match doc.get("next").map(Json::as_u64) {
                        Some(Some(next)) => walk.next_page = Some(next),
                        Some(None) => walk.intact = false,
                        None => {}
                    }
                    None
                }
            },
        };
        if let Some(e) = &failure {
            note_fetch_failure(&TraceSpan::noop(), metrics, &mut self.stats, e);
            walk.intact = false;
        }
        walk.done = walk.next_page.is_none();
    }

    /// Apply the answer to the BFS expansion of `pkg`. The lane answers
    /// in pop order, so the frontier grows exactly as one expansion at a
    /// time would grow it.
    fn on_related(&mut self, m: usize, pkg: String, related: Result<Json, NetError>) {
        let metrics = &self.crawler.metrics[m];
        let market = &mut self.markets[m];
        let Task::Bfs(bfs) = &mut market.task else {
            return;
        };
        bfs.in_flight -= 1;
        match related {
            Ok(doc) => {
                for r in doc
                    .get("related")
                    .and_then(Json::as_arr)
                    .into_iter()
                    .flatten()
                {
                    if let Some(s) = r.as_str() {
                        if !bfs.visited.contains(s) {
                            bfs.frontier.push_back(s.to_owned());
                        }
                    }
                }
            }
            // Not listed: the answer parallel search trusts.
            Err(e) if is_404(&e) => {
                market.misses.insert(pkg);
                return;
            }
            // A failed expansion loses this package's whole neighbourhood:
            // account it like any failed fetch. Whether the package is
            // listed is the listing sweep's to find out.
            Err(e) => note_fetch_failure(&TraceSpan::noop(), metrics, &mut self.stats, &e),
        }
        bfs.found.push(pkg);
    }

    /// The direct fetch of listing `i` finished. Whether the market
    /// answered definitively (success, 404, or a rate limit) feeds its
    /// health: anything else is a vote toward quarantine.
    fn on_direct(
        &mut self,
        m: usize,
        i: usize,
        span: TraceSpan,
        fetched: Result<Response, NetError>,
    ) {
        let mut healthy = true;
        match fetched {
            Ok(resp) => {
                self.stats.apks_direct += 1;
                self.digest(m, i, span, resp.body);
            }
            Err(NetError::Status { code: 429, .. }) => {
                // Throttled — an answer, not an outage. Backfill from
                // the offline repository by (pkg, version).
                self.stats.rate_limited += 1;
                span.event("rate_limited_429");
                self.backfill(m, i, span);
            }
            Err(e) if is_404(&e) => {
                // Definitive miss: the store answered that it no longer
                // serves this package.
                span.event("gone_404");
                self.missing(span);
            }
            Err(e) => {
                // Degraded fetch: account the kind and still try the
                // repository — it mirrors the catalogs, so a flaky
                // market need not cost us the APK.
                note_fetch_failure(&span, &self.crawler.metrics[m], &mut self.stats, &e);
                healthy = false;
                self.backfill(m, i, span);
            }
        }
        let (crawler, slug) = (self.crawler, self.markets[m].id.slug());
        let Task::Harvest(h) = &mut self.markets[m].task else {
            return;
        };
        h.direct = false;
        let metrics = &crawler.metrics[m];
        if h.revisit {
            if healthy {
                metrics.recovered.inc();
                self.stats.revisit_recovered += 1;
                h.recovered += 1;
            }
        } else if healthy {
            h.health.note_ok();
        } else if h.health.note_failure() {
            metrics.quarantines.inc();
            self.stats.markets_quarantined += 1;
            crawler.log.record(
                LogLevel::Warn,
                "crawler.quarantine",
                "market quarantined",
                &[
                    ("market", slug),
                    (
                        "threshold",
                        &crawler.config.quarantine_threshold.to_string(),
                    ),
                ],
            );
        }
    }

    /// Fetch listing `i`'s `(package, version)` from the offline
    /// repository, if one is configured, on the market's repository lane.
    fn backfill(&mut self, m: usize, i: usize, span: TraceSpan) {
        let Some(repo) = self.repository else {
            self.missing(span);
            return;
        };
        span.event("backfill");
        let listing = &self.markets[m].listings[i];
        let path = format!("/apk/{}/{}", listing.package, listing.version_code);
        let spec = FetchSpec::new(repo, path)
            .parent(span.context())
            .lane(REPOSITORY_LANE | m as u64);
        let reply = self.io.reply(m, move |r| Answer::Backfill(i, span, r));
        self.io.client.submit(&spec, reply);
        self.settling[m] += 1;
    }

    /// Repository failures are accounted like any other fetch error
    /// (under the market being harvested); a repository 404 just means
    /// that version was never archived.
    fn on_backfill(
        &mut self,
        m: usize,
        i: usize,
        span: TraceSpan,
        fetched: Result<Response, NetError>,
    ) {
        self.settling[m] -= 1;
        match fetched {
            Ok(resp) => {
                self.stats.apks_backfilled += 1;
                self.digest(m, i, span, resp.body);
            }
            Err(e) => {
                note_fetch_failure(&span, &self.crawler.metrics[m], &mut self.stats, &e);
                self.missing(span);
            }
        }
    }

    /// Hand listing `i`'s APK to the digest stage (blocking while its
    /// queue is full).
    fn digest(&mut self, m: usize, i: usize, span: TraceSpan, bytes: Vec<u8>) {
        self.crawler.metrics[m].apks.inc();
        if let Some(stage) = &mut self.digests {
            let apk = Harvested {
                market: m,
                listing: i,
                span,
            };
            stage.push((apk, bytes));
            self.digesting += 1;
            self.settling[m] += 1;
        }
    }

    /// Apply every digest the stage has finished, by (market, listing),
    /// its package features interned in the crawl's table; a market's
    /// last digest ends its harvest.
    fn apply_digests(&mut self) {
        while let Some((apk, digest)) = self.digests.as_mut().and_then(Stage::try_recv) {
            self.digesting -= 1;
            match digest {
                Some(mut digest) => {
                    self.features.intern_digest(&mut digest);
                    self.markets[apk.market].listings[apk.listing].digest = Some(Arc::new(digest));
                }
                None => self.stats.parse_failures += 1,
            }
            apk.span.finish();
            self.settling[apk.market] -= 1;
            self.pump(apk.market);
        }
    }

    /// A harvest ends without an APK.
    fn missing(&mut self, span: TraceSpan) {
        span.event("missing");
        span.finish();
        self.stats.apks_missing += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn the_negative_set_rules_out_only_what_an_answer_proved() {
        let mut market = Market {
            id: MarketId::TencentMyapp,
            addr: SocketAddr::from(([127, 0, 0, 1], 9)),
            listings: Vec::new(),
            task: Task::Idle,
            catalog: None,
            misses: HashSet::from(["gone".to_owned()]),
        };
        // No complete walk: only definitive misses are ruled out.
        assert!(market.known_missing("gone"));
        assert!(!market.known_missing("elsewhere"));
        // A complete walk rules out everything it did not see.
        market.catalog = Some(HashSet::from(["listed".to_owned()]));
        assert!(!market.known_missing("listed"));
        assert!(market.known_missing("elsewhere"));
    }
}
