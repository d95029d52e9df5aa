//! Parallel search skips only answers the crawl already has: a complete
//! index walk rules out everything it did not list, a walk that died
//! rules out nothing, and a listing whose fetch failed keeps its second
//! chance.

use marketscope_core::json::Json;
use marketscope_core::MarketId;
use marketscope_crawler::{CrawlConfig, CrawlTargets, Crawler};
use marketscope_ecosystem::{generate, Scale, WorldConfig};
use marketscope_market::{CrawlPhase, MarketFleet};
use marketscope_net::http::{Request, Response, Status};
use marketscope_net::server::{HttpServer, ServerHandle};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

#[test]
fn a_clean_crawl_sends_no_index_market_a_404() {
    let world = Arc::new(generate(WorldConfig {
        seed: 0x1517_2018,
        scale: Scale { divisor: 40_000 },
    }));
    let fleet = MarketFleet::spawn(Arc::clone(&world)).unwrap();
    let targets = CrawlTargets {
        markets: MarketId::ALL.iter().map(|m| fleet.addr(*m)).collect(),
        repository: Some(fleet.repository_addr()),
    };
    let gp = world.market_listings(MarketId::GooglePlay);
    let seeds = gp
        .iter()
        .take(gp.len() * 3 / 4)
        .map(|l| world.app(world.listing(*l).app).package.as_str().to_owned())
        .collect();
    let first = Crawler::new(CrawlConfig {
        seeds,
        ..CrawlConfig::default()
    })
    .crawl(&targets);
    fleet.set_phase(CrawlPhase::Second);
    let second = Crawler::new(CrawlConfig {
        seeds: first
            .market(MarketId::GooglePlay)
            .listings
            .iter()
            .map(|l| l.package.clone())
            .collect(),
        fetch_apks: false,
        ..CrawlConfig::default()
    })
    .crawl(&targets);
    assert!(first.stats.parallel_search_hits > 0 && second.total_listings() > 0);

    let served = fleet.registry().snapshot();
    let not_found = |m: MarketId| {
        served
            .counter_value(
                "marketscope_net_responses_total",
                &[("market", m.slug()), ("status", "404")],
            )
            .unwrap_or(0)
    };
    for m in MarketId::chinese() {
        assert_eq!(not_found(m), 0, "{m} answered 404s");
    }
    // Google Play has no index: its BFS and its search still probe.
    assert!(not_found(MarketId::GooglePlay) > 0);
}

fn listing(pkg: &str) -> Response {
    Response::json(&Json::obj([
        ("package", Json::from(pkg)),
        ("name", Json::from("Mock")),
        ("version_code", Json::from(1u64)),
    ]))
}

/// A store listing `count` packages, 50 to an index page. `index`
/// decides, per page number, whether the page is served; `app` per
/// package whether its metadata is. The returned counter counts every
/// `/app` request.
fn store(
    count: usize,
    index: impl Fn(usize) -> bool + Send + Sync + 'static,
    app: impl Fn(&str) -> bool + Send + Sync + 'static,
) -> (ServerHandle, Arc<AtomicU64>) {
    let packages: Vec<String> = (0..count).map(|i| format!("com.mock{i:03}.app")).collect();
    let probes = Arc::new(AtomicU64::new(0));
    let counted = Arc::clone(&probes);
    let server = HttpServer::spawn(move |req: &Request| {
        let segments = req.segments();
        match segments.iter().map(String::as_str).collect::<Vec<_>>()[..] {
            ["index"] => {
                let page: usize = req
                    .query_param("page")
                    .and_then(|p| p.parse().ok())
                    .unwrap_or(0);
                if !index(page) {
                    return Response::status(Status::InternalError);
                }
                let start = (page * 50).min(packages.len());
                let end = (start + 50).min(packages.len());
                let mut fields = vec![(
                    "packages",
                    Json::Arr(
                        packages[start..end]
                            .iter()
                            .map(|p| Json::from(p.as_str()))
                            .collect(),
                    ),
                )];
                if end < packages.len() {
                    fields.push(("next", Json::from((page + 1) as u64)));
                }
                Response::json(&Json::obj(fields))
            }
            ["app", pkg] => {
                counted.fetch_add(1, Ordering::SeqCst);
                if !packages.iter().any(|p| p == pkg) {
                    Response::status(Status::NotFound)
                } else if app(pkg) {
                    listing(pkg)
                } else {
                    Response::status(Status::InternalError)
                }
            }
            _ => Response::status(Status::NotFound),
        }
    });
    (server.unwrap(), probes)
}

/// Tencent at `tencent`, Wandoujia at `wandoujia`, every other market
/// refusing connections.
fn targets(tencent: std::net::SocketAddr, wandoujia: Option<std::net::SocketAddr>) -> CrawlTargets {
    let dead = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    let mut markets = vec![dead; MarketId::ALL.len()];
    markets[MarketId::TencentMyapp.index()] = tencent;
    if let Some(addr) = wandoujia {
        markets[MarketId::Wandoujia.index()] = addr;
    }
    CrawlTargets {
        markets,
        repository: None,
    }
}

fn config() -> CrawlConfig {
    CrawlConfig {
        seeds: Vec::new(),
        bfs_markets: Vec::new(),
        fetch_apks: false,
        retry: None,
        ..CrawlConfig::default()
    }
}

#[test]
fn an_index_that_dies_mid_walk_still_gets_every_probe() {
    // Tencent's second index page fails; Wandoujia lists all 120.
    let (tencent, probes) = store(120, |page| page == 0, |_| true);
    let (wandoujia, _) = store(120, |_| true, |_| true);
    let snap = Crawler::new(config()).crawl(&targets(tencent.addr(), Some(wandoujia.addr())));
    // 50 listing fetches from the first page, then a probe for each of
    // the 70 packages the dead walk never saw.
    assert_eq!(probes.load(Ordering::SeqCst), 120);
    assert_eq!(snap.market(MarketId::TencentMyapp).listings.len(), 120);
    assert_eq!(snap.stats.parallel_search_hits, 70);
}

#[test]
fn a_complete_walk_probes_nothing_it_did_not_list() {
    // Tencent lists 60 of Wandoujia's 120 (the first 60 names).
    let (tencent, probes) = store(60, |_| true, |_| true);
    let (wandoujia, _) = store(120, |_| true, |_| true);
    let snap = Crawler::new(config()).crawl(&targets(tencent.addr(), Some(wandoujia.addr())));
    assert_eq!(probes.load(Ordering::SeqCst), 60, "listing fetches only");
    assert_eq!(snap.market(MarketId::TencentMyapp).listings.len(), 60);
    assert_eq!(snap.stats.parallel_search_hits, 0);
}

#[test]
fn a_failed_listing_fetch_is_retried_by_parallel_search() {
    // Tencent's `com.mock007.app` metadata fails once, during
    // enumeration; Wandoujia lists the same 80.
    let failed = AtomicBool::new(false);
    let (tencent, probes) = store(
        80,
        |_| true,
        move |pkg| pkg != "com.mock007.app" || failed.swap(true, Ordering::SeqCst),
    );
    let (wandoujia, _) = store(80, |_| true, |_| true);
    let crawler = Crawler::new(config());
    let snap = crawler.crawl(&targets(tencent.addr(), Some(wandoujia.addr())));
    let errors = crawler.registry().snapshot().counter_value(
        "marketscope_crawler_fetch_errors_total",
        &[("market", "tencent"), ("kind", "status")],
    );
    assert_eq!(errors, Some(1));
    assert_eq!(probes.load(Ordering::SeqCst), 81, "one re-probe");
    assert_eq!(snap.market(MarketId::TencentMyapp).listings.len(), 80);
    assert_eq!(snap.stats.parallel_search_hits, 1);
}
