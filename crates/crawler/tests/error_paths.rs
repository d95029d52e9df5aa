//! Crawler behaviour against misbehaving endpoints: corrupt APKs, flaky
//! metadata, pagination edges — built on a hand-rolled mock store rather
//! than the full simulation.

use marketscope_core::json::Json;
use marketscope_core::MarketId;
use marketscope_crawler::{CrawlConfig, CrawlTargets, Crawler};
use marketscope_net::http::{Request, Response, Status};
use marketscope_net::server::{HttpServer, ServerHandle};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A mock store serving `count` packages, with switchable pathologies.
fn mock_store(count: usize, corrupt_apks: bool, junk_metadata: bool) -> ServerHandle {
    let packages: Vec<String> = (0..count).map(|i| format!("com.mock{i}.app")).collect();
    HttpServer::spawn(move |req: &Request| {
        let segments = req.segments();
        match segments.iter().map(String::as_str).collect::<Vec<_>>()[..] {
            ["index"] => {
                let page: usize = req
                    .query_param("page")
                    .and_then(|p| p.parse().ok())
                    .unwrap_or(0);
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
                if !packages.iter().any(|p| p == pkg) {
                    return Response::status(Status::NotFound);
                }
                if junk_metadata {
                    // Valid JSON missing mandatory fields.
                    return Response::json(&Json::obj([("name", Json::from("x"))]));
                }
                Response::json(&Json::obj([
                    ("package", Json::from(pkg)),
                    ("name", Json::from("Mock")),
                    ("version_code", Json::from(1u64)),
                    ("rating", Json::from(0.0)),
                ]))
            }
            ["apk", _] => {
                if corrupt_apks {
                    Response::ok("application/octet-stream", b"this is not an apk".to_vec())
                } else {
                    Response::status(Status::InternalError)
                }
            }
            _ => Response::status(Status::NotFound),
        }
    })
    .unwrap()
}

/// A dead endpoint (connection refused) for the other 16 markets.
fn dead_addr() -> std::net::SocketAddr {
    let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    l.local_addr().unwrap()
}

fn targets_with(addr: std::net::SocketAddr) -> CrawlTargets {
    CrawlTargets {
        markets: MarketId::ALL
            .iter()
            .map(|m| {
                if *m == MarketId::TencentMyapp {
                    addr
                } else {
                    dead_addr()
                }
            })
            .collect(),
        repository: None,
    }
}

#[test]
fn pagination_edge_exact_multiple_of_page_size() {
    // Exactly two full pages: the crawler must not loop or drop the tail.
    let store = mock_store(100, false, false);
    let crawler = Crawler::new(CrawlConfig {
        seeds: Vec::new(),
        bfs_markets: Vec::new(), // no BFS markets: GP becomes an index walk too
        fetch_apks: false,
        ..CrawlConfig::default()
    });
    let snap = crawler.crawl(&targets_with(store.addr()));
    assert_eq!(snap.market(MarketId::TencentMyapp).listings.len(), 100);
}

#[test]
fn corrupt_apks_count_as_parse_failures() {
    let store = mock_store(10, true, false);
    let crawler = Crawler::new(CrawlConfig {
        seeds: Vec::new(),
        bfs_markets: Vec::new(),
        fetch_apks: true,
        ..CrawlConfig::default()
    });
    let snap = crawler.crawl(&targets_with(store.addr()));
    assert_eq!(snap.stats.parse_failures, 10);
    assert_eq!(snap.market(MarketId::TencentMyapp).apk_count(), 0);
    // Metadata survives even when APKs don't.
    assert_eq!(snap.market(MarketId::TencentMyapp).listings.len(), 10);
}

#[test]
fn apk_server_errors_become_missing_apks() {
    let store = mock_store(7, false, false); // /apk answers 500
    let crawler = Crawler::new(CrawlConfig {
        seeds: Vec::new(),
        bfs_markets: Vec::new(),
        fetch_apks: true,
        ..CrawlConfig::default()
    });
    let snap = crawler.crawl(&targets_with(store.addr()));
    assert_eq!(snap.stats.apks_missing, 7);
    assert_eq!(snap.stats.parse_failures, 0);
}

#[test]
fn junk_metadata_is_skipped_not_fatal() {
    let store = mock_store(5, false, true);
    let crawler = Crawler::new(CrawlConfig {
        seeds: Vec::new(),
        bfs_markets: Vec::new(),
        fetch_apks: false,
        ..CrawlConfig::default()
    });
    let snap = crawler.crawl(&targets_with(store.addr()));
    // Documents missing mandatory fields are dropped silently; the crawl
    // completes with an empty catalog rather than panicking.
    assert_eq!(snap.market(MarketId::TencentMyapp).listings.len(), 0);
}

#[test]
fn unreachable_markets_yield_empty_catalogs() {
    let store = mock_store(3, false, false);
    let crawler = Crawler::new(CrawlConfig {
        seeds: Vec::new(),
        bfs_markets: Vec::new(),
        fetch_apks: false,
        ..CrawlConfig::default()
    });
    let snap = crawler.crawl(&targets_with(store.addr()));
    for m in MarketId::ALL {
        let expect = if m == MarketId::TencentMyapp { 3 } else { 0 };
        assert_eq!(snap.market(m).listings.len(), expect, "{m}");
    }
}

/// A store whose `/app/{pkg}` answers for its `count` packages and whose
/// `/related/{pkg}` always answers 500.
fn failing_related_store(count: usize) -> ServerHandle {
    let packages: Vec<String> = (0..count).map(|i| format!("com.mock{i}.app")).collect();
    HttpServer::spawn(move |req: &Request| {
        let segments = req.segments();
        match segments.iter().map(String::as_str).collect::<Vec<_>>()[..] {
            ["app", pkg] => {
                if !packages.iter().any(|p| p == pkg) {
                    return Response::status(Status::NotFound);
                }
                Response::json(&Json::obj([
                    ("package", Json::from(pkg)),
                    ("name", Json::from("Mock")),
                    ("version_code", Json::from(1u64)),
                ]))
            }
            ["related", _] => Response::status(Status::InternalError),
            _ => Response::status(Status::NotFound),
        }
    })
    .unwrap()
}

/// A store listing `count` packages whose index pages from
/// `broken_from` on carry a `next` but no `packages`.
fn truncated_index_store(count: usize, broken_from: usize) -> ServerHandle {
    let packages: Vec<String> = (0..count).map(|i| format!("com.mock{i}.app")).collect();
    HttpServer::spawn(move |req: &Request| {
        let segments = req.segments();
        match segments.iter().map(String::as_str).collect::<Vec<_>>()[..] {
            ["index"] => {
                let page: usize = req
                    .query_param("page")
                    .and_then(|p| p.parse().ok())
                    .unwrap_or(0);
                if page >= broken_from {
                    return Response::json(&Json::obj([("next", Json::from((page + 1) as u64))]));
                }
                let start = (page * 50).min(packages.len());
                let end = (start + 50).min(packages.len());
                let listed: Vec<Json> = packages[start..end]
                    .iter()
                    .map(|p| Json::from(p.as_str()))
                    .collect();
                Response::json(&Json::obj([
                    ("packages", Json::Arr(listed)),
                    ("next", Json::from((page + 1) as u64)),
                ]))
            }
            ["app", pkg] => {
                if !packages.iter().any(|p| p == pkg) {
                    return Response::status(Status::NotFound);
                }
                Response::json(&Json::obj([
                    ("package", Json::from(pkg)),
                    ("name", Json::from("Mock")),
                    ("version_code", Json::from(1u64)),
                ]))
            }
            _ => Response::status(Status::NotFound),
        }
    })
    .unwrap()
}

fn fetch_errors(crawler: &Crawler, market: &str, kind: &str) -> u64 {
    crawler
        .registry()
        .snapshot()
        .counter_value(
            "marketscope_crawler_fetch_errors_total",
            &[("market", market), ("kind", kind)],
        )
        .unwrap_or(0)
}

#[test]
fn bfs_related_failures_are_counted_and_the_crawl_completes() {
    let store = failing_related_store(4);
    let crawler = Crawler::new(CrawlConfig {
        seeds: vec!["com.mock0.app".into(), "com.mock1.app".into()],
        bfs_markets: vec![MarketId::TencentMyapp],
        fetch_apks: false,
        retry: None,
        ..CrawlConfig::default()
    });
    let snap = crawler.crawl(&targets_with(store.addr()));
    // Both seeds exist; each one's lost neighbourhood is one status error.
    assert_eq!(snap.market(MarketId::TencentMyapp).listings.len(), 2);
    assert_eq!(fetch_errors(&crawler, "tencent", "status"), 2);
}

#[test]
fn index_page_without_packages_is_a_protocol_error_and_rules_nothing_out() {
    // Tencent's index breaks after its first page; Wandoujia lists the
    // same hundred packages in full.
    let broken = truncated_index_store(100, 1);
    let full = mock_store(100, false, false);
    let mut targets = targets_with(broken.addr());
    targets.markets[MarketId::Wandoujia.index()] = full.addr();
    let crawler = Crawler::new(CrawlConfig {
        seeds: Vec::new(),
        bfs_markets: Vec::new(),
        fetch_apks: false,
        ..CrawlConfig::default()
    });
    let snap = crawler.crawl(&targets);
    assert_eq!(fetch_errors(&crawler, "tencent", "protocol"), 1);
    // The truncated walk proves nothing about the other fifty: parallel
    // search probes Tencent for them and finds them.
    assert_eq!(snap.market(MarketId::TencentMyapp).listings.len(), 100);
    assert_eq!(snap.stats.parallel_search_hits, 50);
}

/// A store listing `count` packages whose index serves page 1 for every
/// page past it and names a `next` until 64 index requests have reached
/// it: page 1 itself, or with `advancing` the page after the one asked
/// for. Returns the store and its count of index requests.
fn self_looping_index_store(count: usize, advancing: bool) -> (ServerHandle, Arc<AtomicUsize>) {
    let packages: Vec<String> = (0..count).map(|i| format!("com.mock{i}.app")).collect();
    let requests = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&requests);
    let store = HttpServer::spawn(move |req: &Request| {
        let segments = req.segments();
        match segments.iter().map(String::as_str).collect::<Vec<_>>()[..] {
            ["index"] => {
                let asked = seen.fetch_add(1, Ordering::SeqCst) + 1;
                let asked_page: u64 = req
                    .query_param("page")
                    .and_then(|p| p.parse().ok())
                    .unwrap_or(0);
                let page = asked_page.min(1) as usize;
                let listed: Vec<Json> = packages[page * 50..(page + 1) * 50]
                    .iter()
                    .map(|p| Json::from(p.as_str()))
                    .collect();
                let mut fields = vec![("packages", Json::Arr(listed))];
                if asked < 64 {
                    let next = if advancing { asked_page + 1 } else { 1 };
                    fields.push(("next", Json::from(next)));
                }
                Response::json(&Json::obj(fields))
            }
            ["app", pkg] => {
                if !packages.iter().any(|p| p == pkg) {
                    return Response::status(Status::NotFound);
                }
                Response::json(&Json::obj([
                    ("package", Json::from(pkg)),
                    ("name", Json::from("Mock")),
                    ("version_code", Json::from(1u64)),
                ]))
            }
            _ => Response::status(Status::NotFound),
        }
    })
    .unwrap();
    (store, requests)
}

#[test]
fn an_index_next_that_does_not_advance_ends_the_walk_as_a_protocol_error() {
    // Tencent's index never reaches the last fifty of its packages: its
    // page 1 names itself as next, or names ever later pages that repeat
    // it, ending at page 2. Wandoujia lists all 150 in full.
    for (advancing, requests) in [(false, 2), (true, 3)] {
        let (looping, index_requests) = self_looping_index_store(150, advancing);
        let full = mock_store(150, false, false);
        let mut targets = targets_with(looping.addr());
        targets.markets[MarketId::Wandoujia.index()] = full.addr();
        let crawler = Crawler::new(CrawlConfig {
            seeds: Vec::new(),
            bfs_markets: Vec::new(),
            fetch_apks: false,
            ..CrawlConfig::default()
        });
        let snap = crawler.crawl(&targets);
        assert_eq!(index_requests.load(Ordering::SeqCst), requests);
        assert_eq!(fetch_errors(&crawler, "tencent", "protocol"), 1);
        // The looping walk rules nothing out: parallel search finds the
        // fifty packages its index never listed.
        assert_eq!(snap.market(MarketId::TencentMyapp).listings.len(), 150);
        assert_eq!(snap.stats.parallel_search_hits, 50);
    }
}

#[test]
fn bfs_with_unknown_seeds_finds_nothing() {
    let store = mock_store(4, false, false);
    let crawler = Crawler::new(CrawlConfig {
        seeds: vec!["com.not.listed".into(), "org.missing.app".into()],
        bfs_markets: vec![MarketId::TencentMyapp],
        fetch_apks: false,
        ..CrawlConfig::default()
    });
    let snap = crawler.crawl(&targets_with(store.addr()));
    // The seeds 404 and there is no index fallback for BFS markets.
    assert_eq!(snap.market(MarketId::TencentMyapp).listings.len(), 0);
}
