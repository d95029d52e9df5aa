//! Retried status faults on a pipelined lane: the requests written
//! behind a 503 reach the server before its retry, so arrival order is
//! not the sequential one. Outcomes still replay, because status faults
//! are keyed on (seed, path, occurrence) and a lane applies its answers
//! in submission order.

use marketscope_core::json::Json;
use marketscope_core::MarketId;
use marketscope_crawler::{CrawlConfig, CrawlTargets, Crawler, Snapshot};
use marketscope_net::fault::{FaultInjector, FaultPlan};
use marketscope_net::http::{Request, Response, Status};
use marketscope_net::reactor::{ReactorConfig, Transport};
use marketscope_net::server::{HttpServer, ServerHandle, ServerMetrics};
use marketscope_telemetry::Registry;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Names in the world; Google Play lists the first `LISTED`.
const NAMES: usize = 300;
const LISTED: usize = 240;

fn name(i: usize) -> String {
    format!("com.replay{i:03}.app")
}

/// A fixed related-apps graph: a ring plus two strides, so the BFS
/// frontier outgrows the crawler's window and reaches unlisted names.
fn related(i: usize) -> Vec<String> {
    [i + 1, i * 7 + 3, i * 13 + 5]
        .iter()
        .map(|j| name(j % NAMES))
        .collect()
}

fn listing(pkg: &str) -> Response {
    Response::json(&Json::obj([
        ("package", Json::from(pkg)),
        ("name", Json::from("Mock")),
        ("version_code", Json::from(1u64)),
    ]))
}

fn position(pkg: &str) -> Option<usize> {
    (0..LISTED).find(|&i| name(i) == pkg)
}

/// Google Play behind `faults`; the log counts the requests its handler
/// served, by path.
fn play_store(faults: FaultInjector) -> (ServerHandle, Arc<Mutex<BTreeMap<String, u64>>>) {
    let log = Arc::new(Mutex::new(BTreeMap::new()));
    let served = Arc::clone(&log);
    let router = move |req: &Request| {
        *served.lock().unwrap().entry(req.path.clone()).or_insert(0) += 1;
        let segments = req.segments();
        match segments.iter().map(String::as_str).collect::<Vec<_>>()[..] {
            ["related", pkg] => match position(pkg) {
                Some(i) => {
                    let links = related(i).into_iter().map(Json::from);
                    Response::json(&Json::obj([("related", Json::Arr(links.collect()))]))
                }
                None => Response::status(Status::NotFound),
            },
            ["app", pkg] if position(pkg).is_some() => listing(pkg),
            _ => Response::status(Status::NotFound),
        }
    };
    let server = HttpServer::spawn_on(
        &Transport::spawn(ReactorConfig::default()).unwrap(),
        "127.0.0.1:0",
        router,
        ServerMetrics::standalone(),
        Some(Arc::new(faults)),
    )
    .unwrap();
    (server, log)
}

/// Every other market: a clean index listing every name on one page.
fn index_store() -> ServerHandle {
    HttpServer::spawn(|req: &Request| {
        let segments = req.segments();
        match segments.iter().map(String::as_str).collect::<Vec<_>>()[..] {
            ["index"] => {
                let all = (0..NAMES).map(|i| Json::from(name(i)));
                Response::json(&Json::obj([("packages", Json::Arr(all.collect()))]))
            }
            ["app", pkg] => listing(pkg),
            _ => Response::status(Status::NotFound),
        }
    })
    .unwrap()
}

fn listings(snap: &Snapshot) -> Vec<String> {
    snap.market(MarketId::GooglePlay)
        .listings
        .iter()
        .map(|l| l.package.clone())
        .collect()
}

#[test]
fn retried_status_faults_replay_on_a_pipelined_lane() {
    let plan = FaultPlan {
        error_5xx: 0.3,
        error_retry_after: Some(Duration::from_millis(5)),
        ..FaultPlan::none()
    };
    let index = index_store();
    let crawl = || {
        let registry = Registry::new();
        let (play, log) = play_store(FaultInjector::instrumented(42, plan, &registry, &[]));
        let targets = CrawlTargets {
            markets: MarketId::ALL
                .iter()
                .map(|m| {
                    if *m == MarketId::GooglePlay {
                        play.addr()
                    } else {
                        index.addr()
                    }
                })
                .collect(),
            repository: None,
        };
        // The default retry policy and breaker.
        let snap = Crawler::new(CrawlConfig {
            seeds: vec![name(0)],
            fetch_apks: false,
            ..CrawlConfig::default()
        })
        .crawl(&targets);
        let injected = registry
            .snapshot()
            .counter_sum("marketscope_net_faults_injected_total", &[]);
        let served = log.lock().unwrap().clone();
        (listings(&snap), served, injected)
    };
    let first = crawl();
    assert!(first.2 > 100, "the plan barely fired: {}", first.2);
    assert!(first.0.len() > LISTED / 2, "found {}", first.0.len());
    let second = crawl();
    assert_eq!(first.0, second.0, "Google Play's listings");
    assert_eq!(first.1, second.1, "requests served, by path");
    assert_eq!(first.2, second.2, "faults injected");
}
