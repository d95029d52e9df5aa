//! Graceful degradation under injected faults: backfill rides out a
//! flaky repository, a dead repository is accounted honestly (right
//! error kinds, breaker fast-fails included), persistent failures
//! quarantine a market, and the revisit pass recovers what it can.

use marketscope_core::json::Json;
use marketscope_core::MarketId;
use marketscope_crawler::{CrawlConfig, CrawlTargets, Crawler};
use marketscope_net::fault::{FaultInjector, FaultPlan};
use marketscope_net::http::{Request, Response, Status};
use marketscope_net::reactor::{ReactorConfig, Transport};
use marketscope_net::resilience::BreakerConfig;
use marketscope_net::server::{HttpServer, ServerHandle, ServerMetrics};
use marketscope_telemetry::trace::{Tracer, TracerConfig};
use marketscope_telemetry::Registry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A mock store serving `count` packages whose `/apk` endpoint is
/// driven by the given closure (call counter included for staged
/// pathologies).
fn mock_store(count: usize, apk: impl Fn(u64) -> Response + Send + Sync + 'static) -> ServerHandle {
    let packages: Vec<String> = (0..count).map(|i| format!("com.mock{i:02}.app")).collect();
    let calls = AtomicU64::new(0);
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
                Response::json(&Json::obj([
                    ("package", Json::from(pkg)),
                    ("name", Json::from("Mock")),
                    ("version_code", Json::from(1u64)),
                    ("rating", Json::from(0.0)),
                ]))
            }
            ["apk", _] => apk(calls.fetch_add(1, Ordering::SeqCst)),
            _ => Response::status(Status::NotFound),
        }
    })
    .unwrap()
}

/// A store whose direct APK endpoint always throttles with a hint far
/// over the retry budget — every harvest goes down the backfill path,
/// while the market itself stays "healthy" (it answered).
fn throttled_store(count: usize) -> ServerHandle {
    mock_store(count, |_| {
        Response::status_with_retry_after(
            Status::TooManyRequests,
            std::time::Duration::from_secs(10),
        )
    })
}

/// A dead endpoint (connection refused).
fn dead_addr() -> std::net::SocketAddr {
    let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    l.local_addr().unwrap()
}

fn targets_with(
    addr: std::net::SocketAddr,
    repository: Option<std::net::SocketAddr>,
) -> CrawlTargets {
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
        repository,
    }
}

fn base_config() -> CrawlConfig {
    CrawlConfig {
        seeds: Vec::new(),
        bfs_markets: Vec::new(),
        fetch_apks: true,
        ..CrawlConfig::default()
    }
}

#[test]
fn flaky_repository_is_absorbed_by_retries() {
    let store = throttled_store(10);
    // The repository resets every third request; connection-level and
    // policy retries must absorb every hit.
    let repo = HttpServer::spawn_on(
        &Transport::spawn(ReactorConfig::default()).unwrap(),
        "127.0.0.1:0",
        |req: &Request| {
            let segments = req.segments();
            match segments.iter().map(String::as_str).collect::<Vec<_>>()[..] {
                ["apk", _, _] => {
                    Response::ok("application/octet-stream", b"not a real apk".to_vec())
                }
                _ => Response::status(Status::NotFound),
            }
        },
        ServerMetrics::standalone(),
        Some(Arc::new(FaultInjector::new(
            11,
            FaultPlan {
                downtime_every: 3,
                downtime_len: 1,
                ..FaultPlan::none()
            },
        ))),
    )
    .unwrap();

    let crawler = Crawler::new(base_config());
    let snap = crawler.crawl(&targets_with(store.addr(), Some(repo.addr())));

    assert_eq!(snap.stats.rate_limited, 10, "every direct fetch throttled");
    assert_eq!(snap.stats.apks_backfilled, 10, "every listing backfilled");
    assert_eq!(snap.stats.apks_missing, 0);
    let injected = repo.fault_injector().unwrap().injected();
    assert!(injected > 0, "the repository really was faulted");
}

#[test]
fn dead_repository_yields_missing_apks_with_honest_kind_labels() {
    let store = throttled_store(10);
    let registry = Arc::new(Registry::new());
    let tracer = Arc::new(Tracer::new(TracerConfig::propagate_only(64)));
    let crawler = Crawler::with_ops(
        CrawlConfig {
            breaker: Some(BreakerConfig {
                failure_threshold: 5,
                cooldown_rejections: 8,
                half_open_trials: 2,
            }),
            ..base_config()
        },
        Arc::clone(&registry),
        tracer,
        None,
    );
    let snap = crawler.crawl(&targets_with(store.addr(), Some(dead_addr())));

    // Every backfill fails, but nothing is silently dropped: the first
    // five surface as connection errors and open the repository's
    // circuit; the remaining five fast-fail locally.
    assert_eq!(snap.stats.apks_missing, 10);
    let fetch_errors = |kind: &str| {
        registry
            .snapshot()
            .counter_value(
                "marketscope_crawler_fetch_errors_total",
                &[("market", "tencent"), ("kind", kind)],
            )
            .unwrap_or(0)
    };
    assert_eq!(fetch_errors("io"), 5, "failures until the circuit opened");
    assert_eq!(fetch_errors("circuit_open"), 5, "fast-fails after it");
    // The market itself answered every request (429s are definitive),
    // so it is never quarantined for its repository's sins.
    assert_eq!(snap.stats.markets_quarantined, 0);
}

#[test]
fn persistent_apk_failures_quarantine_the_market() {
    // /apk answers 500 forever; no repository to fall back on.
    let store = mock_store(10, |_| Response::status(Status::InternalError));
    let registry = Arc::new(Registry::new());
    let tracer = Arc::new(Tracer::new(TracerConfig::propagate_only(64)));
    let crawler = Crawler::with_ops(
        CrawlConfig {
            retry: None,
            breaker: None,
            quarantine_threshold: 3,
            ..base_config()
        },
        Arc::clone(&registry),
        tracer,
        None,
    );
    let snap = crawler.crawl(&targets_with(store.addr(), None));

    // Three consecutive failures trip the quarantine; the remaining
    // seven listings are deferred, revisited once, and fail again.
    assert_eq!(snap.stats.markets_quarantined, 1);
    assert_eq!(snap.stats.fetches_deferred, 7);
    assert_eq!(snap.stats.revisit_recovered, 0);
    assert_eq!(snap.stats.apks_missing, 10, "deferral never loses listings");
    // (stats.fetch_errors is global and also counts the 16 dead
    // markets' enumeration failures; the per-market counter is exact.)
    assert_eq!(
        registry.snapshot().counter_value(
            "marketscope_crawler_fetch_errors_total",
            &[("market", "tencent"), ("kind", "status")],
        ),
        Some(10)
    );
}

#[test]
fn revisit_pass_recovers_a_market_that_comes_back() {
    // The first three APK fetches fail, then the store recovers: the
    // quarantine trips on the outage, and the revisit pass harvests
    // everything that was deferred.
    let store = mock_store(10, |call| {
        if call < 3 {
            Response::status(Status::InternalError)
        } else {
            Response::ok("application/octet-stream", b"not a real apk".to_vec())
        }
    });
    let crawler = Crawler::new(CrawlConfig {
        retry: None,
        breaker: None,
        quarantine_threshold: 3,
        ..base_config()
    });
    let snap = crawler.crawl(&targets_with(store.addr(), None));

    assert_eq!(snap.stats.markets_quarantined, 1);
    assert_eq!(snap.stats.fetches_deferred, 7);
    assert_eq!(
        snap.stats.revisit_recovered, 7,
        "the deferred listings all came back"
    );
    assert_eq!(
        snap.stats.apks_missing, 3,
        "only the outage window was lost"
    );
}

#[test]
fn a_market_that_heals_opens_and_then_closes_its_circuit() {
    // `/apk` answers its first 22 requests 503 with a 5 ms hint, then
    // 200. The default policy retries a fetch three times within its
    // 250 ms budget; the default breaker opens after 5 terminal failures,
    // fast-fails 8 requests, then admits 2 half-open probes; the market
    // is quarantined after 8 failed fetches in a row. Listing by listing:
    // * #1-#5 take 4 requests each: 20 503s, and the circuit opens;
    // * #6-#8 fast-fail, the eighth failure in a row: quarantine, and
    //   #9-#30 are deferred to the revisit pass;
    // * #9-#13 fast-fail, ending the cooldown;
    // * #14 is the half-open probe: its 503 and its retry's 503 (requests
    //   21 and 22) spend both probe slots, so its second retry is
    //   refused and settles the circuit open again;
    // * #15-#22 fast-fail, ending the second cooldown;
    // * #23 probes the healed store, answers 200 and closes the circuit;
    //   #24-#30 answer 200 too.
    // Every failed fetch is backfilled from the repository.
    const LISTINGS: usize = 30;
    const SICK: u64 = 22;
    let store = mock_store(LISTINGS, |call| {
        if call < SICK {
            Response::status_with_retry_after(
                Status::ServiceUnavailable,
                std::time::Duration::from_millis(5),
            )
        } else {
            Response::ok("application/octet-stream", b"not a real apk".to_vec())
        }
    });
    let repo = HttpServer::spawn(|req: &Request| match req.segments().len() {
        3 => Response::ok("application/octet-stream", b"not a real apk".to_vec()),
        _ => Response::status(Status::NotFound),
    })
    .unwrap();
    let registry = Arc::new(Registry::new());
    let tracer = Arc::new(Tracer::new(TracerConfig::propagate_only(64)));
    let crawler = Crawler::with_ops(
        CrawlConfig {
            breaker: Some(BreakerConfig::default()),
            ..base_config()
        },
        Arc::clone(&registry),
        tracer,
        None,
    );
    let snap = crawler.crawl(&targets_with(store.addr(), Some(repo.addr())));

    let stats = &snap.stats;
    assert_eq!(snap.market(MarketId::TencentMyapp).listings.len(), LISTINGS);
    assert_eq!(
        stats.apks_direct + stats.apks_backfilled + stats.apks_missing,
        LISTINGS as u64,
        "every listing is harvested, backfilled or missing"
    );
    assert_eq!(
        (stats.apks_direct, stats.apks_backfilled, stats.apks_missing),
        (8, 22, 0)
    );
    assert_eq!((stats.markets_quarantined, stats.fetches_deferred), (1, 22));
    let snapshot = registry.snapshot();
    let fetch_errors = |kind: &str| {
        snapshot.counter_value(
            "marketscope_crawler_fetch_errors_total",
            &[("market", "tencent"), ("kind", kind)],
        )
    };
    assert_eq!(fetch_errors("status"), Some(5));
    assert_eq!(fetch_errors("circuit_open"), Some(17), "3 + 5 + 1 + 8");
    let transitions = |to: &str| {
        snapshot
            .counter_value(
                "marketscope_net_client_breaker_transitions_total",
                &[("to", to)],
            )
            .unwrap_or(0)
    };
    // The sixteen dead markets open circuits of their own, which never
    // close; the store's is the one that does.
    assert!(transitions("open") >= 2, "{}", transitions("open"));
    assert_eq!(transitions("closed"), 1);
}
