//! End-to-end fault injection: real servers behind a [`FaultInjector`],
//! exercised over loopback by a real client. The unit tests in
//! `fault.rs` pin the decision logic; these pin what a *caller* sees on
//! the wire for each fault kind, and that the client's resilience layer
//! rides out the survivable ones.

use marketscope_net::client::{ClientConfig, HttpClient};
use marketscope_net::error::NetError;
use marketscope_net::fault::{FaultInjector, FaultPlan};
use marketscope_net::http::{Request, Response, Status};
use marketscope_net::reactor::{ReactorConfig, Transport};
use marketscope_net::resilience::{BreakerConfig, ResilienceMetrics, RetryPolicy};
use marketscope_net::server::{Handler, HttpServer, ServerHandle, ServerMetrics};
use marketscope_telemetry::Registry;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn ping_router() -> impl Handler {
    |req: &Request| match req.path.as_str() {
        "/ping" => Response::ok("text/plain", b"pong".to_vec()),
        "/__health" => Response::ok("text/plain", b"ok".to_vec()),
        _ => Response::status(Status::NotFound),
    }
}

fn faulty_server(seed: u64, plan: FaultPlan) -> ServerHandle {
    HttpServer::spawn_on(
        &Transport::spawn(ReactorConfig::default()).unwrap(),
        "127.0.0.1:0",
        ping_router(),
        ServerMetrics::standalone(),
        Some(Arc::new(FaultInjector::new(seed, plan))),
    )
    .unwrap()
}

/// A client with no safety nets: one attempt per request, no policy, no
/// breaker — it sees faults exactly as injected.
fn bare_client() -> HttpClient {
    HttpClient::builder()
        .config(ClientConfig {
            retries: 0,
            ..ClientConfig::default()
        })
        .build()
}

#[test]
fn injected_5xx_surfaces_with_status_and_hint() {
    let server = faulty_server(
        1,
        FaultPlan {
            error_5xx: 1.0,
            error_retry_after: Some(Duration::from_millis(25)),
            ..FaultPlan::none()
        },
    );
    let client = bare_client();
    for _ in 0..3 {
        match client.get(server.addr(), "/ping") {
            Err(NetError::Status { code, retry_after }) => {
                assert_eq!(code, 503);
                assert_eq!(retry_after, Some(Duration::from_millis(25)));
            }
            other => panic!("expected injected 503, got {other:?}"),
        }
    }
    assert_eq!(server.fault_injector().unwrap().injected(), 3);
}

#[test]
fn resets_and_truncations_surface_as_transient_errors() {
    let reset = faulty_server(
        2,
        FaultPlan {
            reset: 1.0,
            ..FaultPlan::none()
        },
    );
    let client = bare_client();
    let err = client.get(reset.addr(), "/ping").unwrap_err();
    assert!(err.is_transient(), "reset should look transient: {err:?}");

    let truncate = faulty_server(
        3,
        FaultPlan {
            truncate: 1.0,
            ..FaultPlan::none()
        },
    );
    // The head declares the full length but the body is cut short, so
    // the failure lands mid-read, not at connect time.
    let err = client.get(truncate.addr(), "/ping").unwrap_err();
    assert!(
        err.is_transient(),
        "truncation should look transient: {err:?}"
    );
}

#[test]
fn stalls_delay_the_response_but_serve_it_intact() {
    let server = faulty_server(
        4,
        FaultPlan {
            stall: 1.0,
            stall_for: Duration::from_millis(30),
            ..FaultPlan::none()
        },
    );
    let client = bare_client();
    let t = Instant::now();
    let resp = client.get(server.addr(), "/ping").unwrap();
    assert!(t.elapsed() >= Duration::from_millis(30));
    assert_eq!(resp.body, b"pong");
}

#[test]
fn downtime_windows_flap_with_the_declared_shape_over_the_wire() {
    let server = faulty_server(
        5,
        FaultPlan {
            downtime_every: 4,
            downtime_len: 2,
            ..FaultPlan::none()
        },
    );
    let client = bare_client();
    let outcomes: Vec<bool> = (0..8)
        .map(|_| client.get(server.addr(), "/ping").is_ok())
        .collect();
    assert_eq!(
        outcomes,
        [false, false, true, true, false, false, true, true],
        "window shape must be requests 0,1 dark then 2,3 served, repeating"
    );
}

#[test]
fn ops_paths_stay_reachable_under_total_chaos() {
    let server = faulty_server(
        6,
        FaultPlan {
            reset: 1.0,
            ..FaultPlan::none()
        },
    );
    let client = bare_client();
    // Real traffic dies every time...
    assert!(client.get(server.addr(), "/ping").is_err());
    // ...but the observer endpoints are exempt.
    for _ in 0..4 {
        let resp = client.get(server.addr(), "/__health").unwrap();
        assert_eq!(resp.body, b"ok");
    }
}

#[test]
fn retry_policy_rides_out_flapping_downtime() {
    let server = faulty_server(
        7,
        FaultPlan {
            downtime_every: 8,
            downtime_len: 1,
            ..FaultPlan::none()
        },
    );
    let registry = Registry::new();
    let client = HttpClient::builder()
        .config(ClientConfig {
            retries: 0,
            ..ClientConfig::default()
        })
        .retry(RetryPolicy::default())
        .resilience_metrics(ResilienceMetrics::register(&registry, &[]))
        .build();
    // Every 8th request lands in a one-request window; the policy's
    // backoff-and-retry absorbs each hit invisibly.
    for i in 0..24 {
        assert!(
            client.get(server.addr(), "/ping").is_ok(),
            "request {i} should have been retried through the window"
        );
    }
    let snap = registry.snapshot();
    let retries = snap
        .counter_value("marketscope_net_client_resilient_retries_total", &[])
        .unwrap_or(0);
    assert!(
        retries >= 3,
        "downtime hits must show up as retries: {retries}"
    );
}

#[test]
fn breaker_fast_fails_against_a_market_that_stays_dark() {
    let server = faulty_server(
        8,
        FaultPlan {
            // One giant window: the market never comes back.
            downtime_every: 1_000_000,
            downtime_len: 1_000_000,
            ..FaultPlan::none()
        },
    );
    let client = HttpClient::builder()
        .config(ClientConfig {
            retries: 0,
            ..ClientConfig::default()
        })
        .breaker(BreakerConfig {
            failure_threshold: 3,
            cooldown_rejections: 100,
            half_open_trials: 1,
        })
        .build();
    for _ in 0..3 {
        let err = client.get(server.addr(), "/ping").unwrap_err();
        assert!(err.is_transient());
    }
    // The circuit is open: the next requests never touch the wire.
    let served_before = server.request_count();
    for _ in 0..4 {
        assert!(matches!(
            client.get(server.addr(), "/ping"),
            Err(NetError::CircuitOpen)
        ));
    }
    assert_eq!(server.request_count(), served_before);
}
