//! Resilience overhead guard: with a retry policy and breaker attached
//! but nothing failing, the per-request cost of the resilience hooks
//! must stay under 5% of a loopback round trip.
//!
//! Same shape as `trace_overhead.rs`: a direct A/B wall-clock race of
//! two clients is too noisy for CI, so measure the median round trip
//! through the fully-equipped stack, measure the actual per-request
//! cost of the success-path hooks (breaker lookup + admit + success
//! vote + the retry loop's key hash) amortized over many iterations,
//! and require hooks < 5% of the round trip. A second check pins the
//! absolute behaviour: against a healthy server, every resilience
//! instrument stays at zero.

use marketscope_core::hash::fnv1a64;
use marketscope_net::client::HttpClient;
use marketscope_net::http::{Request, Response};
use marketscope_net::resilience::{BreakerConfig, BreakerSet, ResilienceMetrics, RetryPolicy};
use marketscope_net::server::HttpServer;
use marketscope_telemetry::Registry;
use std::hint::black_box;
use std::time::Instant;

#[test]
fn idle_resilience_overhead_is_under_5_percent() {
    let server =
        HttpServer::spawn(|_req: &Request| Response::ok("text/plain", b"ok".to_vec())).unwrap();
    let registry = Registry::new();
    let client = HttpClient::builder()
        .retry(RetryPolicy::default())
        .breaker(BreakerConfig::default())
        .resilience_metrics(ResilienceMetrics::register(&registry, &[]))
        .build();

    // Median of real round trips through the resilient stack (warmed).
    for _ in 0..20 {
        client.get(server.addr(), "/x").unwrap();
    }
    let mut samples: Vec<u64> = (0..200)
        .map(|_| {
            let t = Instant::now();
            client.get(server.addr(), "/x").unwrap();
            t.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    let median_round_trip = samples[samples.len() / 2];

    // Actual per-request cost of the success-path hooks, amortized:
    // per-host breaker lookup, admission check, success vote, and the
    // retry loop's request-key hash. (The backoff machinery itself only
    // runs after a failure, which this guard by construction never has.)
    let set = BreakerSet::new(
        BreakerConfig::default(),
        ResilienceMetrics::register(&Registry::new(), &[]),
    );
    let addr = server.addr();
    let iters = 100_000u32;
    let t = Instant::now();
    for _ in 0..iters {
        let breaker = set.for_host(addr);
        black_box(breaker.admit());
        breaker.on_success();
        black_box(fnv1a64(b"/x"));
    }
    let per_request = t.elapsed().as_nanos() as u64 / iters as u64;

    // Unlike the tracing guard (which multiplies one hook by its site
    // count), this loop already measures the complete per-request hook
    // bundle, so it is the overhead.
    let overhead = per_request.max(1);
    let budget = median_round_trip / 20; // 5%
    assert!(
        overhead < budget,
        "idle resilience overhead {overhead}ns exceeds 5% of \
         median round trip {median_round_trip}ns"
    );

    // And with a healthy server, every instrument stayed at zero: no
    // retries, no sleeps, no fast-fails, no breaker transitions.
    let snap = registry.snapshot();
    for counter in [
        "marketscope_net_client_resilient_retries_total",
        "marketscope_net_client_backoff_nanos_total",
        "marketscope_net_client_fast_fails_total",
    ] {
        assert_eq!(
            snap.counter_value(counter, &[]).unwrap_or(0),
            0,
            "{counter}"
        );
    }
    for to in ["open", "half_open", "closed"] {
        assert_eq!(
            snap.counter_value(
                "marketscope_net_client_breaker_transitions_total",
                &[("to", to)]
            )
            .unwrap_or(0),
            0
        );
    }
    assert_eq!(
        snap.gauge_value("marketscope_net_client_open_circuits", &[]),
        Some(0)
    );
}
