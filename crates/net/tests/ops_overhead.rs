//! Ops-plane overhead guard: the structured event log and the series
//! scraper together must cost under 5% of a loopback request round
//! trip, amortized over the traffic a request actually generates.
//!
//! Same robust structure as `trace_overhead.rs`: measure the median
//! round trip through a logged server, measure the actual amortized
//! cost of the ops primitives (one `EventLog::record` and one scrape
//! tick's per-request share) over many iterations, and require the sum
//! to fit the 5% budget. The steady-state claim is pinned separately:
//! serving requests writes *nothing* to the event log — only incidents
//! (shed, accept errors, faults, alerts) record events.

use marketscope_net::client::HttpClient;
use marketscope_net::http::{Request, Response};
use marketscope_net::reactor::{ReactorConfig, Transport};
use marketscope_net::server::{HttpServer, ServerMetrics};
use marketscope_telemetry::{EventLog, LogLevel, Registry, SeriesStore};
use std::sync::Arc;
use std::time::Instant;

#[test]
fn ops_plane_overhead_is_under_5_percent() {
    let registry = Arc::new(Registry::new());
    let log = Arc::new(EventLog::new(4096));
    let server = HttpServer::spawn_on(
        &Transport::spawn(ReactorConfig::default()).unwrap(),
        "127.0.0.1:0",
        |_req: &Request| Response::ok("text/plain", b"ok".to_vec()),
        ServerMetrics::register(&registry, &[("market", "bench")]).logged(Arc::clone(&log)),
        None,
    )
    .unwrap();
    let client = HttpClient::new();

    // Median of real round trips through the logged stack (warmed).
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

    // Serving clean traffic recorded no events: the log is incident-only,
    // so its steady-state per-request cost is zero by construction.
    assert_eq!(log.recorded(), 0, "clean requests must not emit events");

    // Worst-case per-event cost, amortized: even if every request DID
    // record an event (no request does), one record must fit the budget.
    let iters = 50_000u32;
    let t = Instant::now();
    for _ in 0..iters {
        log.record(
            LogLevel::Warn,
            "bench",
            "synthetic incident",
            &[("market", "bench"), ("detail", "x")],
        );
    }
    let per_record = t.elapsed().as_nanos() as u64 / iters as u64;

    // Scraper cost: one tick snapshots the registry and diffs it into
    // the rings. Pad the registry to fleet-like cardinality (17 markets
    // x a dozen instruments) so the tick cost is measured against a
    // realistic snapshot. The scraper runs on its own thread at a fixed
    // cadence, so its honest cost is CPU duty cycle — tick cost over
    // the 100ms tick interval — not a per-request latency share.
    for m in 0..17 {
        let market = format!("market{m}");
        let labels = [("market", market.as_str())];
        for status in ["200", "404", "429", "500", "503"] {
            registry
                .counter(
                    "bench_responses_total",
                    &[("market", market.as_str()), ("status", status)],
                )
                .inc();
        }
        registry.counter("bench_requests_total", &labels).inc();
        registry.gauge("bench_open_connections", &labels).set(3);
        for v in [1_000u64, 50_000, 2_000_000] {
            registry.histogram("bench_handler_nanos", &labels).record(v);
        }
    }
    let mut store = SeriesStore::new(600);
    store.observe(&registry.snapshot()); // prime `last`
    let ticks = 200u32;
    let t = Instant::now();
    for _ in 0..ticks {
        store.observe(&registry.snapshot());
    }
    let per_tick = t.elapsed().as_nanos() as u64 / ticks as u64;

    // The two components meet the <5% bar on their own axes, and their
    // combined relative overhead stays under 5% too.
    let tick_interval = 100_000_000u64; // the fleet's 100ms cadence
    let record_share = per_record.max(1) as f64 / median_round_trip.max(1) as f64;
    let scrape_duty = per_tick as f64 / tick_interval as f64;
    let combined = record_share + scrape_duty;
    assert!(
        combined < 0.05,
        "ops-plane overhead {:.2}% (log record {per_record}ns = {:.2}% of median \
         round trip {median_round_trip}ns; scrape tick {per_tick}ns = {:.2}% CPU \
         duty at 100ms cadence) exceeds the 5% budget",
        combined * 100.0,
        record_share * 100.0,
        scrape_duty * 100.0,
    );
}
