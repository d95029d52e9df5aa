//! Ops-plane overhead guard: the structured event log must cost under
//! 5% of a loopback request round trip, amortized over the traffic a
//! request actually generates.
//!
//! Same robust structure as `trace_overhead.rs`: measure the median
//! round trip through a logged server, measure the actual amortized
//! cost of one `EventLog::record` over many iterations, and require it
//! to fit the 5% budget. The series store has no thread of its own and
//! ticks only at a campaign's phase marks, so it costs a request
//! nothing. The steady-state claim is pinned separately:
//! serving requests writes *nothing* to the event log — only incidents
//! (shed, accept errors, faults, alerts) record events.

use marketscope_net::client::HttpClient;
use marketscope_net::http::{Request, Response};
use marketscope_net::reactor::{ReactorConfig, Transport};
use marketscope_net::server::{HttpServer, ServerMetrics};
use marketscope_telemetry::{EventLog, LogLevel, Registry};
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

    let record_share = per_record.max(1) as f64 / median_round_trip.max(1) as f64;
    assert!(
        record_share < 0.05,
        "ops-plane overhead {:.2}% (log record {per_record}ns of median \
         round trip {median_round_trip}ns) exceeds the 5% budget",
        record_share * 100.0,
    );
}
