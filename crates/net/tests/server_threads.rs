//! Who owns a server's threads: its transport, whose threads are joined
//! when the last reference to it drops. A standalone server's handle
//! holds its transport's only reference; a server on a shared transport
//! holds one more.
//!
//! Its own test binary with a single test, like `fleet_threads`: the
//! count comes from `/proc/self/status`, which a sibling test spawning
//! servers of its own would move.

use marketscope_net::reactor::SHARDS;
use marketscope_net::{HttpServer, ReactorConfig, Request, Response, ServerMetrics, Transport};
use std::time::{Duration, Instant};

fn threads() -> u64 {
    marketscope_telemetry::perf::thread_count().expect("linux /proc")
}

/// Wait for the count to reach `want`: a joined thread leaves the
/// kernel's count a moment after `join` returns.
fn settles_at(want: u64) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    while threads() != want && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    threads() == want
}

fn ok(_req: &Request) -> Response {
    Response::ok("text/plain", b"ok".to_vec())
}

#[test]
fn a_handle_holds_its_transport_and_the_last_one_joins_it() {
    let transport_threads = (1 + SHARDS) as u64;
    let baseline = threads();

    let standalone = HttpServer::spawn(ok).unwrap();
    let with_standalone = threads();
    assert_eq!(
        with_standalone - baseline,
        transport_threads,
        "a standalone server costs exactly one transport"
    );

    let transport = Transport::spawn(ReactorConfig::default()).unwrap();
    let with_shared = threads();
    assert_eq!(with_shared - with_standalone, transport_threads);
    let on_shared = HttpServer::spawn_on(
        &transport,
        "127.0.0.1:0",
        ok,
        ServerMetrics::standalone(),
        None,
    )
    .unwrap();
    assert_eq!(
        threads(),
        with_shared,
        "a listener on an existing transport adds no thread"
    );

    // The handle's reference keeps the transport running.
    drop(transport);
    assert_eq!(threads(), with_shared);
    drop(on_shared);
    assert!(
        settles_at(with_standalone),
        "dropping the last handle left {} threads, want {with_standalone}",
        threads()
    );

    drop(standalone);
    assert!(
        settles_at(baseline),
        "dropping the standalone handle left {} threads, want {baseline}",
        threads()
    );
}
