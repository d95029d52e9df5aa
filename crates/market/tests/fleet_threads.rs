//! The fleet's thread budget: eighteen listeners cost one transport.
//!
//! Its own test binary with a single test, like `reactor_c10k`: the
//! count comes from `/proc/self/status`, which a sibling test spawning
//! servers of its own would move.

use marketscope_core::MarketId;
use marketscope_ecosystem::{generate, Scale, WorldConfig};
use marketscope_market::MarketFleet;
use marketscope_net::reactor::SHARDS;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One request on a raw socket (an `HttpClient` would add its driver
/// thread to the count); returns the status line.
fn round_trip(addr: SocketAddr, path: &str) -> String {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(format!("GET {path} HTTP/1.1\r\nconnection: close\r\n\r\n").as_bytes())
        .unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    out.lines().next().unwrap_or_default().to_owned()
}

#[test]
fn a_fleet_costs_one_transport() {
    let threads = || marketscope_telemetry::perf::thread_count().expect("linux /proc");
    let world = Arc::new(generate(WorldConfig {
        seed: 6,
        scale: Scale { divisor: 60_000 },
    }));
    let transport_threads = (1 + SHARDS) as u64;

    let baseline = threads();
    let fleet = MarketFleet::spawn(Arc::clone(&world)).unwrap();
    let spawned = threads();
    assert_eq!(
        spawned - baseline,
        transport_threads,
        "17 markets and the repository share one transport, and nothing else spawns a thread"
    );

    for m in MarketId::ALL {
        let status = round_trip(fleet.addr(m), "/index");
        assert!(status.starts_with("HTTP/1.1 200"), "{m}: {status}");
    }
    let status = round_trip(fleet.repository_addr(), "/apk/not.held/1");
    assert!(status.starts_with("HTTP/1.1 404"), "repository: {status}");
    assert_eq!(
        threads(),
        spawned,
        "serving every listener grew the process"
    );

    fleet.stop();
    // A joined thread leaves the kernel's count a moment after `join`
    // returns.
    let deadline = Instant::now() + Duration::from_secs(5);
    while threads() != baseline && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(threads(), baseline, "fleet.stop() left threads behind");
    assert!(fleet.total_requests() >= 17);
}
