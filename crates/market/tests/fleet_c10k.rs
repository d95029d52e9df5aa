//! C10k on the fleet: 2,048 keep-alive connections parked on one market
//! of a `MarketFleet` cost no thread and starve no other listener.
//!
//! `net/tests/reactor_c10k.rs` proves the claim for a standalone server.
//! A fleet is eighteen listeners on one transport, so here the parked
//! connections share the acceptor, the shards and the handler pool with
//! sixteen other markets and the repository, each of which must still
//! answer while they are held.
//!
//! Its own test binary with a single test, like `fleet_threads`: the
//! count comes from `/proc/self/status`, which a sibling test spawning
//! servers of its own would move.

use marketscope_core::MarketId;
use marketscope_ecosystem::{generate, Scale, WorldConfig};
use marketscope_market::MarketFleet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Connections to park (the acceptance bar is >= 2,000).
const HELD: usize = 2_048;

/// The market that holds them: the paper's largest Chinese store.
const HELD_ON: MarketId = MarketId::TencentMyapp;

/// Drain exactly one HTTP response (headers + `content-length` body)
/// from `s`, returning the status line.
fn read_response(s: &mut TcpStream) -> String {
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&buf[..pos]).to_string();
            let body_len: usize = head
                .lines()
                .find_map(|l| {
                    let (name, value) = l.split_once(':')?;
                    name.trim()
                        .eq_ignore_ascii_case("content-length")
                        .then(|| value.trim().parse().ok())?
                })
                .unwrap_or(0);
            if buf.len() >= pos + 4 + body_len {
                return head.lines().next().unwrap_or_default().to_owned();
            }
        }
        match s.read(&mut chunk) {
            Ok(0) => panic!("peer closed mid-response: {buf:?}"),
            Ok(k) => buf.extend_from_slice(&chunk[..k]),
            Err(e) => panic!("read failed: {e}"),
        }
    }
}

/// One request on a fresh raw socket (an `HttpClient` would add its
/// driver thread to the count); returns the status line.
fn round_trip(addr: SocketAddr, path: &str) -> String {
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(format!("GET {path} HTTP/1.1\r\nconnection: close\r\n\r\n").as_bytes())
        .unwrap();
    read_response(&mut s)
}

fn wait_until(mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

#[test]
fn two_thousand_connections_parked_on_one_market_of_a_fleet() {
    let threads = || marketscope_telemetry::perf::thread_count().expect("linux /proc");
    let world = Arc::new(generate(WorldConfig {
        seed: 10,
        scale: Scale { divisor: 60_000 },
        ..WorldConfig::default()
    }));
    let fleet = MarketFleet::spawn(world).unwrap();
    let labels = [("market", HELD_ON.slug())];
    let live = || {
        fleet
            .registry()
            .snapshot()
            .gauge_value("marketscope_net_live_connections", &labels)
    };
    let spawned = threads();

    // Connect everything, then write one keep-alive `/__health` request
    // per connection, then drain: the round trips overlap inside the
    // transport instead of serializing client-side.
    let addr = fleet.addr(HELD_ON);
    let mut socks: Vec<TcpStream> = (0..HELD)
        .map(|i| TcpStream::connect(addr).unwrap_or_else(|e| panic!("connect #{i} failed: {e}")))
        .collect();
    for s in &mut socks {
        s.write_all(b"GET /__health HTTP/1.1\r\nconnection: keep-alive\r\n\r\n")
            .unwrap();
    }
    for s in &mut socks {
        let status = read_response(s);
        assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    }

    assert!(
        wait_until(|| live() == Some(HELD as i64)),
        "{HELD_ON} live gauge stuck at {:?} (want {HELD})",
        live()
    );
    assert_eq!(
        fleet
            .registry()
            .snapshot()
            .counter_value("marketscope_net_connections_shed_total", &labels),
        Some(0),
        "the connection ceiling must not engage"
    );
    assert_eq!(
        threads(),
        spawned,
        "thread count grew while holding {HELD} connections"
    );

    // The parked mass shares the transport with every other listener;
    // none of them may be starved.
    for m in MarketId::ALL.into_iter().filter(|m| *m != HELD_ON) {
        let status = round_trip(fleet.addr(m), "/__health");
        assert!(status.starts_with("HTTP/1.1 200"), "{m}: {status}");
    }
    let status = round_trip(fleet.repository_addr(), "/apk/not.held/1");
    assert!(status.starts_with("HTTP/1.1 404"), "repository: {status}");
    assert_eq!(
        threads(),
        spawned,
        "serving the other listeners grew the process"
    );

    drop(socks);
    assert!(
        wait_until(|| live() == Some(0)),
        "{HELD_ON} live gauge leaked: {:?}",
        live()
    );
    fleet.stop();
}
