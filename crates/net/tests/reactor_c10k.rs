//! The C10k acceptance test for the event-loop transport: one server,
//! thousands of parked keep-alive connections, a constant thread count.
//!
//! The blocking transport this reactor replaced spent one OS thread per
//! open connection, so a fleet-scale monitor holding thousands of
//! keep-alive sockets was structurally impossible. Here we prove the
//! replacement claim end to end: open 2,048 connections against a single
//! server, round-trip one request on each, hold them all open, and read
//! the process thread count from `/proc/self/status` — it must not have
//! grown past the fixed transport complement (acceptor + shards) sized
//! at spawn.

use marketscope_net::reactor::SHARDS;
use marketscope_net::{HttpServer, Request, Response};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Connections to park (the acceptance bar is >= 2,000).
const HELD: usize = 2_048;

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
fn two_thousand_keep_alive_connections_on_a_fixed_thread_count() {
    let threads = || marketscope_telemetry::perf::thread_count().expect("linux /proc");
    let transport_threads = (1 + SHARDS) as u64;

    let before_spawn = threads();
    let server =
        HttpServer::spawn(|_req: &Request| Response::ok("text/plain", b"ok".to_vec())).unwrap();
    let after_spawn = threads();
    assert_eq!(
        after_spawn - before_spawn,
        transport_threads,
        "spawn must cost exactly the fixed transport complement"
    );

    // Phase 1: connect everything. Phase 2: write one keep-alive request
    // per connection. Phase 3: drain the responses. Writing before
    // reading lets the round trips overlap inside the reactor instead of
    // serializing 2,048 times client-side.
    let addr: SocketAddr = server.addr();
    let mut socks: Vec<TcpStream> = (0..HELD)
        .map(|i| TcpStream::connect(addr).unwrap_or_else(|e| panic!("connect #{i} failed: {e}")))
        .collect();
    for s in &mut socks {
        s.write_all(b"GET /ping HTTP/1.1\r\nconnection: keep-alive\r\n\r\n")
            .unwrap();
    }
    for s in &mut socks {
        let status = read_response(s);
        assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    }

    // Everything is parked and adopted; the server holds all of them.
    assert!(
        wait_until(|| server.live_connections() == HELD as u64),
        "live gauge stuck at {} (want {HELD})",
        server.live_connections()
    );
    assert_eq!(server.request_count(), HELD as u64);
    assert_eq!(server.shed_connections(), 0, "ceiling must not engage");

    // The C10k claim itself: holding 2,048 connections costs zero
    // additional threads over the idle server.
    let while_held = threads();
    assert_eq!(
        while_held, after_spawn,
        "thread count grew while holding {HELD} connections"
    );

    // The parked mass must not starve new traffic: a fresh connection
    // still gets served promptly.
    let mut fresh = TcpStream::connect(addr).unwrap();
    fresh
        .write_all(b"GET /ping HTTP/1.1\r\nconnection: close\r\n\r\n")
        .unwrap();
    assert!(read_response(&mut fresh).starts_with("HTTP/1.1 200"));
    drop(fresh);

    // Release the herd; the live gauge must return to balance.
    drop(socks);
    assert!(
        wait_until(|| server.live_connections() == 0),
        "live gauge leaked: {}",
        server.live_connections()
    );
    server.stop();
}
