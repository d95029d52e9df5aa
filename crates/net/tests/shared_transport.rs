//! Two servers on one [`Transport`]: the threads are shared, nothing
//! else is. Each listener keeps its own instruments, its own connection
//! ceiling and its own fault injector, one can be stopped while the
//! other serves on, and a market that stalls holds its own connections —
//! not the shards its neighbour needs.

use marketscope_net::fault::{FaultInjector, FaultPlan};
use marketscope_net::reactor::SHARDS;
use marketscope_net::{
    HttpServer, ReactorConfig, Request, Response, ServerHandle, ServerMetrics, Status, Transport,
};
use marketscope_telemetry::{Registry, RegistrySnapshot};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// `/missing` is a 404, everything else a 200 naming the server.
fn spawn_on(
    transport: &Arc<Transport>,
    registry: &Registry,
    name: &'static str,
    faults: Option<FaultInjector>,
) -> ServerHandle {
    HttpServer::spawn_on(
        transport,
        "127.0.0.1:0",
        move |req: &Request| match req.path.as_str() {
            "/missing" => Response::status(Status::NotFound),
            _ => Response::ok("text/plain", name.as_bytes().to_vec()),
        },
        ServerMetrics::register(registry, &[("market", name)]),
        faults.map(Arc::new),
    )
    .unwrap()
}

/// One keep-alive round trip; returns the status line and the body.
fn round_trip(s: &mut TcpStream, path: &str) -> (String, String) {
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(format!("GET {path} HTTP/1.1\r\n\r\n").as_bytes())
        .unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        if let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&buf[..head_end]).to_string();
            let length: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("content-length: "))
                .map_or(0, |v| v.trim().parse().unwrap());
            if buf.len() >= head_end + 4 + length {
                let body = String::from_utf8_lossy(&buf[head_end + 4..]).to_string();
                return (head.lines().next().unwrap().to_owned(), body);
            }
        }
        match s.read(&mut chunk).unwrap() {
            0 => panic!("peer closed mid-response: {buf:?}"),
            n => buf.extend_from_slice(&chunk[..n]),
        }
    }
}

fn wait_until(cond: impl Fn() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    cond()
}

fn counter(snap: &RegistrySnapshot, name: &str, market: &str, status: Option<&str>) -> u64 {
    let mut labels = vec![("market", market)];
    labels.extend(status.map(|s| ("status", s)));
    snap.counter_value(name, &labels).unwrap_or(0)
}

#[test]
fn each_listener_records_into_its_own_instruments() {
    let transport = Transport::spawn(ReactorConfig::default()).unwrap();
    let registry = Registry::new();
    let a = spawn_on(&transport, &registry, "a", None);
    let b = spawn_on(&transport, &registry, "b", None);

    let mut to_a = TcpStream::connect(a.addr()).unwrap();
    assert_eq!(round_trip(&mut to_a, "/x").1, "a");
    assert_eq!(round_trip(&mut to_a, "/y").1, "a");
    assert!(round_trip(&mut to_a, "/missing").0.contains("404"));
    let mut to_b = TcpStream::connect(b.addr()).unwrap();
    assert_eq!(round_trip(&mut to_b, "/x").1, "b");

    let snap = registry.snapshot();
    let requests = "marketscope_net_requests_total";
    let responses = "marketscope_net_responses_total";
    assert_eq!(counter(&snap, requests, "a", None), 3);
    assert_eq!(counter(&snap, responses, "a", Some("200")), 2);
    assert_eq!(counter(&snap, responses, "a", Some("404")), 1);
    assert_eq!(counter(&snap, requests, "b", None), 1);
    assert_eq!(counter(&snap, responses, "b", Some("200")), 1);
    assert_eq!(counter(&snap, responses, "b", Some("404")), 0);
    assert_eq!((a.request_count(), b.request_count()), (3, 1));

    // Two more sockets on A move A's gauge only.
    let _a2 = TcpStream::connect(a.addr()).unwrap();
    let _a3 = TcpStream::connect(a.addr()).unwrap();
    assert!(wait_until(|| a.live_connections() == 3));
    assert_eq!(b.live_connections(), 1);
    drop(to_b);
    assert!(wait_until(|| b.live_connections() == 0));
    assert_eq!(a.live_connections(), 3);
    transport.stop();
    assert_eq!(a.live_connections(), 0, "transport stop balances A");
}

#[test]
fn a_full_listener_sheds_its_own_connections_only() {
    let transport = Transport::spawn(ReactorConfig {
        max_connections: 2,
        ..ReactorConfig::default()
    })
    .unwrap();
    let registry = Registry::new();
    let a = spawn_on(&transport, &registry, "a", None);
    let b = spawn_on(&transport, &registry, "b", None);

    let _a1 = TcpStream::connect(a.addr()).unwrap();
    let _a2 = TcpStream::connect(a.addr()).unwrap();
    assert!(wait_until(|| a.live_connections() == 2));
    let mut shed = TcpStream::connect(a.addr()).unwrap();
    let mut out = String::new();
    shed.read_to_string(&mut out).unwrap();
    assert!(out.starts_with("HTTP/1.1 503"), "{out}");
    assert!(out.contains("connection: close"), "{out}");

    // A is at its ceiling; B's is its own and still has room.
    let mut to_b = TcpStream::connect(b.addr()).unwrap();
    assert_eq!(round_trip(&mut to_b, "/x").1, "b");
    assert_eq!((a.shed_connections(), b.shed_connections()), (1, 0));
    assert_eq!(a.request_count(), 0, "shed connections never reach A");
    assert_eq!(a.transport_config().max_connections, 2);
}

#[test]
fn stopping_one_listener_leaves_the_other_serving() {
    let transport = Transport::spawn(ReactorConfig::default()).unwrap();
    let registry = Registry::new();
    let a = spawn_on(&transport, &registry, "a", None);
    let b = spawn_on(&transport, &registry, "b", None);
    let mut to_a = TcpStream::connect(a.addr()).unwrap();
    let mut to_b = TcpStream::connect(b.addr()).unwrap();
    assert_eq!(round_trip(&mut to_a, "/x").1, "a");
    assert_eq!(round_trip(&mut to_b, "/x").1, "b");
    let _parked = TcpStream::connect(a.addr()).unwrap();
    assert!(wait_until(|| a.live_connections() == 2));

    a.stop();
    // No waiting: the gauge is balanced when `stop` returns.
    assert_eq!(a.live_connections(), 0);
    a.stop();

    // A's parked connection was dropped, and A answers nobody new.
    let mut rest = Vec::new();
    to_a.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    assert_eq!(to_a.read_to_end(&mut rest).unwrap_or(0), 0);
    if let Ok(mut late) = TcpStream::connect(a.addr()) {
        let _ = late.write_all(b"GET /x HTTP/1.1\r\nconnection: close\r\n\r\n");
        late.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut out = Vec::new();
        let _ = late.read_to_end(&mut out);
        assert!(out.is_empty(), "a stopped listener must not answer");
    }
    assert_eq!(a.request_count(), 1);

    // B still serves, on the connection it had parked and on new ones.
    assert_eq!(round_trip(&mut to_b, "/y").1, "b");
    let mut fresh = TcpStream::connect(b.addr()).unwrap();
    assert_eq!(round_trip(&mut fresh, "/z").1, "b");
    assert_eq!(b.request_count(), 3);
}

#[test]
fn a_stalling_listener_does_not_hold_the_shared_pool() {
    let stalled_clients = SHARDS + 2;
    let transport = Transport::spawn(ReactorConfig::default()).unwrap();
    let registry = Registry::new();
    let stall = FaultPlan {
        stall: 1.0,
        stall_for: Duration::from_millis(200),
        ..FaultPlan::none()
    };
    let a = spawn_on(
        &transport,
        &registry,
        "a",
        Some(FaultInjector::new(1, stall)),
    );
    let b = spawn_on(&transport, &registry, "b", None);
    let mut to_b = TcpStream::connect(b.addr()).unwrap();
    assert_eq!(round_trip(&mut to_b, "/warm").1, "b");

    // More concurrent stalls than the transport has shards: were a stall
    // to occupy a shard, B's request below would queue behind 200 ms of
    // sleeping.
    let sent = Barrier::new(stalled_clients + 1);
    std::thread::scope(|s| {
        let stalled: Vec<_> = (0..stalled_clients)
            .map(|_| {
                s.spawn(|| {
                    let mut to_a = TcpStream::connect(a.addr()).unwrap();
                    let started = Instant::now();
                    to_a.write_all(b"GET /x HTTP/1.1\r\n\r\n").unwrap();
                    sent.wait();
                    let mut first = [0u8; 1];
                    to_a.read_exact(&mut first).unwrap();
                    started.elapsed()
                })
            })
            .collect();
        sent.wait();
        // Every stalled request is on the wire; give the shards a moment
        // to have cut and parked them all.
        assert!(wait_until(|| a
            .fault_injector()
            .is_some_and(|f| f.injected() == stalled_clients as u64)));
        let asked = Instant::now();
        assert_eq!(round_trip(&mut to_b, "/x").1, "b");
        let waited = asked.elapsed();
        assert!(
            waited < Duration::from_millis(100),
            "B waited {waited:?} behind A's stalls"
        );
        for client in stalled {
            let held = client.join().unwrap();
            assert!(
                held >= Duration::from_millis(200),
                "a stalled request came back after only {held:?}"
            );
        }
    });
    assert_eq!(a.request_count(), stalled_clients as u64);
}
