//! Pipelined lanes against raw TCP peers: a lane keeps up to
//! `LANE_DEPTH` requests written ahead on one keep-alive connection, a
//! dead connection charges only its oldest request, a breaker bounds how
//! far the lane writes ahead, and a lane's front is always written.

use marketscope_net::client::{ClientConfig, ClientMetrics, FetchSpec, HttpClient};
use marketscope_net::error::NetError;
use marketscope_net::http::Response;
use marketscope_net::mux::LANE_DEPTH;
use marketscope_net::resilience::{BreakerConfig, RetryPolicy};
use marketscope_telemetry::Registry;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// A raw peer's side of one connection: the complete requests it holds
/// and has not answered, oldest first, by path.
struct Peer {
    stream: TcpStream,
    buf: Vec<u8>,
    held: VecDeque<String>,
}

impl Peer {
    fn new(stream: TcpStream) -> Peer {
        Peer {
            stream,
            buf: Vec::new(),
            held: VecDeque::new(),
        }
    }

    /// One read; `false` once the client closed or the read timed out.
    fn read_more(&mut self) -> bool {
        let mut chunk = [0u8; 4096];
        let n = match self.stream.read(&mut chunk) {
            Ok(0) | Err(_) => return false,
            Ok(n) => n,
        };
        self.buf.extend_from_slice(&chunk[..n]);
        // A GET is a head with no body.
        while let Some(end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head: Vec<u8> = self.buf.drain(..end + 4).collect();
            let line = String::from_utf8_lossy(&head);
            let path = line.split_whitespace().nth(1).unwrap_or_default();
            self.held.push_back(path.to_owned());
        }
        true
    }

    /// Answer the oldest held request: 200 with its path as the body, or
    /// an empty 503.
    fn answer(&mut self, ok: bool) -> String {
        let path = self.held.pop_front().expect("a held request");
        let resp = if ok {
            format!(
                "HTTP/1.1 200 OK\r\ncontent-length: {}\r\n\r\n{path}",
                path.len()
            )
        } else {
            "HTTP/1.1 503 Service Unavailable\r\ncontent-length: 0\r\n\r\n".to_owned()
        };
        self.stream.write_all(resp.as_bytes()).unwrap();
        path
    }
}

fn listen() -> (TcpListener, SocketAddr) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    (listener, addr)
}

/// Submit `/item/0..n` on one lane and wait for each in order.
fn lane_of(client: &HttpClient, addr: SocketAddr, n: usize) -> Vec<Result<Response, NetError>> {
    let answers: Vec<_> = (0..n)
        .map(|i| submit(client, FetchSpec::new(addr, format!("/item/{i}")).lane(1)))
        .collect();
    answers.into_iter().map(|rx| rx.recv().unwrap()).collect()
}

/// Submit `spec`; its answer arrives on the returned channel.
fn submit(client: &HttpClient, spec: FetchSpec) -> mpsc::Receiver<Result<Response, NetError>> {
    let (tx, rx) = mpsc::channel();
    client.submit(&spec, move |r| {
        let _ = tx.send(r);
    });
    rx
}

fn bodies(results: Vec<Result<Response, NetError>>) -> Vec<String> {
    results
        .into_iter()
        .map(|r| String::from_utf8(r.unwrap().body).unwrap())
        .collect()
}

fn items(range: std::ops::Range<usize>) -> Vec<String> {
    range.map(|i| format!("/item/{i}")).collect()
}

#[test]
fn a_lane_writes_four_ahead_on_one_connection() {
    const N: usize = 10;
    let (listener, addr) = listen();
    // Answers nothing until it holds four requests (or all that are
    // left): a lane that waits for each answer before writing the next
    // request never gets one.
    let peer = thread::spawn(move || {
        let mut peer = Peer::new(listener.accept().unwrap().0);
        let (mut answered, mut most) = (0, 0);
        while answered < N {
            assert!(peer.read_more(), "the client hung up");
            most = most.max(peer.held.len());
            if peer.held.len() >= LANE_DEPTH.min(N - answered) {
                while !peer.held.is_empty() {
                    peer.answer(true);
                    answered += 1;
                }
            }
        }
        most
    });
    let client = HttpClient::builder()
        .config(ClientConfig {
            io_timeout: Duration::from_secs(2),
            ..ClientConfig::default()
        })
        .build();
    assert_eq!(bodies(lane_of(&client, addr, N)), items(0..N));
    assert_eq!(
        peer.join().unwrap(),
        LANE_DEPTH,
        "most requests held at once"
    );
}

#[test]
fn a_dead_connection_charges_only_its_oldest_request() {
    const N: usize = 10;
    let (listener, addr) = listen();
    let peer = thread::spawn(move || {
        // First connection: answer request 0, wait for 1-3 (at most a
        // second), then hang up on them unanswered.
        let mut first = Peer::new(listener.accept().unwrap().0);
        while first.held.is_empty() {
            assert!(first.read_more());
        }
        assert_eq!(first.answer(true), "/item/0");
        let until = Instant::now() + Duration::from_secs(1);
        first
            .stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        while first.held.len() < 3 && Instant::now() < until {
            first.read_more();
        }
        drop(first);
        // Second connection: answer everything, in arrival order.
        let mut second = Peer::new(listener.accept().unwrap().0);
        let mut seen = Vec::new();
        while seen.len() < N - 1 {
            assert!(second.read_more(), "the client hung up");
            while !second.held.is_empty() {
                seen.push(second.answer(true));
            }
        }
        seen
    });
    let registry = Registry::new();
    let client = HttpClient::builder()
        .config(ClientConfig {
            retries: 1,
            ..ClientConfig::default()
        })
        .metrics(ClientMetrics::register(&registry, &[]))
        .build();
    assert_eq!(bodies(lane_of(&client, addr, N)), items(0..N));
    assert_eq!(peer.join().unwrap(), items(1..N), "the second connection");
    assert_eq!(
        registry
            .snapshot()
            .counter_value("marketscope_net_client_retries_total", &[]),
        Some(1),
        "only the oldest unanswered request is retried"
    );
}

/// A peer that answers 503 to everything on every connection it
/// accepts, counting what it receives and the most requests it held
/// unanswered at once.
fn failing_peer() -> (SocketAddr, Arc<Mutex<(usize, usize)>>) {
    let (listener, addr) = listen();
    let seen = Arc::new(Mutex::new((0, 0)));
    let counts = Arc::clone(&seen);
    thread::spawn(move || {
        for stream in listener.incoming() {
            let counts = Arc::clone(&counts);
            thread::spawn(move || {
                let mut peer = Peer::new(stream.unwrap());
                while peer.read_more() {
                    let mut counts = counts.lock().unwrap();
                    counts.1 = counts.1.max(peer.held.len());
                    // Counted before the answer, which may be the last
                    // one the client waits for.
                    while !peer.held.is_empty() {
                        counts.0 += 1;
                        peer.answer(false);
                    }
                }
            });
        }
    });
    (addr, seen)
}

fn fingerprint(result: Result<Response, NetError>) -> String {
    match result {
        Ok(resp) => format!("ok:{}", resp.status.code()),
        Err(NetError::Status { code, .. }) => format!("status:{code}"),
        Err(e) => format!("err:{}", e.kind()),
    }
}

#[test]
fn a_breaker_bounds_how_far_a_lane_writes_ahead() {
    const N: usize = 12;
    let client = || {
        HttpClient::builder()
            .breaker(BreakerConfig {
                failure_threshold: 2,
                cooldown_rejections: 3,
                half_open_trials: 1,
            })
            .build()
    };
    let (addr, blocking_seen) = failing_peer();
    let c = client();
    let blocking: Vec<String> = (0..N)
        .map(|i| fingerprint(c.get(addr, &format!("/item/{i}"))))
        .collect();

    let (addr, lane_seen) = failing_peer();
    let lane: Vec<String> = lane_of(&client(), addr, N)
        .into_iter()
        .map(fingerprint)
        .collect();

    assert_eq!(lane, blocking);
    assert!(lane.contains(&"err:circuit_open".to_owned()), "{lane:?}");
    let (blocking_seen, lane_seen) = (*blocking_seen.lock().unwrap(), *lane_seen.lock().unwrap());
    assert_eq!(lane_seen.0, blocking_seen.0, "requests the peer received");
    assert!(lane_seen.1 <= 2, "held {} at once", lane_seen.1);
}

#[test]
fn a_parked_front_is_written_after_another_lane_tightens_the_breaker() {
    let (listener, addr) = listen();
    let (answered, followers_held) = std::sync::mpsc::channel();
    // Lane 1's first `/a/0` gets a 503 hinting 0.3 s, every other
    // `/a/...` a 200. Lane 2's `/b/...` get 503s hinting 5 s, past the
    // retry budget, so they are terminal. One thread per connection.
    thread::spawn(move || {
        let first_front = Arc::new(Mutex::new(true));
        for stream in listener.incoming() {
            let (first_front, answered) = (Arc::clone(&first_front), answered.clone());
            thread::spawn(move || {
                let mut peer = Peer::new(stream.unwrap());
                while peer.read_more() {
                    while let Some(path) = peer.held.front().cloned() {
                        if path.starts_with("/b/") {
                            peer.held.pop_front();
                            let resp = "HTTP/1.1 503 Service Unavailable\r\n\
                                        retry-after: 5\r\ncontent-length: 0\r\n\r\n";
                            peer.stream.write_all(resp.as_bytes()).unwrap();
                        } else if path == "/a/0"
                            && std::mem::take(&mut *first_front.lock().unwrap())
                        {
                            peer.held.pop_front();
                            let resp = "HTTP/1.1 503 Service Unavailable\r\n\
                                        retry-after: 0.3\r\ncontent-length: 0\r\n\r\n";
                            peer.stream.write_all(resp.as_bytes()).unwrap();
                        } else {
                            peer.answer(true);
                            let _ = answered.send(path);
                        }
                    }
                }
            });
        }
    });
    let client = Arc::new(
        HttpClient::builder()
            .retry(RetryPolicy {
                backoff_budget: Duration::from_secs(1),
            })
            .breaker(BreakerConfig::default())
            .build(),
    );
    let lane_a: Vec<_> = (0..6)
        .map(|i| submit(&client, FetchSpec::new(addr, format!("/a/{i}")).lane(1)))
        .collect();
    // `/a/0` is parked with `/a/1..=3` answered behind it: three held
    // outcomes against the default breaker's room of five.
    for _ in 1..=3 {
        followers_held
            .recv_timeout(Duration::from_secs(5))
            .expect("lane 1's followers answered");
    }
    // Two terminal 503s on lane 2 leave room for three before `/a/0`
    // comes back: no more than lane 1 already holds.
    for i in 0..2 {
        let got = client.get(addr, &format!("/b/{i}"));
        assert!(
            matches!(got, Err(NetError::Status { code: 503, .. })),
            "{got:?}"
        );
    }
    let (done, finished) = std::sync::mpsc::channel();
    thread::spawn(move || {
        let results: Vec<_> = lane_a.into_iter().map(|rx| rx.recv().unwrap()).collect();
        let _ = done.send(results);
    });
    let results = finished
        .recv_timeout(Duration::from_secs(10))
        .expect("lane 1 completes");
    assert_eq!(
        bodies(results),
        (0..6).map(|i| format!("/a/{i}")).collect::<Vec<_>>()
    );
}
