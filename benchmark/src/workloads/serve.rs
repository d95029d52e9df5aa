//! `serve_meta` and `serve_apk`: closed-loop clients on raw loopback
//! sockets against a running fleet. A crawler waits for its replies before
//! it asks again, so the loop is closed: `nproc / 2` client threads (one
//! here), each sending [`WINDOW`] requests on as many keep-alive
//! connections, reading the replies, and only then sending the next
//! [`WINDOW`]. Half the cores generate load and half serve it: with a
//! client thread per core the clients fight the server's threads for
//! their cores, and repetition times on this 2-core VM scatter over 30 %.
//! Raw `std::net::TcpStream`s keep `net::client` and `net::mux` out of
//! the picture, so a client-side change predicts no movement here.
//!
//! `serve_meta` sends the smallest messages (2/3 `/app/{pkg}`, 1/3
//! `/search?q=`), where the per-request cost of reactor, HTTP codec,
//! router and market lookup dominates. `serve_apk` asks the same reactor
//! for `/apk/{pkg}`: ~16 KB bodies built per request, so the handler
//! pool is the bottleneck and the partial-write path is exercised.

use super::{Layer, Rep, Workload};
use crate::harness::{self, InputHash, Recorder};
use marketscope_apk::parse::ParsedApk;
use marketscope_core::json::Json;
use marketscope_core::MarketId;
use marketscope_ecosystem::{profile, World};
use marketscope_market::endpoints::listing_json;
use marketscope_market::MarketFleet;
use marketscope_net::http::{Request, Response};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;

const DIVISOR: u32 = 2000;

/// Requests a client keeps in flight: enough that none of a server's two
/// reactor shards and four handler threads waits for the client. With one
/// in flight every request is a chain of cross-core wake-ups of idle
/// cores, and what is then measured is how fast the host reschedules a
/// halted virtual CPU: `serve_meta` took 0.95 s for 8 000 requests in one
/// stretch of runs and 1.32 s (middle half 1.09 to 1.54 s) in the next,
/// the host busier. With eight the cores stay busy through a repetition.
const WINDOW: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    App,
    Search,
    Apk,
}

struct Planned {
    market: usize,
    kind: Kind,
    package: String,
    wire: Vec<u8>,
    /// Keep the body for the content check (a seeded 1 % of requests).
    sampled: bool,
}

/// One keep-alive connection and its read buffer.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
        })
    }

    /// Read one response; returns the status code and the range of
    /// `self.buf` that holds the body.
    fn receive(&mut self) -> io::Result<(u16, std::ops::Range<usize>)> {
        let bad = |what: &'static str| io::Error::new(io::ErrorKind::InvalidData, what);
        self.buf.clear();
        let mut chunk = [0u8; 16 * 1024];
        let mut scanned = 0usize;
        let head_end = loop {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
            let from = scanned.saturating_sub(3);
            if let Some(at) = self.buf[from..].windows(4).position(|w| w == b"\r\n\r\n") {
                break from + at + 4;
            }
            scanned = self.buf.len();
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("head not utf-8"))?;
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| bad("no status code"))?;
        let length: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("content-length: "))
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| bad("no content-length"))?;
        while self.buf.len() < head_end + length {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                // A short body: the caller counts it as a failure.
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        Ok((status, head_end..head_end + length))
    }
}

struct Client {
    /// [`WINDOW`] connections to each market, a market's side by side.
    conns: Vec<Conn>,
    plan: Vec<Planned>,
}

#[derive(Default)]
struct ClientRep {
    ok: u64,
    failed: u64,
    body_bytes: u64,
    /// Start of each request, in nanoseconds from the repetition's start.
    starts: Vec<u64>,
    /// From sending a request's window to having read its reply, the
    /// replies read in the order sent.
    rtt_ns: Vec<u32>,
    samples: Vec<(usize, Vec<u8>)>,
}

impl Client {
    fn run(&mut self, base: Instant, count: usize, keep_samples: bool) -> ClientRep {
        let mut out = ClientRep {
            starts: Vec::with_capacity(count),
            rtt_ns: Vec::with_capacity(count),
            ..ClientRep::default()
        };
        for (w, window) in self.plan[..count].chunks(WINDOW).enumerate() {
            let start = base.elapsed().as_nanos() as u64;
            // The n-th request of a window travels on the n-th connection
            // to its market, so no two of a window share one.
            let sent: Vec<io::Result<()>> = window
                .iter()
                .enumerate()
                .map(|(lane, req)| {
                    self.conns[req.market * WINDOW + lane]
                        .stream
                        .write_all(&req.wire)
                })
                .collect();
            for (lane, (req, sent)) in window.iter().zip(sent).enumerate() {
                let conn = &mut self.conns[req.market * WINDOW + lane];
                let reply = sent.and_then(|()| conn.receive());
                let end = base.elapsed().as_nanos() as u64;
                out.starts.push(start);
                out.rtt_ns
                    .push((end - start).min(u64::from(u32::MAX)) as u32);
                match reply {
                    Ok((200, body)) => {
                        out.ok += 1;
                        out.body_bytes += body.len() as u64;
                        if keep_samples && req.sampled {
                            out.samples
                                .push((w * WINDOW + lane, conn.buf[body].to_vec()));
                        }
                    }
                    _ => out.failed += 1,
                }
            }
        }
        out
    }
}

pub struct Serve<const APK: bool> {
    world: Arc<World>,
    fleet: MarketFleet,
    clients: Vec<Client>,
    sent: u64,
    failed: u64,
    hash: f64,
    rtt_ns: Vec<u32>,
    body_bytes: u64,
    wall_s: f64,
    problems: Vec<String>,
    checked: bool,
}

pub type ServeMeta = Serve<false>;
pub type ServeApk = Serve<true>;

impl<const APK: bool> Serve<APK> {
    /// Requests of one repetition and of the warm-up, over all clients:
    /// about 0.9 s and 0.25 s here.
    const REP: usize = if APK { 3_000 } else { 24_000 };
    const WARM_UP: usize = if APK { 800 } else { 6_000 };

    fn clients() -> usize {
        (harness::nproc() / 2).max(1)
    }

    fn per_client(total: usize) -> usize {
        total / Self::clients()
    }

    /// Run `count` requests on every client at once.
    fn drive(&mut self, count: usize, keep_samples: bool) -> (f64, Instant, Vec<ClientRep>) {
        let base = Instant::now();
        let reps: Vec<ClientRep> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .map(|c| s.spawn(move || c.run(base, count, keep_samples)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let wall_s = base.elapsed().as_secs_f64();
        self.sent += (count * self.clients.len()) as u64;
        self.failed += reps.iter().map(|r| r.failed).sum::<u64>();
        (wall_s, base, reps)
    }

    /// Bodies must parse and name the package that was asked for.
    fn check_samples(&mut self, reps: &[ClientRep]) {
        for (client, rep) in self.clients.iter().zip(reps) {
            for (i, body) in &rep.samples {
                let req = &client.plan[*i];
                let names_it = match req.kind {
                    Kind::Apk => ParsedApk::parse(body)
                        .is_ok_and(|apk| apk.manifest.package.as_str() == req.package),
                    kind => std::str::from_utf8(body)
                        .ok()
                        .and_then(|text| Json::parse(text).ok())
                        .is_some_and(|doc| match kind {
                            Kind::App => {
                                doc.get("package").and_then(Json::as_str) == Some(&req.package)
                            }
                            _ => doc
                                .get("results")
                                .and_then(Json::as_arr)
                                .is_some_and(|hits| {
                                    hits.iter().any(|h| h.as_str() == Some(&req.package))
                                }),
                        }),
                };
                if !names_it {
                    self.failed += 1;
                    self.problems.push(format!(
                        "body of {:?} for {} does not parse or names another package",
                        req.kind, req.package
                    ));
                }
            }
        }
        self.checked = true;
    }
}

impl<const APK: bool> Workload for Serve<APK> {
    fn setup(seed: u64) -> Self {
        let world = Arc::new(super::world(seed, DIVISOR));
        let fleet = MarketFleet::spawn(Arc::clone(&world)).expect("spawn fleet on loopback");
        // Google Play rate-limits downloads; it is left out of both
        // workloads so that they load the same sixteen servers.
        let markets: Vec<MarketId> = MarketId::ALL
            .iter()
            .copied()
            .filter(|m| !profile(*m).rate_limited_downloads)
            .collect();
        let mut hash = InputHash::new();
        let clients = (0..Self::clients())
            .map(|c| {
                let mut rng = SmallRng::seed_from_u64(seed ^ (0x5e7e_0000 + c as u64));
                let plan = (0..Self::per_client(Self::REP))
                    .map(|_| {
                        let market = markets[rng.gen_range(0..markets.len())];
                        let catalog = world.market_listings(market);
                        let listing = world.listing(catalog[rng.gen_range(0..catalog.len())]);
                        let package = world.app(listing.app).package.as_str().to_owned();
                        let kind = match (APK, rng.gen_range(0..3usize)) {
                            (true, _) => Kind::Apk,
                            (false, 0) => Kind::Search,
                            (false, _) => Kind::App,
                        };
                        let target = match kind {
                            Kind::Apk => format!("/apk/{package}"),
                            Kind::App => format!("/app/{package}"),
                            Kind::Search => format!("/search?q={package}"),
                        };
                        hash.bytes(target.as_bytes());
                        hash.u64(market.index() as u64);
                        Planned {
                            market: market.index(),
                            kind,
                            package,
                            wire: format!(
                                "GET {target} HTTP/1.1\r\nhost: {}\r\ncontent-length: 0\r\n\r\n",
                                market.slug()
                            )
                            .into_bytes(),
                            sampled: rng.gen_range(0..100usize) == 0,
                        }
                    })
                    .collect();
                let conns = MarketId::ALL
                    .iter()
                    .flat_map(|m| std::iter::repeat(fleet.addr(*m)).take(WINDOW))
                    .map(|addr| Conn::open(addr).expect("connect to a market on loopback"))
                    .collect();
                Client { conns, plan }
            })
            .collect();
        let mut serve = Serve {
            world,
            fleet,
            clients,
            sent: 0,
            failed: 0,
            hash: hash.finish(),
            rtt_ns: Vec::new(),
            body_bytes: 0,
            wall_s: 0.0,
            problems: Vec::new(),
            checked: false,
        };
        serve.drive(Self::per_client(Self::WARM_UP), false);
        serve
    }

    fn rep(&mut self, rec: &Recorder, parent: Option<usize>) -> Rep {
        let count = Self::per_client(Self::REP);
        let keep_samples = !self.checked;
        let (wall_s, base, reps) = self.drive(count, keep_samples);
        self.wall_s += wall_s;
        for rep in &reps {
            rec.extend(
                "net.request",
                parent,
                base,
                rep.starts
                    .iter()
                    .zip(&rep.rtt_ns)
                    .map(|(start, rtt)| (*start, start + u64::from(*rtt))),
            );
            self.rtt_ns.extend_from_slice(&rep.rtt_ns);
            self.body_bytes += rep.body_bytes;
        }
        if keep_samples {
            // After the repetition's clock has stopped.
            self.check_samples(&reps);
        }
        Rep {
            wall_s,
            ops: reps.iter().map(|r| r.ok).sum(),
            attempted: (count * self.clients.len()) as u64,
            failed: reps.iter().map(|r| r.failed).sum(),
        }
    }

    fn check(&mut self) -> Vec<String> {
        let mut problems = std::mem::take(&mut self.problems);
        if self.failed > 0 {
            problems.push(format!(
                "{} of {} requests failed: non-200, short body or wrong content",
                self.failed, self.sent
            ));
        }
        let served = self.fleet.total_requests();
        if served != self.sent {
            problems.push(format!(
                "fleet counted {served} requests, clients sent {}",
                self.sent
            ));
        }
        problems
    }

    fn schedule_hash(&self) -> f64 {
        self.hash
    }

    fn layers(&mut self, rec: &Recorder, parent: Option<usize>, _: f64, _: f64) -> Vec<Layer> {
        let mut rtt = std::mem::take(&mut self.rtt_ns);
        rtt.sort_unstable();
        let quantile_us = |q: f64| harness::quantile_sorted(&rtt, q) / 1e3;

        // The HTTP codec without a socket: parse this workload's request
        // bytes, serialise a typical metadata response.
        let listing = self
            .world
            .listing(self.world.market_listings(MarketId::HuaweiMarket)[0]);
        let response = Response::json(&listing_json(&self.world, listing));
        let plan = &self.clients[0].plan;
        let (iterations, codec_s) = rec.span("net.http.codec", parent, |_| {
            let start = Instant::now();
            let mut sink = Vec::with_capacity(4096);
            let mut iterations = 0u64;
            while start.elapsed().as_secs_f64() < 0.3 {
                for req in plan.iter().take(1000) {
                    black_box(
                        Request::parse_partial(black_box(&req.wire))
                            .expect("planned request parses"),
                    );
                    sink.clear();
                    response.write_to(&mut sink).expect("write to a Vec");
                    black_box(&sink);
                    iterations += 1;
                }
            }
            iterations
        });

        let fleet = self.fleet.registry().snapshot();
        vec![
            ("net.reactor.rtt_p50_us", quantile_us(0.5)),
            ("net.reactor.rtt_p99_us", quantile_us(0.99)),
            ("net.reactor.rtt_p999_us", quantile_us(0.999)),
            (
                "net.http.codec_ns_per_req",
                codec_s * 1e9 / iterations as f64,
            ),
            (
                "market.body_mb_per_s",
                self.body_bytes as f64 / 1e6 / self.wall_s,
            ),
            ("market.requests_total", self.fleet.total_requests() as f64),
            (
                "net.server.shed",
                fleet.counter_sum("marketscope_net_connections_shed_total", &[]) as f64,
            ),
            (
                "net.server.accept_errors",
                fleet.counter_sum("marketscope_net_accept_errors_total", &[]) as f64,
            ),
        ]
    }
}
