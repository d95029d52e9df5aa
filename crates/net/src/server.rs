//! The HTTP server: one listener on an event-loop transport (see
//! [`crate::reactor`]) behind a plain request → response [`Handler`] —
//! keep-alive, graceful shutdown, fault seams, built-in telemetry.
//!
//! One accept thread feeds nonblocking connections to a fixed set of
//! `poll(2)` shards, and each shard runs the handler of every request it
//! parses. Thread count is a constant of the [`Transport`], not of the
//! connection count nor of how many servers share the transport.

use crate::error::NetError;
use crate::fault::FaultInjector;
use crate::http::{Request, Response, Status};
use crate::reactor::{Endpoint, ReactorConfig, Transport};
use marketscope_telemetry::{Counter, EventLog, Gauge, Histogram, Registry, Tracer};
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::Duration;

/// A request handler. It runs on its connection's shard, which serves
/// many other connections: it must not block on I/O or on another
/// request. Handlers should be panic-free: a panic is caught on the
/// shard (the shard and the server keep serving), but the peer sees a
/// dropped connection rather than a 500.
pub trait Handler: Send + Sync + 'static {
    /// Produce a response for one request.
    fn handle(&self, req: &Request) -> Response;
}

impl<F> Handler for F
where
    F: Fn(&Request) -> Response + Send + Sync + 'static,
{
    fn handle(&self, req: &Request) -> Response {
        self(req)
    }
}

/// Status codes the server distinguishes in its per-status counters (the
/// full set the HTTP subset can produce).
const TRACKED_STATUSES: [(u16, &str); 6] = [
    (200, "200"),
    (400, "400"),
    (404, "404"),
    (429, "429"),
    (500, "500"),
    (503, "503"),
];

/// The server-side instrument set: total requests, live connections,
/// handler latency, and per-status response counts.
///
/// Built either [standalone](ServerMetrics::standalone) (a private
/// registry, still readable through [`ServerHandle`]) or
/// [registered](ServerMetrics::register) in a caller's [`Registry`] so a
/// scrape endpoint sees them. Either way the record path is lock-free,
/// and clones share the instruments (a health handler keeps one to read).
#[derive(Debug, Clone)]
pub struct ServerMetrics {
    pub(crate) requests: Arc<Counter>,
    pub(crate) live: Arc<Gauge>,
    pub(crate) handler_nanos: Arc<Histogram>,
    pub(crate) responses: Vec<(u16, Arc<Counter>)>,
    pub(crate) accept_errors: Arc<Counter>,
    pub(crate) shed: Arc<Counter>,
    pub(crate) tracer: Arc<Tracer>,
    pub(crate) log: Arc<EventLog>,
}

impl ServerMetrics {
    /// Register the server instruments in `registry` under the given base
    /// labels (e.g. `market="huawei"`). Metric names:
    ///
    /// * `marketscope_net_requests_total`
    /// * `marketscope_net_live_connections` (open-connections gauge)
    /// * `marketscope_net_handler_nanos`
    /// * `marketscope_net_responses_total{status="..."}`
    /// * `marketscope_net_accept_errors_total` (transient accept failures)
    /// * `marketscope_net_connections_shed_total` (503s above the ceiling)
    ///
    /// Spans go to a disabled tracer and events to a private log until
    /// [`traced`](Self::traced) / [`logged`](Self::logged) attach shared ones.
    pub fn register(registry: &Registry, labels: &[(&str, &str)]) -> ServerMetrics {
        let responses = TRACKED_STATUSES
            .iter()
            .map(|&(code, code_str)| {
                let mut with_status = labels.to_vec();
                with_status.push(("status", code_str));
                (
                    code,
                    registry.counter("marketscope_net_responses_total", &with_status),
                )
            })
            .collect();
        ServerMetrics {
            requests: registry.counter("marketscope_net_requests_total", labels),
            live: registry.gauge("marketscope_net_live_connections", labels),
            handler_nanos: registry.histogram("marketscope_net_handler_nanos", labels),
            responses,
            accept_errors: registry.counter("marketscope_net_accept_errors_total", labels),
            shed: registry.counter("marketscope_net_connections_shed_total", labels),
            tracer: Arc::new(Tracer::disabled()),
            log: EventLog::private(),
        }
    }

    /// Attach a tracer: requests arriving with an `x-marketscope-trace`
    /// header open a server-side request span (a remote child of the
    /// client's attempt span) with `handler` and `write` child spans, so
    /// the caller's trace crosses the wire into this server. Requests
    /// without the header trace nothing.
    pub fn traced(mut self, tracer: Arc<Tracer>) -> ServerMetrics {
        self.tracer = tracer;
        self
    }

    /// Attach a structured event log: operational incidents that today
    /// only bump counters (connection shed at the ceiling, accept
    /// errors) also record an event with context.
    pub fn logged(mut self, log: Arc<EventLog>) -> ServerMetrics {
        self.log = log;
        self
    }

    /// Instruments in a private registry nobody scrapes. Used by
    /// [`HttpServer::spawn`] so every server counts requests and live
    /// connections even without a scrape endpoint.
    pub fn standalone() -> ServerMetrics {
        ServerMetrics::register(&Registry::new(), &[])
    }

    /// Total requests served so far.
    pub fn request_count(&self) -> u64 {
        self.requests.get()
    }

    /// Connections currently open.
    pub fn live_connections(&self) -> u64 {
        self.live.get().max(0) as u64
    }

    /// Transient accept-loop errors absorbed with backoff so far
    /// (`marketscope_net_accept_errors_total`).
    pub fn accept_errors(&self) -> u64 {
        self.accept_errors.get()
    }

    /// Connections shed with an immediate `503` because the server was
    /// at its ceiling (`marketscope_net_connections_shed_total`).
    pub fn shed_connections(&self) -> u64 {
        self.shed.get()
    }

    pub(crate) fn note_response(&self, status: Status, handler_time: Duration) {
        self.handler_nanos.record_duration(handler_time);
        self.requests.inc();
        let code = status.code();
        if let Some((_, c)) = self.responses.iter().find(|(c, _)| *c == code) {
            c.inc();
        }
    }
}

/// An HTTP server bound to a local address.
pub struct HttpServer;

impl HttpServer {
    /// Bind to `127.0.0.1:0` (ephemeral port) and serve `handler` with
    /// private instruments on a transport of its own with the reactor
    /// defaults. The handle holds the transport's only reference, so
    /// dropping it joins the transport's threads.
    pub fn spawn(handler: impl Handler) -> Result<ServerHandle, NetError> {
        let transport = Transport::spawn(ReactorConfig::default())?;
        Self::spawn_on(
            &transport,
            "127.0.0.1:0",
            handler,
            ServerMetrics::standalone(),
            None,
        )
    }

    /// Serve `handler` at `addr` on `transport`, which other servers may
    /// share: this one adds a listener, no thread. `metrics` is its
    /// instrument set (register it in a [`Registry`] to make the server's
    /// counters scrapeable), and `faults` an optional [`FaultInjector`]
    /// that gets first refusal on every request (it may reset the
    /// connection, stall or truncate the response, or answer 5xx before
    /// the handler runs; the caller may keep a clone to report on it).
    /// Requests, statuses, the live-connection gauge, the connection
    /// ceiling, shed and accept-error counts and the fault injector are
    /// all this server's own; stopping the handle closes its listener and
    /// connections and leaves the transport and its other servers
    /// running.
    pub fn spawn_on(
        transport: &Arc<Transport>,
        addr: &str,
        handler: impl Handler,
        metrics: ServerMetrics,
        faults: Option<Arc<FaultInjector>>,
    ) -> Result<ServerHandle, NetError> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let endpoint = Endpoint::new(handler, metrics, faults);
        transport.listen(listener, Arc::clone(&endpoint))?;
        Ok(ServerHandle {
            addr,
            endpoint,
            transport: Arc::clone(transport),
        })
    }
}

/// Handle to a running server: address, telemetry, shutdown.
pub struct ServerHandle {
    addr: SocketAddr,
    endpoint: Arc<Endpoint>,
    /// One reference to the transport; the last one to drop joins its
    /// threads.
    transport: Arc<Transport>,
}

impl ServerHandle {
    /// The bound socket address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Total requests served so far.
    pub fn request_count(&self) -> u64 {
        self.endpoint.metrics.request_count()
    }

    /// Connections currently open.
    pub fn live_connections(&self) -> u64 {
        self.endpoint.metrics.live_connections()
    }

    /// The fault injector wrapping this server, when spawned with one.
    pub fn fault_injector(&self) -> Option<&Arc<FaultInjector>> {
        self.endpoint.faults.as_ref()
    }

    /// The configuration of the transport this server runs on (each
    /// listener's connection ceiling, keep-alive).
    pub fn transport_config(&self) -> &ReactorConfig {
        self.transport.config()
    }

    /// Connections shed with an immediate `503` at the ceiling so far.
    pub fn shed_connections(&self) -> u64 {
        self.endpoint.metrics.shed_connections()
    }

    /// Stop serving. On return the listener is closed, no request
    /// reaches the handler any more, open connections are dropped and
    /// the live gauge is back in balance; the transport keeps serving its
    /// other listeners. Its threads (the acceptor and the event-loop
    /// shards) are joined when its last reference drops: for a
    /// [`HttpServer::spawn`] server, this handle's. Idempotent.
    pub fn stop(&self) {
        self.transport.retire(&self.endpoint);
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactor::SHARDS;
    use std::io::Write;
    use std::net::TcpStream;

    fn echo_server() -> ServerHandle {
        HttpServer::spawn(|req: &Request| {
            Response::ok("text/plain", format!("path={}", req.path).into_bytes())
        })
        .unwrap()
    }

    fn raw_round_trip(addr: SocketAddr, wire: &[u8]) -> Vec<u8> {
        use std::io::Read;
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(wire).unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        let mut out = Vec::new();
        s.read_to_end(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_and_stops() {
        let server = echo_server();
        let out = raw_round_trip(
            server.addr(),
            b"GET /hello HTTP/1.1\r\nconnection: close\r\n\r\n",
        );
        let text = String::from_utf8_lossy(&out);
        assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
        assert!(text.ends_with("path=/hello"), "{text}");
        assert_eq!(server.request_count(), 1);
        server.stop();
        // Stop is idempotent.
        server.stop();
    }

    #[test]
    fn keep_alive_serves_multiple_requests() {
        let server = echo_server();
        let wire = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nconnection: close\r\n\r\n";
        let out = raw_round_trip(server.addr(), wire);
        let text = String::from_utf8_lossy(&out);
        assert!(text.contains("path=/a"));
        assert!(text.contains("path=/b"));
        assert_eq!(server.request_count(), 2);
    }

    /// One request on an open keep-alive connection; returns the body.
    fn keep_alive_round_trip(s: &mut TcpStream, path: &str) -> String {
        use std::io::Read;
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.write_all(format!("GET {path} HTTP/1.1\r\n\r\n").as_bytes())
            .unwrap();
        let mut buf = Vec::new();
        let mut chunk = [0u8; 1024];
        loop {
            if let Some((resp, _)) = Response::parse_partial(&buf).unwrap() {
                return String::from_utf8(resp.body).unwrap();
            }
            let n = s.read(&mut chunk).unwrap();
            assert!(n > 0, "peer closed mid-response: {buf:?}");
            buf.extend_from_slice(&chunk[..n]);
        }
    }

    #[test]
    fn handlers_run_on_the_shard_that_parsed_the_request() {
        let server = HttpServer::spawn(|_req: &Request| {
            let name = std::thread::current().name().unwrap_or_default().to_owned();
            Response::ok("text/plain", name.into_bytes())
        })
        .unwrap();
        let out = raw_round_trip(
            server.addr(),
            b"GET /who HTTP/1.1\r\nconnection: close\r\n\r\n",
        );
        let text = String::from_utf8_lossy(&out);
        assert!(text.contains("\r\n\r\nhttp-shard-"), "{text}");
    }

    #[test]
    fn a_panicking_handler_drops_only_its_own_connection() {
        let server = HttpServer::spawn(|req: &Request| {
            assert_ne!(req.path, "/boom", "this handler panics on /boom");
            Response::ok("text/plain", format!("path={}", req.path).into_bytes())
        })
        .unwrap();
        // Connections go round-robin to the shards, so `SHARDS` of them in
        // a row include one on whichever shard runs `/boom`.
        let connect = || TcpStream::connect(server.addr()).unwrap();
        let mut opened_before: Vec<TcpStream> = (0..SHARDS).map(|_| connect()).collect();
        for s in &mut opened_before {
            assert_eq!(keep_alive_round_trip(s, "/a"), "path=/a");
        }
        let out = raw_round_trip(server.addr(), b"GET /boom HTTP/1.1\r\n\r\n");
        assert!(out.is_empty(), "{}", String::from_utf8_lossy(&out));
        // Every shard survived: older keep-alive connections and fresh
        // ones are all answered.
        for s in &mut opened_before {
            assert_eq!(keep_alive_round_trip(s, "/b"), "path=/b");
        }
        for _ in 0..SHARDS {
            assert_eq!(keep_alive_round_trip(&mut connect(), "/c"), "path=/c");
        }
        let answered = 3 * SHARDS as u64;
        assert_eq!(
            server.request_count(),
            answered,
            "only answered requests count"
        );
    }

    #[test]
    fn ten_thousand_pipelined_requests_are_answered_in_order() {
        use std::io::Read;
        const REQUESTS: usize = 10_000;
        let server = echo_server();
        let mut reader = TcpStream::connect(server.addr()).unwrap();
        reader
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut writer = reader.try_clone().unwrap();
        let sender = std::thread::spawn(move || {
            let mut wire = Vec::new();
            for i in 0..REQUESTS {
                wire.extend_from_slice(format!("GET /p{i} HTTP/1.1\r\n\r\n").as_bytes());
            }
            writer.write_all(&wire).unwrap();
        });
        let mut buf = Vec::new();
        let mut chunk = [0u8; 64 * 1024];
        let mut answered = 0;
        while answered < REQUESTS {
            while let Some((resp, used)) = Response::parse_partial(&buf).unwrap() {
                assert_eq!(
                    String::from_utf8_lossy(&resp.body),
                    format!("path=/p{answered}")
                );
                buf.drain(..used);
                answered += 1;
            }
            if answered < REQUESTS {
                let n = reader.read(&mut chunk).unwrap();
                assert!(n > 0, "peer closed after {answered} responses");
                buf.extend_from_slice(&chunk[..n]);
            }
        }
        sender.join().unwrap();
        assert_eq!(server.request_count(), REQUESTS as u64);
    }

    #[test]
    fn malformed_request_gets_400() {
        let server = echo_server();
        let out = raw_round_trip(server.addr(), b"NONSENSE\r\n\r\n");
        let text = String::from_utf8_lossy(&out);
        assert!(text.starts_with("HTTP/1.1 400"), "{text}");
    }

    #[test]
    fn concurrent_connections() {
        let server = Arc::new(echo_server());
        let mut threads = Vec::new();
        for i in 0..8 {
            let server = Arc::clone(&server);
            threads.push(std::thread::spawn(move || {
                let wire = format!("GET /t{i} HTTP/1.1\r\nconnection: close\r\n\r\n");
                let out = raw_round_trip(server.addr(), wire.as_bytes());
                assert!(String::from_utf8_lossy(&out).contains(&format!("path=/t{i}")));
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(server.request_count(), 8);
    }

    #[test]
    fn rejects_connections_after_stop() {
        let server = echo_server();
        let addr = server.addr();
        server.stop();
        // After stop, either connect fails or the connection is dropped
        // without a response.
        if let Ok(mut s) = TcpStream::connect(addr) {
            let _ = s.write_all(b"GET / HTTP/1.1\r\nconnection: close\r\n\r\n");
            use std::io::Read;
            let mut out = Vec::new();
            let _ = s.read_to_end(&mut out);
            assert!(out.is_empty(), "stopped server must not answer");
        }
    }

    /// Poll until `cond` holds or a 5s deadline passes (cross-thread
    /// gauge updates land a wake-cycle after the wire event).
    fn wait_until(cond: impl Fn() -> bool) -> bool {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while std::time::Instant::now() < deadline {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        cond()
    }

    /// A server on a transport of its own with `config`.
    fn spawn_with(
        config: ReactorConfig,
        handler: impl Handler,
        metrics: ServerMetrics,
    ) -> ServerHandle {
        let transport = Transport::spawn(config).unwrap();
        HttpServer::spawn_on(&transport, "127.0.0.1:0", handler, metrics, None).unwrap()
    }

    #[test]
    fn sheds_connections_above_ceiling_with_503() {
        let server = spawn_with(
            ReactorConfig {
                max_connections: 2,
                ..ReactorConfig::default()
            },
            |_req: &Request| Response::ok("text/plain", b"ok".to_vec()),
            ServerMetrics::standalone(),
        );
        // Park two keep-alive connections to fill the ceiling.
        let _a = TcpStream::connect(server.addr()).unwrap();
        let _b = TcpStream::connect(server.addr()).unwrap();
        assert!(
            wait_until(|| server.live_connections() == 2),
            "parked connections must register: {}",
            server.live_connections()
        );
        // The third is answered 503 + close instead of silently dropped.
        let mut c = TcpStream::connect(server.addr()).unwrap();
        use std::io::Read;
        let mut out = Vec::new();
        c.read_to_end(&mut out).unwrap();
        let text = String::from_utf8_lossy(&out);
        assert!(text.starts_with("HTTP/1.1 503"), "{text}");
        assert!(text.contains("connection: close"), "{text}");
        assert_eq!(server.shed_connections(), 1);
        assert_eq!(
            server.request_count(),
            0,
            "shed connections never reach the handler"
        );
        assert_eq!(server.endpoint.metrics.accept_errors(), 0);
    }

    #[test]
    fn idle_keep_alive_connections_are_reaped() {
        let server = spawn_with(
            ReactorConfig {
                keep_alive: Duration::from_millis(100),
                ..ReactorConfig::default()
            },
            |_req: &Request| Response::ok("text/plain", b"ok".to_vec()),
            ServerMetrics::standalone(),
        );
        let mut s = TcpStream::connect(server.addr()).unwrap();
        assert!(wait_until(|| server.live_connections() == 1));
        // The reaper closes the idle connection and balances the gauge.
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        use std::io::Read;
        let mut out = Vec::new();
        let n = s.read_to_end(&mut out).unwrap();
        assert_eq!(n, 0, "reaped connection must close cleanly");
        assert!(
            wait_until(|| server.live_connections() == 0),
            "gauge must drain after the reap: {}",
            server.live_connections()
        );
    }

    #[test]
    fn registered_metrics_track_statuses_and_latency() {
        let registry = Registry::new();
        let metrics = ServerMetrics::register(&registry, &[("market", "test")]);
        let server = spawn_with(
            ReactorConfig::default(),
            |req: &Request| {
                if req.path == "/missing" {
                    Response::status(Status::NotFound)
                } else {
                    Response::ok("text/plain", b"ok".to_vec())
                }
            },
            metrics,
        );
        raw_round_trip(
            server.addr(),
            b"GET /x HTTP/1.1\r\n\r\nGET /missing HTTP/1.1\r\nconnection: close\r\n\r\n",
        );
        let snap = registry.snapshot();
        let labels = [("market", "test")];
        assert_eq!(
            snap.counter_value("marketscope_net_requests_total", &labels),
            Some(2)
        );
        assert_eq!(
            snap.counter_value(
                "marketscope_net_responses_total",
                &[("market", "test"), ("status", "200")]
            ),
            Some(1)
        );
        assert_eq!(
            snap.counter_value(
                "marketscope_net_responses_total",
                &[("market", "test"), ("status", "404")]
            ),
            Some(1)
        );
        // Latency histogram count equals requests served — the invariant
        // the `/__metrics` acceptance check relies on.
        let hist = snap
            .histogram("marketscope_net_handler_nanos", &labels)
            .unwrap();
        assert_eq!(hist.count(), 2);
        // ServerHandle accessors read the same instruments.
        assert_eq!(server.request_count(), 2);
    }
}
