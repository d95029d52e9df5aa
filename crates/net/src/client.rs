//! The HTTP client: keep-alive connection pooling, timeouts, classified
//! retries, and optional circuit breaking — all executed by the
//! multiplexed [`mux`](crate::mux) driver.
//!
//! Every [`HttpClient`] call is a submission to one shared
//! [`MuxClient`] driver thread: `request`/`get`/`get_json` submit and
//! then park on the ticket, so a caller blocked in `get` costs a parked
//! ticket, not a socket-bound thread. Batch callers keep the tickets
//! ([`HttpClient::submit_get`] / [`HttpClient::submit_get_json`], redeemed
//! with [`HttpClient::wait`] / [`HttpClient::wait_json`]) to put
//! hundreds of requests in flight from a single thread.

use crate::error::NetError;
use crate::http::{Request, Response};
use crate::mux::{DecodeMode, MuxClient, Payload, Ticket};
use crate::resilience::{BreakerConfig, BreakerSet, ResilienceMetrics, RetryPolicy};
use marketscope_telemetry::{trace, Counter, Histogram, Registry, SpanContext, Tracer};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// Client configuration; override individual knobs with
/// `ClientConfig { retries: 0, ..ClientConfig::default() }`.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Per-socket read/write timeout.
    pub io_timeout: Duration,
    /// Connect timeout.
    pub connect_timeout: Duration,
    /// How many idle connections to keep per remote address.
    pub pool_per_host: usize,
    /// Transparent same-request retries on *transient* connection-level
    /// failures (the keep-alive race, a reset socket). HTTP error
    /// statuses never retry here — that is [`RetryPolicy`]'s job.
    pub retries: u32,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            io_timeout: Duration::from_secs(10),
            connect_timeout: Duration::from_secs(5),
            pool_per_host: 8,
            retries: 2,
        }
    }
}

/// Client-side instruments: request latency, transparent retries, and
/// errors broken down by [`NetError::kind`].
#[derive(Debug, Clone)]
pub struct ClientMetrics {
    request_nanos: Arc<Histogram>,
    retries: Arc<Counter>,
    errors: Vec<(&'static str, Arc<Counter>)>,
}

impl ClientMetrics {
    /// Register the client instruments in `registry` under the given base
    /// labels. Metric names:
    ///
    /// * `marketscope_net_client_request_nanos`
    /// * `marketscope_net_client_retries_total`
    /// * `marketscope_net_client_errors_total{kind="..."}`
    pub fn register(registry: &Registry, labels: &[(&str, &str)]) -> ClientMetrics {
        let errors = NetError::KINDS
            .iter()
            .map(|&kind| {
                let mut with_kind = labels.to_vec();
                with_kind.push(("kind", kind));
                (
                    kind,
                    registry.counter("marketscope_net_client_errors_total", &with_kind),
                )
            })
            .collect();
        ClientMetrics {
            request_nanos: registry.histogram("marketscope_net_client_request_nanos", labels),
            retries: registry.counter("marketscope_net_client_retries_total", labels),
            errors,
        }
    }

    pub(crate) fn note_error(&self, e: &NetError) {
        // Never misses: the counters come from `NetError::KINDS`, which a
        // unit test holds to every variant's `kind()`.
        let kind = e.kind();
        if let Some((_, c)) = self.errors.iter().find(|(k, _)| *k == kind) {
            c.inc();
        }
    }

    /// One transparent connection-level retry burned.
    pub(crate) fn note_transparent_retry(&self) {
        self.retries.inc();
    }

    /// One wire cycle finished (success or failure) after `elapsed`.
    pub(crate) fn record_request(&self, elapsed: Duration) {
        self.request_nanos.record_duration(elapsed);
    }
}

/// Configures and builds an [`HttpClient`]. Obtained from
/// [`HttpClient::builder`]; every knob is optional (telemetry not
/// attached goes to a private registry and a disabled tracer):
///
/// ```no_run
/// # use marketscope_net::client::{ClientConfig, HttpClient};
/// # use marketscope_net::resilience::{BreakerConfig, RetryPolicy};
/// let client = HttpClient::builder()
///     .config(ClientConfig { pool_per_host: 4, ..ClientConfig::default() })
///     .retry(RetryPolicy::default())
///     .breaker(BreakerConfig::default())
///     .build();
/// ```
pub struct HttpClientBuilder {
    config: ClientConfig,
    metrics: ClientMetrics,
    tracer: Arc<Tracer>,
    retry: Option<RetryPolicy>,
    breaker: Option<BreakerConfig>,
    resilience_metrics: ResilienceMetrics,
}

impl Default for HttpClientBuilder {
    fn default() -> Self {
        let private = Registry::new();
        HttpClientBuilder {
            config: ClientConfig::default(),
            metrics: ClientMetrics::register(&private, &[]),
            tracer: Arc::new(Tracer::disabled()),
            retry: None,
            breaker: None,
            resilience_metrics: ResilienceMetrics::register(&private, &[]),
        }
    }
}

impl HttpClientBuilder {
    /// Socket-level configuration (timeouts, pool size, transparent
    /// connection retries, driver in-flight cap).
    pub fn config(mut self, config: ClientConfig) -> Self {
        self.config = config;
        self
    }

    /// Attach registered instruments: every request records its latency;
    /// retries and errors are counted by kind.
    pub fn metrics(mut self, metrics: ClientMetrics) -> Self {
        self.metrics = metrics;
        self
    }

    /// Attach a tracer. When a sampled span is active on the calling
    /// thread, each request opens a child span plus one span per
    /// connection attempt, and every attempt carries its own span
    /// context out in the `x-marketscope-trace` header so the server's
    /// handler spans link back to this exact attempt.
    pub fn tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = tracer;
        self
    }

    /// Attach a status-level retry policy: [`HttpClient::get`] retries
    /// [retryable](NetError::is_retryable) failures with deterministic
    /// backoff, honoring server `retry-after` hints within the policy's
    /// budget.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Attach per-host circuit breaking: after a run of terminal
    /// failures, requests to that host fast-fail with
    /// [`NetError::CircuitOpen`] until a half-open probe succeeds.
    pub fn breaker(mut self, config: BreakerConfig) -> Self {
        self.breaker = Some(config);
        self
    }

    /// Attach resilience instruments (retry counts, backoff time,
    /// fast-fails, breaker transitions and the open-circuit gauge).
    pub fn resilience_metrics(mut self, metrics: ResilienceMetrics) -> Self {
        self.resilience_metrics = metrics;
        self
    }

    /// Build the client (and its mux engine; the driver thread itself
    /// spawns lazily on the first submission).
    pub fn build(self) -> HttpClient {
        let breakers = self
            .breaker
            .map(|cfg| Arc::new(BreakerSet::new(cfg, self.resilience_metrics.clone())));
        HttpClient {
            mux: MuxClient::new(
                self.config,
                self.tracer,
                self.metrics,
                self.retry,
                breakers.clone(),
                self.resilience_metrics,
            ),
            breakers,
        }
    }
}

/// One entry in a batched fetch: where to go, what to get, and how the
/// submission hangs in the trace/ordering fabric.
#[derive(Debug, Clone)]
pub struct FetchSpec {
    /// Server to contact.
    pub addr: SocketAddr,
    /// Path plus query string, as [`HttpClient::get`] takes it.
    pub path: String,
    /// Span the request's client spans are parented under. Capture
    /// [`trace::current()`] for "as if called on this thread", or a
    /// pre-opened per-item span's context for batch fan-out.
    pub parent: Option<SpanContext>,
    /// Ordering lane: submissions sharing a lane key run one at a time
    /// in submission order (a per-market batch reaches that market's
    /// server in exactly the sequence a blocking loop would produce).
    /// `None` imposes no ordering.
    pub lane: Option<u64>,
}

impl FetchSpec {
    /// A spec parented under the calling thread's current span, with no
    /// ordering lane.
    pub fn new(addr: SocketAddr, path: impl Into<String>) -> FetchSpec {
        FetchSpec {
            addr,
            path: path.into(),
            parent: trace::current(),
            lane: None,
        }
    }

    /// Serialize this fetch behind every other fetch sharing `lane`.
    pub fn lane(mut self, lane: u64) -> FetchSpec {
        self.lane = Some(lane);
        self
    }

    /// Parent the request's spans under `ctx` instead of the submitting
    /// thread's current span.
    pub fn parent(mut self, ctx: Option<SpanContext>) -> FetchSpec {
        self.parent = ctx;
        self
    }
}

/// A blocking-surface HTTP client over the multiplexed driver.
///
/// Cloneable-by-reference via `Arc` at call sites; internally synchronized
/// so crawler worker threads can share one client (and with it one pool,
/// one breaker set, and one driver thread).
pub struct HttpClient {
    mux: MuxClient,
    /// Shared with the driver; kept here only for `open_circuits`.
    breakers: Option<Arc<BreakerSet>>,
}

impl HttpClient {
    /// Client with default configuration, private telemetry, no
    /// resilience policy — the trivial case. Everything else goes through
    /// [`HttpClient::builder`].
    pub fn new() -> Self {
        Self::builder().build()
    }

    /// Start building a configured client.
    pub fn builder() -> HttpClientBuilder {
        HttpClientBuilder::default()
    }

    /// Issue a request and await the response. Pooled connections are
    /// reused; *transient* connection-level failures (a reset socket,
    /// mid-message EOF — the classic keep-alive race) are retried on a
    /// fresh connection, bounded by [`ClientConfig::retries`]. Error
    /// statuses and protocol violations surface immediately.
    ///
    /// Equivalent to [`MuxClient::submit`] + [`MuxClient::wait`]: the
    /// wire work happens on the driver thread, this thread just parks
    /// on the ticket.
    pub fn request(&self, addr: SocketAddr, req: &Request) -> Result<Response, NetError> {
        let ticket = self.mux.submit(addr, req.clone());
        self.mux.wait(ticket)
    }

    /// Enqueue a raw request without waiting; redeem the ticket with
    /// [`HttpClient::wait`]. The open-loop form of
    /// [`HttpClient::request`].
    pub fn submit(&self, addr: SocketAddr, req: &Request) -> Ticket {
        self.mux.submit(addr, req.clone())
    }

    /// Enqueue one managed GET (full retry/breaker/trace policy executed
    /// inside the driver) without waiting; redeem with
    /// [`HttpClient::wait`]. The open-loop form of [`HttpClient::get`].
    pub fn submit_get(&self, spec: &FetchSpec) -> Ticket {
        self.mux.submit_managed(
            spec.addr,
            &spec.path,
            DecodeMode::Response,
            spec.parent,
            spec.lane,
        )
    }

    /// Block on a ticket from [`HttpClient::submit`] or
    /// [`HttpClient::submit_get`].
    pub fn wait(&self, ticket: Ticket) -> Result<Response, NetError> {
        self.mux.wait(ticket)
    }

    /// Enqueue one managed JSON GET without waiting; redeem with
    /// [`HttpClient::wait_json`]. The open-loop form of
    /// [`HttpClient::get_json`].
    pub fn submit_get_json(&self, spec: &FetchSpec) -> Ticket {
        self.mux.submit_managed(
            spec.addr,
            &spec.path,
            DecodeMode::Json,
            spec.parent,
            spec.lane,
        )
    }

    /// Block on a ticket from [`HttpClient::submit_get_json`].
    pub fn wait_json(&self, ticket: Ticket) -> Result<marketscope_core::json::Json, NetError> {
        match self.mux.wait_payload(ticket)? {
            Payload::Doc(doc) => Ok(doc),
            Payload::Resp(_) => Err(NetError::Protocol("unexpected undecoded payload")),
        }
    }

    /// Convenience: GET a path and require a 200. Non-200 statuses
    /// surface as [`NetError::Status`] carrying any `retry-after` hint.
    ///
    /// This runs the resilience policy (inside the driver): with a
    /// [`RetryPolicy`] attached, retryable failures (connection faults,
    /// 429/500/503) are retried with deterministic backoff until the
    /// policy's budget runs out; with a [`BreakerConfig`] attached, a
    /// host whose requests keep failing terminally gets its circuit
    /// opened and subsequent calls fast-fail with
    /// [`NetError::CircuitOpen`] until a probe succeeds.
    pub fn get(&self, addr: SocketAddr, path_and_query: &str) -> Result<Response, NetError> {
        let (mode, parent) = (DecodeMode::Response, trace::current());
        let ticket = self
            .mux
            .submit_managed(addr, path_and_query, mode, parent, None);
        self.wait(ticket)
    }

    /// Convenience: GET a path, parse the body as JSON, require a 200.
    ///
    /// Runs the same retry/breaker/trace policy as [`HttpClient::get`]:
    /// the body decode happens inside the resilience cycle, so a
    /// malformed body is classified, counted, and settled with the
    /// breaker exactly like any other terminal failure.
    pub fn get_json(
        &self,
        addr: SocketAddr,
        path_and_query: &str,
    ) -> Result<marketscope_core::json::Json, NetError> {
        let (mode, parent) = (DecodeMode::Json, trace::current());
        let ticket = self
            .mux
            .submit_managed(addr, path_and_query, mode, parent, None);
        self.wait_json(ticket)
    }

    /// Number of idle pooled connections (for tests/metrics).
    pub fn idle_connections(&self) -> usize {
        self.mux.idle_connections()
    }

    /// Number of per-host circuits currently not closed (zero without a
    /// breaker).
    pub fn open_circuits(&self) -> usize {
        self.breakers.as_ref().map_or(0, |b| b.open_count())
    }
}

impl Default for HttpClient {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Status;
    use crate::server::{HttpServer, ServerHandle};
    use marketscope_core::json::Json;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn get_round_trip_and_pooling() {
        let server = HttpServer::spawn(|req: &Request| {
            Response::ok("text/plain", req.path.as_bytes().to_vec())
        })
        .unwrap();
        let client = HttpClient::new();
        for i in 0..5 {
            let resp = client.get(server.addr(), &format!("/ping/{i}")).unwrap();
            assert_eq!(resp.body, format!("/ping/{i}").into_bytes());
        }
        // All five requests reused one pooled connection.
        assert_eq!(client.idle_connections(), 1);
        assert_eq!(server.live_connections(), 1);
    }

    #[test]
    fn get_json_parses() {
        let server = HttpServer::spawn(|_req: &Request| {
            Response::json(&Json::obj([("apps", Json::from(vec![1i64, 2, 3]))]))
        })
        .unwrap();
        let client = HttpClient::new();
        let doc = client.get_json(server.addr(), "/index").unwrap();
        assert_eq!(doc.get("apps").unwrap().as_arr().unwrap().len(), 3);
    }

    #[test]
    fn non_200_statuses_surface() {
        let server = HttpServer::spawn(|req: &Request| {
            if req.path == "/limited" {
                Response::status(Status::TooManyRequests)
            } else {
                Response::status(Status::NotFound)
            }
        })
        .unwrap();
        let client = HttpClient::new();
        match client.get(server.addr(), "/limited") {
            Err(NetError::Status { code: 429, .. }) => {}
            other => panic!("expected 429, got {other:?}"),
        }
        match client.get(server.addr(), "/nope") {
            Err(NetError::Status { code: 404, .. }) => {}
            other => panic!("expected 404, got {other:?}"),
        }
    }

    #[test]
    fn status_errors_carry_the_servers_retry_hint() {
        let server = HttpServer::spawn(|_req: &Request| {
            Response::status_with_retry_after(Status::TooManyRequests, Duration::from_millis(500))
        })
        .unwrap();
        let client = HttpClient::new();
        match client.get(server.addr(), "/apk/x") {
            Err(e @ NetError::Status { code: 429, .. }) => {
                assert_eq!(e.retry_after(), Some(Duration::from_millis(500)));
            }
            other => panic!("expected hinted 429, got {other:?}"),
        }
    }

    #[test]
    fn connect_failure_is_reported() {
        // Bind-then-drop gives us a port that refuses connections.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let client = HttpClient::builder()
            .config(ClientConfig {
                retries: 0,
                connect_timeout: Duration::from_millis(300),
                ..ClientConfig::default()
            })
            .build();
        assert!(client.get(addr, "/x").is_err());
    }

    #[test]
    fn shared_across_threads() {
        let hits = Arc::new(AtomicU64::new(0));
        let server_hits = Arc::clone(&hits);
        let server = HttpServer::spawn(move |_req: &Request| {
            server_hits.fetch_add(1, Ordering::SeqCst);
            Response::ok("text/plain", b"ok".to_vec())
        })
        .unwrap();
        let client = Arc::new(HttpClient::new());
        let addr = server.addr();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let client = Arc::clone(&client);
                std::thread::spawn(move || {
                    for _ in 0..10 {
                        client.get(addr, "/x").unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(hits.load(Ordering::SeqCst), 40);
        assert!(client.idle_connections() <= 4);
    }

    #[test]
    fn stale_pooled_connections_are_discarded_without_a_retry() {
        use crate::reactor::ReactorConfig;
        use crate::server::ServerMetrics;
        // A server whose keep-alive reaper closes idle connections fast.
        let server = HttpServer::spawn_configured(
            "127.0.0.1:0",
            |_req: &Request| Response::ok("text/plain", b"ok".to_vec()),
            ServerMetrics::standalone(),
            None,
            ReactorConfig {
                keep_alive: Duration::from_millis(80),
                ..ReactorConfig::default()
            },
        )
        .unwrap();
        let registry = Registry::new();
        let client = HttpClient::builder()
            .metrics(ClientMetrics::register(&registry, &[]))
            .build();
        client.get(server.addr(), "/x").unwrap();
        assert_eq!(client.idle_connections(), 1);
        // Let the server reap the pooled connection while it sits idle.
        std::thread::sleep(Duration::from_millis(300));
        // The freshness probe discards it up front: no keep-alive race,
        // no transparent retry — a clean reconnect.
        client.get(server.addr(), "/x").unwrap();
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter_value("marketscope_net_client_retries_total", &[]),
            Some(0),
            "stale pooled connection must not cost a retry"
        );
    }

    #[test]
    fn metrics_record_latency_and_errors_by_kind() {
        let registry = Registry::new();
        let server = HttpServer::spawn(|req: &Request| {
            if req.path == "/limited" {
                Response::status(Status::TooManyRequests)
            } else {
                Response::ok("text/plain", b"ok".to_vec())
            }
        })
        .unwrap();
        let client = HttpClient::builder()
            .metrics(ClientMetrics::register(&registry, &[]))
            .build();
        client.get(server.addr(), "/ok").unwrap();
        assert!(matches!(
            client.get(server.addr(), "/limited"),
            Err(NetError::Status { code: 429, .. })
        ));
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter_value("marketscope_net_client_errors_total", &[("kind", "status")]),
            Some(1)
        );
        assert_eq!(
            snap.counter_value("marketscope_net_client_retries_total", &[]),
            Some(0)
        );
        let hist = snap
            .histogram("marketscope_net_client_request_nanos", &[])
            .unwrap();
        assert_eq!(hist.count(), 2);
        assert!(hist.sum > 0, "latency must have been recorded");
    }

    #[test]
    fn private_handles_report_exactly_what_registered_ones_do() {
        // One request script against a server/client pair on private
        // telemetry (`spawn` / `new`) and against a pair registered in
        // a shared registry: same counts, same error kinds.
        fn script(server: &ServerHandle, client: &HttpClient) -> (u64, Vec<&'static str>) {
            let dead = {
                let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
                l.local_addr().unwrap()
            };
            let kinds = [
                client.get(server.addr(), "/ok"),
                client.get(server.addr(), "/limited"),
                client.get(server.addr(), "/missing"),
                client.get(dead, "/x"),
            ]
            .into_iter()
            .filter_map(|r| r.err().map(|e| e.kind()))
            .collect();
            (server.request_count(), kinds)
        }
        let handler = |req: &Request| match req.path.as_str() {
            "/ok" => Response::ok("text/plain", b"ok".to_vec()),
            "/limited" => Response::status(Status::TooManyRequests),
            _ => Response::status(Status::NotFound),
        };
        let private = script(&HttpServer::spawn(handler).unwrap(), &HttpClient::new());

        let registry = Registry::new();
        let server = HttpServer::spawn_configured(
            "127.0.0.1:0",
            handler,
            crate::server::ServerMetrics::register(&registry, &[]),
            None,
            crate::reactor::ReactorConfig::default(),
        )
        .unwrap();
        let client = HttpClient::builder()
            .metrics(ClientMetrics::register(&registry, &[]))
            .build();
        let registered = script(&server, &client);

        assert_eq!(private, registered);
        assert_eq!(private, (3, vec!["status", "status", "io"]));
        let snap = registry.snapshot();
        let errors = snap.counter_sum("marketscope_net_client_errors_total", &[]);
        let requests = snap.counter_sum("marketscope_net_requests_total", &[]);
        assert_eq!((requests, errors), (3, 3));
    }

    #[test]
    fn pool_cap_is_respected() {
        let server =
            HttpServer::spawn(|_req: &Request| Response::ok("text/plain", b"ok".to_vec())).unwrap();
        let client = HttpClient::builder()
            .config(ClientConfig {
                pool_per_host: 1,
                ..ClientConfig::default()
            })
            .build();
        let addr = server.addr();
        // Two concurrent requests force two connections; only one returns
        // to the pool.
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| client.get(addr, "/x").unwrap());
            }
        });
        assert!(client.idle_connections() <= 1);
    }

    #[test]
    fn retry_policy_absorbs_hinted_503s() {
        // Every request 503s twice (with a cheap hint) before answering.
        let hits = Arc::new(AtomicU64::new(0));
        let server_hits = Arc::clone(&hits);
        let server = HttpServer::spawn(move |_req: &Request| {
            if server_hits.fetch_add(1, Ordering::SeqCst) % 3 < 2 {
                Response::status_with_retry_after(
                    Status::ServiceUnavailable,
                    Duration::from_millis(5),
                )
            } else {
                Response::ok("text/plain", b"ok".to_vec())
            }
        })
        .unwrap();
        let registry = Registry::new();
        let client = HttpClient::builder()
            .retry(RetryPolicy::default())
            .resilience_metrics(ResilienceMetrics::register(&registry, &[]))
            .build();
        for i in 0..5 {
            client.get(server.addr(), &format!("/item/{i}")).unwrap();
        }
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter_value("marketscope_net_client_resilient_retries_total", &[]),
            Some(10),
            "two retries per request"
        );
        assert!(
            snap.counter_value("marketscope_net_client_backoff_nanos_total", &[])
                .unwrap()
                >= 10 * 5_000_000,
            "each retry paid at least its 5ms hint"
        );
    }

    #[test]
    fn budget_surfaces_unaffordable_hints() {
        // Google Play shape: a 429 whose hint exceeds the budget must
        // surface immediately, not stall the harvest loop.
        let server = HttpServer::spawn(|_req: &Request| {
            Response::status_with_retry_after(Status::TooManyRequests, Duration::from_millis(500))
        })
        .unwrap();
        let client = HttpClient::builder().retry(RetryPolicy::default()).build();
        let start = std::time::Instant::now();
        assert!(matches!(
            client.get(server.addr(), "/apk/x"),
            Err(NetError::Status { code: 429, .. })
        ));
        assert!(
            start.elapsed() < Duration::from_millis(400),
            "hinted 429 must surface without sleeping"
        );
    }

    #[test]
    fn breaker_fast_fails_a_dead_host_and_recovers() {
        let down = Arc::new(std::sync::atomic::AtomicBool::new(true));
        let down_s = Arc::clone(&down);
        let server = HttpServer::spawn(move |_req: &Request| {
            if down_s.load(Ordering::SeqCst) {
                Response::status(Status::InternalError)
            } else {
                Response::ok("text/plain", b"ok".to_vec())
            }
        })
        .unwrap();
        let cfg = BreakerConfig {
            failure_threshold: 3,
            cooldown_rejections: 2,
            half_open_trials: 1,
        };
        let client = HttpClient::builder().breaker(cfg).build();
        let addr = server.addr();
        // Three terminal 500s trip the circuit.
        for _ in 0..3 {
            assert!(matches!(
                client.get(addr, "/x"),
                Err(NetError::Status { code: 500, .. })
            ));
        }
        assert_eq!(client.open_circuits(), 1);
        // Fast fails while open: no wire traffic.
        let served_before = server.request_count();
        for _ in 0..2 {
            assert!(matches!(client.get(addr, "/x"), Err(NetError::CircuitOpen)));
        }
        assert_eq!(server.request_count(), served_before);
        // Host recovers; the cooldown has elapsed, so the next request
        // probes and closes the circuit.
        down.store(false, Ordering::SeqCst);
        client.get(addr, "/x").unwrap();
        assert_eq!(client.open_circuits(), 0);
        client.get(addr, "/x").unwrap();
    }

    #[test]
    fn definitive_404s_never_trip_the_breaker() {
        let server =
            HttpServer::spawn(|_req: &Request| Response::status(Status::NotFound)).unwrap();
        let cfg = BreakerConfig {
            failure_threshold: 2,
            ..BreakerConfig::default()
        };
        let client = HttpClient::builder().breaker(cfg).build();
        for _ in 0..10 {
            assert!(matches!(
                client.get(server.addr(), "/nope"),
                Err(NetError::Status { code: 404, .. })
            ));
        }
        assert_eq!(client.open_circuits(), 0);
    }

    #[test]
    fn batched_gets_complete_in_spec_order() {
        let server = HttpServer::spawn(|req: &Request| {
            Response::ok("text/plain", req.path.as_bytes().to_vec())
        })
        .unwrap();
        let client = HttpClient::new();
        let specs: Vec<FetchSpec> = (0..32)
            .map(|i| FetchSpec::new(server.addr(), format!("/item/{i}")))
            .collect();
        let tickets: Vec<Ticket> = specs.iter().map(|s| client.submit_get(s)).collect();
        assert_eq!(tickets.len(), 32);
        for (i, t) in tickets.into_iter().enumerate() {
            let resp = client.wait(t).unwrap();
            assert_eq!(resp.body, format!("/item/{i}").into_bytes());
        }
    }

    #[test]
    fn lanes_serialize_same_key_submissions() {
        // The server logs arrival order; two lanes submitted interleaved
        // must each arrive in their own submission order.
        let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let seen_s = Arc::clone(&seen);
        let server = HttpServer::spawn(move |req: &Request| {
            seen_s.lock().push(req.path.clone());
            Response::ok("text/plain", b"ok".to_vec())
        })
        .unwrap();
        let client = HttpClient::new();
        let specs: Vec<FetchSpec> = (0..20)
            .map(|i| FetchSpec::new(server.addr(), format!("/lane{}/{}", i % 2, i / 2)).lane(i % 2))
            .collect();
        let tickets: Vec<Ticket> = specs.iter().map(|s| client.submit_get(s)).collect();
        assert!(tickets.into_iter().all(|t| client.wait(t).is_ok()));
        let order = seen.lock().clone();
        for lane in 0..2u64 {
            let got: Vec<&String> = order
                .iter()
                .filter(|p| p.starts_with(&format!("/lane{lane}/")))
                .collect();
            let want: Vec<String> = (0..10).map(|i| format!("/lane{lane}/{i}")).collect();
            assert_eq!(got.len(), 10);
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(**g, *w, "lane {lane} arrived out of submission order");
            }
        }
    }

    #[test]
    fn completion_queue_delivers_every_tag_once_across_shutdown() {
        use crate::mux::CompletionQueue;
        use std::time::Instant;
        // `/held` answers only once the gate opens, which is after the
        // client is gone: those tickets are outstanding at shutdown.
        let gate = Arc::new((std::sync::Mutex::new(false), std::sync::Condvar::new()));
        let server_gate = Arc::clone(&gate);
        let server = HttpServer::spawn(move |req: &Request| {
            if req.path.starts_with("/held") {
                let (open, opened) = &*server_gate;
                let mut open = open.lock().unwrap();
                while !*open {
                    open = opened.wait(open).unwrap();
                }
            }
            Response::ok("text/plain", b"ok".to_vec())
        })
        .unwrap();
        let client = HttpClient::new();
        let queue = Arc::new(CompletionQueue::new());
        let soon = || Some(Instant::now() + Duration::from_secs(10));

        // Registered after completing: the tag posts at once. (`after`
        // shares `done`'s lane, so its answer means `done` has one.)
        let early = Arc::new(CompletionQueue::new());
        let done = client.submit_get(&FetchSpec::new(server.addr(), "/answered").lane(7));
        let after = client.submit_get(&FetchSpec::new(server.addr(), "/answered").lane(7));
        after.notify(&early, 99);
        assert_eq!(early.wait_until(soon()), Some(99));
        done.notify(&queue, 0);

        let tickets: Vec<Ticket> = (1..=6u64)
            .map(|tag| {
                let path = if tag % 2 == 0 { "/held" } else { "/quick" };
                let ticket = client.submit_get(&FetchSpec::new(server.addr(), path));
                ticket.notify(&queue, tag);
                ticket
            })
            .collect();
        drop(client);
        {
            let (open, opened) = &*gate;
            *open.lock().unwrap() = true;
            opened.notify_all();
        }
        let mut tags = Vec::new();
        while let Some(tag) = queue.wait_until(Some(Instant::now())) {
            tags.push(tag);
        }
        tags.sort_unstable();
        assert_eq!(tags, (0..=6).collect::<Vec<u64>>(), "each tag exactly once");
        assert!(early.wait_until(Some(Instant::now())).is_none());
        drop((done, after, tickets));
    }

    #[test]
    fn get_json_decode_failures_are_classified_and_counted() {
        // A 200 whose body is not JSON must surface as a protocol error
        // AND hit the error counters / breaker seam like any terminal
        // failure.
        let registry = Registry::new();
        let server = HttpServer::spawn(|_req: &Request| {
            Response::ok("application/json", b"not json at all".to_vec())
        })
        .unwrap();
        let client = HttpClient::builder()
            .metrics(ClientMetrics::register(&registry, &[]))
            .breaker(BreakerConfig::default())
            .build();
        for _ in 0..3 {
            assert!(matches!(
                client.get_json(server.addr(), "/index"),
                Err(NetError::Protocol("response body not valid json"))
            ));
        }
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter_value(
                "marketscope_net_client_errors_total",
                &[("kind", "protocol")]
            ),
            Some(3),
            "decode failures must be counted"
        );
        // A decodable-but-malformed answer is a definitive reply, not
        // host distress: the breaker stays closed.
        assert_eq!(client.open_circuits(), 0);
    }
}
