//! The HTTP client: keep-alive connection pooling, timeouts, classified
//! retries, and optional circuit breaking — all executed by the
//! multiplexed [`mux`](crate::mux) driver.
//!
//! Every [`HttpClient`] call is a GET submitted to the client's one
//! driver thread together with the callback that receives its outcome.
//! Batch callers submit with [`HttpClient::submit`] /
//! [`HttpClient::submit_json`] to put hundreds of requests in flight from
//! a single thread; `get`/`get_json` submit with a one-shot channel and
//! wait on it, so a caller blocked in `get` costs a parked channel, not a
//! socket-bound thread.

use crate::error::NetError;
use crate::http::Response;
use crate::mux::{shut_down, Callback, Driver, DriverHandle, Shared, Submission};
use crate::resilience::{BreakerConfig, BreakerSet, ResilienceMetrics, RetryPolicy};
use marketscope_core::json::Json;
use marketscope_telemetry::{trace, Counter, Histogram, Registry, SpanContext, Tracer};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
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
    /// connection retries).
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
    /// retryable (`NetError::is_retryable`) failures with deterministic
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

    /// Build the client. Its driver thread spawns lazily on the first
    /// submission.
    pub fn build(self) -> HttpClient {
        let resilience = self.resilience_metrics;
        let breakers = self
            .breaker
            .map(|cfg| BreakerSet::new(cfg, resilience.clone()));
        HttpClient {
            shared: Arc::new(Shared {
                config: self.config,
                tracer: self.tracer,
                metrics: self.metrics,
                retry: self.retry,
                breakers,
                resilience,
                pool: Mutex::new(HashMap::new()),
                shutdown: AtomicBool::new(false),
            }),
            driver: Mutex::new(None),
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
    /// Ordering lane: submissions to one server sharing a lane key share
    /// one connection, up to [`LANE_DEPTH`](crate::mux::LANE_DEPTH)
    /// written ahead in submission order, and their answers apply in that
    /// order (a per-market batch reaches its server in the sequence a
    /// blocking loop sends). `None` is a lane of its own.
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

    /// Order this fetch behind every other fetch sharing `lane`.
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
/// one breaker set, and one driver thread). Dropping it joins the driver;
/// callbacks of submissions still outstanding then run with an I/O error
/// rather than never.
pub struct HttpClient {
    shared: Arc<Shared>,
    /// Spawned by the first submission, so that clients which never issue
    /// a request (and tests that meter process thread counts around other
    /// components) cost no thread.
    driver: Mutex<Option<DriverHandle>>,
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

    /// Enqueue one GET without waiting: the driver runs the full
    /// retry/breaker/trace policy and then `callback`, once, on its own
    /// thread, in lane order, so a callback hands its outcome on (down a
    /// channel, say) rather than blocking. The open-loop form of
    /// [`HttpClient::get`].
    pub fn submit(
        &self,
        spec: &FetchSpec,
        callback: impl FnOnce(Result<Response, NetError>) + Send + 'static,
    ) {
        self.enqueue(Submission::get(
            spec,
            Callback::Response(Box::new(callback)),
        ));
    }

    /// Enqueue one JSON GET without waiting, the body decoded on the
    /// driver before `callback` runs. The open-loop form of
    /// [`HttpClient::get_json`].
    pub fn submit_json(
        &self,
        spec: &FetchSpec,
        callback: impl FnOnce(Result<Json, NetError>) + Send + 'static,
    ) {
        self.enqueue(Submission::get(spec, Callback::Json(Box::new(callback))));
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
        let (tx, rx) = mpsc::sync_channel(1);
        self.submit(&FetchSpec::new(addr, path_and_query), move |r| {
            let _ = tx.send(r);
        });
        rx.recv().unwrap_or_else(|_| Err(shut_down()))
    }

    /// Convenience: GET a path, parse the body as JSON, require a 200.
    ///
    /// Runs the same retry/breaker/trace policy as [`HttpClient::get`],
    /// and the body decodes on the driver: a malformed body is
    /// classified, counted, and settled with the breaker exactly like any
    /// other terminal failure.
    pub fn get_json(&self, addr: SocketAddr, path_and_query: &str) -> Result<Json, NetError> {
        let (tx, rx) = mpsc::sync_channel(1);
        self.submit_json(&FetchSpec::new(addr, path_and_query), move |r| {
            let _ = tx.send(r);
        });
        rx.recv().unwrap_or_else(|_| Err(shut_down()))
    }

    /// Hand one GET to the driver, spawning it on first use; a driver
    /// that cannot spawn fails the submission at once.
    fn enqueue(&self, sub: Submission) {
        let mut driver = self.driver.lock();
        if driver.is_none() {
            match Driver::spawn(Arc::clone(&self.shared)) {
                Ok(spawned) => *driver = Some(spawned),
                Err(e) => return sub.fail(NetError::Io(e), &self.shared.metrics),
            }
        }
        if let Some((_, inbox)) = driver.as_ref() {
            inbox.post(sub);
        }
    }
}

impl Default for HttpClient {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for HttpClient {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some((handle, inbox)) = self.driver.lock().take() {
            inbox.wake();
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{Request, Status};
    use crate::reactor::{ReactorConfig, Transport};
    use crate::server::{HttpServer, ServerHandle, ServerMetrics};
    use marketscope_core::json::Json;
    use std::sync::atomic::AtomicU64;

    /// Idle pooled connections across hosts.
    fn idle_connections(client: &HttpClient) -> usize {
        client.shared.pool.lock().values().map(Vec::len).sum()
    }

    /// Per-host circuits not closed, from the resilience gauge.
    fn open_circuits(registry: &Registry) -> Option<i64> {
        registry
            .snapshot()
            .gauge_value("marketscope_net_client_open_circuits", &[])
    }

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
        assert_eq!(idle_connections(&client), 1);
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
        assert!(idle_connections(&client) <= 4);
    }

    #[test]
    fn stale_pooled_connections_are_discarded_without_a_retry() {
        // A server whose keep-alive reaper closes idle connections fast.
        let server = HttpServer::spawn_on(
            &Transport::spawn(ReactorConfig {
                keep_alive: Duration::from_millis(80),
                ..ReactorConfig::default()
            })
            .unwrap(),
            "127.0.0.1:0",
            |_req: &Request| Response::ok("text/plain", b"ok".to_vec()),
            ServerMetrics::standalone(),
            None,
        )
        .unwrap();
        let registry = Registry::new();
        let client = HttpClient::builder()
            .metrics(ClientMetrics::register(&registry, &[]))
            .build();
        client.get(server.addr(), "/x").unwrap();
        assert_eq!(idle_connections(&client), 1);
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
        let server = HttpServer::spawn_on(
            &Transport::spawn(ReactorConfig::default()).unwrap(),
            "127.0.0.1:0",
            handler,
            ServerMetrics::register(&registry, &[]),
            None,
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
        assert!(idle_connections(&client) <= 1);
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
    fn a_hint_past_the_largest_duration_is_dropped_not_fatal() {
        // `Duration::from_secs_f64(1e30)` panics; parsed inside the
        // driver, it would kill the thread every caller waits on.
        let server = HttpServer::spawn(|_req: &Request| {
            let mut resp = Response::status(Status::ServiceUnavailable);
            resp.headers.insert("retry-after".into(), "1e30".into());
            resp
        })
        .unwrap();
        let client = HttpClient::builder().retry(RetryPolicy::default()).build();
        // Twice: the driver outlived the first answer.
        for _ in 0..2 {
            match client.get(server.addr(), "/x") {
                Err(NetError::Status {
                    code: 503,
                    retry_after: None,
                }) => {}
                other => panic!("expected a hint-less 503, got {other:?}"),
            }
        }
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
        let registry = Registry::new();
        let client = HttpClient::builder()
            .breaker(cfg)
            .resilience_metrics(ResilienceMetrics::register(&registry, &[]))
            .build();
        let addr = server.addr();
        // Three terminal 500s trip the circuit.
        for _ in 0..3 {
            assert!(matches!(
                client.get(addr, "/x"),
                Err(NetError::Status { code: 500, .. })
            ));
        }
        assert_eq!(open_circuits(&registry), Some(1));
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
        assert_eq!(open_circuits(&registry), Some(0));
        client.get(addr, "/x").unwrap();
    }

    #[test]
    fn a_probe_that_retries_still_settles_its_circuit() {
        // The host 503s, with a cheap hint, its first 22 wire requests:
        // five requests of four tries each open the circuit, and the
        // half-open probe and its one admitted retry take two more. It
        // answers 200 after that.
        const SICK: u64 = 22;
        let hits = Arc::new(AtomicU64::new(0));
        let server_hits = Arc::clone(&hits);
        let server = HttpServer::spawn(move |_req: &Request| {
            if server_hits.fetch_add(1, Ordering::SeqCst) < SICK {
                Response::status_with_retry_after(
                    Status::ServiceUnavailable,
                    Duration::from_millis(5),
                )
            } else {
                Response::ok("text/plain", b"ok".to_vec())
            }
        })
        .unwrap();
        let cfg = BreakerConfig::default();
        let client = HttpClient::builder()
            .retry(RetryPolicy::default())
            .breaker(cfg)
            .build();
        let addr = server.addr();
        for sent in 0.. {
            if hits.load(Ordering::SeqCst) >= SICK {
                break;
            }
            assert!(sent < 100, "the host saw {hits:?} requests");
            assert!(client.get(addr, "/x").is_err());
        }
        // The probe's last retry was refused, so the breaker heard its
        // 503 from the refusal: the circuit is open again, and probes the
        // healed host once the cooldown has passed.
        let healed = (0..=cfg.cooldown_rejections).any(|_| client.get(addr, "/x").is_ok());
        assert!(healed, "a healed host stays fast-failed");
        assert_eq!(hits.load(Ordering::SeqCst), SICK + 1);
    }

    #[test]
    fn definitive_404s_never_trip_the_breaker() {
        let server =
            HttpServer::spawn(|_req: &Request| Response::status(Status::NotFound)).unwrap();
        let cfg = BreakerConfig {
            failure_threshold: 2,
            ..BreakerConfig::default()
        };
        let registry = Registry::new();
        let client = HttpClient::builder()
            .breaker(cfg)
            .resilience_metrics(ResilienceMetrics::register(&registry, &[]))
            .build();
        for _ in 0..10 {
            assert!(matches!(
                client.get(server.addr(), "/nope"),
                Err(NetError::Status { code: 404, .. })
            ));
        }
        assert_eq!(open_circuits(&registry), Some(0));
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
        let waits: Vec<_> = specs
            .iter()
            .map(|s| {
                let (tx, rx) = mpsc::channel();
                client.submit(s, move |r| {
                    let _ = tx.send(r);
                });
                rx
            })
            .collect();
        assert_eq!(waits.len(), 32);
        for (i, rx) in waits.into_iter().enumerate() {
            let resp = rx.recv().unwrap().unwrap();
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
        let (tx, rx) = mpsc::channel();
        for s in &specs {
            let tx = tx.clone();
            client.submit(s, move |r| {
                let _ = tx.send(r);
            });
        }
        drop(tx);
        assert!(rx.iter().all(|r| r.is_ok()));
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

    /// A lane's callbacks run in submission order: a front parked on a
    /// hinted 503 holds back followers that are already answered. The
    /// crawl loop applies each answer as it arrives and relies on this.
    #[test]
    fn a_lane_posts_its_tags_in_submission_order_behind_a_parked_front() {
        use crate::mux::LANE_DEPTH;
        use std::io::{Read, Write};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // One connection: answer nothing until the whole lane is written,
        // then the front a 503 with a 20 ms hint and the followers 200,
        // then the front's retry 200. Returns the paths in arrival order.
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let (mut buf, mut paths) = (Vec::new(), Vec::new());
            let mut read_until = |stream: &mut std::net::TcpStream, n: usize| {
                while paths.len() < n {
                    while let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                        let head: Vec<u8> = buf.drain(..end + 4).collect();
                        let line = String::from_utf8_lossy(&head);
                        paths.push(line.split_whitespace().nth(1).unwrap().to_owned());
                    }
                    if paths.len() < n {
                        let mut chunk = [0u8; 4096];
                        let got = stream.read(&mut chunk).expect("the client went quiet");
                        assert!(got > 0, "the client hung up");
                        buf.extend_from_slice(&chunk[..got]);
                    }
                }
                paths.clone()
            };
            let ok = |path: &str| {
                format!(
                    "HTTP/1.1 200 OK\r\ncontent-length: {}\r\n\r\n{path}",
                    path.len()
                )
            };
            let lane = read_until(&mut stream, LANE_DEPTH);
            let mut answers =
                "HTTP/1.1 503 Service Unavailable\r\nretry-after: 0.02\r\ncontent-length: 0\r\n\r\n"
                    .to_owned();
            for path in &lane[1..] {
                answers.push_str(&ok(path));
            }
            stream.write_all(answers.as_bytes()).unwrap();
            let all = read_until(&mut stream, LANE_DEPTH + 1);
            stream.write_all(ok(&all[LANE_DEPTH]).as_bytes()).unwrap();
            all
        });
        let client = HttpClient::builder().retry(RetryPolicy::default()).build();
        let (tx, rx) = mpsc::channel();
        for tag in 0..LANE_DEPTH as u64 {
            let spec = FetchSpec::new(addr, format!("/item/{tag}")).lane(1);
            let tx = tx.clone();
            client.submit(&spec, move |r| {
                let _ = tx.send((tag, r));
            });
        }
        let answers: Vec<_> = (0..LANE_DEPTH).map(|_| rx.recv().unwrap()).collect();
        let tags: Vec<u64> = answers.iter().map(|(tag, _)| *tag).collect();
        assert_eq!(tags, (0..LANE_DEPTH as u64).collect::<Vec<_>>());
        for (i, (_, answer)) in answers.into_iter().enumerate() {
            let body = answer.unwrap().body;
            assert_eq!(body, format!("/item/{i}").into_bytes());
        }
        let arrived = peer.join().unwrap();
        let mut want: Vec<String> = (0..LANE_DEPTH).map(|i| format!("/item/{i}")).collect();
        want.push("/item/0".to_owned());
        assert_eq!(
            arrived, want,
            "the followers were answered before the retry"
        );
    }

    #[test]
    fn completion_queue_delivers_every_tag_once_across_shutdown() {
        // `/held` answers only once the gate opens, which is after the
        // client is gone: those submissions are outstanding at shutdown.
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
        let (tx, rx) = mpsc::channel();
        for tag in 0..=6u64 {
            let path = if tag % 2 == 0 { "/held" } else { "/quick" };
            let tx = tx.clone();
            client.submit(&FetchSpec::new(server.addr(), path), move |r| {
                let _ = tx.send((tag, r.is_ok()));
            });
        }
        drop((tx, client));
        {
            let (open, opened) = &*gate;
            *open.lock().unwrap() = true;
            opened.notify_all();
        }
        // Every callback ran, and ran once: the channel's last sender
        // went with it.
        let mut ran: Vec<(u64, bool)> = rx.iter().collect();
        ran.sort_unstable();
        let tags: Vec<u64> = ran.iter().map(|(tag, _)| *tag).collect();
        assert_eq!(
            tags,
            (0..=6).collect::<Vec<u64>>(),
            "each callback exactly once"
        );
        // The held ones were aborted by the drop.
        assert!(ran.iter().all(|&(tag, ok)| tag % 2 == 1 || !ok));
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
            .resilience_metrics(ResilienceMetrics::register(&registry, &[]))
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
        assert_eq!(open_circuits(&registry), Some(0));
    }
}
