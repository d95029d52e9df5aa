//! Blocking-vs-batched equivalence: the blocking `get` surface and the
//! submit/complete batch surface are the same machine, and these tests
//! hold them to it. Two identically seeded fault servers see the same
//! request sequence — one driven by sequential blocking calls, one by a
//! single-lane batch submitted all at once — and every observable must
//! match: per-request outcomes, resilience counters, retry span shapes,
//! and the request index at which a circuit breaker trips.

use marketscope_net::client::{ClientConfig, ClientMetrics, FetchSpec, HttpClient};
use marketscope_net::error::NetError;
use marketscope_net::fault::{FaultInjector, FaultPlan};
use marketscope_net::http::{Request, Response, Status};
use marketscope_net::reactor::{ReactorConfig, Transport};
use marketscope_net::resilience::{BreakerConfig, ResilienceMetrics, RetryPolicy};
use marketscope_net::server::{Handler, HttpServer, ServerHandle, ServerMetrics};
use marketscope_telemetry::trace::{SpanContext, Tracer, TracerConfig};
use marketscope_telemetry::{JournalSnapshot, Registry};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

fn ping_router() -> impl Handler {
    |req: &Request| match req.path.as_str() {
        "/ping" => Response::ok("text/plain", b"pong".to_vec()),
        _ => Response::status(Status::NotFound),
    }
}

fn faulty_server(seed: u64, plan: FaultPlan) -> ServerHandle {
    HttpServer::spawn_on(
        &Transport::spawn(ReactorConfig::default()).unwrap(),
        "127.0.0.1:0",
        ping_router(),
        ServerMetrics::standalone(),
        Some(Arc::new(FaultInjector::new(seed, plan))),
    )
    .unwrap()
}

/// A deterministic fingerprint of one request outcome: full body on
/// success, error kind (plus status code) on failure.
fn fingerprint(result: Result<Response, NetError>) -> String {
    match result {
        Ok(resp) => format!(
            "ok:{}:{}",
            resp.status.code(),
            String::from_utf8_lossy(&resp.body)
        ),
        Err(NetError::Status { code, .. }) => format!("status:{code}"),
        Err(e) => format!("err:{}", e.kind()),
    }
}

/// Run `n` requests for `/ping` the blocking way: one `get` at a time.
fn blocking_fingerprints(client: &HttpClient, server: &ServerHandle, n: usize) -> Vec<String> {
    (0..n)
        .map(|_| fingerprint(client.get(server.addr(), "/ping")))
        .collect()
}

/// Run `n` requests for `/ping` the batched way: every submission
/// enqueued up front on one ordering lane, then drained in order.
fn batched_fingerprints(client: &HttpClient, server: &ServerHandle, n: usize) -> Vec<String> {
    let answers: Vec<_> = (0..n)
        .map(|_| {
            let (tx, rx) = mpsc::channel();
            let spec = FetchSpec::new(server.addr(), "/ping").lane(7);
            client.submit(&spec, move |r| {
                let _ = tx.send(r);
            });
            rx
        })
        .collect();
    answers
        .into_iter()
        .map(|rx| fingerprint(rx.recv().unwrap()))
        .collect()
}

#[test]
fn batched_outcomes_match_blocking_outcomes_under_seeded_chaos() {
    // Mixed weather: flapping downtime windows plus probabilistic 503s.
    // Same seed + same request order ⇒ the two servers inject the same
    // fault at the same request index.
    let plan = FaultPlan {
        downtime_every: 5,
        downtime_len: 2,
        error_5xx: 0.3,
        error_retry_after: Some(Duration::from_millis(5)),
        ..FaultPlan::none()
    };
    let bare = || {
        HttpClient::builder()
            .config(ClientConfig {
                retries: 0,
                ..ClientConfig::default()
            })
            .build()
    };

    let blocking_server = faulty_server(42, plan);
    let blocking = blocking_fingerprints(&bare(), &blocking_server, 24);

    let batched_server = faulty_server(42, plan);
    let batched = batched_fingerprints(&bare(), &batched_server, 24);

    assert_eq!(blocking, batched);
    assert_eq!(
        blocking_server.request_count(),
        batched_server.request_count(),
        "both servers must have seen the same wire traffic"
    );
}

#[test]
fn resilient_retries_ride_out_chaos_identically_on_both_paths() {
    // Every 8th request lands in a one-request downtime window; the
    // retry policy absorbs each hit invisibly on both surfaces, and the
    // resilience counters must agree exactly.
    let plan = FaultPlan {
        downtime_every: 8,
        downtime_len: 1,
        ..FaultPlan::none()
    };
    let resilient = |registry: &Registry| {
        HttpClient::builder()
            .config(ClientConfig {
                retries: 0,
                ..ClientConfig::default()
            })
            .retry(RetryPolicy::default())
            .metrics(ClientMetrics::register(registry, &[]))
            .resilience_metrics(ResilienceMetrics::register(registry, &[]))
            .build()
    };
    let retries_in = |registry: &Registry| {
        registry
            .snapshot()
            .counter_value("marketscope_net_client_resilient_retries_total", &[])
            .unwrap_or(0)
    };

    let blocking_registry = Registry::new();
    let blocking_server = faulty_server(9, plan);
    let blocking = blocking_fingerprints(&resilient(&blocking_registry), &blocking_server, 24);

    let batched_registry = Registry::new();
    let batched_server = faulty_server(9, plan);
    let batched = batched_fingerprints(&resilient(&batched_registry), &batched_server, 24);

    assert_eq!(blocking, batched);
    assert!(
        blocking.iter().all(|f| f == "ok:200:pong"),
        "the policy should have retried every window hit: {blocking:?}"
    );
    let (a, b) = (
        retries_in(&blocking_registry),
        retries_in(&batched_registry),
    );
    assert_eq!(a, b, "resilient retry counts diverged");
    assert!(a >= 3, "downtime hits must show up as retries: {a}");
}

/// Server-side records land after the response is written; poll briefly.
fn snapshot_with_at_least(tracer: &Arc<Tracer>, n: usize) -> JournalSnapshot {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let snap = tracer.snapshot();
        if snap.records.len() >= n || Instant::now() > deadline {
            return snap;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The client-side shape of one trace: `(name, parent name, events)`
/// for every client-component span, sorted. Ids and timings are
/// run-specific; the shape is what both paths must share.
fn client_shape(snap: &JournalSnapshot, root: SpanContext) -> Vec<(String, String, Vec<String>)> {
    let spans = snap.trace(root.trace_id);
    let name_of = |id| {
        spans
            .iter()
            .find(|r| r.span_id == id)
            .map(|r| r.name.clone())
            .unwrap_or_else(|| "root".to_owned())
    };
    let mut shape: Vec<_> = spans
        .iter()
        .filter(|r| r.component == "client")
        .map(|r| {
            (
                r.name.clone(),
                r.parent_id.map(&name_of).unwrap_or_default(),
                r.events.iter().map(|e| e.label.clone()).collect::<Vec<_>>(),
            )
        })
        .collect();
    shape.sort();
    shape
}

#[test]
fn transparent_retry_spans_share_their_shape_across_paths() {
    // Request index 0 falls in a downtime window, so the first logical
    // request needs a transparent in-wire retry: attempt#0 fails,
    // attempt#1 (tagged with a `retry` event) succeeds. Both surfaces
    // must journal exactly that tree.
    let plan = FaultPlan {
        downtime_every: 4,
        downtime_len: 1,
        ..FaultPlan::none()
    };
    let client_with = |tracer: &Arc<Tracer>| {
        HttpClient::builder()
            .config(ClientConfig {
                retries: 2,
                ..ClientConfig::default()
            })
            .tracer(Arc::clone(tracer))
            .build()
    };

    let blocking_tracer = Arc::new(Tracer::new(TracerConfig::always(256)));
    let blocking_server = faulty_server(11, plan);
    let client = client_with(&blocking_tracer);
    let root = blocking_tracer.root_span("test", "fetch");
    let root_ctx = root.context().unwrap();
    client.get(blocking_server.addr(), "/ping").unwrap();
    root.finish();
    // root + request + two attempts = 4 records.
    let blocking_shape = client_shape(&snapshot_with_at_least(&blocking_tracer, 4), root_ctx);

    let batched_tracer = Arc::new(Tracer::new(TracerConfig::always(256)));
    let batched_server = faulty_server(11, plan);
    let client = client_with(&batched_tracer);
    let root = batched_tracer.root_span("test", "fetch");
    let root_ctx = root.context().unwrap();
    let (tx, rx) = mpsc::channel();
    let spec = FetchSpec::new(batched_server.addr(), "/ping").parent(root.context());
    client.submit(&spec, move |r| {
        let _ = tx.send(r);
    });
    rx.recv().unwrap().unwrap();
    root.finish();
    let batched_shape = client_shape(&snapshot_with_at_least(&batched_tracer, 4), root_ctx);

    assert_eq!(blocking_shape, batched_shape);
    assert!(
        blocking_shape
            .iter()
            .any(|(name, _, _)| name == "attempt#1"),
        "the window hit must have forced a second attempt: {blocking_shape:?}"
    );
    assert!(
        blocking_shape
            .iter()
            .any(|(name, _, events)| name == "attempt#1" && events.iter().any(|e| e == "retry")),
        "attempt#1 must carry the retry event: {blocking_shape:?}"
    );
}

#[test]
fn breakers_trip_at_the_same_request_index_on_both_paths() {
    // A market that never comes back: three transient failures open the
    // breaker, then every further request fast-fails without touching
    // the wire — at the same index whether the requests were issued one
    // at a time or batched up front on one lane.
    let plan = FaultPlan {
        downtime_every: 1_000_000,
        downtime_len: 1_000_000,
        ..FaultPlan::none()
    };
    let breaker_client = || {
        HttpClient::builder()
            .config(ClientConfig {
                retries: 0,
                ..ClientConfig::default()
            })
            .breaker(BreakerConfig {
                failure_threshold: 3,
                cooldown_rejections: 100,
                half_open_trials: 1,
            })
            .build()
    };

    let blocking_server = faulty_server(8, plan);
    let blocking = blocking_fingerprints(&breaker_client(), &blocking_server, 7);

    let batched_server = faulty_server(8, plan);
    let batched = batched_fingerprints(&breaker_client(), &batched_server, 7);

    assert_eq!(blocking, batched);
    assert_eq!(
        &blocking[3..],
        &["err:circuit_open"; 4],
        "requests past the threshold must fast-fail: {blocking:?}"
    );
    assert_eq!(
        blocking_server.request_count(),
        batched_server.request_count(),
        "an open circuit must keep batched submissions off the wire too"
    );
}
