//! Telemetry overhead: instrument record costs in isolation, and the
//! instrumented-vs-uninstrumented HTTP round trip.
//!
//! The acceptance bar is that full instrumentation (server counters +
//! latency histogram + client latency/retry/error instruments) costs
//! under 5% of a loopback round trip. Record paths are a handful of
//! relaxed atomic adds (~10-15 ns), three orders of magnitude below the
//! tens of microseconds a round trip takes.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use marketscope::net::http::{Request, Response};
use marketscope::net::router::Params;
use marketscope::net::{
    ClientMetrics, HttpClient, HttpServer, ReactorConfig, Router, ServerMetrics,
};
use marketscope::telemetry::{Counter, Histogram, Registry};
use std::sync::Arc;
use std::time::Duration;

fn bench_instruments(c: &mut Criterion) {
    let mut g = c.benchmark_group("telemetry/record");
    let counter = Counter::new();
    g.bench_function("counter_inc", |b| {
        b.iter(|| {
            counter.inc();
            black_box(&counter);
        })
    });
    let histogram = Histogram::new();
    g.bench_function("histogram_record", |b| {
        let mut v = 1u64;
        b.iter(|| {
            histogram.record(black_box(v));
            v = v.wrapping_mul(31).wrapping_add(7);
        })
    });
    g.bench_function("span_start_drop", |b| {
        b.iter(|| {
            let span = histogram.start_span();
            black_box(&span);
        })
    });
    let registry = Registry::new();
    g.bench_function("registry_counter_hit", |b| {
        b.iter(|| {
            // Steady-state get-or-create: read-lock + clone of the Arc.
            black_box(registry.counter("marketscope_bench_hits_total", &[("market", "gp")]))
        })
    });
    g.finish();
}

fn ping_router() -> Router {
    Router::new().get("/ping", |_req: &Request, _: &Params| {
        Response::ok("text/plain", b"pong".to_vec())
    })
}

fn bench_round_trip(c: &mut Criterion) {
    let mut g = c.benchmark_group("telemetry/round_trip");
    g.measurement_time(Duration::from_secs(5));

    // Baseline: plain server, client with no instruments.
    let bare_server = HttpServer::spawn(ping_router()).unwrap();
    let bare_client = HttpClient::new();
    g.bench_function("uninstrumented", |b| {
        b.iter(|| black_box(bare_client.get(bare_server.addr(), "/ping").unwrap()))
    });

    // Fully instrumented: registry-backed server metrics + client
    // latency/retry/error instruments.
    let registry = Arc::new(Registry::new());
    let server_metrics = ServerMetrics::register(&registry, &[("market", "bench")]);
    let server = HttpServer::spawn_configured(
        "127.0.0.1:0",
        ping_router(),
        server_metrics,
        None,
        ReactorConfig::default(),
    )
    .unwrap();
    let client = HttpClient::builder()
        .metrics(ClientMetrics::register(&registry, &[]))
        .build();
    g.bench_function("instrumented", |b| {
        b.iter(|| black_box(client.get(server.addr(), "/ping").unwrap()))
    });
    g.finish();

    bare_server.stop();
    server.stop();
}

fn bench_traced_round_trip(c: &mut Criterion) {
    use marketscope::telemetry::trace::{Tracer, TracerConfig};

    let mut g = c.benchmark_group("telemetry/traced_round_trip");
    g.measurement_time(Duration::from_secs(5));

    // Baseline: tracing hooks compiled in but no tracer attached.
    let bare_server = HttpServer::spawn(ping_router()).unwrap();
    let bare_client = HttpClient::new();
    g.bench_function("untraced", |b| {
        b.iter(|| black_box(bare_client.get(bare_server.addr(), "/ping").unwrap()))
    });

    // Tracer attached on both sides, sampling off: every request walks
    // the no-op span paths (the production default).
    let cold = Arc::new(Tracer::new(TracerConfig::propagate_only(4096)));
    let cold_server = HttpServer::spawn_configured(
        "127.0.0.1:0",
        ping_router(),
        ServerMetrics::standalone().traced(Arc::clone(&cold)),
        None,
        ReactorConfig::default(),
    )
    .unwrap();
    let cold_client = HttpClient::builder().tracer(Arc::clone(&cold)).build();
    g.bench_function("traced_rate0", |b| {
        b.iter(|| black_box(cold_client.get(cold_server.addr(), "/ping").unwrap()))
    });

    // Every request sampled: span allocation, header injection, remote
    // child spans and journal writes all on the hot path.
    let hot = Arc::new(Tracer::new(TracerConfig::always(4096)));
    let hot_server = HttpServer::spawn_configured(
        "127.0.0.1:0",
        ping_router(),
        ServerMetrics::standalone().traced(Arc::clone(&hot)),
        None,
        ReactorConfig::default(),
    )
    .unwrap();
    let hot_client = HttpClient::builder().tracer(Arc::clone(&hot)).build();
    g.bench_function("traced_sampled", |b| {
        b.iter(|| {
            let root = hot.root_span("bench", "ping");
            let resp = hot_client.get(hot_server.addr(), "/ping").unwrap();
            root.finish();
            black_box(resp)
        })
    });
    g.finish();

    bare_server.stop();
    cold_server.stop();
    hot_server.stop();
}

criterion_group!(
    benches,
    bench_instruments,
    bench_round_trip,
    bench_traced_round_trip
);
criterion_main!(benches);
