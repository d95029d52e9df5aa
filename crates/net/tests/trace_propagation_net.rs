//! Trace-context propagation across the client/server wire: one sampled
//! crawl-side span yields a linked server-side span tree, and an
//! unsampled request leaves no journal entries and no header.

use marketscope_net::client::HttpClient;
use marketscope_net::http::{Request, Response};
use marketscope_net::reactor::{ReactorConfig, Transport};
use marketscope_net::server::{HttpServer, ServerMetrics};
use marketscope_telemetry::trace::{Tracer, TracerConfig};
use marketscope_telemetry::{JournalSnapshot, TRACE_HEADER};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server-side span records land *after* the response is written, so a
/// client-side snapshot races them; poll briefly.
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

#[test]
fn sampled_request_links_client_and_server_spans() {
    let tracer = Arc::new(Tracer::new(TracerConfig::always(256)));
    let server = HttpServer::spawn_on(
        &Transport::spawn(ReactorConfig::default()).unwrap(),
        "127.0.0.1:0",
        |_req: &Request| Response::ok("text/plain", b"ok".to_vec()),
        ServerMetrics::standalone().traced(Arc::clone(&tracer)),
        None,
    )
    .unwrap();
    let client = HttpClient::builder().tracer(Arc::clone(&tracer)).build();

    let root = tracer.root_span("crawler", "fetch /x");
    let root_ctx = root.context().unwrap();
    client.get(server.addr(), "/x").unwrap();
    root.finish();

    // root + request + attempt + server request + handler + write = 6.
    let snap = snapshot_with_at_least(&tracer, 6);
    let spans = snap.trace(root_ctx.trace_id);
    assert_eq!(spans.len(), 6, "spans: {spans:#?}");

    let request = spans
        .iter()
        .find(|r| r.component == "client" && r.name == "GET /x")
        .expect("client request span");
    assert_eq!(request.parent_id, Some(root_ctx.span_id));

    let attempt = spans
        .iter()
        .find(|r| r.component == "client" && r.name == "attempt#0")
        .expect("attempt span");
    assert_eq!(attempt.parent_id, Some(request.span_id));

    // The server-side request span is a remote child of the attempt.
    let server_req = spans
        .iter()
        .find(|r| r.component == "server" && r.name == "GET /x")
        .expect("server request span");
    assert_eq!(server_req.parent_id, Some(attempt.span_id));
    assert!(server_req.events.iter().any(|e| e.label == "status:200"));

    for name in ["handler", "write"] {
        let child = spans
            .iter()
            .find(|r| r.component == "server" && r.name == name)
            .unwrap_or_else(|| panic!("missing server {name} span"));
        assert_eq!(child.parent_id, Some(server_req.span_id));
    }
}

#[test]
fn unsampled_request_sends_no_header_and_records_nothing() {
    let tracer = Arc::new(Tracer::new(TracerConfig::propagate_only(256)));
    let saw_header = Arc::new(AtomicBool::new(false));
    let saw = Arc::clone(&saw_header);
    let server = HttpServer::spawn_on(
        &Transport::spawn(ReactorConfig::default()).unwrap(),
        "127.0.0.1:0",
        move |req: &Request| {
            if req.header(TRACE_HEADER).is_some() {
                saw.store(true, Ordering::SeqCst);
            }
            Response::ok("text/plain", b"ok".to_vec())
        },
        ServerMetrics::standalone().traced(Arc::clone(&tracer)),
        None,
    )
    .unwrap();
    let client = HttpClient::builder().tracer(Arc::clone(&tracer)).build();

    let root = tracer.root_span("crawler", "fetch /x"); // rate 0: no-op
    assert!(!root.is_sampled());
    client.get(server.addr(), "/x").unwrap();
    root.finish();

    assert!(!saw_header.load(Ordering::SeqCst), "no header expected");
    // Give the server's write path a moment, then confirm silence.
    std::thread::sleep(Duration::from_millis(30));
    let snap = tracer.snapshot();
    assert!(snap.is_empty(), "journal must stay empty: {snap:#?}");
    assert_eq!(tracer.recorded(), 0);
}

#[test]
fn retries_stay_in_one_trace_as_sibling_attempts() {
    use std::io::{Read, Write};
    use std::net::TcpListener;

    // A hand-rolled server that slams the door on the first connection
    // (forcing a client retry) and answers the second one properly.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let (first, _) = listener.accept().unwrap();
        drop(first); // connection reset -> attempt#0 fails
        let (mut second, _) = listener.accept().unwrap();
        let mut buf = [0u8; 4096];
        let mut seen = Vec::new();
        while !seen.windows(4).any(|w| w == b"\r\n\r\n") {
            let n = second.read(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            seen.extend_from_slice(&buf[..n]);
        }
        second
            .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok")
            .unwrap();
        String::from_utf8_lossy(&seen).to_string()
    });

    let tracer = Arc::new(Tracer::new(TracerConfig::always(64)));
    let client = HttpClient::builder().tracer(Arc::clone(&tracer)).build();
    let root = tracer.root_span("crawler", "fetch /r");
    let root_ctx = root.context().unwrap();
    let resp = client.get(addr, "/r").unwrap();
    root.finish();
    assert_eq!(resp.body, b"ok");
    let raw_request = handle.join().unwrap();

    let snap = tracer.snapshot();
    let spans = snap.trace(root_ctx.trace_id);
    let request = spans
        .iter()
        .find(|r| r.component == "client" && r.name == "GET /r")
        .expect("request span");

    // Both attempts landed in the same trace, as siblings under the
    // request span; the failed one carries the failure event, the
    // retried one the retry marker.
    let attempt0 = spans
        .iter()
        .find(|r| r.name == "attempt#0")
        .expect("attempt#0 span");
    let attempt1 = spans
        .iter()
        .find(|r| r.name == "attempt#1")
        .expect("attempt#1 span");
    assert_eq!(attempt0.parent_id, Some(request.span_id));
    assert_eq!(attempt1.parent_id, Some(request.span_id));
    assert!(attempt0
        .events
        .iter()
        .any(|e| e.label.starts_with("failed:")));
    assert!(attempt1.events.iter().any(|e| e.label == "retry"));

    // The header that reached the server names the *second* attempt.
    let header_line = raw_request
        .lines()
        .find(|l| l.to_ascii_lowercase().starts_with(TRACE_HEADER))
        .expect("trace header on the wire");
    let ctx =
        marketscope_telemetry::SpanContext::parse(header_line.split_once(':').unwrap().1.trim())
            .expect("parseable wire context");
    assert_eq!(ctx.trace_id, root_ctx.trace_id);
    assert_eq!(ctx.span_id, attempt1.span_id);
}

#[test]
fn header_survives_even_without_server_tracer() {
    // A traced client talking to an untraced server still completes and
    // still records its client-side spans.
    let tracer = Arc::new(Tracer::new(TracerConfig::always(64)));
    let server = HttpServer::spawn(|req: &Request| {
        Response::ok(
            "text/plain",
            req.header(TRACE_HEADER).unwrap_or("absent").into(),
        )
    })
    .unwrap();
    let client = HttpClient::builder().tracer(Arc::clone(&tracer)).build();
    let root = tracer.root_span("crawler", "fetch");
    let resp = client.get(server.addr(), "/x").unwrap();
    root.finish();
    let echoed = String::from_utf8(resp.body).unwrap();
    assert_ne!(echoed, "absent", "header must be on the wire");
    let ctx = marketscope_telemetry::SpanContext::parse(&echoed).expect("parseable context");
    let snap = tracer.snapshot();
    assert!(snap.records.iter().any(|r| r.span_id == ctx.span_id));
}
