//! End-to-end distributed tracing: a sampled campaign produces one
//! journal whose server-side spans parent-chain back to crawler root
//! spans through the propagated `x-marketscope-trace` header, the
//! Chrome export is valid JSON, rate-limit stalls stay inside the same
//! trace, and an unsampled campaign records nothing at all.

use marketscope_core::json::Json;
use marketscope_core::MarketId;
use marketscope_ecosystem::{generate, Scale, WorldConfig};
use marketscope_market::MarketServer;
use marketscope_net::client::HttpClient;
use marketscope_net::{ReactorConfig, Transport};
use marketscope_report::{run_campaign, CampaignConfig};
use marketscope_telemetry::trace::{Tracer, TracerConfig};
use marketscope_telemetry::{chrome_trace, Registry, SpanRecord};
use std::collections::HashMap;
use std::sync::Arc;

/// Walk `span`'s parent links inside its trace and return the component
/// owning the root it reaches (`None` if a link is broken).
fn chains_to_root_of(records: &[SpanRecord], span: &SpanRecord) -> Option<String> {
    let by_id: HashMap<u64, &SpanRecord> = records
        .iter()
        .filter(|r| r.trace_id == span.trace_id)
        .map(|r| (r.span_id, r))
        .collect();
    let mut cur = span;
    loop {
        match cur.parent_id {
            Some(p) => cur = by_id.get(&p)?,
            None => return Some(cur.component.to_string()),
        }
    }
}

#[test]
fn sampled_campaign_exports_linked_chrome_trace() {
    let campaign = run_campaign(CampaignConfig {
        seed: 11,
        scale: Scale { divisor: 60_000 },
        trace_sample: 1.0,
        ..CampaignConfig::default()
    });
    let traces = &campaign.traces;
    assert!(!traces.is_empty(), "sampled campaign produced no spans");

    // The merged journal holds all four components of the pipeline.
    for component in ["crawler", "client", "server", "analysis"] {
        assert!(
            traces.records.iter().any(|r| r.component == component),
            "no {component} spans in the campaign journal"
        );
    }

    // At least one server-side handler span parent-chains, through the
    // wire header, all the way up to a crawler-side root span.
    let linked = traces
        .records
        .iter()
        .filter(|r| r.component == "server")
        .filter_map(|r| chains_to_root_of(&traces.records, r))
        .any(|root| root == "crawler");
    assert!(linked, "no server span chains to a crawler root");

    // Analysis stages sit under the engine's root span.
    let analysis_linked = traces
        .records
        .iter()
        .filter(|r| r.component == "analysis" && r.parent_id.is_some())
        .filter_map(|r| chains_to_root_of(&traces.records, r))
        .any(|root| root == "analysis");
    assert!(analysis_linked, "no stage span under the analysis root");

    // The Chrome export is valid JSON with one event per span or more.
    let exported = chrome_trace(traces);
    let doc = Json::parse(&exported).expect("chrome trace must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("traceEvents array");
    assert!(events.len() >= traces.records.len());
    // Complete events carry span ids linking back to the journal.
    let sample = events
        .iter()
        .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
        .expect("at least one complete event");
    assert!(sample.get("args").and_then(|a| a.get("trace")).is_some());

    // And the operator view surfaces the slowest traces.
    assert!(!campaign.ops.slowest.is_empty());
    let rendered = campaign.ops.render();
    assert!(rendered.contains("Slowest traces"), "{rendered}");
}

#[test]
fn unsampled_campaign_records_no_spans() {
    let campaign = run_campaign(CampaignConfig {
        seed: 11,
        scale: Scale { divisor: 60_000 },
        ..CampaignConfig::default() // trace_sample stays 0.0
    });
    // The ops plane always traces the ticks it cuts at the campaign's
    // phase marks; no *request* span may be recorded at rate 0.
    assert!(
        campaign
            .traces
            .records
            .iter()
            .all(|s| s.component == "ops" && s.name == "scrape-tick"),
        "rate-0 campaign recorded request spans"
    );
    assert!(campaign.ops.slowest.is_empty());
    assert!(!campaign.ops.render().contains("Slowest traces"));
}

#[test]
fn rate_limit_stall_stays_inside_one_trace() {
    let world = Arc::new(generate(WorldConfig {
        seed: 7,
        scale: Scale { divisor: 60_000 },
    }));
    // One tracer on both sides so the journal merges up front.
    let tracer = Arc::new(Tracer::new(TracerConfig::always(4096)));
    let server = MarketServer::spawn_on(
        &Transport::spawn(ReactorConfig::default()).unwrap(),
        Arc::clone(&world),
        MarketId::GooglePlay,
        Arc::new(Registry::new()),
        Arc::clone(&tracer),
        None,
        None,
    )
    .unwrap();
    let client = HttpClient::builder().tracer(Arc::clone(&tracer)).build();
    let pkg = {
        let doc = client.get_json(server.addr(), "/index").unwrap();
        doc.get("packages").unwrap().as_arr().unwrap()[0]
            .as_str()
            .unwrap()
            .to_owned()
    };

    // Hammer the APK endpoint under one root span until GP's download
    // bucket runs dry.
    let root = tracer.root_span("crawler", "harvest gp");
    let root_ctx = root.context().unwrap();
    let mut limited = false;
    for _ in 0..120 {
        match client.get(server.addr(), &format!("/apk/{pkg}")) {
            Err(marketscope_net::NetError::Status { code: 429, .. }) => {
                limited = true;
                break;
            }
            Ok(_) => {}
            Err(e) => panic!("unexpected error {e}"),
        }
    }
    root.finish();
    assert!(limited, "rate limiter never tripped");

    // The 429 left a `rate_limited` event on a server-side span in the
    // *same* trace as the crawler root. The stalled handler span records
    // before its enclosing request span does, so poll until the whole
    // parent chain has landed.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let snap = tracer.snapshot();
        let stalled = snap
            .records
            .iter()
            .find(|r| r.events.iter().any(|e| e.label == "rate_limited"));
        if let Some(stalled) = stalled {
            if chains_to_root_of(&snap.records, stalled).as_deref() == Some("crawler") {
                assert_eq!(stalled.trace_id, root_ctx.trace_id);
                assert_eq!(stalled.component, "server");
                break;
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no rate_limited span chained to the crawler root; stalled: {stalled:#?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    server.stop();
}
