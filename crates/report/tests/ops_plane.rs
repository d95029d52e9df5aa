//! Acceptance for the live ops plane (ISSUE PR-9): a chaos-heavy
//! campaign produces at least one burn-rate alert that fires and then
//! resolves, the alert's log events carry trace ids that resolve in the
//! campaign's trace journal, and a clean campaign over the same seed
//! produces zero alerts.

use marketscope_ecosystem::Scale;
use marketscope_market::ChaosProfile;
use marketscope_report::{run_campaign, CampaignConfig};
use marketscope_telemetry::AlertState;

fn base_config() -> CampaignConfig {
    CampaignConfig {
        scale: Scale { divisor: 60_000 },
        ..CampaignConfig::default()
    }
}

#[test]
fn chaos_campaign_fires_and_resolves_alerts_with_resolvable_traces() {
    let campaign = run_campaign(CampaignConfig {
        chaos: Some(ChaosProfile::heavy(0xC4A05)),
        ..base_config()
    });

    // At least one rule fired during the chaos...
    let fired: Vec<_> = campaign.slo.iter().filter(|v| v.fired > 0).collect();
    assert!(
        !fired.is_empty(),
        "heavy chaos must burn at least one SLO: {:?}",
        campaign.slo
    );
    // ...and every fired alert resolved once traffic stopped (the
    // pipeline's settle ticks guarantee the fast window saw zero).
    for v in &campaign.slo {
        assert_ne!(
            v.state,
            AlertState::Firing,
            "alert {} still firing after the campaign settled",
            v.rule
        );
        if v.fired > 0 {
            assert_eq!(
                v.resolved, v.fired,
                "alert {} fired {} times but resolved only {}",
                v.rule, v.fired, v.resolved
            );
        }
    }

    // The alert state machine's transitions are in the event log, fire
    // and resolve both.
    let alert_events: Vec<_> = campaign
        .events
        .events
        .iter()
        .filter(|e| e.target == "telemetry.slo")
        .collect();
    assert!(
        alert_events.iter().any(|e| e.message == "slo alert fired"),
        "fired alerts must emit events"
    );
    assert!(
        alert_events
            .iter()
            .any(|e| e.message == "slo alert resolved"),
        "resolved alerts must emit events"
    );
    // Alert events are recorded inside the scraper's tick span, so their
    // trace ids resolve in the merged campaign journal.
    for e in &alert_events {
        let trace_id = e.trace_id.expect("alert event carries a trace id");
        let spans = campaign.traces.trace(trace_id);
        assert!(
            !spans.is_empty(),
            "alert event trace {trace_id:016x} not found in the campaign journal"
        );
        assert!(
            spans
                .iter()
                .any(|s| Some(s.span_id) == e.span_id && s.name == "scrape-tick"),
            "alert event span must be a scrape tick"
        );
    }

    // Chaos incidents from the other seams share the same log: fault
    // injections at minimum (quarantines/breaker flips depend on the
    // fault sequence).
    assert!(
        campaign
            .events
            .events
            .iter()
            .any(|e| e.target == "net.fault" && e.message == "fault injected"),
        "fault injections must emit events"
    );

    // The scraped series saw the 5xx chaos the alerts burned on.
    assert!(
        campaign.series.counter_window_sum(
            "marketscope_net_responses_total",
            &[("status", "503")],
            u64::MAX,
        ) > 0
            || campaign.series.counter_window_sum(
                "marketscope_net_responses_total",
                &[("status", "500")],
                u64::MAX,
            ) > 0,
        "chaos 5xx responses must appear in the scraped series"
    );

    // The rendered ops summary carries both new sections.
    let rendered = campaign.ops.render();
    assert!(rendered.contains("SLO / Alerts"), "{rendered}");
    assert!(rendered.contains("Recent events"), "{rendered}");
}

#[test]
fn clean_campaign_of_same_seed_never_alerts() {
    let campaign = run_campaign(base_config());
    assert!(!campaign.slo.is_empty(), "the ops plane always judges");
    for v in &campaign.slo {
        assert_eq!(
            (v.state, v.fired, v.resolved),
            (AlertState::Ok, 0, 0),
            "clean campaign must not alert: {v:?}"
        );
    }
    assert!(
        !campaign
            .events
            .events
            .iter()
            .any(|e| e.target == "telemetry.slo"),
        "clean campaign must emit no alert events"
    );
    // The plane itself still ran: series were scraped and lifecycle
    // events recorded.
    assert!(campaign.series.ticks >= 1);
    assert!(campaign
        .events
        .events
        .iter()
        .any(|e| e.message == "fleet started"));
}

#[test]
fn ops_bundle_writes_the_full_record() {
    let campaign = run_campaign(CampaignConfig {
        chaos: Some(ChaosProfile::heavy(0xC4A05)),
        ..base_config()
    });
    let dir = std::env::temp_dir().join(format!("marketscope-ops-bundle-{}", std::process::id()));
    let files = marketscope_report::write_ops_bundle(&dir, &campaign).expect("write bundle");
    assert_eq!(files.len(), 5);
    for name in &files {
        let path = dir.join(name);
        let meta = std::fs::metadata(&path).expect("bundle file exists");
        assert!(meta.len() > 0, "{name} is empty");
    }
    // The JSON artifacts parse, and the SLO verdict file records the
    // fired alerts.
    let slo_text = std::fs::read_to_string(dir.join("slo.json")).expect("read slo.json");
    let slo = marketscope_core::json::Json::parse(&slo_text).expect("slo.json parses");
    assert_eq!(slo.get("firing").unwrap().as_u64(), Some(0));
    let rules = slo.get("rules").unwrap().as_arr().unwrap();
    assert!(rules
        .iter()
        .any(|r| r.get("fired").unwrap().as_u64().unwrap_or(0) > 0));
    let events_text = std::fs::read_to_string(dir.join("events.json")).expect("read events.json");
    let events = marketscope_core::json::Json::parse(&events_text).expect("events.json parses");
    assert!(events.get("recorded").unwrap().as_u64().unwrap_or(0) > 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// Who reads an instrument. Anything recorded has one of these; an
/// instrument nobody reads is deleted, not listed.
#[derive(Debug, Clone, Copy)]
enum Reader {
    /// A row or column of `OpsSummary::render`.
    OpsReport,
    /// A selector in `SloPolicy::fleet_default`.
    Slo,
    /// A field of the `crawl-progress` line.
    Progress,
    /// A field of a market's `/__health` document.
    Health,
    /// A field of the repo benchmark.
    Benchmark,
    /// Only `/__metrics` (and the ops bundle's `metrics.prom`) shows it;
    /// behavioural tests pin its value.
    ExpositionOnly,
}

/// The instrument inventory: every name a campaign's merged registry
/// holds, with its first reader; DESIGN §8 renders the same table with
/// labels. The eleven recorders PR 15 deleted as unread (the reactor's
/// wake-up counter, the crawler's and the analysis crate's reachability
/// trios, the taint quartet) are absent, so one coming back fails the
/// test below like any other unlisted name.
const INSTRUMENTS: &[(&str, Reader)] = &[
    ("marketscope_analysis_stage_items_total", Reader::OpsReport),
    ("marketscope_analysis_stage_nanos", Reader::OpsReport),
    ("marketscope_build_info", Reader::OpsReport),
    (
        "marketscope_crawler_apks_harvested_total",
        Reader::OpsReport,
    ),
    ("marketscope_crawler_bfs_queue_depth", Reader::Progress),
    ("marketscope_crawler_dedup_hits_total", Reader::Progress),
    (
        "marketscope_crawler_deferred_fetches_total",
        Reader::OpsReport,
    ),
    ("marketscope_crawler_fetch_errors_total", Reader::OpsReport),
    (
        "marketscope_crawler_listings_fetched_total",
        Reader::OpsReport,
    ),
    ("marketscope_crawler_quarantines_total", Reader::OpsReport),
    (
        "marketscope_crawler_revisit_recovered_total",
        Reader::OpsReport,
    ),
    ("marketscope_net_accept_errors_total", Reader::Slo),
    (
        "marketscope_net_client_backoff_nanos_total",
        Reader::OpsReport,
    ),
    (
        "marketscope_net_client_breaker_transitions_total",
        Reader::OpsReport,
    ),
    (
        "marketscope_net_client_errors_total",
        Reader::ExpositionOnly,
    ),
    ("marketscope_net_client_fast_fails_total", Reader::OpsReport),
    (
        "marketscope_net_client_open_circuits",
        Reader::ExpositionOnly,
    ),
    (
        "marketscope_net_client_request_nanos",
        Reader::ExpositionOnly,
    ),
    (
        "marketscope_net_client_resilient_retries_total",
        Reader::OpsReport,
    ),
    ("marketscope_net_client_retries_total", Reader::Benchmark),
    ("marketscope_net_connections_shed_total", Reader::Slo),
    ("marketscope_net_faults_injected_total", Reader::OpsReport),
    ("marketscope_net_handler_nanos", Reader::OpsReport),
    ("marketscope_net_live_connections", Reader::Health),
    (
        "marketscope_net_ratelimit_grants_total",
        Reader::ExpositionOnly,
    ),
    (
        "marketscope_net_ratelimit_rejections_total",
        Reader::ExpositionOnly,
    ),
    ("marketscope_net_ratelimit_wait_nanos", Reader::Progress),
    ("marketscope_net_requests_total", Reader::OpsReport),
    ("marketscope_net_responses_total", Reader::OpsReport),
    ("marketscope_process_rss_bytes", Reader::ExpositionOnly),
    ("marketscope_process_rss_peak_bytes", Reader::OpsReport),
    ("marketscope_process_threads", Reader::OpsReport),
    ("marketscope_process_threads_peak", Reader::OpsReport),
    ("marketscope_slo_alerts_fired_total", Reader::ExpositionOnly),
    ("marketscope_slo_alerts_firing", Reader::ExpositionOnly),
    (
        "marketscope_slo_alerts_resolved_total",
        Reader::ExpositionOnly,
    ),
];

/// Label-cardinality ceiling for one campaign's merged registry: 17
/// markets + the repository, 6 statuses, 6 error kinds, 5 fault kinds,
/// 9 stages and 5 SLO rules come to 555 series today.
const SERIES_CEILING: usize = 600;

#[test]
fn every_campaign_instrument_has_a_listed_reader() {
    let campaign = run_campaign(CampaignConfig {
        chaos: Some(ChaosProfile::heavy(0xC4A05)),
        ..base_config()
    });
    let t = &campaign.telemetry;
    let ids: Vec<_> = t
        .counters
        .keys()
        .chain(t.gauges.keys())
        .chain(t.histograms.keys())
        .collect();
    let names: std::collections::BTreeSet<&str> = ids.iter().map(|id| id.name.as_str()).collect();
    for name in &names {
        assert!(
            INSTRUMENTS.iter().any(|(listed, _)| listed == name),
            "{name} is recorded but has no reader in INSTRUMENTS: name one or delete it"
        );
    }
    for (listed, reader) in INSTRUMENTS {
        assert!(
            names.contains(listed),
            "{listed} ({reader:?}) is listed but no longer recorded: drop the row"
        );
    }
    assert!(
        ids.len() <= SERIES_CEILING,
        "{} series exceed the stated ceiling of {SERIES_CEILING}",
        ids.len()
    );
}
