//! Shared `Json` renderers for the ops plane.
//!
//! `marketscope-telemetry` is dependency-free by design, so its ops
//! types (series snapshots, SLO verdicts, log events) learn JSON here,
//! next to the servers that surface them. The same helpers back the
//! market `/__slo`, `/__log` and `/__health` endpoints and the
//! `reproduce --ops-bundle` artifact, so every surface renders one
//! shape.

use marketscope_core::json::Json;
use marketscope_net::fault::FaultInjector;
use marketscope_net::reactor::{ReactorConfig, SHARDS};
use marketscope_telemetry::{LogEvent, LogSnapshot, SeriesSnapshot, SloVerdict};
use std::collections::BTreeMap;

/// Full SLO verdict list: `{"rules": [...], "firing": n}`.
pub fn slo_json(verdicts: &[SloVerdict]) -> Json {
    let rules: Vec<Json> = verdicts.iter().map(verdict_json).collect();
    let firing = verdicts
        .iter()
        .filter(|v| v.state == marketscope_telemetry::AlertState::Firing)
        .count();
    Json::obj([
        ("firing", Json::from(firing as u64)),
        ("rules", Json::Arr(rules)),
    ])
}

/// One verdict as an object.
pub(crate) fn verdict_json(v: &SloVerdict) -> Json {
    Json::obj([
        ("rule", Json::from(v.rule.as_str())),
        ("state", Json::from(v.state.as_str())),
        ("fast_burn", Json::from(v.fast_burn)),
        ("slow_burn", Json::from(v.slow_burn)),
        ("threshold", Json::from(v.threshold)),
        ("fired", Json::from(v.fired)),
        ("resolved", Json::from(v.resolved)),
    ])
}

/// One log event as an object; `fields` becomes a nested object and the
/// trace context renders in the same `trace:span` hex format the trace
/// header uses.
pub(crate) fn event_json(e: &LogEvent) -> Json {
    let mut obj = BTreeMap::new();
    obj.insert("unix_nanos".to_owned(), Json::from(e.unix_nanos));
    obj.insert("mono_nanos".to_owned(), Json::from(e.mono_nanos));
    obj.insert("level".to_owned(), Json::from(e.level.as_str()));
    obj.insert("target".to_owned(), Json::from(e.target.as_str()));
    obj.insert("message".to_owned(), Json::from(e.message.as_str()));
    let fields: BTreeMap<String, Json> = e
        .fields
        .iter()
        .map(|(k, v)| (k.clone(), Json::from(v.as_str())))
        .collect();
    obj.insert("fields".to_owned(), Json::Obj(fields));
    if let (Some(t), Some(s)) = (e.trace_id, e.span_id) {
        obj.insert("trace".to_owned(), Json::from(format!("{t:016x}:{s:016x}")));
        obj.insert("trace_id".to_owned(), Json::from(t));
        obj.insert("span_id".to_owned(), Json::from(s));
    }
    Json::Obj(obj)
}

/// A whole log snapshot: `{"recorded": n, "overwritten": n, "events": [...]}`.
pub fn log_json(snap: &LogSnapshot) -> Json {
    Json::obj([
        ("recorded", Json::from(snap.recorded)),
        ("overwritten", Json::from(snap.overwritten)),
        (
            "events",
            Json::Arr(snap.events.iter().map(event_json).collect()),
        ),
    ])
}

/// A series snapshot: per-instrument point lists keyed by the
/// Prometheus-style series name.
pub fn series_json(series: &SeriesSnapshot) -> Json {
    let counters: BTreeMap<String, Json> = series
        .counters
        .iter()
        .map(|(id, points)| {
            let pts: Vec<Json> = points
                .iter()
                .map(|p| {
                    Json::obj([
                        ("tick", Json::from(p.tick)),
                        ("unix_nanos", Json::from(p.unix_nanos)),
                        ("delta", Json::from(p.delta)),
                        ("total", Json::from(p.total)),
                    ])
                })
                .collect();
            (id.to_string(), Json::Arr(pts))
        })
        .collect();
    let gauges: BTreeMap<String, Json> = series
        .gauges
        .iter()
        .map(|(id, points)| {
            let pts: Vec<Json> = points
                .iter()
                .map(|p| {
                    Json::obj([
                        ("tick", Json::from(p.tick)),
                        ("unix_nanos", Json::from(p.unix_nanos)),
                        ("level", Json::from(p.level)),
                    ])
                })
                .collect();
            (id.to_string(), Json::Arr(pts))
        })
        .collect();
    // Histograms render windowed summaries (count/sum/p50/p99 per tick)
    // rather than raw 64-bucket arrays: the bundle stays readable and an
    // order of magnitude smaller.
    let histograms: BTreeMap<String, Json> = series
        .histograms
        .iter()
        .map(|(id, points)| {
            let pts: Vec<Json> = points
                .iter()
                .map(|p| {
                    Json::obj([
                        ("tick", Json::from(p.tick)),
                        ("unix_nanos", Json::from(p.unix_nanos)),
                        ("count", Json::from(p.delta.count())),
                        ("sum", Json::from(p.delta.sum)),
                        ("p50", Json::from(p.delta.p50())),
                        ("p99", Json::from(p.delta.p99())),
                    ])
                })
                .collect();
            (id.to_string(), Json::Arr(pts))
        })
        .collect();
    Json::obj([
        ("ticks", Json::from(series.ticks)),
        ("capacity", Json::from(series.capacity as u64)),
        ("counters", Json::Obj(counters)),
        ("gauges", Json::Obj(gauges)),
        ("histograms", Json::Obj(histograms)),
    ])
}

/// The `/__health` chaos section: `Null` without an injector, else the
/// plan's probabilities plus the running injection count.
pub(crate) fn chaos_json(faults: Option<&FaultInjector>) -> Json {
    match faults {
        Some(f) => {
            let plan = f.plan();
            Json::obj([
                ("faults_injected", Json::from(f.injected())),
                ("reset", Json::from(plan.reset)),
                ("stall", Json::from(plan.stall)),
                ("truncate", Json::from(plan.truncate)),
                ("error_5xx", Json::from(plan.error_5xx)),
                ("downtime_every", Json::from(plan.downtime_every)),
            ])
        }
        None => Json::Null,
    }
}

/// The `/__health` transport section: the reactor's fixed complement
/// plus the live connection/shed/accept-error counters.
pub(crate) fn transport_json(
    cfg: &ReactorConfig,
    open: u64,
    shed: u64,
    accept_errors: u64,
) -> Json {
    Json::obj([
        ("shards", Json::from(SHARDS)),
        ("max_connections", Json::from(cfg.max_connections)),
        ("open_connections", Json::from(open)),
        ("connections_shed", Json::from(shed)),
        ("accept_errors", Json::from(accept_errors)),
    ])
}

/// Compact SLO summary for `/__health`: alert states only.
pub(crate) fn slo_summary_json(verdicts: &[SloVerdict]) -> Json {
    let states: BTreeMap<String, Json> = verdicts
        .iter()
        .map(|v| (v.rule.clone(), Json::from(v.state.as_str())))
        .collect();
    let firing = verdicts
        .iter()
        .filter(|v| v.state == marketscope_telemetry::AlertState::Firing)
        .count();
    Json::obj([
        ("firing", Json::from(firing as u64)),
        ("rules", Json::Obj(states)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use marketscope_telemetry::{
        AlertState, EventLog, LogLevel, Registry, SeriesStore, Tracer, TracerConfig,
    };
    use std::sync::Arc;

    #[test]
    fn slo_json_counts_firing_rules() {
        let verdicts = vec![
            SloVerdict {
                rule: "a".into(),
                state: AlertState::Firing,
                fast_burn: 0.5,
                slow_burn: 0.25,
                threshold: 0.02,
                fired: 1,
                resolved: 0,
            },
            SloVerdict {
                rule: "b".into(),
                state: AlertState::Ok,
                fast_burn: 0.0,
                slow_burn: 0.0,
                threshold: 0.0,
                fired: 0,
                resolved: 0,
            },
        ];
        let doc = slo_json(&verdicts);
        assert_eq!(doc.get("firing").unwrap().as_u64(), Some(1));
        let rules = doc.get("rules").unwrap().as_arr().unwrap();
        assert_eq!(rules.len(), 2);
        assert_eq!(rules[0].get("state").unwrap().as_str(), Some("firing"));
        let summary = slo_summary_json(&verdicts);
        assert_eq!(
            summary.get("rules").unwrap().get("a").unwrap().as_str(),
            Some("firing")
        );
    }

    #[test]
    fn log_json_round_trips_through_parser() {
        let tracer = Arc::new(Tracer::new(TracerConfig::always(8)));
        let log = EventLog::new(8);
        let span = tracer.root_span("test", "op");
        log.record(
            LogLevel::Warn,
            "net.fault",
            "fault injected",
            &[("market", "baidu"), ("fault", "stall")],
        );
        span.finish();
        let doc = log_json(&log.snapshot());
        let text = doc.to_string_compact();
        let parsed = Json::parse(&text).expect("valid JSON");
        let events = parsed.get("events").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("level").unwrap().as_str(), Some("warn"));
        assert_eq!(
            events[0]
                .get("fields")
                .unwrap()
                .get("market")
                .unwrap()
                .as_str(),
            Some("baidu")
        );
        assert!(events[0].get("trace_id").is_some());
    }

    #[test]
    fn series_json_summarises_histograms() {
        let registry = Registry::new();
        registry.counter("x_total", &[("market", "m")]).add(3);
        registry.histogram("y_nanos", &[]).record(1000);
        let mut store = SeriesStore::new(4);
        store.observe(&registry.snapshot());
        let doc = series_json(&store.snapshot());
        assert_eq!(doc.get("ticks").unwrap().as_u64(), Some(1));
        let counters = doc.get("counters").unwrap();
        let pts = counters
            .get("x_total{market=\"m\"}")
            .unwrap()
            .as_arr()
            .unwrap();
        assert_eq!(pts[0].get("delta").unwrap().as_u64(), Some(3));
        let hist = doc.get("histograms").unwrap().get("y_nanos").unwrap();
        assert_eq!(
            hist.as_arr().unwrap()[0].get("count").unwrap().as_u64(),
            Some(1)
        );
    }
}
