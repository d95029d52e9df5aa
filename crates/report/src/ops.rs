//! Operational summary of a campaign's crawl, computed from telemetry.
//!
//! The experiment artifacts answer the paper's questions; this module
//! answers the operator's: how many requests did each market serve, how
//! many failed, and how slow were the slow ones. Everything here is
//! derived from the merged fleet + crawler registries, so the numbers are
//! the same ones `GET /__metrics` exposes while a crawl runs.

use marketscope_telemetry::{
    slowest_traces, JournalSnapshot, LogEvent, LogSnapshot, RegistrySnapshot, SloVerdict,
    TraceSummary,
};

/// One market's serving-side and crawling-side totals.
#[derive(Debug, Clone)]
pub struct MarketOps {
    /// Market slug (or `androzoo` for the backfill repository).
    pub market: String,
    /// HTTP requests served.
    pub requests: u64,
    /// Non-200 responses (404 lookup misses, 429 throttles, ...).
    pub errors: u64,
    /// `errors / requests` (0 when no requests).
    pub error_rate: f64,
    /// Median handler latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile handler latency, microseconds.
    pub p99_us: u64,
    /// Listings the crawler fetched from this market.
    pub listings: u64,
    /// APKs the crawler harvested from this market.
    pub apks: u64,
}

/// One market's degradation picture: what the chaos layer injected into
/// its server and how the crawler weathered it.
#[derive(Debug, Clone)]
pub struct DegradedMarket {
    /// Market slug.
    pub market: String,
    /// Faults the server-side injector fired (resets, stalls, truncated
    /// bodies, 5xx, downtime resets).
    pub faults_injected: u64,
    /// Terminal crawler-side fetch failures, summed over error kinds.
    pub fetch_errors: u64,
    /// Nonzero `(kind, count)` breakdown of `fetch_errors`, kind-sorted.
    pub error_kinds: Vec<(String, u64)>,
    /// Times the market was quarantined mid-harvest.
    pub quarantines: u64,
    /// APK fetches deferred past a quarantine to the revisit pass.
    pub deferred: u64,
    /// Deferred fetches the market answered on revisit.
    pub recovered: u64,
}

/// Aggregate client-side resilience totals (the retry policy and circuit
/// breaker share one unlabeled instrument set).
#[derive(Debug, Clone, Copy)]
pub struct ResilienceOps {
    /// Status-level retries the policy performed.
    pub retries: u64,
    /// Total nanoseconds slept across those retries.
    pub backoff_nanos: u64,
    /// Requests fast-failed by an open circuit.
    pub fast_fails: u64,
    /// Breaker transitions to open.
    pub breaker_opens: u64,
    /// Breaker transitions back to closed.
    pub breaker_closes: u64,
}

/// Process-level resource picture: the peak gauges `telemetry::perf::sample`
/// raises, plus the build-info marker, read back from the snapshot.
#[derive(Debug, Clone)]
pub struct PerfOps {
    /// The process's resident-set high-water mark (`VmHWM`), bytes (0
    /// when the platform exposes no `/proc/self/status`).
    pub rss_peak_bytes: u64,
    /// Most OS threads seen at any sample point.
    pub threads_peak: u64,
    /// `marketscope_build_info` version label, when registered.
    pub build_version: Option<String>,
    /// `marketscope_build_info` profile label (`debug`/`release`).
    pub build_profile: Option<String>,
}

/// One analysis stage's recorded work, read back from the engine's
/// telemetry instruments.
#[derive(Debug, Clone)]
pub struct StageOps {
    /// Stage name, one of [`crate::engine::STAGES`].
    pub stage: String,
    /// Items the stage processed (listings for dedup, apps or candidate
    /// pairs downstream).
    pub items: u64,
    /// Recorded stage latency in microseconds: the exact total of the
    /// stage histogram's observations, which with one run per stage is
    /// the run's wall clock.
    pub elapsed_us: u64,
}

/// Fleet-wide operational totals plus a per-market breakdown.
#[derive(Debug, Clone)]
pub struct OpsSummary {
    /// Per-market rows, sorted by market slug.
    pub markets: Vec<MarketOps>,
    /// Total HTTP requests served across the fleet.
    pub total_requests: u64,
    /// Total non-200 responses across the fleet.
    pub total_errors: u64,
    /// Markets that saw injected faults, terminal fetch errors or a
    /// quarantine, sorted by market slug; empty for a clean campaign.
    pub degraded: Vec<DegradedMarket>,
    /// Client-side resilience totals; `None` when neither the retry
    /// policy nor the breaker ever fired.
    pub resilience: Option<ResilienceOps>,
    /// Analysis-engine stage rows, in stage-graph order; empty when the
    /// snapshot holds no engine telemetry.
    pub analysis: Vec<StageOps>,
    /// Resource peaks and build identity; `None` when no perf sample
    /// or build-info gauge ever touched the snapshot.
    pub perf: Option<PerfOps>,
    /// Slowest sampled traces (top-k by root-span duration), filled by
    /// `OpsSummary::with_traces`; empty when tracing was off.
    pub slowest: Vec<TraceSummary>,
    /// SLO verdicts from the fleet's live evaluator, filled by
    /// [`OpsSummary::with_slo`]; empty when the campaign ran without the
    /// ops plane.
    pub slo: Vec<SloVerdict>,
    /// Newest structured log events (already time-ordered), filled by
    /// [`OpsSummary::with_events`].
    pub events: Vec<LogEvent>,
}

impl OpsSummary {
    /// Compute the summary from a (merged) registry snapshot.
    pub fn from_snapshot(snap: &RegistrySnapshot) -> OpsSummary {
        let statuses = snap.label_values("status");
        let mut markets = Vec::new();
        let mut total_requests = 0;
        let mut total_errors = 0;
        for market in snap.label_values("market") {
            let labels = [("market", market.as_str())];
            let requests = snap
                .counter_value("marketscope_net_requests_total", &labels)
                .unwrap_or(0);
            let errors: u64 = statuses
                .iter()
                .filter(|s| *s != "200")
                .map(|s| {
                    snap.counter_value(
                        "marketscope_net_responses_total",
                        &[("market", market.as_str()), ("status", s.as_str())],
                    )
                    .unwrap_or(0)
                })
                .sum();
            let (p50_us, p99_us) = snap
                .histogram("marketscope_net_handler_nanos", &labels)
                .map(|h| (h.p50() / 1_000, h.p99() / 1_000))
                .unwrap_or((0, 0));
            let listings = snap
                .counter_value("marketscope_crawler_listings_fetched_total", &labels)
                .unwrap_or(0);
            let apks = snap
                .counter_value("marketscope_crawler_apks_harvested_total", &labels)
                .unwrap_or(0);
            if requests == 0 && listings == 0 && apks == 0 {
                continue;
            }
            total_requests += requests;
            total_errors += errors;
            markets.push(MarketOps {
                market,
                requests,
                errors,
                error_rate: if requests == 0 {
                    0.0
                } else {
                    errors as f64 / requests as f64
                },
                p50_us,
                p99_us,
                listings,
                apks,
            });
        }
        let fault_kinds = snap.label_values("fault");
        let error_kinds = snap.label_values("kind");
        let mut degraded = Vec::new();
        for market in snap.label_values("market") {
            let faults_injected: u64 = fault_kinds
                .iter()
                .map(|f| {
                    snap.counter_value(
                        "marketscope_net_faults_injected_total",
                        &[("fault", f.as_str()), ("market", market.as_str())],
                    )
                    .unwrap_or(0)
                })
                .sum();
            let kinds: Vec<(String, u64)> = error_kinds
                .iter()
                .filter_map(|k| {
                    let n = snap
                        .counter_value(
                            "marketscope_crawler_fetch_errors_total",
                            &[("kind", k.as_str()), ("market", market.as_str())],
                        )
                        .unwrap_or(0);
                    (n > 0).then(|| (k.clone(), n))
                })
                .collect();
            let fetch_errors: u64 = kinds.iter().map(|(_, n)| n).sum();
            let labels = [("market", market.as_str())];
            let quarantines = snap
                .counter_value("marketscope_crawler_quarantines_total", &labels)
                .unwrap_or(0);
            let deferred = snap
                .counter_value("marketscope_crawler_deferred_fetches_total", &labels)
                .unwrap_or(0);
            let recovered = snap
                .counter_value("marketscope_crawler_revisit_recovered_total", &labels)
                .unwrap_or(0);
            if faults_injected == 0 && fetch_errors == 0 && quarantines == 0 {
                continue;
            }
            degraded.push(DegradedMarket {
                market,
                faults_injected,
                fetch_errors,
                error_kinds: kinds,
                quarantines,
                deferred,
                recovered,
            });
        }
        let resilience = {
            let c = |name| snap.counter_value(name, &[]).unwrap_or(0);
            let t = |to| {
                snap.counter_value(
                    "marketscope_net_client_breaker_transitions_total",
                    &[("to", to)],
                )
                .unwrap_or(0)
            };
            let ops = ResilienceOps {
                retries: c("marketscope_net_client_resilient_retries_total"),
                backoff_nanos: c("marketscope_net_client_backoff_nanos_total"),
                fast_fails: c("marketscope_net_client_fast_fails_total"),
                breaker_opens: t("open"),
                breaker_closes: t("closed"),
            };
            (ops.retries + ops.fast_fails + ops.breaker_opens > 0).then_some(ops)
        };
        let analysis = crate::engine::STAGES
            .iter()
            .filter_map(|&stage| {
                let labels = [("stage", stage)];
                let hist = snap.histogram(crate::engine::STAGE_LATENCY_METRIC, &labels)?;
                if hist.count() == 0 {
                    return None;
                }
                // The histogram keeps its sum exactly, outside the log2
                // buckets.
                let elapsed_us = hist.sum / 1_000;
                Some(StageOps {
                    stage: stage.to_string(),
                    items: snap
                        .counter_value(crate::engine::STAGE_ITEMS_METRIC, &labels)
                        .unwrap_or(0),
                    elapsed_us,
                })
            })
            .collect();
        let perf = {
            let rss_peak = snap
                .gauge_value("marketscope_process_rss_peak_bytes", &[])
                .unwrap_or(0)
                .max(0) as u64;
            let threads_peak = snap
                .gauge_value("marketscope_process_threads_peak", &[])
                .unwrap_or(0)
                .max(0) as u64;
            let build = snap
                .gauges
                .keys()
                .find(|id| id.name == "marketscope_build_info");
            (rss_peak > 0 || threads_peak > 0 || build.is_some()).then(|| PerfOps {
                rss_peak_bytes: rss_peak,
                threads_peak,
                build_version: build.and_then(|id| id.label("version").map(str::to_owned)),
                build_profile: build.and_then(|id| id.label("profile").map(str::to_owned)),
            })
        };
        OpsSummary {
            markets,
            total_requests,
            total_errors,
            degraded,
            resilience,
            analysis,
            perf,
            slowest: Vec::new(),
            slo: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Attach the top-`k` slowest traces from a trace journal snapshot.
    pub(crate) fn with_traces(mut self, traces: &JournalSnapshot, k: usize) -> OpsSummary {
        self.slowest = slowest_traces(traces, k);
        self
    }

    /// Attach the fleet's final SLO verdicts.
    pub fn with_slo(mut self, verdicts: &[SloVerdict]) -> OpsSummary {
        self.slo = verdicts.to_vec();
        self
    }

    /// Attach the newest `k` structured log events.
    pub fn with_events(mut self, events: &LogSnapshot, k: usize) -> OpsSummary {
        self.events = events.tail(k).to_vec();
        self
    }

    /// Render the summary as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::from("Crawl operations summary (from telemetry)\n");
        out.push_str(&format!(
            "{:<14} {:>9} {:>8} {:>7} {:>8} {:>8} {:>9} {:>7}\n",
            "market", "requests", "errors", "err%", "p50(us)", "p99(us)", "listings", "apks"
        ));
        for m in &self.markets {
            out.push_str(&format!(
                "{:<14} {:>9} {:>8} {:>6.2}% {:>8} {:>8} {:>9} {:>7}\n",
                m.market,
                m.requests,
                m.errors,
                100.0 * m.error_rate,
                m.p50_us,
                m.p99_us,
                m.listings,
                m.apks
            ));
        }
        out.push_str(&format!(
            "total: {} requests, {} errors ({:.2}%)\n",
            self.total_requests,
            self.total_errors,
            if self.total_requests == 0 {
                0.0
            } else {
                100.0 * self.total_errors as f64 / self.total_requests as f64
            }
        ));
        if !self.degraded.is_empty() {
            out.push_str("\nDegraded markets\n");
            out.push_str(&format!(
                "{:<14} {:>7} {:>7} {:>6} {:>9} {:>10}  {}\n",
                "market", "faults", "errors", "quar", "deferred", "recovered", "error kinds"
            ));
            for d in &self.degraded {
                let kinds: Vec<String> = d
                    .error_kinds
                    .iter()
                    .map(|(k, n)| format!("{k}={n}"))
                    .collect();
                out.push_str(&format!(
                    "{:<14} {:>7} {:>7} {:>6} {:>9} {:>10}  {}\n",
                    d.market,
                    d.faults_injected,
                    d.fetch_errors,
                    d.quarantines,
                    d.deferred,
                    d.recovered,
                    kinds.join(" ")
                ));
            }
        }
        if let Some(r) = &self.resilience {
            out.push_str(&format!(
                "resilience: {} retries ({:.1}ms backoff), {} fast fails, breaker opened {} / closed {}\n",
                r.retries,
                r.backoff_nanos as f64 / 1e6,
                r.fast_fails,
                r.breaker_opens,
                r.breaker_closes
            ));
        }
        if !self.analysis.is_empty() {
            out.push_str("\nAnalysis engine stages\n");
            out.push_str(&format!(
                "{:<14} {:>9} {:>12}\n",
                "stage", "items", "elapsed(us)"
            ));
            for s in &self.analysis {
                out.push_str(&format!(
                    "{:<14} {:>9} {:>12}\n",
                    s.stage, s.items, s.elapsed_us
                ));
            }
        }
        if let Some(p) = &self.perf {
            out.push_str(&format!(
                "perf: rss peak {:.1} MiB, {} threads peak",
                p.rss_peak_bytes as f64 / (1024.0 * 1024.0),
                p.threads_peak
            ));
            if let (Some(v), Some(pr)) = (&p.build_version, &p.build_profile) {
                out.push_str(&format!(" (build {v}, {pr})"));
            }
            out.push('\n');
        }
        if !self.slowest.is_empty() {
            out.push_str("\nSlowest traces\n");
            out.push_str(&format!(
                "{:<18} {:<26} {:>9} {:>6}  {}\n",
                "trace", "root", "dur(us)", "spans", "hotspots"
            ));
            for t in &self.slowest {
                let hotspots: Vec<String> = t
                    .breakdown
                    .iter()
                    .take(3)
                    .map(|(name, self_nanos)| format!("{name} {}us", self_nanos / 1_000))
                    .collect();
                out.push_str(&format!(
                    "{:016x}   {:<26} {:>9} {:>6}  {}\n",
                    t.trace_id,
                    t.root_name,
                    t.duration_nanos / 1_000,
                    t.span_count,
                    hotspots.join("; ")
                ));
            }
        }
        if !self.slo.is_empty() {
            out.push_str("\nSLO / Alerts\n");
            out.push_str(&format!(
                "{:<20} {:<9} {:>10} {:>10} {:>10} {:>6} {:>9}\n",
                "rule", "state", "fast", "slow", "threshold", "fired", "resolved"
            ));
            for v in &self.slo {
                out.push_str(&format!(
                    "{:<20} {:<9} {:>10.4} {:>10.4} {:>10.4} {:>6} {:>9}\n",
                    v.rule,
                    v.state.as_str(),
                    v.fast_burn,
                    v.slow_burn,
                    v.threshold,
                    v.fired,
                    v.resolved
                ));
            }
        }
        if !self.events.is_empty() {
            out.push_str("\nRecent events\n");
            for e in &self.events {
                let fields: Vec<String> =
                    e.fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
                let trace = match (e.trace_id, e.span_id) {
                    (Some(t), Some(s)) => format!("  [{t:016x}:{s:016x}]"),
                    _ => String::new(),
                };
                out.push_str(&format!(
                    "{:<5} {:<20} {} {}{}\n",
                    e.level.as_str(),
                    e.target,
                    e.message,
                    fields.join(" "),
                    trace
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marketscope_telemetry::Registry;
    use std::time::Duration;

    #[test]
    fn summary_combines_server_and_crawler_views() {
        let fleet = Registry::new();
        let labels = [("market", "gp")];
        fleet
            .counter("marketscope_net_requests_total", &labels)
            .add(10);
        fleet
            .counter(
                "marketscope_net_responses_total",
                &[("market", "gp"), ("status", "200")],
            )
            .add(8);
        fleet
            .counter(
                "marketscope_net_responses_total",
                &[("market", "gp"), ("status", "429")],
            )
            .add(2);
        let hist = fleet.histogram("marketscope_net_handler_nanos", &labels);
        for _ in 0..10 {
            hist.record_duration(Duration::from_micros(300));
        }

        let crawler = Registry::new();
        crawler
            .counter("marketscope_crawler_listings_fetched_total", &labels)
            .add(7);
        crawler
            .counter("marketscope_crawler_apks_harvested_total", &labels)
            .add(5);

        let merged = fleet.snapshot().merge(&crawler.snapshot());
        let ops = OpsSummary::from_snapshot(&merged);
        assert_eq!(ops.markets.len(), 1);
        let gp = &ops.markets[0];
        assert_eq!(gp.requests, 10);
        assert_eq!(gp.errors, 2);
        assert!((gp.error_rate - 0.2).abs() < 1e-9);
        assert_eq!(gp.listings, 7);
        assert_eq!(gp.apks, 5);
        assert!(gp.p99_us >= gp.p50_us && gp.p50_us > 0);
        let rendered = ops.render();
        assert!(rendered.contains("gp"));
        assert!(rendered.contains("total: 10 requests, 2 errors"));
    }

    #[test]
    fn analysis_stages_render_in_graph_order() {
        let registry = Registry::new();
        // Record out of graph order; the summary must re-sort.
        for stage in ["av", "dedup", "code_clones"] {
            let labels = [("stage", stage)];
            registry
                .histogram(crate::engine::STAGE_LATENCY_METRIC, &labels)
                .record_duration(Duration::from_micros(1_500));
            registry
                .counter(crate::engine::STAGE_ITEMS_METRIC, &labels)
                .add(42);
        }
        let ops = OpsSummary::from_snapshot(&registry.snapshot());
        let stages: Vec<&str> = ops.analysis.iter().map(|s| s.stage.as_str()).collect();
        assert_eq!(stages, ["dedup", "code_clones", "av"]);
        for s in &ops.analysis {
            assert_eq!(s.items, 42);
            assert!(s.elapsed_us > 0, "stage {} lost its latency", s.stage);
        }
        let rendered = ops.render();
        assert!(rendered.contains("Analysis engine stages"));
        assert!(rendered.contains("dedup"));
    }

    #[test]
    fn stage_time_is_the_exact_recorded_total() {
        let registry = Registry::new();
        let labels = [("stage", "dedup")];
        registry
            .histogram(crate::engine::STAGE_LATENCY_METRIC, &labels)
            .record(1_234_567);
        let ops = OpsSummary::from_snapshot(&registry.snapshot());
        assert_eq!(ops.analysis.len(), 1);
        assert_eq!(ops.analysis[0].elapsed_us, 1_234);
    }

    #[test]
    fn slowest_traces_render_after_with_traces() {
        use marketscope_telemetry::trace::{Tracer, TracerConfig};
        use std::sync::Arc;
        let tracer = Arc::new(Tracer::new(TracerConfig::always(64)));
        let root = tracer.root_span("crawler", "apk gp/com.example");
        let child = tracer.span("crawler", "digest");
        child.finish();
        root.finish();
        let ops = OpsSummary::from_snapshot(&Registry::new().snapshot())
            .with_traces(&tracer.snapshot(), 5);
        assert_eq!(ops.slowest.len(), 1);
        assert_eq!(ops.slowest[0].span_count, 2);
        let rendered = ops.render();
        assert!(rendered.contains("Slowest traces"));
        assert!(rendered.contains("apk gp/com.example"));
        assert!(rendered.contains("crawler:digest"));
    }

    #[test]
    fn degraded_markets_and_resilience_render() {
        let registry = Registry::new();
        registry
            .counter(
                "marketscope_net_faults_injected_total",
                &[("fault", "reset"), ("market", "tencent_myapp")],
            )
            .add(9);
        registry
            .counter(
                "marketscope_crawler_fetch_errors_total",
                &[("kind", "io"), ("market", "tencent_myapp")],
            )
            .add(4);
        registry
            .counter(
                "marketscope_crawler_quarantines_total",
                &[("market", "tencent_myapp")],
            )
            .inc();
        registry
            .counter(
                "marketscope_crawler_deferred_fetches_total",
                &[("market", "tencent_myapp")],
            )
            .add(12);
        registry
            .counter(
                "marketscope_crawler_revisit_recovered_total",
                &[("market", "tencent_myapp")],
            )
            .add(10);
        registry
            .counter("marketscope_net_client_resilient_retries_total", &[])
            .add(6);
        registry
            .counter("marketscope_net_client_backoff_nanos_total", &[])
            .add(3_000_000);
        registry
            .counter(
                "marketscope_net_client_breaker_transitions_total",
                &[("to", "open")],
            )
            .inc();

        let ops = OpsSummary::from_snapshot(&registry.snapshot());
        assert_eq!(ops.degraded.len(), 1);
        let d = &ops.degraded[0];
        assert_eq!(d.faults_injected, 9);
        assert_eq!(d.fetch_errors, 4);
        assert_eq!(d.error_kinds, vec![("io".to_string(), 4)]);
        assert_eq!((d.quarantines, d.deferred, d.recovered), (1, 12, 10));
        let r = ops.resilience.expect("resilience totals present");
        assert_eq!((r.retries, r.breaker_opens), (6, 1));
        let rendered = ops.render();
        assert!(rendered.contains("Degraded markets"), "{rendered}");
        assert!(rendered.contains("io=4"), "{rendered}");
        assert!(rendered.contains("6 retries"), "{rendered}");
    }

    #[test]
    fn clean_campaigns_render_no_degradation_section() {
        let registry = Registry::new();
        registry
            .counter("marketscope_net_requests_total", &[("market", "gp")])
            .add(3);
        let ops = OpsSummary::from_snapshot(&registry.snapshot());
        assert!(ops.degraded.is_empty());
        assert!(ops.resilience.is_none());
        assert!(!ops.render().contains("Degraded markets"));
        assert!(!ops.render().contains("resilience:"));
    }

    #[test]
    fn perf_section_reads_sampler_and_build_gauges() {
        let registry = Registry::new();
        registry
            .gauge("marketscope_process_rss_peak_bytes", &[])
            .set(128 * 1024 * 1024);
        registry
            .gauge("marketscope_process_threads_peak", &[])
            .set(22);
        marketscope_telemetry::perf::register_build_info(&registry, "0.1.0", "debug");
        let ops = OpsSummary::from_snapshot(&registry.snapshot());
        let p = ops.perf.clone().expect("perf section present");
        assert_eq!(p.rss_peak_bytes, 128 * 1024 * 1024);
        assert_eq!(p.threads_peak, 22);
        assert_eq!(p.build_version.as_deref(), Some("0.1.0"));
        assert_eq!(p.build_profile.as_deref(), Some("debug"));
        let rendered = ops.render();
        assert!(rendered.contains("rss peak 128.0 MiB"), "{rendered}");
        assert!(rendered.contains("build 0.1.0, debug"), "{rendered}");
        // An untouched snapshot has no perf section at all.
        assert!(OpsSummary::from_snapshot(&Registry::new().snapshot())
            .perf
            .is_none());
    }

    #[test]
    fn slo_and_events_sections_render() {
        use marketscope_telemetry::{AlertState, EventLog, LogLevel};
        let log = EventLog::new(8);
        log.record(
            LogLevel::Warn,
            "telemetry.slo",
            "slo alert fired",
            &[("rule", "error_rate_5xx")],
        );
        let verdicts = vec![SloVerdict {
            rule: "error_rate_5xx".into(),
            state: AlertState::Resolved,
            fast_burn: 0.0,
            slow_burn: 0.01,
            threshold: 0.02,
            fired: 1,
            resolved: 1,
        }];
        let ops = OpsSummary::from_snapshot(&Registry::new().snapshot())
            .with_slo(&verdicts)
            .with_events(&log.snapshot(), 10);
        let rendered = ops.render();
        assert!(rendered.contains("SLO / Alerts"), "{rendered}");
        assert!(rendered.contains("error_rate_5xx"), "{rendered}");
        assert!(rendered.contains("resolved"), "{rendered}");
        assert!(rendered.contains("Recent events"), "{rendered}");
        assert!(rendered.contains("slo alert fired"), "{rendered}");
        // Without the ops plane neither section renders.
        let clean = OpsSummary::from_snapshot(&Registry::new().snapshot()).render();
        assert!(!clean.contains("SLO / Alerts"));
        assert!(!clean.contains("Recent events"));
    }

    #[test]
    fn idle_markets_are_omitted() {
        let registry = Registry::new();
        registry.counter("marketscope_net_requests_total", &[("market", "quiet")]);
        let ops = OpsSummary::from_snapshot(&registry.snapshot());
        assert!(ops.markets.is_empty());
        assert_eq!(ops.total_requests, 0);
    }
}
