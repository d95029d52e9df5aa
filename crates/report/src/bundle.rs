//! The ops bundle: one directory capturing a campaign's whole
//! operational record, for archiving as a CI artifact or diffing
//! between runs.
//!
//! `reproduce --ops-bundle DIR` writes five files:
//!
//! * `metrics.prom` — the merged end-of-campaign registry in Prometheus
//!   text exposition format (what `GET /__metrics` served);
//! * `series.json` — the windowed time series cut at the campaign's
//!   phase marks (counter deltas, gauge levels, per-tick histogram
//!   summaries);
//! * `slo.json` — the final SLO verdicts, burn rates and alert counters;
//! * `trace.json` — the merged span journal as Chrome trace-event JSON;
//! * `events.json` — the structured event log, time-ordered.

use crate::pipeline::Campaign;
use marketscope_market::opsjson;
use std::io;
use std::path::Path;

/// Write the full ops bundle for `campaign` into `dir` (created if
/// missing). Returns the five file names written, in write order.
pub fn write_ops_bundle(dir: &Path, campaign: &Campaign) -> io::Result<Vec<&'static str>> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("metrics.prom"), campaign.telemetry.render())?;
    std::fs::write(
        dir.join("series.json"),
        opsjson::series_json(&campaign.series).to_string_compact(),
    )?;
    std::fs::write(
        dir.join("slo.json"),
        opsjson::slo_json(&campaign.slo).to_string_compact(),
    )?;
    std::fs::write(
        dir.join("trace.json"),
        marketscope_telemetry::chrome_trace(&campaign.traces),
    )?;
    std::fs::write(
        dir.join("events.json"),
        opsjson::log_json(&campaign.events).to_string_compact(),
    )?;
    Ok(vec![
        "metrics.prom",
        "series.json",
        "slo.json",
        "trace.json",
        "events.json",
    ])
}
