//! Structured crawl-progress reporting.
//!
//! A [`CrawlProgress`] reporter snapshots a telemetry [`Registry`] on a
//! fixed cadence and
//! emits one structured line per market to a caller-provided sink:
//!
//! ```text
//! crawl-progress market=baidu listings=120 apks=118 dedup=0 queue=0
//! ```
//!
//! Lines are plain `key=value` pairs so they grep/parse trivially; the
//! pure [`progress_lines`] helper renders them from any
//! [`RegistrySnapshot`], which is what the reporter thread and the tests
//! both use. The reporter never touches the hot path: it only reads
//! snapshots, so a paused or slow sink cannot slow the crawl.

use marketscope_telemetry::{Periodic, Registry, RegistrySnapshot};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

/// Render one `crawl-progress` line per market present in `snap`.
///
/// Markets appear in sorted label order; markets with no recorded
/// activity (all-zero instruments) are skipped so quiet fleets do not
/// spam 17 zero lines per tick.
pub fn progress_lines(snap: &RegistrySnapshot) -> Vec<String> {
    let mut out = Vec::new();
    for market in snap.label_values("market") {
        let labels = [("market", market.as_str())];
        let listings = snap
            .counter_value("marketscope_crawler_listings_fetched_total", &labels)
            .unwrap_or(0);
        let apks = snap
            .counter_value("marketscope_crawler_apks_harvested_total", &labels)
            .unwrap_or(0);
        let dedup = snap
            .counter_value("marketscope_crawler_dedup_hits_total", &labels)
            .unwrap_or(0);
        let queue = snap
            .gauge_value("marketscope_crawler_bfs_queue_depth", &labels)
            .unwrap_or(0);
        if listings == 0 && apks == 0 && dedup == 0 && queue == 0 {
            continue;
        }
        out.push(format!(
            "crawl-progress market={market} listings={listings} apks={apks} \
             dedup={dedup} queue={queue}"
        ));
    }
    out
}

/// A background reporter emitting [`progress_lines`] on a fixed cadence.
///
/// Dropping (or calling [`CrawlProgress::stop`]) stops the thread after
/// one final report, so short crawls still produce at least one line.
pub struct CrawlProgress {
    /// One report: snapshot the registry, feed the sink. Shared with
    /// the reporter thread so the final report can run after it exits.
    emit: Arc<Mutex<dyn FnMut() + Send>>,
    thread: Periodic,
}

impl CrawlProgress {
    /// Spawn a reporter over `registry`, emitting every `interval` to
    /// `sink` (e.g. `|line| eprintln!("{line}")`).
    pub fn spawn(
        registry: Arc<Registry>,
        interval: Duration,
        mut sink: impl FnMut(String) + Send + 'static,
    ) -> CrawlProgress {
        let emit: Arc<Mutex<dyn FnMut() + Send>> = Arc::new(Mutex::new(move || {
            for line in progress_lines(&registry.snapshot()) {
                sink(line);
            }
        }));
        let thread_emit = Arc::clone(&emit);
        let thread = Periodic::spawn("crawl-progress", interval, move || (*thread_emit.lock())());
        CrawlProgress { emit, thread }
    }

    /// Stop the reporter, emitting one final report before returning
    /// (dropping does the same).
    pub fn stop(self) {}
}

impl Drop for CrawlProgress {
    fn drop(&mut self) {
        self.thread.stop();
        // Final report so the last state is always visible.
        (*self.emit.lock())();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn active_registry() -> Registry {
        let registry = Registry::new();
        let labels = [("market", "baidu")];
        registry
            .counter("marketscope_crawler_listings_fetched_total", &labels)
            .add(12);
        registry
            .counter("marketscope_crawler_apks_harvested_total", &labels)
            .add(7);
        registry
            .gauge("marketscope_crawler_bfs_queue_depth", &[("market", "gp")])
            .set(3);
        registry
    }

    #[test]
    fn lines_cover_active_markets_and_skip_idle_ones() {
        let registry = active_registry();
        // An idle market: instruments exist but never recorded.
        registry.counter(
            "marketscope_crawler_listings_fetched_total",
            &[("market", "idle")],
        );
        let lines = progress_lines(&registry.snapshot());
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("market=baidu"));
        assert!(lines[0].contains("listings=12"));
        assert!(lines[0].contains("apks=7"));
        assert!(lines[1].contains("market=gp"));
        assert!(lines[1].contains("queue=3"));
        assert!(!lines.iter().any(|l| l.contains("market=idle")));
    }

    #[test]
    fn reporter_emits_final_report_on_stop() {
        let registry = Arc::new(active_registry());
        let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let sink_seen = Arc::clone(&seen);
        let reporter = CrawlProgress::spawn(
            Arc::clone(&registry),
            Duration::from_secs(3600), // never ticks on its own
            move |line| sink_seen.lock().push(line),
        );
        reporter.stop();
        let lines: Vec<String> = seen.lock().clone();
        assert!(
            lines.iter().any(|l| l.contains("market=baidu")),
            "final report missing: {lines:?}"
        );
    }
}
