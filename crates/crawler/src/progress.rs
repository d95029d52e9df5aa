//! Structured crawl-progress reporting.
//!
//! With [`CrawlConfig::progress`](crate::CrawlConfig::progress) set, the
//! crawl loop prints one line to stderr for each market as it finishes
//! each phase (enumeration once its listing sweep ends, parallel search,
//! and the harvest once its last digest is applied):
//!
//! ```text
//! crawl-progress market=baidu listings=120 apks=118 dedup=0 queue=0
//! ```
//!
//! Each value is a count of that market's own fetches, so a market's
//! lines are a function of the seed and come in phase order; lines of
//! different markets interleave in whichever order the markets finish.
//! Lines are plain `key=value` pairs so they grep/parse trivially; the
//! pure [`progress_lines`] helper renders the same line for every active
//! market of any [`RegistrySnapshot`].

use marketscope_telemetry::RegistrySnapshot;

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
        out.push(progress_line(&market, listings, apks, dedup, queue));
    }
    out
}

/// One market's `crawl-progress` line.
pub(crate) fn progress_line(
    market: &str,
    listings: u64,
    apks: u64,
    dedup: u64,
    queue: i64,
) -> String {
    format!("crawl-progress market={market} listings={listings} apks={apks} dedup={dedup} queue={queue}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use marketscope_telemetry::Registry;

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
}
