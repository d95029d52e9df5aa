//! Structured crawl-progress reporting.
//!
//! With [`CrawlConfig::progress`](crate::CrawlConfig::progress) set, the
//! crawl loop prints one line to stderr for each market as it finishes
//! each phase (enumeration once its listing sweep ends, parallel search,
//! and the harvest once its last digest is applied), naming the phase:
//!
//! ```text
//! crawl-progress market=baidu phase=enumerate listings=120 apks=0 dedup=0 queue=0
//! ```
//!
//! Each value is a count of that market's own fetches, so a market's
//! lines are a function of the seed and come in phase order; lines of
//! different markets interleave in whichever order the markets finish.
//! Lines are plain `key=value` pairs so they grep/parse trivially.

/// One market's `crawl-progress` line at the end of `phase`
/// (`enumerate`, `search` or `harvest`).
pub(crate) fn progress_line(
    market: &str,
    phase: &str,
    listings: u64,
    apks: u64,
    dedup: u64,
    queue: i64,
) -> String {
    format!("crawl-progress market={market} phase={phase} listings={listings} apks={apks} dedup={dedup} queue={queue}")
}
