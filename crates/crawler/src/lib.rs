//! # marketscope-crawler
//!
//! The harvesting side of the study (Section 3): enumerate every market,
//! fetch each listing's metadata and APK, and assemble a [`Snapshot`] the
//! analyses run on.
//!
//! Reproduced crawl mechanics:
//!
//! * **index walking** for stores with a browsable catalog, including
//!   Baidu's sequential-integer detail pages;
//! * **seed + BFS** for Google Play (no full index exists): start from an
//!   externally provided seed list — the paper used PrivacyGrade's 1.5 M
//!   package names — and expand through "related apps" and same-developer
//!   links, one `/related` request per package (a 404 there says the
//!   market does not list it), a window of them in flight on the
//!   market's lane, whose answers apply in submission order and so in
//!   frontier order;
//! * **parallel search** (the paper's key trick): any package discovered
//!   in one market is immediately looked up in all the others, so
//!   cross-market version comparisons are not skewed by crawl lag;
//! * **rate-limit handling with offline backfill**: Google Play's APK
//!   endpoint throttles (a 429 whose `retry-after` no retry budget
//!   affords); throttled fetches fall back to the AndroZoo-style
//!   repository keyed by `(package, version)`, and residual misses become
//!   the metadata/APK mismatch the paper reports.
//!
//! The crawler knows nothing about the synthetic world: it speaks HTTP to
//! whatever addresses it is given and parses whatever bytes come back.
//!
//! One crawl is one completion-driven loop on the calling thread (see
//! [`crawl`]): every market is a state machine whose requests go to the
//! shared mux client with a callback that sends the answer down one
//! channel, and the loop reacts to whichever arrives next. A market's
//! requests share one lane, which answers them in submission order, so
//! the loop applies each answer as it settles. The phases stay barriers, as in the paper. Parallel search skips
//! the answers the crawl already has — a complete index walk rules out
//! every package it did not list, a BFS 404 rules out that package — so
//! it only probes what could still be found. The harvest keeps one
//! direct APK fetch in flight per market, in listing order; backfills go
//! on a per-market repository lane and digests run on `default_workers()`
//! threads fed by one bounded queue, so at most two responses per market plus
//! a fixed digest queue are in memory at once (a BFS, during enumeration,
//! holds at most one window of `/related` answers). A crawl adds the mux
//! driver and the digest workers to the process, nothing per market.
//!
//! Every crawl is instrumented through `marketscope-telemetry`: per-market
//! listing/APK/dedup counters, BFS queue depth and HTTP client latency
//! all land in the crawler's
//! [`Registry`](marketscope_telemetry::Registry) (shareable via
//! [`Crawler::with_ops`]), as do the process gauges a crawl samples at
//! each phase barrier. With [`CrawlConfig::progress`] set, each market
//! prints its [`progress`] line as it finishes a phase.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crawl;
pub mod health;
pub mod progress;
pub mod snapshot;

pub use crawl::{CrawlConfig, CrawlTargets, Crawler};
pub use snapshot::{CrawlStats, CrawledListing, MarketSnapshot, Snapshot};
