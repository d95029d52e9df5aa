//! # marketscope
//!
//! One-stop facade for the *marketscope* workspace: a Rust reproduction of
//! **"Beyond Google Play: A Large-Scale Comparative Study of Chinese
//! Android App Markets"** (Wang et al., IMC 2018).
//!
//! The pipeline, end to end:
//!
//! 1. [`ecosystem`] generates a seeded synthetic app ecosystem planting
//!    the paper's per-market ground truth (catalog sizes, download
//!    distributions, clones, fakes, malware families, removal rates);
//! 2. [`market`] serves it as 17 HTTP app stores (plus an AndroZoo-style
//!    offline repository) with the paper's per-market quirks;
//! 3. [`crawler`] harvests everything — index walks, seed + BFS for
//!    Google Play, parallel search, rate-limit backfill;
//! 4. [`apk`] parses every harvested APK into analysis-ready digests;
//! 5. [`libdetect`], [`clonedetect`] and [`analysis`] recover third-party
//!    libraries, clones, fakes, over-privileged apps and malware from the
//!    bytes;
//! 6. [`report`] regenerates every table and figure of the paper's
//!    evaluation, rendered with [`metrics`].
//!
//! Throughout, [`telemetry`] provides lock-free counters, log2-bucketed
//! latency histograms and a sampling span tracer; every server exposes
//! the shared registry at `GET /__metrics` in Prometheus text format and
//! its ops state at `GET /__health`. Performance is measured by the
//! separate `benchmark/` package at the repository root.
//!
//! ## Quickstart
//!
//! ```no_run
//! use marketscope::report::{run_campaign, CampaignConfig};
//! use marketscope::report::experiments::table4;
//!
//! let campaign = run_campaign(CampaignConfig::default());
//! println!("{}", table4::run(&campaign.analyzed).render());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use marketscope_analysis as analysis;
pub use marketscope_apk as apk;
pub use marketscope_clonedetect as clonedetect;
pub use marketscope_core as core;
pub use marketscope_crawler as crawler;
pub use marketscope_ecosystem as ecosystem;
pub use marketscope_libdetect as libdetect;
pub use marketscope_market as market;
pub use marketscope_metrics as metrics;
pub use marketscope_net as net;
pub use marketscope_report as report;
pub use marketscope_telemetry as telemetry;
