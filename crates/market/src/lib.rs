//! # marketscope-market
//!
//! Simulated app-market servers. Each of the 17 markets runs as a real
//! HTTP server (loopback) over the shared synthetic [`World`], with the
//! behaviours the paper had to engineer around:
//!
//! * **Google Play** bins install counts into ranges and rate-limits APK
//!   downloads (the paper could only sample 287 K APKs directly and had to
//!   backfill 1.55 M from AndroZoo) — the fleet therefore also runs an
//!   `repository::AndroZooServer` with partial coverage;
//! * **Baidu** exposes a sequential-integer detail index
//!   (`/soft/{n}`, Section 3's `shouji.baidu.com/software/INTEGER.html`);
//! * **360** serves Jiagubao-wrapped (obfuscated) APKs (Section 2.1);
//! * most Chinese stores inject a **channel file** into `META-INF/`,
//!   making byte-identical uploads differ per store (Section 5.3);
//! * a **second-crawl phase** switch hides listings removed between the
//!   paper's August 2017 and April 2018 campaigns (Section 7).
//!
//! The fleet shares one `marketscope-telemetry` registry: per-market
//! request/status counters, handler-latency histograms and the Google
//! Play APK limiter's grant/rejection counts, all scrapeable from any
//! server's `GET /__metrics` endpoint.
//!
//! [`World`]: marketscope_ecosystem::World

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod endpoints;
pub mod fleet;
pub mod opsjson;
pub mod repository;
pub mod server;
pub mod submission;

pub use chaos::{ChaosIntensity, ChaosProfile};
pub use fleet::MarketFleet;
pub use server::{CrawlPhase, MarketServer, OpsHandles};
