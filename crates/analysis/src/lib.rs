//! # marketscope-analysis
//!
//! The misbehaviour analyses of Section 6 and the post-analysis of
//! Section 7, each operating purely on crawled artifacts:
//!
//! * [`fake`] — fake-app detection by app-name clustering plus the
//!   paper's small-cluster heuristic;
//! * [`overpriv`] — PScout-style over-privilege analysis (declared
//!   permissions vs. permissions exercised by API calls, under both the
//!   flat and the reachable footprint);
//! * [`taint`] — privacy-leak analysis: digest-time taint flows joined
//!   against library-detection ownership, attributing each leak to host
//!   code or a bundled third-party library;
//! * [`av`] — a simulated 60-engine VirusTotal ensemble producing
//!   AV-ranks and per-engine labels;
//! * [`avclass`] — AVClass-style family-label normalization and
//!   plurality voting;
//! * [`removal`] — first-vs-second-crawl malware removal measurement
//!   (Table 6), including the Google-Play-removed (GPRM) overlap.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod av;
pub mod avclass;
pub mod fake;
pub mod overpriv;
pub mod removal;
pub mod taint;

pub use av::{AvReport, AvSimulator, ENGINE_COUNT};
pub use fake::{FakeDetector, FakeReport};
pub use overpriv::{FootprintMode, OverprivilegeAnalyzer, OverprivilegeResult};
pub use removal::{removal_rates, RemovalInput, RemovalReport};
pub use taint::{LeakAnalyzer, LeakAttribution, LeakFlow, LeakResult};
