//! # marketscope-report
//!
//! The experiment harness: given a crawled [`Snapshot`] (and, for the
//! post-analysis, a second one), regenerate every table and figure of the
//! paper's evaluation. Each experiment lives in its own module under
//! [`experiments`] and both *renders* a human-readable artifact and
//! returns structured numbers for assertions and benchmarking.
//!
//! The expensive shared work — deduplicating apps across markets, library
//! detection, clone detection, fake detection, AV scanning,
//! over-privilege analysis — runs once through the staged, data-parallel
//! [`engine::AnalysisEngine`]; [`Analyzed::compute`] is the one-call
//! entry point.
//!
//! [`Snapshot`]: marketscope_crawler::Snapshot

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bundle;
pub mod context;
pub mod engine;
pub mod experiments;
pub mod ops;
pub mod pipeline;

pub use bundle::write_ops_bundle;
pub use context::{Analyzed, LabelSource, UniqueApp};
pub use engine::{AnalysisEngine, EngineConfig, STAGES};
pub use ops::{MarketOps, OpsSummary, PerfOps, StageOps};
pub use pipeline::{run_campaign, Campaign, CampaignConfig};
