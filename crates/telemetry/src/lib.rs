//! # marketscope-telemetry
//!
//! The observability substrate for the crawl pipeline: allocation-free,
//! lock-free instruments plus a registry that renders a Prometheus-style
//! text exposition.
//!
//! The paper's crawl campaign ran 50 cloud workers for two weeks against
//! 17 markets; operating anything at that scale requires continuous
//! visibility into per-source request rates, error rates and latencies.
//! This crate provides that layer for the reproduction:
//!
//! * [`Counter`] — a monotonic `u64`, one relaxed `fetch_add` per
//!   increment;
//! * [`Gauge`] — a signed up/down value (live connections, queue depth);
//! * [`Histogram`] — 64 fixed log2 buckets of atomics; recording is two
//!   relaxed `fetch_add`s, snapshots are mergeable and answer
//!   p50/p99;
//! * [`Registry`] — owns named, labelled instruments and renders the
//!   whole set as a text exposition ([`exposition`] also parses it back,
//!   for tests and scrapers);
//! * [`trace`] — a sampling distributed tracer: 64-bit trace/span ids,
//!   parent links and timestamped events in a bounded ring-buffer
//!   journal, with wire propagation via [`TRACE_HEADER`] and exporters
//!   in [`trace_export`] (Chrome trace-event JSON, slowest traces);
//! * [`series`] — a [`SeriesStore`] that diffs each registry snapshot
//!   its owner hands it into ring-buffer time series, turning lifetime
//!   aggregates into windowed rates; it has no thread of its own;
//! * [`slo`] — declarative SLO rules with multi-window burn-rate
//!   alerting over those series (ok → firing → resolved state machine);
//! * [`log`] — a bounded structured [`EventLog`] whose events carry the
//!   recording thread's trace context, so alerts and fault injections
//!   correlate back to traces;
//! * [`perf`] — allocation accounting, and process RSS and thread
//!   counts sampled where the caller asks; the crate starts no thread.
//!
//! Components never hold a telemetry handle as an `Option`: one that was
//! given none records into a private [`Registry`], a
//! [`Tracer::disabled`] and a small private [`EventLog`], so there is
//! one instrumented code path and nothing to branch on.
//!
//! An instrument's record path never takes a lock or allocates: callers
//! resolve it from the registry once (a short `RwLock` critical section,
//! off the hot path) and then hammer the returned `Arc` from any number
//! of threads. A span or log event takes one short lock on its ring.
//!
//! Naming convention: `marketscope_<crate>_<name>`, with `_total` for
//! counters and `_nanos` for duration histograms; dimensions (market,
//! status, error kind) travel as labels.

// `deny` rather than `forbid`: the optional counting global allocator in
// [`perf`] needs one `unsafe impl GlobalAlloc`, explicitly allowed at the
// impl site behind the `alloc-profile` feature. Everything else stays
// unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod counter;
pub mod exposition;
pub mod histogram;
pub mod log;
pub mod perf;
pub mod registry;
mod ring;
pub mod series;
pub mod slo;
pub mod trace;
pub mod trace_export;

pub use counter::{Counter, Gauge};
pub use exposition::{parse, Sample};
pub use histogram::{Histogram, HistogramSnapshot};
pub use log::{EventLog, LogEvent, LogLevel, LogSnapshot};
pub use perf::{
    alloc_stats, build_profile, register_build_info, thread_count, AllocDelta, AllocPhase,
    AllocStats,
};
pub use registry::{InstrumentId, Registry, RegistrySnapshot};
pub use series::{CounterPoint, GaugePoint, HistogramPoint, SeriesSnapshot, SeriesStore};
pub use slo::{
    AlertState, MetricSelector, SloEvaluator, SloObjective, SloPolicy, SloRule, SloVerdict,
};
pub use trace::{
    JournalSnapshot, SpanContext, SpanEvent, SpanRecord, TraceSpan, Tracer, TracerConfig,
    TRACE_HEADER,
};
pub use trace_export::{chrome_trace, slowest_traces, TraceSummary};
