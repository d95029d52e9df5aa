//! The staged analysis engine.
//!
//! [`Analyzed::compute`] used to be a one-shot monolith that ran every
//! shared pass back to back. This module breaks that pipeline into named
//! *stages* ([`STAGES`]), runs them one at a time in that order on the
//! calling thread, and fans each per-app stage out over index-ordered chunks
//! ([`marketscope_core::parallel`]) so the output is **bit-identical to
//! the sequential run for any worker count**.
//!
//! Stage graph (edges are data dependencies):
//!
//! ```text
//! dedup ──┬── libdetect ──┬── taint
//!         │               └── clone_inputs ── sig_clones
//!         │                           └────── code_clones
//!         ├── fake
//!         ├── av
//!         └── overpriv
//! ```
//!
//! The schedule is the same for every worker count: a per-app stage
//! splits its batch into `workers` chunks, works the last on the calling
//! thread and the others on scoped threads, so the engine never runs on
//! more than `workers` threads. Determinism is by construction, not by
//! locking:
//!
//! * `dedup` is sequential — snapshot iteration order *defines* app
//!   indices, and every later artifact is index-aligned;
//! * `libdetect`'s parallel tally merge is commutative (count addition and
//!   developer-set union), and its outputs are canonically sorted;
//! * `code_clones` sorts its candidate pairs before verifying them in
//!   parallel;
//! * `av` and `overpriv` are pure per-digest functions mapped in input
//!   order.
//!
//! Every stage records its wall-clock latency into the
//! `marketscope_analysis_stage_nanos{stage=..}` histogram and its item
//! count into `marketscope_analysis_stage_items_total{stage=..}` — in the
//! registry [`AnalysisEngine::with_registry`] was given, which
//! [`crate::OpsSummary`] renders as the analysis section, or in a
//! private one.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use marketscope_analysis::av::AvSimulator;
use marketscope_analysis::fake::{FakeDetector, FakeInput};
use marketscope_analysis::overpriv::OverprivilegeAnalyzer;
use marketscope_analysis::taint::LeakAnalyzer;
use marketscope_apk::digest::ApkDigest;
use marketscope_clonedetect::CloneDetector;
use marketscope_core::parallel;
use marketscope_core::{DeveloperKey, MarketId};
use marketscope_crawler::Snapshot;
use marketscope_libdetect::LibraryDetector;
use marketscope_telemetry::trace::{SpanContext, Tracer};
use marketscope_telemetry::Registry;

use crate::context::{Analyzed, UniqueApp};

/// Histogram instrument recording per-stage wall-clock latency.
pub const STAGE_LATENCY_METRIC: &str = "marketscope_analysis_stage_nanos";
/// Counter instrument recording per-stage item counts.
pub(crate) const STAGE_ITEMS_METRIC: &str = "marketscope_analysis_stage_items_total";

/// The stages, in the order the engine runs them, which produces every
/// input before the stage that reads it (see the module's diagram). A
/// name is also the `stage` label on its telemetry instruments.
pub const STAGES: &[&str] = &[
    "dedup",
    "libdetect",
    "taint",
    "clone_inputs",
    "sig_clones",
    "code_clones",
    "fake",
    "av",
    "overpriv",
];

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Threads a per-app stage runs on, the caller's included. `1` runs
    /// the whole engine on the calling thread.
    pub workers: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: parallel::default_workers(),
        }
    }
}

impl EngineConfig {
    /// The engine on the calling thread alone.
    pub fn sequential() -> Self {
        EngineConfig { workers: 1 }
    }
}

/// The staged analysis engine. See the module docs for the stage graph and
/// the determinism contract.
#[derive(Debug, Clone)]
pub struct AnalysisEngine {
    config: EngineConfig,
    registry: Arc<Registry>,
    tracer: Arc<Tracer>,
}

impl Default for AnalysisEngine {
    fn default() -> Self {
        AnalysisEngine::new(EngineConfig::default())
    }
}

impl AnalysisEngine {
    /// Engine with the given config and private telemetry.
    pub fn new(config: EngineConfig) -> Self {
        AnalysisEngine::with_registry(config, Arc::new(Registry::new()))
    }

    /// Engine recording per-stage latency and item counts into `registry`.
    pub fn with_registry(config: EngineConfig, registry: Arc<Registry>) -> Self {
        AnalysisEngine::with_telemetry(config, registry, Arc::new(Tracer::disabled()))
    }

    /// Engine recording stage metrics into `registry` *and* per-stage
    /// spans into `tracer` (an `analysis` root span with one child per
    /// stage, so campaign timelines show the analysis critical path next
    /// to the crawl spans).
    pub fn with_telemetry(
        config: EngineConfig,
        registry: Arc<Registry>,
        tracer: Arc<Tracer>,
    ) -> Self {
        AnalysisEngine {
            config,
            registry,
            tracer,
        }
    }

    /// The configured worker count (always ≥ 1).
    pub(crate) fn workers(&self) -> usize {
        self.config.workers.max(1)
    }

    /// Time `f` as stage `name`, recording latency and `items` processed.
    /// The stage runs under its own span parented on the engine's
    /// `analysis` root via the explicit `parent` context.
    fn stage<T>(
        &self,
        parent: Option<SpanContext>,
        name: &'static str,
        items: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.tracer.child_of(parent, "analysis", name);
        let start = Instant::now();
        let out = f();
        let labels = [("stage", name)];
        self.registry
            .histogram(STAGE_LATENCY_METRIC, &labels)
            .record_duration(start.elapsed());
        self.registry
            .counter(STAGE_ITEMS_METRIC, &labels)
            .add(items as u64);
        if span.is_sampled() {
            span.event(&format!("items:{items}"));
        }
        span.finish();
        out
    }

    /// Run every stage over a snapshot.
    pub fn run(&self, snapshot: &Snapshot) -> Analyzed {
        let workers = self.workers();
        let root = self.tracer.root_span("analysis", "analysis");
        let root_ctx = root.context();

        // dedup is always sequential: snapshot iteration order defines the
        // app index space everything downstream is aligned to.
        let (apps, market_index) = self.stage(root_ctx, "dedup", snapshot.total_listings(), || {
            dedup(snapshot)
        });
        let digest_refs: Vec<&ApkDigest> = apps.iter().map(|a| a.digest.as_ref()).collect();

        let lib_report = self.stage(root_ctx, "libdetect", apps.len(), || {
            LibraryDetector::new().detect_batch(&digest_refs, workers)
        });
        let lib_packages: HashSet<String> = lib_report
            .libraries
            .iter()
            .map(|l| l.package.clone())
            .collect();
        // Privacy-leak attribution joins each digest's taint flows against
        // the ownership index of the packages detected just above — it
        // must run behind libdetect, but nothing after reads it.
        let leaks = self.stage(root_ctx, "taint", apps.len(), || {
            let ownership = lib_report.ownership();
            LeakAnalyzer::new().analyze_batch(&digest_refs, &ownership, workers)
        });
        // Download counters feeding the clone-origin heuristic are binned
        // to Google Play's range lower bounds: GP reports ranges, so raw
        // counters from Chinese stores would otherwise always win the
        // "more downloads = original" comparison.
        let clone_inputs: Vec<marketscope_clonedetect::UniqueApp> =
            self.stage(root_ctx, "clone_inputs", apps.len(), || {
                parallel::par_map(workers, &apps, |a| {
                    let binned: Vec<(MarketId, u64)> = a
                        .markets
                        .iter()
                        .map(|(m, d)| {
                            (
                                *m,
                                marketscope_core::InstallRange::from_count(*d).lower_bound(),
                            )
                        })
                        .collect();
                    marketscope_clonedetect::UniqueApp::from_digest(
                        &a.digest,
                        &lib_packages,
                        binned,
                    )
                })
            });
        let detector = CloneDetector::new();
        let sig_report = self.stage(root_ctx, "sig_clones", clone_inputs.len(), || {
            detector.sig_clones(&clone_inputs)
        });
        let code_pairs = self.stage(root_ctx, "code_clones", clone_inputs.len(), || {
            detector.code_clones_batch(&clone_inputs, workers)
        });
        let (fake_inputs, fake_report) = self.stage(root_ctx, "fake", apps.len(), || {
            let fake_inputs: Vec<FakeInput> = apps
                .iter()
                .map(|a| FakeInput {
                    package: a.package.clone(),
                    label: a.label.clone(),
                    developer: a.developer,
                    max_downloads: a.markets.iter().map(|(_, d)| *d).max().unwrap_or(0),
                    markets: a.markets.iter().map(|(m, _)| *m).collect(),
                })
                .collect();
            let fake_report = FakeDetector::new().detect(&fake_inputs);
            (fake_inputs, fake_report)
        });
        let av_reports = self.stage(root_ctx, "av", apps.len(), || {
            AvSimulator::new().scan_batch(&digest_refs, workers)
        });
        let overpriv = self.stage(root_ctx, "overpriv", apps.len(), || {
            OverprivilegeAnalyzer::new().analyze_batch(&digest_refs, workers)
        });
        root.finish();

        Analyzed {
            apps,
            market_index,
            lib_report,
            lib_packages,
            leaks,
            clone_inputs,
            sig_report,
            code_pairs,
            fake_inputs,
            fake_report,
            av_reports,
            overpriv,
        }
    }
}

/// Type alias for the per-market app index built by `dedup`.
type MarketIndex = HashMap<MarketId, Vec<usize>>;

/// Deduplicate listings by `(package, developer signature)`, keeping the
/// highest-version digest as representative (an `Arc` pointer swap, never a
/// deep copy), and build the per-market index of app positions (ascending,
/// each app at most once per market).
fn dedup(snapshot: &Snapshot) -> (Vec<UniqueApp>, MarketIndex) {
    let mut index: HashMap<(&str, DeveloperKey), usize> = HashMap::new();
    let mut apps: Vec<UniqueApp> = Vec::new();
    for (market, listing) in snapshot.iter() {
        let Some(digest) = &listing.digest else {
            continue;
        };
        let key = (listing.package.as_str(), digest.developer);
        let downloads = listing.downloads.unwrap_or(0);
        match index.get(&key) {
            Some(&i) => {
                let app = &mut apps[i];
                app.markets.push((market, downloads));
                if digest.version_code.0 > app.max_version {
                    app.max_version = digest.version_code.0;
                    app.digest = Arc::clone(digest);
                }
            }
            None => {
                index.insert(key, apps.len());
                apps.push(UniqueApp {
                    package: listing.package.clone(),
                    label: listing.label.clone(),
                    developer: digest.developer,
                    digest: Arc::clone(digest),
                    markets: vec![(market, downloads)],
                    max_version: digest.version_code.0,
                });
            }
        }
    }
    let mut market_index: MarketIndex = HashMap::new();
    for (i, app) in apps.iter().enumerate() {
        for (market, _) in &app.markets {
            let positions = market_index.entry(*market).or_default();
            // An app relisted in the same market appears once.
            if positions.last() != Some(&i) {
                positions.push(i);
            }
        }
    }
    (apps, market_index)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_are_unique() {
        let names: HashSet<&str> = STAGES.iter().copied().collect();
        assert_eq!(names.len(), STAGES.len());
    }

    /// What a complete crawl of a tiny world returns, built without a
    /// network: each listing's metadata through the market's encoder and
    /// the crawler's parser, each APK through the digest extractor.
    fn tiny_snapshot() -> Snapshot {
        use marketscope_crawler::{CrawlStats, CrawledListing, MarketSnapshot};
        use marketscope_ecosystem::{generate, profile, Scale, WorldConfig};
        let world = generate(WorldConfig {
            scale: Scale { divisor: 60_000 },
            ..WorldConfig::default()
        });
        let markets = MarketId::ALL
            .iter()
            .map(|&market| MarketSnapshot {
                market,
                listings: world
                    .market_listings(market)
                    .iter()
                    .map(|id| {
                        let l = world.listing(*id);
                        let json = marketscope_market::endpoints::listing_json(&world, l);
                        let mut listing = CrawledListing::from_metadata(&json).unwrap();
                        let obfuscated = profile(market).requires_obfuscation;
                        let bytes = world.build_apk(l.app, l.version, obfuscated);
                        listing.digest = Some(Arc::new(ApkDigest::from_bytes(&bytes).unwrap()));
                        listing
                    })
                    .collect(),
            })
            .collect();
        Snapshot {
            markets,
            stats: CrawlStats::default(),
        }
    }

    #[test]
    fn stages_run_one_at_a_time_in_graph_order() {
        use marketscope_telemetry::trace::{SpanRecord, TracerConfig};
        let tracer = Arc::new(Tracer::new(TracerConfig::always(256)));
        let engine = AnalysisEngine::with_telemetry(
            EngineConfig { workers: 2 },
            Arc::new(Registry::new()),
            Arc::clone(&tracer),
        );
        let snapshot = tiny_snapshot();
        assert!(snapshot.total_apks() > 2, "every per-app stage must split");
        engine.run(&snapshot);
        let journal = tracer.snapshot();
        let root = journal
            .records
            .iter()
            .find(|r| r.name == "analysis" && r.parent_id.is_none())
            .expect("an analysis root span");
        // The journal is sorted by start time.
        let stages: Vec<&SpanRecord> = journal
            .trace(root.trace_id)
            .into_iter()
            .filter(|r| r.parent_id == Some(root.span_id))
            .collect();
        let names: Vec<&str> = stages.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, STAGES);
        for pair in stages.windows(2) {
            assert!(
                pair[1].start_nanos >= pair[0].end_nanos,
                "`{}` started before `{}` finished",
                pair[1].name,
                pair[0].name
            );
        }
    }
}
