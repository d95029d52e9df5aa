//! `analysis`: the staged engine and the analysis-backed artifacts over a
//! snapshot built offline — no fleet, no sockets. Deterministic input, so
//! every output count repeats exactly; this is where a faster `overpriv`,
//! `av`, `clone_inputs` or minhash must show.

use super::{Layer, Rep, Workload};
use crate::harness::{self, InputHash, Recorder};
use marketscope_analysis::av::AvSimulator;
use marketscope_analysis::fake::FakeDetector;
use marketscope_analysis::overpriv::OverprivilegeAnalyzer;
use marketscope_analysis::taint::LeakAnalyzer;
use marketscope_apk::digest::ApkDigest;
use marketscope_clonedetect::CloneDetector;
use marketscope_core::{InstallRange, MarketId};
use marketscope_crawler::{CrawlStats, CrawledListing, MarketSnapshot, Snapshot};
use marketscope_ecosystem::{profile, World};
use marketscope_libdetect::LibraryDetector;
use marketscope_market::endpoints::listing_json;
use marketscope_report::engine::STAGE_LATENCY_METRIC;
use marketscope_report::{AnalysisEngine, Analyzed, EngineConfig, LabelSource};
use marketscope_telemetry::{Registry, RegistrySnapshot};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// About 3 000 listings and 1 900 unique apps: one engine run plus the
/// artifacts takes ~0.25 s here.
const DIVISOR: u32 = 2000;
/// The second scale point of a traced run's scaling exponents.
const SMALL_DIVISOR: u32 = 8000;

/// The output counts that must not differ between repetitions or between
/// one worker and the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    apps: usize,
    libraries: usize,
    code_pairs: usize,
    sig_pairs: usize,
    av_flagged: usize,
    overpriv_apps: usize,
    fakes: usize,
    leaky: usize,
}

impl Counts {
    fn of(a: &Analyzed) -> Counts {
        Counts {
            apps: a.apps.len(),
            libraries: a.lib_report.libraries.len(),
            code_pairs: a.code_pairs.len(),
            sig_pairs: a.sig_report.flagged.iter().filter(|f| **f).count(),
            av_flagged: a.av_reports.iter().filter(|r| r.rank > 0).count(),
            overpriv_apps: a.overpriv.iter().filter(|r| r.is_overprivileged()).count(),
            fakes: a.fake_report.fakes.len(),
            leaky: a.leaks.iter().filter(|l| l.leaks()).count(),
        }
    }
}

pub struct Analysis {
    seed: u64,
    hash: f64,
    snapshot: Snapshot,
    second: Snapshot,
    labels: LabelSource,
    counts: Vec<Counts>,
    empty_artifacts: u64,
}

/// What a complete, unthrottled crawl of `world` would return, computed
/// without a network: each listing's metadata through the market's own
/// JSON encoder and the crawler's parser, each APK through the world's
/// builder and the digest extractor. Returns the first- and second-crawl
/// snapshots.
fn offline_snapshots(world: &World) -> (Snapshot, Snapshot) {
    // One digest per distinct (app, version, obfuscated) build, spread
    // over every core: markets listing the same release share it.
    let mut builds: Vec<(u32, u32, bool)> = world
        .listings
        .iter()
        .map(|l| (l.app.0, l.version, profile(l.market).requires_obfuscation))
        .collect();
    builds.sort_unstable();
    builds.dedup();
    let digests: HashMap<(u32, u32, bool), Arc<ApkDigest>> = std::thread::scope(|s| {
        let chunk = builds.len().div_ceil(harness::nproc());
        let handles: Vec<_> = builds
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|&(app, version, obfuscated)| {
                            let bytes = world.build_apk(
                                marketscope_ecosystem::AppId(app),
                                version,
                                obfuscated,
                            );
                            let digest =
                                ApkDigest::from_bytes(&bytes).expect("a generated APK decodes");
                            ((app, version, obfuscated), Arc::new(digest))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("digest worker panicked"))
            .collect()
    });

    let crawl = |second: bool| Snapshot {
        markets: MarketId::ALL
            .iter()
            .map(|&market| MarketSnapshot {
                market,
                listings: world
                    .market_listings(market)
                    .iter()
                    .map(|id| world.listing(*id))
                    .filter(|l| !(second && l.removed_in_second_crawl))
                    .map(|l| {
                        let mut listing = CrawledListing::from_metadata(&listing_json(world, l))
                            .expect("the market's own metadata parses");
                        if !second {
                            let key = (l.app.0, l.version, profile(market).requires_obfuscation);
                            listing.digest = Some(Arc::clone(&digests[&key]));
                        }
                        listing
                    })
                    .collect(),
            })
            .collect(),
        stats: CrawlStats::default(),
    };
    (crawl(false), crawl(true))
}

impl Analysis {
    fn render(&self, analyzed: &Analyzed) -> u64 {
        let artifacts =
            super::analysis_artifacts(analyzed, &self.labels, &self.snapshot, &self.second);
        super::empty_artifacts(&std::hint::black_box(artifacts))
    }
}

/// Median seconds of `f` over five calls, each in a span.
fn stage<T>(
    rec: &Recorder,
    parent: Option<usize>,
    name: &'static str,
    f: impl Fn() -> T,
) -> (T, f64) {
    let mut times = Vec::new();
    let mut out = None;
    for _ in 0..5 {
        let (value, s) = rec.span(name, parent, |_| f());
        times.push(s);
        out = Some(value);
    }
    (out.expect("ran five times"), harness::median(&times))
}

/// One run of the engine with one worker, with its stage histograms.
struct Sequential {
    wall_s: f64,
    analyzed: Analyzed,
    stages: RegistrySnapshot,
}

impl Sequential {
    fn run(snapshot: &Snapshot) -> Sequential {
        let registry = Arc::new(Registry::new());
        let t = Instant::now();
        let analyzed =
            AnalysisEngine::with_registry(EngineConfig::sequential(), Arc::clone(&registry))
                .run(snapshot);
        Sequential {
            wall_s: t.elapsed().as_secs_f64(),
            analyzed,
            stages: registry.snapshot(),
        }
    }

    /// Nanoseconds the engine's own histogram recorded for a stage.
    fn stage_ns(&self, stage: &str) -> f64 {
        self.stages
            .histogram(STAGE_LATENCY_METRIC, &[("stage", stage)])
            .map_or(0.0, |h| h.sum as f64)
    }

    fn apps(&self) -> f64 {
        self.analyzed.apps.len() as f64
    }
}

impl Workload for Analysis {
    fn setup(seed: u64) -> Self {
        let world = super::world(seed, DIVISOR);
        let (snapshot, second) = offline_snapshots(&world);
        let mut hash = InputHash::new();
        for (_, listing) in snapshot.iter() {
            hash.bytes(listing.package.as_bytes());
            hash.bytes(&listing.digest.as_ref().expect("built offline").file_md5);
        }
        Analysis {
            seed,
            hash: hash.finish(),
            snapshot,
            second,
            labels: LabelSource::from_world(&world),
            counts: Vec::new(),
            empty_artifacts: 0,
        }
    }

    fn rep(&mut self, rec: &Recorder, parent: Option<usize>) -> Rep {
        let start = Instant::now();
        let (analyzed, _) = rec.span("report.engine", parent, |_| {
            AnalysisEngine::new(EngineConfig::default()).run(&self.snapshot)
        });
        let (empty, _) = rec.span("report.render", parent, |_| self.render(&analyzed));
        let wall_s = start.elapsed().as_secs_f64();
        let counts = Counts::of(&analyzed);
        self.counts.push(counts);
        self.empty_artifacts += empty;
        Rep {
            wall_s,
            ops: counts.apps as u64,
            attempted: counts.apps as u64,
            failed: empty,
        }
    }

    fn check(&mut self) -> Vec<String> {
        let mut problems = Vec::new();
        let one_worker =
            Counts::of(&AnalysisEngine::new(EngineConfig::sequential()).run(&self.snapshot));
        if let Some(odd) = self.counts.iter().find(|c| **c != one_worker) {
            problems.push(format!(
                "output counts differ between repetitions or worker counts: {odd:?} vs {one_worker:?}"
            ));
        }
        if one_worker.apps == 0 || one_worker.libraries == 0 {
            problems.push(format!("implausibly empty analysis: {one_worker:?}"));
        }
        if self.empty_artifacts > 0 {
            problems.push(format!("{} artifacts rendered empty", self.empty_artifacts));
        }
        problems
    }

    fn schedule_hash(&self) -> f64 {
        self.hash
    }

    fn layers(&mut self, rec: &Recorder, parent: Option<usize>, _: f64, _: f64) -> Vec<Layer> {
        let (seq, _) = rec.span("report.engine.sequential", parent, |_| {
            Sequential::run(&self.snapshot)
        });
        let (analyzed, apps, seq_s) = (&seq.analyzed, seq.apps(), seq.wall_s);
        let (parallel, par_s) = rec.span("report.engine", parent, |_| {
            AnalysisEngine::new(EngineConfig::default()).run(&self.snapshot)
        });
        let (_, render_s) = rec.span("report.render", parent, |_| self.render(&parallel));

        // Each stage's public batch function, one worker, in the
        // engine's order and on the engine's intermediate artifacts.
        let digests: Vec<&ApkDigest> = analyzed.apps.iter().map(|a| a.digest.as_ref()).collect();
        let per_app = |s: f64| s * 1e9 / apps;
        let (lib_report, detect_s) = stage(rec, parent, "libdetect.detect", || {
            LibraryDetector::new().detect_batch(&digests, 1)
        });
        let lib_packages: HashSet<String> = lib_report
            .libraries
            .iter()
            .map(|l| l.package.clone())
            .collect();
        let ownership = lib_report.ownership();
        let (_, taint_s) = stage(rec, parent, "analysis.taint", || {
            LeakAnalyzer::new().analyze_batch(&digests, &ownership, 1)
        });
        let (clone_inputs, inputs_s) = stage(rec, parent, "clonedetect.inputs", || {
            analyzed
                .apps
                .iter()
                .map(|a| {
                    let binned = a
                        .markets
                        .iter()
                        .map(|(m, d)| (*m, InstallRange::from_count(*d).lower_bound()))
                        .collect();
                    marketscope_clonedetect::UniqueApp::from_digest(
                        &a.digest,
                        &lib_packages,
                        binned,
                    )
                })
                .collect::<Vec<_>>()
        });
        let detector = CloneDetector::new();
        let (_, sig_s) = stage(rec, parent, "clonedetect.sig", || {
            detector.sig_clones(&clone_inputs)
        });
        let (_, code_stage_s) = stage(rec, parent, "clonedetect.code", || {
            detector.code_clones_batch(&clone_inputs, 1)
        });
        let (_, fake_s) = stage(rec, parent, "analysis.fake", || {
            FakeDetector::new().detect(&analyzed.fake_inputs)
        });
        let (_, av_s) = stage(rec, parent, "analysis.av", || {
            AvSimulator::new().scan_batch(&digests, 1)
        });
        let (_, overpriv_s) = stage(rec, parent, "analysis.overpriv", || {
            OverprivilegeAnalyzer::new().analyze_batch(&digests, 1)
        });

        // The same sequential engine on a world a quarter the size: the
        // exponent says how cost grows with the corpus.
        let (small, _) = rec.span("report.engine.small_scale", parent, |_| {
            let (snapshot, _) = offline_snapshots(&super::world(self.seed, SMALL_DIVISOR));
            Sequential::run(&snapshot)
        });
        let exponent =
            |big: f64, small_one: f64| (big / small_one).ln() / (apps / small.apps()).ln();

        let counts = Counts::of(analyzed);
        self.counts.push(counts);
        vec![
            ("libdetect.detect_ns_per_app", per_app(detect_s)),
            ("analysis.taint_ns_per_app", per_app(taint_s)),
            ("clonedetect.inputs_ns_per_app", per_app(inputs_s)),
            ("clonedetect.sig_ns_per_app", per_app(sig_s)),
            ("clonedetect.code_ns_per_app", per_app(code_stage_s)),
            ("analysis.fake_ns_per_app", per_app(fake_s)),
            ("analysis.av_ns_per_app", per_app(av_s)),
            ("analysis.overpriv_ns_per_app", per_app(overpriv_s)),
            (
                "report.engine.dedup_ns_per_listing",
                seq.stage_ns("dedup") / self.snapshot.total_listings() as f64,
            ),
            ("report.engine.seq_apps_per_s", apps / seq_s),
            ("report.engine.par_speedup", seq_s / par_s),
            ("report.engine_ms", par_s * 1e3),
            ("report.render_ms", render_s * 1e3),
            ("report.engine.apps", apps),
            ("libdetect.libraries", counts.libraries as f64),
            ("clonedetect.code_pairs", counts.code_pairs as f64),
            ("clonedetect.sig_pairs", counts.sig_pairs as f64),
            ("analysis.av_flagged", counts.av_flagged as f64),
            ("analysis.overpriv_apps", counts.overpriv_apps as f64),
            ("report.engine.scaling_exp", exponent(seq_s, small.wall_s)),
            (
                "clonedetect.code_scaling_exp",
                exponent(seq.stage_ns("code_clones"), small.stage_ns("code_clones")),
            ),
        ]
    }
}
