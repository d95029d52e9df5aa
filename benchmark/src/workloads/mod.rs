//! The six workloads and the loop that times them.
//!
//! A workload sets up its inputs from the seed, then repeats one timed
//! region until the run's seconds are used. An untraced run sets up three
//! times (reporting the median) and times repetitions only; a traced run
//! sets up once and splits its time between untraced repetitions, the
//! same repetitions under the span recorder, and the workload's
//! per-layer probes.

pub mod analysis;
pub mod apk_codec;
pub mod campaign;
pub mod crawl_meta;
pub mod serve;

use crate::harness::{self, Recorder, ThreadSampler};
use marketscope_core::MarketId;
use marketscope_crawler::Snapshot;
use marketscope_ecosystem::{generate, Scale, World, WorldConfig};
use marketscope_report::experiments as ex;
use marketscope_report::{Analyzed, LabelSource};
use marketscope_telemetry::RegistrySnapshot;
use std::time::Instant;

/// One timed repetition.
#[derive(Debug, Clone, Copy)]
pub struct Rep {
    pub wall_s: f64,
    /// Operations completed, in the workload's own unit.
    pub ops: u64,
    /// Operations the program was asked for (requests, APKs, apps).
    pub attempted: u64,
    pub failed: u64,
}

/// A repetition with what the harness saw of the process around it.
#[derive(Debug, Clone, Copy)]
pub struct Observed {
    pub rep: Rep,
    /// [`harness::clock_probe`] just before the repetition.
    pub clock_ms: f64,
    /// Process CPU seconds the repetition used.
    pub cpu_s: f64,
    pub rss_peak_mb: f64,
    pub threads_peak: f64,
}

/// The repetitions that count: those that began at the machine's
/// sustained clock. This VM at times runs a core about 27 % faster for
/// seconds on end (the 31 ms kernel takes 24 ms); a CPU-bound repetition
/// then finishes that much sooner, which says nothing about the program.
/// A repetition whose probe ran more than 10 % faster than the sustained
/// clock is left out — unless that leaves fewer than three.
///
/// The sustained clock is the middle one of three estimates: the
/// calibration before the workload, the one after it, and the upper
/// quartile of the probes. A boost at one end of the run spoils one
/// calibration, interference that stretches the probes spoils the
/// quartile, and the middle of three survives either. When the whole run
/// was boosted all three agree on the boosted clock and nothing is left
/// out: there is no steady clock to compare with.
pub fn steady(reps: &[Observed], calib_ms: [f64; 2]) -> Vec<Observed> {
    let mut clocks: Vec<f64> = reps.iter().map(|o| o.clock_ms).collect();
    clocks.sort_by(f64::total_cmp);
    let sustained = harness::median(&[
        calib_ms[0] / harness::PROBES_PER_CALIB,
        calib_ms[1] / harness::PROBES_PER_CALIB,
        clocks[clocks.len() * 3 / 4],
    ]);
    let kept: Vec<Observed> = reps
        .iter()
        .copied()
        .filter(|o| o.clock_ms >= 0.9 * sustained)
        .collect();
    if kept.len() < 3 {
        reps.to_vec()
    } else {
        kept
    }
}

/// A named per-layer value.
pub type Layer = (&'static str, f64);

pub trait Workload: Sized {
    /// Untraced repetitions a run holds at least, however few seconds it
    /// was given: a median needs this many of a repetition whose time
    /// comes in steps.
    const MIN_REPS: usize = 1;

    /// Everything before the first timed region: world generation,
    /// corpus or snapshot build, fleet spawn, warm-up.
    fn setup(seed: u64) -> Self;

    /// One repetition of the timed region. Under an enabled recorder it
    /// also records the finest spans the harness can see from outside.
    fn rep(&mut self, rec: &Recorder, parent: Option<usize>) -> Rep;

    /// Correctness of the program's outputs over the repetitions run,
    /// checked after timing: one line per failed check.
    fn check(&mut self) -> Vec<String>;

    /// Hash of the inputs the seed generated.
    fn schedule_hash(&self) -> f64;

    /// Per-layer probes of a traced run, sized to about `seconds`.
    /// `untraced_rep_s` is the median untraced repetition of this run.
    fn layers(
        &mut self,
        rec: &Recorder,
        parent: Option<usize>,
        seconds: f64,
        untraced_rep_s: f64,
    ) -> Vec<Layer>;
}

/// What one run of one workload measured.
#[derive(Debug, Default)]
pub struct Measured {
    pub setup_s: Vec<f64>,
    /// Repetitions run with the recorder off (all of an untraced run).
    pub reps: Vec<Observed>,
    pub problems: Vec<String>,
    pub schedule_hash: f64,
    /// Filled by traced runs only.
    pub layers: Vec<Layer>,
}

/// Untraced repetitions until `seconds` have passed and there are
/// `min_reps` of them, each with the RSS and thread peaks of its own.
fn untraced_reps<W: Workload>(
    w: &mut W,
    threads: &ThreadSampler,
    seconds: f64,
    min_reps: usize,
) -> Vec<Observed> {
    let off = Recorder::new(false);
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < min_reps.max(1) || start.elapsed().as_secs_f64() < seconds {
        let clock_ms = harness::clock_probe();
        harness::reset_rss_peak();
        threads.take_peak();
        let cpu = harness::cpu_seconds();
        let rep = w.rep(&off, None);
        reps.push(Observed {
            rep,
            clock_ms,
            cpu_s: harness::cpu_seconds() - cpu,
            rss_peak_mb: harness::rss_peak_mb(),
            threads_peak: threads.take_peak(),
        });
    }
    reps
}

fn median_wall(reps: impl Iterator<Item = Rep>) -> f64 {
    harness::median(&reps.map(|r| r.wall_s).collect::<Vec<_>>())
}

pub fn run<W: Workload>(
    seed: u64,
    seconds: f64,
    rec: &Recorder,
    threads: &ThreadSampler,
    traced: bool,
) -> Measured {
    let mut out = Measured::default();
    let mut w = None;
    for _ in 0..if traced { 1 } else { 3 } {
        // Tear the previous set-up down outside the timer.
        drop(w.take());
        let t = Instant::now();
        w = Some(W::setup(seed));
        out.setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut w = w.expect("set up at least once");
    out.schedule_hash = w.schedule_hash();

    if !traced {
        out.reps = untraced_reps(&mut w, threads, seconds, W::MIN_REPS);
        out.problems = w.check();
        return out;
    }

    let ((), _) = rec.span("workload", None, |root| {
        let (untraced, _) = rec.span("harness.untraced_reps", root, |_| {
            untraced_reps(&mut w, threads, seconds * 0.3, 1)
        });
        let untraced_rep_s = median_wall(untraced.iter().map(|o| o.rep));
        let start = Instant::now();
        let mut traced_reps = Vec::new();
        let mut rep_ids = Vec::new();
        while traced_reps.is_empty() || start.elapsed().as_secs_f64() < seconds * 0.3 {
            let (rep, _) = rec.span("rep", root, |id| {
                rep_ids.extend(id);
                w.rep(rec, id)
            });
            traced_reps.push(rep);
        }
        let traced_rep_s = median_wall(traced_reps.iter().copied());
        let spans = rec.spans();
        let self_ns = harness::self_times_ns(&spans);
        let rep_self_ms: Vec<f64> = rep_ids.iter().map(|id| self_ns[*id] as f64 / 1e6).collect();
        out.layers = w.layers(rec, root, seconds * 0.4, untraced_rep_s);
        out.layers.extend([
            (
                "harness.trace_overhead_share",
                traced_rep_s / untraced_rep_s - 1.0,
            ),
            ("harness.unattributed_ms", harness::median(&rep_self_ms)),
        ]);
        out.reps = untraced;
    });
    out.problems = w.check();

    // Top-level spans must account for the traced region: whatever the
    // root span spent outside its children is time no layer owns.
    let spans = rec.spans();
    let root_self = harness::self_times_ns(&spans)[0] as f64;
    let root_wall = (spans[0].end_ns - spans[0].start_ns) as f64;
    if root_self > 0.05 * root_wall {
        out.problems.push(format!(
            "top-level spans leave {:.1} % of the traced run unattributed",
            100.0 * root_self / root_wall
        ));
    }
    out
}

pub fn world(seed: u64, divisor: u32) -> World {
    generate(WorldConfig {
        seed,
        scale: Scale { divisor },
        ..WorldConfig::default()
    })
}

/// The deterministic share of Google Play packages an external seed list
/// would cover, as `run_campaign` derives it.
pub fn gp_seeds(world: &World, share: f64) -> Vec<String> {
    let gp = world.market_listings(MarketId::GooglePlay);
    gp.iter()
        .enumerate()
        .filter(|(i, _)| (*i as f64) < gp.len() as f64 * share)
        .map(|(_, l)| world.app(world.listing(*l).app).package.as_str().to_owned())
        .collect()
}

/// The artifacts computed from the crawled snapshots alone, in paper
/// order, as the `reproduce` binary renders them.
pub fn snapshot_artifacts(snapshot: &Snapshot) -> Vec<(&'static str, String)> {
    vec![
        ("table1", ex::table1::run(snapshot).render()),
        ("fig1", ex::fig1::run(snapshot).render()),
        ("fig2", ex::fig2::run(snapshot).render()),
        ("fig3", ex::fig3::run(snapshot).render()),
        ("fig4", ex::fig4::run(snapshot).render()),
        ("fig6", ex::fig6::run(snapshot).render()),
        ("fig8", ex::fig8::run(snapshot).render()),
        ("fig9", ex::fig9::run(snapshot).render()),
        ("sec53", ex::sec53_identity::run(snapshot).render()),
    ]
}

/// The artifacts that read the analysis engine's output.
pub fn analysis_artifacts(
    analyzed: &Analyzed,
    labels: &LabelSource,
    snapshot: &Snapshot,
    second: &Snapshot,
) -> Vec<(&'static str, String)> {
    vec![
        ("fig5", ex::fig5::run(analyzed, labels).render()),
        ("table2", ex::table2::run(analyzed, labels, 10).render()),
        ("fig7", ex::fig7::run(analyzed).render()),
        ("table3", ex::table3::run(analyzed).render()),
        ("fig10", ex::fig10::run(analyzed).render()),
        ("fig11", ex::fig11::run(analyzed).render()),
        ("leaks", ex::sec6_leaks::run(analyzed).render()),
        ("table4", ex::table4::run(analyzed).render()),
        ("table5", ex::table5::run(analyzed, 10).render()),
        ("fig12", ex::fig12::run(analyzed, 15).render()),
        ("table6", ex::table6::run(analyzed, second).render()),
        ("fig13", ex::fig13::run(analyzed, snapshot).render()),
        ("sec64", ex::sec64_repackaged::run(analyzed).render()),
    ]
}

/// Share of the fleet's responses that were not 200, and the share of
/// requests that were not answered 404 (a probe for a package the market
/// does not list).
pub fn response_shares(fleet: &RegistrySnapshot) -> (f64, f64) {
    let total = fleet
        .counter_sum("marketscope_net_responses_total", &[])
        .max(1) as f64;
    let ok = fleet.counter_sum("marketscope_net_responses_total", &[("status", "200")]) as f64;
    let not_found =
        fleet.counter_sum("marketscope_net_responses_total", &[("status", "404")]) as f64;
    (1.0 - ok / total, 1.0 - not_found / total)
}

/// Artifacts that rendered to nothing.
pub fn empty_artifacts(artifacts: &[(&'static str, String)]) -> u64 {
    artifacts
        .iter()
        .filter(|(_, text)| text.trim().is_empty())
        .count() as u64
}
