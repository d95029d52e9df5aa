//! The benchmark's fixed vocabulary: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics with the end-to-end
//! metric each is expected to move. `BENCHMARK.json` at the repository
//! root and the tables in `README.md` are printed from these lists by the
//! `manifest` subcommand.

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    /// What one operation is: the unit behind `ops_per_s` and
    /// `cpu_us_per_op` on this workload.
    pub op: &'static str,
    pub why: &'static str,
}

/// In table order; the suite always runs them in this order.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "campaign",
        op: "first-crawl listing",
        why: "The user-visible job: world-gen, serve, crawl twice, harvest APKs, analyse, render all 23 artifacts; crawl-bound, so an analysis speed-up must not move it.",
    },
    Workload {
        name: "crawl_meta",
        op: "listing crawled",
        why: "Metadata-only crawl: isolates the fan-out path crawler, net client, mux, reactor, market handlers with hundreds in flight; no APK work, no rate-limit sleeping.",
    },
    Workload {
        name: "analysis",
        op: "unique app analysed",
        why: "Snapshot built offline, then the staged engine and the analysis-backed artifacts: all work in report engine, analysis, libdetect, clonedetect; zero network.",
    },
    Workload {
        name: "apk_codec",
        op: "APK encoded, then decoded and digested",
        why: "APK encoder beside decoder and digest over one corpus: a decoder gain that taxes the encoder, or the reverse, shows; bypasses network and analysis.",
    },
    Workload {
        name: "serve_meta",
        op: "200 response",
        why: "Closed-loop raw-socket clients on the smallest messages: per-request cost of reactor, HTTP codec, router and market lookup; bypasses the net client and mux.",
    },
    Workload {
        name: "serve_apk",
        op: "200 response",
        why: "Same reactor with ~16 KB bodies built per request: handler-bound, so a transport change should barely move it and an APK encoder change should.",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base median by which the metric may worsen.
    pub bound: f64,
}

/// Every workload reports every one of these, measured with tracing off.
/// Bounds come from the measured floor in `NOISE.md`: three times the
/// worst interquartile spread over the workloads, at least 0.10, capped
/// at the 0.25 the benchmark contract allows.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "rep_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "rss_peak_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "threads_peak",
        unit: "count",
        better: Better::Lower,
        bound: 0.10,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Workloads whose traced run measures it; it reads 0 on the others,
    /// where the layer does no work.
    pub on: &'static [&'static str],
    /// The end-to-end movement a change to this number predicts.
    pub moves: &'static str,
}

const CAMPAIGN: &[&str] = &["campaign"];
const CRAWLS: &[&str] = &["campaign", "crawl_meta"];
const ANALYSIS: &[&str] = &["analysis"];
const CODEC: &[&str] = &["apk_codec"];
const SERVE: &[&str] = &["serve_meta", "serve_apk"];
const ALL: &[&str] = &[
    "campaign",
    "crawl_meta",
    "analysis",
    "apk_codec",
    "serve_meta",
    "serve_apk",
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    on: &'static [&'static str],
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        on,
        moves,
    }
}

use Better::{Higher, Lower};

/// Measured by one traced run per workload, from outside, around calls
/// into public functions.
pub const PER_LAYER: &[PerLayer] = &[
    // campaign: the phases of `run_campaign`, driven by hand.
    layer("ecosystem.generate_ms", "ms", Lower, CAMPAIGN, "campaign rep_s by its share (~1 %); setup_s everywhere"),
    layer("market.fleet_spawn_ms", "ms", Lower, CAMPAIGN, "campaign rep_s by its share; setup_s on crawl_meta and serve_*"),
    layer("crawler.crawl1_s", "s", Lower, CAMPAIGN, "campaign rep_s (~73 % of it)"),
    layer("crawler.crawl2_s", "s", Lower, CAMPAIGN, "campaign rep_s (~21 % of it)"),
    layer("report.engine_ms", "ms", Lower, &["campaign", "analysis"], "campaign rep_s by ~3 %; analysis rep_s and ops_per_s almost fully"),
    layer("report.render_ms", "ms", Lower, &["campaign", "analysis"], "campaign rep_s by < 2 %; analysis rep_s by its share"),
    layer("harness.unattributed_ms", "ms", Lower, ALL, "nothing: time in a traced repetition that none of its spans covers"),
    layer("crawler.crawl1_req", "count", Lower, CAMPAIGN, "campaign rep_s and cpu_us_per_op; flat elsewhere"),
    layer("crawler.crawl1_listings", "count", Higher, CAMPAIGN, "nothing: input size, repeats exactly for a seed"),
    layer("crawler.crawl1_apks", "count", Higher, CAMPAIGN, "nothing: harvest size, varies by a few with rate-limit timing"),
    layer("crawler.rate_limited", "count", Lower, CAMPAIGN, "campaign rep_s through net.client.backoff_ms"),
    layer("crawler.apks_backfilled", "count", Higher, CAMPAIGN, "campaign rep_s (repository round trips)"),
    layer("crawler.apks_missing", "count", Lower, CAMPAIGN, "nothing end to end; report.engine.apps on campaign"),
    layer("net.client.retries", "count", Lower, CAMPAIGN, "campaign rep_s; 0 on crawl_meta"),
    layer("net.client.backoff_ms", "ms", Lower, CAMPAIGN, "campaign rep_s only: waiting on Google Play's lane, the critical path"),
    layer("market.non200_share", "ratio", Lower, CRAWLS, "campaign and crawl_meta rep_s, cpu_us_per_op (wasted requests)"),
    layer("crawler.probe_hit_share", "ratio", Higher, CRAWLS, "campaign and crawl_meta rep_s: useful over attempted requests"),
    layer("telemetry.trace_overhead_share", "ratio", Lower, CAMPAIGN, "campaign rep_s when the program's own tracer samples every fetch"),
    // crawl_meta
    layer("crawler.meta_requests", "count", Lower, &["crawl_meta"], "crawl_meta rep_s and cpu_us_per_op; flat on serve_*"),
    layer("crawler.req_per_s", "1/s", Higher, &["crawl_meta"], "crawl_meta ops_per_s; flat on serve_* (no client code there)"),
    layer("net.client.transparent_retries", "count", Lower, CRAWLS, "crawl_meta ops_per_s; must stay 0 on a healthy fleet"),
    // analysis: each stage's public batch function, one worker.
    layer("libdetect.detect_ns_per_app", "ns", Lower, ANALYSIS, "analysis ops_per_s by its share (on the engine's critical chain)"),
    layer("analysis.taint_ns_per_app", "ns", Lower, ANALYSIS, "analysis ops_per_s by its share (< 1 %)"),
    layer("clonedetect.inputs_ns_per_app", "ns", Lower, ANALYSIS, "analysis ops_per_s by its share (~20 %)"),
    layer("clonedetect.sig_ns_per_app", "ns", Lower, ANALYSIS, "analysis ops_per_s by its share (< 1 %)"),
    layer("clonedetect.code_ns_per_app", "ns", Lower, ANALYSIS, "analysis ops_per_s by its share; grows with corpus size"),
    layer("analysis.fake_ns_per_app", "ns", Lower, ANALYSIS, "analysis ops_per_s by its share (< 1 %)"),
    layer("analysis.av_ns_per_app", "ns", Lower, ANALYSIS, "analysis ops_per_s by its share (~25 %)"),
    layer("analysis.overpriv_ns_per_app", "ns", Lower, ANALYSIS, "analysis ops_per_s by its share (~35 %); campaign rep_s by < 2 %"),
    layer("report.engine.dedup_ns_per_listing", "ns", Lower, ANALYSIS, "analysis ops_per_s by its share (< 1 %)"),
    layer("report.engine.seq_apps_per_s", "1/s", Higher, ANALYSIS, "analysis ops_per_s and cpu_us_per_op"),
    layer("report.engine.par_speedup", "ratio", Higher, ANALYSIS, "analysis ops_per_s; bounded by nproc"),
    layer("report.engine.apps", "count", Higher, &["campaign", "analysis"], "nothing: repeats exactly on analysis"),
    layer("libdetect.libraries", "count", Higher, ANALYSIS, "nothing: must repeat exactly"),
    layer("clonedetect.code_pairs", "count", Higher, ANALYSIS, "nothing: must repeat exactly"),
    layer("clonedetect.sig_pairs", "count", Higher, ANALYSIS, "nothing: must repeat exactly"),
    layer("analysis.av_flagged", "count", Higher, ANALYSIS, "nothing: must repeat exactly"),
    layer("analysis.overpriv_apps", "count", Higher, ANALYSIS, "nothing: must repeat exactly"),
    layer("report.engine.scaling_exp", "ratio", Lower, ANALYSIS, "analysis ops_per_s at larger scales: 1 is linear in apps"),
    layer("clonedetect.code_scaling_exp", "ratio", Lower, ANALYSIS, "analysis ops_per_s at larger scales: candidate pairs grow faster than apps"),
    // apk_codec
    layer("apk.encode_mb_per_s", "MB/s", Higher, CODEC, "apk_codec ops_per_s (~35 % of a rep); serve_apk ops_per_s"),
    layer("apk.decode_mb_per_s", "MB/s", Higher, CODEC, "apk_codec ops_per_s (~65 % of a rep); campaign rep_s via harvest"),
    layer("ecosystem.build_apk_us_per_app", "us", Lower, CODEC, "apk.encode_mb_per_s; serve_apk ops_per_s; campaign rep_s via harvest"),
    layer("apk.zip_parse_mb_per_s", "MB/s", Higher, CODEC, "apk.decode_mb_per_s"),
    layer("apk.parse_mb_per_s", "MB/s", Higher, CODEC, "apk.decode_mb_per_s"),
    layer("apk.digest_us_per_app", "us", Lower, CODEC, "apk.decode_mb_per_s"),
    layer("apk.zip_write_mb_per_s", "MB/s", Higher, CODEC, "apk.encode_mb_per_s"),
    layer("apk.corpus_bytes", "count", Higher, CODEC, "nothing: input size, repeats exactly for a seed"),
    layer("apk.corpus_apps", "count", Higher, CODEC, "nothing: input size, repeats exactly for a seed"),
    // serve_meta / serve_apk
    layer("net.reactor.rtt_p50_us", "us", Lower, SERVE, "serve_meta ops_per_s (closed loop: 8 in flight / the last reply's rtt); < 5 % on serve_apk from transport"),
    layer("net.reactor.rtt_p99_us", "us", Lower, SERVE, "nothing end to end: tail wanders too much on a shared VM"),
    layer("net.reactor.rtt_p999_us", "us", Lower, SERVE, "nothing end to end: tail wanders too much on a shared VM"),
    layer("net.http.codec_ns_per_req", "ns", Lower, SERVE, "serve_meta ops_per_s and cpu_us_per_op; < 5 % on serve_apk"),
    layer("market.body_mb_per_s", "MB/s", Higher, SERVE, "serve_apk ops_per_s times the seeded body sizes"),
    layer("market.requests_total", "count", Higher, SERVE, "nothing: must equal the requests sent"),
    layer("net.server.shed", "count", Lower, SERVE, "nothing: must be 0"),
    layer("net.server.accept_errors", "count", Lower, SERVE, "nothing: must be 0"),
    // every workload
    layer("harness.calib_ms", "ms", Lower, ALL, "everything: a fixed spin kernel, so a shift means the machine changed, not the program"),
    layer("harness.calib_drift_share", "ratio", Lower, ALL, "everything: the kernel after the workload over the kernel before it, minus one; far from 0, the machine changed speed mid-run"),
    layer("harness.boosted_rep_share", "ratio", Lower, ALL, "nothing: untraced repetitions left out because they began on a boosted core clock"),
    layer("harness.trace_overhead_share", "ratio", Lower, ALL, "nothing: traced over untraced repetition time, minus one"),
    layer("harness.schedule_hash", "count", Higher, ALL, "nothing: 48-bit hash of the generated inputs, must repeat for a seed"),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
