//! Standalone perf-baseline CLI.
//!
//! ```text
//! loadgen run [--seed N] [--divisor N] [--profile smoke|saturation|c10k|fanout]
//!             [--label LABEL] [--out DIR] [--max-inflight N]
//! loadgen bench-diff OLD.json NEW.json [--max-rps-drop F] [--max-p99-rise F]
//!             [--p99-floor-ns N] [--max-rss-rise F] [--max-alloc-rise F]
//! ```
//!
//! `run` generates a world (default scale honors
//! `MARKETSCOPE_BENCH_DIVISOR`), spawns the
//! market fleet, drives it with the chosen load profile and writes
//! `BENCH_<label>.json`. Unlike `reproduce --bench` it skips the crawl
//! and analysis pipeline, so the BENCH file carries no stage timings —
//! it is the fast path for serving-side measurements.
//!
//! `bench-diff` compares two BENCH files and exits:
//!
//! * `0` — no regression past the thresholds (improvements never flag);
//! * `1` — at least one regression, listed on stderr;
//! * `2` — the files are not comparable (unreadable, unparseable, or a
//!   `schema_version` this binary does not understand).
//!
//! Build with `--features alloc-profile` to install the counting global
//! allocator; `run`'s BENCH files then carry real allocation deltas.

// A CLI binary reports fatal setup/IO errors by panicking with context.
#![allow(clippy::disallowed_methods)]

use marketscope_core::json::Json;
use marketscope_ecosystem::{generate, Scale, WorldConfig};
use marketscope_loadgen::{diff, BenchReport, DiffThresholds, LoadConfig};
use marketscope_market::MarketFleet;
use std::sync::Arc;

#[cfg(feature = "alloc-profile")]
#[global_allocator]
static ALLOC: marketscope_telemetry::perf::CountingAlloc =
    marketscope_telemetry::perf::CountingAlloc;

fn main() {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("run") => run(args),
        Some("bench-diff") => bench_diff(args),
        Some("--help") | Some("-h") => usage(""),
        Some(other) => usage(&format!("unknown subcommand {other:?}")),
        None => usage("a subcommand is required"),
    }
}

fn run(mut args: impl Iterator<Item = String>) {
    let mut seed = 0x1517_2018u64;
    let mut divisor: u32 = std::env::var("MARKETSCOPE_BENCH_DIVISOR")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4_000);
    let mut profile = "smoke".to_owned();
    let mut label = "local".to_owned();
    let mut out_dir = std::path::PathBuf::from(".");
    let mut max_inflight = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs an integer"));
            }
            "--divisor" => {
                divisor = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--divisor needs an integer"));
            }
            "--profile" => {
                profile = args
                    .next()
                    .unwrap_or_else(|| usage("--profile needs smoke|saturation|c10k|fanout"));
            }
            "--label" => {
                label = args.next().unwrap_or_else(|| usage("--label needs a name"));
            }
            "--out" => {
                out_dir = std::path::PathBuf::from(
                    args.next()
                        .unwrap_or_else(|| usage("--out needs a directory")),
                );
            }
            "--max-inflight" => {
                max_inflight = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--max-inflight needs an integer")),
                );
            }
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    let mut config = match profile.as_str() {
        "smoke" => LoadConfig::smoke(seed),
        "saturation" => LoadConfig::saturation(seed),
        // The C10k profile parks thousands of keep-alive connections
        // against one market while the smoke steps run; the BENCH file's
        // `held_connections` and `threads_peak` record the result.
        "c10k" => LoadConfig::c10k(seed),
        // The fan-out profile submits each step's whole plan through the
        // mux driver open-loop from one thread; the BENCH file's RPS is
        // multiplexed-client fan-out, not thread-pile concurrency.
        "fanout" => LoadConfig::fanout(seed),
        _ => usage("--profile needs smoke|saturation|c10k|fanout"),
    };
    config.max_inflight = max_inflight;

    eprintln!("loadgen: generating world (seed {seed:#x}, divisor {divisor}) ...");
    let world = Arc::new(generate(WorldConfig {
        seed,
        scale: Scale { divisor },
        ..WorldConfig::default()
    }));
    let fleet = MarketFleet::spawn(Arc::clone(&world)).expect("spawn fleet");
    eprintln!(
        "loadgen: {} profile, {} steps ...",
        profile,
        config.steps.len()
    );
    let load = marketscope_loadgen::run_against(&fleet, &config);
    fleet.stop();

    if config.hold_connections > 0 {
        eprintln!(
            "loadgen: held {} keep-alive connections (threads peak {})",
            load.held_connections, load.resources.threads_peak
        );
    }

    for step in &load.steps {
        eprintln!(
            "loadgen: {:>3} workers -> {:>8.1} rps ({} errors)",
            step.workers, step.achieved_rps, step.errors
        );
    }
    let report = BenchReport {
        label,
        seed,
        scale_divisor: divisor as u64,
        version: env!("CARGO_PKG_VERSION").to_owned(),
        profile: marketscope_telemetry::perf::build_profile().to_owned(),
        load,
        stages: Vec::new(),
    };
    let path = report.write(&out_dir).expect("write bench report");
    eprintln!(
        "bench report written to {} ({:.0} rps achieved, rss peak {:.1} MiB)",
        path.display(),
        report.load.achieved_rps(),
        report.load.resources.rss_peak_bytes as f64 / (1024.0 * 1024.0)
    );
}

fn bench_diff(mut args: impl Iterator<Item = String>) {
    let old_path = args
        .next()
        .unwrap_or_else(|| usage("bench-diff needs OLD.json NEW.json"));
    let new_path = args
        .next()
        .unwrap_or_else(|| usage("bench-diff needs OLD.json NEW.json"));
    let mut thresholds = DiffThresholds::default();
    while let Some(arg) = args.next() {
        let mut f = |name: &str| -> f64 {
            args.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage(&format!("{name} needs a number")))
        };
        match arg.as_str() {
            "--max-rps-drop" => thresholds.max_rps_drop = f("--max-rps-drop"),
            "--max-p99-rise" => thresholds.max_p99_rise = f("--max-p99-rise"),
            "--p99-floor-ns" => thresholds.p99_floor_ns = f("--p99-floor-ns") as u64,
            "--max-rss-rise" => thresholds.max_rss_rise = f("--max-rss-rise"),
            "--max-alloc-rise" => thresholds.max_alloc_rise = f("--max-alloc-rise"),
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    let old = read_bench(&old_path);
    let new = read_bench(&new_path);
    match diff(&old, &new, &thresholds) {
        Ok(regressions) if regressions.is_empty() => {
            eprintln!("bench-diff: no regressions ({old_path} -> {new_path})");
        }
        Ok(regressions) => {
            eprintln!(
                "bench-diff: {} regression(s) ({old_path} -> {new_path}):",
                regressions.len()
            );
            for r in &regressions {
                eprintln!("  {r}");
            }
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("bench-diff: {e}");
            std::process::exit(2);
        }
    }
}

/// Read and parse a BENCH file; any failure is an exit-2 comparability
/// error, never a regression.
fn read_bench(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("bench-diff: cannot read {path}: {e}");
        std::process::exit(2);
    });
    Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("bench-diff: {path} is not valid JSON: {e:?}");
        std::process::exit(2);
    })
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: loadgen run [--seed N] [--divisor N] [--profile smoke|saturation|c10k|fanout] [--label LABEL] [--out DIR] [--max-inflight N]"
    );
    eprintln!(
        "       loadgen bench-diff OLD.json NEW.json [--max-rps-drop F] [--max-p99-rise F] [--p99-floor-ns N] [--max-rss-rise F] [--max-alloc-rise F]"
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}
