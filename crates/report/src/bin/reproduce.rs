//! Regenerate every table and figure of the paper from a full simulated
//! campaign.
//!
//! ```text
//! reproduce [--seed N] [--scale small|medium|large] [--only ARTIFACT] [--out DIR] [--progress]
//!           [--trace-out FILE] [--chaos-seed N] [--chaos-profile light|heavy]
//!           [--ops-bundle DIR]
//! ```
//!
//! `--trace-out FILE` samples every fetch (trace rate 1.0) and writes the
//! merged crawler + fleet + analysis span journal as Chrome trace-event
//! JSON — load it at `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! `--chaos-seed N` runs the campaign under seeded market chaos (resets,
//! stalls, truncated downloads, 5xx bursts, downtime windows — see
//! `marketscope_market::chaos`); the same seed injects the same fault
//! sequence every run. `--chaos-profile` picks the intensity (default
//! `light`); the `ops` artifact gains a "Degraded markets" section.
//!
//! `--ops-bundle DIR` writes the campaign's whole operational record —
//! `metrics.prom` (Prometheus exposition), `series.json` (scraped time
//! series), `slo.json` (burn-rate verdicts), `trace.json` (Chrome trace
//! events), `events.json` (structured log) — for archiving or diffing.

// A CLI binary reports fatal setup/IO errors by panicking with context.
#![allow(clippy::disallowed_methods)]

use marketscope_ecosystem::Scale;
use marketscope_market::{ChaosIntensity, ChaosProfile};
use marketscope_report::experiments as ex;
use marketscope_report::{run_campaign, Campaign, CampaignConfig};

fn main() {
    let mut config = CampaignConfig::default();
    let mut only: Option<String> = None;
    let mut out_dir: Option<std::path::PathBuf> = None;
    let mut trace_out: Option<std::path::PathBuf> = None;
    let mut ops_bundle: Option<std::path::PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                config.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs an integer"));
            }
            "--scale" => {
                config.scale = match args.next().as_deref() {
                    Some("small") => Scale::SMALL,
                    Some("medium") => Scale::MEDIUM,
                    Some("large") => Scale::LARGE,
                    _ => usage("--scale needs small|medium|large"),
                };
            }
            "--only" => {
                only = Some(args.next().unwrap_or_else(|| usage("--only needs a name")));
            }
            "--out" => {
                out_dir = Some(std::path::PathBuf::from(
                    args.next()
                        .unwrap_or_else(|| usage("--out needs a directory")),
                ));
            }
            "--trace-out" => {
                trace_out = Some(std::path::PathBuf::from(
                    args.next()
                        .unwrap_or_else(|| usage("--trace-out needs a file path")),
                ));
                config.trace_sample = 1.0;
            }
            "--chaos-seed" => {
                let seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--chaos-seed needs an integer"));
                config.chaos = Some(ChaosProfile {
                    seed,
                    intensity: config.chaos.map_or(ChaosIntensity::Light, |c| c.intensity),
                });
            }
            "--chaos-profile" => {
                let intensity: ChaosIntensity = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--chaos-profile needs light|heavy"));
                let seed = config.chaos.map_or(0, |c| c.seed);
                config.chaos = Some(ChaosProfile { seed, intensity });
            }
            "--ops-bundle" => {
                ops_bundle = Some(std::path::PathBuf::from(
                    args.next()
                        .unwrap_or_else(|| usage("--ops-bundle needs a directory")),
                ));
            }
            "--progress" => config.progress = true,
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument {other:?}")),
        }
    }

    eprintln!(
        "generating world (seed {:#x}) and crawling {} target listings ...",
        config.seed,
        config.scale.total_listings()
    );
    let start = std::time::Instant::now();
    let campaign = run_campaign(config);
    eprintln!(
        "campaign done in {:.1}s: {} listings, {} APK digests, {} unique apps",
        start.elapsed().as_secs_f64(),
        campaign.snapshot.total_listings(),
        campaign.snapshot.total_apks(),
        campaign.analyzed.apps.len()
    );

    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    for (name, render) in artifacts(&campaign) {
        if only.as_deref().map_or(true, |o| o == name) {
            println!("{render}");
            println!();
            if let Some(dir) = &out_dir {
                std::fs::write(dir.join(format!("{name}.txt")), &render)
                    .expect("write artifact file");
            }
        }
    }
    if let Some(dir) = &out_dir {
        eprintln!("artifacts written to {}", dir.display());
    }
    if let Some(path) = &trace_out {
        std::fs::write(path, marketscope_telemetry::chrome_trace(&campaign.traces))
            .expect("write trace file");
        eprintln!(
            "trace written to {} ({} spans; load at chrome://tracing or ui.perfetto.dev)",
            path.display(),
            campaign.traces.records.len()
        );
    }
    if let Some(dir) = &ops_bundle {
        let files = marketscope_report::write_ops_bundle(dir, &campaign).expect("write ops bundle");
        let firing = campaign
            .slo
            .iter()
            .filter(|v| v.state == marketscope_telemetry::AlertState::Firing)
            .count();
        eprintln!(
            "ops bundle written to {} ({}; {} alerts fired, {} still firing)",
            dir.display(),
            files.join(", "),
            campaign.slo.iter().map(|v| v.fired).sum::<u64>(),
            firing
        );
    }
}

/// All artifacts in paper order.
fn artifacts(c: &Campaign) -> Vec<(&'static str, String)> {
    vec![
        ("table1", ex::table1::run(&c.snapshot).render()),
        ("fig1", ex::fig1::run(&c.snapshot).render()),
        ("fig2", ex::fig2::run(&c.snapshot).render()),
        ("fig3", ex::fig3::run(&c.snapshot).render()),
        ("fig4", ex::fig4::run(&c.snapshot).render()),
        ("fig5", ex::fig5::run(&c.analyzed, &c.labels).render()),
        (
            "table2",
            ex::table2::run(&c.analyzed, &c.labels, 10).render(),
        ),
        ("fig6", ex::fig6::run(&c.snapshot).render()),
        ("fig7", ex::fig7::run(&c.analyzed).render()),
        ("fig8", ex::fig8::run(&c.snapshot).render()),
        ("fig9", ex::fig9::run(&c.snapshot).render()),
        ("table3", ex::table3::run(&c.analyzed).render()),
        ("fig10", ex::fig10::run(&c.analyzed).render()),
        ("fig11", ex::fig11::run(&c.analyzed).render()),
        ("leaks", ex::sec6_leaks::run(&c.analyzed).render()),
        ("table4", ex::table4::run(&c.analyzed).render()),
        ("table5", ex::table5::run(&c.analyzed, 10).render()),
        ("fig12", ex::fig12::run(&c.analyzed, 15).render()),
        ("table6", ex::table6::run(&c.analyzed, &c.second).render()),
        ("fig13", ex::fig13::run(&c.analyzed, &c.snapshot).render()),
        ("sec53", ex::sec53_identity::run(&c.snapshot).render()),
        ("sec64", ex::sec64_repackaged::run(&c.analyzed).render()),
        ("ops", c.ops.render()),
    ]
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: reproduce [--seed N] [--scale small|medium|large] [--only ARTIFACT] [--out DIR] [--progress] [--trace-out FILE] [--chaos-seed N] [--chaos-profile light|heavy] [--ops-bundle DIR]"
    );
    eprintln!("artifacts: table1..table6, fig1..fig13, leaks, sec53, sec64, ops");
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}
