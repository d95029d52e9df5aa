//! The repo benchmark. Three ways in:
//!
//! ```text
//! marketscope-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--detail DIR]
//! marketscope-benchmark --out DIR [--seed N] [--seconds S] [--workload NAME]
//! marketscope-benchmark compare BASE/result.json NEW/result.json
//! marketscope-benchmark manifest [tables]
//! ```
//!
//! The first form runs one workload in this process and prints, as the
//! last line of standard output, one JSON object: `correct`, `attempted`,
//! `failed`, and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). The second form is the suite: it re-executes
//! this binary once per workload and mode, so every workload has a
//! process — and RSS and thread peaks — of its own, and writes
//! `DIR/result.json` and one `DIR/trace_<workload>.json` each. `manifest`
//! prints `BENCHMARK.json`, and `manifest tables` the README's tables,
//! from the lists in `metrics.rs`.

// A benchmark stops with the reason when its own set-up breaks: a panic
// with context is the report, as in the repository's CLI binaries.
#![allow(clippy::disallowed_methods)]

mod compare;
mod harness;
mod json;
mod metrics;
mod selfcheck;
mod workloads;

use harness::Recorder;
use json::Json;
use metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use workloads::Measured;

const DEFAULT_SEED: u64 = 0x1517_2018;
const DEFAULT_SECONDS: f64 = 10.0;
/// Long enough for this VM to bring up every core and spend its
/// after-idle burst before anything is timed.
const BURN_IN: Duration = Duration::from_secs(3);

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    detail: Option<PathBuf>,
    out: Option<PathBuf>,
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("error: {problem}");
    eprintln!(
        "usage: marketscope-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--detail DIR]\n\
         \x20      marketscope-benchmark --out DIR [--seed N] [--seconds S] [--workload NAME]\n\
         \x20      marketscope-benchmark compare BASE/result.json NEW/result.json\n\
         \x20      marketscope-benchmark manifest [tables]\n\
         workloads: {}",
        WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>().join(", ")
    );
    ExitCode::from(2)
}

fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        detail: None,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                metrics::workload(value).ok_or_else(|| format!("unknown workload {value:?}"))?;
                parsed.workload = Some(value.clone());
            }
            "--seed" => {
                parsed.seed = parse_seed(value).ok_or("--seed needs an integer")?;
            }
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 600.0)
                    .ok_or("--seconds needs a number in (0, 600]")?;
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".to_owned()),
                };
            }
            "--detail" => parsed.detail = Some(PathBuf::from(value)),
            "--out" => parsed.out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => match args.as_slice() {
            [_, base, new] => compare::run(Path::new(base), Path::new(new)),
            _ => usage("compare needs two result.json paths"),
        },
        Some("manifest") => {
            match args.get(1).map(String::as_str) {
                Some("tables") => print!("{}", tables()),
                _ => print!("{}", manifest().to_pretty()),
            }
            ExitCode::SUCCESS
        }
        _ => match parse_args(&args) {
            Err(problem) => usage(&problem),
            Ok(args) if args.out.is_some() => suite(&args),
            Ok(args) if args.workload.is_some() => single(&args),
            Ok(_) => usage("give --workload NAME or --out DIR"),
        },
    }
}

/// `BENCHMARK.json`, from the tables.
fn manifest() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .map(Json::from)
                .to_vec(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::from("benchmark")])),
        ("run_seconds", Json::Num(DEFAULT_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::from(w.name)), ("why", Json::from(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::from(m.name)),
                            ("unit", Json::from(m.unit)),
                            ("better", Json::from(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::from(m.name)),
                            ("unit", Json::from(m.unit)),
                            ("better", Json::from(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The tables of `README.md`, in Markdown.
fn tables() -> String {
    let mut out = String::from("| workload | one operation | why it exists |\n|---|---|---|\n");
    for w in WORKLOADS {
        out += &format!("| `{}` | {} | {} |\n", w.name, w.op, w.why);
    }
    out += "\n| end-to-end metric | unit | better | bound |\n|---|---|---|---|\n";
    for m in END_TO_END {
        out += &format!(
            "| `{}` | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
    }
    out += "\n| per-layer metric | unit | measured on | should move |\n|---|---|---|---|\n";
    for m in PER_LAYER {
        let on = if m.on.len() == WORKLOADS.len() {
            "all".to_owned()
        } else {
            m.on.join(", ")
        };
        out += &format!("| `{}` | {} | {} | {} |\n", m.name, m.unit, on, m.moves);
    }
    out
}

/// What one process measured, with the values behind each median.
struct Outcome {
    measured: Measured,
    /// (name, value, per-repetition values), in table order.
    metrics: Vec<(&'static str, f64, Vec<f64>)>,
    attempted: u64,
    failed: u64,
    /// The calibration kernel before and after the workload.
    calib_ms: [f64; 2],
    /// Untraced repetitions left out for beginning on a boosted clock.
    boosted_reps: usize,
}

fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    rec: &Recorder,
    threads: &harness::ThreadSampler,
    traced: bool,
) -> Measured {
    use workloads::{
        analysis::Analysis, apk_codec::ApkCodec, campaign::Campaign, crawl_meta::CrawlMeta, run,
        serve::ServeApk, serve::ServeMeta,
    };
    match name {
        "campaign" => run::<Campaign>(seed, seconds, rec, threads, traced),
        "crawl_meta" => run::<CrawlMeta>(seed, seconds, rec, threads, traced),
        "analysis" => run::<Analysis>(seed, seconds, rec, threads, traced),
        "apk_codec" => run::<ApkCodec>(seed, seconds, rec, threads, traced),
        "serve_meta" => run::<ServeMeta>(seed, seconds, rec, threads, traced),
        "serve_apk" => run::<ServeApk>(seed, seconds, rec, threads, traced),
        other => unreachable!("parse_args admits only table workloads, not {other}"),
    }
}

fn measure(name: &str, args: &Args, rec: &Recorder) -> Outcome {
    harness::burn_in(BURN_IN);
    let calib_before = harness::calibrate();
    let threads = harness::ThreadSampler::spawn();
    let mut measured = run_workload(name, args.seed, args.seconds, rec, &threads, args.trace);
    drop(threads);
    let calib_after = harness::calibrate();

    let calib_ms = [calib_before, calib_after];
    let steady = workloads::steady(&measured.reps, calib_ms);
    let attempted = measured.reps.iter().map(|o| o.rep.attempted).sum();
    let failed = measured.reps.iter().map(|o| o.rep.failed).sum();
    let metrics = if args.trace {
        let mut layers = measured.layers.clone();
        layers.push(("harness.calib_ms", (calib_before + calib_after) / 2.0));
        layers.push((
            "harness.calib_drift_share",
            calib_after / calib_before - 1.0,
        ));
        layers.push(("harness.schedule_hash", measured.schedule_hash));
        let boosted = measured.reps.len() - steady.len();
        layers.push((
            "harness.boosted_rep_share",
            boosted as f64 / measured.reps.len() as f64,
        ));
        // The table says which workloads measure a layer; hold the
        // workloads to it, so the README's predictions stay true.
        for (layer, _) in &layers {
            if !PER_LAYER
                .iter()
                .any(|m| m.name == *layer && m.on.contains(&name))
            {
                measured
                    .problems
                    .push(format!("{layer} is not a per-layer metric of {name}"));
            }
        }
        // A layer the workload does not exercise did no work: it reads 0.
        PER_LAYER
            .iter()
            .map(|m| {
                let value = layers.iter().find(|(n, _)| *n == m.name).map(|l| l.1);
                if value.is_none() && m.on.contains(&name) {
                    measured
                        .problems
                        .push(format!("{name} did not measure {}", m.name));
                }
                (m.name, value.unwrap_or(0.0), Vec::new())
            })
            .collect()
    } else {
        let column =
            |f: fn(&workloads::Observed) -> f64| steady.iter().map(f).collect::<Vec<f64>>();
        let walls = column(|o| o.rep.wall_s);
        let rates = column(|o| o.rep.ops as f64 / o.rep.wall_s);
        // The first repetition's peak is what one job in a fresh process
        // needs. Later repetitions sit higher by what the allocator kept
        // of the earlier ones (a campaign's second peaks ~20 % above its
        // first, its third ~35 %), by amounts that do not repeat; and RSS
        // does not depend on the clock, so a boosted first repetition
        // counts too.
        let rss: Vec<f64> = measured.reps.iter().map(|o| o.rss_peak_mb).collect();
        let threads = column(|o| o.threads_peak);
        let cpu_s: f64 = steady.iter().map(|o| o.cpu_s).sum();
        let ops: u64 = steady.iter().map(|o| o.rep.ops).sum();
        vec![
            (
                "setup_s",
                harness::median(&measured.setup_s),
                measured.setup_s.clone(),
            ),
            ("rep_s", harness::median(&walls), walls),
            ("ops_per_s", harness::median(&rates), rates),
            ("cpu_us_per_op", cpu_s * 1e6 / ops.max(1) as f64, Vec::new()),
            ("rss_peak_mb", rss[0], rss),
            ("threads_peak", harness::median(&threads), threads),
        ]
    };
    let (measured_reps, steady_reps) = (measured.reps.len(), steady.len());
    Outcome {
        measured,
        metrics,
        attempted,
        failed,
        calib_ms,
        boosted_reps: measured_reps - steady_reps,
    }
}

fn unit_of(metric: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(name, _)| *name == metric)
        .map_or("", |(_, unit)| unit)
}

/// The object printed as the last line of standard output.
fn result_line(outcome: &Outcome, correct: bool) -> Json {
    let metrics = if correct {
        outcome
            .metrics
            .iter()
            .map(|(name, value, _)| {
                (
                    *name,
                    Json::obj([
                        ("value", Json::Num(*value)),
                        ("unit", Json::from(unit_of(name))),
                    ]),
                )
            })
            .collect()
    } else {
        // No numbers from a broken run.
        Vec::new()
    };
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::from(outcome.attempted.max(1))),
        ("failed", Json::from(outcome.failed)),
        ("metrics", Json::obj(metrics)),
    ])
}

/// One workload, in this process.
fn single(args: &Args) -> ExitCode {
    let name = args.workload.as_deref().expect("checked by main");
    if let Err(problem) = selfcheck::generator() {
        eprintln!("self-check failed: {problem}");
        return ExitCode::FAILURE;
    }
    let rec = Recorder::new(args.trace);
    let outcome = measure(name, args, &rec);
    let correct = outcome.measured.problems.is_empty() && outcome.failed == 0;

    eprintln!(
        "{name}: seed {:#x}, {} s, {} untraced repetitions ({} on a boosted clock, left out), {} cores, traced: {}",
        args.seed,
        args.seconds,
        outcome.measured.reps.len(),
        outcome.boosted_reps,
        harness::nproc(),
        args.trace
    );
    // The result line carries every per-layer metric; for the reader,
    // leave out the layers this workload does not exercise.
    let elsewhere = |metric: &str| {
        PER_LAYER
            .iter()
            .any(|m| m.name == metric && !m.on.contains(&name))
    };
    for (metric, value, _) in outcome.metrics.iter().filter(|m| !elsewhere(m.0)) {
        eprintln!(
            "  {name:<11} {metric:<36} {value:>16.4} {}",
            unit_of(metric)
        );
    }
    eprintln!(
        "  {name:<11} calibration kernel before and after: {:.2} ms, {:.2} ms",
        outcome.calib_ms[0], outcome.calib_ms[1]
    );
    for problem in &outcome.measured.problems {
        eprintln!("  FAILED CHECK: {problem}");
    }

    if let Some(dir) = &args.detail {
        if let Err(e) = write_detail(dir, name, args, &outcome, &rec) {
            eprintln!("cannot write detail files to {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", result_line(&outcome, correct).to_line());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn detail_path(dir: &Path, workload: &str, traced: bool) -> PathBuf {
    dir.join(format!(
        "run_{workload}_{}.json",
        if traced { "traced" } else { "untraced" }
    ))
}

/// The per-repetition values behind the result line, and the trace.
fn write_detail(
    dir: &Path,
    workload: &str,
    args: &Args,
    outcome: &Outcome,
    rec: &Recorder,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let metrics = outcome.metrics.iter().map(|(name, value, reps)| {
        (
            *name,
            Json::obj([
                ("value", Json::Num(*value)),
                ("unit", Json::from(unit_of(name))),
                ("reps", Json::nums(reps)),
            ]),
        )
    });
    let detail = Json::obj([
        ("workload", Json::from(workload)),
        ("attempted", Json::from(outcome.attempted)),
        ("failed", Json::from(outcome.failed)),
        ("calib_ms", Json::nums(&outcome.calib_ms)),
        // Every untraced repetition's clock probe, the boosted ones too.
        (
            "clock_ms",
            Json::nums(
                &outcome
                    .measured
                    .reps
                    .iter()
                    .map(|o| o.clock_ms)
                    .collect::<Vec<_>>(),
            ),
        ),
        (
            "problems",
            Json::Arr(
                outcome
                    .measured
                    .problems
                    .iter()
                    .map(|p| Json::from(p.as_str()))
                    .collect(),
            ),
        ),
        ("metrics", Json::obj(metrics)),
    ]);
    std::fs::write(detail_path(dir, workload, args.trace), detail.to_pretty())?;
    if args.trace {
        let text = harness::trace_text(workload, args.seed, &rec.spans());
        std::fs::write(dir.join(format!("trace_{workload}.json")), text)?;
    }
    Ok(())
}

/// Every workload, untraced then traced, each in a process of its own.
fn suite(args: &Args) -> ExitCode {
    let out = args.out.as_deref().expect("checked by main");
    for check in [selfcheck::generator, selfcheck::calibrated_world] {
        if let Err(problem) = check() {
            eprintln!("self-check failed: {problem}");
            return ExitCode::FAILURE;
        }
    }
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable to run the workloads: {e}");
            return ExitCode::FAILURE;
        }
    };
    let selected: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|name| args.workload.as_deref().map_or(true, |only| only == *name))
        .collect();
    let mut rows = Vec::new();
    for name in selected {
        let mut sides = Vec::new();
        for traced in [false, true] {
            let status = std::process::Command::new(&exe)
                .args(["--workload", name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--detail")
                .arg(out)
                .stdout(std::process::Stdio::null())
                .status();
            match status {
                Ok(status) if status.success() => {}
                Ok(status) => {
                    eprintln!("workload {name} failed its checks ({status}); no result written");
                    return ExitCode::FAILURE;
                }
                Err(e) => {
                    eprintln!("cannot run workload {name}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            let path = detail_path(out, name, traced);
            let detail = std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|text| Json::parse(&text));
            match detail {
                Ok(detail) => {
                    // Folded into result.json below.
                    let _ = std::fs::remove_file(&path);
                    sides.push(detail);
                }
                Err(e) => {
                    eprintln!("cannot read {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
        }
        let metrics_of = |side: &Json| side.get("metrics").cloned().unwrap_or(Json::Null);
        rows.push((
            name,
            Json::obj([
                (
                    "attempted",
                    sides[0].get("attempted").cloned().unwrap_or(Json::Null),
                ),
                (
                    "failed",
                    sides[0].get("failed").cloned().unwrap_or(Json::Null),
                ),
                (
                    "calib_ms",
                    sides[0].get("calib_ms").cloned().unwrap_or(Json::Null),
                ),
                (
                    "clock_ms",
                    sides[0].get("clock_ms").cloned().unwrap_or(Json::Null),
                ),
                ("end_to_end", metrics_of(&sides[0])),
                ("per_layer", metrics_of(&sides[1])),
            ]),
        ));
    }
    let result = Json::obj([
        ("seed", Json::from(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("nproc", Json::from(harness::nproc() as u64)),
        (
            "bounds",
            Json::obj(END_TO_END.iter().map(|m| {
                (
                    m.name,
                    Json::obj([
                        ("better", Json::from(m.better.as_str())),
                        ("bound", Json::Num(m.bound)),
                    ]),
                )
            })),
        ),
        ("workloads", Json::obj(rows)),
    ]);
    let path = out.join("result.json");
    if let Err(e) = std::fs::write(&path, result.to_pretty()) {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {} and the trace files beside it", path.display());
    ExitCode::SUCCESS
}
