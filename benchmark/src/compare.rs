//! `compare BASE/result.json NEW/result.json`: one row per end-to-end
//! metric and workload, judged against the bound the base result
//! carries. Exit code 1 if any row reads `worse`.

use crate::json::Json;
use std::path::Path;
use std::process::ExitCode;

/// On a quiet machine the best-of-five calibration kernel repeats within
/// 1-2 %; two runs whose kernels differ by more than this did not see the
/// same machine, whatever the metric's own bound allows.
const CALIB_TOLERANCE: f64 = 0.05;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Same,
    Better,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Lowest and highest per-repetition value, or the value itself for a
/// metric measured once per run.
fn range(metric: &Json) -> Option<(f64, f64)> {
    let value = metric.get("value")?.as_f64()?;
    let reps = metric.get("reps").map(Json::as_nums).unwrap_or_default();
    let lo = reps.iter().copied().fold(value, f64::min);
    let hi = reps.iter().copied().fold(value, f64::max);
    Some((lo, hi))
}

/// How much worse `new` is than `base`, as a share of `base`, positive
/// when worse.
fn worsening(base: f64, new: f64, lower_is_better: bool) -> f64 {
    let change = (new - base) / base;
    if lower_is_better {
        change
    } else {
        -change
    }
}

fn judge(
    base: &Json,
    new: &Json,
    lower_is_better: bool,
    bound: f64,
    calib_moved: bool,
) -> Option<(f64, f64, Verdict)> {
    let b = base.get("value")?.as_f64()?;
    let n = new.get("value")?.as_f64()?;
    let worse_by = worsening(b, n, lower_is_better);
    let verdict = if worse_by.abs() <= bound {
        Verdict::Same
    } else if calib_moved {
        // The machine itself ran at another speed: nothing to conclude.
        Verdict::Unresolved
    } else {
        let (b_lo, b_hi) = range(base)?;
        let (n_lo, n_hi) = range(new)?;
        let overlap = b_lo <= n_hi && n_lo <= b_hi;
        match (overlap, worse_by > 0.0) {
            (true, _) => Verdict::Unresolved,
            (false, true) => Verdict::Worse,
            (false, false) => Verdict::Better,
        }
    };
    Some((b, n, verdict))
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn run(base_path: &Path, new_path: &Path) -> ExitCode {
    let (base, new) = match (load(base_path), load(new_path)) {
        (Ok(base), Ok(new)) => (base, new),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let empty = Vec::new();
    let bounds = base.get("bounds").and_then(Json::as_obj).unwrap_or(&empty);
    let workloads = base
        .get("workloads")
        .and_then(Json::as_obj)
        .unwrap_or(&empty);
    if bounds.is_empty() || workloads.is_empty() {
        eprintln!(
            "error: {} is not a result.json of this benchmark",
            base_path.display()
        );
        return ExitCode::from(2);
    }

    println!(
        "{:<11} {:<14} {:>14} {:>14} {:>7} {:>6}  verdict",
        "workload", "metric", "base", "new", "ratio", "bound"
    );
    let mut any_worse = false;
    for (workload, base_row) in workloads {
        let Some(new_row) = new.get("workloads").and_then(|w| w.get(workload)) else {
            println!("{workload:<11} missing from {}", new_path.display());
            any_worse = true;
            continue;
        };
        // Mean of the calibration kernel before and after the untraced run.
        let calib = |row: &Json| {
            let around = row.get("calib_ms")?.as_nums();
            (!around.is_empty()).then(|| around.iter().sum::<f64>() / around.len() as f64)
        };
        for (metric, spec) in bounds {
            let bound = spec.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let lower = spec.get("better").and_then(Json::as_str) != Some("higher");
            let calib_moved = match (calib(base_row), calib(new_row)) {
                (Some(b), Some(n)) => ((n - b) / b).abs() > CALIB_TOLERANCE.min(bound),
                _ => false,
            };
            let cell = |row: &Json| row.get("end_to_end")?.get(metric).cloned();
            let judged = cell(base_row)
                .zip(cell(new_row))
                .and_then(|(b, n)| judge(&b, &n, lower, bound, calib_moved));
            match judged {
                Some((b, n, verdict)) => {
                    any_worse |= verdict == Verdict::Worse;
                    println!(
                        "{workload:<11} {metric:<14} {b:>14.4} {n:>14.4} {:>7.3} {bound:>6.2}  {}",
                        n / b,
                        verdict.as_str()
                    );
                }
                None => {
                    any_worse = true;
                    println!("{workload:<11} {metric:<14} missing on one side");
                }
            }
        }
    }
    if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
