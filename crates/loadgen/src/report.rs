//! Schema-versioned BENCH reports.
//!
//! A `BENCH_<label>.json` at the repo root is one commit's perf
//! baseline: what throughput the fleet sustained, what the latency
//! quantiles were per endpoint, what the run cost in memory, and how
//! long each analysis-engine stage took. [`diff`](mod@crate::diff) compares
//! two of them; the schema version gates comparability — a reader must
//! refuse to diff files whose `schema_version` differs.

use crate::{LoadReport, LoadTotals};
use marketscope_core::json::Json;

/// Current BENCH schema version. Bump on any breaking change to the
/// JSON layout; `bench-diff` refuses mismatched versions (exit 2).
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// One analysis-engine stage's timing, as carried into the BENCH file.
/// Mirrors the report crate's `StageOps` rows (loadgen cannot depend on
/// the report crate — the dependency points the other way — so the
/// caller hands the rows over as plain data).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageTiming {
    /// Stage name from the engine's stage graph.
    pub stage: String,
    /// Items the stage processed.
    pub items: u64,
    /// Stage latency, microseconds.
    pub elapsed_us: u64,
}

/// Everything a BENCH file records.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Label naming the file (`BENCH_<label>.json`).
    pub label: String,
    /// World / schedule seed the run used.
    pub seed: u64,
    /// World scale divisor (smaller = bigger world).
    pub scale_divisor: u64,
    /// Producing crate version (`CARGO_PKG_VERSION`).
    pub version: String,
    /// `debug` or `release`.
    pub profile: String,
    /// The load run.
    pub load: LoadReport,
    /// Per-stage analysis-engine timings (empty when the run skipped
    /// the campaign pipeline).
    pub stages: Vec<StageTiming>,
}

impl BenchReport {
    /// Serialize to the BENCH JSON document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema_version", Json::from(BENCH_SCHEMA_VERSION)),
            ("label", Json::from(self.label.as_str())),
            ("seed", Json::from(self.seed)),
            ("scale_divisor", Json::from(self.scale_divisor)),
            (
                "build",
                Json::obj([
                    ("version", Json::from(self.version.as_str())),
                    ("profile", Json::from(self.profile.as_str())),
                ]),
            ),
            ("load", load_json(&self.load)),
            (
                "stages",
                Json::Arr(
                    self.stages
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("stage", Json::from(s.stage.as_str())),
                                ("items", Json::from(s.items)),
                                ("elapsed_us", Json::from(s.elapsed_us)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Write `BENCH_<label>.json` into `dir`; returns the path written.
    pub fn write(&self, dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        let path = dir.join(format!("BENCH_{}.json", self.label));
        std::fs::write(&path, self.to_json().to_string_compact())?;
        Ok(path)
    }
}

fn totals_json(t: &LoadTotals) -> Json {
    Json::obj([
        ("attempted", Json::from(t.attempted)),
        ("completed", Json::from(t.completed)),
        ("errors", Json::from(t.errors)),
        ("transparent_retries", Json::from(t.transparent_retries)),
        ("resilient_retries", Json::from(t.resilient_retries)),
        ("backoff_nanos", Json::from(t.backoff_nanos)),
        ("fast_fails", Json::from(t.fast_fails)),
        ("fleet_requests", Json::from(t.fleet_requests)),
        ("faults_injected", Json::from(t.faults_injected)),
    ])
}

fn load_json(load: &LoadReport) -> Json {
    Json::obj([
        ("duration_us", Json::from(load.duration_us)),
        ("achieved_rps", Json::from(load.achieved_rps())),
        (
            "steps",
            Json::Arr(
                load.steps
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("workers", Json::from(s.workers)),
                            ("attempted", Json::from(s.attempted)),
                            ("completed", Json::from(s.completed)),
                            ("errors", Json::from(s.errors)),
                            ("duration_us", Json::from(s.duration_us)),
                            (
                                "offered_rps",
                                s.offered_rps.map(Json::from).unwrap_or(Json::Null),
                            ),
                            ("achieved_rps", Json::from(s.achieved_rps)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "endpoints",
            Json::Arr(
                load.endpoints
                    .iter()
                    .map(|e| {
                        Json::obj([
                            ("endpoint", Json::from(e.endpoint)),
                            ("attempted", Json::from(e.attempted)),
                            ("completed", Json::from(e.completed)),
                            ("errors", Json::from(e.errors)),
                            ("p50_ns", Json::from(e.p50_ns)),
                            ("p90_ns", Json::from(e.p90_ns)),
                            ("p99_ns", Json::from(e.p99_ns)),
                            ("max_ns", Json::from(e.max_ns)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("totals", totals_json(&load.totals)),
        // Additive since the C10k transport work; older readers (and
        // `bench-diff`, which only reads the fields it thresholds)
        // ignore it, so schema_version stays 1.
        ("held_connections", Json::from(load.held_connections)),
        (
            "resources",
            Json::obj([
                ("rss_peak_bytes", Json::from(load.resources.rss_peak_bytes)),
                ("threads_peak", Json::from(load.resources.threads_peak)),
                ("samples", Json::from(load.resources.samples)),
            ]),
        ),
        (
            "alloc",
            Json::obj([
                ("allocs", Json::from(load.alloc.allocs)),
                ("bytes_allocated", Json::from(load.alloc.bytes_allocated)),
                ("frees", Json::from(load.alloc.frees)),
                ("bytes_freed", Json::from(load.alloc.bytes_freed)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EndpointReport, StepReport};
    use marketscope_telemetry::perf::{AllocDelta, ResourcePeaks};
    use marketscope_telemetry::RegistrySnapshot;

    /// A small synthetic report for serialization tests.
    fn sample_load() -> LoadReport {
        LoadReport {
            steps: vec![StepReport {
                workers: 2,
                attempted: 80,
                completed: 78,
                errors: 2,
                duration_us: 400_000,
                offered_rps: None,
                achieved_rps: 200.0,
            }],
            endpoints: vec![EndpointReport {
                endpoint: "detail",
                attempted: 80,
                completed: 78,
                errors: 2,
                p50_ns: 200_000,
                p90_ns: 500_000,
                p99_ns: 900_000,
                max_ns: 1_500_000,
            }],
            totals: LoadTotals {
                attempted: 80,
                completed: 78,
                errors: 2,
                fleet_requests: 80,
                ..LoadTotals::default()
            },
            held_connections: 0,
            resources: ResourcePeaks {
                rss_peak_bytes: 64 << 20,
                threads_peak: 20,
                samples: 10,
            },
            alloc: AllocDelta {
                allocs: 1000,
                bytes_allocated: 1 << 20,
                frees: 900,
                bytes_freed: 900 << 10,
            },
            duration_us: 400_000,
            snapshot: RegistrySnapshot::default(),
        }
    }

    #[test]
    fn bench_json_round_trips_and_carries_the_schema() {
        let report = BenchReport {
            label: "test".to_owned(),
            seed: 42,
            scale_divisor: 4000,
            version: "0.1.0".to_owned(),
            profile: "release".to_owned(),
            load: sample_load(),
            stages: vec![StageTiming {
                stage: "dedup".to_owned(),
                items: 500,
                elapsed_us: 1200,
            }],
        };
        let text = report.to_json().to_string_compact();
        let doc = Json::parse(&text).unwrap();
        assert_eq!(
            doc.get("schema_version").unwrap().as_u64(),
            Some(BENCH_SCHEMA_VERSION)
        );
        assert_eq!(
            doc.get("build").unwrap().get("profile").unwrap().as_str(),
            Some("release")
        );
        let load = doc.get("load").unwrap();
        assert_eq!(load.get("achieved_rps").unwrap().as_f64(), Some(200.0));
        let eps = load.get("endpoints").unwrap().as_arr().unwrap();
        assert_eq!(eps[0].get("p99_ns").unwrap().as_u64(), Some(900_000));
        assert_eq!(
            load.get("steps").unwrap().as_arr().unwrap()[0].get("offered_rps"),
            Some(&Json::Null)
        );
        let stages = doc.get("stages").unwrap().as_arr().unwrap();
        assert_eq!(stages[0].get("stage").unwrap().as_str(), Some("dedup"));
    }

    #[test]
    fn write_names_the_file_after_the_label() {
        let report = BenchReport {
            label: "unit".to_owned(),
            seed: 1,
            scale_divisor: 4000,
            version: "0.1.0".to_owned(),
            profile: "debug".to_owned(),
            load: sample_load(),
            stages: vec![],
        };
        let dir = std::env::temp_dir().join("marketscope-bench-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = report.write(&dir).unwrap();
        assert!(path.ends_with("BENCH_unit.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(Json::parse(&text).is_ok());
        std::fs::remove_file(path).unwrap();
    }
}
