//! # marketscope-loadgen
//!
//! The closed-loop load-generation harness behind the repo's standing
//! perf baseline. It drives a [`MarketFleet`] with deterministic request
//! schedules at configurable concurrency — optionally stepping the
//! worker count up until the fleet saturates — and collects the numbers
//! every scaling PR must regress against:
//!
//! * offered vs achieved RPS per step (offered is only meaningful for
//!   paced steps; unpaced closed-loop steps *are* the saturation probe);
//! * p50/p90/p99/max latency per endpoint, pulled from the existing
//!   `marketscope_net_client_request_nanos` histograms — the harness
//!   never re-measures what the telemetry layer already records;
//! * fault/retry/circuit counts from the same instruments the crawler
//!   uses;
//! * allocation and RSS peaks via [`marketscope_telemetry::perf`].
//!
//! Results serialize into a schema-versioned `BENCH_<label>.json`
//! ([`report::BenchReport`]) and regress via [`mod@diff`].
//!
//! Determinism: with a fixed seed and a mix that excludes the
//! rate-limited `/apk` endpoint, two runs issue identical request
//! streams and produce identical attempted/completed/error counts —
//! only latencies differ. That property is what makes BENCH files from
//! different commits comparable (and is pinned by this crate's tests).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod report;
pub mod schedule;

pub use diff::{diff, DiffError, DiffThresholds, Regression};
pub use report::{BenchReport, StageTiming, BENCH_SCHEMA_VERSION};
pub use schedule::{Corpus, Endpoint, EndpointMix, RequestPlan, Schedule, ENDPOINTS};

use marketscope_core::MarketId;
use marketscope_market::MarketFleet;
use marketscope_net::client::{ClientConfig, ClientMetrics, FetchSpec, HttpClient};
use marketscope_net::resilience::{BreakerConfig, ResilienceMetrics, RetryPolicy};
use marketscope_net::Ticket;
use marketscope_telemetry::perf::{AllocDelta, AllocPhase, ResourcePeaks, ResourceSampler};
use marketscope_telemetry::{Registry, RegistrySnapshot};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One load step: `workers` closed-loop workers each issuing
/// `requests_per_worker` requests, optionally paced to a target rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadStep {
    /// Concurrent workers.
    pub workers: usize,
    /// Requests each worker issues (closed loop: next starts when the
    /// previous completes).
    pub requests_per_worker: usize,
    /// Offered request rate across all workers. `None` = unpaced: each
    /// worker fires as fast as responses return, so the step measures
    /// the saturation throughput at this concurrency.
    pub target_rps: Option<f64>,
}

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Seed for the request schedule (pure function of the seed).
    pub seed: u64,
    /// Steps, run in order against the same fleet.
    pub steps: Vec<LoadStep>,
    /// Endpoint draw weights.
    pub mix: EndpointMix,
    /// Per-endpoint-client cap on in-flight requests
    /// ([`ClientConfig::max_inflight`]). `None` = bounded only by the
    /// worker count.
    pub max_inflight: Option<usize>,
    /// Attach the crawler's retry policy and circuit breaker to the
    /// load clients, so a chaos-profiled fleet exercises (and counts)
    /// the whole resilience stack under load.
    pub resilience: bool,
    /// Keep-alive connections to park against one market server for the
    /// whole run (each sends a single `/__health` request, then idles).
    /// Exercises the event-loop transport's C10k claim: the held
    /// connections occupy reactor slots — not threads — while the load
    /// steps run through the same server fleet. `0` = none.
    pub hold_connections: usize,
    /// Open-loop mode: workers *submit* every request in their plan to
    /// the mux driver (via [`HttpClient::submit_get`]) and only then
    /// drain the tickets, so offered concurrency is the whole plan —
    /// hundreds of requests in flight per worker thread — instead of one
    /// request per worker. Closed-loop (`false`) is the classic
    /// request-then-wait worker.
    pub open_loop: bool,
    /// Interval between RSS/thread samples.
    pub sample_every: Duration,
}

impl LoadConfig {
    /// The CI smoke profile: two short steps, metadata-only mix (fully
    /// deterministic counters), no pacing. Finishes in seconds on one
    /// CPU.
    pub fn smoke(seed: u64) -> LoadConfig {
        LoadConfig {
            seed,
            steps: vec![
                LoadStep {
                    workers: 2,
                    requests_per_worker: 40,
                    target_rps: None,
                },
                LoadStep {
                    workers: 4,
                    requests_per_worker: 40,
                    target_rps: None,
                },
            ],
            mix: EndpointMix::metadata(),
            max_inflight: None,
            resilience: false,
            hold_connections: 0,
            open_loop: false,
            sample_every: Duration::from_millis(25),
        }
    }

    /// The saturation profile: steps the worker count up through the
    /// crawl-shaped mix (APK downloads included) until added concurrency
    /// stops buying throughput. The per-step RPS curve in the BENCH file
    /// is the saturation knee.
    pub fn saturation(seed: u64) -> LoadConfig {
        LoadConfig {
            seed,
            steps: [1usize, 2, 4, 8, 16]
                .into_iter()
                .map(|workers| LoadStep {
                    workers,
                    requests_per_worker: 60,
                    target_rps: None,
                })
                .collect(),
            mix: EndpointMix::crawl(),
            max_inflight: None,
            resilience: true,
            hold_connections: 0,
            open_loop: false,
            sample_every: Duration::from_millis(25),
        }
    }

    /// The fan-out profile: one submitting thread per step puts its whole
    /// plan in flight through the mux driver at once (open loop), so the
    /// BENCH file measures multiplexed client fan-out — hundreds of
    /// outstanding requests on a `1 submitter + 1 driver` thread budget —
    /// rather than thread-pile concurrency. Metadata-only mix keeps the
    /// counters fully deterministic.
    pub fn fanout(seed: u64) -> LoadConfig {
        LoadConfig {
            seed,
            steps: [256usize, 512]
                .into_iter()
                .map(|requests| LoadStep {
                    workers: 1,
                    requests_per_worker: requests,
                    target_rps: None,
                })
                .collect(),
            mix: EndpointMix::metadata(),
            max_inflight: None,
            resilience: false,
            hold_connections: 0,
            open_loop: true,
            sample_every: Duration::from_millis(25),
        }
    }

    /// The C10k profile: park [`C10K_HELD_CONNECTIONS`] keep-alive
    /// connections against one market server, then run the smoke steps
    /// through the same fleet. The held sockets prove the event-loop
    /// transport holds thousands of connections at a constant thread
    /// count (`resources.threads_peak` in the BENCH file stays flat)
    /// while live traffic still flows.
    pub fn c10k(seed: u64) -> LoadConfig {
        LoadConfig {
            hold_connections: C10K_HELD_CONNECTIONS,
            ..LoadConfig::smoke(seed)
        }
    }
}

/// Connections the [`LoadConfig::c10k`] profile parks (comfortably past
/// the acceptance bar of 2,000, well under the default 8,192-connection
/// reactor ceiling and the container's fd limit).
pub const C10K_HELD_CONNECTIONS: usize = 2_500;

/// One step's measured outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct StepReport {
    /// Workers the step ran.
    pub workers: usize,
    /// Requests attempted (always `workers × requests_per_worker`).
    pub attempted: u64,
    /// Requests that returned 200.
    pub completed: u64,
    /// Requests that errored (any [`NetError`], including non-200
    /// statuses and circuit fast-fails).
    ///
    /// [`NetError`]: marketscope_net::NetError
    pub errors: u64,
    /// Step wall clock in microseconds.
    pub duration_us: u64,
    /// Offered rate, when the step was paced.
    pub offered_rps: Option<f64>,
    /// `attempted / duration` — the saturation throughput when unpaced.
    pub achieved_rps: f64,
}

/// Per-endpoint totals and latency quantiles (nanoseconds), read from
/// the client histograms after the run.
#[derive(Debug, Clone, PartialEq)]
pub struct EndpointReport {
    /// Endpoint name (metric label / BENCH key).
    pub endpoint: &'static str,
    /// Requests attempted against this endpoint.
    pub attempted: u64,
    /// 200s.
    pub completed: u64,
    /// Errors (including 404/429/5xx statuses).
    pub errors: u64,
    /// Median latency, ns.
    pub p50_ns: u64,
    /// 90th percentile, ns.
    pub p90_ns: u64,
    /// 99th percentile, ns.
    pub p99_ns: u64,
    /// Exact maximum, ns.
    pub max_ns: u64,
}

/// Whole-run totals across every step and endpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadTotals {
    /// Requests attempted.
    pub attempted: u64,
    /// 200s.
    pub completed: u64,
    /// Errors.
    pub errors: u64,
    /// Transparent connection-level retries inside the client.
    pub transparent_retries: u64,
    /// Policy-level resilient retries (0 without `resilience`).
    pub resilient_retries: u64,
    /// Nanoseconds slept in backoff (0 without `resilience`).
    pub backoff_nanos: u64,
    /// Requests fast-failed by an open circuit.
    pub fast_fails: u64,
    /// Requests the fleet's servers actually saw.
    pub fleet_requests: u64,
    /// Faults the fleet's chaos injectors fired (0 without chaos).
    pub faults_injected: u64,
}

/// Everything one load run measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Per-step outcomes, in run order.
    pub steps: Vec<StepReport>,
    /// Per-endpoint stats, in [`ENDPOINTS`] order (zero-weight endpoints
    /// report zeros).
    pub endpoints: Vec<EndpointReport>,
    /// Whole-run totals.
    pub totals: LoadTotals,
    /// Keep-alive connections actually parked for the run's duration
    /// (`0` unless the config asked to hold some).
    pub held_connections: u64,
    /// RSS/thread peaks sampled during the run.
    pub resources: ResourcePeaks,
    /// Allocation delta across the run (zeros unless the binary installs
    /// the `alloc-profile` counting allocator).
    pub alloc: AllocDelta,
    /// Whole-run wall clock, microseconds.
    pub duration_us: u64,
    /// Snapshot of the harness's client-side registry, for callers that
    /// want to merge it into a fleet-wide ops view.
    pub snapshot: RegistrySnapshot,
}

/// Per-endpoint counters the worker threads update lock-free.
#[derive(Default)]
struct EndpointCounters {
    attempted: AtomicU64,
    completed: AtomicU64,
    errors: AtomicU64,
}

/// Open `n` keep-alive connections to `addr` and prove each is live with
/// one raw `/__health` round trip. All requests are written before any
/// response is drained, so the round trips overlap inside the server's
/// reactor instead of serializing client-side. Returns the sockets that
/// completed the round trip — holding them keeps the connections parked
/// in the server's event loop.
fn park_connections(addr: std::net::SocketAddr, n: usize) -> Vec<std::net::TcpStream> {
    use std::io::{Read as _, Write as _};
    const REQ: &[u8] = b"GET /__health HTTP/1.1\r\nconnection: keep-alive\r\n\r\n";
    let mut socks = Vec::with_capacity(n);
    for _ in 0..n {
        // Connection refused / fd exhaustion degrades to fewer held
        // sockets; the report records how many actually parked.
        match std::net::TcpStream::connect(addr) {
            Ok(s) => socks.push(s),
            Err(_) => break,
        }
    }
    socks.retain_mut(|s| s.write_all(REQ).is_ok() && s.flush().is_ok());
    socks.retain_mut(|s| {
        // Drain exactly one response: headers, then a content-length
        // body. Anything malformed drops the socket from the held set.
        if s.set_read_timeout(Some(Duration::from_secs(30))).is_err() {
            return false;
        }
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n");
            if let Some(pos) = head_end {
                let head = String::from_utf8_lossy(&buf[..pos]);
                let body_len: usize = head
                    .lines()
                    .find_map(|l| {
                        let (name, value) = l.split_once(':')?;
                        name.trim()
                            .eq_ignore_ascii_case("content-length")
                            .then(|| value.trim().parse().ok())?
                    })
                    .unwrap_or(0);
                let want = pos + 4 + body_len;
                if buf.len() >= want {
                    return true;
                }
            }
            match s.read(&mut chunk) {
                Ok(0) | Err(_) => return false,
                Ok(k) => buf.extend_from_slice(&chunk[..k]),
            }
        }
    });
    socks
}

/// Drive `fleet` with `config` and collect the report.
///
/// The harness registers one [`HttpClient`] per endpoint, each with its
/// own `endpoint="<name>"`-labelled [`ClientMetrics`] in a private
/// registry — per-endpoint latency quantiles then fall out of the
/// existing histogram snapshots.
pub fn run_against(fleet: &MarketFleet, config: &LoadConfig) -> LoadReport {
    let registry = Arc::new(Registry::new());
    marketscope_telemetry::perf::register_build_info(
        &registry,
        env!("CARGO_PKG_VERSION"),
        marketscope_telemetry::perf::build_profile(),
    );
    let clients: Vec<Arc<HttpClient>> = ENDPOINTS
        .iter()
        .map(|&e| {
            let mut b = HttpClient::builder()
                .config(ClientConfig {
                    max_inflight: config.max_inflight,
                    ..ClientConfig::default()
                })
                .metrics(ClientMetrics::register(
                    &registry,
                    &[("endpoint", e.name())],
                ));
            if config.resilience {
                b = b
                    .retry(RetryPolicy::default())
                    .breaker(BreakerConfig::default())
                    .resilience_metrics(ResilienceMetrics::register(
                        &registry,
                        &[("endpoint", e.name())],
                    ));
            }
            Arc::new(b.build())
        })
        .collect();
    let corpus = Corpus::from_world(fleet.world());
    let counters: Vec<EndpointCounters> = ENDPOINTS
        .iter()
        .map(|_| EndpointCounters::default())
        .collect();

    let alloc_phase = AllocPhase::start();
    let sampler = ResourceSampler::spawn(Arc::clone(&registry), config.sample_every);
    // Park the held keep-alive connections against one market (Tencent
    // Myapp — the paper's largest) before the step clock starts: they
    // stay open in that server's reactor for the whole run, and the
    // sampler's thread gauge proves they cost no threads.
    let held = if config.hold_connections > 0 {
        park_connections(fleet.addr(MarketId::TencentMyapp), config.hold_connections)
    } else {
        Vec::new()
    };
    let run_start = Instant::now();
    let fleet_requests_before = fleet.total_requests();

    let mut steps = Vec::with_capacity(config.steps.len());
    for (si, step) in config.steps.iter().enumerate() {
        // Each step draws an independent schedule stream: inserting a
        // step never changes what later steps request.
        let schedule = Schedule::build(
            config.seed ^ (si as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            &corpus,
            step.workers,
            step.requests_per_worker,
            &config.mix,
        );
        // Pacing: each worker fires at a fixed slot interval so the
        // whole step offers `target_rps` requests per second.
        let slot = step
            .target_rps
            .map(|rps| Duration::from_secs_f64((step.workers.max(1)) as f64 / rps.max(0.001)));
        let step_start = Instant::now();
        let open_loop = config.open_loop;
        std::thread::scope(|scope| {
            for worker_plans in &schedule.workers {
                let clients = &clients;
                let counters = &counters;
                scope.spawn(move || {
                    let worker_start = Instant::now();
                    // Open loop: every ticket this worker submitted, to
                    // drain once the whole plan is in flight.
                    let mut inflight: Vec<(usize, Ticket)> =
                        Vec::with_capacity(if open_loop { worker_plans.len() } else { 0 });
                    for (i, plan) in worker_plans.iter().enumerate() {
                        if let Some(slot) = slot {
                            // Sleep until this request's slot opens; a
                            // worker that has fallen behind just keeps
                            // going (achieved < offered = saturation).
                            let due = slot.mul_f64(i as f64);
                            let elapsed = worker_start.elapsed();
                            if due > elapsed {
                                std::thread::sleep(due - elapsed);
                            }
                        }
                        let ei = ENDPOINTS
                            .iter()
                            .position(|&e| e == plan.endpoint)
                            .unwrap_or_else(|| unreachable!("plan endpoints come from ENDPOINTS"));
                        counters[ei].attempted.fetch_add(1, Ordering::Relaxed);
                        if open_loop {
                            let spec = FetchSpec::new(fleet.addr(plan.market), plan.path.clone());
                            inflight.push((ei, clients[ei].submit_get(&spec)));
                        } else {
                            match clients[ei].get(fleet.addr(plan.market), &plan.path) {
                                Ok(_) => {
                                    counters[ei].completed.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(_) => {
                                    counters[ei].errors.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                    }
                    for (ei, ticket) in inflight {
                        match clients[ei].wait(ticket) {
                            Ok(_) => {
                                counters[ei].completed.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(_) => {
                                counters[ei].errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                });
            }
        });
        let duration = step_start.elapsed();
        let attempted = (step.workers * step.requests_per_worker) as u64;
        let (completed, errors) = {
            // Steps run serially, so per-step deltas are the counter
            // totals minus what previous steps accumulated.
            let done: u64 = counters
                .iter()
                .map(|c| c.completed.load(Ordering::Relaxed))
                .sum();
            let errs: u64 = counters
                .iter()
                .map(|c| c.errors.load(Ordering::Relaxed))
                .sum();
            let prev_done: u64 = steps.iter().map(|s: &StepReport| s.completed).sum();
            let prev_errs: u64 = steps.iter().map(|s: &StepReport| s.errors).sum();
            (done - prev_done, errs - prev_errs)
        };
        steps.push(StepReport {
            workers: step.workers,
            attempted,
            completed,
            errors,
            duration_us: duration.as_micros().min(u64::MAX as u128) as u64,
            offered_rps: step.target_rps,
            achieved_rps: attempted as f64 / duration.as_secs_f64().max(1e-9),
        });
    }

    let duration = run_start.elapsed();
    let held_connections = held.len() as u64;
    drop(held);
    let resources = sampler.stop();
    let alloc = alloc_phase.delta();
    let snapshot = registry.snapshot();

    let endpoints: Vec<EndpointReport> = ENDPOINTS
        .iter()
        .enumerate()
        .map(|(i, &e)| {
            let labels = [("endpoint", e.name())];
            let hist = snapshot
                .histogram("marketscope_net_client_request_nanos", &labels)
                .cloned()
                .unwrap_or_default();
            EndpointReport {
                endpoint: e.name(),
                attempted: counters[i].attempted.load(Ordering::Relaxed),
                completed: counters[i].completed.load(Ordering::Relaxed),
                errors: counters[i].errors.load(Ordering::Relaxed),
                p50_ns: hist.p50(),
                p90_ns: hist.p90(),
                p99_ns: hist.p99(),
                max_ns: hist.max,
            }
        })
        .collect();

    let totals = LoadTotals {
        attempted: endpoints.iter().map(|e| e.attempted).sum(),
        completed: endpoints.iter().map(|e| e.completed).sum(),
        errors: endpoints.iter().map(|e| e.errors).sum(),
        transparent_retries: snapshot.counter_sum("marketscope_net_client_retries_total", &[]),
        resilient_retries: snapshot
            .counter_sum("marketscope_net_client_resilient_retries_total", &[]),
        backoff_nanos: snapshot.counter_sum("marketscope_net_client_backoff_nanos_total", &[]),
        fast_fails: snapshot.counter_sum("marketscope_net_client_fast_fails_total", &[]),
        fleet_requests: fleet.total_requests() - fleet_requests_before,
        faults_injected: fleet.faults_injected(),
    };

    LoadReport {
        steps,
        endpoints,
        totals,
        held_connections,
        resources,
        alloc,
        duration_us: duration.as_micros().min(u64::MAX as u128) as u64,
        snapshot,
    }
}

impl LoadReport {
    /// Whole-run achieved RPS (`attempted / duration`).
    pub fn achieved_rps(&self) -> f64 {
        self.totals.attempted as f64 / (self.duration_us as f64 / 1e6).max(1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marketscope_ecosystem::{generate, Scale, WorldConfig};

    #[test]
    fn smoke_run_measures_the_fleet() {
        let world = Arc::new(generate(WorldConfig {
            seed: 31,
            scale: Scale { divisor: 60_000 },
            ..WorldConfig::default()
        }));
        let fleet = MarketFleet::spawn(world).unwrap();
        let mut config = LoadConfig::smoke(7);
        config.steps = vec![LoadStep {
            workers: 2,
            requests_per_worker: 20,
            target_rps: None,
        }];
        let report = run_against(&fleet, &config);
        assert_eq!(report.totals.attempted, 40);
        assert_eq!(
            report.totals.completed + report.totals.errors,
            report.totals.attempted
        );
        // Metadata mix against a healthy fleet: everything succeeds.
        assert_eq!(report.totals.errors, 0);
        assert!(report.achieved_rps() > 0.0);
        assert!(report.totals.fleet_requests >= 40);
        assert_eq!(report.totals.faults_injected, 0);
        // Latency histograms saw every request.
        let measured: u64 = report
            .endpoints
            .iter()
            .map(|e| {
                report
                    .snapshot
                    .histogram(
                        "marketscope_net_client_request_nanos",
                        &[("endpoint", e.endpoint)],
                    )
                    .map(|h| h.count())
                    .unwrap_or(0)
            })
            .sum();
        assert_eq!(measured, 40);
        for e in &report.endpoints {
            if e.attempted > 0 {
                assert!(e.p50_ns > 0, "{} has zero p50", e.endpoint);
                assert!(e.max_ns >= e.p99_ns);
            }
        }
        assert!(report.resources.samples >= 1);
        fleet.stop();
    }

    #[test]
    fn held_connections_park_against_the_fleet_and_release() {
        let world = Arc::new(generate(WorldConfig {
            seed: 33,
            scale: Scale { divisor: 60_000 },
            ..WorldConfig::default()
        }));
        let fleet = MarketFleet::spawn(world).unwrap();
        let config = LoadConfig {
            // A scaled-down C10k shape so the unit suite stays fast; the
            // full 2,500-connection profile runs via `loadgen run c10k`
            // (and the net crate's reactor_c10k integration test).
            hold_connections: 64,
            steps: vec![LoadStep {
                workers: 2,
                requests_per_worker: 10,
                target_rps: None,
            }],
            ..LoadConfig::c10k(9)
        };
        let report = run_against(&fleet, &config);
        assert_eq!(report.held_connections, 64);
        // Every parked connection completed its /__health round trip,
        // and the load steps still ran through the same fleet.
        assert!(report.totals.fleet_requests >= 20);
        assert_eq!(report.totals.attempted, 20);
        assert_eq!(report.totals.errors, 0);
        fleet.stop();
    }

    #[test]
    fn open_loop_fanout_submits_the_whole_plan() {
        let world = Arc::new(generate(WorldConfig {
            seed: 34,
            scale: Scale { divisor: 60_000 },
            ..WorldConfig::default()
        }));
        let fleet = MarketFleet::spawn(world).unwrap();
        let config = LoadConfig {
            // A scaled-down fan-out shape so the unit suite stays fast;
            // the full 256/512-request profile runs via
            // `loadgen run --profile fanout`.
            steps: vec![LoadStep {
                workers: 1,
                requests_per_worker: 96,
                target_rps: None,
            }],
            ..LoadConfig::fanout(11)
        };
        let report = run_against(&fleet, &config);
        assert_eq!(report.totals.attempted, 96);
        assert_eq!(report.totals.errors, 0);
        assert_eq!(report.totals.completed, 96);
        // Every submission still rode the instrumented wire path.
        let measured: u64 = report
            .endpoints
            .iter()
            .map(|e| {
                report
                    .snapshot
                    .histogram(
                        "marketscope_net_client_request_nanos",
                        &[("endpoint", e.endpoint)],
                    )
                    .map(|h| h.count())
                    .unwrap_or(0)
            })
            .sum();
        assert_eq!(measured, 96);
        fleet.stop();
    }

    #[test]
    fn paced_step_reports_offered_rate() {
        let world = Arc::new(generate(WorldConfig {
            seed: 32,
            scale: Scale { divisor: 60_000 },
            ..WorldConfig::default()
        }));
        let fleet = MarketFleet::spawn(world).unwrap();
        let config = LoadConfig {
            seed: 3,
            steps: vec![LoadStep {
                workers: 2,
                requests_per_worker: 10,
                target_rps: Some(100.0),
            }],
            mix: EndpointMix::metadata(),
            max_inflight: Some(2),
            resilience: false,
            hold_connections: 0,
            open_loop: false,
            sample_every: Duration::from_millis(25),
        };
        let report = run_against(&fleet, &config);
        let step = &report.steps[0];
        assert_eq!(step.offered_rps, Some(100.0));
        // 20 requests at 100 rps offered: the step takes ~200ms, so the
        // achieved rate cannot exceed the offered rate by much (slack
        // for timer coarseness), and pacing actually slowed us down.
        assert!(
            step.achieved_rps <= 130.0,
            "paced step ran unpaced: {} rps",
            step.achieved_rps
        );
        fleet.stop();
    }
}
