//! Deterministic, seeded fault injection for the server side of the
//! stack.
//!
//! The paper's crawl ran against 16 real Chinese markets with
//! anti-crawling defenses, flaky CDNs and throttling (§2); our
//! in-process fleet is far too polite. A [`FaultPlan`] describes the
//! failure modes a market exhibits — connection resets, response
//! stalls, truncated bodies, 5xx bursts, and flapping whole-market
//! downtime windows — and a [`FaultInjector`] turns the plan into a
//! per-request `FaultAction` drawn from a splitmix64 stream, so the
//! same seed replays the exact same fault sequence.
//!
//! ## Determinism under concurrency
//!
//! Probabilistic faults are keyed on `(seed, fnv1a64(path), n)` where
//! `n` is the per-path occurrence count: the decision for the Nth
//! request to a given path is a pure function of the seed, regardless
//! of how requests to *different* paths interleave across connection
//! threads. Downtime windows instead ride a global request index —
//! flapping is a property of the whole market, not of one path — which
//! is deterministic in our harness because one crawler thread drives
//! each market per phase.
//!
//! Paths starting with `/__` (health, ops, exposition endpoints) are
//! exempt: chaos must never blind the observer.

use crate::http::Status;
use marketscope_core::hash::fnv1a64;
use marketscope_telemetry::{Counter, EventLog, LogLevel, Registry};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// splitmix64 finalizer — the same mixer the tracer uses for span ids.
/// Shared with [`crate::resilience`] for deterministic retry jitter.
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Map a 64-bit draw onto the unit interval with 53 bits of precision.
pub(crate) fn unit(draw: u64) -> f64 {
    (draw >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Per-market fault mix: independent probabilities for each failure
/// mode, plus a periodic downtime window. All probabilities are in
/// `[0, 1]` and are evaluated in a fixed order (reset, stall, truncate,
/// 5xx) against a single draw, so they partition the unit interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Probability the connection is reset before any response bytes.
    pub reset: f64,
    /// Probability the response is delayed by [`stall_for`](Self::stall_for).
    pub stall: f64,
    /// Added latency when a stall fires.
    pub stall_for: Duration,
    /// Probability the response body is cut mid-stream (the head
    /// declares the full length; the connection closes early).
    pub truncate: f64,
    /// Probability the request is answered with `503`.
    pub error_5xx: f64,
    /// `retry-after` hint attached to injected 503s, if any.
    pub error_retry_after: Option<Duration>,
    /// Every `downtime_every` requests the market goes dark for
    /// [`downtime_len`](Self::downtime_len) requests (0 = never down).
    pub downtime_every: u64,
    /// Length of each downtime window, in requests.
    pub downtime_len: u64,
}

impl FaultPlan {
    /// A plan that injects nothing — the default for healthy markets.
    pub fn none() -> FaultPlan {
        FaultPlan {
            reset: 0.0,
            stall: 0.0,
            stall_for: Duration::ZERO,
            truncate: 0.0,
            error_5xx: 0.0,
            error_retry_after: None,
            downtime_every: 0,
            downtime_len: 0,
        }
    }

    /// Whether this plan can never fire.
    pub fn is_noop(&self) -> bool {
        self.reset == 0.0
            && self.stall == 0.0
            && self.truncate == 0.0
            && self.error_5xx == 0.0
            && (self.downtime_every == 0 || self.downtime_len == 0)
    }

    /// This plan with every probability multiplied by `factor` (clamped
    /// to 1.0) and downtime windows stretched by the same factor — how
    /// a "light" profile becomes a "heavy" one.
    pub fn scaled(self, factor: f64) -> FaultPlan {
        let p = |v: f64| (v * factor).clamp(0.0, 1.0);
        FaultPlan {
            reset: p(self.reset),
            stall: p(self.stall),
            truncate: p(self.truncate),
            error_5xx: p(self.error_5xx),
            downtime_len: if self.downtime_len == 0 {
                0
            } else {
                ((self.downtime_len as f64 * factor).round() as u64).max(1)
            },
            ..self
        }
    }
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan::none()
    }
}

/// What the server should do with one request, decided before the
/// handler runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultAction {
    /// No fault: handle normally.
    Serve,
    /// Drop the connection without writing a byte.
    Reset,
    /// Hold the connection (not a handler thread) for the given
    /// duration, then handle normally.
    Stall(Duration),
    /// Handle normally but cut the response body mid-stream and close.
    Truncate,
    /// Skip the handler; answer with the given status (and optional
    /// `retry-after`).
    Error {
        /// The injected status (503 for fault bursts).
        status: Status,
        /// `retry-after` hint to attach, if any.
        retry_after: Option<Duration>,
    },
}

/// Telemetry for injected faults:
/// `marketscope_net_faults_injected_total{fault=...}` plus any extra
/// labels (the fleet adds `market`).
#[derive(Clone)]
pub(crate) struct FaultMetrics {
    by_kind: Vec<(&'static str, Arc<Counter>)>,
}

impl FaultMetrics {
    /// Create the fault counters in `registry`, tagged with `labels`.
    pub(crate) fn register(registry: &Registry, labels: &[(&str, &str)]) -> FaultMetrics {
        let by_kind = ["reset", "stall", "truncate", "error", "downtime"]
            .into_iter()
            .map(|fault| {
                let mut all = vec![("fault", fault)];
                all.extend_from_slice(labels);
                let counter = registry.counter("marketscope_net_faults_injected_total", &all);
                (fault, counter)
            })
            .collect();
        FaultMetrics { by_kind }
    }

    fn note(&self, kind: &str) {
        if let Some((_, counter)) = self.by_kind.iter().find(|(k, _)| *k == kind) {
            counter.inc();
        }
    }
}

/// Draws per-request `FaultAction`s from a [`FaultPlan`] and a seed.
/// Shared by all connection threads of one server.
pub struct FaultInjector {
    seed: u64,
    plan: FaultPlan,
    /// Per-path occurrence counts, keyed by `fnv1a64(path)`. Off the
    /// hot path's critical section: one short lock per request.
    counts: Mutex<HashMap<u64, u64>>,
    /// Global request index driving downtime windows.
    index: AtomicU64,
    /// Total faults injected (all kinds).
    injected: AtomicU64,
    metrics: FaultMetrics,
    /// Structured event log plus the scope tag (`market` label) stamped
    /// on every injection event.
    log: Arc<EventLog>,
    scope: String,
}

impl FaultInjector {
    /// An injector counting into a private registry.
    pub fn new(seed: u64, plan: FaultPlan) -> FaultInjector {
        FaultInjector::instrumented(seed, plan, &Registry::new(), &[])
    }

    /// Record every injected fault to `log` (instead of a small private
    /// one), tagged with `scope` as the `market` field (events are exempt
    /// paths' only blind spot: `/__` requests never fault, so they never
    /// log).
    pub fn with_log(mut self, log: Arc<EventLog>, scope: &str) -> FaultInjector {
        self.log = log;
        self.scope = scope.to_owned();
        self
    }

    /// An injector that counts what it injects into `registry`.
    pub fn instrumented(
        seed: u64,
        plan: FaultPlan,
        registry: &Registry,
        labels: &[(&str, &str)],
    ) -> FaultInjector {
        FaultInjector {
            seed,
            plan,
            counts: Mutex::new(HashMap::new()),
            index: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            metrics: FaultMetrics::register(registry, labels),
            log: EventLog::private(),
            scope: String::new(),
        }
    }

    /// The plan this injector draws from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Total faults injected so far (all kinds).
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Decide the fate of one request. Ops/health paths (`/__` prefix)
    /// are always served and consume neither randomness nor the
    /// downtime index.
    pub(crate) fn decide(&self, path: &str) -> FaultAction {
        if self.plan.is_noop() || path.starts_with("/__") {
            return FaultAction::Serve;
        }
        // Downtime windows: a property of the whole market.
        let mut in_downtime = false;
        if self.plan.downtime_every > 0 && self.plan.downtime_len > 0 {
            let i = self.index.fetch_add(1, Ordering::Relaxed);
            in_downtime = i % self.plan.downtime_every < self.plan.downtime_len;
        }
        let action = if in_downtime {
            FaultAction::Reset
        } else {
            self.draw(path)
        };
        let kind = match action {
            FaultAction::Serve => return action,
            FaultAction::Reset if in_downtime => "downtime",
            FaultAction::Reset => "reset",
            FaultAction::Stall(_) => "stall",
            FaultAction::Truncate => "truncate",
            FaultAction::Error { .. } => "error",
        };
        self.injected.fetch_add(1, Ordering::Relaxed);
        self.metrics.note(kind);
        self.log.record(
            LogLevel::Warn,
            "net.fault",
            "fault injected",
            &[("market", &self.scope), ("fault", kind), ("path", path)],
        );
        action
    }

    /// Probabilistic fault for the Nth request to `path`: a pure
    /// function of `(seed, path, N)`.
    fn draw(&self, path: &str) -> FaultAction {
        let path_hash = fnv1a64(path.as_bytes());
        let n = {
            let mut counts = self.counts.lock();
            let slot = counts.entry(path_hash).or_insert(0);
            let n = *slot;
            *slot += 1;
            n
        };
        let draw = unit(splitmix64(
            self.seed ^ path_hash ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ));
        let p = &self.plan;
        let mut edge = p.reset;
        if draw < edge {
            return FaultAction::Reset;
        }
        edge += p.stall;
        if draw < edge {
            return FaultAction::Stall(p.stall_for);
        }
        edge += p.truncate;
        if draw < edge {
            return FaultAction::Truncate;
        }
        edge += p.error_5xx;
        if draw < edge {
            return FaultAction::Error {
                status: Status::ServiceUnavailable,
                retry_after: p.error_retry_after,
            };
        }
        FaultAction::Serve
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_plan() -> FaultPlan {
        FaultPlan {
            reset: 0.1,
            stall: 0.1,
            stall_for: Duration::from_millis(5),
            truncate: 0.1,
            error_5xx: 0.1,
            error_retry_after: Some(Duration::from_millis(20)),
            downtime_every: 0,
            downtime_len: 0,
        }
    }

    #[test]
    fn per_path_streams_replay_regardless_of_interleaving() {
        let a = FaultInjector::new(7, mixed_plan());
        let b = FaultInjector::new(7, mixed_plan());
        // Injector `a` sees /x and /y interleaved; `b` sees all of /x
        // then all of /y. Per-path decision sequences must agree.
        let mut ax = Vec::new();
        let mut ay = Vec::new();
        for _ in 0..64 {
            ax.push(a.decide("/x"));
            ay.push(a.decide("/y"));
        }
        let bx: Vec<_> = (0..64).map(|_| b.decide("/x")).collect();
        let by: Vec<_> = (0..64).map(|_| b.decide("/y")).collect();
        assert_eq!(ax, bx);
        assert_eq!(ay, by);
        // Distinct paths and distinct seeds see distinct streams.
        assert_ne!(ax, ay);
        let c = FaultInjector::new(8, mixed_plan());
        let cx: Vec<_> = (0..64).map(|_| c.decide("/x")).collect();
        assert_ne!(ax, cx);
        // With p = 0.4 total over 128 draws, some fault fired.
        assert!(a.injected() > 0);
    }

    #[test]
    fn downtime_windows_have_the_declared_shape() {
        let plan = FaultPlan {
            downtime_every: 10,
            downtime_len: 3,
            ..FaultPlan::none()
        };
        let inj = FaultInjector::new(1, plan);
        for cycle in 0..3 {
            for i in 0..10 {
                let action = inj.decide("/anything");
                if i < 3 {
                    assert_eq!(action, FaultAction::Reset, "cycle {cycle} req {i}");
                } else {
                    assert_eq!(action, FaultAction::Serve, "cycle {cycle} req {i}");
                }
            }
        }
        assert_eq!(inj.injected(), 9);
    }

    #[test]
    fn ops_paths_are_exempt_and_consume_no_state() {
        let plan = FaultPlan {
            reset: 1.0,
            downtime_every: 2,
            downtime_len: 2,
            ..FaultPlan::none()
        };
        let inj = FaultInjector::new(3, plan);
        for _ in 0..32 {
            assert_eq!(inj.decide("/__health"), FaultAction::Serve);
        }
        assert_eq!(inj.injected(), 0);
        assert_eq!(inj.index.load(Ordering::Relaxed), 0);
        // Real traffic still faults.
        assert_eq!(inj.decide("/app/x"), FaultAction::Reset);
    }

    #[test]
    fn certain_probabilities_always_fire_in_partition_order() {
        let only_error = FaultPlan {
            error_5xx: 1.0,
            error_retry_after: Some(Duration::from_millis(25)),
            ..FaultPlan::none()
        };
        let inj = FaultInjector::new(9, only_error);
        for _ in 0..16 {
            assert_eq!(
                inj.decide("/a"),
                FaultAction::Error {
                    status: Status::ServiceUnavailable,
                    retry_after: Some(Duration::from_millis(25)),
                }
            );
        }
        // reset=1.0 shadows everything later in the partition.
        let reset_wins = FaultPlan {
            reset: 1.0,
            error_5xx: 1.0,
            ..FaultPlan::none()
        };
        let inj = FaultInjector::new(9, reset_wins);
        assert_eq!(inj.decide("/a"), FaultAction::Reset);
    }

    #[test]
    fn noop_and_scaling() {
        assert!(FaultPlan::none().is_noop());
        assert!(FaultPlan {
            downtime_every: 5,
            downtime_len: 0,
            ..FaultPlan::none()
        }
        .is_noop());
        let scaled = mixed_plan().scaled(3.0);
        assert!((scaled.reset - 0.3).abs() < 1e-9);
        assert!((scaled.error_5xx - 0.3).abs() < 1e-9);
        let capped = mixed_plan().scaled(100.0);
        assert_eq!(capped.reset, 1.0);
        // Downtime windows stretch but never vanish under scaling.
        let flappy = FaultPlan {
            downtime_every: 40,
            downtime_len: 8,
            ..FaultPlan::none()
        };
        assert_eq!(flappy.scaled(0.5).downtime_len, 4);
        assert_eq!(flappy.scaled(0.01).downtime_len, 1);
        assert_eq!(FaultPlan::none().scaled(2.0).downtime_len, 0);
    }

    #[test]
    fn metrics_count_by_kind() {
        let registry = Registry::new();
        let plan = FaultPlan {
            error_5xx: 1.0,
            ..FaultPlan::none()
        };
        let inj = FaultInjector::instrumented(1, plan, &registry, &[("market", "t")]);
        inj.decide("/a");
        inj.decide("/a");
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter_value(
                "marketscope_net_faults_injected_total",
                &[("fault", "error"), ("market", "t")]
            ),
            Some(2)
        );
        // Downtime resets are counted under their own kind.
        let down = FaultPlan {
            downtime_every: 1,
            downtime_len: 1,
            ..FaultPlan::none()
        };
        let inj = FaultInjector::instrumented(1, down, &registry, &[("market", "d")]);
        inj.decide("/a");
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter_value(
                "marketscope_net_faults_injected_total",
                &[("fault", "downtime"), ("market", "d")]
            ),
            Some(1)
        );
    }
}
