//! Client-side resilience: a retry policy with deterministic backoff,
//! and per-host circuit breaking.
//!
//! The paper's crawlers ran for two weeks against markets that throttle,
//! reset and flap (§2); surviving that needs two complementary shapes:
//!
//! * [`RetryPolicy`] — bounded retries with exponential backoff and
//!   *deterministic* jitter (a splitmix64 draw keyed on the request, not
//!   a global RNG, so replays sleep the same schedule). The server's
//!   `retry-after` hint is honored when present, but every sleep counts
//!   against a hard [`backoff_budget`](RetryPolicy::backoff_budget): a
//!   hint the budget can't afford surfaces the error to the caller
//!   instead. That is what keeps Google Play's ~0.5 s 429 hints flowing
//!   straight to the crawler's repository-backfill path (the paper only
//!   fetched ~14% of Play APKs directly) while ~20 ms chaos 503s are
//!   absorbed invisibly.
//! * [`CircuitBreaker`] — per-host closed → open → half-open. A run of
//!   consecutive terminal failures opens the circuit; while open,
//!   requests fast-fail locally with [`NetError::CircuitOpen`] instead
//!   of burning sockets on a dead host. The cooldown is measured in
//!   *rejections*, not wall time — wall-clock cooldowns make replays
//!   diverge — after which a bounded number of half-open probes decide
//!   between recovery and re-tripping. The client reports how every
//!   probe ended, also one whose own retry was refused a probe slot.
//!
//! Definitive answers (404s and other non-retryable statuses) count as
//! breaker *successes*: the host answered. Only
//! retryable (`NetError::is_retryable`) terminal failures push a circuit
//! toward open.

use crate::error::NetError;
use crate::fault::{splitmix64, unit};
use marketscope_telemetry::{trace, Counter, EventLog, Gauge, LogLevel, Registry};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// Maximum retries per logical request (on top of the first try).
const MAX_RETRIES: u32 = 3;
/// First backoff; doubles per retry.
const BASE_BACKOFF: Duration = Duration::from_millis(10);
/// Cap on a single computed backoff (not on `retry-after` hints — the
/// budget gates those).
const MAX_BACKOFF: Duration = Duration::from_millis(160);
/// Seed for the deterministic jitter stream.
const JITTER_SEED: u64 = 0x5eed;

/// Status-level retry policy: up to three retries with a 10 ms backoff
/// that doubles per retry up to 160 ms, and when to give up instead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Hard cap on *total* sleep per logical request. A wait that would
    /// exceed it — including a server `retry-after` hint — surfaces the
    /// error instead.
    pub backoff_budget: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            backoff_budget: Duration::from_millis(250),
        }
    }
}

/// The computed backoff before retry number `attempt` (0-based) of the
/// request identified by `key` (callers hash the path): exponential with
/// a deterministic jitter factor in `[0.5, 1.0]`.
fn backoff(attempt: u32, key: u64) -> Duration {
    let exp = BASE_BACKOFF
        .saturating_mul(1u32 << attempt.min(16))
        .min(MAX_BACKOFF);
    let draw = splitmix64(JITTER_SEED ^ key ^ (attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    exp.mul_f64(0.5 + 0.5 * unit(draw))
}

impl RetryPolicy {
    /// How long to sleep before retrying `err`, or `None` to surface it:
    /// not retryable, retries exhausted, or the wait (server hint or
    /// computed backoff) would blow the remaining budget.
    pub(crate) fn delay_for(
        &self,
        err: &NetError,
        attempt: u32,
        key: u64,
        already_slept: Duration,
    ) -> Option<Duration> {
        if !err.is_retryable() || attempt >= MAX_RETRIES {
            return None;
        }
        let wait = match err.retry_after() {
            Some(hint) => hint,
            None => backoff(attempt, key),
        };
        (already_slept + wait <= self.backoff_budget).then_some(wait)
    }
}

/// Circuit-breaker thresholds. Cooldown is counted in rejected requests
/// rather than elapsed time so that replays of a deterministic workload
/// trip and recover at the same points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive terminal failures that open the circuit.
    pub failure_threshold: u32,
    /// Fast-failed requests to absorb while open before probing.
    pub cooldown_rejections: u32,
    /// Concurrent probe requests allowed while half-open.
    pub half_open_trials: u32,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 5,
            cooldown_rejections: 8,
            half_open_trials: 2,
        }
    }
}

/// A breaker state, as its transitions are counted and logged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BreakerState {
    /// Normal operation; failures are being counted.
    Closed,
    /// Fast-failing everything until the cooldown elapses.
    Open,
    /// Letting a bounded number of probes through.
    HalfOpen,
}

enum State {
    Closed { failures: u32 },
    Open { rejections: u32 },
    HalfOpen { probes_left: u32 },
}

/// Resilience instruments, shared by the retry loop and every breaker
/// of one client:
///
/// * `marketscope_net_client_resilient_retries_total`
/// * `marketscope_net_client_backoff_nanos_total`
/// * `marketscope_net_client_fast_fails_total`
/// * `marketscope_net_client_breaker_transitions_total{to="..."}`
/// * `marketscope_net_client_open_circuits` (gauge; counts non-closed)
#[derive(Clone)]
pub struct ResilienceMetrics {
    retries: Arc<Counter>,
    backoff_nanos: Arc<Counter>,
    fast_fails: Arc<Counter>,
    to_open: Arc<Counter>,
    to_half_open: Arc<Counter>,
    to_closed: Arc<Counter>,
    open_circuits: Arc<Gauge>,
    log: Arc<EventLog>,
}

impl ResilienceMetrics {
    /// Create the resilience instruments in `registry` under `labels`.
    pub fn register(registry: &Registry, labels: &[(&str, &str)]) -> ResilienceMetrics {
        let transition = |to: &str| {
            let mut all = vec![("to", to)];
            all.extend_from_slice(labels);
            registry.counter("marketscope_net_client_breaker_transitions_total", &all)
        };
        ResilienceMetrics {
            retries: registry.counter("marketscope_net_client_resilient_retries_total", labels),
            backoff_nanos: registry.counter("marketscope_net_client_backoff_nanos_total", labels),
            fast_fails: registry.counter("marketscope_net_client_fast_fails_total", labels),
            to_open: transition("open"),
            to_half_open: transition("half_open"),
            to_closed: transition("closed"),
            open_circuits: registry.gauge("marketscope_net_client_open_circuits", labels),
            log: EventLog::private(),
        }
    }

    /// Record breaker transitions to `log` as structured events (in
    /// addition to the transition counters) instead of to a small
    /// private one.
    pub fn with_log(mut self, log: Arc<EventLog>) -> ResilienceMetrics {
        self.log = log;
        self
    }

    /// Count one policy retry and the backoff it paid.
    pub(crate) fn note_retry(&self, slept: Duration) {
        self.retries.inc();
        self.backoff_nanos.add(slept.as_nanos() as u64);
    }
}

/// One host's circuit. Shared by reference between all requests the
/// client sends to that host.
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: Mutex<State>,
    metrics: ResilienceMetrics,
    /// Host tag stamped on transition log events (set by
    /// [`BreakerSet::for_host`]).
    scope: String,
}

impl CircuitBreaker {
    fn scoped(config: BreakerConfig, metrics: ResilienceMetrics, scope: &str) -> CircuitBreaker {
        CircuitBreaker {
            config,
            state: Mutex::new(State::Closed { failures: 0 }),
            metrics,
            scope: scope.to_owned(),
        }
    }

    /// While closed, how many more terminal failures in a row open the
    /// circuit; `None` while it is open or half-open.
    pub(crate) fn failures_left(&self) -> Option<u32> {
        let threshold = self.config.failure_threshold;
        match *self.state.lock() {
            State::Closed { failures } => Some(threshold.saturating_sub(failures)),
            _ => None,
        }
    }

    /// Whether a request may proceed. `false` means fast-fail with
    /// [`NetError::CircuitOpen`] without touching the wire. Open
    /// circuits transition to half-open (admitting this request as the
    /// first probe) once enough rejections have accumulated.
    pub fn admit(&self) -> bool {
        let mut st = self.state.lock();
        let admitted = match &mut *st {
            State::Closed { .. } => true,
            State::Open { rejections } => {
                if *rejections >= self.config.cooldown_rejections {
                    *st = State::HalfOpen {
                        probes_left: self.config.half_open_trials.saturating_sub(1),
                    };
                    drop(st);
                    self.note_transition(BreakerState::HalfOpen);
                    trace::current_event("breaker:half_open");
                    return true;
                }
                *rejections += 1;
                false
            }
            State::HalfOpen { probes_left } => {
                if *probes_left > 0 {
                    *probes_left -= 1;
                    true
                } else {
                    false
                }
            }
        };
        drop(st);
        if !admitted {
            self.metrics.fast_fails.inc();
        }
        admitted
    }

    /// The host answered definitively (2xx, or a non-retryable status
    /// like 404). Resets the failure run; a half-open probe success
    /// closes the circuit.
    pub fn on_success(&self) {
        let mut st = self.state.lock();
        match &mut *st {
            State::Closed { failures } => *failures = 0,
            State::HalfOpen { .. } => {
                *st = State::Closed { failures: 0 };
                drop(st);
                self.note_transition(BreakerState::Closed);
                trace::current_event("breaker:closed");
            }
            // A straggler succeeding while open: leave the cooldown to
            // the probes.
            State::Open { .. } => {}
        }
    }

    /// A terminal [retryable](NetError::is_retryable) failure. Enough of
    /// these in a row opens the circuit; any half-open probe failure
    /// re-opens it.
    pub(crate) fn on_failure(&self) {
        let mut st = self.state.lock();
        match &mut *st {
            State::Closed { failures } => {
                *failures += 1;
                if *failures >= self.config.failure_threshold {
                    *st = State::Open { rejections: 0 };
                    drop(st);
                    self.metrics.open_circuits.inc();
                    self.note_transition(BreakerState::Open);
                    trace::current_event("breaker:open");
                }
            }
            State::HalfOpen { .. } => {
                *st = State::Open { rejections: 0 };
                drop(st);
                // Already counted in the gauge: half-open is non-closed.
                self.note_transition(BreakerState::Open);
                trace::current_event("breaker:open");
            }
            State::Open { .. } => {}
        }
    }

    fn note_transition(&self, to: BreakerState) {
        let m = &self.metrics;
        let (level, message) = match to {
            BreakerState::Open => {
                m.to_open.inc();
                (LogLevel::Warn, "circuit opened")
            }
            BreakerState::HalfOpen => {
                m.to_half_open.inc();
                (LogLevel::Info, "circuit half-open, probing")
            }
            BreakerState::Closed => {
                m.to_closed.inc();
                m.open_circuits.dec();
                (LogLevel::Info, "circuit closed")
            }
        };
        m.log
            .record(level, "net.breaker", message, &[("host", &self.scope)]);
    }
}

/// The client's per-host breaker map: one lazily-created
/// [`CircuitBreaker`] per remote address, all sharing one config and
/// one set of (aggregate) instruments.
pub struct BreakerSet {
    config: BreakerConfig,
    metrics: ResilienceMetrics,
    by_host: Mutex<HashMap<SocketAddr, Arc<CircuitBreaker>>>,
}

impl BreakerSet {
    /// A breaker set with the given thresholds, counting into `metrics`.
    pub fn new(config: BreakerConfig, metrics: ResilienceMetrics) -> BreakerSet {
        BreakerSet {
            config,
            metrics,
            by_host: Mutex::new(HashMap::new()),
        }
    }

    /// The breaker guarding `addr`, created closed on first use.
    pub fn for_host(&self, addr: SocketAddr) -> Arc<CircuitBreaker> {
        Arc::clone(self.by_host.lock().entry(addr).or_insert_with(|| {
            Arc::new(CircuitBreaker::scoped(
                self.config,
                self.metrics.clone(),
                &addr.to_string(),
            ))
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io;

    /// A closed breaker with the given thresholds, counting into a
    /// private registry.
    fn breaker(config: BreakerConfig) -> CircuitBreaker {
        let metrics = ResilienceMetrics::register(&Registry::new(), &[]);
        CircuitBreaker::scoped(config, metrics, "?")
    }

    fn state(b: &CircuitBreaker) -> BreakerState {
        match *b.state.lock() {
            State::Closed { .. } => BreakerState::Closed,
            State::Open { .. } => BreakerState::Open,
            State::HalfOpen { .. } => BreakerState::HalfOpen,
        }
    }

    #[test]
    fn backoff_is_exponential_capped_and_deterministic() {
        for attempt in 0..4 {
            let exp = BASE_BACKOFF.saturating_mul(1 << attempt).min(MAX_BACKOFF);
            let b = backoff(attempt, 42);
            assert!(
                b >= exp.mul_f64(0.5) && b <= exp,
                "attempt {attempt}: {b:?}"
            );
            assert_eq!(b, backoff(attempt, 42), "same inputs, same sleep");
        }
        // Huge attempt numbers must not overflow.
        assert!(backoff(40, 1) <= MAX_BACKOFF);
        // Different keys jitter differently (with overwhelming probability).
        assert_ne!(backoff(0, 1), backoff(0, 2));
    }

    #[test]
    fn delay_honors_hints_within_budget_only() {
        let p = RetryPolicy::default();
        let hinted = |ms: u64| NetError::Status {
            code: 503,
            retry_after: Some(Duration::from_millis(ms)),
        };
        // A cheap hint is honored verbatim.
        assert_eq!(
            p.delay_for(&hinted(20), 0, 1, Duration::ZERO),
            Some(Duration::from_millis(20))
        );
        // Google Play's ~500ms hint blows the 250ms budget: surface it.
        assert_eq!(p.delay_for(&hinted(500), 0, 1, Duration::ZERO), None);
        // Budget is cumulative across the request's retries.
        assert_eq!(
            p.delay_for(&hinted(100), 1, 1, Duration::from_millis(200)),
            None
        );
        // Exhausted retries and non-retryable errors surface.
        assert_eq!(
            p.delay_for(&hinted(1), MAX_RETRIES, 1, Duration::ZERO),
            None
        );
        assert_eq!(
            p.delay_for(
                &NetError::Status {
                    code: 404,
                    retry_after: None
                },
                0,
                1,
                Duration::ZERO
            ),
            None
        );
        assert_eq!(
            p.delay_for(&NetError::Protocol("junk"), 0, 1, Duration::ZERO),
            None
        );
        // Transient errors retry with computed backoff.
        let io_err = NetError::from(io::Error::other("reset"));
        assert_eq!(
            p.delay_for(&io_err, 0, 7, Duration::ZERO),
            Some(backoff(0, 7))
        );
    }

    #[test]
    fn breaker_walks_closed_open_half_open_closed() {
        let cfg = BreakerConfig {
            failure_threshold: 3,
            cooldown_rejections: 2,
            half_open_trials: 1,
        };
        let b = breaker(cfg);
        assert_eq!(state(&b), BreakerState::Closed);
        for _ in 0..2 {
            assert!(b.admit());
            b.on_failure();
        }
        // A success resets the run.
        b.on_success();
        for _ in 0..3 {
            assert!(b.admit());
            b.on_failure();
        }
        assert_eq!(state(&b), BreakerState::Open);
        // Cooldown: exactly two rejections, then the next request probes.
        assert!(!b.admit());
        assert!(!b.admit());
        assert!(b.admit(), "cooldown elapsed: probe admitted");
        assert_eq!(state(&b), BreakerState::HalfOpen);
        b.on_success();
        assert_eq!(state(&b), BreakerState::Closed);
        assert!(b.admit());
    }

    #[test]
    fn failed_probe_reopens() {
        let cfg = BreakerConfig {
            failure_threshold: 1,
            cooldown_rejections: 1,
            half_open_trials: 1,
        };
        let b = breaker(cfg);
        assert!(b.admit());
        b.on_failure();
        assert_eq!(state(&b), BreakerState::Open);
        assert!(!b.admit(), "the single cooldown rejection");
        assert!(b.admit(), "then the next request converts to a probe");
        assert_eq!(state(&b), BreakerState::HalfOpen);
        b.on_failure();
        assert_eq!(state(&b), BreakerState::Open);
        // While half-open with no probes left, extra requests fast-fail.
        assert!(!b.admit());
        assert!(b.admit());
        {
            let mut st = b.state.lock();
            *st = State::HalfOpen { probes_left: 0 };
        }
        assert!(!b.admit());
    }

    #[test]
    fn metrics_and_gauge_track_transitions_without_double_count() {
        let registry = Registry::new();
        let metrics = ResilienceMetrics::register(&registry, &[]);
        let set = BreakerSet::new(
            BreakerConfig {
                failure_threshold: 1,
                cooldown_rejections: 1,
                half_open_trials: 1,
            },
            metrics,
        );
        let addr: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let b = set.for_host(addr);
        assert!(Arc::ptr_eq(&b, &set.for_host(addr)), "one breaker per host");

        b.on_failure(); // closed -> open
        assert!(!b.admit()); // fast fail (also completes cooldown count? no: 1st rejection -> half-open next)
        assert!(b.admit()); // probe
        b.on_failure(); // half-open -> open (gauge must NOT double count)
        let open_circuits = || {
            registry
                .snapshot()
                .gauge_value("marketscope_net_client_open_circuits", &[])
        };
        assert_eq!(open_circuits(), Some(1));
        assert!(!b.admit());
        assert!(b.admit()); // probe again
        b.on_success(); // -> closed
        assert_eq!(open_circuits(), Some(0));

        let snap = registry.snapshot();
        let count = |to: &str| {
            snap.counter_value(
                "marketscope_net_client_breaker_transitions_total",
                &[("to", to)],
            )
            .unwrap()
        };
        assert_eq!(count("open"), 2);
        assert_eq!(count("half_open"), 2);
        assert_eq!(count("closed"), 1);
        assert_eq!(
            snap.gauge_value("marketscope_net_client_open_circuits", &[]),
            Some(0)
        );
        assert_eq!(
            snap.counter_value("marketscope_net_client_fast_fails_total", &[]),
            Some(2)
        );
    }
}
