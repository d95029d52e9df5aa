//! Declarative SLOs with multi-window burn-rate alerting.
//!
//! An [`SloPolicy`] is a list of rules, each binding an objective — an
//! error-rate ceiling or an absolute event budget — to a slow
//! evaluation window. Both read only counter deltas, so a verdict is a
//! function of the counts in the series, never of a latency. The
//! [`SloEvaluator`] re-checks every rule on each tick against the
//! windowed series (never lifetime aggregates), using the classic
//! multi-window burn test: an alert fires only when both the **fast**
//! window (the latest tick) and the **slow** window (the last N ticks)
//! exceed the threshold, which suppresses one-tick blips without missing
//! sustained burns. Each alert walks `ok → firing → resolved`, re-arms
//! from `resolved`, and bumps per-rule fired/resolved counters;
//! transitions are also recorded to the structured [`EventLog`]
//! with the evaluating tick's trace context attached.

use crate::counter::{Counter, Gauge};
use crate::log::{EventLog, LogLevel};
use crate::registry::Registry;
use crate::series::SeriesStore;
use std::sync::Arc;

/// Selects the instruments a rule reads: a metric name plus a label
/// subset; every instrument carrying all the listed labels matches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricSelector {
    /// Metric name to match exactly.
    pub name: String,
    /// Label pairs the instrument must carry (subset match).
    pub labels: Vec<(String, String)>,
}

impl MetricSelector {
    /// Build a selector from a name and label pairs.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> MetricSelector {
        MetricSelector {
            name: name.to_owned(),
            labels: labels
                .iter()
                .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
                .collect(),
        }
    }

    fn label_refs(&self) -> Vec<(&str, &str)> {
        self.labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect()
    }
}

/// What a rule measures and the ceiling it enforces.
#[derive(Debug, Clone, PartialEq)]
pub enum SloObjective {
    /// `sum(bad deltas) / sum(total deltas)` over the window must stay
    /// at or below `max_ratio` (0 when the window saw no traffic).
    ErrorRate {
        /// Counters whose deltas count as bad events.
        bad: Vec<MetricSelector>,
        /// Counter whose deltas count as total events.
        total: MetricSelector,
        /// Highest acceptable bad/total ratio.
        max_ratio: f64,
    },
    /// Average matching counter deltas per tick over the window must
    /// stay at or below `max_per_tick` (0 = any event bursts the
    /// budget).
    Budget {
        /// Counter whose deltas consume the budget.
        events: MetricSelector,
        /// Highest acceptable events-per-tick average.
        max_per_tick: f64,
    },
}

/// One named rule: an objective plus the slow window's tick count (the
/// fast window is always the latest tick).
#[derive(Debug, Clone, PartialEq)]
pub struct SloRule {
    /// Alert name, used as the `rule` label on counters and events.
    pub name: String,
    /// What to measure.
    pub objective: SloObjective,
    /// Slow-window width in ticks.
    pub slow_window: u64,
}

/// A set of rules evaluated together.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SloPolicy {
    /// Rules, evaluated in order.
    pub rules: Vec<SloRule>,
}

impl SloPolicy {
    /// The fleet's default serving policy. Error budgets count **5xx
    /// only**: 404s (BFS and search misses) and 429s (rate-limiter
    /// answers) are by-design traffic in clean campaigns, while chaos
    /// faults surface as 500/503. Shed/accept-error/breaker-open budgets
    /// are zero: any occurrence is an alert. Handler latency is a
    /// measurement (`/__metrics`, the ops summary), not a rule.
    pub fn fleet_default() -> SloPolicy {
        SloPolicy {
            rules: vec![
                SloRule {
                    name: "error_rate_5xx".into(),
                    objective: SloObjective::ErrorRate {
                        bad: vec![
                            MetricSelector::new(
                                "marketscope_net_responses_total",
                                &[("status", "500")],
                            ),
                            MetricSelector::new(
                                "marketscope_net_responses_total",
                                &[("status", "503")],
                            ),
                        ],
                        total: MetricSelector::new("marketscope_net_responses_total", &[]),
                        max_ratio: 0.02,
                    },
                    slow_window: 5,
                },
                SloRule {
                    name: "connections_shed".into(),
                    objective: SloObjective::Budget {
                        events: MetricSelector::new("marketscope_net_connections_shed_total", &[]),
                        max_per_tick: 0.0,
                    },
                    slow_window: 5,
                },
                SloRule {
                    name: "accept_errors".into(),
                    objective: SloObjective::Budget {
                        events: MetricSelector::new("marketscope_net_accept_errors_total", &[]),
                        max_per_tick: 0.0,
                    },
                    slow_window: 5,
                },
                SloRule {
                    name: "breaker_opens".into(),
                    objective: SloObjective::Budget {
                        events: MetricSelector::new(
                            "marketscope_net_client_breaker_transitions_total",
                            &[("to", "open")],
                        ),
                        max_per_tick: 0.0,
                    },
                    slow_window: 5,
                },
            ],
        }
    }
}

/// Where an alert currently sits in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// Never fired (or not since construction).
    Ok,
    /// Both windows are burning.
    Firing,
    /// Fired at least once and has since recovered.
    Resolved,
}

impl AlertState {
    /// Lowercase state name, as rendered in JSON and reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            AlertState::Ok => "ok",
            AlertState::Firing => "firing",
            AlertState::Resolved => "resolved",
        }
    }
}

/// The per-rule outcome of the latest evaluation tick.
#[derive(Debug, Clone, PartialEq)]
pub struct SloVerdict {
    /// Rule name.
    pub rule: String,
    /// Current alert state.
    pub state: AlertState,
    /// Burn measured over the fast (latest-tick) window.
    pub fast_burn: f64,
    /// Burn measured over the slow (N-tick) window.
    pub slow_burn: f64,
    /// The rule's ceiling, in the same unit as the burns.
    pub threshold: f64,
    /// Times this alert has fired over the evaluator's lifetime.
    pub fired: u64,
    /// Times this alert has resolved over the evaluator's lifetime.
    pub resolved: u64,
}

struct RuleStatus {
    state: AlertState,
    fired: u64,
    resolved: u64,
    instruments: RuleInstruments,
}

struct RuleInstruments {
    fired: Arc<Counter>,
    resolved: Arc<Counter>,
    firing: Arc<Gauge>,
}

impl RuleInstruments {
    fn register(registry: &Registry, rule: &SloRule) -> RuleInstruments {
        let labels = [("rule", rule.name.as_str())];
        RuleInstruments {
            fired: registry.counter("marketscope_slo_alerts_fired_total", &labels),
            resolved: registry.counter("marketscope_slo_alerts_resolved_total", &labels),
            firing: registry.gauge("marketscope_slo_alerts_firing", &labels),
        }
    }
}

/// Evaluates an [`SloPolicy`] against a [`SeriesStore`] tick by tick,
/// holding the alert state machines and the latest verdicts.
pub struct SloEvaluator {
    rules: Vec<SloRule>,
    status: Vec<RuleStatus>,
    verdicts: Vec<SloVerdict>,
    log: Arc<EventLog>,
}

impl std::fmt::Debug for SloEvaluator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SloEvaluator")
            .field("rules", &self.rules.len())
            .field("firing", &self.any_firing())
            .finish()
    }
}

impl SloEvaluator {
    /// Build an evaluator over `policy`, counting into a private
    /// registry and logging to a small private event log.
    pub fn new(policy: SloPolicy) -> SloEvaluator {
        let private = Registry::new();
        let status = policy
            .rules
            .iter()
            .map(|rule| RuleStatus {
                state: AlertState::Ok,
                fired: 0,
                resolved: 0,
                instruments: RuleInstruments::register(&private, rule),
            })
            .collect();
        SloEvaluator {
            rules: policy.rules,
            status,
            verdicts: Vec::new(),
            log: EventLog::private(),
        }
    }

    /// Register per-rule alert counters
    /// (`marketscope_slo_alerts_{fired,resolved}_total{rule=...}`) and a
    /// `marketscope_slo_alerts_firing{rule=...}` gauge in `registry`.
    pub fn instrumented(mut self, registry: &Registry) -> SloEvaluator {
        for (rule, status) in self.rules.iter().zip(self.status.iter_mut()) {
            status.instruments = RuleInstruments::register(registry, rule);
        }
        self
    }

    /// Record alert transitions to `log` (with whatever trace context is
    /// active on the evaluating thread).
    pub fn with_log(mut self, log: Arc<EventLog>) -> SloEvaluator {
        self.log = log;
        self
    }

    /// Evaluate every rule against the store's current rings and step
    /// the alert state machines. Returns the fresh verdicts.
    pub fn evaluate(&mut self, store: &SeriesStore) -> Vec<SloVerdict> {
        let mut verdicts = Vec::with_capacity(self.rules.len());
        for (rule, status) in self.rules.iter().zip(self.status.iter_mut()) {
            let fast = measure(&rule.objective, store, 1);
            let slow = measure(&rule.objective, store, rule.slow_window);
            let threshold = objective_threshold(&rule.objective);
            let burning = fast > threshold && slow > threshold;
            match status.state {
                AlertState::Ok | AlertState::Resolved if burning => {
                    status.state = AlertState::Firing;
                    status.fired += 1;
                    status.instruments.fired.inc();
                    status.instruments.firing.set(1);
                    self.log.record(
                        LogLevel::Warn,
                        "telemetry.slo",
                        "slo alert fired",
                        &[
                            ("rule", rule.name.as_str()),
                            ("fast_burn", &format!("{fast:.4}")),
                            ("slow_burn", &format!("{slow:.4}")),
                            ("threshold", &format!("{threshold:.4}")),
                        ],
                    );
                }
                AlertState::Firing if fast <= threshold => {
                    status.state = AlertState::Resolved;
                    status.resolved += 1;
                    status.instruments.resolved.inc();
                    status.instruments.firing.set(0);
                    self.log.record(
                        LogLevel::Info,
                        "telemetry.slo",
                        "slo alert resolved",
                        &[
                            ("rule", rule.name.as_str()),
                            ("fast_burn", &format!("{fast:.4}")),
                        ],
                    );
                }
                _ => {}
            }
            verdicts.push(SloVerdict {
                rule: rule.name.clone(),
                state: status.state,
                fast_burn: fast,
                slow_burn: slow,
                threshold,
                fired: status.fired,
                resolved: status.resolved,
            });
        }
        self.verdicts = verdicts.clone();
        verdicts
    }

    /// The verdicts from the most recent [`evaluate`](Self::evaluate)
    /// call (empty before the first tick).
    pub fn verdicts(&self) -> Vec<SloVerdict> {
        self.verdicts.clone()
    }

    /// True while any alert is in the `Firing` state.
    pub(crate) fn any_firing(&self) -> bool {
        self.status.iter().any(|s| s.state == AlertState::Firing)
    }
}

fn objective_threshold(objective: &SloObjective) -> f64 {
    match objective {
        SloObjective::ErrorRate { max_ratio, .. } => *max_ratio,
        SloObjective::Budget { max_per_tick, .. } => *max_per_tick,
    }
}

/// Measure one objective's burn over the newest `window` ticks.
fn measure(objective: &SloObjective, store: &SeriesStore, window: u64) -> f64 {
    match objective {
        SloObjective::ErrorRate { bad, total, .. } => {
            let total_sum =
                store.counter_window_sum(&total.name, &total.label_refs(), window) as f64;
            if total_sum == 0.0 {
                return 0.0;
            }
            let bad_sum: u64 = bad
                .iter()
                .map(|sel| store.counter_window_sum(&sel.name, &sel.label_refs(), window))
                .sum();
            bad_sum as f64 / total_sum
        }
        SloObjective::Budget { events, .. } => {
            let sum = store.counter_window_sum(&events.name, &events.label_refs(), window);
            let span = window.max(1).min(store.ticks().max(1));
            sum as f64 / span as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn error_rate_policy() -> SloPolicy {
        SloPolicy {
            rules: vec![SloRule {
                name: "errors".into(),
                objective: SloObjective::ErrorRate {
                    bad: vec![MetricSelector::new("resp_total", &[("status", "503")])],
                    total: MetricSelector::new("resp_total", &[]),
                    max_ratio: 0.05,
                },
                slow_window: 3,
            }],
        }
    }

    /// Drive a synthetic workload through registry → store → evaluator.
    struct Rig {
        registry: Registry,
        store: SeriesStore,
    }

    impl Rig {
        fn new() -> Rig {
            Rig {
                registry: Registry::new(),
                store: SeriesStore::new(16),
            }
        }

        fn tick(&mut self, eval: &mut SloEvaluator, ok: u64, bad: u64) -> SloVerdict {
            self.registry
                .counter("resp_total", &[("status", "200")])
                .add(ok);
            self.registry
                .counter("resp_total", &[("status", "503")])
                .add(bad);
            self.store.observe(&self.registry.snapshot());
            eval.evaluate(&self.store).remove(0)
        }
    }

    #[test]
    fn fires_only_when_both_windows_burn_then_resolves() {
        let mut eval = SloEvaluator::new(error_rate_policy());
        let mut rig = Rig::new();
        // Clean traffic: no burn.
        let v = rig.tick(&mut eval, 100, 0);
        assert_eq!(v.state, AlertState::Ok);
        // Sustained burn: 50% errors — fast and slow both exceed 5%.
        let v = rig.tick(&mut eval, 50, 50);
        assert_eq!(v.state, AlertState::Firing);
        assert_eq!(v.fired, 1);
        // Still burning: no re-fire while already firing.
        let v = rig.tick(&mut eval, 50, 50);
        assert_eq!(v.state, AlertState::Firing);
        assert_eq!(v.fired, 1);
        // Recovery tick: fast window clean, alert resolves.
        let v = rig.tick(&mut eval, 100, 0);
        assert_eq!(v.state, AlertState::Resolved);
        assert_eq!(v.resolved, 1);
        // Re-arms: a new sustained burn fires again.
        let v = rig.tick(&mut eval, 10, 90);
        assert_eq!(v.state, AlertState::Firing);
        assert_eq!(v.fired, 2);
    }

    #[test]
    fn one_tick_blip_does_not_fire_when_slow_window_is_clean() {
        let mut policy = error_rate_policy();
        policy.rules[0].slow_window = 4;
        let mut eval = SloEvaluator::new(policy);
        let mut rig = Rig::new();
        // Three clean, heavy ticks establish a clean slow window.
        for _ in 0..3 {
            rig.tick(&mut eval, 1000, 0);
        }
        // One small burst: fast window burns (100%), slow window stays
        // under 5% (10 bad / >3000 total).
        let v = rig.tick(&mut eval, 0, 10);
        assert!(v.fast_burn > 0.05);
        assert!(v.slow_burn < 0.05);
        assert_eq!(v.state, AlertState::Ok);
        assert_eq!(v.fired, 0);
    }

    #[test]
    fn zero_budget_fires_on_any_event_and_counters_track() {
        let registry = Registry::new();
        let policy = SloPolicy {
            rules: vec![SloRule {
                name: "shed".into(),
                objective: SloObjective::Budget {
                    events: MetricSelector::new("shed_total", &[]),
                    max_per_tick: 0.0,
                },
                slow_window: 3,
            }],
        };
        let mut eval = SloEvaluator::new(policy).instrumented(&registry);
        let mut store = SeriesStore::new(16);
        let shed = registry.counter("shed_total", &[]);
        store.observe(&registry.snapshot());
        let v = eval.evaluate(&store).remove(0);
        assert_eq!(v.state, AlertState::Ok);
        shed.inc();
        store.observe(&registry.snapshot());
        let v = eval.evaluate(&store).remove(0);
        assert_eq!(v.state, AlertState::Firing);
        assert!(eval.any_firing());
        store.observe(&registry.snapshot());
        let v = eval.evaluate(&store).remove(0);
        assert_eq!(v.state, AlertState::Resolved);
        assert!(!eval.any_firing());
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter_sum("marketscope_slo_alerts_fired_total", &[("rule", "shed")]),
            1
        );
        assert_eq!(
            snap.counter_sum("marketscope_slo_alerts_resolved_total", &[("rule", "shed")]),
            1
        );
    }

    #[test]
    fn alert_transitions_emit_log_events() {
        let log = EventLog::private();
        let mut eval = SloEvaluator::new(error_rate_policy()).with_log(Arc::clone(&log));
        let mut rig = Rig::new();
        rig.tick(&mut eval, 100, 0);
        rig.tick(&mut eval, 0, 100);
        rig.tick(&mut eval, 100, 0);
        let snap = log.snapshot();
        let messages: Vec<&str> = snap.events.iter().map(|e| e.message.as_str()).collect();
        assert_eq!(messages, vec!["slo alert fired", "slo alert resolved"]);
        assert_eq!(snap.events[0].level, LogLevel::Warn);
        assert!(snap.events[0]
            .fields
            .iter()
            .any(|(k, v)| k == "rule" && v == "errors"));
    }

    #[test]
    fn fleet_default_policy_is_well_formed() {
        let policy = SloPolicy::fleet_default();
        assert!(policy.rules.len() >= 4);
        let mut eval = SloEvaluator::new(policy);
        let store = SeriesStore::new(4);
        // Evaluating an empty store burns nothing.
        let verdicts = eval.evaluate(&store);
        assert!(verdicts
            .iter()
            .all(|v| v.state == AlertState::Ok && v.fast_burn == 0.0));
    }
}
