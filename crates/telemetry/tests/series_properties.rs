//! Property tests for the ops plane: counter-delta series are
//! non-negative whatever the source snapshots do, rings keep the newest
//! points, log merges are order-insensitive, and burn-rate alerts fire
//! and resolve deterministically.

use marketscope_core::propcheck::{check, usize_in, vec_of};
use marketscope_core::rng::DetRng;
use marketscope_telemetry::{
    EventLog, LogLevel, MetricSelector, Registry, SeriesStore, SloEvaluator, SloObjective,
    SloPolicy, SloRule,
};

/// A registry snapshot with one counter at `total`, stamps pinned so
/// snapshot-level equality is exact across processes.
fn counter_snapshot(total: u64, stamp: u64) -> marketscope_telemetry::RegistrySnapshot {
    let r = Registry::new();
    r.counter("events_total", &[("side", "x")]).add(total);
    r.snapshot().stamped(stamp, stamp)
}

/// This suite's runner: 128 cases per property, streams named
/// `series_properties::<property>`.
fn property(name: &str, body: impl FnMut(&mut DetRng)) {
    check(&format!("series_properties::{name}"), 128, body);
}

/// Deltas never go negative, even when consecutive observations are
/// fed out of order (a restarted process, a clock-skewed peer): the
/// store saturates instead of underflowing.
#[test]
fn counter_deltas_never_negative() {
    property("counter_deltas_never_negative", |rng| {
        let totals = vec_of(rng, 1..40, |r| r.range_u64(0, 1_000_000));
        let mut store = SeriesStore::new(64);
        for (i, &t) in totals.iter().enumerate() {
            store.observe(&counter_snapshot(t, i as u64 + 1));
        }
        let snap = store.snapshot();
        let mut windowed = 0u64;
        for points in snap.counters.values() {
            for p in points {
                // `delta` is u64, so a backwards total can never
                // underflow; it also can never exceed its own tick's
                // cumulative total.
                assert!(p.delta <= p.total);
                windowed += p.delta;
            }
        }
        // First observation attributes its whole total; later monotone
        // increases add exactly the increase; decreases add nothing.
        let mut expect = totals[0];
        for w in totals.windows(2) {
            expect += w[1].saturating_sub(w[0]);
        }
        assert_eq!(windowed, expect);
    });
}

/// The per-instrument ring keeps exactly the newest `capacity`
/// points, in tick order.
#[test]
fn ring_keeps_newest_capacity_points() {
    property("ring_keeps_newest_capacity_points", |rng| {
        let n = usize_in(rng, 1..60);
        let capacity = usize_in(rng, 1..16);
        let mut store = SeriesStore::new(capacity);
        for t in 0..n {
            store.observe(&counter_snapshot((t as u64 + 1) * 10, t as u64 + 1));
        }
        let snap = store.snapshot();
        assert_eq!(snap.ticks, n as u64);
        for points in snap.counters.values() {
            assert_eq!(points.len(), n.min(capacity));
            let ticks: Vec<u64> = points.iter().map(|p| p.tick).collect();
            let expect: Vec<u64> = ((n - n.min(capacity)) as u64..n as u64).collect();
            assert_eq!(ticks, expect);
        }
    });
}

/// Log snapshot merging is order-insensitive: merge(a, b) and
/// merge(b, a) produce the same timeline and tallies.
#[test]
fn log_merge_is_order_insensitive() {
    property("log_merge_is_order_insensitive", |rng| {
        let na = usize_in(rng, 0..20);
        let nb = usize_in(rng, 0..20);
        let log_a = EventLog::new(32);
        let log_b = EventLog::new(32);
        for i in 0..na {
            log_a.record(LogLevel::Info, "a", &format!("event {i}"), &[]);
        }
        for i in 0..nb {
            log_b.record(LogLevel::Warn, "b", &format!("event {i}"), &[]);
        }
        let (a, b) = (log_a.snapshot(), log_b.snapshot());
        let ab = a.clone().merge(&b);
        let ba = b.clone().merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.recorded, (na + nb) as u64);
        assert_eq!(ab.events.len(), na + nb);
    });
}

/// A policy with one zero-budget rule over `events_total{side="x"}`,
/// slow window of `slow` ticks.
fn budget_policy(slow: u64) -> SloPolicy {
    SloPolicy {
        rules: vec![SloRule {
            name: "events_budget".into(),
            objective: SloObjective::Budget {
                events: MetricSelector::new("events_total", &[("side", "x")]),
                max_per_tick: 0.0,
            },
            slow_window: slow,
        }],
    }
}

/// Burn-rate alerts are a deterministic function of the delta series:
/// replaying the same totals through fresh stores and evaluators gives
/// identical fire/resolve traces, and the final state is predictable
/// from the last deltas.
#[test]
fn burn_rate_alerts_fire_and_resolve_deterministically() {
    // Totals: quiet, burst, quiet, quiet — fires at the burst tick,
    // resolves on the first quiet tick after it.
    let totals = [5u64, 5, 25, 25, 25];
    let run = || {
        let mut store = SeriesStore::new(16);
        let mut eval = SloEvaluator::new(budget_policy(3));
        let mut trace = Vec::new();
        for (i, &t) in totals.iter().enumerate() {
            store.observe(&counter_snapshot(t, i as u64 + 1));
            let verdicts = eval.evaluate(&store);
            trace.push((verdicts[0].state, verdicts[0].fired, verdicts[0].resolved));
        }
        trace
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "replay must produce the identical trace");
    use marketscope_telemetry::AlertState::*;
    // Tick 0 burns (first observation = its own delta 5 > 0 budget) and
    // the slow window agrees, so the alert fires immediately; tick 1 is
    // quiet and resolves it; tick 2's burst re-fires; ticks 3-4 resolve
    // and stay resolved.
    assert_eq!(
        first,
        vec![
            (Firing, 1, 0),
            (Resolved, 1, 1),
            (Firing, 2, 1),
            (Resolved, 2, 2),
            (Resolved, 2, 2),
        ]
    );
}
