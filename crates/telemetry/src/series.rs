//! Windowed time series cut from registry snapshots.
//!
//! A [`SeriesStore`] turns the registry's since-process-start aggregates
//! into per-tick deltas: each call to [`SeriesStore::observe`] diffs the
//! new [`RegistrySnapshot`] against the previous
//! one and appends one point per instrument to a fixed-capacity ring.
//! Counter points carry the tick's delta (never negative — diffs
//! saturate), gauge points carry the instantaneous level, and histogram
//! points carry the tick's bucket deltas, so a windowed rate falls out
//! of summing a suffix of the ring instead of reading a lifetime
//! aggregate. Each point also carries the source snapshot's wall-clock
//! and monotonic stamps so timelines stay legible.
//!
//! The store has no thread and no clock: its owner decides when a tick
//! is. The market fleet cuts one at each phase mark of a campaign, so a
//! window spans whole phases of requests and its contents are a function
//! of the traffic, not of when a timer fired.

use crate::histogram::{HistogramSnapshot, BUCKET_COUNT};
use crate::registry::{InstrumentId, RegistrySnapshot};
use std::collections::{BTreeMap, VecDeque};

/// One counter observation: the delta accrued this tick plus the
/// cumulative total, stamped with the source snapshot's clocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterPoint {
    /// Tick ordinal within the observing store (0-based).
    pub tick: u64,
    /// Wall-clock stamp of the observed snapshot (unix nanos).
    pub unix_nanos: u64,
    /// Monotonic stamp of the observed snapshot (process-epoch nanos).
    pub mono_nanos: u64,
    /// Increments accrued since the previous tick (saturating).
    pub delta: u64,
    /// Cumulative total at this tick.
    pub total: u64,
}

/// One gauge observation: the instantaneous level at the tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugePoint {
    /// Tick ordinal within the observing store (0-based).
    pub tick: u64,
    /// Wall-clock stamp of the observed snapshot (unix nanos).
    pub unix_nanos: u64,
    /// Monotonic stamp of the observed snapshot (process-epoch nanos).
    pub mono_nanos: u64,
    /// Gauge level at this tick.
    pub level: i64,
}

/// One histogram observation: the bucket/sum deltas accrued this tick.
/// `delta.max` keeps the cumulative max (a high-water mark cannot be
/// differenced).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramPoint {
    /// Tick ordinal within the observing store (0-based).
    pub tick: u64,
    /// Wall-clock stamp of the observed snapshot (unix nanos).
    pub unix_nanos: u64,
    /// Monotonic stamp of the observed snapshot (process-epoch nanos).
    pub mono_nanos: u64,
    /// Bucket and sum deltas for this tick; `max` is cumulative.
    pub delta: HistogramSnapshot,
}

/// Bucket-wise saturating difference `cur - prev`. `max` passes through
/// from `cur` (cumulative high-water mark).
fn histogram_delta(cur: &HistogramSnapshot, prev: &HistogramSnapshot) -> HistogramSnapshot {
    let mut buckets = [0u64; BUCKET_COUNT];
    for (i, slot) in buckets.iter_mut().enumerate() {
        *slot = cur.buckets[i].saturating_sub(prev.buckets[i]);
    }
    HistogramSnapshot {
        buckets,
        sum: cur.sum.saturating_sub(prev.sum),
        max: cur.max,
    }
}

/// Ring of per-instrument point series produced by successive
/// [`observe`](SeriesStore::observe) calls.
#[derive(Debug)]
pub struct SeriesStore {
    capacity: usize,
    ticks: u64,
    last: Option<RegistrySnapshot>,
    counters: BTreeMap<InstrumentId, VecDeque<CounterPoint>>,
    gauges: BTreeMap<InstrumentId, VecDeque<GaugePoint>>,
    histograms: BTreeMap<InstrumentId, VecDeque<HistogramPoint>>,
}

impl SeriesStore {
    /// Create a store retaining `capacity` points per instrument (min 1).
    pub fn new(capacity: usize) -> SeriesStore {
        SeriesStore {
            capacity: capacity.max(1),
            ticks: 0,
            last: None,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }

    /// Ticks observed so far.
    pub(crate) fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Ingest one snapshot as the next tick. Counter and histogram
    /// deltas are diffed against the previous snapshot (saturating, so a
    /// snapshot that runs backwards — e.g. a differently-merged view —
    /// yields zero deltas, never negative ones). Instruments appearing
    /// for the first time attribute their whole total to this tick.
    /// Returns the tick ordinal just recorded.
    pub fn observe(&mut self, snap: &RegistrySnapshot) -> u64 {
        let tick = self.ticks;
        let unix_nanos = snap.captured_unix_nanos;
        let mono_nanos = snap.captured_mono_nanos;
        for (id, &total) in &snap.counters {
            let prev = self
                .last
                .as_ref()
                .and_then(|l| l.counters.get(id).copied())
                .unwrap_or(0);
            push_point(
                self.counters.entry(id.clone()).or_default(),
                self.capacity,
                CounterPoint {
                    tick,
                    unix_nanos,
                    mono_nanos,
                    delta: total.saturating_sub(prev),
                    total,
                },
            );
        }
        for (id, &level) in &snap.gauges {
            push_point(
                self.gauges.entry(id.clone()).or_default(),
                self.capacity,
                GaugePoint {
                    tick,
                    unix_nanos,
                    mono_nanos,
                    level,
                },
            );
        }
        let empty = HistogramSnapshot::default();
        for (id, hist) in &snap.histograms {
            let prev = self
                .last
                .as_ref()
                .and_then(|l| l.histograms.get(id))
                .unwrap_or(&empty);
            push_point(
                self.histograms.entry(id.clone()).or_default(),
                self.capacity,
                HistogramPoint {
                    tick,
                    unix_nanos,
                    mono_nanos,
                    delta: histogram_delta(hist, prev),
                },
            );
        }
        self.last = Some(snap.clone());
        self.ticks += 1;
        tick
    }

    /// Copy the rings out into a snapshot.
    pub fn snapshot(&self) -> SeriesSnapshot {
        SeriesSnapshot {
            capacity: self.capacity,
            ticks: self.ticks,
            counters: self
                .counters
                .iter()
                .map(|(id, ring)| (id.clone(), ring.iter().copied().collect()))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(id, ring)| (id.clone(), ring.iter().copied().collect()))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(id, ring)| (id.clone(), ring.iter().cloned().collect()))
                .collect(),
        }
    }

    /// Sum of counter deltas over the newest `window` ticks, across every
    /// instrument matching `name` and carrying all of `labels`.
    pub(crate) fn counter_window_sum(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        window: u64,
    ) -> u64 {
        let cutoff = self.ticks.saturating_sub(window.max(1));
        sum_counter_deltas(
            self.counters
                .iter()
                .map(|(id, ring)| (id, ring.iter().copied())),
            name,
            labels,
            cutoff,
        )
    }
}

fn push_point<T>(ring: &mut VecDeque<T>, capacity: usize, point: T) {
    if ring.len() == capacity {
        ring.pop_front();
    }
    ring.push_back(point);
}

fn selector_matches(id: &InstrumentId, name: &str, labels: &[(&str, &str)]) -> bool {
    id.name == name && labels.iter().all(|&(k, v)| id.label(k) == Some(v))
}

fn sum_counter_deltas<'a, I, P>(series: I, name: &str, labels: &[(&str, &str)], cutoff: u64) -> u64
where
    I: Iterator<Item = (&'a InstrumentId, P)>,
    P: Iterator<Item = CounterPoint>,
{
    series
        .filter(|(id, _)| selector_matches(id, name, labels))
        .flat_map(|(_, points)| points)
        .filter(|p| p.tick >= cutoff)
        .map(|p| p.delta)
        .sum()
}

/// Copy of a [`SeriesStore`]'s rings.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SeriesSnapshot {
    /// Ring capacity of the source store.
    pub capacity: usize,
    /// Ticks the source store had observed.
    pub ticks: u64,
    /// Counter point series, oldest first.
    pub counters: BTreeMap<InstrumentId, Vec<CounterPoint>>,
    /// Gauge point series, oldest first.
    pub gauges: BTreeMap<InstrumentId, Vec<GaugePoint>>,
    /// Histogram point series, oldest first.
    pub histograms: BTreeMap<InstrumentId, Vec<HistogramPoint>>,
}

impl SeriesSnapshot {
    /// Sum of counter deltas over the newest `window` ticks across
    /// matching instruments (see `SeriesStore::counter_window_sum`).
    pub fn counter_window_sum(&self, name: &str, labels: &[(&str, &str)], window: u64) -> u64 {
        let cutoff = self.ticks.saturating_sub(window.max(1));
        sum_counter_deltas(
            self.counters
                .iter()
                .map(|(id, points)| (id, points.iter().copied())),
            name,
            labels,
            cutoff,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn snap_with(counter: u64, gauge: i64) -> RegistrySnapshot {
        let registry = Registry::new();
        registry.counter("test_total", &[]).add(counter);
        registry.gauge("test_level", &[]).set(gauge);
        registry.snapshot()
    }

    #[test]
    fn counter_deltas_follow_increments() {
        let mut store = SeriesStore::new(8);
        store.observe(&snap_with(3, 1));
        store.observe(&snap_with(10, 5));
        let snap = store.snapshot();
        let points = snap
            .counters
            .values()
            .next()
            .expect("counter series present");
        assert_eq!(points[0].delta, 3);
        assert_eq!(points[1].delta, 7);
        assert_eq!(points[1].total, 10);
        assert_eq!(store.counter_window_sum("test_total", &[], 1), 7);
        assert_eq!(store.counter_window_sum("test_total", &[], 10), 10);
    }

    #[test]
    fn backwards_snapshot_saturates_to_zero() {
        let mut store = SeriesStore::new(8);
        store.observe(&snap_with(10, 0));
        store.observe(&snap_with(4, 0));
        let snap = store.snapshot();
        let points = snap
            .counters
            .values()
            .next()
            .expect("counter series present");
        assert_eq!(points[1].delta, 0);
    }

    #[test]
    fn ring_keeps_newest_capacity_points() {
        let mut store = SeriesStore::new(3);
        for i in 1..=7u64 {
            store.observe(&snap_with(i, 0));
        }
        let snap = store.snapshot();
        let points = snap
            .counters
            .values()
            .next()
            .expect("counter series present");
        assert_eq!(points.len(), 3);
        assert_eq!(
            points.iter().map(|p| p.tick).collect::<Vec<_>>(),
            vec![4, 5, 6]
        );
    }
}
