//! Windowed time series scraped from registry snapshots.
//!
//! A [`SeriesStore`] turns the registry's since-process-start aggregates
//! into per-tick deltas: each call to [`SeriesStore::observe`] diffs the
//! new [`RegistrySnapshot`] against the previous
//! one and appends one point per instrument to a fixed-capacity ring.
//! Counter points carry the tick's delta (never negative — diffs
//! saturate), gauge points carry the instantaneous level, and histogram
//! points carry the tick's bucket deltas, so windowed rates and windowed
//! p50/p99 fall out of summing a suffix of the ring instead of reading a
//! lifetime aggregate.
//!
//! [`SeriesSnapshot`]s merge across processes the same way registry
//! snapshots do: per-instrument point lists are aligned by tick ordinal
//! (same-tick points combine, deltas and gauge levels add, histogram
//! deltas merge) under the assumption that the stores ticked on a shared
//! schedule — which is exactly the sharded-fleet case where one
//! coordinator scrapes every shard on the same tick. Each point also
//! carries the source snapshot's wall-clock and monotonic stamps so
//! cross-process timelines stay legible.
//!
//! The [`Scraper`] owns a background thread that samples an arbitrary
//! snapshot closure on a fixed tick, feeding the store and then any
//! registered tick hooks (the SLO evaluator rides one). `tick_now` runs
//! one synchronous tick for deterministic tests and campaign settling.

use crate::histogram::{HistogramSnapshot, BUCKET_COUNT};
use crate::periodic::Periodic;
use crate::registry::{InstrumentId, RegistrySnapshot};
use crate::trace::Tracer;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Sizing for a [`SeriesStore`] / [`Scraper`].
#[derive(Debug, Clone, Copy)]
pub struct SeriesConfig {
    /// Points retained per instrument; older points are overwritten.
    pub capacity: usize,
    /// Scrape interval for the background thread.
    pub tick: Duration,
}

impl Default for SeriesConfig {
    fn default() -> SeriesConfig {
        SeriesConfig {
            capacity: 240,
            tick: Duration::from_millis(100),
        }
    }
}

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
    pub fn ticks(&self) -> u64 {
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

    /// Copy the rings out into a mergeable snapshot.
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
    pub fn counter_window_sum(&self, name: &str, labels: &[(&str, &str)], window: u64) -> u64 {
        let cutoff = self.window_cutoff(window);
        sum_counter_deltas(
            self.counters
                .iter()
                .map(|(id, ring)| (id, ring.iter().copied())),
            name,
            labels,
            cutoff,
        )
    }

    /// Windowed quantile over the newest `window` ticks of every
    /// histogram matching `name`/`labels`. `None` when no samples landed
    /// in the window.
    pub fn window_quantile(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        q: f64,
        window: u64,
    ) -> Option<u64> {
        let cutoff = self.window_cutoff(window);
        window_quantile_impl(
            self.histograms
                .iter()
                .map(|(id, ring)| (id, ring.iter().cloned())),
            name,
            labels,
            q,
            cutoff,
        )
    }

    /// Latest level of the first gauge matching `name`/`labels`.
    pub fn gauge_level(&self, name: &str, labels: &[(&str, &str)]) -> Option<i64> {
        self.gauges
            .iter()
            .filter(|(id, _)| selector_matches(id, name, labels))
            .filter_map(|(_, ring)| ring.back().map(|p| p.level))
            .next()
    }

    /// First tick ordinal inside the newest `window` ticks.
    fn window_cutoff(&self, window: u64) -> u64 {
        self.ticks.saturating_sub(window.max(1))
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

fn window_quantile_impl<'a, I, P>(
    series: I,
    name: &str,
    labels: &[(&str, &str)],
    q: f64,
    cutoff: u64,
) -> Option<u64>
where
    I: Iterator<Item = (&'a InstrumentId, P)>,
    P: Iterator<Item = HistogramPoint>,
{
    let mut merged: Option<HistogramSnapshot> = None;
    for (_, points) in series.filter(|(id, _)| selector_matches(id, name, labels)) {
        for p in points.filter(|p| p.tick >= cutoff) {
            merged = Some(match merged.take() {
                Some(acc) => acc.merge(&p.delta),
                None => p.delta,
            });
        }
    }
    let merged = merged?;
    if merged.count() == 0 {
        None
    } else {
        Some(merged.quantile(q))
    }
}

/// Mergeable copy of a [`SeriesStore`]'s rings.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SeriesSnapshot {
    /// Ring capacity of the source store (merge keeps the larger).
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
    /// Pool another snapshot into this one. Point lists for the same
    /// instrument are aligned by tick ordinal: same-tick counter deltas
    /// and totals add, gauge levels add, histogram deltas merge, and the
    /// later capture stamp wins — so merging per-shard series observed on
    /// a shared tick schedule equals the series of the merged registry
    /// (`merge∘delta == delta∘merge`). Each ring keeps its newest
    /// `capacity` points.
    pub fn merge(mut self, other: &SeriesSnapshot) -> SeriesSnapshot {
        let capacity = self.capacity.max(other.capacity).max(1);
        for (id, points) in &other.counters {
            let mine = self.counters.entry(id.clone()).or_default();
            merge_points(
                mine,
                points,
                capacity,
                |a, b| a.tick.cmp(&b.tick),
                |a, b| CounterPoint {
                    tick: a.tick,
                    unix_nanos: a.unix_nanos.max(b.unix_nanos),
                    mono_nanos: a.mono_nanos.max(b.mono_nanos),
                    delta: a.delta + b.delta,
                    total: a.total + b.total,
                },
            );
        }
        for (id, points) in &other.gauges {
            let mine = self.gauges.entry(id.clone()).or_default();
            merge_points(
                mine,
                points,
                capacity,
                |a, b| a.tick.cmp(&b.tick),
                |a, b| GaugePoint {
                    tick: a.tick,
                    unix_nanos: a.unix_nanos.max(b.unix_nanos),
                    mono_nanos: a.mono_nanos.max(b.mono_nanos),
                    level: a.level + b.level,
                },
            );
        }
        for (id, points) in &other.histograms {
            let mine = self.histograms.entry(id.clone()).or_default();
            merge_points(
                mine,
                points,
                capacity,
                |a, b| a.tick.cmp(&b.tick),
                |a, b| HistogramPoint {
                    tick: a.tick,
                    unix_nanos: a.unix_nanos.max(b.unix_nanos),
                    mono_nanos: a.mono_nanos.max(b.mono_nanos),
                    delta: a.delta.merge(&b.delta),
                },
            );
        }
        self.capacity = capacity;
        self.ticks = self.ticks.max(other.ticks);
        self
    }

    /// True when no instrument has any points.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Sum of counter deltas over the newest `window` ticks across
    /// matching instruments (see [`SeriesStore::counter_window_sum`]).
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

    /// Windowed quantile across matching histograms (see
    /// [`SeriesStore::window_quantile`]).
    pub fn window_quantile(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        q: f64,
        window: u64,
    ) -> Option<u64> {
        let cutoff = self.ticks.saturating_sub(window.max(1));
        window_quantile_impl(
            self.histograms
                .iter()
                .map(|(id, points)| (id, points.iter().cloned())),
            name,
            labels,
            q,
            cutoff,
        )
    }
}

/// Pairwise merge of two tick-sorted point lists: equal keys combine,
/// others interleave; keeps the newest `capacity` entries.
fn merge_points<T: Clone>(
    mine: &mut Vec<T>,
    theirs: &[T],
    capacity: usize,
    cmp: impl Fn(&T, &T) -> std::cmp::Ordering,
    combine: impl Fn(&T, &T) -> T,
) {
    let mut out = Vec::with_capacity(mine.len() + theirs.len());
    let (mut i, mut j) = (0, 0);
    while i < mine.len() && j < theirs.len() {
        match cmp(&mine[i], &theirs[j]) {
            std::cmp::Ordering::Less => {
                out.push(mine[i].clone());
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(theirs[j].clone());
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(combine(&mine[i], &theirs[j]));
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&mine[i..]);
    out.extend(theirs[j..].iter().cloned());
    if out.len() > capacity {
        out.drain(..out.len() - capacity);
    }
    *mine = out;
}

/// Hook invoked after every tick with the freshly-updated store (the SLO
/// evaluator rides one of these).
pub type TickHook = Box<dyn Fn(&SeriesStore) + Send + Sync>;

/// Background scrape loop: samples a snapshot closure on a fixed tick,
/// feeds a [`SeriesStore`], then runs the tick hooks. Each tick runs
/// inside an `ops`-component root span of the given tracer so anything
/// the hooks record (SLO alert events, notably) carries a resolvable
/// trace id. Dropping the scraper stops the thread.
pub struct Scraper {
    tick: Arc<Tick>,
    thread: Periodic,
}

/// Everything one tick touches, shared between the background thread
/// and [`Scraper::tick_now`].
struct Tick {
    store: Mutex<SeriesStore>,
    sample: Box<dyn Fn() -> RegistrySnapshot + Send + Sync>,
    hooks: Vec<TickHook>,
    tracer: Arc<Tracer>,
}

impl Tick {
    fn run(&self) {
        // Each tick is its own trace: `root_span` starts one even with no
        // ambient context, so hook-recorded events (SLO alerts) always
        // carry a resolvable trace id.
        let span = self.tracer.root_span("ops", "scrape-tick");
        let snap = (self.sample)();
        let mut store = self.store();
        store.observe(&snap);
        for hook in &self.hooks {
            hook(&store);
        }
        drop(store);
        span.finish();
    }

    fn store(&self) -> std::sync::MutexGuard<'_, SeriesStore> {
        self.store.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl std::fmt::Debug for Scraper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scraper")
            .field("ticks", &self.ticks())
            .finish()
    }
}

impl Scraper {
    /// Start a scraper over `sample`. `hooks` run after every tick;
    /// `tracer` wraps each tick in a span ([`Tracer::disabled`] for none).
    pub fn spawn(
        config: SeriesConfig,
        sample: impl Fn() -> RegistrySnapshot + Send + Sync + 'static,
        hooks: Vec<TickHook>,
        tracer: Arc<Tracer>,
    ) -> Scraper {
        let tick = Arc::new(Tick {
            store: Mutex::new(SeriesStore::new(config.capacity)),
            sample: Box::new(sample),
            hooks,
            tracer,
        });
        let thread_tick = Arc::clone(&tick);
        let thread = Periodic::spawn("ops-scraper", config.tick, move || thread_tick.run());
        Scraper { tick, thread }
    }

    /// Run one synchronous tick (sample + observe + hooks). Used for
    /// deterministic tests and to settle alerts at campaign end.
    pub fn tick_now(&self) {
        self.tick.run();
    }

    /// Snapshot of the underlying store's rings.
    pub fn series(&self) -> SeriesSnapshot {
        self.tick.store().snapshot()
    }

    /// Ticks observed so far (background + synchronous).
    pub fn ticks(&self) -> u64 {
        self.tick.store().ticks()
    }

    /// Stop the background thread and wait for it to exit. Idempotent.
    pub fn stop(&self) {
        self.thread.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use std::sync::atomic::{AtomicBool, Ordering};

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
        assert_eq!(store.gauge_level("test_level", &[]), Some(5));
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

    #[test]
    fn windowed_quantile_reflects_only_window() {
        let registry = Registry::new();
        let hist = registry.histogram("test_nanos", &[]);
        let mut store = SeriesStore::new(8);
        hist.record(1_000_000);
        store.observe(&registry.snapshot());
        hist.record(500);
        store.observe(&registry.snapshot());
        // Last tick saw only the 500ns sample; lifetime p99 would be ~1ms.
        let windowed = store
            .window_quantile("test_nanos", &[], 0.99, 1)
            .expect("samples in window");
        assert!(windowed < 10_000, "windowed p99 {windowed} should be small");
        let lifetime = store
            .window_quantile("test_nanos", &[], 0.99, 10)
            .expect("samples in window");
        assert!(lifetime >= 500_000, "lifetime-window p99 {lifetime}");
        assert_eq!(store.window_quantile("missing", &[], 0.99, 1), None);
    }

    #[test]
    fn scraper_ticks_and_hooks_run() {
        let registry = Arc::new(Registry::new());
        let counter = registry.counter("test_total", &[]);
        let seen = Arc::new(AtomicBool::new(false));
        let seen_hook = Arc::clone(&seen);
        let reg = Arc::clone(&registry);
        let scraper = Scraper::spawn(
            SeriesConfig {
                capacity: 16,
                tick: Duration::from_secs(3600),
            },
            move || reg.snapshot(),
            vec![Box::new(move |store: &SeriesStore| {
                if store.ticks() > 0 {
                    seen_hook.store(true, Ordering::Relaxed);
                }
            })],
            Arc::new(Tracer::disabled()),
        );
        counter.add(5);
        scraper.tick_now();
        assert_eq!(scraper.ticks(), 1);
        assert!(seen.load(Ordering::Relaxed));
        let series = scraper.series();
        assert_eq!(series.counter_window_sum("test_total", &[], 1), 5);
        scraper.stop();
    }
}
