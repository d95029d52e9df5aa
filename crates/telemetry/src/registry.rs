//! The instrument registry: named, labelled instruments with get-or-create
//! semantics and whole-registry snapshots.

use crate::counter::{Counter, Gauge};
use crate::histogram::{Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, RwLock};

/// The identity of one instrument: a metric name plus a sorted label set.
///
/// Two registrations with the same name and labels return the same
/// underlying instrument; labels are sorted at construction so label order
/// at the call site does not matter.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct InstrumentId {
    /// Metric name (`marketscope_<crate>_<name>` by convention).
    pub name: String,
    /// Label key/value pairs, sorted by key.
    pub labels: Vec<(String, String)>,
}

impl InstrumentId {
    /// Build an id from a name and label pairs.
    pub(crate) fn new(name: &str, labels: &[(&str, &str)]) -> InstrumentId {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect();
        labels.sort();
        InstrumentId {
            name: name.to_owned(),
            labels,
        }
    }

    /// The value of one label, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Whether this id carries exactly the given label pairs (in any
    /// order) among its labels.
    pub(crate) fn has_labels(&self, labels: &[(&str, &str)]) -> bool {
        labels.iter().all(|(k, v)| self.label(k) == Some(*v))
    }
}

impl fmt::Display for InstrumentId {
    /// Prometheus series syntax, with label values escaped per the text
    /// exposition format (`\` → `\\`, `"` → `\"`, newline → `\n`) so the
    /// output always parses back ([`crate::exposition::parse`] reverses
    /// the escaping).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)?;
        if !self.labels.is_empty() {
            write!(f, "{{")?;
            for (i, (k, v)) in self.labels.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{k}=\"")?;
                for c in v.chars() {
                    match c {
                        '\\' => write!(f, "\\\\")?,
                        '"' => write!(f, "\\\"")?,
                        '\n' => write!(f, "\\n")?,
                        c => write!(f, "{c}")?,
                    }
                }
                write!(f, "\"")?;
            }
            write!(f, "}}")?;
        }
        Ok(())
    }
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<InstrumentId, Arc<Counter>>,
    gauges: BTreeMap<InstrumentId, Arc<Gauge>>,
    histograms: BTreeMap<InstrumentId, Arc<Histogram>>,
}

/// A registry of named instruments.
///
/// Registration (get-or-create) takes a short `RwLock` critical section;
/// the returned `Arc` is then recorded against lock-free. Hot paths should
/// resolve their instruments once, up front, and keep the `Arc`s.
#[derive(Default)]
pub struct Registry {
    inner: RwLock<Inner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get or create the counter `name{labels}`.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let id = InstrumentId::new(name, labels);
        if let Some(c) = self
            .inner
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .counters
            .get(&id)
        {
            return Arc::clone(c);
        }
        let mut inner = self
            .inner
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        Arc::clone(inner.counters.entry(id).or_default())
    }

    /// Get or create the gauge `name{labels}`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let id = InstrumentId::new(name, labels);
        if let Some(g) = self
            .inner
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .gauges
            .get(&id)
        {
            return Arc::clone(g);
        }
        let mut inner = self
            .inner
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        Arc::clone(inner.gauges.entry(id).or_default())
    }

    /// Get or create the histogram `name{labels}`.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let id = InstrumentId::new(name, labels);
        if let Some(h) = self
            .inner
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .histograms
            .get(&id)
        {
            return Arc::clone(h);
        }
        let mut inner = self
            .inner
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        Arc::clone(inner.histograms.entry(id).or_default())
    }

    /// A point-in-time copy of every instrument's value.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let inner = self
            .inner
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        RegistrySnapshot {
            captured_unix_nanos: crate::log::unix_nanos_now(),
            captured_mono_nanos: crate::trace::epoch_nanos(),
            counters: inner
                .counters
                .iter()
                .map(|(id, c)| (id.clone(), c.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(id, g)| (id.clone(), g.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(id, h)| (id.clone(), h.snapshot()))
                .collect(),
        }
    }

    /// Render the current state as a Prometheus-style text exposition.
    pub fn render(&self) -> String {
        self.snapshot().render()
    }
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self
            .inner
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        f.debug_struct("Registry")
            .field("counters", &inner.counters.len())
            .field("gauges", &inner.gauges.len())
            .field("histograms", &inner.histograms.len())
            .finish()
    }
}

/// A point-in-time copy of a whole [`Registry`]: mergeable and renderable.
///
/// Snapshots are stamped with both clocks at capture time so delta/rate
/// math over successive snapshots has a principled time base: the
/// monotonic stamp (nanos since this process's trace epoch) orders
/// snapshots within one process, while the wall-clock stamp aligns
/// snapshots captured by different processes. Equality compares
/// instrument contents only, never capture times — two captures of the
/// same values taken an instant apart are equal.
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot {
    /// Wall-clock capture time, nanoseconds since the unix epoch.
    pub captured_unix_nanos: u64,
    /// Monotonic capture time, nanoseconds since the process trace epoch.
    pub captured_mono_nanos: u64,
    /// Counter values by id.
    pub counters: BTreeMap<InstrumentId, u64>,
    /// Gauge values by id.
    pub gauges: BTreeMap<InstrumentId, i64>,
    /// Histogram snapshots by id.
    pub histograms: BTreeMap<InstrumentId, HistogramSnapshot>,
}

impl PartialEq for RegistrySnapshot {
    /// Contents-only equality: capture stamps are metadata, not state.
    fn eq(&self, other: &RegistrySnapshot) -> bool {
        self.counters == other.counters
            && self.gauges == other.gauges
            && self.histograms == other.histograms
    }
}

impl RegistrySnapshot {
    /// Merge another snapshot into this one: counters and gauges add,
    /// histograms merge bucket-wise, and the later capture stamp wins
    /// (the merged view is only as fresh as its newest constituent).
    /// Used to combine per-component registries (fleet + crawler) into
    /// one ops view.
    pub fn merge(mut self, other: &RegistrySnapshot) -> RegistrySnapshot {
        self.captured_unix_nanos = self.captured_unix_nanos.max(other.captured_unix_nanos);
        self.captured_mono_nanos = self.captured_mono_nanos.max(other.captured_mono_nanos);
        for (id, v) in &other.counters {
            *self.counters.entry(id.clone()).or_insert(0) += v;
        }
        for (id, v) in &other.gauges {
            *self.gauges.entry(id.clone()).or_insert(0) += v;
        }
        for (id, h) in &other.histograms {
            let entry = self.histograms.entry(id.clone()).or_default();
            *entry = entry.merge(h);
        }
        self
    }

    /// Override the capture stamps (tests pin these so the series points
    /// cut from a snapshot are reproducible).
    pub fn stamped(mut self, unix_nanos: u64, mono_nanos: u64) -> RegistrySnapshot {
        self.captured_unix_nanos = unix_nanos;
        self.captured_mono_nanos = mono_nanos;
        self
    }

    /// Value of the counter `name{labels}`, if registered.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.counters.get(&InstrumentId::new(name, labels)).copied()
    }

    /// Value of the gauge `name{labels}`, if registered.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<i64> {
        self.gauges.get(&InstrumentId::new(name, labels)).copied()
    }

    /// Snapshot of the histogram `name{labels}`, if registered.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSnapshot> {
        self.histograms.get(&InstrumentId::new(name, labels))
    }

    /// Sum of every counter called `name` whose labels include `labels`
    /// (e.g. all `status` variants of one market's response counter).
    pub fn counter_sum(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.counters
            .iter()
            .filter(|(id, _)| id.name == name && id.has_labels(labels))
            .map(|(_, v)| v)
            .sum()
    }

    /// Every distinct value of `label_key` across all instruments, sorted.
    pub fn label_values(&self, label_key: &str) -> Vec<String> {
        let mut out: Vec<String> = self
            .counters
            .keys()
            .chain(self.gauges.keys())
            .chain(self.histograms.keys())
            .filter_map(|id| id.label(label_key).map(str::to_owned))
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Render as a Prometheus-style text exposition.
    pub fn render(&self) -> String {
        crate::exposition::render(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_id_returns_same_instrument() {
        let r = Registry::new();
        let a = r.counter("x_total", &[("m", "a"), ("s", "2")]);
        let b = r.counter("x_total", &[("s", "2"), ("m", "a")]); // order-insensitive
        a.inc();
        assert_eq!(b.get(), 1);
        let other = r.counter("x_total", &[("m", "b")]);
        assert_eq!(other.get(), 0);
    }

    #[test]
    fn snapshot_captures_all_kinds() {
        let r = Registry::new();
        r.counter("c_total", &[]).add(3);
        r.gauge("g", &[]).set(-2);
        r.histogram("h_nanos", &[]).record(100);
        let s = r.snapshot();
        assert_eq!(s.counter_value("c_total", &[]), Some(3));
        assert_eq!(s.gauge_value("g", &[]), Some(-2));
        assert_eq!(s.histogram("h_nanos", &[]).unwrap().count(), 1);
        assert_eq!(s.counter_value("missing", &[]), None);
    }

    #[test]
    fn merge_adds_and_merges() {
        let r1 = Registry::new();
        r1.counter("c_total", &[("m", "x")]).add(2);
        r1.histogram("h_nanos", &[]).record(10);
        let r2 = Registry::new();
        r2.counter("c_total", &[("m", "x")]).add(5);
        r2.counter("c_total", &[("m", "y")]).add(1);
        r2.histogram("h_nanos", &[]).record(20);
        let merged = r1.snapshot().merge(&r2.snapshot());
        assert_eq!(merged.counter_value("c_total", &[("m", "x")]), Some(7));
        assert_eq!(merged.counter_value("c_total", &[("m", "y")]), Some(1));
        assert_eq!(merged.histogram("h_nanos", &[]).unwrap().count(), 2);
        assert_eq!(merged.counter_sum("c_total", &[]), 8);
    }

    #[test]
    fn label_values_are_deduped_and_sorted() {
        let r = Registry::new();
        r.counter("a_total", &[("market", "zhushou")]).inc();
        r.counter("b_total", &[("market", "baidu")]).inc();
        r.gauge("g", &[("market", "baidu")]).inc();
        assert_eq!(
            r.snapshot().label_values("market"),
            vec!["baidu", "zhushou"]
        );
    }

    #[test]
    fn display_renders_prometheus_style() {
        let id = InstrumentId::new("x_total", &[("status", "200"), ("market", "hm")]);
        assert_eq!(id.to_string(), "x_total{market=\"hm\",status=\"200\"}");
        assert_eq!(InstrumentId::new("bare", &[]).to_string(), "bare");
    }
}
