//! Distributed request tracing: sampled span trees with a bounded,
//! lock-free ring-buffer journal.
//!
//! Counters and histograms (the rest of this crate) answer "how is the
//! fleet doing on average"; this module answers "where did *this one*
//! request spend its time". A [`Tracer`] makes a head-based sampling
//! decision when a root span opens; every descendant of a sampled root —
//! including descendants on the far side of an HTTP hop, linked through
//! the [`TRACE_HEADER`] — records a [`SpanRecord`] into the tracer's
//! [`Journal`] when it finishes. Unsampled roots hand out no-op spans
//! whose whole lifecycle is a couple of branches, so a tracer with
//! `sample_rate: 0.0` costs effectively nothing on the request path.
//!
//! ## Identity
//!
//! Trace and span ids are non-zero 64-bit values drawn from a process-wide
//! splitmix64 sequence. A [`SpanContext`] is the `(trace, span)` pair; its
//! wire form is `"{trace:016x}-{span:016x}"`, carried in the
//! `x-marketscope-trace` request header.
//!
//! ## Parenting
//!
//! Within a thread, spans parent implicitly: opening a span pushes its
//! context onto a thread-local stack, and [`Tracer::span`] parents under
//! the top of that stack. Across threads or across the wire, parent
//! explicitly with [`Tracer::child_of`]. [`current`] exposes the innermost
//! active context (for header injection) and [`current_event`] appends a
//! timestamped event to the innermost active span (for annotations like
//! `rate_limited` deep inside handlers that never see the span itself).
//!
//! ## The journal
//!
//! Finished spans go into a fixed-capacity ring: a single atomic
//! `fetch_add` claims a slot, then a per-slot mutex guards the write.
//! Claiming is lock-free and slot locks only contend when the ring wraps
//! all the way around between two claims, so recording stays cheap under
//! heavy concurrency while old spans are overwritten oldest-first.
//! [`JournalSnapshot`]s are mergeable, like every other snapshot in this
//! crate, so fleet-side and crawler-side journals combine into one
//! timeline.
//!
//! All timestamps are nanoseconds since a process-wide epoch (first use),
//! so spans recorded by *different* tracers in the same process — the
//! fleet's and the crawler's — line up on one clock.

use std::cell::RefCell;
use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Request header carrying the wire form of a [`SpanContext`].
pub const TRACE_HEADER: &str = "x-marketscope-trace";

/// splitmix64: the standard 64-bit finalizer. Good dispersion, no state.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Process-wide id sequence; splitmix64 of a counter yields well-mixed,
/// practically-unique non-zero ids without any external RNG dependency.
fn next_id() -> u64 {
    static SEQ: AtomicU64 = AtomicU64::new(0x6d61_726b_6574_7363); // "marketsc"
    loop {
        let id = splitmix64(SEQ.fetch_add(1, Ordering::Relaxed));
        if id != 0 {
            return id;
        }
    }
}

/// Nanoseconds since the process-wide trace epoch (lazily initialised on
/// first use). Shared by every tracer in the process so cross-tracer
/// span trees order correctly.
pub fn epoch_nanos() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// The identity of one span within one trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanContext {
    /// The trace this span belongs to (shared by the whole tree).
    pub trace_id: u64,
    /// This span's own id.
    pub span_id: u64,
}

impl SpanContext {
    /// Wire form: `"{trace:016x}-{span:016x}"`, as carried by
    /// [`TRACE_HEADER`].
    pub fn render(&self) -> String {
        format!("{:016x}-{:016x}", self.trace_id, self.span_id)
    }

    /// Parse the wire form back. Returns `None` on malformed input or a
    /// zero id (zero is reserved as "absent").
    pub fn parse(s: &str) -> Option<SpanContext> {
        let (t, sp) = s.split_once('-')?;
        let trace_id = u64::from_str_radix(t, 16).ok()?;
        let span_id = u64::from_str_radix(sp, 16).ok()?;
        if trace_id == 0 || span_id == 0 {
            return None;
        }
        Some(SpanContext { trace_id, span_id })
    }
}

impl fmt::Display for SpanContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}-{:016x}", self.trace_id, self.span_id)
    }
}

/// One timestamped annotation inside a span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Nanoseconds since the process trace epoch.
    pub at_nanos: u64,
    /// Short label (`retry`, `rate_limited`, `backfill`, ...).
    pub label: String,
}

/// One finished span, as stored in the journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// This span's id.
    pub span_id: u64,
    /// Parent span id within the same trace, if any.
    pub parent_id: Option<u64>,
    /// Which component recorded it (`crawler`, `client`, `server`, ...).
    pub component: &'static str,
    /// Operation name (`GET /apk/{pkg}`, `stage:dedup`, ...).
    pub name: String,
    /// Start, nanoseconds since the process trace epoch.
    pub start_nanos: u64,
    /// End, nanoseconds since the process trace epoch.
    pub end_nanos: u64,
    /// Timestamped annotations recorded while the span was open.
    pub events: Vec<SpanEvent>,
}

impl SpanRecord {
    /// Wall duration in nanoseconds.
    pub fn duration_nanos(&self) -> u64 {
        self.end_nanos.saturating_sub(self.start_nanos)
    }
}

/// Fixed-capacity, overwrite-oldest journal of finished spans.
///
/// A slot is claimed with one atomic `fetch_add` (lock-free); the write
/// into the claimed slot takes that slot's own mutex, which only contends
/// if the ring wraps fully around between claim and write.
#[derive(Debug)]
pub struct Journal {
    slots: Vec<Mutex<Option<SpanRecord>>>,
    cursor: AtomicU64,
}

impl Journal {
    /// A journal holding at most `capacity` spans (0 disables recording).
    pub fn new(capacity: usize) -> Journal {
        Journal {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicU64::new(0),
        }
    }

    /// Append one record, overwriting the oldest if full.
    pub fn push(&self, record: SpanRecord) {
        if self.slots.is_empty() {
            return;
        }
        let seq = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = (seq % self.slots.len() as u64) as usize;
        *self.slots[slot]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(record);
    }

    /// Total spans ever pushed (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of the retained spans, sorted by start time.
    pub fn snapshot(&self) -> JournalSnapshot {
        let mut records: Vec<SpanRecord> = self
            .slots
            .iter()
            .filter_map(|s| {
                s.lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .clone()
            })
            .collect();
        records.sort_by_key(|r| (r.start_nanos, r.span_id));
        let recorded = self.recorded();
        let retained = records.len() as u64;
        JournalSnapshot {
            records,
            recorded,
            overwritten: recorded.saturating_sub(retained),
        }
    }
}

/// An immutable copy of a [`Journal`]: mergeable across tracers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JournalSnapshot {
    /// Retained spans, sorted by start time.
    pub records: Vec<SpanRecord>,
    /// Total spans ever recorded by the source journal(s).
    pub recorded: u64,
    /// Spans lost to ring overwrite.
    pub overwritten: u64,
}

impl JournalSnapshot {
    /// Merge two snapshots into one combined timeline (sorted by start).
    pub fn merge(mut self, other: &JournalSnapshot) -> JournalSnapshot {
        self.records.extend(other.records.iter().cloned());
        self.records.sort_by_key(|r| (r.start_nanos, r.span_id));
        self.recorded += other.recorded;
        self.overwritten += other.overwritten;
        self
    }

    /// All spans belonging to one trace, in start order.
    pub fn trace(&self, trace_id: u64) -> Vec<&SpanRecord> {
        self.records
            .iter()
            .filter(|r| r.trace_id == trace_id)
            .collect()
    }

    /// Distinct trace ids present, in first-seen (start-time) order.
    pub fn trace_ids(&self) -> Vec<u64> {
        let mut seen = HashSet::new();
        self.records
            .iter()
            .map(|r| r.trace_id)
            .filter(|id| seen.insert(*id))
            .collect()
    }

    /// Whether nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.recorded == 0 && self.records.is_empty()
    }
}

/// Tracer configuration.
#[derive(Debug, Clone, Copy)]
pub struct TracerConfig {
    /// Probability in `[0, 1]` that a *root* span is sampled. Descendants
    /// (local children and propagated remote children) follow their
    /// root's decision.
    pub sample_rate: f64,
    /// Journal capacity in spans (overwrite-oldest past this).
    pub capacity: usize,
}

impl Default for TracerConfig {
    fn default() -> Self {
        TracerConfig {
            sample_rate: 0.0,
            capacity: 4096,
        }
    }
}

impl TracerConfig {
    /// Sample every root (for tests and one-shot exports).
    pub fn always(capacity: usize) -> TracerConfig {
        TracerConfig {
            sample_rate: 1.0,
            capacity,
        }
    }

    /// Never sample locally, but keep a journal so *propagated* remote
    /// parents (already sampled upstream) still record here.
    pub fn propagate_only(capacity: usize) -> TracerConfig {
        TracerConfig {
            sample_rate: 0.0,
            capacity,
        }
    }
}

/// Shared event sink of one active span.
type EventSink = Arc<Mutex<Vec<SpanEvent>>>;

thread_local! {
    /// Innermost-last stack of `(context, event sink)` for the active
    /// spans opened on this thread.
    static ACTIVE: RefCell<Vec<(SpanContext, EventSink)>> = const { RefCell::new(Vec::new()) };
}

/// The innermost active sampled span context on this thread, if any.
pub fn current() -> Option<SpanContext> {
    ACTIVE.with(|a| a.borrow().last().map(|(ctx, _)| *ctx))
}

/// Append a timestamped event to the innermost active sampled span on
/// this thread. A no-op when no sampled span is open — callers annotate
/// unconditionally and pay nothing when tracing is off.
pub fn current_event(label: &str) {
    ACTIVE.with(|a| {
        if let Some((_, events)) = a.borrow().last() {
            events
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(SpanEvent {
                    at_nanos: epoch_nanos(),
                    label: label.to_owned(),
                });
        }
    });
}

/// A sampling tracer with a bounded journal.
///
/// ```
/// use marketscope_telemetry::trace::{Tracer, TracerConfig};
/// use std::sync::Arc;
///
/// let tracer = Arc::new(Tracer::new(TracerConfig::always(1024)));
/// {
///     let root = tracer.root_span("crawler", "fetch");
///     let _child = tracer.span("client", "GET /index"); // parents under root
///     root.event("retry");
/// } // both record on drop
/// let snap = tracer.snapshot();
/// assert_eq!(snap.records.len(), 2);
/// ```
#[derive(Debug)]
pub struct Tracer {
    /// Sampling threshold: a root is sampled iff `splitmix64(seq) <
    /// threshold`; 0 never samples and `u64::MAX` always does.
    threshold: u64,
    seq: AtomicU64,
    journal: Journal,
}

impl Tracer {
    /// Build a tracer from a config.
    pub fn new(config: TracerConfig) -> Tracer {
        let threshold = if config.sample_rate <= 0.0 {
            0
        } else if config.sample_rate >= 1.0 {
            u64::MAX
        } else {
            (config.sample_rate * u64::MAX as f64) as u64
        };
        Tracer {
            threshold,
            seq: AtomicU64::new(1),
            journal: Journal::new(config.capacity),
        }
    }

    /// A tracer that records, samples and opens nothing — not even under
    /// a sampled parent, so it never puts a context on the wire. What a
    /// component holds until a caller attaches a real one.
    pub fn disabled() -> Tracer {
        Tracer::new(TracerConfig {
            sample_rate: 0.0,
            capacity: 0,
        })
    }

    fn sample(&self) -> bool {
        match self.threshold {
            0 => false,
            u64::MAX => true,
            t => splitmix64(self.seq.fetch_add(1, Ordering::Relaxed)) < t,
        }
    }

    /// Open a root span, making a fresh sampling decision. Returns a
    /// no-op span when the decision is negative.
    pub fn root_span(self: &Arc<Self>, component: &'static str, name: &str) -> TraceSpan {
        if !self.sample() {
            return TraceSpan { inner: None };
        }
        let trace_id = next_id();
        self.open(trace_id, None, component, name)
    }

    /// Open a span parented under the innermost active span on this
    /// thread. No-op when no sampled span is active (so tracing-off
    /// costs one thread-local read).
    pub fn span(self: &Arc<Self>, component: &'static str, name: &str) -> TraceSpan {
        match current() {
            Some(parent) => self.open(parent.trace_id, Some(parent.span_id), component, name),
            None => TraceSpan { inner: None },
        }
    }

    /// Open a span under an explicit parent context — the cross-thread /
    /// cross-wire form. `None` parent yields a no-op span: an absent
    /// header means the caller wasn't sampled, so neither are we.
    pub fn child_of(
        self: &Arc<Self>,
        parent: Option<SpanContext>,
        component: &'static str,
        name: &str,
    ) -> TraceSpan {
        match parent {
            Some(p) => self.open(p.trace_id, Some(p.span_id), component, name),
            None => TraceSpan { inner: None },
        }
    }

    fn open(
        self: &Arc<Self>,
        trace_id: u64,
        parent_id: Option<u64>,
        component: &'static str,
        name: &str,
    ) -> TraceSpan {
        // No journal, no reader: a span here could only leak its context
        // to the thread-local stack and, through it, onto the wire.
        if self.journal.slots.is_empty() {
            return TraceSpan::noop();
        }
        let ctx = SpanContext {
            trace_id,
            span_id: next_id(),
        };
        let events = Arc::new(Mutex::new(Vec::new()));
        ACTIVE.with(|a| a.borrow_mut().push((ctx, Arc::clone(&events))));
        TraceSpan {
            inner: Some(ActiveSpan {
                tracer: Arc::clone(self),
                ctx,
                parent_id,
                component,
                name: name.to_owned(),
                start_nanos: epoch_nanos(),
                events,
            }),
        }
    }

    /// Point-in-time copy of the journal.
    pub fn snapshot(&self) -> JournalSnapshot {
        self.journal.snapshot()
    }

    /// Total spans ever recorded (including overwritten).
    pub fn recorded(&self) -> u64 {
        self.journal.recorded()
    }
}

#[derive(Debug)]
struct ActiveSpan {
    tracer: Arc<Tracer>,
    ctx: SpanContext,
    parent_id: Option<u64>,
    component: &'static str,
    name: String,
    start_nanos: u64,
    events: EventSink,
}

/// An open span handle. Records into the tracer's journal exactly once,
/// on [`TraceSpan::finish`] or drop; a no-op when the trace was not
/// sampled, costing only an `Option` check per operation.
#[derive(Debug)]
#[must_use = "a span records when it goes out of scope; bind it to a named variable"]
pub struct TraceSpan {
    inner: Option<ActiveSpan>,
}

impl TraceSpan {
    /// A span that records nothing (a placeholder where none is open).
    pub fn noop() -> TraceSpan {
        TraceSpan { inner: None }
    }

    /// Whether this span is actually recording.
    pub fn is_sampled(&self) -> bool {
        self.inner.is_some()
    }

    /// This span's context (for header injection / explicit parenting),
    /// if sampled.
    pub fn context(&self) -> Option<SpanContext> {
        self.inner.as_ref().map(|s| s.ctx)
    }

    /// Append a timestamped event to this span.
    pub fn event(&self, label: &str) {
        if let Some(s) = &self.inner {
            s.events
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(SpanEvent {
                    at_nanos: epoch_nanos(),
                    label: label.to_owned(),
                });
        }
    }

    /// Finish now (instead of at end of scope).
    pub fn finish(mut self) {
        self.complete();
    }

    fn complete(&mut self) {
        let Some(s) = self.inner.take() else { return };
        // Pop this span off the thread-local stack. Normally it is the
        // innermost entry; a retain-based removal stays correct even if
        // spans finish out of order.
        ACTIVE.with(|a| {
            let mut stack = a.borrow_mut();
            if stack.last().map(|(c, _)| c.span_id) == Some(s.ctx.span_id) {
                stack.pop();
            } else {
                stack.retain(|(c, _)| c.span_id != s.ctx.span_id);
            }
        });
        let events = std::mem::take(
            &mut *s
                .events
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        s.tracer.journal.push(SpanRecord {
            trace_id: s.ctx.trace_id,
            span_id: s.ctx.span_id,
            parent_id: s.parent_id,
            component: s.component,
            name: s.name,
            start_nanos: s.start_nanos,
            end_nanos: epoch_nanos(),
            events,
        });
    }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        self.complete();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn always(capacity: usize) -> Arc<Tracer> {
        Arc::new(Tracer::new(TracerConfig::always(capacity)))
    }

    #[test]
    fn context_round_trips_through_wire_form() {
        let ctx = SpanContext {
            trace_id: 0xdead_beef_0000_0001,
            span_id: 7,
        };
        let wire = ctx.render();
        assert_eq!(wire, "deadbeef00000001-0000000000000007");
        assert_eq!(SpanContext::parse(&wire), Some(ctx));
        assert_eq!(SpanContext::parse("nope"), None);
        assert_eq!(SpanContext::parse("12-"), None);
        assert_eq!(
            SpanContext::parse("0000000000000000-0000000000000001"),
            None
        );
    }

    #[test]
    fn ids_are_nonzero_and_distinct() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let id = next_id();
            assert_ne!(id, 0);
            assert!(seen.insert(id), "duplicate id {id:#x}");
        }
    }

    #[test]
    fn root_child_parenting_via_thread_local() {
        let t = always(16);
        let root = t.root_span("a", "root");
        let root_ctx = root.context().unwrap();
        let child = t.span("b", "child");
        let child_ctx = child.context().unwrap();
        assert_eq!(child_ctx.trace_id, root_ctx.trace_id);
        child.finish();
        root.finish();
        let snap = t.snapshot();
        assert_eq!(snap.records.len(), 2);
        let child_rec = snap
            .records
            .iter()
            .find(|r| r.span_id == child_ctx.span_id)
            .unwrap();
        assert_eq!(child_rec.parent_id, Some(root_ctx.span_id));
        let root_rec = snap
            .records
            .iter()
            .find(|r| r.span_id == root_ctx.span_id)
            .unwrap();
        assert_eq!(root_rec.parent_id, None);
        assert!(root_rec.start_nanos <= child_rec.start_nanos);
    }

    #[test]
    fn unsampled_tracer_records_nothing() {
        let t = Arc::new(Tracer::new(TracerConfig::default())); // rate 0
        let root = t.root_span("a", "root");
        assert!(!root.is_sampled());
        assert_eq!(root.context(), None);
        let child = t.span("b", "child"); // no active parent either
        assert!(!child.is_sampled());
        root.event("ignored");
        current_event("ignored");
        drop(child);
        drop(root);
        assert!(t.snapshot().is_empty());
        assert_eq!(t.recorded(), 0);
    }

    #[test]
    fn child_of_links_remote_parent() {
        let t = always(16);
        let remote = SpanContext {
            trace_id: 42,
            span_id: 99,
        };
        let server = t.child_of(Some(remote), "server", "handler");
        server.finish();
        assert!(!t.child_of(None, "server", "handler").is_sampled());
        let snap = t.snapshot();
        assert_eq!(snap.records.len(), 1);
        assert_eq!(snap.records[0].trace_id, 42);
        assert_eq!(snap.records[0].parent_id, Some(99));
    }

    #[test]
    fn events_carry_timestamps_inside_the_span() {
        let t = always(16);
        let root = t.root_span("a", "root");
        root.event("first");
        current_event("second"); // via thread-local
        root.finish();
        let snap = t.snapshot();
        let rec = &snap.records[0];
        assert_eq!(rec.events.len(), 2);
        assert_eq!(rec.events[0].label, "first");
        assert_eq!(rec.events[1].label, "second");
        for e in &rec.events {
            assert!(e.at_nanos >= rec.start_nanos);
            assert!(e.at_nanos <= rec.end_nanos);
        }
    }

    #[test]
    fn journal_overwrites_oldest() {
        let j = Journal::new(4);
        for i in 0..10u64 {
            j.push(SpanRecord {
                trace_id: 1,
                span_id: i + 1,
                parent_id: None,
                component: "t",
                name: format!("s{i}"),
                start_nanos: i,
                end_nanos: i + 1,
                events: Vec::new(),
            });
        }
        let snap = j.snapshot();
        assert_eq!(snap.recorded, 10);
        assert_eq!(snap.overwritten, 6);
        let kept: Vec<u64> = snap.records.iter().map(|r| r.span_id).collect();
        assert_eq!(kept, vec![7, 8, 9, 10]); // the last four pushed
    }

    #[test]
    fn zero_capacity_journal_drops_everything() {
        let t = Arc::new(Tracer::new(TracerConfig {
            sample_rate: 1.0,
            capacity: 0,
        }));
        t.root_span("a", "root").finish();
        assert_eq!(t.snapshot().records.len(), 0);
    }

    #[test]
    fn disabled_tracer_opens_nothing_even_under_a_sampled_parent() {
        let real = always(16);
        let disabled = Arc::new(Tracer::disabled());
        let root = real.root_span("a", "root");
        assert!(!disabled.span("b", "ambient").is_sampled());
        assert!(!disabled
            .child_of(root.context(), "b", "explicit")
            .is_sampled());
        assert!(!disabled.root_span("b", "root").is_sampled());
        assert_eq!(current(), root.context(), "stack untouched");
        root.finish();
        assert_eq!(disabled.recorded(), 0);
    }

    #[test]
    fn snapshots_merge_into_one_timeline() {
        let a = always(8);
        let b = always(8);
        a.root_span("a", "one").finish();
        b.root_span("b", "two").finish();
        let merged = a.snapshot().merge(&b.snapshot());
        assert_eq!(merged.records.len(), 2);
        assert_eq!(merged.recorded, 2);
        assert_eq!(merged.trace_ids().len(), 2);
        // Sorted by start time.
        assert!(merged.records[0].start_nanos <= merged.records[1].start_nanos);
    }

    #[test]
    fn sample_rate_half_is_roughly_half() {
        let t = Arc::new(Tracer::new(TracerConfig {
            sample_rate: 0.5,
            capacity: 4096,
        }));
        let mut sampled = 0;
        for _ in 0..2000 {
            let s = t.root_span("a", "r");
            if s.is_sampled() {
                sampled += 1;
            }
            s.finish();
        }
        assert!(
            (600..=1400).contains(&sampled),
            "sampled {sampled}/2000 at rate 0.5"
        );
    }

    #[test]
    fn concurrent_recording_is_safe_and_bounded() {
        let t = always(64);
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        let root = t.root_span("w", "work");
                        let child = t.span("w", "inner");
                        child.finish();
                        root.finish();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = t.snapshot();
        assert_eq!(snap.recorded, 1600);
        assert_eq!(snap.records.len(), 64);
        assert_eq!(snap.overwritten, 1536);
    }
}
