//! Bounded structured event log with overwrite-oldest semantics.
//!
//! The [`EventLog`] is the narrative complement to the numeric registry:
//! where counters say *how often* something happened, log events say
//! *what* happened, *where*, and — because the active trace context is
//! attached automatically via [`trace::current`] —
//! *within which request*. It shares the trace journal's ring: one
//! short lock per event, the oldest overwritten past the capacity, and
//! 136 B per slot plus the event's strings, held only once recorded.
//! Snapshots are mergeable across processes: events are sorted by
//! capture time and the recorded/overwritten tallies add, so a sharded
//! fleet can pool its logs into one timeline.

use crate::ring::Ring;
use crate::trace;
use std::time::{SystemTime, UNIX_EPOCH};

/// Severity of a log event, ordered from chattiest to loudest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// Diagnostic detail, usually uninteresting.
    Debug,
    /// Normal lifecycle milestones.
    Info,
    /// Something degraded but survivable.
    Warn,
    /// Something failed.
    Error,
}

impl LogLevel {
    /// Lowercase level name, as rendered in logs and JSON.
    pub fn as_str(&self) -> &'static str {
        match self {
            LogLevel::Debug => "debug",
            LogLevel::Info => "info",
            LogLevel::Warn => "warn",
            LogLevel::Error => "error",
        }
    }
}

/// One structured event: a level, a dotted target (component path), a
/// human message, and a flat key=value field list. Trace/span ids are
/// captured from the recording thread's active span, when one exists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEvent {
    /// Wall-clock capture time, nanoseconds since the unix epoch.
    pub unix_nanos: u64,
    /// Monotonic capture time, nanoseconds since the process trace epoch.
    pub mono_nanos: u64,
    /// Per-log claim sequence; unique within one `EventLog`.
    pub seq: u64,
    /// Severity.
    pub level: LogLevel,
    /// Dotted component path, e.g. `net.fault` or `telemetry.slo`.
    pub target: String,
    /// Human-readable message.
    pub message: String,
    /// Flat key=value context fields, in recording order.
    pub fields: Vec<(String, String)>,
    /// Trace id of the span active on the recording thread, if any.
    pub trace_id: Option<u64>,
    /// Span id of the span active on the recording thread, if any.
    pub span_id: Option<u64>,
}

/// Bounded, mergeable snapshot of an [`EventLog`]. `recorded` counts
/// every event ever recorded; `overwritten` counts those the ring
/// dropped, so `events.len() == recorded - overwritten` for a
/// single-process snapshot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LogSnapshot {
    /// Retained events, oldest first.
    pub events: Vec<LogEvent>,
    /// Total events recorded over the log's lifetime.
    pub recorded: u64,
    /// Events lost to ring overwrite.
    pub overwritten: u64,
}

impl LogSnapshot {
    /// Pool another snapshot into this one. Events are re-sorted into one
    /// timeline and the tallies add; the result is independent of merge
    /// order.
    pub fn merge(mut self, other: &LogSnapshot) -> LogSnapshot {
        self.events.extend(other.events.iter().cloned());
        sort_events(&mut self.events);
        self.recorded += other.recorded;
        self.overwritten += other.overwritten;
        self
    }

    /// The newest `k` events, oldest first.
    pub fn tail(&self, k: usize) -> &[LogEvent] {
        let start = self.events.len().saturating_sub(k);
        &self.events[start..]
    }
}

/// Total order on events so cross-process merges are order-insensitive:
/// capture time first, then sequence, then content.
fn sort_events(events: &mut [LogEvent]) {
    events.sort_by(|a, b| {
        (
            a.unix_nanos,
            a.mono_nanos,
            a.seq,
            &a.target,
            &a.message,
            a.level,
        )
            .cmp(&(
                b.unix_nanos,
                b.mono_nanos,
                b.seq,
                &b.target,
                &b.message,
                b.level,
            ))
    });
}

/// Bounded, overwrite-oldest event ring that holds what it recorded,
/// up to its capacity. Safe to share across threads behind an `Arc`.
#[derive(Debug)]
pub struct EventLog(Ring<LogEvent>);

impl EventLog {
    /// Create a log retaining at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> EventLog {
        EventLog(Ring::new(capacity.max(1)))
    }

    /// The small log a component records to until a caller attaches a
    /// shared one: every component always holds a log, this one is just
    /// unread.
    pub fn private() -> std::sync::Arc<EventLog> {
        std::sync::Arc::new(EventLog::new(16))
    }

    /// Record one event. The active trace/span ids on the calling thread
    /// (if any) are attached automatically.
    pub fn record(&self, level: LogLevel, target: &str, message: &str, fields: &[(&str, &str)]) {
        let (trace_id, span_id) = match trace::current() {
            Some(ctx) => (Some(ctx.trace_id), Some(ctx.span_id)),
            None => (None, None),
        };
        let event = LogEvent {
            unix_nanos: unix_nanos_now(),
            mono_nanos: trace::epoch_nanos(),
            seq: 0,
            level,
            target: target.to_owned(),
            message: message.to_owned(),
            fields: fields
                .iter()
                .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
                .collect(),
            trace_id,
            span_id,
        };
        self.0.push(|seq| LogEvent { seq, ..event });
    }

    /// Total events recorded over the log's lifetime.
    pub fn recorded(&self) -> u64 {
        self.0.recorded()
    }

    /// Copy out the retained events, oldest first.
    pub fn snapshot(&self) -> LogSnapshot {
        let (mut events, recorded) = self.0.snapshot();
        sort_events(&mut events);
        LogSnapshot {
            overwritten: recorded - events.len() as u64,
            events,
            recorded,
        }
    }
}

/// Wall-clock nanoseconds since the unix epoch (0 if the clock is
/// before 1970, which only happens on badly misconfigured hosts).
pub(crate) fn unix_nanos_now() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Tracer, TracerConfig};
    use std::sync::Arc;

    #[test]
    fn records_and_snapshots_in_order() {
        let log = EventLog::new(8);
        log.record(LogLevel::Info, "test", "first", &[("k", "v")]);
        log.record(LogLevel::Warn, "test", "second", &[]);
        let snap = log.snapshot();
        assert_eq!(snap.recorded, 2);
        assert_eq!(snap.overwritten, 0);
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.events[0].message, "first");
        assert_eq!(snap.events[0].fields, vec![("k".into(), "v".into())]);
        assert_eq!(snap.events[1].level, LogLevel::Warn);
        assert!(snap.events[0].seq < snap.events[1].seq);
    }

    #[test]
    fn ring_overwrites_oldest() {
        let log = EventLog::new(4);
        for i in 0..10 {
            log.record(LogLevel::Debug, "test", &format!("e{i}"), &[]);
        }
        let snap = log.snapshot();
        assert_eq!(snap.recorded, 10);
        assert_eq!(snap.overwritten, 6);
        let kept: Vec<&str> = snap.events.iter().map(|e| e.message.as_str()).collect();
        assert_eq!(kept, vec!["e6", "e7", "e8", "e9"]);
    }

    #[test]
    fn attaches_active_trace_context() {
        let tracer = Arc::new(Tracer::new(TracerConfig::always(16)));
        let log = EventLog::new(4);
        let span = tracer.root_span("test", "op");
        let ctx = span.context().expect("always-sampled span has context");
        log.record(LogLevel::Info, "test", "inside", &[]);
        span.finish();
        log.record(LogLevel::Info, "test", "outside", &[]);
        let snap = log.snapshot();
        assert_eq!(snap.events[0].trace_id, Some(ctx.trace_id));
        assert_eq!(snap.events[0].span_id, Some(ctx.span_id));
        assert_eq!(snap.events[1].trace_id, None);
    }

    #[test]
    fn concurrent_recording_loses_nothing_below_capacity() {
        let log = Arc::new(EventLog::new(256));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let log = Arc::clone(&log);
                std::thread::spawn(move || {
                    for i in 0..32 {
                        log.record(LogLevel::Info, "test", &format!("t{t}-{i}"), &[]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("recorder thread");
        }
        let snap = log.snapshot();
        assert_eq!(snap.recorded, 128);
        assert_eq!(snap.overwritten, 0);
        assert_eq!(snap.events.len(), 128);
    }

    #[test]
    fn tail_returns_newest_k() {
        let log = EventLog::new(8);
        for i in 0..5 {
            log.record(LogLevel::Info, "test", &format!("e{i}"), &[]);
        }
        let snap = log.snapshot();
        let tail: Vec<&str> = snap.tail(2).iter().map(|e| e.message.as_str()).collect();
        assert_eq!(tail, vec!["e3", "e4"]);
        assert_eq!(snap.tail(99).len(), 5);
    }
}
