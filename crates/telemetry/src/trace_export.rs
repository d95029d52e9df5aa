//! Trace exporters: Chrome trace-event JSON and a slowest-traces
//! self-time roll-up over [`JournalSnapshot`]s.
//!
//! The Chrome format ([`chrome_trace`]) loads directly into
//! `chrome://tracing` or Perfetto: each span becomes a `ph:"X"` complete
//! event (timestamps and durations in microseconds), each span event a
//! `ph:"i"` instant event, and components map to synthetic "threads"
//! named via `ph:"M"` metadata so the viewer groups crawler, client,
//! server and analysis rows separately.
//!
//! [`slowest_traces`] ranks traces by root-span duration and breaks each
//! one down by per-span *self* time (duration minus children) — the
//! table the ops report prints.

use crate::trace::{JournalSnapshot, SpanRecord};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Escape a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render a journal snapshot as Chrome trace-event JSON
/// (`{"traceEvents": [...]}`), loadable in `chrome://tracing` / Perfetto.
pub fn chrome_trace(snap: &JournalSnapshot) -> String {
    // Stable component -> tid mapping, in first-seen order.
    let mut tids: BTreeMap<&'static str, u64> = BTreeMap::new();
    for r in &snap.records {
        let next = tids.len() as u64 + 1;
        tids.entry(r.component).or_insert(next);
    }
    let mut events = Vec::new();
    for (component, tid) in &tids {
        events.push(format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            json_escape(component)
        ));
    }
    for r in &snap.records {
        let tid = tids[r.component];
        let ts = r.start_nanos / 1_000;
        let dur = r.duration_nanos().max(1_000) / 1_000; // >= 1us so the viewer shows it
        let parent = match r.parent_id {
            Some(p) => format!("\"{p:016x}\""),
            None => "null".to_owned(),
        };
        events.push(format!(
            "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"dur\":{dur},\
             \"name\":\"{}\",\"args\":{{\"trace\":\"{:016x}\",\"span\":\"{:016x}\",\
             \"parent\":{parent}}}}}",
            json_escape(&r.name),
            r.trace_id,
            r.span_id,
        ));
        for e in &r.events {
            events.push(format!(
                "{{\"ph\":\"i\",\"pid\":1,\"tid\":{tid},\"ts\":{},\"s\":\"t\",\
                 \"name\":\"{}\",\"args\":{{\"trace\":\"{:016x}\",\"span\":\"{:016x}\"}}}}",
                e.at_nanos / 1_000,
                json_escape(&e.label),
                r.trace_id,
                r.span_id,
            ));
        }
    }
    format!("{{\"traceEvents\":[{}]}}", events.join(","))
}

/// One row of the "slowest traces" table: a root span plus roll-up stats
/// over its tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSummary {
    /// Trace id.
    pub trace_id: u64,
    /// The root span's operation name.
    pub root_name: String,
    /// Root span wall duration in nanoseconds.
    pub duration_nanos: u64,
    /// Number of spans retained for this trace.
    pub span_count: usize,
    /// Total events across the trace's spans.
    pub event_count: usize,
    /// Per-span breakdown, deepest-path names with self time, slowest
    /// first: `(name, self_nanos)`.
    pub breakdown: Vec<(String, u64)>,
}

/// The `k` slowest traces by root-span duration, each with a per-span
/// self-time breakdown. Traces whose root span was overwritten out of
/// the ring are ranked by their longest surviving span instead.
///
/// One sort groups the journal by trace, one pass over each group finds
/// its root, and only the `k` survivors get a self-time breakdown: the
/// cost is `O(n log n)` in the journal's spans, not a rescan per trace.
pub fn slowest_traces(snap: &JournalSnapshot, k: usize) -> Vec<TraceSummary> {
    // Records are in start order and the sort is stable, so each trace's
    // spans stay in start order within its group.
    let mut by_trace: Vec<&SpanRecord> = snap.records.iter().collect();
    by_trace.sort_by_key(|r| r.trace_id);
    let mut ranked = Vec::new();
    let mut span_ids = HashSet::new();
    let mut rest = by_trace.as_slice();
    while let Some(first) = rest.first() {
        let len = rest
            .iter()
            .take_while(|r| r.trace_id == first.trace_id)
            .count();
        let (spans, tail) = rest.split_at(len);
        rest = tail;
        span_ids.clear();
        span_ids.extend(spans.iter().map(|r| r.span_id));
        // A parent id pointing outside the snapshot (overwritten or
        // remote-only) orphans the span; it counts as a root so its time
        // still shows up. Among equally long roots the last one wins.
        let root = spans
            .iter()
            .filter(|r| r.parent_id.map_or(true, |p| !span_ids.contains(&p)))
            .max_by_key(|r| r.duration_nanos());
        if let Some(root) = root {
            ranked.push((*root, spans));
        }
    }
    ranked.sort_by(|(a, _), (b, _)| {
        b.duration_nanos()
            .cmp(&a.duration_nanos())
            .then_with(|| a.trace_id.cmp(&b.trace_id))
    });
    ranked.truncate(k);
    ranked
        .into_iter()
        .map(|(root, spans)| {
            let mut child_nanos: HashMap<u64, u64> = HashMap::new();
            for r in spans {
                if let Some(parent) = r.parent_id {
                    *child_nanos.entry(parent).or_default() += r.duration_nanos();
                }
            }
            // Self time: duration minus the children's summed durations
            // (saturating — overlapping children can exceed the parent).
            let mut breakdown: Vec<(String, u64)> = spans
                .iter()
                .map(|r| {
                    let children = child_nanos.get(&r.span_id).copied().unwrap_or(0);
                    let self_nanos = r.duration_nanos().saturating_sub(children);
                    (format!("{}:{}", r.component, r.name), self_nanos)
                })
                .collect();
            breakdown.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            TraceSummary {
                trace_id: root.trace_id,
                root_name: root.name.clone(),
                duration_nanos: root.duration_nanos(),
                span_count: spans.len(),
                event_count: spans.iter().map(|r| r.events.len()).sum(),
                breakdown,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{SpanEvent, SpanRecord};
    use marketscope_core::propcheck::{any_u64, check, usize_in};
    use marketscope_core::rng::DetRng;

    fn rec(
        trace: u64,
        span: u64,
        parent: Option<u64>,
        name: &str,
        start: u64,
        end: u64,
    ) -> SpanRecord {
        SpanRecord {
            trace_id: trace,
            span_id: span,
            parent_id: parent,
            component: "t",
            name: name.to_owned(),
            start_nanos: start,
            end_nanos: end,
            events: Vec::new(),
        }
    }

    fn snap(records: Vec<SpanRecord>) -> JournalSnapshot {
        let recorded = records.len() as u64;
        JournalSnapshot {
            records,
            recorded,
            overwritten: 0,
        }
    }

    #[test]
    fn chrome_trace_is_wellformed_and_complete() {
        let mut r = rec(1, 2, None, "root \"op\"", 1_000, 5_000_000);
        r.events.push(SpanEvent {
            at_nanos: 2_000,
            label: "retry".to_owned(),
        });
        let s = snap(vec![r, rec(1, 3, Some(2), "child\\leaf", 2_000, 3_000_000)]);
        let json = chrome_trace(&s);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"M\"")); // thread metadata
        assert!(json.contains("\"ph\":\"X\"")); // complete events
        assert!(json.contains("\"ph\":\"i\"")); // instant event
        assert!(json.contains("root \\\"op\\\"")); // escaped quote
        assert!(json.contains("child\\\\leaf")); // escaped backslash
        assert!(json.contains("\"parent\":\"0000000000000002\""));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
    }

    #[test]
    fn chrome_trace_empty_snapshot() {
        assert_eq!(
            chrome_trace(&JournalSnapshot::default()),
            "{\"traceEvents\":[]}"
        );
    }

    #[test]
    fn orphaned_span_counts_as_root() {
        // Parent id 99 not in the snapshot (overwritten): still shows up.
        let s = snap(vec![rec(1, 1, Some(99), "lost-parent", 0, 1_000_000)]);
        let rows = slowest_traces(&s, 5);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].root_name, "lost-parent");
    }

    #[test]
    fn slowest_traces_ranks_by_root_duration() {
        let s = snap(vec![
            rec(1, 1, None, "fast", 0, 1_000_000),
            rec(2, 2, None, "slow", 0, 9_000_000),
            rec(2, 3, Some(2), "inner", 0, 4_000_000),
            rec(3, 4, None, "mid", 0, 5_000_000),
        ]);
        let rows = slowest_traces(&s, 2);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].root_name, "slow");
        assert_eq!(rows[0].span_count, 2);
        assert_eq!(rows[0].duration_nanos, 9_000_000);
        // Breakdown is self-time sorted: slow self 5ms > inner self 4ms.
        assert_eq!(rows[0].breakdown[0], ("t:slow".to_owned(), 5_000_000));
        assert_eq!(rows[0].breakdown[1], ("t:inner".to_owned(), 4_000_000));
        assert_eq!(rows[1].root_name, "mid");
    }

    /// Per-trace span index: parent -> children, plus the parentless.
    struct TraceTree<'a> {
        children: HashMap<u64, Vec<&'a SpanRecord>>,
        roots: Vec<&'a SpanRecord>,
    }

    fn build_tree<'a>(spans: &[&'a SpanRecord]) -> TraceTree<'a> {
        let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|r| (r.span_id, *r)).collect();
        let mut children: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
        let mut roots = Vec::new();
        for r in spans {
            match r.parent_id.filter(|p| by_id.contains_key(p)) {
                // A parent id pointing outside the snapshot (overwritten or
                // remote-only) orphans the span; treat it as a root so its
                // time still shows up.
                Some(p) => children.entry(p).or_default().push(*r),
                None => roots.push(*r),
            }
        }
        TraceTree { children, roots }
    }

    /// Self time of a span: duration minus the summed durations of its
    /// children (saturating — overlapping children can exceed the parent).
    fn self_nanos(tree: &TraceTree<'_>, r: &SpanRecord) -> u64 {
        let child_sum: u64 = tree
            .children
            .get(&r.span_id)
            .map(|cs| cs.iter().map(|c| c.duration_nanos()).sum())
            .unwrap_or(0);
        r.duration_nanos().saturating_sub(child_sum)
    }

    /// The per-trace rescan `slowest_traces` replaced, kept with its
    /// tree helpers above as the reference: one `Vec::contains` per
    /// record for the ids, then one pass over the whole journal and one
    /// tree per trace.
    fn oracle_slowest_traces(snap: &JournalSnapshot, k: usize) -> Vec<TraceSummary> {
        let mut trace_ids = Vec::new();
        for r in &snap.records {
            if !trace_ids.contains(&r.trace_id) {
                trace_ids.push(r.trace_id);
            }
        }
        let mut rows = Vec::new();
        for trace_id in trace_ids {
            let spans: Vec<&SpanRecord> = snap
                .records
                .iter()
                .filter(|r| r.trace_id == trace_id)
                .collect();
            let tree = build_tree(&spans);
            let root = tree
                .roots
                .iter()
                .max_by_key(|r| r.duration_nanos())
                .copied();
            let Some(root) = root else { continue };
            let mut breakdown: Vec<(String, u64)> = spans
                .iter()
                .map(|r| (format!("{}:{}", r.component, r.name), self_nanos(&tree, r)))
                .collect();
            breakdown.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            rows.push(TraceSummary {
                trace_id,
                root_name: root.name.clone(),
                duration_nanos: root.duration_nanos(),
                span_count: spans.len(),
                event_count: spans.iter().map(|r| r.events.len()).sum(),
                breakdown,
            });
        }
        rows.sort_by(|a, b| {
            b.duration_nanos
                .cmp(&a.duration_nanos)
                .then_with(|| a.trace_id.cmp(&b.trace_id))
        });
        rows.truncate(k);
        rows
    }

    /// A journal of interleaved traces: durations from a three-value set
    /// (so roots and self times tie within and across traces), parents
    /// drawn from earlier spans of the same trace, and some first spans
    /// pointing at a parent outside the snapshot (a root overwritten out
    /// of the ring).
    fn generated_journal(rng: &mut DetRng) -> JournalSnapshot {
        let mut records = Vec::new();
        let mut span_id = 0;
        for _ in 0..usize_in(rng, 1..9) {
            let trace_id = any_u64(rng);
            let first = span_id + 1;
            for i in 0..usize_in(rng, 1..10) {
                span_id += 1;
                let parent = match (i, rng.index(4)) {
                    (0, 0) => Some(1 << 40 | span_id),
                    (0, _) | (_, 0) => None,
                    _ => Some(first + rng.index(i) as u64),
                };
                let start = rng.index(6) as u64 * 1_000;
                let end = start + (1 + rng.index(3) as u64) * 1_000;
                let mut r = rec(
                    trace_id,
                    span_id,
                    parent,
                    ["a", "b"][rng.index(2)],
                    start,
                    end,
                );
                for _ in 0..rng.index(3) {
                    r.events.push(SpanEvent {
                        at_nanos: start,
                        label: "e".to_owned(),
                    });
                }
                records.push(r);
            }
        }
        records.sort_by_key(|r| (r.start_nanos, r.span_id));
        snap(records)
    }

    #[test]
    fn slowest_traces_matches_the_rescanning_oracle() {
        check("slowest_traces_matches_the_rescanning_oracle", 300, |rng| {
            let s = generated_journal(rng);
            let mut first_seen = Vec::new();
            for r in &s.records {
                if !first_seen.contains(&r.trace_id) {
                    first_seen.push(r.trace_id);
                }
            }
            // Past the trace count too: every trace comes back.
            let k = usize_in(rng, 0..first_seen.len() + 3);
            assert_eq!(
                slowest_traces(&s, k),
                oracle_slowest_traces(&s, k),
                "k = {k}"
            );
        });
    }
}
