//! Concurrent hammering of the lock-free instruments and the record
//! rings: 8 threads, exact counts, monotone cumulative bucket sums, and
//! rings that keep each thread's newest records.

use marketscope_telemetry::trace::Journal;
use marketscope_telemetry::{Counter, EventLog, Gauge, Histogram, LogLevel, Registry, SpanRecord};
use std::sync::Arc;

const THREADS: usize = 8;
const PER_THREAD: u64 = 100_000;

#[test]
fn counter_is_exact_under_contention() {
    let c = Arc::new(Counter::new());
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let c = Arc::clone(&c);
            s.spawn(move || {
                for _ in 0..PER_THREAD {
                    c.inc();
                }
            });
        }
    });
    assert_eq!(c.get(), THREADS as u64 * PER_THREAD);
}

#[test]
fn gauge_balances_out_under_contention() {
    let g = Arc::new(Gauge::new());
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let g = Arc::clone(&g);
            s.spawn(move || {
                for _ in 0..PER_THREAD {
                    g.inc();
                    g.dec();
                }
            });
        }
    });
    assert_eq!(g.get(), 0);
}

#[test]
fn histogram_is_exact_under_contention() {
    let h = Arc::new(Histogram::new());
    // Each thread records a deterministic value stream; the final count
    // and sum must be exact, with no lost updates.
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let h = Arc::clone(&h);
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    h.record((t as u64 * 7 + i) % 5000);
                }
            });
        }
    });
    let expected_count = THREADS as u64 * PER_THREAD;
    let expected_sum: u64 = (0..THREADS as u64)
        .map(|t| (0..PER_THREAD).map(|i| (t * 7 + i) % 5000).sum::<u64>())
        .sum();
    let snap = h.snapshot();
    assert_eq!(snap.count(), expected_count);
    assert_eq!(snap.sum, expected_sum);

    // Cumulative bucket sums are monotone and end at the exact count.
    let mut prev = 0u64;
    for &(_, cum) in &snap.cumulative() {
        assert!(cum >= prev, "cumulative bucket counts must be monotone");
        prev = cum;
    }
    assert_eq!(prev, expected_count);
}

#[test]
fn registry_hands_out_one_instrument_per_id_under_contention() {
    let r = Arc::new(Registry::new());
    // All threads race to register the same id and hammer it; the total
    // must land on one shared counter.
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let r = Arc::clone(&r);
            s.spawn(move || {
                let c = r.counter("race_total", &[("who", "everyone")]);
                for _ in 0..PER_THREAD {
                    c.inc();
                }
            });
        }
    });
    assert_eq!(
        r.snapshot()
            .counter_value("race_total", &[("who", "everyone")]),
        Some(THREADS as u64 * PER_THREAD)
    );
}

#[test]
fn snapshots_under_load_never_exceed_final_totals() {
    let h = Arc::new(Histogram::new());
    let c = Arc::new(Counter::new());
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let h = Arc::clone(&h);
            let c = Arc::clone(&c);
            s.spawn(move || {
                for i in 0..10_000u64 {
                    h.record(i % 100);
                    c.inc();
                }
            });
        }
        // Reader thread: every interim snapshot must be internally sane.
        let h = Arc::clone(&h);
        s.spawn(move || {
            for _ in 0..50 {
                let snap = h.snapshot();
                let mut prev = 0;
                for &(_, cum) in &snap.cumulative() {
                    assert!(cum >= prev);
                    prev = cum;
                }
                assert!(snap.count() <= THREADS as u64 * 10_000);
            }
        });
    });
    assert_eq!(c.get(), THREADS as u64 * 10_000);
    assert_eq!(h.count(), THREADS as u64 * 10_000);
}

/// Records each thread pushes into each ring, and the rings' capacity.
const RING_PUSHES: u64 = 1_000;
const RING_CAP: usize = 1_024;

/// Each thread's retained records, as `(thread, index)` pairs, must be
/// the newest that thread pushed: a suffix of `0..RING_PUSHES`.
fn assert_suffixes(kept: impl Iterator<Item = (u64, u64)>) {
    let mut per_thread = vec![Vec::new(); THREADS];
    for (t, i) in kept {
        per_thread[t as usize].push(i);
    }
    for (t, mut idx) in per_thread.into_iter().enumerate() {
        idx.sort_unstable();
        let first = RING_PUSHES - idx.len() as u64;
        assert_eq!(idx, (first..RING_PUSHES).collect::<Vec<_>>(), "thread {t}");
    }
}

#[test]
fn rings_count_and_retain_exactly_under_contention() {
    let journal = Journal::new(RING_CAP);
    let log = EventLog::new(RING_CAP);
    std::thread::scope(|s| {
        for t in 0..THREADS as u64 {
            let (journal, log) = (&journal, &log);
            s.spawn(move || {
                for i in 0..RING_PUSHES {
                    journal.push(SpanRecord {
                        trace_id: t + 1,
                        span_id: i + 1,
                        parent_id: None,
                        component: "test",
                        name: String::new(),
                        start_nanos: i,
                        end_nanos: i,
                        events: Vec::new(),
                    });
                    let (t, i) = (t.to_string(), i.to_string());
                    log.record(LogLevel::Info, "test", "push", &[("t", &t), ("i", &i)]);
                }
            });
        }
    });
    let total = THREADS as u64 * RING_PUSHES;
    let lost = total - RING_CAP as u64;

    let spans = journal.snapshot();
    assert_eq!(spans.recorded, total);
    assert_eq!(spans.records.len(), RING_CAP);
    assert_eq!(spans.overwritten, lost);
    assert_suffixes(
        spans
            .records
            .iter()
            .map(|r| (r.trace_id - 1, r.span_id - 1)),
    );

    let events = log.snapshot();
    assert_eq!(events.recorded, total);
    assert_eq!(events.events.len(), RING_CAP);
    assert_eq!(events.overwritten, lost);
    let field =
        |e: &marketscope_telemetry::LogEvent, k: usize| e.fields[k].1.parse::<u64>().unwrap();
    assert_suffixes(events.events.iter().map(|e| (field(e, 0), field(e, 1))));
    // The ring stamps sequence numbers under the lock that stores the
    // event, so the retained events carry exactly the newest RING_CAP.
    let mut seqs: Vec<u64> = events.events.iter().map(|e| e.seq).collect();
    seqs.sort_unstable();
    assert_eq!(seqs, (lost..total).collect::<Vec<_>>());
}
