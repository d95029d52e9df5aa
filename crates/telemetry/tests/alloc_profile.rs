//! Allocation-profiling integration tests: install [`CountingAlloc`] as
//! this test binary's global allocator, prove the counters see real
//! traffic, and hold the record rings to what they recorded. Only
//! meaningful with the feature on —
//! `cargo test -p marketscope-telemetry --features alloc-profile` —
//! without it the whole file compiles away.

#![cfg(feature = "alloc-profile")]

use marketscope_telemetry::perf::{alloc_stats, AllocPhase, CountingAlloc};
use marketscope_telemetry::{EventLog, SpanRecord, Tracer, TracerConfig};
use std::alloc::{GlobalAlloc, Layout};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::Arc;

/// [`CountingAlloc`], which feeds the process-wide counters, plus a
/// count of the bytes the calling thread holds. The harness runs tests
/// and its own bookkeeping on other threads, so a check that must be
/// exact reads its own thread's count.
struct ThreadCounting;

thread_local! {
    /// Bytes this thread allocated less the bytes it freed.
    static HELD: Cell<i64> = const { Cell::new(0) };
}

fn note(bytes: i64) {
    // A const-initialised `Cell` has no destructor, so the slot never
    // allocates; `try_with` skips a thread whose locals are torn down.
    let _ = HELD.try_with(|held| held.set(held.get() + bytes));
}

fn held() -> i64 {
    HELD.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to
// `CountingAlloc`, which forwards them to the system allocator; the
// wrapper only counts sizes and never touches the memory.
unsafe impl GlobalAlloc for ThreadCounting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` pass through.
        let p = unsafe { CountingAlloc.alloc(layout) };
        if !p.is_null() {
            note(layout.size() as i64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with `layout`.
        unsafe { CountingAlloc.dealloc(ptr, layout) };
        note(-(layout.size() as i64));
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { CountingAlloc.alloc_zeroed(layout) };
        if !p.is_null() {
            note(layout.size() as i64);
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from this allocator with `layout`, and the
        // caller's guarantees for `new_size` pass through.
        let p = unsafe { CountingAlloc.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note(new_size as i64 - layout.size() as i64);
        }
        p
    }
}

#[global_allocator]
static ALLOC: ThreadCounting = ThreadCounting;

#[test]
fn counting_allocator_sees_real_allocations() {
    let phase = AllocPhase::start();
    // 64 KiB in one shot, plus growth churn from the pushes.
    let mut v: Vec<u8> = Vec::with_capacity(64 * 1024);
    for i in 0..1024u32 {
        v.push(i as u8);
    }
    let boxed = vec![0u64; 4096].into_boxed_slice();
    std::hint::black_box(&v);
    std::hint::black_box(&boxed);
    let delta = phase.delta();
    assert!(delta.allocs >= 2, "allocs: {}", delta.allocs);
    assert!(
        delta.bytes_allocated >= 64 * 1024 + 4096 * 8,
        "bytes: {}",
        delta.bytes_allocated
    );

    // Dropping feeds the free side.
    drop(v);
    drop(boxed);
    let after = phase.delta();
    assert!(after.frees > delta.frees);
    assert!(after.bytes_freed >= delta.bytes_freed + 64 * 1024);

    // The process-wide totals are monotonic and at least as large as
    // any phase delta carved out of them.
    let totals = alloc_stats();
    assert!(totals.allocs >= after.allocs);
    assert!(totals.bytes_allocated >= after.bytes_allocated);
}

/// Bytes this thread holds after recording `spans` more root spans.
fn held_after(tracer: &Arc<Tracer>, spans: usize) -> i64 {
    for _ in 0..spans {
        tracer.root_span("test", "span").finish();
    }
    held()
}

#[test]
fn rings_hold_what_they_recorded() {
    // The campaign's tracer, the fleet's journal and the fleet's event
    // log, at their caps, before anything records.
    let before = held();
    let idle = (
        Tracer::new(TracerConfig {
            sample_rate: 0.0,
            capacity: 65_536,
        }),
        Tracer::new(TracerConfig::propagate_only(16_384)),
        EventLog::new(4_096),
    );
    black_box(&idle);
    let idle_bytes = held() - before;
    assert!(idle_bytes < 4 * 1024, "idle rings hold {idle_bytes} B");

    // Recording k spans holds k slots and k names, and less than twice
    // that while the ring doubles towards its cap.
    const CAP: usize = 1_024;
    let tracer = Arc::new(Tracer::new(TracerConfig::always(CAP)));
    let per_span = (std::mem::size_of::<SpanRecord>() + "span".len()) as i64;
    let base = held();
    let mut recorded = 0;
    for k in [CAP / 4, CAP / 2, CAP] {
        let bytes = held_after(&tracer, k - recorded) - base;
        recorded = k;
        let k = k as i64;
        assert!(
            (k * per_span..2 * k * per_span).contains(&bytes),
            "{k} spans hold {bytes} B at {per_span} B per span"
        );
    }
    // A full ring overwrites: four more laps hold nothing more.
    let full = held();
    assert_eq!(held_after(&tracer, 4 * CAP), full, "a full ring grew");
    assert_eq!(tracer.snapshot().records.len(), CAP);
}
