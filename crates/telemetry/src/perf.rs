//! Resource profiling: allocation accounting, RSS / thread sampling, and
//! the build-info gauge.
//!
//! The perf layer answers the question the latency instruments cannot:
//! *what did the run cost the process*? Three pieces:
//!
//! * **Allocation accounting** — process-wide atomic counters
//!   ([`alloc_stats`]) fed by `CountingAlloc`, a wrapper around the
//!   system allocator compiled only under the `alloc-profile` feature
//!   (counting every allocation costs a few percent, so it is opt-in).
//!   A binary installs it with `#[global_allocator]` (the `alloc_profile`
//!   test suite does); without the feature
//!   (or without installation) every counter reads zero and
//!   [`AllocPhase`] deltas are zero — callers need no cfg of their own.
//! * **Process sampling** — [`thread_count`] reads `/proc/self/status`,
//!   and [`sample`] copies it into registry gauges
//!   for the ops report's `perf:` line: the resident-set peak is the
//!   kernel's `VmHWM`, and the thread peak is the most threads seen at
//!   the points its callers sample. There is no sampling thread.
//! * **Build info** — [`register_build_info`] publishes a constant
//!   `marketscope_build_info{version=...,profile=...} 1` gauge so every
//!   exposition records which binary produced it.

use crate::counter::Gauge;
use crate::registry::Registry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Allocations since process start (never decremented).
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Deallocations since process start.
static FREES: AtomicU64 = AtomicU64::new(0);
/// Bytes handed out since process start.
static BYTES_ALLOCATED: AtomicU64 = AtomicU64::new(0);
/// Bytes returned since process start.
static BYTES_FREED: AtomicU64 = AtomicU64::new(0);
/// High-water mark of `BYTES_ALLOCATED - BYTES_FREED`.
static PEAK_LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

/// A point-in-time copy of the process-wide allocation counters.
///
/// All zeros unless `CountingAlloc` is installed as the global
/// allocator (which requires the `alloc-profile` feature).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Allocations performed.
    pub allocs: u64,
    /// Deallocations performed.
    pub frees: u64,
    /// Total bytes allocated (monotonic).
    pub bytes_allocated: u64,
    /// Total bytes freed (monotonic).
    pub bytes_freed: u64,
    /// High-water mark of live heap bytes.
    pub peak_live_bytes: u64,
}

/// Read the process-wide allocation counters.
pub fn alloc_stats() -> AllocStats {
    AllocStats {
        allocs: ALLOCS.load(Ordering::Relaxed),
        frees: FREES.load(Ordering::Relaxed),
        bytes_allocated: BYTES_ALLOCATED.load(Ordering::Relaxed),
        bytes_freed: BYTES_FREED.load(Ordering::Relaxed),
        peak_live_bytes: PEAK_LIVE_BYTES.load(Ordering::Relaxed),
    }
}

/// Record one allocation of `size` bytes. Public so the feature-gated
/// allocator (and tests) can drive the counters; hot-path cheap: three
/// relaxed atomic ops.
#[inline]
pub fn note_alloc(size: u64) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    let allocated = BYTES_ALLOCATED.fetch_add(size, Ordering::Relaxed) + size;
    let live = allocated.saturating_sub(BYTES_FREED.load(Ordering::Relaxed));
    PEAK_LIVE_BYTES.fetch_max(live, Ordering::Relaxed);
}

/// Record one deallocation of `size` bytes.
#[inline]
pub fn note_free(size: u64) {
    FREES.fetch_add(1, Ordering::Relaxed);
    BYTES_FREED.fetch_add(size, Ordering::Relaxed);
}

/// The difference between two [`AllocStats`] snapshots: what one phase
/// of work allocated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocDelta {
    /// Allocations performed during the phase.
    pub allocs: u64,
    /// Bytes allocated during the phase.
    pub bytes_allocated: u64,
    /// Deallocations performed during the phase.
    pub frees: u64,
    /// Bytes freed during the phase.
    pub bytes_freed: u64,
}

/// Per-phase allocation accounting: capture the counters at phase start,
/// ask for the [`AllocDelta`] at the end.
///
/// ```
/// let phase = marketscope_telemetry::perf::AllocPhase::start();
/// let v: Vec<u8> = Vec::with_capacity(4096);
/// drop(v);
/// let delta = phase.delta(); // zeros unless CountingAlloc is installed
/// # let _ = delta;
/// ```
#[derive(Debug, Clone, Copy)]
pub struct AllocPhase {
    start: AllocStats,
}

impl AllocPhase {
    /// Begin a phase at the current counter values.
    pub fn start() -> AllocPhase {
        AllocPhase {
            start: alloc_stats(),
        }
    }

    /// Allocation work since [`AllocPhase::start`].
    pub fn delta(&self) -> AllocDelta {
        let now = alloc_stats();
        AllocDelta {
            allocs: now.allocs.saturating_sub(self.start.allocs),
            bytes_allocated: now
                .bytes_allocated
                .saturating_sub(self.start.bytes_allocated),
            frees: now.frees.saturating_sub(self.start.frees),
            bytes_freed: now.bytes_freed.saturating_sub(self.start.bytes_freed),
        }
    }
}

#[cfg(feature = "alloc-profile")]
mod counting_alloc {
    use std::alloc::{GlobalAlloc, Layout, System};

    /// A counting wrapper around the system allocator. Install in a
    /// binary with:
    ///
    /// ```ignore
    /// #[global_allocator]
    /// static ALLOC: marketscope_telemetry::perf::CountingAlloc =
    ///     marketscope_telemetry::perf::CountingAlloc;
    /// ```
    ///
    /// Every allocation then feeds [`super::alloc_stats`]. Only compiled
    /// under the `alloc-profile` feature.
    pub struct CountingAlloc;

    #[allow(unsafe_code)]
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let p = System.alloc(layout);
            if !p.is_null() {
                super::note_alloc(layout.size() as u64);
            }
            p
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
            super::note_free(layout.size() as u64);
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            let p = System.alloc_zeroed(layout);
            if !p.is_null() {
                super::note_alloc(layout.size() as u64);
            }
            p
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let p = System.realloc(ptr, layout, new_size);
            if !p.is_null() {
                super::note_free(layout.size() as u64);
                super::note_alloc(new_size as u64);
            }
            p
        }
    }
}

#[cfg(feature = "alloc-profile")]
pub use counting_alloc::CountingAlloc;

/// Number of OS threads in this process (`Threads` from
/// `/proc/self/status`). `None` off Linux.
pub fn thread_count() -> Option<u64> {
    proc_status_field(&proc_status()?, "Threads:")
}

/// Sample this process into `registry`'s `marketscope_process_*`
/// gauges from one read of `/proc/self/status`: `rss_bytes` (`VmRSS`),
/// `rss_peak_bytes` (`VmHWM`, the high-water mark the kernel keeps
/// exactly), `threads`, and `threads_peak`, the most threads any sample
/// saw. Peaks only ever rise. A thread count is exact only when read, so
/// callers sample where their thread set is largest. Nothing here resets
/// `VmHWM` (`/proc/self/clear_refs`): that belongs to whoever owns the
/// whole process, such as a benchmark harness between repetitions.
pub fn sample(registry: &Registry) {
    let Some(status) = proc_status() else {
        return;
    };
    let read = |field| proc_status_field(&status, field).map(|v| v as i64);
    let gauge = |name| registry.gauge(name, &[]);
    if let (Some(rss), Some(hwm), Some(threads)) =
        (read("VmRSS:"), read("VmHWM:"), read("Threads:"))
    {
        gauge("marketscope_process_rss_bytes").set(rss * 1024);
        gauge("marketscope_process_rss_peak_bytes").set_max(hwm * 1024);
        gauge("marketscope_process_threads").set(threads);
        gauge("marketscope_process_threads_peak").set_max(threads);
    }
}

fn proc_status() -> Option<String> {
    std::fs::read_to_string("/proc/self/status").ok()
}

/// Parse one numeric field out of a `/proc/self/status` text.
fn proc_status_field(status: &str, field: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].split_whitespace().next()?.parse().ok()
}

/// The build profile this crate was compiled under.
pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// Register the constant `marketscope_build_info{version,profile} 1`
/// gauge: exposition scrapes and ops reports record which binary
/// produced them. Idempotent (same labels return the same gauge).
pub fn register_build_info(registry: &Registry, version: &str, profile: &str) -> Arc<Gauge> {
    let g = registry.gauge(
        "marketscope_build_info",
        &[("version", version), ("profile", profile)],
    );
    g.set(1);
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_counters_accumulate_and_phase_deltas_subtract() {
        let before = alloc_stats();
        note_alloc(1024);
        note_alloc(512);
        note_free(512);
        let after = alloc_stats();
        assert_eq!(after.allocs - before.allocs, 2);
        assert_eq!(after.bytes_allocated - before.bytes_allocated, 1536);
        assert_eq!(after.frees - before.frees, 1);
        assert!(after.peak_live_bytes >= 1024);

        let phase = AllocPhase::start();
        note_alloc(64);
        let d = phase.delta();
        assert_eq!(d.allocs, 1);
        assert_eq!(d.bytes_allocated, 64);
    }

    #[test]
    fn proc_sampling_reads_this_process() {
        // Linux-only assertions; both return None elsewhere.
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(proc_status_field(&proc_status().unwrap(), "VmRSS:").unwrap() > 0);
            assert!(thread_count().unwrap() >= 1);
        }
    }

    #[test]
    fn sampler_tracks_peaks_into_gauges() {
        if !std::path::Path::new("/proc/self/status").exists() {
            return;
        }
        let fresh = Registry::new();
        let raised = Registry::new();
        raised
            .gauge("marketscope_process_threads_peak", &[])
            .set(1 << 20);
        sample(&fresh);
        sample(&raised);
        let fresh = fresh.snapshot();
        let gauge = |name| {
            fresh
                .gauge_value(name, &[])
                .unwrap_or_else(|| panic!("{name} unset"))
        };
        assert!(gauge("marketscope_process_rss_bytes") > 0);
        assert!(
            gauge("marketscope_process_rss_peak_bytes") >= gauge("marketscope_process_rss_bytes")
        );
        assert!(gauge("marketscope_process_threads") >= 1);
        // One read feeds both thread gauges.
        assert_eq!(
            gauge("marketscope_process_threads_peak"),
            gauge("marketscope_process_threads")
        );
        assert_eq!(
            raised
                .snapshot()
                .gauge_value("marketscope_process_threads_peak", &[]),
            Some(1 << 20),
            "a sample never lowers a peak"
        );
    }

    #[test]
    fn build_info_gauge_renders_in_exposition() {
        let registry = Registry::new();
        register_build_info(&registry, "1.2.3", "release");
        let snap = registry.snapshot();
        assert_eq!(
            snap.gauge_value(
                "marketscope_build_info",
                &[("version", "1.2.3"), ("profile", "release")]
            ),
            Some(1)
        );
        assert!(registry.render().contains("marketscope_build_info"));
    }

    #[test]
    fn build_profile_matches_compilation() {
        let p = build_profile();
        assert!(p == "debug" || p == "release");
    }
}
