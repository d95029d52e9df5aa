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
//!   Binaries install it with `#[global_allocator]`; without the feature
//!   (or without installation) every counter reads zero and
//!   [`AllocPhase`] deltas are zero — callers need no cfg of their own.
//! * **Process sampling** — [`rss_bytes`] and [`thread_count`] read
//!   `/proc/self/status`, and [`ResourceSampler`] polls them on a
//!   background thread into registry gauges, tracking peaks for the
//!   BENCH report.
//! * **Build info** — [`register_build_info`] publishes a constant
//!   `marketscope_build_info{version=...,profile=...} 1` gauge so every
//!   exposition and BENCH file records which binary produced it.

use crate::counter::Gauge;
use crate::periodic::Periodic;
use crate::registry::Registry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

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

impl AllocStats {
    /// Live heap bytes at snapshot time (allocated minus freed;
    /// saturating, since the two counters are read non-atomically).
    pub fn live_bytes(&self) -> u64 {
        self.bytes_allocated.saturating_sub(self.bytes_freed)
    }
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

/// Resident-set size of this process in bytes (`VmRSS` from
/// `/proc/self/status`). `None` off Linux or if the field is missing.
pub fn rss_bytes() -> Option<u64> {
    proc_status_field("VmRSS:").map(|kb| kb * 1024)
}

/// Number of OS threads in this process (`Threads` from
/// `/proc/self/status`). `None` off Linux.
pub fn thread_count() -> Option<u64> {
    proc_status_field("Threads:")
}

/// Parse one numeric field out of `/proc/self/status`.
fn proc_status_field(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].split_whitespace().next()?.parse().ok()
}

/// Peaks observed by a [`ResourceSampler`] over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourcePeaks {
    /// Highest sampled resident-set size, bytes (0 when unreadable).
    pub rss_peak_bytes: u64,
    /// Highest sampled OS thread count (0 when unreadable).
    pub threads_peak: u64,
    /// Samples taken.
    pub samples: u64,
}

#[derive(Default)]
struct PeakState {
    rss_peak: AtomicU64,
    threads_peak: AtomicU64,
    samples: AtomicU64,
}

/// A background thread sampling process RSS and thread count into
/// registry gauges:
///
/// * `marketscope_process_rss_bytes` / `marketscope_process_rss_peak_bytes`
/// * `marketscope_process_threads` / `marketscope_process_threads_peak`
///
/// One sample is taken synchronously at spawn and one at
/// [`ResourceSampler::stop`], so even a short-lived sampler reports real
/// peaks and the gauges are settled when `stop` returns — which it does
/// without waiting out the interval. Dropping the sampler stops the
/// thread too.
pub struct ResourceSampler {
    peaks: Arc<PeakState>,
    sample: Arc<dyn Fn() + Send + Sync>,
    thread: Periodic,
}

impl ResourceSampler {
    /// Start sampling every `interval` into `registry`.
    pub fn spawn(registry: Arc<Registry>, interval: Duration) -> ResourceSampler {
        let peaks = Arc::new(PeakState::default());
        let rss = registry.gauge("marketscope_process_rss_bytes", &[]);
        let rss_peak = registry.gauge("marketscope_process_rss_peak_bytes", &[]);
        let threads = registry.gauge("marketscope_process_threads", &[]);
        let threads_peak = registry.gauge("marketscope_process_threads_peak", &[]);
        let sample: Arc<dyn Fn() + Send + Sync> = {
            let peaks = Arc::clone(&peaks);
            Arc::new(move || {
                if let Some(v) = rss_bytes() {
                    rss.set(v as i64);
                    let peak = peaks.rss_peak.fetch_max(v, Ordering::Relaxed).max(v);
                    rss_peak.set(peak as i64);
                }
                if let Some(v) = thread_count() {
                    threads.set(v as i64);
                    let peak = peaks.threads_peak.fetch_max(v, Ordering::Relaxed).max(v);
                    threads_peak.set(peak as i64);
                }
                peaks.samples.fetch_add(1, Ordering::Relaxed);
            })
        };
        sample();
        let thread_sample = Arc::clone(&sample);
        // The OS refusing a thread degrades to the two synchronous samples.
        let thread = Periodic::spawn("perf-sampler", interval, move || thread_sample());
        ResourceSampler {
            peaks,
            sample,
            thread,
        }
    }

    /// Peaks so far, without stopping.
    pub fn peaks(&self) -> ResourcePeaks {
        ResourcePeaks {
            rss_peak_bytes: self.peaks.rss_peak.load(Ordering::Relaxed),
            threads_peak: self.peaks.threads_peak.load(Ordering::Relaxed),
            samples: self.peaks.samples.load(Ordering::Relaxed),
        }
    }

    /// Stop the sampling thread, take a last sample and return the
    /// observed peaks.
    pub fn stop(self) -> ResourcePeaks {
        self.thread.stop();
        (self.sample)();
        self.peaks()
    }
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
/// gauge: exposition scrapes and BENCH files record which binary
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
            assert!(rss_bytes().unwrap() > 0);
            assert!(thread_count().unwrap() >= 1);
        }
    }

    #[test]
    fn sampler_tracks_peaks_into_gauges() {
        let registry = Arc::new(Registry::new());
        let sampler = ResourceSampler::spawn(Arc::clone(&registry), Duration::from_millis(5));
        std::thread::sleep(Duration::from_millis(20));
        let peaks = sampler.stop();
        assert!(peaks.samples >= 1);
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peaks.rss_peak_bytes > 0);
            assert!(peaks.threads_peak >= 1);
            let snap = registry.snapshot();
            assert!(
                snap.gauge_value("marketscope_process_rss_peak_bytes", &[])
                    .unwrap()
                    > 0
            );
            assert!(
                snap.gauge_value("marketscope_process_threads", &[])
                    .unwrap()
                    >= 1
            );
        }
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
