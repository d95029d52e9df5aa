//! Measurement plumbing shared by the workloads: process statistics from
//! `/proc`, the burn-in and calibration kernels, order statistics, and
//! the in-memory span recorder behind the traced runs.

use crate::json::Json;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Harness threads that work alongside the program never exceed this.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Steps of the calibration kernel and of the per-repetition clock probe.
const CALIB_STEPS: u64 = 20_000_000;
pub const PROBES_PER_CALIB: f64 = 20.0;

/// A fixed integer kernel: dependent multiply-rotate steps.
fn spin(steps: u64) -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..steps {
        x = (x ^ i).wrapping_mul(0x0100_0000_01b3).rotate_left(17);
    }
    x
}

/// Keep every core busy for `wall`, so the timed regions start on a
/// machine in its steady state: after idling, this VM runs a single
/// thread up to 20 % faster for about four seconds and brings its second
/// core up only after one.
pub fn burn_in(wall: Duration) {
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..nproc() {
            s.spawn(|| {
                while start.elapsed() < wall {
                    std::hint::black_box(spin(std::hint::black_box(1_000_000)));
                }
            });
        }
    });
}

/// Best time of the spin kernel over five runs, in milliseconds. The
/// best, because preemption can only add to a run.
fn best_of_five(steps: u64) -> f64 {
    (0..5)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(spin(std::hint::black_box(steps)));
            t.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// The 20 M-step kernel (~31 ms here), taken before and after a workload:
/// two results are comparable only if the machine ran the same kernel at
/// the same speed.
pub fn calibrate() -> f64 {
    best_of_five(CALIB_STEPS)
}

/// The core clock as the next repetition will find it: a twentieth of
/// the calibration kernel (~1.5 ms).
pub fn clock_probe() -> f64 {
    best_of_five(CALIB_STEPS / PROBES_PER_CALIB as u64)
}

/// Median by sorting; the mean of the middle pair for an even count.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Exact order statistic of sorted samples: the value at rank
/// `ceil(q * n)`, not an interpolation and not a histogram bucket edge.
pub fn quantile_sorted(sorted: &[u32], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    f64::from(sorted[rank - 1])
}

/// FNV-1a over the generated inputs, folded to 48 bits so the value
/// survives a round trip through a JSON number.
#[derive(Debug, Clone, Copy)]
pub struct InputHash(u64);

impl InputHash {
    pub fn new() -> Self {
        InputHash(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, n: u64) {
        self.bytes(&n.to_le_bytes());
    }

    pub fn finish(self) -> f64 {
        ((self.0 >> 48) ^ (self.0 & 0xffff_ffff_ffff)) as f64
    }
}

fn proc_status_field(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set of this process (`VmHWM`), in megabytes, since the
/// last [`reset_rss_peak`].
pub fn rss_peak_mb() -> f64 {
    proc_status_field("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Restart the kernel's peak-RSS watermark at the current RSS, so each
/// repetition reports a peak of its own. Where the kernel refuses, the
/// watermark simply keeps covering the whole process.
pub fn reset_rss_peak() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// User plus system CPU time this process has used, in seconds.
pub fn cpu_seconds() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, counted after the command name
    // (which may itself hold spaces), in clock ticks; Linux fixes
    // USER_HZ at 100.
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after_comm.split_whitespace().skip(11);
    let utime: u64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    let stime: u64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    (utime + stime) as f64 / 100.0
}

/// Samples the process's thread count every 10 ms until stopped.
pub struct ThreadSampler {
    stop: Arc<AtomicBool>,
    peak: Arc<AtomicU64>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ThreadSampler {
    pub fn spawn() -> ThreadSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let peak = Arc::new(AtomicU64::new(0));
        let handle = {
            let (stop, peak) = (Arc::clone(&stop), Arc::clone(&peak));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    if let Some(n) = proc_status_field("Threads:") {
                        peak.fetch_max(n, Ordering::Relaxed);
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
            })
        };
        ThreadSampler {
            stop,
            peak,
            handle: Some(handle),
        }
    }

    /// The peak since the last call, the sampler's own thread included.
    pub fn take_peak(&self) -> f64 {
        self.peak.swap(0, Ordering::Relaxed) as f64
    }
}

impl Drop for ThreadSampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            // The sampler only reads /proc; it has nothing to report.
            let _ = handle.join();
        }
    }
}

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder of one traced run. Spans wrap calls into the
/// program's public functions; the program's own tracer is left alone.
/// A disabled recorder records nothing, so untraced runs share the code
/// path without its cost.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("no holder of the span list panics")
    }

    /// Run `f` inside a span and return its result with the span's id
    /// (for use as a parent) and its wall time in seconds.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce(Option<usize>) -> T,
    ) -> (T, f64) {
        if !self.enabled {
            let t = Instant::now();
            let out = f(None);
            return (out, t.elapsed().as_secs_f64());
        }
        let start_ns = self.now_ns();
        let id = {
            let mut spans = self.lock();
            spans.push(Span {
                name,
                parent,
                start_ns,
                end_ns: start_ns,
            });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end_ns = self.now_ns();
        self.lock()[id].end_ns = end_ns;
        (out, (end_ns - start_ns) as f64 / 1e9)
    }

    /// Add spans timed elsewhere (a client thread's round trips), given
    /// as offsets from `base` in nanoseconds.
    pub fn extend(
        &self,
        name: &'static str,
        parent: Option<usize>,
        base: Instant,
        intervals: impl Iterator<Item = (u64, u64)>,
    ) {
        if !self.enabled {
            return;
        }
        let base_ns = base.duration_since(self.epoch).as_nanos() as u64;
        self.lock().extend(intervals.map(|(start, end)| Span {
            name,
            parent,
            start_ns: base_ns + start,
            end_ns: base_ns + end,
        }));
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Self time of each span: its duration minus the part of it that its
/// children cover (overlapping children, as from parallel clients, are
/// merged first).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// The trace file of one workload: every span with its parent, start,
/// duration and self time, in microseconds from the recorder's epoch.
/// One span a line: a traced serve repetition alone has 8 000.
pub fn trace_text(workload: &str, seed: u64, spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .zip(self_times_ns(spans))
        .enumerate()
        .map(|(id, (span, self_ns))| {
            Json::obj([
                ("id", Json::from(id as u64)),
                (
                    "parent",
                    span.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                ),
                ("name", Json::from(span.name)),
                ("start_us", Json::Num(span.start_ns as f64 / 1e3)),
                (
                    "dur_us",
                    Json::Num((span.end_ns - span.start_ns) as f64 / 1e3),
                ),
                ("self_us", Json::Num(self_ns as f64 / 1e3)),
            ])
            .to_line()
        })
        .collect();
    format!(
        "{{\n\"workload\": {},\n\"seed\": {seed},\n\"spans\": [\n{}\n]\n}}\n",
        Json::from(workload).to_line(),
        rows.join(",\n")
    )
}
