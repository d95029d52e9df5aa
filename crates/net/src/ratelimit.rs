//! Token-bucket rate limiting.
//!
//! Used on both sides of the simulation: Google Play's endpoint throttles
//! crawlers (the reason the paper could only fetch a 287,110-APK random
//! sample directly) and the crawler's politeness policy throttles itself
//! per market. The bucket takes an explicit clock so tests and the
//! deterministic pipeline never sleep.

use marketscope_telemetry::{Counter, Histogram, Registry};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rate-limiter instruments: grants, rejections, and (for politeness
/// buckets) how long callers actually waited for a token.
#[derive(Debug)]
pub struct RateLimitMetrics {
    grants: Arc<Counter>,
    rejections: Arc<Counter>,
    wait_nanos: Arc<Histogram>,
}

impl RateLimitMetrics {
    /// Register the rate-limit instruments in `registry` under the given
    /// base labels. Metric names:
    ///
    /// * `marketscope_net_ratelimit_grants_total`
    /// * `marketscope_net_ratelimit_rejections_total`
    /// * `marketscope_net_ratelimit_wait_nanos`
    pub fn register(registry: &Registry, labels: &[(&str, &str)]) -> RateLimitMetrics {
        RateLimitMetrics {
            grants: registry.counter("marketscope_net_ratelimit_grants_total", labels),
            rejections: registry.counter("marketscope_net_ratelimit_rejections_total", labels),
            wait_nanos: registry.histogram("marketscope_net_ratelimit_wait_nanos", labels),
        }
    }
}

/// A thread-safe token bucket.
///
/// `capacity` tokens maximum, refilled continuously at `rate_per_sec`.
/// Callers either [`TokenBucket::try_acquire`] (non-blocking, returns
/// whether a token was granted) or ask for the [`TokenBucket::wait_hint`]
/// to back off.
#[derive(Debug)]
pub struct TokenBucket {
    inner: Mutex<BucketState>,
    capacity: f64,
    rate_per_sec: f64,
    metrics: RateLimitMetrics,
}

#[derive(Debug)]
struct BucketState {
    tokens: f64,
    last_refill: Instant,
}

impl TokenBucket {
    /// A bucket holding up to `capacity` tokens, refilling at
    /// `rate_per_sec`. Starts full. Counts into a private registry.
    pub fn new(capacity: u32, rate_per_sec: f64) -> Self {
        let metrics = RateLimitMetrics::register(&Registry::new(), &[]);
        TokenBucket::instrumented(capacity, rate_per_sec, metrics)
    }

    /// A bucket whose grants, rejections and caller waits are counted in
    /// a telemetry registry.
    pub fn instrumented(capacity: u32, rate_per_sec: f64, metrics: RateLimitMetrics) -> Self {
        assert!(capacity > 0, "zero-capacity bucket");
        assert!(rate_per_sec > 0.0, "non-positive refill rate");
        TokenBucket {
            inner: Mutex::new(BucketState {
                tokens: capacity as f64,
                last_refill: Instant::now(),
            }),
            capacity: capacity as f64,
            rate_per_sec,
            metrics,
        }
    }

    /// Try to take one token now.
    pub fn try_acquire(&self) -> bool {
        self.try_acquire_at(Instant::now())
    }

    /// Try to take one token at an explicit instant (testable clock).
    pub fn try_acquire_at(&self, now: Instant) -> bool {
        let granted = {
            let mut st = self.inner.lock();
            self.refill(&mut st, now);
            if st.tokens >= 1.0 {
                st.tokens -= 1.0;
                true
            } else {
                false
            }
        };
        if granted {
            self.metrics.grants.inc();
        } else {
            self.metrics.rejections.inc();
        }
        granted
    }

    /// Record how long a caller actually blocked waiting for a token.
    /// The bucket itself never sleeps, so the polite-waiting caller
    /// reports its measured wait here.
    pub fn note_wait(&self, waited: Duration) {
        self.metrics.wait_nanos.record_duration(waited);
    }

    /// How long until one token will be available (zero if one is ready).
    pub fn wait_hint(&self) -> Duration {
        self.wait_hint_at(Instant::now())
    }

    /// [`TokenBucket::wait_hint`] with an explicit clock.
    pub fn wait_hint_at(&self, now: Instant) -> Duration {
        let mut st = self.inner.lock();
        self.refill(&mut st, now);
        if st.tokens >= 1.0 {
            Duration::ZERO
        } else {
            let missing = 1.0 - st.tokens;
            Duration::from_secs_f64(missing / self.rate_per_sec)
        }
    }

    fn refill(&self, st: &mut BucketState, now: Instant) {
        let elapsed = now.saturating_duration_since(st.last_refill);
        st.last_refill = now;
        st.tokens = (st.tokens + elapsed.as_secs_f64() * self.rate_per_sec).min(self.capacity);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_up_to_capacity_then_deny() {
        let b = TokenBucket::new(3, 1.0);
        let t0 = Instant::now();
        assert!(b.try_acquire_at(t0));
        assert!(b.try_acquire_at(t0));
        assert!(b.try_acquire_at(t0));
        assert!(!b.try_acquire_at(t0));
    }

    #[test]
    fn refills_over_time() {
        let b = TokenBucket::new(1, 10.0); // one token per 100ms
        let t0 = Instant::now();
        assert!(b.try_acquire_at(t0));
        assert!(!b.try_acquire_at(t0));
        assert!(b.try_acquire_at(t0 + Duration::from_millis(150)));
    }

    #[test]
    fn refill_caps_at_capacity() {
        let b = TokenBucket::new(2, 100.0);
        let t0 = Instant::now();
        assert!(b.try_acquire_at(t0));
        let later = t0 + Duration::from_secs(60);
        assert!(b.try_acquire_at(later));
        assert!(b.try_acquire_at(later));
        assert!(!b.try_acquire_at(later), "must not exceed capacity");
    }

    #[test]
    fn wait_hint_matches_refill_rate() {
        let b = TokenBucket::new(1, 2.0); // 500ms per token
        let t0 = Instant::now();
        assert!(b.try_acquire_at(t0));
        let hint = b.wait_hint_at(t0);
        assert!(hint > Duration::from_millis(400) && hint <= Duration::from_millis(510));
        assert_eq!(b.wait_hint_at(t0 + Duration::from_secs(1)), Duration::ZERO);
    }

    #[test]
    fn time_going_backwards_is_tolerated() {
        let b = TokenBucket::new(1, 1.0);
        let t0 = Instant::now();
        assert!(b.try_acquire_at(t0 + Duration::from_secs(5)));
        // An earlier instant after a later one must not panic or mint tokens.
        assert!(!b.try_acquire_at(t0));
    }

    #[test]
    fn instrumented_bucket_counts_grants_rejections_and_waits() {
        use marketscope_telemetry::Registry;
        let registry = Registry::new();
        let b = TokenBucket::instrumented(
            2,
            1.0,
            RateLimitMetrics::register(&registry, &[("market", "gp")]),
        );
        let t0 = Instant::now();
        assert!(b.try_acquire_at(t0));
        assert!(b.try_acquire_at(t0));
        assert!(!b.try_acquire_at(t0));
        b.note_wait(Duration::from_millis(40));
        let snap = registry.snapshot();
        let labels = [("market", "gp")];
        assert_eq!(
            snap.counter_value("marketscope_net_ratelimit_grants_total", &labels),
            Some(2)
        );
        assert_eq!(
            snap.counter_value("marketscope_net_ratelimit_rejections_total", &labels),
            Some(1)
        );
        let waits = snap
            .histogram("marketscope_net_ratelimit_wait_nanos", &labels)
            .unwrap();
        assert_eq!(waits.count(), 1);
        assert_eq!(waits.sum, 40_000_000);
    }

    #[test]
    fn concurrent_acquisition_never_overgrants() {
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;
        let b = Arc::new(TokenBucket::new(100, 0.000_001));
        let granted = Arc::new(AtomicU32::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let b = Arc::clone(&b);
                let granted = Arc::clone(&granted);
                s.spawn(move || {
                    for _ in 0..50 {
                        if b.try_acquire() {
                            granted.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                });
            }
        });
        assert_eq!(granted.load(Ordering::SeqCst), 100);
    }
}
