//! Property tests: snapshot merging is exactly equivalent to recording
//! the combined stream into one histogram, and quantiles stay within the
//! observed range.

use marketscope_core::propcheck::{any_u64, check, f64_in, vec_of};
use marketscope_core::rng::DetRng;
use marketscope_telemetry::{Histogram, Registry};

/// This suite's runner: 256 cases per property, streams named
/// `merge_properties::<property>`.
fn property(name: &str, body: impl FnMut(&mut DetRng)) {
    check(&format!("merge_properties::{name}"), 256, body);
}

/// merge(snapshot(a), snapshot(b)) == snapshot(a ++ b).
#[test]
fn histogram_merge_equals_combined_recording() {
    property("histogram_merge_equals_combined_recording", |rng| {
        // Wrapping sums: the histogram's running sum is a u64 fetch_add,
        // so feed values small enough not to overflow in test.
        let a = vec_of(rng, 0..200, |r| any_u64(r) % (1 << 40));
        let b = vec_of(rng, 0..200, |r| any_u64(r) % (1 << 40));

        let ha = Histogram::new();
        let hb = Histogram::new();
        let hboth = Histogram::new();
        for &v in &a {
            ha.record(v);
            hboth.record(v);
        }
        for &v in &b {
            hb.record(v);
            hboth.record(v);
        }
        let merged = ha.snapshot().merge(&hb.snapshot());
        assert_eq!(merged, hboth.snapshot());
    });
}

/// Quantile estimates are bounded by the min/max observation's bucket.
#[test]
fn quantiles_stay_in_observed_bucket_range() {
    property("quantiles_stay_in_observed_bucket_range", |rng| {
        let values = vec_of(rng, 1..200, |r| r.range_u64(1, 1_000_000_000));
        // Both ends of the closed interval are worth hitting exactly.
        let q = match rng.index(8) {
            0 => 0.0,
            1 => 1.0,
            _ => f64_in(rng, 0.0, 1.0),
        };
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let est = h.snapshot().quantile(q);
        let min = *values.iter().min().unwrap();
        let max = *values.iter().max().unwrap();
        // The estimate lies within [bucket_lower(min), bucket_upper(max)];
        // log2 buckets mean at most a 2x stretch on either side.
        assert!(est <= max.saturating_mul(2), "q={q} est={est} max={max}");
        assert!(est.saturating_mul(2) >= min, "q={q} est={est} min={min}");
    });
}

/// Registry snapshot merge adds counters and merges histograms, and
/// the rendered exposition still parses.
#[test]
fn registry_merge_matches_combined_and_renders() {
    property("registry_merge_matches_combined_and_renders", |rng| {
        let xs = vec_of(rng, 0..50, |r| r.range_u64(0, 10_000));
        let ys = vec_of(rng, 0..50, |r| r.range_u64(0, 10_000));
        let r1 = Registry::new();
        let r2 = Registry::new();
        let combined = Registry::new();
        for &v in &xs {
            r1.counter("events_total", &[("side", "x")]).add(v);
            combined.counter("events_total", &[("side", "x")]).add(v);
            r1.histogram("lat_nanos", &[]).record(v);
            combined.histogram("lat_nanos", &[]).record(v);
        }
        for &v in &ys {
            r2.counter("events_total", &[("side", "x")]).add(v);
            combined.counter("events_total", &[("side", "x")]).add(v);
            r2.histogram("lat_nanos", &[]).record(v);
            combined.histogram("lat_nanos", &[]).record(v);
        }
        let merged = r1.snapshot().merge(&r2.snapshot());
        assert_eq!(merged, combined.snapshot());

        let text = merged.render();
        let samples = marketscope_telemetry::parse(&text).unwrap();
        if !xs.is_empty() || !ys.is_empty() {
            let total: u64 = xs.iter().chain(&ys).sum();
            let c = samples
                .iter()
                .find(|s| s.name == "events_total")
                .expect("counter rendered");
            assert_eq!(c.value, total as f64);
        }
    });
}
