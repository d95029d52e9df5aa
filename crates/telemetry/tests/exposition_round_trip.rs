//! Property test: the exposition render/parse pair is a lossless round
//! trip for arbitrary label values — including values containing quotes,
//! backslashes, commas, braces and non-ASCII text.

use marketscope_core::propcheck::{check, printable, vec_of};
use marketscope_core::rng::DetRng;
use marketscope_telemetry::{parse, Registry};

/// This suite's runner: 256 cases per property, streams named
/// `exposition_round_trip::<property>`.
fn property(name: &str, body: impl FnMut(&mut DetRng)) {
    check(&format!("exposition_round_trip::{name}"), 256, body);
}

/// Every counter registered with an arbitrary printable label value
/// comes back from parse(render(..)) with the same value and label.
#[test]
fn label_values_round_trip() {
    property("label_values_round_trip", |rng| {
        let mut values = vec_of(rng, 1..8, |r| printable(r, 0..=24));
        let r = Registry::new();
        // Dedup: two equal label values would collide into one counter.
        values.sort();
        values.dedup();
        for (i, v) in values.iter().enumerate() {
            r.counter("round_trip_total", &[("v", v)]).add(i as u64 + 1);
        }
        let text = r.render();
        let samples =
            parse(&text).unwrap_or_else(|e| panic!("parse failed: {e}\nrendered:\n{text}"));
        assert_eq!(samples.len(), values.len());
        for (i, v) in values.iter().enumerate() {
            let sample = samples
                .iter()
                .find(|s| s.label("v") == Some(v.as_str()))
                .unwrap_or_else(|| panic!("label value {v:?} lost in:\n{text}"));
            assert_eq!(sample.value, i as f64 + 1.0);
            assert_eq!(sample.name, "round_trip_total");
        }
    });
}

/// Histogram series (bucket/sum/count/max) survive the round trip
/// with hostile label values too.
#[test]
fn histogram_series_round_trip() {
    property("histogram_series_round_trip", |rng| {
        let value = printable(rng, 0..=16);
        let observations = vec_of(rng, 1..32, |r| r.range_u64(0, 1_000_000));
        let r = Registry::new();
        let h = r.histogram("rt_nanos", &[("market", &value)]);
        for &v in &observations {
            h.record(v);
        }
        let text = r.render();
        let samples =
            parse(&text).unwrap_or_else(|e| panic!("parse failed: {e}\nrendered:\n{text}"));
        let find = |name: &str| {
            samples
                .iter()
                .find(|s| s.name == name && s.label("market") == Some(value.as_str()))
                .unwrap_or_else(|| panic!("missing {name} in:\n{text}"))
                .value
        };
        assert_eq!(find("rt_nanos_count"), observations.len() as f64);
        assert_eq!(
            find("rt_nanos_sum"),
            observations.iter().sum::<u64>() as f64
        );
        assert_eq!(
            find("rt_nanos_max"),
            *observations.iter().max().unwrap() as f64
        );
    });
}
