//! Prometheus-style text exposition: rendering and (for tests and
//! scrapers) parsing.
//!
//! The rendered format is the classic text format subset:
//!
//! ```text
//! # TYPE marketscope_net_requests_total counter
//! marketscope_net_requests_total{market="huawei"} 1204
//! # TYPE marketscope_net_handler_nanos histogram
//! marketscope_net_handler_nanos_bucket{market="huawei",le="1023"} 17
//! marketscope_net_handler_nanos_bucket{market="huawei",le="+Inf"} 1204
//! marketscope_net_handler_nanos_sum{market="huawei"} 88211930
//! marketscope_net_handler_nanos_count{market="huawei"} 1204
//! ```
//!
//! Histogram buckets are cumulative with log2 upper bounds; empty tail
//! buckets are elided (the `+Inf` bucket always closes the series).

use crate::registry::{InstrumentId, RegistrySnapshot};
use std::fmt::Write as _;

/// Render a snapshot as exposition text.
pub(crate) fn render(snap: &RegistrySnapshot) -> String {
    let mut out = String::new();
    let mut last_type_line = String::new();
    let mut type_line = |out: &mut String, name: &str, kind: &str| {
        let line = format!("# TYPE {name} {kind}\n");
        if line != last_type_line {
            out.push_str(&line);
            last_type_line = line;
        }
    };

    for (id, v) in &snap.counters {
        type_line(&mut out, &id.name, "counter");
        let _ = writeln!(out, "{id} {v}");
    }
    for (id, v) in &snap.gauges {
        type_line(&mut out, &id.name, "gauge");
        let _ = writeln!(out, "{id} {v}");
    }
    for (id, h) in &snap.histograms {
        type_line(&mut out, &id.name, "histogram");
        for (le, cum) in h.cumulative() {
            let _ = writeln!(
                out,
                "{} {cum}",
                with_label(id, "_bucket", "le", &le.to_string())
            );
        }
        let _ = writeln!(
            out,
            "{} {}",
            with_label(id, "_bucket", "le", "+Inf"),
            h.count()
        );
        let _ = writeln!(out, "{} {}", with_suffix(id, "_sum"), h.sum);
        let _ = writeln!(out, "{} {}", with_suffix(id, "_count"), h.count());
        let _ = writeln!(out, "{} {}", with_suffix(id, "_max"), h.max);
    }
    out
}

fn with_suffix(id: &InstrumentId, suffix: &str) -> String {
    let mut renamed = id.clone();
    renamed.name.push_str(suffix);
    renamed.to_string()
}

fn with_label(id: &InstrumentId, suffix: &str, key: &str, value: &str) -> String {
    let mut renamed = id.clone();
    renamed.name.push_str(suffix);
    renamed.labels.push((key.to_owned(), value.to_owned()));
    renamed.labels.sort();
    renamed.to_string()
}

/// One parsed exposition line.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name (including any `_bucket`/`_sum`/`_count` suffix).
    pub name: String,
    /// Label pairs, in the order they appeared.
    pub labels: Vec<(String, String)>,
    /// The sample value. `le="+Inf"` labels parse fine; values are `f64`
    /// so counters above 2^53 lose precision (irrelevant at crawl scale).
    pub value: f64,
}

impl Sample {
    /// The value of one label, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Parse exposition text into samples. Comment (`#`) and blank lines are
/// skipped; any other malformed line is an error naming the line.
pub fn parse(text: &str) -> Result<Vec<Sample>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        out.push(parse_line(line).map_err(|e| format!("line {}: {e}: {line:?}", lineno + 1))?);
    }
    Ok(out)
}

fn parse_line(line: &str) -> Result<Sample, &'static str> {
    let (series, value) = line.rsplit_once(' ').ok_or("missing value")?;
    let value: f64 = value.parse().map_err(|_| "unparseable value")?;
    let series = series.trim();
    let (name, labels) = match series.split_once('{') {
        None => (series.to_owned(), Vec::new()),
        Some((name, rest)) => {
            let body = rest.strip_suffix('}').ok_or("unterminated label set")?;
            (name.to_owned(), parse_labels(body)?)
        }
    };
    if name.is_empty() {
        return Err("empty metric name");
    }
    Ok(Sample {
        name,
        labels,
        value,
    })
}

/// Parse a label-set body (`k="v",k2="v2"`), honouring quoting so values
/// may contain `,`, `=`, `{`/`}` and, via `\"`/`\\`/`\n` escapes, quotes,
/// backslashes and newlines — the inverse of the escaping applied by
/// [`InstrumentId`]'s `Display`.
fn parse_labels(body: &str) -> Result<Vec<(String, String)>, &'static str> {
    let mut labels = Vec::new();
    let mut chars = body.chars().peekable();
    loop {
        // Skip separators / trailing comma; stop at end of body.
        while chars.peek() == Some(&',') {
            chars.next();
        }
        if chars.peek().is_none() {
            return Ok(labels);
        }
        let mut key = String::new();
        loop {
            match chars.next() {
                Some('=') => break,
                Some(c) => key.push(c),
                None => return Err("label missing '='"),
            }
        }
        if chars.next() != Some('"') {
            return Err("label value not quoted");
        }
        let mut value = String::new();
        loop {
            match chars.next() {
                Some('"') => break,
                Some('\\') => match chars.next() {
                    Some('\\') => value.push('\\'),
                    Some('"') => value.push('"'),
                    Some('n') => value.push('\n'),
                    _ => return Err("bad escape in label value"),
                },
                Some(c) => value.push(c),
                None => return Err("unterminated label value"),
            }
        }
        labels.push((key, value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample_registry() -> Registry {
        let r = Registry::new();
        r.counter("marketscope_net_requests_total", &[("market", "huawei")])
            .add(12);
        r.counter("marketscope_net_requests_total", &[("market", "baidu")])
            .add(3);
        r.gauge("marketscope_net_live_connections", &[("market", "huawei")])
            .set(2);
        let h = r.histogram("marketscope_net_handler_nanos", &[("market", "huawei")]);
        for v in [100u64, 200, 50_000] {
            h.record(v);
        }
        r
    }

    #[test]
    fn render_parse_round_trip() {
        let r = sample_registry();
        let text = r.render();
        let samples = parse(&text).unwrap();

        let find = |name: &str, market: &str| -> f64 {
            samples
                .iter()
                .find(|s| s.name == name && s.label("market") == Some(market))
                .unwrap_or_else(|| panic!("missing {name} market={market}"))
                .value
        };
        assert_eq!(find("marketscope_net_requests_total", "huawei"), 12.0);
        assert_eq!(find("marketscope_net_requests_total", "baidu"), 3.0);
        assert_eq!(find("marketscope_net_live_connections", "huawei"), 2.0);
        assert_eq!(find("marketscope_net_handler_nanos_count", "huawei"), 3.0);
        assert_eq!(
            find("marketscope_net_handler_nanos_sum", "huawei"),
            50_300.0
        );
        assert_eq!(
            find("marketscope_net_handler_nanos_max", "huawei"),
            50_000.0
        );

        // The +Inf bucket equals the count.
        let inf = samples
            .iter()
            .find(|s| {
                s.name == "marketscope_net_handler_nanos_bucket" && s.label("le") == Some("+Inf")
            })
            .unwrap();
        assert_eq!(inf.value, 3.0);

        // Cumulative buckets are monotone.
        let mut buckets: Vec<(u64, f64)> = samples
            .iter()
            .filter(|s| s.name == "marketscope_net_handler_nanos_bucket")
            .filter_map(|s| Some((s.label("le")?.parse::<u64>().ok()?, s.value)))
            .collect();
        buckets.sort_by_key(|&(le, _)| le);
        let mut prev = 0.0;
        for (_, c) in buckets {
            assert!(c >= prev);
            prev = c;
        }
    }

    #[test]
    fn type_lines_appear_once_per_name() {
        let text = sample_registry().render();
        let type_lines: Vec<&str> = text.lines().filter(|l| l.starts_with("# TYPE")).collect();
        assert!(type_lines.contains(&"# TYPE marketscope_net_requests_total counter"));
        assert_eq!(
            type_lines.len(),
            type_lines
                .iter()
                .collect::<std::collections::BTreeSet<_>>()
                .len(),
            "duplicate TYPE lines in {text}"
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("no_value_here").is_err());
        assert!(parse("name{unterminated 3").is_err());
        assert!(parse("name{k=unquoted} 3").is_err());
        assert!(parse("name abc").is_err());
        // Comments and blanks are fine.
        assert_eq!(parse("# HELP x y\n\n").unwrap().len(), 0);
    }

    #[test]
    fn label_values_with_quotes_and_backslashes_round_trip() {
        let r = Registry::new();
        let values = [
            "plain",
            "has \"quotes\" inside",
            "trailing backslash \\",
            "mix \\\" of both",
            "comma, equals=, brace } {",
            "new\nline",
        ];
        for (i, v) in values.iter().enumerate() {
            r.counter("tricky_total", &[("v", v)]).add(i as u64 + 1);
        }
        let text = r.render();
        let samples = parse(&text).unwrap_or_else(|e| panic!("parse failed: {e}"));
        for (i, v) in values.iter().enumerate() {
            let s = samples
                .iter()
                .find(|s| s.label("v") == Some(*v))
                .unwrap_or_else(|| panic!("missing value {v:?} in:\n{text}"));
            assert_eq!(s.value, i as f64 + 1.0);
        }
    }

    #[test]
    fn parse_rejects_bad_escapes() {
        assert!(parse("name{k=\"bad \\x escape\"} 1").is_err());
        assert!(parse("name{k=\"unterminated} 1").is_err());
    }

    #[test]
    fn parse_handles_bare_names() {
        let s = parse("up 1").unwrap();
        assert_eq!(s[0].name, "up");
        assert!(s[0].labels.is_empty());
        assert_eq!(s[0].value, 1.0);
    }
}
