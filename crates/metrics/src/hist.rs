//! Labelled histograms (categorical bar data behind Figures 1–4, 11, 12).

use std::collections::BTreeMap;

/// A histogram over string labels, in the order they were first added.
#[derive(Debug, Clone, Default)]
pub struct LabelledHistogram {
    order: Vec<String>,
    counts: BTreeMap<String, u64>,
}

impl LabelledHistogram {
    /// Empty histogram with no predefined labels.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to a label's count (new labels are appended to the order).
    pub fn add(&mut self, label: &str, n: u64) {
        if !self.counts.contains_key(label) {
            self.order.push(label.to_owned());
        }
        *self.counts.entry(label.to_owned()).or_insert(0) += n;
    }

    /// Increment a label.
    pub fn bump(&mut self, label: &str) {
        self.add(label, 1);
    }

    /// Count for a label (0 if absent).
    pub fn count(&self, label: &str) -> u64 {
        self.counts.get(label).copied().unwrap_or(0)
    }

    /// Total over all labels.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// `(label, count)` pairs in declared/insertion order.
    pub fn entries(&self) -> impl Iterator<Item = (&str, u64)> {
        self.order.iter().map(move |l| (l.as_str(), self.count(l)))
    }

    /// `(label, share)` pairs; shares sum to 1 when non-empty.
    pub fn shares(&self) -> Vec<(String, f64)> {
        let total = self.total();
        self.order
            .iter()
            .map(|l| {
                let share = if total == 0 {
                    0.0
                } else {
                    self.count(l) as f64 / total as f64
                };
                (l.clone(), share)
            })
            .collect()
    }

    /// Labels sorted by descending count (for "top N" figures).
    pub fn ranked(&self) -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> = self
            .order
            .iter()
            .map(|l| (l.clone(), self.count(l)))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    }

    /// Render as a unicode bar chart, one row per label.
    pub fn render(&self, width: usize) -> String {
        let max = self.counts.values().copied().max().unwrap_or(0).max(1);
        let label_w = self.order.iter().map(String::len).max().unwrap_or(0);
        let mut out = String::new();
        for (label, count) in self.entries() {
            let bar_len = (count as f64 / max as f64 * width as f64).round() as usize;
            out.push_str(&format!(
                "{label:<label_w$} | {} {count}\n",
                "█".repeat(bar_len)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_and_shares() {
        let mut h = LabelledHistogram::new();
        h.bump("a");
        h.bump("a");
        h.add("b", 2);
        assert_eq!(h.count("a"), 2);
        assert_eq!(h.count("missing"), 0);
        assert_eq!(h.total(), 4);
        let shares = h.shares();
        assert_eq!(shares[0], ("a".into(), 0.5));
        let total: f64 = shares.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn insertion_order_is_preserved() {
        let mut h = LabelledHistogram::new();
        h.bump("z");
        h.bump("a");
        h.bump("m");
        let labels: Vec<&str> = h.entries().map(|(l, _)| l).collect();
        assert_eq!(labels, vec!["z", "a", "m"]);
    }

    #[test]
    fn ranked_sorts_by_count_then_label() {
        let mut h = LabelledHistogram::new();
        h.add("b", 5);
        h.add("a", 5);
        h.add("c", 9);
        let ranked = h.ranked();
        assert_eq!(ranked[0].0, "c");
        assert_eq!(ranked[1].0, "a"); // ties break alphabetically
    }

    #[test]
    fn render_contains_labels_and_bars() {
        let mut h = LabelledHistogram::new();
        h.add("games", 10);
        h.add("tools", 5);
        let s = h.render(10);
        assert!(s.contains("games"));
        assert!(s.contains("██████████"));
        assert!(s.lines().count() == 2);
    }
}
