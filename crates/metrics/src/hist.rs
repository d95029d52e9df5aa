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
    pub(crate) fn add(&mut self, label: &str, n: u64) {
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
    pub(crate) fn count(&self, label: &str) -> u64 {
        self.counts.get(label).copied().unwrap_or(0)
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
        assert_eq!(h.counts.values().sum::<u64>(), 4);
    }

    #[test]
    fn insertion_order_is_preserved() {
        let mut h = LabelledHistogram::new();
        h.bump("z");
        h.bump("a");
        h.bump("m");
        let labels: Vec<&str> = h.order.iter().map(String::as_str).collect();
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
}
