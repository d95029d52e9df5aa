//! The clone-flow heatmap (Figure 10): origin market × destination market.

/// A square counts matrix with row/column labels.
#[derive(Debug, Clone)]
pub struct Heatmap {
    labels: Vec<String>,
    counts: Vec<u64>,
}

impl Heatmap {
    /// An all-zero heatmap over `labels` (rows = origins, columns =
    /// destinations).
    pub fn new(labels: impl IntoIterator<Item = impl Into<String>>) -> Heatmap {
        let labels: Vec<String> = labels.into_iter().map(Into::into).collect();
        let n = labels.len();
        Heatmap {
            labels,
            counts: vec![0; n * n],
        }
    }

    /// Matrix dimension.
    pub(crate) fn dim(&self) -> usize {
        self.labels.len()
    }

    /// Add to the `(origin, destination)` cell.
    pub fn add(&mut self, origin: usize, destination: usize, n: u64) {
        let d = self.dim();
        assert!(origin < d && destination < d, "cell out of range");
        self.counts[origin * d + destination] += n;
    }

    /// Cell value.
    pub(crate) fn get(&self, origin: usize, destination: usize) -> u64 {
        self.counts[origin * self.dim() + destination]
    }

    /// Total over a row (everything cloned *from* `origin`).
    pub fn row_total(&self, origin: usize) -> u64 {
        (0..self.dim()).map(|j| self.get(origin, j)).sum()
    }

    /// Total over a column (everything cloned *into* `destination`).
    pub fn col_total(&self, destination: usize) -> u64 {
        (0..self.dim()).map(|i| self.get(i, destination)).sum()
    }

    /// Sum of the diagonal (intra-market clones).
    pub fn diagonal_total(&self) -> u64 {
        (0..self.dim()).map(|i| self.get(i, i)).sum()
    }

    /// Grand total.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Render with shade characters binned like the paper's legend.
    pub fn render(&self) -> String {
        let label_w = self
            .labels
            .iter()
            .map(|l| l.chars().count())
            .max()
            .unwrap_or(0);
        let max = self.counts.iter().copied().max().unwrap_or(0).max(1);
        let shade = |v: u64| -> char {
            if v == 0 {
                '·'
            } else {
                let bins = ['░', '▒', '▓', '█'];
                let idx = ((v as f64 / max as f64) * 3.99) as usize;
                bins[idx.min(3)]
            }
        };
        let mut out = String::new();
        out.push_str(&format!("{:label_w$}  {}\n", "", "dest →"));
        for (i, l) in self.labels.iter().enumerate() {
            let cells: String = (0..self.dim()).map(|j| shade(self.get(i, j))).collect();
            out.push_str(&format!("{l:label_w$}  {cells}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hm() -> Heatmap {
        let mut h = Heatmap::new(["gp", "tencent", "pp25"]);
        h.add(0, 2, 10); // GP → 25PP
        h.add(1, 1, 5); // intra-Tencent
        h.add(0, 1, 3);
        h
    }

    #[test]
    fn totals() {
        let h = hm();
        assert_eq!(h.get(0, 2), 10);
        assert_eq!(h.row_total(0), 13);
        assert_eq!(h.col_total(1), 8);
        assert_eq!(h.diagonal_total(), 5);
        assert_eq!(h.total(), 18);
    }

    #[test]
    #[should_panic]
    fn out_of_range_panics() {
        let mut h = hm();
        h.add(3, 0, 1);
    }

    #[test]
    fn render_shapes() {
        let h = hm();
        let s = h.render();
        assert_eq!(s.lines().count(), 4);
        assert!(s.contains("tencent"));
        assert!(s.contains('█'));
        assert!(s.contains('·'));
    }

    #[test]
    fn empty_heatmap_renders() {
        let h = Heatmap::new(["a", "b"]);
        assert_eq!(h.total(), 0);
        assert!(h.render().contains('·'));
    }
}
