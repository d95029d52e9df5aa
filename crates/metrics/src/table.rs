//! ASCII table rendering (Tables 1–6).

/// A simple column-aligned text table.
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new(header: impl IntoIterator<Item = impl Into<String>>) -> Table {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; short rows are padded with empty cells, long rows
    /// are truncated to the header width.
    pub fn row(&mut self, cells: impl IntoIterator<Item = impl Into<String>>) -> &mut Table {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Render with a header underline; first column left-aligned, the
    /// rest right-aligned (numeric convention).
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| display_width(h)).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(display_width(cell));
            }
        }
        let mut out = String::new();
        let mut line = String::new();
        for (i, h) in self.header.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&pad(h, widths[i], i == 0));
        }
        out.push_str(line.trim_end());
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1))));
        out.push('\n');
        for row in &self.rows {
            let mut line = String::new();
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&pad(cell, widths[i], i == 0));
            }
            out.push_str(line.trim_end());
            out.push('\n');
        }
        out
    }
}

fn display_width(s: &str) -> usize {
    s.chars().count()
}

fn pad(s: &str, width: usize, left: bool) -> String {
    let w = display_width(s);
    let fill = " ".repeat(width.saturating_sub(w));
    if left {
        format!("{s}{fill}")
    } else {
        format!("{fill}{s}")
    }
}

/// Format a fraction as a percentage with two decimals (the paper's
/// table style).
pub fn pct(fraction: f64) -> String {
    format!("{:.2}%", fraction * 100.0)
}

/// Format a large count with thousands separators.
pub fn count(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i) % 3 == 0 {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(["Market", "Apps", "%"]);
        t.row(["Google Play", "2031946", "57.04"]);
        t.row(["25PP", "1013208", "19.06"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].starts_with("Market"));
        assert!(lines[1].starts_with("---"));
        assert!(lines[2].contains("Google Play"));
        // Right-aligned numeric columns: both data rows end at same width.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn pads_and_truncates_rows() {
        let mut t = Table::new(["a", "b"]);
        t.row(["1"]);
        t.row(["1", "2", "3"]);
        assert_eq!(t.rows.len(), 2);
        let s = t.render();
        assert!(!s.contains('3'), "extra cell must be dropped");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.5704), "57.04%");
        assert_eq!(pct(0.0), "0.00%");
        assert_eq!(count(0), "0");
        assert_eq!(count(6_267_247), "6,267,247");
    }

    #[test]
    fn empty_table_renders_header_only() {
        let t = Table::new(["x"]);
        assert!(t.rows.is_empty());
        assert_eq!(t.render().lines().count(), 2);
    }

    #[test]
    fn unicode_labels_align() {
        let mut t = Table::new(["名字", "n"]);
        t.row(["酷狗音乐", "1"]);
        let s = t.render();
        assert!(s.contains("酷狗音乐"));
    }
}
