//! Plain-text table rendering and summary statistics for the
//! figure/table harness binaries.

/// Geometric mean of positive values; 0 for empty input.
pub(crate) fn gmean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// A simple fixed-width text table.
#[derive(Debug, Clone, Default)]
pub(crate) struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub(crate) fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header width).
    ///
    /// # Panics
    ///
    /// Panics on column-count mismatch.
    pub(crate) fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| -> String {
            let mut s = String::new();
            for i in 0..cols {
                if i > 0 {
                    s.push_str("  ");
                }
                let pad = widths[i] - cells[i].len();
                if i == 0 {
                    s.push_str(&cells[i]);
                    s.push_str(&" ".repeat(pad));
                } else {
                    s.push_str(&" ".repeat(pad));
                    s.push_str(&cells[i]);
                }
            }
            s
        };
        let mut out = line(&self.header);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&line(r));
            out.push('\n');
        }
        out
    }
}

/// Formats a ratio like `1.07x`.
pub(crate) fn ratio(v: f64) -> String {
    format!("{v:.2}x")
}

/// Formats a percentage like `77%`.
pub(crate) fn pct(v: f64) -> String {
    format!("{:.0}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gmean_of_identity_is_identity() {
        assert!((gmean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-9);
        assert_eq!(gmean(&[]), 0.0);
    }

    #[test]
    fn gmean_is_between_min_and_max() {
        let g = gmean(&[1.0, 4.0]);
        assert!((g - 2.0).abs() < 1e-9);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["bench", "value"]);
        t.row(vec!["activity".into(), "1.07x".into()]);
        t.row(vec!["cem".into(), "2.50x".into()]);
        let s = t.render();
        assert!(s.contains("bench"));
        assert!(s.contains("activity"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[2].len(), lines[3].len(), "aligned columns");
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ratio(1.066), "1.07x");
        assert_eq!(pct(0.77), "77%");
    }
}
