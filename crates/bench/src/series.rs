//! Plain-text table output shared by the experiment harnesses.
//!
//! Every `fig*` binary prints a header block (experiment id, parameters)
//! followed by a TSV table — the same rows/series the paper's figures plot,
//! ready for gnuplot or a spreadsheet.

use std::fmt::Write as _;

/// A table with named columns accumulating rows of `f64` cells.
///
/// # Example
///
/// ```
/// use xsearch_bench::series::Table;
///
/// let mut t = Table::new("fig4", &["k", "precision", "recall"]);
/// t.row(&[0.0, 1.0, 1.0]);
/// t.row(&[1.0, 0.93, 0.95]);
/// let out = t.render();
/// assert!(out.contains("k\tprecision\trecall"));
/// assert!(out.lines().count() >= 4);
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<f64>>,
    notes: Vec<String>,
}

impl Table {
    /// Creates a table titled `title` with the given column names.
    #[must_use]
    pub fn new(title: &str, columns: &[&str]) -> Self {
        Table {
            title: title.to_owned(),
            columns: columns.iter().map(|c| (*c).to_owned()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a free-form note printed above the header.
    pub fn note(&mut self, note: &str) {
        self.notes.push(note.to_owned());
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the column count.
    pub fn row(&mut self, cells: &[f64]) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width mismatch in table {}",
            self.title
        );
        self.rows.push(cells.to_vec());
    }

    /// Renders the table: `# title`, `# notes...`, TSV header, TSV rows.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        for n in &self.notes {
            let _ = writeln!(out, "# {n}");
        }
        let _ = writeln!(out, "{}", self.columns.join("\t"));
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|v| format_cell(*v)).collect();
            let _ = writeln!(out, "{}", cells.join("\t"));
        }
        out
    }

    /// Renders to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a cell compactly: integers without decimals, small values with
/// enough precision to be replotted.
fn format_cell(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else if v.abs() >= 0.01 {
        format!("{v:.4}")
    } else {
        format!("{v:.6}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_header_and_rows() {
        let mut t = Table::new("fig3", &["k", "rate"]);
        t.note("dataset=synthetic");
        t.row(&[0.0, 0.4]);
        t.row(&[1.0, 0.16]);
        let out = t.render();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "# fig3");
        assert_eq!(lines[1], "# dataset=synthetic");
        assert_eq!(lines[2], "k\trate");
        assert_eq!(lines[3], "0\t0.4000");
        assert_eq!(lines[4], "1\t0.1600");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_row_panics() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&[1.0]);
    }

    #[test]
    fn integers_render_without_decimals() {
        assert_eq!(format_cell(25000.0), "25000");
        assert_eq!(format_cell(0.5), "0.5000");
        assert_eq!(format_cell(0.00123), "0.001230");
    }

    #[test]
    fn empty_table_still_renders_header() {
        let t = Table::new("t", &["only"]);
        assert!(t.render().contains("only"));
    }
}
