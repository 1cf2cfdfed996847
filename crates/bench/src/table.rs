//! Aligned console tables + CSV output for the figure/table binaries.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// A simple text table with aligned columns.
#[derive(Debug, Clone, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    ///
    /// # Panics
    ///
    /// Panics on column-count mismatch.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "column count mismatch");
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as aligned text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, (cell, w)) in cells.iter().zip(widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let pad = w - cell.chars().count();
                out.push_str(cell);
                out.push_str(&" ".repeat(pad));
            }
            out.push('\n');
        };
        fmt_row(&self.headers, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            fmt_row(row, &widths, &mut out);
        }
        out
    }

    /// Renders as CSV.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |c: &str| {
            if c.contains(',') || c.contains('"') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.to_string()
            }
        };
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Prints the table and writes it to `results/<name>.csv` under the
    /// current directory, creating `results/` if it is missing. Printing
    /// is the primary output, so a failed write is reported on stderr
    /// rather than ending the run.
    pub fn emit(&self, name: &str) {
        println!("{}", self.render());
        let dir = Path::new("results");
        let path = dir.join(format!("{name}.csv"));
        if let Err(e) = fs::create_dir_all(dir).and_then(|()| fs::write(&path, self.to_csv())) {
            eprintln!("could not write {}: {e}", path.display());
        }
    }
}

/// Formats a ratio as `123.4x`.
#[must_use]
pub fn ratio(x: f64) -> String {
    if x >= 100.0 {
        format!("{x:.0}x")
    } else if x >= 10.0 {
        format!("{x:.1}x")
    } else {
        format!("{x:.2}x")
    }
}

/// Formats a fraction as a percentage.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:.2}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new(["a", "long-header"]);
        t.row(["xxxxxx", "1"]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("a     "));
        assert!(lines[2].starts_with("xxxxxx"));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn mismatched_row_panics() {
        Table::new(["a", "b"]).row(["only one"]);
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new(["x"]);
        t.row(["a,b"]);
        assert!(t.to_csv().contains("\"a,b\""));
    }

    #[test]
    fn ratio_formatting() {
        assert_eq!(ratio(326.4), "326x");
        assert_eq!(ratio(32.64), "32.6x");
        assert_eq!(ratio(3.264), "3.26x");
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(pct(0.1075), "10.75%");
    }
}
