//! Plain-text and JSON rendering of experiment tables.
//!
//! Every experiment binary prints a paper-style table to stdout and writes
//! the same rows as JSON under `reports/`, which EXPERIMENTS.md references.

use serde::Serialize;
use std::path::Path;

/// A simple column-aligned table with a caption.
#[derive(Debug, Clone, Serialize)]
pub struct TableReport {
    /// Table caption, e.g. "Table II — testing accuracy".
    pub caption: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Row cells (already formatted).
    pub rows: Vec<Vec<String>>,
}

impl TableReport {
    /// Creates an empty table.
    #[must_use]
    pub fn new(caption: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            caption: caption.into(),
            headers: headers.iter().map(|&h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    pub fn push_row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Renders the aligned plain-text form.
    #[must_use]
    pub fn render(&self) -> String {
        let n_cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&self.caption);
        out.push('\n');
        let sep_len: usize = widths.iter().sum::<usize>() + 3 * n_cols.saturating_sub(1);
        out.push_str(&"=".repeat(sep_len.max(self.caption.len())));
        out.push('\n');
        let render_row = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, &w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join(" | ")
        };
        out.push_str(&render_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(sep_len.max(1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row));
            out.push('\n');
        }
        out
    }

    /// Writes the table as pretty JSON.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        write_json(path, self)
    }
}

/// Writes `value` (a table, or several) as pretty JSON to `path`,
/// creating its parent directories.
pub fn write_json(path: &Path, value: &(impl Serialize + ?Sized)) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let json = serde_json::to_string_pretty(value).map_err(std::io::Error::other)?;
    std::fs::write(path, json)
}

/// Formats a fraction as the paper prints accuracies: `79.66%`.
#[must_use]
pub fn pct(value: f64) -> String {
    format!("{:.2}%", value * 100.0)
}

/// Formats a metric as the paper prints precision/recall/etc.: `0.829`.
#[must_use]
pub fn metric3(value: f64) -> String {
    format!("{value:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = TableReport::new("Demo", &["Model", "Acc"]);
        t.push_row(vec!["Random Forest".into(), "79.66%".into()]);
        t.push_row(vec!["KNN".into(), "75.42%".into()]);
        let s = t.render();
        assert!(s.contains("Demo"));
        let lines: Vec<&str> = s.lines().collect();
        // Header and rows share the same `|` position.
        let bar = lines[2].find('|').unwrap();
        assert_eq!(lines[4].find('|').unwrap(), bar);
        assert_eq!(lines[5].find('|').unwrap(), bar);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.7966), "79.66%");
        assert_eq!(metric3(0.8291), "0.829");
        assert_eq!(pct(1.0), "100.00%");
    }

    #[test]
    fn json_roundtrip_to_disk() {
        let mut t = TableReport::new("JsonDemo", &["A"]);
        t.push_row(vec!["1".into()]);
        let dir = std::env::temp_dir().join("hyperfex_report_test");
        let path = dir.join("t.json");
        t.write_json(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("JsonDemo"));
        std::fs::remove_file(&path).ok();
    }
}
