//! Text-table and JSON rendering for experiment outputs.

use serde::Serialize;
use std::fmt::Write as _;

/// A simple aligned text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// New table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders with padded columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                let _ = write!(out, "{cell:<w$}");
                if i + 1 < cols {
                    out.push_str("  ");
                }
            }
            out.push('\n');
        };
        write_row(&mut out, &self.header);
        let rule: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(rule));
        out.push('\n');
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }
}

/// Formats a ratio as a signed percentage ("−12.9%").
pub fn pct(ratio: f64) -> String {
    format!("{:+.1}%", ratio * 100.0)
}

/// Formats a plain fraction as a percentage ("49.2%").
pub fn frac(f: f64) -> String {
    format!("{:.1}%", f * 100.0)
}

/// Serialises a value as pretty JSON (for machine-readable experiment
/// outputs alongside the text tables).
pub fn to_json<T: Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("experiment outputs are serialisable")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(vec!["name", "value"]);
        t.row(vec!["short", "1"]);
        t.row(vec!["a-much-longer-name", "2"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].contains("short"));
        // Columns align: "value" and the numbers start at the same offset.
        let col = lines[0].find("value").unwrap();
        assert_eq!(lines[2].chars().nth(col), Some('1'));
        assert_eq!(lines[3].chars().nth(col), Some('2'));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }

    #[test]
    fn percentage_formatting() {
        assert_eq!(pct(-0.129), "-12.9%");
        assert_eq!(pct(0.4), "+40.0%");
        assert_eq!(frac(0.958), "95.8%");
    }

    #[test]
    fn json_roundtrips() {
        #[derive(serde::Serialize)]
        struct Row {
            x: u32,
        }
        assert!(to_json(&Row { x: 7 }).contains("\"x\": 7"));
    }

    #[test]
    fn a_table_without_rows_renders_its_header_and_rule() {
        let t = TextTable::new(vec!["config", "EPI"]);
        assert_eq!(t.render(), "config  EPI\n-----------\n");
    }

    #[test]
    fn the_rule_spans_every_column_and_separator() {
        let mut t = TextTable::new(vec!["a", "b", "c"]);
        t.row(vec!["xxxx", "y", "zz"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        // Widths 4 + 1 + 2, two 2-space separators; no trailing padding
        // after the last column beyond its own width.
        assert_eq!(lines[1], "-".repeat(11));
        assert_eq!(lines[2], "xxxx  y  zz");
        assert_eq!(lines[0], "a     b  c ");
    }
}
