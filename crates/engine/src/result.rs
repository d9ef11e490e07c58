//! Query result tables.

use crate::governor::Warning;

use aiql_model::{Interner, Value};

/// A materialized query result: named columns and rows of dynamic values.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultTable {
    /// Column headers (return item aliases or rendered expressions).
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<Value>>,
    /// True when the engine truncated intermediate results at its cap.
    pub truncated: bool,
    /// Governor warnings: set when `partial_results` execution hit a
    /// budget and the table holds a prefix of the full answer.
    pub warnings: Vec<Warning>,
}

impl ResultTable {
    /// Creates an empty table with the given columns.
    pub fn new(columns: Vec<String>) -> Self {
        ResultTable {
            columns,
            rows: Vec::new(),
            truncated: false,
            warnings: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as aligned ASCII (the web UI's interactive table,
    /// in terminal form), resolving interned strings through `interner`.
    pub fn render(&self, interner: &Interner) -> String {
        let mut cells: Vec<Vec<String>> = Vec::with_capacity(self.rows.len() + 1);
        cells.push(self.columns.clone());
        for row in &self.rows {
            cells.push(row.iter().map(|v| v.render(interner)).collect());
        }
        let ncols = self.columns.len().max(1);
        let mut widths = vec![0usize; ncols];
        for row in &cells {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        for (r, row) in cells.iter().enumerate() {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, cell)| format!("{cell:<width$}", width = widths[i]))
                .collect();
            out.push_str(line.join(" | ").trim_end());
            out.push('\n');
            if r == 0 {
                let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
                out.push_str(&sep.join("-+-"));
                out.push('\n');
            }
        }
        if self.truncated {
            out.push_str("(truncated)\n");
        }
        for w in &self.warnings {
            out.push_str(&format!("(warning: {w})\n"));
        }
        out
    }

    /// Exports the table as CSV (RFC-4180 quoting), resolving interned
    /// strings through `interner` — the web UI's result-download feature.
    pub fn to_csv(&self, interner: &Interner) -> String {
        fn field(s: &str) -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        let header: Vec<String> = self.columns.iter().map(|c| field(c)).collect();
        out.push_str(&header.join(","));
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|v| field(&v.render(interner))).collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }

    /// Canonical key for a row, used for `distinct` and for order-insensitive
    /// result comparison in tests.
    pub fn row_key(row: &[Value]) -> String {
        use std::fmt::Write as _;
        let mut key = String::new();
        for v in row {
            let _ = write!(key, "{v:?}\u{1f}");
        }
        key
    }

    /// Sorts rows by their canonical keys (test helper for set comparison).
    pub fn normalized(mut self) -> Self {
        self.rows.sort_by_cached_key(|r| Self::row_key(r));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut interner = Interner::new();
        let s = interner.intern("powershell.exe");
        let mut t = ResultTable::new(vec!["p".into(), "amt".into()]);
        t.rows.push(vec![Value::Str(s), Value::Float(1234.5)]);
        t.rows
            .push(vec![Value::Str(interner.intern("x")), Value::Int(7)]);
        let text = t.render(&interner);
        assert!(text.contains("powershell.exe"));
        assert!(text.lines().count() >= 4);
        let header = text.lines().next().unwrap();
        assert!(header.contains("p"));
        assert!(header.contains("amt"));
    }

    #[test]
    fn row_keys_distinguish_types() {
        assert_ne!(
            ResultTable::row_key(&[Value::Int(1)]),
            ResultTable::row_key(&[Value::Float(1.0)])
        );
        assert_eq!(
            ResultTable::row_key(&[Value::Int(1), Value::Bool(true)]),
            ResultTable::row_key(&[Value::Int(1), Value::Bool(true)])
        );
    }

    #[test]
    fn normalized_sorts_rows() {
        let mut t = ResultTable::new(vec!["x".into()]);
        t.rows.push(vec![Value::Int(2)]);
        t.rows.push(vec![Value::Int(1)]);
        let n = t.normalized();
        assert_eq!(n.rows[0][0], Value::Int(1));
    }

    #[test]
    fn csv_export_quotes_correctly() {
        let mut interner = Interner::new();
        let tricky = interner.intern("a,b \"quoted\"");
        let mut t = ResultTable::new(vec!["p".into(), "n".into()]);
        t.rows.push(vec![Value::Str(tricky), Value::Int(7)]);
        let csv = t.to_csv(&interner);
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("p,n"));
        assert_eq!(lines.next(), Some("\"a,b \"\"quoted\"\"\",7"));
    }

    #[test]
    fn truncated_flag_rendered() {
        let mut interner = Interner::new();
        interner.intern("x");
        let mut t = ResultTable::new(vec!["c".into()]);
        t.truncated = true;
        assert!(t.render(&interner).contains("truncated"));
    }
}
