//! Query result tables and the row store they keep their rows in.
//!
//! A [`ResultTable`]'s rows are a [`Rows`]: row-major [`Value`] cells in
//! fixed-capacity chunks of `CHUNK_ROWS` (1 024) rows that are never
//! reallocated, so a row costs its cells and nothing else — no per-row heap
//! vector and no copy when the table grows. Only a table's first chunk
//! grows (doubling, up to the full size), so a small answer allocates at
//! most twice its cells, never a full chunk. Appending one table to another ([`Rows::append`], what the parallel join
//! drive's merge does with a fork's plain rows) moves the other's chunks and
//! copies no cell, so chunks other than the last may be partly filled;
//! equality, iteration and indexing never see where a chunk ends.

use std::ops::{Index, IndexMut};

use crate::governor::Warning;

use aiql_model::{Interner, Value};

/// Rows per chunk of a [`Rows`]: a chunk is allocated at this size and never
/// reallocated (only a table's first chunk grows to it).
const CHUNK_ROWS: usize = 1024;

/// A chunk of a [`Rows`]' row-major cells.
type Chunk = Vec<Value>;

/// The rows of a result table: see the module docs. Every row has the
/// width of the first row pushed into an empty store.
#[derive(Clone, Default)]
pub struct Rows {
    /// Cells per row.
    width: usize,
    /// Rows held.
    len: usize,
    /// The cells, in row order; a row never straddles two chunks.
    chunks: Vec<Chunk>,
}

impl Rows {
    /// An empty row store.
    pub fn new() -> Self {
        Rows::default()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a copy of `row`. The first row of an empty store sets its
    /// width; every later one must have it.
    pub fn push(&mut self, row: impl AsRef<[Value]>) {
        let row = row.as_ref();
        if self.len == 0 {
            self.width = row.len();
        }
        assert_eq!(
            row.len(),
            self.width,
            "a row's width differs from its table's"
        );
        self.len += 1;
        if self.width == 0 {
            return;
        }
        let (width, full) = (self.width, CHUNK_ROWS * self.width);
        let first = self.chunks.len() == 1;
        match self.chunks.last_mut() {
            Some(c) if c.capacity() - c.len() >= width => {}
            Some(c) if first && c.len() < full => c.reserve_exact(c.len().min(full - c.len())),
            last => {
                let cap = if last.is_none() { width } else { full };
                self.chunks.push(Vec::with_capacity(cap));
            }
        }
        let last = self.chunks.last_mut();
        last.expect("a chunk with room for the row")
            .extend_from_slice(row);
    }

    /// Moves every row of `other` after this store's rows: `other`'s chunks
    /// join this store's as they are, and no cell is copied.
    pub fn append(&mut self, other: Rows) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            *self = other;
            return;
        }
        assert_eq!(
            other.width, self.width,
            "a row's width differs from its table's"
        );
        // This store's last chunk takes no more rows, so it gives back its
        // spare capacity (a shrink the allocator does in place).
        if let Some(last) = self.chunks.last_mut() {
            last.shrink_to_fit();
        }
        self.len += other.len;
        self.chunks.extend(other.chunks);
    }

    /// Keeps the first `n` rows: whole chunks past the cut are dropped and
    /// the chunk it falls in is cut.
    pub fn truncate(&mut self, n: usize) {
        if n >= self.len {
            return;
        }
        self.len = n;
        let (mut left, mut kept) = (n * self.width, 0);
        for c in &mut self.chunks {
            if left == 0 {
                break;
            }
            let take = left.min(c.len());
            c.truncate(take);
            left -= take;
            kept += 1;
        }
        self.chunks.truncate(kept);
    }

    /// The rows in order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            chunks: self.chunks.iter(),
            cells: &[],
            width: self.width,
            left: self.len,
        }
    }

    /// The chunk and cell offset row `i` starts at (a walk over the chunks).
    fn locate(&self, i: usize) -> (usize, usize) {
        assert!(i < self.len, "row {i} of a table of {} rows", self.len);
        let mut cell = i * self.width;
        for (c, chunk) in self.chunks.iter().enumerate() {
            if cell < chunk.len() {
                return (c, cell);
            }
            cell -= chunk.len();
        }
        (self.chunks.len(), 0)
    }
}

/// Iterator over a [`Rows`]' rows.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    chunks: std::slice::Iter<'a, Chunk>,
    /// The rest of the current chunk.
    cells: &'a [Value],
    width: usize,
    /// Rows not yet yielded.
    left: usize,
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a [Value];

    #[inline]
    fn next(&mut self) -> Option<&'a [Value]> {
        if self.left == 0 {
            return None;
        }
        while self.cells.len() < self.width {
            self.cells = self.chunks.next()?;
        }
        let (row, rest) = self.cells.split_at(self.width);
        self.cells = rest;
        self.left -= 1;
        Some(row)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a Rows {
    type Item = &'a [Value];
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl<R: AsRef<[Value]>> FromIterator<R> for Rows {
    fn from_iter<I: IntoIterator<Item = R>>(rows: I) -> Self {
        let mut out = Rows::new();
        rows.into_iter().for_each(|r| out.push(r));
        out
    }
}

impl Index<usize> for Rows {
    type Output = [Value];

    fn index(&self, i: usize) -> &[Value] {
        let (c, at) = self.locate(i);
        match self.chunks.get(c) {
            Some(chunk) => &chunk[at..at + self.width],
            None => &[],
        }
    }
}

impl IndexMut<usize> for Rows {
    fn index_mut(&mut self, i: usize) -> &mut [Value] {
        let (c, at) = self.locate(i);
        let width = self.width;
        match self.chunks.get_mut(c) {
            Some(chunk) => &mut chunk[at..at + width],
            None => &mut [],
        }
    }
}

/// Equal when the rows are: where the chunks end is not compared.
impl PartialEq for Rows {
    fn eq(&self, other: &Rows) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl std::fmt::Debug for Rows {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A materialized query result: named columns and rows of dynamic values.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultTable {
    /// Column headers (return item aliases or rendered expressions).
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Rows,
    /// True when the table holds a prefix of the full answer: exactly when
    /// `warnings` is non-empty (the engine's tables keep that rule).
    pub truncated: bool,
    /// Why the answer was cut, one warning per cause: the join's tuple cap
    /// ([`Warning::TupleCap`]), or a budget a `partial_results` execution
    /// hit.
    pub warnings: Vec<Warning>,
}

impl ResultTable {
    /// Creates an empty table with the given columns.
    pub fn new(columns: Vec<String>) -> Self {
        ResultTable {
            columns,
            rows: Rows::new(),
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

    /// Sorts rows by their canonical keys (test helper for set comparison):
    /// a stable sort of the rows' order, then one gather.
    pub fn normalized(mut self) -> Self {
        let mut order: Vec<(String, &[Value])> =
            self.rows.iter().map(|r| (Self::row_key(r), r)).collect();
        order.sort_by(|x, y| x.0.cmp(&y.0));
        let rows = order.into_iter().map(|(_, r)| r).collect();
        self.rows = rows;
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

    /// Over several chunks, with repeats, `normalized` orders the same rows
    /// by `row_key`.
    #[test]
    fn normalized_sorts_many_chunks_by_row_key() {
        let n = 2 * CHUNK_ROWS + 100;
        let mut t = ResultTable::new(vec!["x".into(), "y".into()]);
        for start in (0..n).step_by(700) {
            let part: Rows = (start..(start + 700).min(n))
                .map(|i| [Value::Int((i * 7919 % 613) as i64), Value::Bool(i % 3 == 0)])
                .collect();
            t.rows.append(part);
        }
        let mut want: Vec<(String, &[Value])> = t
            .rows
            .iter()
            .map(|r| (ResultTable::row_key(r), r))
            .collect();
        want.sort_by(|x, y| x.0.cmp(&y.0));
        let want: Rows = want.into_iter().map(|(_, r)| r).collect();
        let got = t.clone().normalized().rows;
        assert_eq!(got, want);
        let keys: Vec<String> = got.iter().map(ResultTable::row_key).collect();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]) && keys.len() == n);
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

    /// `n` rows of width 3, each distinct.
    fn numbered(n: usize) -> Rows {
        (0..n as i64)
            .map(|i| [Value::Int(i), Value::Int(-i), Value::Bool(i % 2 == 0)])
            .collect()
    }

    /// The same rows built whole and as merges of runs of 1, 7 and 1 025
    /// rows are equal, iterate, index and print alike, however their chunks
    /// fall.
    #[test]
    fn rows_equal_themselves_however_they_are_split() {
        let n = 3 * CHUNK_ROWS + 11;
        let whole = numbered(n);
        assert_eq!(whole.chunks.len(), 4, "full chunks, then the rest");
        let small = numbered(3);
        assert_eq!(small.chunks.len(), 1, "a small table is one chunk");
        assert!(small.chunks[0].capacity() <= 2 * 3 * 3, "that grew to fit");
        for run in [1, 7, CHUNK_ROWS + 1] {
            let (mut merged, mut moved) = (Rows::new(), 0);
            for start in (0..n).step_by(run) {
                let part: Rows = whole.iter().skip(start).take(run).collect();
                moved += part.chunks.len();
                merged.append(part);
            }
            assert_eq!(merged, whole, "runs of {run}");
            assert_eq!(merged.len(), n);
            assert_eq!(merged.chunks.len(), moved, "the parts' chunks moved");
            assert!(merged.iter().eq(whole.iter()));
            assert_eq!(merged.iter().len(), n);
            assert_eq!(format!("{merged:?}"), format!("{whole:?}"));
            for i in [0, 1, run - 1, run, CHUNK_ROWS - 1, CHUNK_ROWS, n - 1] {
                assert_eq!(&merged[i], &whole[i], "row {i}, runs of {run}");
            }
            // Pushing after a merge, then cutting anywhere, keeps the rows.
            let mut more = merged.clone();
            more.push([Value::Null, Value::Null, Value::Null]);
            assert_eq!(more.len(), n + 1);
            assert_eq!(more[n], [Value::Null; 3][..]);
            for k in [0, 1, run, CHUNK_ROWS + 5, n] {
                let mut cut = more.clone();
                cut.truncate(k);
                let want: Rows = whole.iter().take(k).collect();
                assert_eq!(cut, want, "first {k} of runs of {run}");
            }
        }
        assert_ne!(numbered(5), numbered(6));
        assert_eq!(Rows::new(), numbered(0));
    }

    /// `IndexMut` writes the row `Index` reads, on both sides of a chunk
    /// boundary and in a merged table's partly filled first chunk.
    #[test]
    fn rows_index_across_chunk_boundaries() {
        let mut rows = numbered(7);
        rows.append(numbered(2 * CHUNK_ROWS));
        let edge = 7 + CHUNK_ROWS;
        let marks = [0, 6, 7, 8, edge - 1, edge, 2 * CHUNK_ROWS + 6];
        let mark = |i: usize| Value::Str(aiql_model::Symbol(i as u32));
        for i in marks {
            rows[i][1] = mark(i);
        }
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row[1] == mark(i), marks.contains(&i), "row {i}");
            assert_eq!(&rows[i], row);
        }
    }

    /// A zero-width table still counts its rows.
    #[test]
    fn rows_of_no_columns_count() {
        let mut rows = Rows::new();
        (0..3).for_each(|_| rows.push([]));
        assert_eq!((rows.len(), rows.iter().count()), (3, 3));
        assert!(rows[2].is_empty());
    }

    #[test]
    fn truncated_flag_rendered() {
        let mut interner = Interner::new();
        interner.intern("x");
        let mut t = ResultTable::new(vec!["c".into()]);
        t.warnings.push(Warning::Cancelled);
        t.truncated = true;
        let text = t.render(&interner);
        assert!(text.contains("(truncated)") && text.contains("query cancelled"));
    }
}
