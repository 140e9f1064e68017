//! Plain-text tables in the one page layout every experiment's result file
//! uses, and the one JSON row format the `BENCH_*.json` files share.

use crate::Output;
use std::fmt::Write as _;

/// A simple fixed-width text table.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header arity).
    ///
    /// # Panics
    ///
    /// Panics if the arity differs from the header.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(out, "{:>width$}  ", c, width = widths[i]);
            }
            out.push('\n');
        };
        line(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * cols;
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }
}

/// A result page: `title`, a blank line, the table, a blank line, `footer`.
pub(crate) fn page(title: &str, table: &Table, footer: &str) -> Output {
    format!("{title}\n\n{}\n{footer}", table.render()).into()
}

/// The text [`write_json_rows`] writes.
fn json_rows(bench: &str, rows: &[String]) -> String {
    let mut out = format!("{{\n  \"bench\": \"{bench}\",\n  \"rows\": [\n");
    for (i, cells) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(out, "    {{{cells}}}{sep}");
    }
    out.push_str("  ]\n}\n");
    out
}

/// Writes a bench result file to `path` (relative to the working
/// directory): `{"bench": .., "rows": [..]}` with one row object per line —
/// the format of every `BENCH_*.json` — each of `rows` giving one row's
/// `"key": value` pairs.
///
/// # Errors
///
/// Whatever writing the file fails with.
pub fn write_json_rows(path: &str, bench: &str, rows: &[String]) -> std::io::Result<()> {
    std::fs::write(path, json_rows(bench, rows))
}

/// Formats microseconds as a human-readable duration cell.
pub fn fmt_us(us: f64) -> String {
    if us >= 1_000_000.0 {
        format!("{:.2}s", us / 1e6)
    } else if us >= 1_000.0 {
        format!("{:.2}ms", us / 1e3)
    } else {
        format!("{us:.0}us")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(&["n", "mode", "latency"]);
        t.row(&["1".into(), "no-lwg".into(), "1.2ms".into()]);
        t.row(&["16".into(), "dynamic".into(), "900us".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("latency"));
        assert!(lines[2].ends_with("1.2ms") || lines[2].trim_end().ends_with("1.2ms"));
    }

    #[test]
    fn json_rows_are_one_object_per_line() {
        let rows = [(1u64, 2.5f64), (3, -4.0)]
            .map(|(a, b)| format!("\"a\": {a}, \"label\": \"x\", \"b\": {b:.1}"));
        let text = json_rows("toy", &rows);
        assert_eq!(
            text,
            "{\n  \"bench\": \"toy\",\n  \"rows\": [\n    \
             {\"a\": 1, \"label\": \"x\", \"b\": 2.5},\n    \
             {\"a\": 3, \"label\": \"x\", \"b\": -4.0}\n  ]\n}\n"
        );
    }

    #[test]
    fn a_failed_write_is_an_error() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/no-such-dir/BENCH_x.json");
        assert!(write_json_rows(path, "x", &[]).is_err());
    }

    #[test]
    fn fmt_us_scales() {
        assert_eq!(fmt_us(500.0), "500us");
        assert_eq!(fmt_us(1_500.0), "1.50ms");
        assert_eq!(fmt_us(2_000_000.0), "2.00s");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["x".into()]);
    }
}
