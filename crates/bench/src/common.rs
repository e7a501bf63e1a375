//! Shared harness plumbing: experiment options, suite selection, and a
//! fixed-width text table renderer.

use graphgen::{MatrixSpec, TABLE1_SUITE};

/// Options shared by all experiments.
#[derive(Clone, Debug)]
pub struct Options {
    /// Suite scale divisor (rows shrink by this; see `MatrixSpec`).
    pub scale: usize,
    /// Generator seed.
    pub seed: u64,
    /// Restrict to these abbreviations (empty = whole suite).
    pub matrices: Vec<String>,
    /// Emit JSON instead of text tables.
    pub json: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            scale: 64,
            seed: 1,
            matrices: Vec::new(),
            json: false,
        }
    }
}

/// Resolve the selected matrix specs (in Table I order).
pub fn selected_specs(opts: &Options) -> Vec<&'static MatrixSpec> {
    if opts.matrices.is_empty() {
        TABLE1_SUITE.iter().collect()
    } else {
        opts.matrices
            .iter()
            .map(|a| {
                MatrixSpec::by_abbrev(a)
                    .unwrap_or_else(|| panic!("unknown matrix abbreviation '{a}'"))
            })
            .collect()
    }
}

/// Minimal fixed-width table renderer for the text reports.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "table row width mismatch");
        self.rows.push(cells);
    }

    /// Render with per-column widths.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (c, cell) in cells.iter().enumerate() {
                if c > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:>w$}", cell, w = widths[c]));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }
}

/// Format seconds human-readably (µs/ms/s).
pub fn fmt_secs(s: f64) -> String {
    if s == f64::INFINITY {
        "inf".into()
    } else if s < 1e-3 {
        format!("{:.1}us", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.2}s", s)
    }
}

/// Format a ratio like the paper's speedup cells.
pub fn fmt_x(v: f64) -> String {
    if v == f64::INFINITY {
        "inf".into()
    } else if v >= 1000.0 {
        format!("{:.0}x", v)
    } else {
        format!("{:.2}x", v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_selection_is_whole_suite() {
        let specs = selected_specs(&Options::default());
        assert_eq!(specs.len(), 17);
    }

    #[test]
    fn explicit_selection_filters() {
        let opts = Options {
            matrices: vec!["HOL".into(), "enr".into()],
            ..Default::default()
        };
        let specs = selected_specs(&opts);
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].abbrev, "HOL");
        assert_eq!(specs[1].abbrev, "ENR");
    }

    #[test]
    #[should_panic(expected = "unknown matrix")]
    fn unknown_abbrev_panics() {
        let opts = Options {
            matrices: vec!["NOPE".into()],
            ..Default::default()
        };
        selected_specs(&opts);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["a", "bbbb"]);
        t.row(vec!["12345".into(), "x".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains('a') && lines[0].contains("bbbb"));
        assert!(lines[2].contains("12345"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_secs(5e-6), "5.0us");
        assert_eq!(fmt_secs(5e-3), "5.00ms");
        assert_eq!(fmt_secs(2.5), "2.50s");
        assert_eq!(fmt_x(f64::INFINITY), "inf");
        assert_eq!(fmt_x(2.0), "2.00x");
        assert_eq!(fmt_x(161000.0), "161000x");
    }
}
