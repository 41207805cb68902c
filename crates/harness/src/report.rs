//! Plain-text table rendering and CSV dumps for experiment output.

use std::io::Write as _;
use std::path::Path;

/// A rendered experiment artifact: a titled table of string cells.
#[derive(Debug, Clone)]
pub struct Table {
    /// Title printed above the table (and used for file names).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells; each row must be `headers.len()` long.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// New empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.headers.len(), "ragged table row");
        self.rows.push(cells);
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Write a CSV file next to the experiment outputs.
    pub fn write_csv(&self, dir: &Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let name = self
            .title
            .to_lowercase()
            .replace(|c: char| !c.is_alphanumeric(), "_");
        let path = dir.join(format!("{name}.csv"));
        let mut f = std::fs::File::create(&path)?;
        writeln!(f, "{}", self.headers.join(","))?;
        for row in &self.rows {
            writeln!(f, "{}", row.join(","))?;
        }
        Ok(path)
    }
}

/// Format MOPS with sensible precision.
pub fn mops(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

/// Format a ratio like "6.8x".
pub fn ratio(v: f64) -> String {
    format!("{v:.2}x")
}

/// Format a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("Demo", &["range", "mops"]);
        t.row(vec!["10K".into(), "65.7".into()]);
        t.row(vec!["100M".into(), "3.2".into()]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("range"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[3].len(), lines[4].len(), "aligned rows");
    }

    #[test]
    fn csv_roundtrip() {
        let mut t = Table::new("Fig 5.3 (a)", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        let dir = std::env::temp_dir().join("gfsl_report_test");
        let path = t.write_csv(&dir).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body, "a,b\n1,2\n");
        assert!(path.file_name().unwrap().to_str().unwrap().starts_with("fig_5_3"));
    }

    #[test]
    fn formatters() {
        assert_eq!(mops(123.4), "123");
        assert_eq!(mops(65.71), "65.7");
        assert_eq!(mops(3.234), "3.23");
        assert_eq!(ratio(6.8123), "6.81x");
        assert_eq!(pct(0.488), "48.8%");
    }
}
