//! Plain-text table rendering and CSV/JSON dumps for experiment output.

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

/// True when `s` is already a syntactically valid JSON number (so a cell
/// can be emitted unquoted and machine readers get real numbers).
fn is_json_number(s: &str) -> bool {
    let b = s.as_bytes();
    let mut i = 0;
    if i < b.len() && b[i] == b'-' {
        i += 1;
    }
    let int_start = i;
    while i < b.len() && b[i].is_ascii_digit() {
        i += 1;
    }
    if i == int_start || (b[int_start] == b'0' && i > int_start + 1) {
        return false; // no digits, or leading zero
    }
    if i < b.len() && b[i] == b'.' {
        i += 1;
        let frac_start = i;
        while i < b.len() && b[i].is_ascii_digit() {
            i += 1;
        }
        if i == frac_start {
            return false;
        }
    }
    if i < b.len() && (b[i] == b'e' || b[i] == b'E') {
        i += 1;
        if i < b.len() && (b[i] == b'+' || b[i] == b'-') {
            i += 1;
        }
        let exp_start = i;
        while i < b.len() && b[i].is_ascii_digit() {
            i += 1;
        }
        if i == exp_start {
            return false;
        }
    }
    i == b.len()
}

/// Escape a string for a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_cell(s: &str) -> String {
    if is_json_number(s) {
        s.to_string()
    } else {
        format!("\"{}\"", json_escape(s))
    }
}

/// Write every table of one experiment as machine-readable benchmark JSON
/// (`BENCH_<experiment>.json`), so the perf trajectory is trackable across
/// PRs without scraping text tables. Numeric cells are emitted as JSON
/// numbers; everything else as strings. Cell typing is sniffed from the
/// rendered strings, so the writer stays hand-rolled.
pub fn write_bench_json(
    dir: &Path,
    experiment: &str,
    tables: &[Table],
) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let name: String = experiment
        .chars()
        .map(|c| if c.is_alphanumeric() { c } else { '_' })
        .collect();
    let path = dir.join(format!("BENCH_{name}.json"));
    let mut body = String::new();
    body.push_str("{\n");
    body.push_str(&format!("  \"experiment\": \"{}\",\n", json_escape(experiment)));
    body.push_str("  \"tables\": [\n");
    for (ti, t) in tables.iter().enumerate() {
        body.push_str("    {\n");
        body.push_str(&format!("      \"title\": \"{}\",\n", json_escape(&t.title)));
        body.push_str(&format!(
            "      \"headers\": [{}],\n",
            t.headers
                .iter()
                .map(|h| format!("\"{}\"", json_escape(h)))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        body.push_str("      \"rows\": [\n");
        for (ri, row) in t.rows.iter().enumerate() {
            body.push_str(&format!(
                "        [{}]{}\n",
                row.iter().map(|c| json_cell(c)).collect::<Vec<_>>().join(", "),
                if ri + 1 < t.rows.len() { "," } else { "" }
            ));
        }
        body.push_str("      ]\n");
        body.push_str(&format!(
            "    }}{}\n",
            if ti + 1 < tables.len() { "," } else { "" }
        ));
    }
    body.push_str("  ]\n}\n");
    std::fs::write(&path, body)?;
    Ok(path)
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
    fn json_number_detection_is_strict() {
        for ok in ["0", "-1", "10000", "3.25", "-0.5", "1e5", "6.02E+23", "1.5e-3"] {
            assert!(is_json_number(ok), "{ok} should be a JSON number");
        }
        for bad in [
            "", "-", "1.", ".5", "01", "1e", "1e+", "NaN", "inf", "+5", "1.00x", "48.8%", "10K",
            "0x10",
        ] {
            assert!(!is_json_number(bad), "{bad} must be quoted");
        }
    }

    #[test]
    fn bench_json_is_written_and_typed() {
        let mut t = Table::new("Serve \"anchor\"", &["policy", "mops", "ratio"]);
        t.row(vec!["fifo".into(), "12.5".into(), "0.97x".into()]);
        t.row(vec!["sharded".into(), "13".into(), "1.01x".into()]);
        let dir = std::env::temp_dir().join("gfsl_report_json_test");
        let path = write_bench_json(&dir, "serve", &[t]).unwrap();
        assert_eq!(path.file_name().unwrap().to_str().unwrap(), "BENCH_serve.json");
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"experiment\": \"serve\""));
        assert!(body.contains("\\\"anchor\\\""), "titles are escaped: {body}");
        assert!(body.contains("[\"fifo\", 12.5, \"0.97x\"]"), "{body}");
        assert!(body.contains("[\"sharded\", 13, \"1.01x\"]"), "{body}");
        // Balanced braces/brackets as a cheap well-formedness check.
        let balance = |open: char, close: char| {
            body.chars().filter(|&c| c == open).count()
                == body.chars().filter(|&c| c == close).count()
        };
        assert!(balance('{', '}') && balance('[', ']'));
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
