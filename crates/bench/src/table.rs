//! Result tables: the harness's output unit, printable as markdown and
//! serializable to JSON for EXPERIMENTS.md regeneration.

use comm_serve::json;
use std::fmt::Write as _;

/// One regenerated table or figure series.
#[derive(Clone, Debug)]
pub struct Table {
    /// Stable id, e.g. `"fig9a"`.
    pub id: String,
    /// Human title, e.g. `"Fig. 9(a) IMDB COMM-all: average delay vs KWF"`.
    pub title: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Data rows (formatted strings).
    pub rows: Vec<Vec<String>>,
    /// Free-form notes (truncation caps, DNFs, substitutions).
    pub notes: Vec<String>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(id: &str, title: &str, header: &[&str]) -> Table {
        Table {
            id: id.to_owned(),
            title: title.to_owned(),
            header: header.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push_row(&mut self, row: Vec<String>) {
        debug_assert_eq!(row.len(), self.header.len());
        self.rows.push(row);
    }

    /// Appends a note shown under the table.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Renders the table as a JSON object (stable key order).
    pub fn to_json(&self) -> String {
        let strings = |v: &[String]| json::array(v.iter().map(|s| json::string(s)));
        json::object([
            ("id", json::string(&self.id)),
            ("title", json::string(&self.title)),
            ("header", strings(&self.header)),
            ("rows", json::array(self.rows.iter().map(|r| strings(r)))),
            ("notes", strings(&self.notes)),
        ])
    }

    /// Renders as a GitHub-flavored markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {} — {}\n", self.id, self.title);
        let widths: Vec<usize> = self
            .header
            .iter()
            .enumerate()
            .map(|(i, h)| {
                self.rows
                    .iter()
                    .map(|r| r[i].len())
                    .chain([h.len()])
                    .max()
                    .unwrap_or(1)
            })
            .collect();
        let fmt_row = |cells: &[String]| {
            let mut line = String::from("|");
            for (c, w) in cells.iter().zip(&widths) {
                let _ = write!(line, " {c:<w$} |");
            }
            line
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header));
        let mut sep = String::from("|");
        for w in &widths {
            let _ = write!(sep, "{:-<1$}|", "", w + 2);
        }
        let _ = writeln!(out, "{sep}");
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row));
        }
        for note in &self.notes {
            let _ = writeln!(out, "\n> {note}");
        }
        out
    }
}

/// Formats a duration in adaptive units.
pub fn fmt_ms(ms: f64) -> String {
    if ms.is_nan() {
        "n/a".to_owned()
    } else if ms >= 1000.0 {
        format!("{:.2} s", ms / 1000.0)
    } else if ms >= 1.0 {
        format!("{ms:.2} ms")
    } else {
        format!("{:.1} µs", ms * 1000.0)
    }
}

/// Formats a byte count in adaptive units.
pub fn fmt_bytes(b: usize) -> String {
    if b >= 1 << 20 {
        format!("{:.1} MB", b as f64 / (1 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1} KB", b as f64 / (1 << 10) as f64)
    } else {
        format!("{b} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_rendering() {
        let mut t = Table::new("t1", "demo", &["x", "y"]);
        t.push_row(vec!["1".into(), "2".into()]);
        t.note("a note");
        let md = t.to_markdown();
        assert!(md.contains("### t1 — demo"));
        assert!(md.contains("| 1 | 2 |"));
        assert!(md.contains("> a note"));
    }

    #[test]
    fn json_rendering() {
        let mut t = Table::new("t1", "a \"demo\"", &["x", "y"]);
        t.push_row(vec!["1".into(), "2 µs".into()]);
        let json = t.to_json();
        assert!(json.contains("\"id\": \"t1\""), "{json}");
        assert!(json.contains("\"title\": \"a \\\"demo\\\"\""), "{json}");
        assert!(json.contains("\"2 µs\""), "{json}");
        assert!(json.contains("\"notes\": []"), "{json}");
    }

    #[test]
    fn unit_formatting() {
        assert_eq!(fmt_ms(1500.0), "1.50 s");
        assert_eq!(fmt_ms(2.5), "2.50 ms");
        assert_eq!(fmt_ms(0.25), "250.0 µs");
        assert_eq!(fmt_ms(f64::NAN), "n/a");
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.0 KB");
        assert_eq!(fmt_bytes(3 << 20), "3.0 MB");
    }
}
