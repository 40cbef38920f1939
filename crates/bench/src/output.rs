//! The shared output writer of the figure binaries and the sweep subsystem:
//! one [`Table`] representation rendered as aligned text, CSV or JSON.

/// The output format of a sweep or figure binary
/// (`--format table|csv|json`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// Column-aligned human-readable text.
    #[default]
    Table,
    /// Comma-separated values with a header line.
    Csv,
    /// A JSON array of one object per row.
    Json,
}

impl OutputFormat {
    /// Parses the CLI spelling.
    pub fn parse(name: &str) -> Option<OutputFormat> {
        match name {
            "table" | "text" => Some(OutputFormat::Table),
            "csv" => Some(OutputFormat::Csv),
            "json" => Some(OutputFormat::Json),
            _ => None,
        }
    }
}

/// A simple column-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must have as many cells as there are headers).
    pub fn push_row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as aligned text.
    pub fn render(&self) -> String {
        render_table(&self.headers, &self.rows)
    }

    /// Renders the table as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&csv_line(&self.headers));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&csv_line(row));
            out.push('\n');
        }
        out
    }

    /// Renders the table as a JSON array of objects (one per row, keyed by
    /// the column headers).  Cells that parse as finite numbers are emitted
    /// as JSON numbers, non-finite ones as `null`, everything else as
    /// strings.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str("  {");
            for (j, (header, cell)) in self.headers.iter().zip(row).enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&json_string(header));
                out.push_str(": ");
                out.push_str(&json_cell(cell));
            }
            out.push('}');
            if i + 1 < self.rows.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("]\n");
        out
    }

    /// Renders the table in the requested format.
    pub fn write(&self, format: OutputFormat) -> String {
        match format {
            OutputFormat::Table => self.render(),
            OutputFormat::Csv => self.to_csv(),
            OutputFormat::Json => self.to_json(),
        }
    }
}

/// Encodes one table cell as a JSON value.
fn json_cell(cell: &str) -> String {
    match cell.parse::<f64>() {
        Ok(v) if v.is_finite() => {
            // Keep the cell's decimal rendering (it is already a valid JSON
            // number unless it carries an explicit '+').
            cell.trim_start_matches('+').to_string()
        }
        Ok(_) => "null".to_string(),
        Err(_) if cell.is_empty() => "null".to_string(),
        Err(_) => json_string(cell),
    }
}

/// Encodes a string as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

/// Renders one CSV line.
pub fn csv_line<S: AsRef<str>>(cells: &[S]) -> String {
    cells
        .iter()
        .map(|c| c.as_ref().to_string())
        .collect::<Vec<_>>()
        .join(",")
}

/// Renders a column-aligned text table.
pub fn render_table(headers: &[String], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&fmt_row(headers, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1))));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_and_csv() {
        let mut t = Table::new(&["nodes", "waste"]);
        t.push_row(vec!["1000".into(), "0.01".into()]);
        t.push_row(vec!["1000000".into(), "0.35".into()]);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        let text = t.render();
        assert!(text.contains("nodes"));
        assert!(text.lines().count() >= 4);
        let csv = t.to_csv();
        assert_eq!(csv.lines().next().unwrap(), "nodes,waste");
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn csv_line_joins_cells() {
        assert_eq!(csv_line(&["a", "b", "c"]), "a,b,c");
    }

    #[test]
    fn json_rendering_types_cells() {
        let mut t = Table::new(&["nodes", "protocol", "diff", "gap"]);
        t.push_row(vec!["1000".into(), "ABFT&PeriodicCkpt".into(), "+0.01".into(), "inf".into()]);
        t.push_row(vec!["2000".into(), "Pure".into(), "-0.02".into(), "".into()]);
        let json = t.to_json();
        assert!(json.starts_with("[\n"));
        assert!(json.contains("\"nodes\": 1000"));
        assert!(json.contains("\"protocol\": \"ABFT&PeriodicCkpt\""));
        assert!(json.contains("\"diff\": 0.01"), "{json}");
        assert!(json.contains("\"diff\": -0.02"));
        assert!(json.contains("\"gap\": null"));
        // Exactly one comma between the two row objects.
        assert_eq!(json.matches("},\n").count(), 1);
    }

    #[test]
    fn json_string_escapes_specials() {
        assert_eq!(json_string("a\"b"), "\"a\\\"b\"");
        assert_eq!(json_string("x\\y"), "\"x\\\\y\"");
        assert_eq!(json_string("line\nbreak"), "\"line\\nbreak\"");
    }

    #[test]
    fn format_parsing_and_dispatch() {
        assert_eq!(OutputFormat::parse("table"), Some(OutputFormat::Table));
        assert_eq!(OutputFormat::parse("csv"), Some(OutputFormat::Csv));
        assert_eq!(OutputFormat::parse("json"), Some(OutputFormat::Json));
        assert_eq!(OutputFormat::parse("yaml"), None);
        let mut t = Table::new(&["a"]);
        t.push_row(vec!["1".into()]);
        assert_eq!(t.write(OutputFormat::Csv), t.to_csv());
        assert_eq!(t.write(OutputFormat::Json), t.to_json());
        assert_eq!(t.write(OutputFormat::Table), t.render());
    }
}
