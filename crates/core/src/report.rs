//! Report formatting helpers used by the experiment binaries.
//!
//! The binaries print tables in the same "505k (3.2M)" style the paper uses,
//! so measured values can be compared against the published ones at a
//! glance.

/// Format a count the way the paper prints them: `987`, `12k`, `1.4M`.
pub fn format_count(value: usize) -> String {
    if value >= 1_000_000 {
        let millions = value as f64 / 1_000_000.0;
        if millions >= 10.0 {
            format!("{millions:.0}M")
        } else {
            format!("{millions:.1}M")
        }
    } else if value >= 1_000 {
        let thousands = value as f64 / 1_000.0;
        if thousands >= 10.0 {
            format!("{thousands:.0}k")
        } else {
            format!("{thousands:.1}k")
        }
    } else {
        value.to_string()
    }
}

/// Format a fraction as a percentage with no decimals, e.g. `96%`.
pub fn format_pct(fraction: f64) -> String {
    format!("{:.0}%", fraction * 100.0)
}

/// A simple fixed-width text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Create a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (shorter rows are padded with empty cells).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    /// Render the table with aligned columns.
    pub fn render(&self) -> String {
        let columns = self
            .header
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; columns];
        let all_rows = std::iter::once(&self.header).chain(self.rows.iter());
        for row in all_rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let render_row = |row: &[String]| -> String {
            let mut line = String::new();
            for (i, &width) in widths.iter().enumerate() {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                line.push_str(&format!("{cell:<width$}"));
                if i + 1 < columns {
                    line.push_str("  ");
                }
            }
            line.trim_end().to_owned()
        };
        let mut out = String::new();
        out.push_str(&render_row(&self.header));
        out.push('\n');
        let total_width: usize = widths.iter().sum::<usize>() + 2 * (columns.saturating_sub(1));
        out.push_str(&"-".repeat(total_width));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row));
            out.push('\n');
        }
        out
    }
}

/// Render ECDF points as `x<TAB>y` lines, the format used to regenerate the
/// paper's figures.
pub fn render_ecdf(points: &[(f64, f64)]) -> String {
    let mut out = String::new();
    for (x, y) in points {
        out.push_str(&format!("{x:.0}\t{y:.4}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_formatting_matches_paper_style() {
        assert_eq!(format_count(0), "0");
        assert_eq!(format_count(987), "987");
        assert_eq!(format_count(1_340), "1.3k");
        assert_eq!(format_count(12_000), "12k");
        assert_eq!(format_count(505_000), "505k");
        assert_eq!(format_count(1_400_000), "1.4M");
        assert_eq!(format_count(15_900_000), "16M");
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(format_pct(0.96), "96%");
        assert_eq!(format_pct(1.0), "100%");
        assert_eq!(format_pct(0.0), "0%");
    }

    #[test]
    fn table_renders_aligned_columns() {
        let mut table = TextTable::new(["Protocol", "# IPs", "# ASN"]);
        table.row(["SSH", "15.9M", "46.1k"]);
        table.row(["BGP", "364k", "6.5k"]);
        assert_eq!(table.rows.len(), 2);
        let rendered = table.render();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("Protocol"));
        assert!(lines[1].starts_with("---"));
        // Columns align: "15.9M" and "364k" start at the same offset.
        let off_a = lines[2].find("15.9M").unwrap();
        let off_b = lines[3].find("364k").unwrap();
        assert_eq!(off_a, off_b);
    }

    #[test]
    fn table_pads_short_rows() {
        let mut table = TextTable::new(["a", "b", "c"]);
        table.row(["1"]);
        let rendered = table.render();
        assert!(rendered.lines().count() >= 3);
    }

    #[test]
    fn ecdf_rendering() {
        let out = render_ecdf(&[(2.0, 0.5), (10.0, 1.0)]);
        assert_eq!(out, "2\t0.5000\n10\t1.0000\n");
    }
}
