//! The one aligned text table every figure, example and query prints.

use std::fmt;

/// A column-aligned text table: a header line, one rule, then the rows.
///
/// Widths count chars, not bytes, so a non-ASCII cell pads like any other.
/// Every line is trimmed at the end, so no line carries trailing spaces.
///
/// # Example
///
/// ```
/// use rnuca_types::TextTable;
/// let mut t = TextTable::new(vec!["workload", "P", "S", "R"]);
/// t.add_row(vec!["OLTP DB2".into(), "1.00".into(), "0.93".into(), "0.88".into()]);
/// let s = t.to_string();
/// assert!(s.contains("OLTP DB2"));
/// ```
#[derive(Debug, Clone)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row. Rows shorter than the header are padded with empty cells.
    pub fn add_row(&mut self, row: Vec<String>) {
        self.rows.push(row);
    }

    fn column_widths(&self) -> Vec<usize> {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (width, cell) in widths.iter_mut().zip(row) {
                *width = (*width).max(cell.chars().count());
            }
        }
        widths
    }
}

impl fmt::Display for TextTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let widths = self.column_widths();
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let mut line = String::new();
            for (i, width) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{cell:<width$}"));
            }
            writeln!(f, "{}", line.trim_end())
        };
        write_row(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_count_chars_not_bytes() {
        let mut t = TextTable::new(vec!["name", "value"]);
        t.add_row(vec!["é".into(), "1".into()]);
        t.add_row(vec!["ascii".into(), "2".into()]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[1], "-".repeat("ascii  value".len()));
        assert_eq!(lines[2], "é      1");
        assert_eq!(lines[3], "ascii  2");
    }
}
