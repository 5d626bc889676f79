//! Cell formatting for the figure harness and examples, and the table they
//! fill: [`rnuca_types::TextTable`], re-exported as `rnuca_sim::TextTable`.

/// The aligned text table every figure and example prints.
///
/// # Example
///
/// ```
/// use rnuca_sim::TextTable;
/// let mut t = TextTable::new(vec!["workload", "P", "S", "R"]);
/// t.add_row(vec!["OLTP DB2".into(), "1.00".into(), "0.93".into(), "0.88".into()]);
/// let s = t.to_string();
/// assert!(s.contains("OLTP DB2"));
/// ```
pub use rnuca_types::TextTable;

/// Formats a float with 3 decimal places for report cells.
pub fn fmt3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a value as a percentage with one decimal place.
pub fn fmt_pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let mut t = TextTable::new(vec!["name", "value"]);
        t.add_row(vec!["a".into(), "1".into()]);
        t.add_row(vec!["longer-name".into(), "2.5".into()]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].starts_with("---"));
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = TextTable::new(vec!["a", "b", "c"]);
        t.add_row(vec!["x".into()]);
        let s = t.to_string();
        assert!(s.contains('x'));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt3(1.23456), "1.235");
        assert_eq!(fmt_pct(0.143), "14.3%");
    }
}
