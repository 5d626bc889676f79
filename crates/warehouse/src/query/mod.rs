//! The typed query language over the warehouse.
//!
//! Grammar (whitespace-insensitive):
//!
//! ```text
//! query  := [filter ('&' filter)*] [sort] [show] [top]
//! filter := column op literal
//! op     := '=' | '!=' | '<' | '<=' | '>' | '>='
//! literal:= integer | float | 'string' | "string" | bare-word | null
//! sort   := 'sort' column ['asc' | 'desc']
//! show   := 'show' column (',' column)*
//! top    := 'top' integer
//! ```
//!
//! Filters are conjunctive (`&` is AND). Bare words are string literals,
//! so `design=R` and `design='R'` are the same query. An empty query
//! selects every row. Example:
//!
//! ```text
//! kind=scenario & design=R & cores>=32 sort off_chip_rate desc top 5
//! ```
//!
//! The pipeline has three stages: the lexer, one resilient
//! recursive-descent pass that resolves each clause against the typed
//! catalog as soon as it has parsed (no syntax tree in between), and the
//! executor over the row store. It is deliberately error-accumulating: one
//! run reports *every* problem in the query, each with a byte span into
//! the source and, for near-miss column names, a did-you-mean suggestion.
//! A clean query's rows print through the same [`TextTable`] every figure
//! table uses, or as JSON.

mod exec;
mod lexer;
mod parser;

use crate::store::{Store, Value};
use rnuca_types::TextTable;
use std::fmt;

/// A half-open byte range into the query source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// First byte of the spanned text.
    pub start: usize,
    /// One past the last byte.
    pub end: usize,
}

impl Span {
    /// The span covering `start..end`.
    pub fn new(start: usize, end: usize) -> Self {
        Span { start, end }
    }

    /// A zero-width span at `at` (used for "expected X, found end of query").
    pub fn point(at: usize) -> Self {
        Span { start: at, end: at }
    }
}

/// One diagnostic from the query pipeline, with its source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryError {
    /// Where in the query text the problem is.
    pub span: Span,
    /// What went wrong.
    pub message: String,
    /// An optional `help:` line (e.g. a did-you-mean suggestion).
    pub help: Option<String>,
}

impl QueryError {
    /// A diagnostic with no help line.
    pub fn new(span: Span, message: impl Into<String>) -> Self {
        QueryError {
            span,
            message: message.into(),
            help: None,
        }
    }

    /// Attaches a `help:` line.
    pub fn with_help(mut self, help: impl Into<String>) -> Self {
        self.help = Some(help.into());
        self
    }

    /// Renders this diagnostic in compiler style against the query text:
    ///
    /// ```text
    /// error: unknown column `coress`
    ///   | design=R & coress>=32
    ///   |            ^^^^^^
    ///   = help: did you mean `cores`?
    /// ```
    pub fn render(&self, source: &str) -> String {
        let mut out = format!("error: {}\n  | {source}\n  | ", self.message);
        let start = self.span.start.min(source.len());
        let end = self.span.end.min(source.len()).max(start);
        // Columns are display positions; count chars, not bytes.
        let lead = source[..start].chars().count();
        let width = source[start..end].chars().count().max(1);
        out.push_str(&" ".repeat(lead));
        out.push_str(&"^".repeat(width));
        if let Some(help) = &self.help {
            out.push_str("\n  = help: ");
            out.push_str(help);
        }
        out
    }
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (bytes {}..{})",
            self.message, self.span.start, self.span.end
        )
    }
}

/// Renders every diagnostic against the query text, newline-separated.
pub fn render_errors(errors: &[QueryError], source: &str) -> String {
    errors
        .iter()
        .map(|e| e.render(source))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The result of a query: projected column names plus materialized rows.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutput {
    /// Projected column names, in output order.
    pub columns: Vec<&'static str>,
    /// One `Vec<Value>` per selected row, parallel to `columns`.
    pub rows: Vec<Vec<Value>>,
}

impl QueryOutput {
    /// Renders an aligned [`TextTable`] (header, rule, rows; nulls as `-`).
    pub fn render_table(&self) -> String {
        let mut table = TextTable::new(self.columns.clone());
        for row in &self.rows {
            table.add_row(row.iter().map(Value::to_string).collect());
        }
        table.to_string()
    }

    /// Renders a JSON array of row objects (null cells as `null`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n  {");
            for (j, (name, value)) in self.columns.iter().zip(row).enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("\"{name}\": {}", value.to_json()));
            }
            out.push('}');
        }
        if !self.rows.is_empty() {
            out.push('\n');
        }
        out.push(']');
        out
    }
}

/// Runs `text` against `store`: lex, parse and resolve, execute.
///
/// All diagnostics from both passes come back together; the query only
/// executes when they are clean.
pub(crate) fn run_query(store: &Store, text: &str) -> Result<QueryOutput, Vec<QueryError>> {
    let mut errors = Vec::new();
    let tokens = lexer::lex(text, &mut errors);
    let plan = parser::parse(&tokens, text.len(), &mut errors);
    if errors.is_empty() {
        Ok(exec::execute(store, &plan))
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_points_at_the_span() {
        let src = "design=R & coress>=32";
        let err = QueryError::new(Span::new(11, 17), "unknown column `coress`")
            .with_help("did you mean `cores`?");
        let rendered = err.render(src);
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines[0], "error: unknown column `coress`");
        assert_eq!(lines[1], "  | design=R & coress>=32");
        assert_eq!(lines[2], "  |            ^^^^^^");
        assert_eq!(lines[3], "  = help: did you mean `cores`?");
    }

    #[test]
    fn point_span_renders_one_caret() {
        let src = "cores>=";
        let err = QueryError::new(Span::point(7), "expected a value");
        assert!(err
            .render(src)
            .lines()
            .nth(2)
            .expect("caret line")
            .ends_with('^'));
    }
}
