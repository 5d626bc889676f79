//! Resilient recursive-descent parser: token stream to AST.
//!
//! The parser never stops at the first problem. A malformed filter
//! records a diagnostic and skips forward to the next `&` or tail
//! keyword (`sort` / `show` / `top`), so one pass over a broken query
//! reports every independent mistake — the property the CLI relies on to
//! show all diagnostics at once.

use super::lexer::{CmpOp, Token, TokenKind};
use super::{QueryError, Span};

/// A literal as written in the query, before type checking.
#[derive(Debug, Clone, PartialEq)]
pub(super) enum Lit {
    Int(i64),
    Float(f64),
    Str(String),
    Null,
}

impl Lit {
    /// How the literal is described in type-mismatch diagnostics.
    pub(super) fn type_name(&self) -> &'static str {
        match self {
            Lit::Int(_) => "an integer",
            Lit::Float(_) => "a float",
            Lit::Str(_) => "a string",
            Lit::Null => "null",
        }
    }
}

/// One `column op literal` clause.
#[derive(Debug, Clone, PartialEq)]
pub(super) struct FilterExpr {
    pub(super) column: String,
    pub(super) column_span: Span,
    pub(super) op: CmpOp,
    pub(super) op_span: Span,
    pub(super) value: Lit,
    pub(super) value_span: Span,
}

/// A `sort column [asc|desc]` tail clause.
#[derive(Debug, Clone, PartialEq)]
pub(super) struct SortExpr {
    pub(super) column: String,
    pub(super) column_span: Span,
    pub(super) descending: bool,
}

/// The parsed query, before name resolution.
#[derive(Debug, Clone, Default, PartialEq)]
pub(super) struct Ast {
    pub(super) filters: Vec<FilterExpr>,
    pub(super) sort: Option<SortExpr>,
    pub(super) show: Option<Vec<(String, Span)>>,
    pub(super) top: Option<usize>,
}

/// The tail keywords that end the filter section.
const TAIL_KEYWORDS: [&str; 3] = ["sort", "show", "top"];

fn is_tail_keyword(token: &Token) -> bool {
    matches!(&token.kind, TokenKind::Ident(w) if TAIL_KEYWORDS.contains(&w.as_str()))
}

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
    end: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&'a Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<&'a Token> {
        let t = self.tokens.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// The span just past the last consumed token (for "expected X, found
    /// end of query" diagnostics).
    fn here(&self) -> Span {
        match self.tokens.get(self.pos) {
            Some(t) => t.span,
            None => Span::point(self.end),
        }
    }

    /// Error recovery: skip forward so the next clause parses cleanly.
    fn skip_to_clause_boundary(&mut self) {
        while let Some(t) = self.peek() {
            if matches!(t.kind, TokenKind::Amp) {
                self.pos += 1; // consume the `&`; next clause starts after it
                return;
            }
            if is_tail_keyword(t) {
                return;
            }
            self.pos += 1;
        }
    }
}

/// Parses `tokens` into an [`Ast`], accumulating diagnostics in `errors`.
///
/// `source_len` anchors end-of-query spans. Always returns an AST — on
/// errors it holds whatever clauses did parse, which lets resolution
/// still check their names and report those problems in the same pass.
pub(super) fn parse(tokens: &[Token], source_len: usize, errors: &mut Vec<QueryError>) -> Ast {
    let mut p = Parser {
        tokens,
        pos: 0,
        end: source_len,
    };
    let mut ast = Ast::default();

    // Filter section: clauses separated by `&`, ended by a tail keyword.
    let mut expect_clause = false; // true right after a consumed `&`
    while let Some(t) = p.peek() {
        if is_tail_keyword(t) {
            if expect_clause {
                errors.push(QueryError::new(t.span, "expected a filter after `&`"));
            }
            break;
        }
        match parse_filter(&mut p, errors) {
            Some(filter) => ast.filters.push(filter),
            None => {
                p.skip_to_clause_boundary();
                expect_clause = false;
                continue;
            }
        }
        expect_clause = false;
        match p.peek() {
            Some(t) if matches!(t.kind, TokenKind::Amp) => {
                p.pos += 1;
                expect_clause = true;
            }
            _ => {}
        }
    }
    if expect_clause && p.peek().is_none() {
        errors.push(QueryError::new(p.here(), "expected a filter after `&`"));
    }

    // Tail section: sort / show / top, each at most once, any order.
    while let Some(t) = p.next() {
        let TokenKind::Ident(word) = &t.kind else {
            errors.push(QueryError::new(
                t.span,
                "expected `sort`, `show`, or `top` after the filters",
            ));
            continue;
        };
        match word.as_str() {
            "sort" => {
                let clause = parse_sort(&mut p, errors);
                replace_if_new(&mut ast.sort, clause, t.span, "sort", errors);
            }
            "show" => {
                let clause = parse_show(&mut p, errors);
                replace_if_new(&mut ast.show, clause, t.span, "show", errors);
            }
            "top" => {
                let clause = parse_top(&mut p, errors);
                replace_if_new(&mut ast.top, clause, t.span, "top", errors);
            }
            other => {
                errors.push(
                    QueryError::new(
                        t.span,
                        format!("expected `sort`, `show`, or `top`, found `{other}`"),
                    )
                    .with_help("filters must come before sort/show/top and be joined with `&`"),
                );
            }
        }
    }

    ast
}

/// `Option::replace`, but a duplicate clause is a diagnostic (first one
/// wins), not a silent overwrite.
fn replace_if_new<T>(
    slot: &mut Option<T>,
    value: Option<T>,
    at: Span,
    what: &str,
    errors: &mut Vec<QueryError>,
) {
    if slot.is_some() {
        errors.push(QueryError::new(at, format!("duplicate `{what}` clause")));
    } else if let Some(v) = value {
        *slot = Some(v);
    }
}

fn parse_filter(p: &mut Parser<'_>, errors: &mut Vec<QueryError>) -> Option<FilterExpr> {
    let first = p.next().expect("caller checked peek");
    let TokenKind::Ident(column) = &first.kind else {
        errors.push(QueryError::new(
            first.span,
            "expected a column name to start a filter",
        ));
        return None;
    };

    let op_token = match p.peek() {
        Some(t) => t,
        None => {
            errors.push(QueryError::new(
                Span::point(p.end),
                format!("filter on `{column}` is missing its operator and value"),
            ));
            return None;
        }
    };
    let TokenKind::Op(op) = op_token.kind else {
        errors.push(
            QueryError::new(
                op_token.span,
                format!("expected a comparison operator after `{column}`"),
            )
            .with_help("operators are =, !=, <, <=, >, >="),
        );
        return None;
    };
    let op_span = op_token.span;
    p.pos += 1;

    // Peek before consuming: if the clause just stops (`cores>= &`), the
    // `&` must stay put so recovery resumes at the next clause.
    let value_token = match p.peek() {
        None => {
            errors.push(QueryError::new(
                Span::point(p.end),
                format!("expected a value after `{}`", op.as_str()),
            ));
            return None;
        }
        Some(t) if matches!(t.kind, TokenKind::Amp) || is_tail_keyword(t) => {
            errors.push(QueryError::new(
                t.span,
                format!("expected a value after `{}`", op.as_str()),
            ));
            return None;
        }
        Some(t) => {
            p.pos += 1;
            t
        }
    };
    let value = match &value_token.kind {
        TokenKind::Int(v) => Lit::Int(*v),
        TokenKind::Float(v) => Lit::Float(*v),
        TokenKind::Str(v) => Lit::Str(v.clone()),
        TokenKind::Ident(w) if w == "null" => Lit::Null,
        // A bare word is a string literal: design=R.
        TokenKind::Ident(w) => Lit::Str(w.clone()),
        _ => {
            errors.push(QueryError::new(
                value_token.span,
                format!("expected a value after `{}`", op.as_str()),
            ));
            return None;
        }
    };

    Some(FilterExpr {
        column: column.clone(),
        column_span: first.span,
        op,
        op_span,
        value,
        value_span: value_token.span,
    })
}

fn parse_sort(p: &mut Parser<'_>, errors: &mut Vec<QueryError>) -> Option<SortExpr> {
    let token = match p.next() {
        Some(t) => t,
        None => {
            errors.push(QueryError::new(
                p.here(),
                "expected a column name after `sort`",
            ));
            return None;
        }
    };
    let TokenKind::Ident(column) = &token.kind else {
        errors.push(QueryError::new(
            token.span,
            "expected a column name after `sort`",
        ));
        return None;
    };
    let mut descending = false;
    if let Some(t) = p.peek() {
        if let TokenKind::Ident(w) = &t.kind {
            match w.as_str() {
                "asc" => {
                    p.pos += 1;
                }
                "desc" => {
                    descending = true;
                    p.pos += 1;
                }
                _ => {}
            }
        }
    }
    Some(SortExpr {
        column: column.clone(),
        column_span: token.span,
        descending,
    })
}

fn parse_show(p: &mut Parser<'_>, errors: &mut Vec<QueryError>) -> Option<Vec<(String, Span)>> {
    let mut columns = Vec::new();
    loop {
        let token = match p.next() {
            Some(t) => t,
            None => {
                errors.push(QueryError::new(
                    p.here(),
                    "expected a column name in the `show` list",
                ));
                return if columns.is_empty() {
                    None
                } else {
                    Some(columns)
                };
            }
        };
        match &token.kind {
            TokenKind::Ident(name) if !TAIL_KEYWORDS.contains(&name.as_str()) => {
                columns.push((name.clone(), token.span));
            }
            _ => {
                errors.push(QueryError::new(
                    token.span,
                    "expected a column name in the `show` list",
                ));
                return if columns.is_empty() {
                    None
                } else {
                    Some(columns)
                };
            }
        }
        match p.peek() {
            Some(t) if matches!(t.kind, TokenKind::Comma) => {
                p.pos += 1;
            }
            _ => return Some(columns),
        }
    }
}

fn parse_top(p: &mut Parser<'_>, errors: &mut Vec<QueryError>) -> Option<usize> {
    let token = match p.next() {
        Some(t) => t,
        None => {
            errors.push(QueryError::new(
                p.here(),
                "expected a row count after `top`",
            ));
            return None;
        }
    };
    match token.kind {
        TokenKind::Int(n) if n >= 0 => Some(n as usize),
        _ => {
            errors.push(QueryError::new(
                token.span,
                "expected a non-negative row count after `top`",
            ));
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::lexer;
    use super::*;

    fn parse_src(src: &str) -> (Ast, Vec<QueryError>) {
        let mut errors = Vec::new();
        let tokens = lexer::lex(src, &mut errors);
        let ast = parse(&tokens, src.len(), &mut errors);
        (ast, errors)
    }

    #[test]
    fn full_query_parses() {
        let (ast, errors) =
            parse_src("design=R & cores>=32 sort off_chip_rate desc show workload, cores top 5");
        assert!(errors.is_empty(), "{errors:?}");
        assert_eq!(ast.filters.len(), 2);
        assert_eq!(ast.filters[0].column, "design");
        assert_eq!(ast.filters[0].value, Lit::Str("R".into()));
        assert_eq!(ast.filters[1].value, Lit::Int(32));
        let sort = ast.sort.expect("sort clause");
        assert_eq!(sort.column, "off_chip_rate");
        assert!(sort.descending);
        let show = ast.show.expect("show clause");
        let show: Vec<&str> = show.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(show, ["workload", "cores"]);
        assert_eq!(ast.top, Some(5));
    }

    #[test]
    fn empty_query_selects_everything() {
        let (ast, errors) = parse_src("");
        assert!(errors.is_empty());
        assert_eq!(ast, Ast::default());
    }

    #[test]
    fn recovers_past_a_broken_clause() {
        // `cores > >` is broken; `design=R` after the `&` must still parse.
        let (ast, errors) = parse_src("cores> > & design=R");
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert_eq!(ast.filters.len(), 1);
        assert_eq!(ast.filters[0].column, "design");
    }

    #[test]
    fn multiple_errors_in_one_pass() {
        let (_, errors) = parse_src("cores>= & design= & top");
        assert!(
            errors.len() >= 3,
            "want one error per broken clause: {errors:?}"
        );
    }

    #[test]
    fn duplicate_tail_clause_is_an_error() {
        let (ast, errors) = parse_src("sort cores sort total_cpi");
        assert_eq!(errors.len(), 1);
        assert!(errors[0].message.contains("duplicate `sort`"));
        assert_eq!(ast.sort.expect("first sort wins").column, "cores");
    }

    #[test]
    fn null_and_bare_word_literals() {
        let (ast, errors) = parse_src("workload=null & config=full & design='true'");
        assert!(errors.is_empty());
        assert_eq!(ast.filters[0].value, Lit::Null);
        assert_eq!(ast.filters[1].value, Lit::Str("full".to_string()));
        assert_eq!(ast.filters[2].value, Lit::Str("true".to_string()));
    }
}
