//! Resilient recursive-descent parser that resolves as it parses: token
//! stream to executable [`Plan`].
//!
//! The parser never stops at the first problem. A malformed filter
//! records a diagnostic and skips forward to the next `&` or tail
//! keyword (`sort` / `show` / `top`), so one pass over a broken query
//! reports every independent mistake — the property the CLI relies on to
//! show all diagnostics at once.
//!
//! As soon as a clause has parsed it is resolved against the typed
//! [catalog](crate::catalog::CATALOG): every column name becomes a catalog
//! index (an unknown one gets a did-you-mean suggestion), every operator is
//! checked against what the column's type supports, and every literal
//! against the column's type. A clause that did not parse, or a repeated
//! tail clause, is not resolved.

use super::lexer::{CmpOp, Token, TokenKind};
use super::{QueryError, Span};
use crate::catalog::{column_index, ColumnType, CATALOG};

/// A type-checked literal, ready to compare against cells.
#[derive(Debug, Clone, PartialEq)]
pub(super) enum Operand {
    /// Compare numerically (Int columns promote to f64 when the literal
    /// is a float, and vice versa).
    Number(f64),
    /// Compare exact integer (avoids f64 rounding for i64-range values).
    Int(i64),
    Str(String),
    /// `= null` / `!= null` presence test.
    Null,
}

/// One executable filter.
#[derive(Debug, Clone, PartialEq)]
pub(super) struct Filter {
    pub(super) col: usize,
    pub(super) op: CmpOp,
    pub(super) operand: Operand,
}

/// The executable query.
#[derive(Debug, Clone, Default, PartialEq)]
pub(super) struct Plan {
    pub(super) filters: Vec<Filter>,
    /// `(column, descending)`.
    pub(super) sort: Option<(usize, bool)>,
    /// Projected column indices; empty means "all columns".
    pub(super) show: Vec<usize>,
    pub(super) top: Option<usize>,
}

/// A column name as written, with its span.
type Name<'a> = (&'a str, Span);

/// The tail keywords that end the filter section.
const TAIL_KEYWORDS: [&str; 3] = ["sort", "show", "top"];

fn is_tail_keyword(token: &Token) -> bool {
    matches!(&token.kind, TokenKind::Ident(w) if TAIL_KEYWORDS.contains(&w.as_str()))
}

struct Parser<'a, 'e> {
    tokens: &'a [Token],
    pos: usize,
    end: usize,
    errors: &'e mut Vec<QueryError>,
}

/// Parses and resolves `tokens` into a [`Plan`], accumulating diagnostics
/// in `errors`.
///
/// `source_len` anchors end-of-query spans. Always returns a plan; with a
/// non-empty `errors` it is partial and the caller must not execute it.
pub(super) fn parse(tokens: &[Token], source_len: usize, errors: &mut Vec<QueryError>) -> Plan {
    let mut p = Parser {
        tokens,
        pos: 0,
        end: source_len,
        errors,
    };
    let mut plan = Plan::default();

    // Filter section: clauses separated by `&`, ended by a tail keyword.
    let mut expect_clause = false; // true right after a consumed `&`
    while let Some(t) = p.peek() {
        if is_tail_keyword(t) {
            if expect_clause {
                p.errors
                    .push(QueryError::new(t.span, "expected a filter after `&`"));
            }
            break;
        }
        expect_clause = false;
        match p.filter() {
            Some(filter) => plan.filters.extend(filter),
            None => {
                p.skip_to_clause_boundary();
                continue;
            }
        }
        if matches!(p.peek(), Some(t) if matches!(t.kind, TokenKind::Amp)) {
            p.pos += 1;
            expect_clause = true;
        }
    }
    if expect_clause && p.peek().is_none() {
        p.errors
            .push(QueryError::new(p.here(), "expected a filter after `&`"));
    }

    // Tail section: sort / show / top, each at most once, any order.
    let (mut sorted, mut shown, mut topped) = (false, false, false);
    while let Some(t) = p.next() {
        let TokenKind::Ident(word) = &t.kind else {
            p.errors.push(QueryError::new(
                t.span,
                "expected `sort`, `show`, or `top` after the filters",
            ));
            continue;
        };
        match word.as_str() {
            "sort" => {
                let clause = p.sort();
                if let Some((name, descending)) = p.first_wins(&mut sorted, clause, t.span, "sort")
                {
                    plan.sort = p.lookup(name).map(|col| (col, descending));
                }
            }
            "show" => {
                let clause = p.show();
                for name in p
                    .first_wins(&mut shown, clause, t.span, "show")
                    .into_iter()
                    .flatten()
                {
                    plan.show.extend(p.lookup(name));
                }
            }
            "top" => {
                let clause = p.top();
                if let Some(n) = p.first_wins(&mut topped, clause, t.span, "top") {
                    plan.top = Some(n);
                }
            }
            other => {
                p.errors.push(
                    QueryError::new(
                        t.span,
                        format!("expected `sort`, `show`, or `top`, found `{other}`"),
                    )
                    .with_help("filters must come before sort/show/top and be joined with `&`"),
                );
            }
        }
    }

    plan
}

impl<'a> Parser<'a, '_> {
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

    /// The span of the next token, or the end of the query (for "expected
    /// X, found end of query" diagnostics).
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

    /// The first `sort`/`show`/`top` clause of a kind wins: a repeat is a
    /// diagnostic and comes back `None`, so it is never resolved. `kept`
    /// says whether an earlier clause of this kind parsed.
    fn first_wins<T>(
        &mut self,
        kept: &mut bool,
        clause: Option<T>,
        at: Span,
        what: &str,
    ) -> Option<T> {
        if *kept {
            self.errors
                .push(QueryError::new(at, format!("duplicate `{what}` clause")));
            return None;
        }
        *kept = clause.is_some();
        clause
    }

    /// Parses one `column op literal` clause and resolves it. `None`: the
    /// clause did not parse (the caller skips past it); `Some(None)`: it
    /// parsed but did not resolve.
    fn filter(&mut self) -> Option<Option<Filter>> {
        let first = self.next().expect("caller checked peek");
        let TokenKind::Ident(column) = &first.kind else {
            self.errors.push(QueryError::new(
                first.span,
                "expected a column name to start a filter",
            ));
            return None;
        };

        let Some(op_token) = self.peek() else {
            self.errors.push(QueryError::new(
                Span::point(self.end),
                format!("filter on `{column}` is missing its operator and value"),
            ));
            return None;
        };
        let TokenKind::Op(op) = op_token.kind else {
            self.errors.push(
                QueryError::new(
                    op_token.span,
                    format!("expected a comparison operator after `{column}`"),
                )
                .with_help("operators are =, !=, <, <=, >, >="),
            );
            return None;
        };
        self.pos += 1;

        // A value is a number, a quoted string or a bare word other than a
        // tail keyword. Anything else stays put: if the clause just stops
        // (`cores>= &`), recovery resumes at the next clause.
        let value = self.peek().filter(|t| match &t.kind {
            TokenKind::Int(_) | TokenKind::Float(_) | TokenKind::Str(_) => true,
            TokenKind::Ident(_) => !is_tail_keyword(t),
            _ => false,
        });
        let Some(value) = value else {
            self.errors.push(QueryError::new(
                self.here(),
                format!("expected a value after `{}`", op.as_str()),
            ));
            return None;
        };
        self.pos += 1;

        Some(self.resolve_filter((column.as_str(), first.span), op, op_token.span, value))
    }

    /// Resolves a parsed filter: the column must exist, the operator must
    /// suit its type, and the literal must match that type.
    fn resolve_filter(
        &mut self,
        (column, span): Name<'_>,
        op: CmpOp,
        op_span: Span,
        value: &Token,
    ) -> Option<Filter> {
        let col = self.lookup((column, span))?;
        let ty = CATALOG[col].ty;
        let equality = matches!(op, CmpOp::Eq | CmpOp::Ne);

        // Equality-only types reject ordering operators outright.
        if !equality && ty == ColumnType::Str {
            self.errors.push(
                QueryError::new(
                    op_span,
                    format!(
                        "operator `{}` cannot apply to {} column `{column}`",
                        op.as_str(),
                        ty.name(),
                    ),
                )
                .with_help(format!("{} columns support only `=` and `!=`", ty.name())),
            );
            return None;
        }

        let operand = match (&value.kind, ty) {
            // A bare `null` is the presence test; a quoted 'null' is a string.
            (TokenKind::Ident(w), _) if w == "null" => {
                if !equality {
                    self.errors.push(
                        QueryError::new(
                            op_span,
                            format!("`{}` cannot compare against null", op.as_str()),
                        )
                        .with_help("null supports only the presence tests `=` and `!=`"),
                    );
                    return None;
                }
                Operand::Null
            }
            (TokenKind::Int(v), ColumnType::Int) => Operand::Int(*v),
            (TokenKind::Int(v), ColumnType::Float) => Operand::Number(*v as f64),
            (TokenKind::Float(v), ColumnType::Int | ColumnType::Float) => Operand::Number(*v),
            // A bare word is a string literal: design=R.
            (TokenKind::Str(v) | TokenKind::Ident(v), ColumnType::Str) => Operand::Str(v.clone()),
            (kind, _) => {
                let found = match kind {
                    TokenKind::Int(_) => "an integer",
                    TokenKind::Float(_) => "a float",
                    _ => "a string",
                };
                self.errors.push(
                    QueryError::new(
                        value.span,
                        format!(
                            "type mismatch: column `{column}` is {}, but the value is {found}",
                            ty.name(),
                        ),
                    )
                    .with_help(literal_hint(ty)),
                );
                return None;
            }
        };
        Some(Filter { col, op, operand })
    }

    fn sort(&mut self) -> Option<(Name<'a>, bool)> {
        let column = self.column("expected a column name after `sort`")?;
        let descending = match self.peek().map(|t| &t.kind) {
            Some(TokenKind::Ident(w)) if w == "asc" || w == "desc" => {
                self.pos += 1;
                w == "desc"
            }
            _ => false,
        };
        Some((column, descending))
    }

    /// The next token as a column name, or `message` at it (or at the end
    /// of the query).
    fn column(&mut self, message: &str) -> Option<Name<'a>> {
        match self.next() {
            Some(Token {
                kind: TokenKind::Ident(name),
                span,
            }) => Some((name.as_str(), *span)),
            Some(t) => {
                self.errors.push(QueryError::new(t.span, message));
                None
            }
            None => {
                self.errors.push(QueryError::new(self.here(), message));
                None
            }
        }
    }

    /// The `show` list. A list broken after some names keeps those names.
    fn show(&mut self) -> Option<Vec<Name<'a>>> {
        const MESSAGE: &str = "expected a column name in the `show` list";
        let mut columns = Vec::new();
        loop {
            let column = match self.peek() {
                Some(t) if is_tail_keyword(t) => {
                    self.pos += 1;
                    self.errors.push(QueryError::new(t.span, MESSAGE));
                    None
                }
                _ => self.column(MESSAGE),
            };
            let Some(column) = column else {
                return (!columns.is_empty()).then_some(columns);
            };
            columns.push(column);
            match self.peek() {
                Some(t) if matches!(t.kind, TokenKind::Comma) => {
                    self.pos += 1;
                }
                _ => return Some(columns),
            }
        }
    }

    fn top(&mut self) -> Option<usize> {
        let Some(token) = self.next() else {
            self.errors.push(QueryError::new(
                self.here(),
                "expected a row count after `top`",
            ));
            return None;
        };
        match token.kind {
            TokenKind::Int(n) if n >= 0 => Some(n as usize),
            _ => {
                self.errors.push(QueryError::new(
                    token.span,
                    "expected a non-negative row count after `top`",
                ));
                None
            }
        }
    }

    /// The catalog index of a column name, or an `unknown column`
    /// diagnostic with a did-you-mean suggestion when one is close enough.
    fn lookup(&mut self, (name, span): Name<'_>) -> Option<usize> {
        if let Some(col) = column_index(name) {
            return Some(col);
        }
        let mut err = QueryError::new(span, format!("unknown column `{name}`"));
        if let Some(suggestion) = closest_column(name) {
            err = err.with_help(format!("did you mean `{suggestion}`?"));
        }
        self.errors.push(err);
        None
    }
}

fn literal_hint(ty: ColumnType) -> &'static str {
    match ty {
        ColumnType::Int => "write an integer, e.g. `cores>=32`",
        ColumnType::Float => "write a number, e.g. `off_chip_rate<0.2`",
        ColumnType::Str => "write a bare word or quoted string, e.g. `design=R`",
    }
}

/// The catalog column closest to `name`, if it is close enough for the
/// suggestion to be plausible rather than noise.
fn closest_column(name: &str) -> Option<&'static str> {
    let budget = 1 + name.chars().count() / 3;
    CATALOG
        .iter()
        .map(|c| (edit_distance(name, c.name), c.name))
        .filter(|&(d, _)| d <= budget)
        .min_by_key(|&(d, _)| d)
        .map(|(_, n)| n)
}

/// Levenshtein distance over chars (the query language is ASCII in
/// practice; catalog names certainly are).
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::super::lexer;
    use super::*;

    fn parse_src(src: &str) -> (Plan, Vec<QueryError>) {
        let mut errors = Vec::new();
        let tokens = lexer::lex(src, &mut errors);
        let plan = parse(&tokens, src.len(), &mut errors);
        (plan, errors)
    }

    fn col(name: &str) -> usize {
        column_index(name).expect("catalog column")
    }

    #[test]
    fn full_query_parses() {
        let (plan, errors) =
            parse_src("design=R & cores>=32 sort off_chip_rate desc show workload, cores top 5");
        assert!(errors.is_empty(), "{errors:?}");
        assert_eq!(
            plan.filters,
            [
                Filter {
                    col: col("design"),
                    op: CmpOp::Eq,
                    operand: Operand::Str("R".into()),
                },
                Filter {
                    col: col("cores"),
                    op: CmpOp::Ge,
                    operand: Operand::Int(32),
                },
            ]
        );
        assert_eq!(plan.sort, Some((col("off_chip_rate"), true)));
        assert_eq!(plan.show, [col("workload"), col("cores")]);
        assert_eq!(plan.top, Some(5));
    }

    #[test]
    fn empty_query_selects_everything() {
        let (plan, errors) = parse_src("");
        assert!(errors.is_empty());
        assert_eq!(plan, Plan::default());
    }

    #[test]
    fn recovers_past_a_broken_clause() {
        // `cores > >` is broken; `design=R` after the `&` must still parse.
        let (plan, errors) = parse_src("cores> > & design=R");
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert_eq!(plan.filters.len(), 1);
        assert_eq!(plan.filters[0].col, col("design"));
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
        let (plan, errors) = parse_src("sort cores sort total_cpi");
        assert_eq!(errors.len(), 1);
        assert!(errors[0].message.contains("duplicate `sort`"));
        assert_eq!(plan.sort, Some((col("cores"), false)), "first sort wins");
        // The first clause is kept even when it does not resolve, and the
        // repeat is not resolved at all: one unknown column, one duplicate.
        let (plan, errors) = parse_src("sort corse sort zzzz");
        let messages: Vec<&str> = errors.iter().map(|e| e.message.as_str()).collect();
        assert_eq!(
            messages,
            ["unknown column `corse`", "duplicate `sort` clause"]
        );
        assert_eq!(plan.sort, None);
        // A clause that did not parse is not kept: the next one is.
        let (plan, errors) = parse_src("sort 5 sort cores");
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert_eq!(plan.sort, Some((col("cores"), false)));
    }

    #[test]
    fn null_and_bare_word_literals() {
        let (plan, errors) = parse_src("workload=null & config=full & design='true'");
        assert!(errors.is_empty());
        assert_eq!(plan.filters[0].operand, Operand::Null);
        assert_eq!(plan.filters[1].operand, Operand::Str("full".to_string()));
        assert_eq!(plan.filters[2].operand, Operand::Str("true".to_string()));
    }

    #[test]
    fn resolves_a_clean_query() {
        let (plan, errors) = parse_src("design=R & cores>=32 sort off_chip_rate show workload");
        assert!(errors.is_empty(), "{errors:?}");
        assert_eq!(plan.filters.len(), 2);
        assert_eq!(plan.filters[0].operand, Operand::Str("R".into()));
        assert_eq!(plan.filters[1].operand, Operand::Int(32));
        assert!(plan.sort.is_some());
        assert_eq!(plan.show.len(), 1);
    }

    #[test]
    fn unknown_column_suggests_the_closest_name() {
        let (_, errors) = parse_src("coress>=32");
        assert_eq!(errors.len(), 1);
        assert!(errors[0].message.contains("unknown column `coress`"));
        assert_eq!(errors[0].help.as_deref(), Some("did you mean `cores`?"));
    }

    #[test]
    fn hopeless_names_get_no_suggestion() {
        let (_, errors) = parse_src("zzzzzzzzz=1");
        assert_eq!(errors.len(), 1);
        assert!(errors[0].help.is_none(), "{errors:?}");
    }

    #[test]
    fn ordering_on_a_string_column_is_a_bad_operator() {
        let (_, errors) = parse_src("design>=R");
        assert_eq!(errors.len(), 1);
        assert!(errors[0]
            .message
            .contains("operator `>=` cannot apply to str column `design`"));
    }

    #[test]
    fn type_mismatch_names_both_sides() {
        let (_, errors) = parse_src("cores=apache");
        assert_eq!(errors.len(), 1);
        assert!(errors[0]
            .message
            .contains("column `cores` is int, but the value is a string"));
    }

    #[test]
    fn null_requires_equality() {
        let (plan, errors) = parse_src("workload!=null");
        assert!(errors.is_empty());
        assert_eq!(plan.filters[0].operand, Operand::Null);
        let (_, errors) = parse_src("workload>null");
        assert_eq!(errors.len(), 1, "{errors:?}");
    }

    #[test]
    fn all_errors_reported_in_one_pass() {
        let (_, errors) = parse_src("coress=1 & design>=R & cores=apache");
        assert_eq!(errors.len(), 3, "{errors:?}");
    }
}
