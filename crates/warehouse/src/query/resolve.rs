//! Name resolution and type checking against the column catalog.
//!
//! Turns the parsed [`Ast`] into an executable [`Plan`]: every column
//! name becomes a catalog index, every literal is checked against the
//! column's type, and every operator against what the type supports.
//! Unknown names get a did-you-mean suggestion (closest catalog column by
//! edit distance). Like the parser, resolution keeps going after an
//! error, so a query with three bad names reports all three.

use super::lexer::CmpOp;
use super::parser::{Ast, Lit};
use super::QueryError;
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

/// Resolves `ast` against the catalog, accumulating diagnostics.
///
/// Always returns a plan; with a non-empty `errors` it is partial and the
/// caller must not execute it.
pub(super) fn resolve(ast: &Ast, errors: &mut Vec<QueryError>) -> Plan {
    let mut plan = Plan::default();

    for filter in &ast.filters {
        let Some(col) = lookup(&filter.column, filter.column_span, errors) else {
            continue;
        };
        let ty = CATALOG[col].ty;

        // Equality-only types reject ordering operators outright.
        let ordered = matches!(ty, ColumnType::Int | ColumnType::Float);
        if !ordered && !matches!(filter.op, CmpOp::Eq | CmpOp::Ne) {
            errors.push(
                QueryError::new(
                    filter.op_span,
                    format!(
                        "operator `{}` cannot apply to {} column `{}`",
                        filter.op.as_str(),
                        ty.name(),
                        filter.column
                    ),
                )
                .with_help(format!("{} columns support only `=` and `!=`", ty.name())),
            );
            continue;
        }

        let operand = match (&filter.value, ty) {
            (Lit::Null, _) => {
                if matches!(filter.op, CmpOp::Eq | CmpOp::Ne) {
                    Some(Operand::Null)
                } else {
                    errors.push(
                        QueryError::new(
                            filter.op_span,
                            format!("`{}` cannot compare against null", filter.op.as_str()),
                        )
                        .with_help("null supports only the presence tests `=` and `!=`"),
                    );
                    None
                }
            }
            (Lit::Int(v), ColumnType::Int) => Some(Operand::Int(*v)),
            (Lit::Int(v), ColumnType::Float) => Some(Operand::Number(*v as f64)),
            (Lit::Float(v), ColumnType::Int | ColumnType::Float) => Some(Operand::Number(*v)),
            (Lit::Str(v), ColumnType::Str) => Some(Operand::Str(v.clone())),
            (lit, _) => {
                errors.push(
                    QueryError::new(
                        filter.value_span,
                        format!(
                            "type mismatch: column `{}` is {}, but the value is {}",
                            filter.column,
                            ty.name(),
                            lit.type_name()
                        ),
                    )
                    .with_help(literal_hint(ty)),
                );
                None
            }
        };
        if let Some(operand) = operand {
            plan.filters.push(Filter {
                col,
                op: filter.op,
                operand,
            });
        }
    }

    if let Some(sort) = &ast.sort {
        if let Some(col) = lookup(&sort.column, sort.column_span, errors) {
            plan.sort = Some((col, sort.descending));
        }
    }

    if let Some(show) = &ast.show {
        for (name, span) in show {
            if let Some(col) = lookup(name, *span, errors) {
                plan.show.push(col);
            }
        }
    }

    plan.top = ast.top;
    plan
}

fn literal_hint(ty: ColumnType) -> String {
    match ty {
        ColumnType::Int => "write an integer, e.g. `cores>=32`".to_string(),
        ColumnType::Float => "write a number, e.g. `off_chip_rate<0.2`".to_string(),
        ColumnType::Str => "write a bare word or quoted string, e.g. `design=R`".to_string(),
    }
}

fn lookup(name: &str, span: super::Span, errors: &mut Vec<QueryError>) -> Option<usize> {
    if let Some(col) = column_index(name) {
        return Some(col);
    }
    let mut err = QueryError::new(span, format!("unknown column `{name}`"));
    if let Some(suggestion) = closest_column(name) {
        err = err.with_help(format!("did you mean `{suggestion}`?"));
    }
    errors.push(err);
    None
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
    use super::super::{lexer, parser};
    use super::*;

    fn resolve_src(src: &str) -> (Plan, Vec<QueryError>) {
        let mut errors = Vec::new();
        let tokens = lexer::lex(src, &mut errors);
        let ast = parser::parse(&tokens, src.len(), &mut errors);
        let plan = resolve(&ast, &mut errors);
        (plan, errors)
    }

    #[test]
    fn resolves_a_clean_query() {
        let (plan, errors) = resolve_src("design=R & cores>=32 sort off_chip_rate show workload");
        assert!(errors.is_empty(), "{errors:?}");
        assert_eq!(plan.filters.len(), 2);
        assert_eq!(plan.filters[0].operand, Operand::Str("R".into()));
        assert_eq!(plan.filters[1].operand, Operand::Int(32));
        assert!(plan.sort.is_some());
        assert_eq!(plan.show.len(), 1);
    }

    #[test]
    fn unknown_column_suggests_the_closest_name() {
        let (_, errors) = resolve_src("coress>=32");
        assert_eq!(errors.len(), 1);
        assert!(errors[0].message.contains("unknown column `coress`"));
        assert_eq!(errors[0].help.as_deref(), Some("did you mean `cores`?"));
    }

    #[test]
    fn hopeless_names_get_no_suggestion() {
        let (_, errors) = resolve_src("zzzzzzzzz=1");
        assert_eq!(errors.len(), 1);
        assert!(errors[0].help.is_none(), "{errors:?}");
    }

    #[test]
    fn ordering_on_a_string_column_is_a_bad_operator() {
        let (_, errors) = resolve_src("design>=R");
        assert_eq!(errors.len(), 1);
        assert!(errors[0]
            .message
            .contains("operator `>=` cannot apply to str column `design`"));
    }

    #[test]
    fn type_mismatch_names_both_sides() {
        let (_, errors) = resolve_src("cores=apache");
        assert_eq!(errors.len(), 1);
        assert!(errors[0]
            .message
            .contains("column `cores` is int, but the value is a string"));
    }

    #[test]
    fn null_requires_equality() {
        let (plan, errors) = resolve_src("workload!=null");
        assert!(errors.is_empty());
        assert_eq!(plan.filters[0].operand, Operand::Null);
        let (_, errors) = resolve_src("workload>null");
        assert_eq!(errors.len(), 1, "{errors:?}");
    }

    #[test]
    fn all_errors_reported_in_one_pass() {
        let (_, errors) = resolve_src("coress=1 & design>=R & cores=apache");
        assert_eq!(errors.len(), 3, "{errors:?}");
    }
}
