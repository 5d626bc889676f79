//! Query diagnostics: every class of user mistake gets a message that
//! names the problem, carries the right span, and (where a fix is
//! guessable) suggests it — and a broken clause never hides the errors
//! after it.

use proptest::prelude::*;
use rnuca_warehouse::{render_errors, RowKind, RunRecord, Span, Warehouse};

fn store_with_one_row() -> Warehouse {
    let w = Warehouse::new();
    let mut r = RunRecord::new(RowKind::Scenario, 42, 5, "full");
    r.workload = Some("apache".to_string());
    r.design = Some("R".to_string());
    r.cores = Some(32);
    w.append(&r);
    w
}

#[test]
fn unknown_column_points_at_the_name_and_suggests() {
    let w = store_with_one_row();
    let src = "design=R & coress>=32";
    let errors = w.query(src).expect_err("coress is not a column");
    assert_eq!(errors.len(), 1);
    assert_eq!(errors[0].message, "unknown column `coress`");
    assert_eq!(
        errors[0].span,
        Span::new(11, 17),
        "span must cover `coress`"
    );
    assert_eq!(errors[0].help.as_deref(), Some("did you mean `cores`?"));

    let rendered = errors[0].render(src);
    assert!(rendered.contains("^^^^^^"), "caret underline:\n{rendered}");
    assert!(rendered.contains("= help: did you mean `cores`?"));
}

#[test]
fn type_mismatch_names_column_type_and_value_type() {
    let w = store_with_one_row();
    let src = "cores=apache";
    let errors = w.query(src).expect_err("int column, string value");
    assert_eq!(errors.len(), 1);
    assert_eq!(
        errors[0].message,
        "type mismatch: column `cores` is int, but the value is a string"
    );
    assert_eq!(errors[0].span, Span::new(6, 12), "span must cover `apache`");
    assert!(errors[0]
        .help
        .as_deref()
        .expect("hint")
        .contains("cores>=32"));
}

#[test]
fn ordering_operator_on_a_string_column_is_rejected() {
    let w = store_with_one_row();
    let src = "design>=R";
    let errors = w.query(src).expect_err("str columns are equality-only");
    assert_eq!(errors.len(), 1);
    assert_eq!(
        errors[0].message,
        "operator `>=` cannot apply to str column `design`"
    );
    assert_eq!(errors[0].span, Span::new(6, 8), "span must cover `>=`");
    assert_eq!(
        errors[0].help.as_deref(),
        Some("str columns support only `=` and `!=`")
    );
}

#[test]
fn all_mistakes_surface_in_one_pass() {
    let w = store_with_one_row();
    // Three independent mistakes: unknown column, bad operator, missing
    // value. Resilient parsing must report all of them together.
    let src = "coress=1 & design>=R & cores>=";
    let errors = w.query(src).expect_err("three broken clauses");
    assert_eq!(errors.len(), 3, "{errors:?}");
    assert!(errors
        .iter()
        .any(|e| e.message.contains("unknown column `coress`")));
    assert!(errors
        .iter()
        .any(|e| e.message.contains("operator `>=` cannot apply")));
    assert!(errors
        .iter()
        .any(|e| e.message.contains("expected a value after `>=`")));

    // render_errors stacks one compiler-style block per diagnostic.
    let rendered = render_errors(&errors, src);
    assert_eq!(rendered.matches("error:").count(), 3, "{rendered}");
    assert_eq!(
        rendered
            .matches("  | coress=1 & design>=R & cores>=")
            .count(),
        3
    );
}

#[test]
fn good_clauses_still_execute_after_fixing_the_bad_one() {
    // The recovery story end-to-end: the fixed-up query runs and filters.
    let w = store_with_one_row();
    let out = w
        .query("design=R & cores>=32 show workload")
        .expect("clean");
    assert_eq!(out.rows.len(), 1);
    let none = w.query("design=R & cores>=33").expect("clean");
    assert_eq!(none.rows.len(), 0);
}

#[test]
fn end_of_query_errors_use_a_point_span() {
    let w = store_with_one_row();
    let src = "cores>=";
    let errors = w.query(src).expect_err("missing value");
    assert_eq!(errors.len(), 1);
    assert_eq!(errors[0].span, Span::point(src.len()));
    // The caret still renders (one caret just past the text).
    let caret_line = errors[0]
        .render(src)
        .lines()
        .nth(2)
        .expect("caret line")
        .to_string();
    assert!(caret_line.ends_with('^'), "{caret_line}");
}

/// Query fragments an arbitrary query is assembled from: keywords, column
/// names, every operator, quotes, number shapes, whitespace and multi-byte
/// characters, so generated soup reaches every lexer and parser state.
const FRAGMENTS: &[&str] = &[
    "design",
    "cores",
    "workload",
    "total_cpi",
    "sort",
    "desc",
    "show",
    "top",
    "coress",
    "R",
    "apache",
    "=",
    "==",
    "!=",
    "!",
    "<",
    "<=",
    ">",
    ">=",
    "&",
    ",",
    "'",
    "\"",
    "32",
    "-",
    "1.5",
    "1e",
    "e+",
    ".",
    "_",
    " ",
    "\t",
    "\n",
    "é",
    "∑",
    "🦀",
    "\u{0}",
];

proptest! {
    #[test]
    fn arbitrary_queries_execute_or_render_their_errors(
        picks in proptest::collection::vec((0..FRAGMENTS.len() + 1, any::<u32>()), 0..24),
    ) {
        // One pick past the fragments is an arbitrary Unicode scalar.
        let src: String = picks
            .iter()
            .map(|&(i, c)| match FRAGMENTS.get(i) {
                Some(f) => f.to_string(),
                None => char::from_u32(c % 0x11_0000).unwrap_or('\u{fffd}').to_string(),
            })
            .collect();
        match store_with_one_row().query(&src) {
            Ok(out) => prop_assert!(out.rows.len() <= 1, "{src:?}"),
            Err(errors) => {
                prop_assert!(!errors.is_empty(), "an Err carries a message: {src:?}");
                let rendered = render_errors(&errors, &src);
                prop_assert!(rendered.contains("error"), "{src:?}: {rendered}");
            }
        }
    }
}
