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

/// Every diagnostic the lexer, parser and resolver can emit, each with its
/// exact span, message and help. The pipeline may report them in any order
/// (it checks one clause at a time), so both sides are compared sorted.
#[allow(clippy::type_complexity)]
const PINNED: &[(&str, &[((usize, usize), &str, Option<&str>)])] = &[
    (
        "cores ! 32",
        &[
            ((6, 7), "stray `!` (the inequality operator is `!=`)", None),
            (
                (8, 10),
                "expected a comparison operator after `cores`",
                Some("operators are =, !=, <, <=, >, >="),
            ),
        ],
    ),
    (
        "design='R & cores>=32",
        &[
            ((7, 21), "unterminated string (missing closing `'`)", None),
            ((21, 21), "expected a value after `=`", None),
        ],
    ),
    (
        "cores>=1e & total_cpi<1.5.5",
        &[
            ((7, 9), "`1e` is not a valid number", None),
            ((22, 27), "`1.5.5` is not a valid number", None),
            ((10, 11), "expected a value after `>=`", None),
            ((27, 27), "expected a value after `<`", None),
        ],
    ),
    (
        "cores ? 32 & design=é",
        &[
            ((6, 7), "unexpected character `?`", None),
            ((20, 22), "unexpected character `é`", None),
            (
                (8, 10),
                "expected a comparison operator after `cores`",
                Some("operators are =, !=, <, <=, >, >="),
            ),
            ((22, 22), "expected a value after `=`", None),
        ],
    ),
    (
        "design=R & sort cores",
        &[((11, 15), "expected a filter after `&`", None)],
    ),
    (
        "design=R &",
        &[((10, 10), "expected a filter after `&`", None)],
    ),
    (
        "sort cores design=R",
        &[
            (
                (11, 17),
                "expected `sort`, `show`, or `top`, found `design`",
                Some("filters must come before sort/show/top and be joined with `&`"),
            ),
            (
                (17, 18),
                "expected `sort`, `show`, or `top` after the filters",
                None,
            ),
            (
                (18, 19),
                "expected `sort`, `show`, or `top`, found `R`",
                Some("filters must come before sort/show/top and be joined with `&`"),
            ),
        ],
    ),
    (
        "sort cores 5 , top 1",
        &[
            (
                (11, 12),
                "expected `sort`, `show`, or `top` after the filters",
                None,
            ),
            (
                (13, 14),
                "expected `sort`, `show`, or `top` after the filters",
                None,
            ),
        ],
    ),
    (
        "top 1 top 2 sort seed sort zzzz show seed show coress",
        &[
            ((6, 9), "duplicate `top` clause", None),
            ((22, 26), "duplicate `sort` clause", None),
            ((42, 46), "duplicate `show` clause", None),
        ],
    ),
    (
        "sort 5 sort corse desc",
        &[
            ((5, 6), "expected a column name after `sort`", None),
            (
                (12, 17),
                "unknown column `corse`",
                Some("did you mean `cores`?"),
            ),
        ],
    ),
    (
        "=5 & cores 32 & design",
        &[
            ((0, 1), "expected a column name to start a filter", None),
            (
                (11, 13),
                "expected a comparison operator after `cores`",
                Some("operators are =, !=, <, <=, >, >="),
            ),
            (
                (22, 22),
                "filter on `design` is missing its operator and value",
                None,
            ),
        ],
    ),
    (
        "cores>= & design= sort seed",
        &[
            ((8, 9), "expected a value after `>=`", None),
            ((18, 22), "expected a value after `=`", None),
        ],
    ),
    (
        "cores>=, & workload<",
        &[
            ((7, 8), "expected a value after `>=`", None),
            ((20, 20), "expected a value after `<`", None),
        ],
    ),
    (
        "sort",
        &[((4, 4), "expected a column name after `sort`", None)],
    ),
    (
        "show",
        &[((4, 4), "expected a column name in the `show` list", None)],
    ),
    (
        "show seed, 5 show cores",
        &[
            ((11, 12), "expected a column name in the `show` list", None),
            ((13, 17), "duplicate `show` clause", None),
        ],
    ),
    (
        "show seed, top 3",
        &[
            ((11, 14), "expected a column name in the `show` list", None),
            (
                (15, 16),
                "expected `sort`, `show`, or `top` after the filters",
                None,
            ),
        ],
    ),
    (
        "top -1",
        &[(
            (4, 6),
            "expected a non-negative row count after `top`",
            None,
        )],
    ),
    (
        "top x",
        &[(
            (4, 5),
            "expected a non-negative row count after `top`",
            None,
        )],
    ),
    ("top", &[((3, 3), "expected a row count after `top`", None)]),
    (
        "design>=R & workload<'apache'",
        &[
            (
                (6, 8),
                "operator `>=` cannot apply to str column `design`",
                Some("str columns support only `=` and `!=`"),
            ),
            (
                (20, 21),
                "operator `<` cannot apply to str column `workload`",
                Some("str columns support only `=` and `!=`"),
            ),
        ],
    ),
    (
        "cores<null & total_cpi>=null & design!=null",
        &[
            (
                (5, 6),
                "`<` cannot compare against null",
                Some("null supports only the presence tests `=` and `!=`"),
            ),
            (
                (22, 24),
                "`>=` cannot compare against null",
                Some("null supports only the presence tests `=` and `!=`"),
            ),
        ],
    ),
    (
        "cores=apache & design=5 & total_cpi='x' & workload=1.5 & seed=2.5",
        &[
            (
                (6, 12),
                "type mismatch: column `cores` is int, but the value is a string",
                Some("write an integer, e.g. `cores>=32`"),
            ),
            (
                (22, 23),
                "type mismatch: column `design` is str, but the value is an integer",
                Some("write a bare word or quoted string, e.g. `design=R`"),
            ),
            (
                (36, 39),
                "type mismatch: column `total_cpi` is float, but the value is a string",
                Some("write a number, e.g. `off_chip_rate<0.2`"),
            ),
            (
                (51, 54),
                "type mismatch: column `workload` is str, but the value is a float",
                Some("write a bare word or quoted string, e.g. `design=R`"),
            ),
        ],
    ),
    (
        "coress>=32",
        &[(
            (0, 6),
            "unknown column `coress`",
            Some("did you mean `cores`?"),
        )],
    ),
    (
        "zzzzzzzzz=1 & sort qqqqqqqqqq show desing, wrkload",
        &[
            ((14, 18), "expected a filter after `&`", None),
            ((0, 9), "unknown column `zzzzzzzzz`", None),
            ((19, 29), "unknown column `qqqqqqqqqq`", None),
            (
                (35, 41),
                "unknown column `desing`",
                Some("did you mean `design`?"),
            ),
            (
                (43, 50),
                "unknown column `wrkload`",
                Some("did you mean `workload`?"),
            ),
        ],
    ),
];

#[test]
fn every_diagnostic_keeps_its_span_message_and_help() {
    let w = store_with_one_row();
    for &(src, want) in PINNED {
        let mut got: Vec<((usize, usize), String, Option<String>)> = match w.query(src) {
            Ok(_) => Vec::new(),
            Err(errors) => errors
                .into_iter()
                .map(|e| ((e.span.start, e.span.end), e.message, e.help))
                .collect(),
        };
        let mut want: Vec<((usize, usize), String, Option<String>)> = want
            .iter()
            .map(|&(span, message, help)| (span, message.to_string(), help.map(String::from)))
            .collect();
        let key = |d: &((usize, usize), String, Option<String>)| {
            (d.0 .0, d.1.clone(), d.0 .1, d.2.clone())
        };
        got.sort_by_key(key);
        want.sort_by_key(key);
        assert_eq!(got, want, "diagnostics of {src:?}");
    }
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
