//! Query execution over the row store.
//!
//! Filters are conjunctive; comparisons against a null cell are false
//! (except the explicit `= null` / `!= null` presence tests). Sorting is
//! stable with nulls last, and NaNs after every number, regardless of
//! direction, so ties and gaps stay deterministic. Projection defaults to
//! every catalog column.

use std::cmp::Ordering;

use super::lexer::CmpOp;
use super::parser::{Filter, Operand, Plan};
use super::QueryOutput;
use crate::catalog::CATALOG;
use crate::store::{Store, Value};

/// Runs a resolved plan: filter, sort, truncate, project.
pub(super) fn execute(store: &Store, plan: &Plan) -> QueryOutput {
    let mut rows: Vec<usize> = (0..store.row_count())
        .filter(|&row| plan.filters.iter().all(|f| matches(store, row, f)))
        .collect();

    if let Some((col, descending)) = plan.sort {
        rows.sort_by(|&a, &b| {
            let (x, y) = (store.value(a, col), store.value(b, col));
            // Gaps sort last in both directions: decide them before the
            // direction flip so `desc` cannot float them to the top.
            gap(x).cmp(&gap(y)).then_with(|| {
                let cmp = cmp_cells(x, y);
                if descending {
                    cmp.reverse()
                } else {
                    cmp
                }
            })
        });
    }

    if let Some(top) = plan.top {
        rows.truncate(top);
    }

    let projected: Vec<usize> = if plan.show.is_empty() {
        (0..CATALOG.len()).collect()
    } else {
        plan.show.clone()
    };
    QueryOutput {
        columns: projected.iter().map(|&c| CATALOG[c].name).collect(),
        rows: rows
            .iter()
            .map(|&row| {
                projected
                    .iter()
                    .map(|&c| store.value(row, c).clone())
                    .collect()
            })
            .collect(),
    }
}

fn matches(store: &Store, row: usize, filter: &Filter) -> bool {
    let cell = store.value(row, filter.col);
    match (&filter.operand, cell) {
        // Presence tests are the only filters that see null cells.
        (Operand::Null, _) => {
            let is_null = matches!(cell, Value::Null);
            match filter.op {
                CmpOp::Eq => is_null,
                CmpOp::Ne => !is_null,
                _ => unreachable!("resolution restricts null to =/!="),
            }
        }
        (_, Value::Null) => false,
        (Operand::Str(want), Value::Str(have)) => match filter.op {
            CmpOp::Eq => have == want,
            CmpOp::Ne => have != want,
            _ => unreachable!("resolution restricts str to =/!="),
        },
        // Exact integer comparison when both sides are integers.
        (Operand::Int(want), Value::Int(have)) => apply(filter.op, have.cmp(want)),
        (Operand::Int(want), Value::Float(have)) => {
            apply_partial(filter.op, have.partial_cmp(&(*want as f64)))
        }
        (Operand::Number(want), Value::Int(have)) => {
            apply_partial(filter.op, (*have as f64).partial_cmp(want))
        }
        (Operand::Number(want), Value::Float(have)) => {
            apply_partial(filter.op, have.partial_cmp(want))
        }
        _ => unreachable!("resolution guarantees operand/column agreement"),
    }
}

fn apply(op: CmpOp, ord: Ordering) -> bool {
    match op {
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::Ne => ord != Ordering::Equal,
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Le => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Ge => ord != Ordering::Less,
    }
}

/// NaN compares false under every operator, matching SQL-ish semantics.
fn apply_partial(op: CmpOp, ord: Option<Ordering>) -> bool {
    ord.is_some_and(|o| apply(op, o))
}

/// Where a cell sorts relative to the column's values: nulls last, and NaN
/// after every number, so the sort order is total.
fn gap(cell: &Value) -> u8 {
    match cell {
        Value::Null => 2,
        Value::Float(v) if v.is_nan() => 1,
        _ => 0,
    }
}

/// Order of two cells of one sort column with the same [`gap`]: a column
/// holds one type, and two nulls or two NaNs are equal.
fn cmp_cells(a: &Value, b: &Value) -> Ordering {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x.cmp(y),
        (Value::Float(x), Value::Float(y)) => x.partial_cmp(y).unwrap_or(Ordering::Equal),
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        _ => Ordering::Equal,
    }
}

#[cfg(test)]
mod tests {
    use crate::record::{RowKind, RunRecord};
    use crate::store::Value;
    use crate::Warehouse;

    fn sample() -> Warehouse {
        let w = Warehouse::new();
        let mut records = Vec::new();
        for (workload, design, cores, rate) in [
            ("apache", "R", 16, 0.10),
            ("apache", "R", 32, 0.08),
            ("apache", "P", 32, 0.20),
            ("oltp", "R", 32, 0.05),
            ("oltp", "S", 64, 0.30),
        ] {
            let mut r = RunRecord::new(RowKind::Scenario, 42, 5, "full");
            r.workload = Some(workload.to_string());
            r.design = Some(design.to_string());
            r.cores = Some(cores);
            r.off_chip_rate = Some(rate);
            records.push(r);
        }
        // One totals row: null workload/design/cores.
        let mut t = RunRecord::new(RowKind::Totals, 42, 5, "full");
        t.refs_per_sec = Some(5.5e6);
        records.push(t);
        w.append_all(&records);
        w
    }

    fn strs(out: &crate::QueryOutput, col: &str) -> Vec<String> {
        let idx = out
            .columns
            .iter()
            .position(|&c| c == col)
            .expect("projected");
        out.rows.iter().map(|r| r[idx].to_string()).collect()
    }

    #[test]
    fn filters_are_conjunctive() {
        let w = sample();
        let out = w
            .query("design=R & cores>=32 show workload, cores")
            .expect("clean query");
        assert_eq!(out.rows.len(), 2);
        assert_eq!(strs(&out, "workload"), ["apache", "oltp"]);
    }

    #[test]
    fn empty_query_returns_every_row_and_column() {
        let w = sample();
        let out = w.query("").expect("clean query");
        assert_eq!(out.rows.len(), 6);
        assert_eq!(out.columns.len(), crate::CATALOG.len());
    }

    #[test]
    fn sort_and_top() {
        let w = sample();
        let out = w
            .query("kind=scenario sort off_chip_rate desc top 2 show workload, off_chip_rate")
            .expect("clean query");
        assert_eq!(strs(&out, "off_chip_rate"), ["0.3", "0.2"]);
    }

    #[test]
    fn null_comparisons_are_false_but_presence_tests_work() {
        let w = sample();
        // The totals row has a null cores cell: excluded by any comparison.
        let ge = w.query("cores>=0").expect("clean query");
        assert_eq!(ge.rows.len(), 5);
        // ...but selected by the presence test.
        let isnull = w.query("cores=null show kind").expect("clean query");
        assert_eq!(strs(&isnull, "kind"), ["totals"]);
        let nonnull = w.query("cores!=null").expect("clean query");
        assert_eq!(nonnull.rows.len(), 5);
    }

    #[test]
    fn sort_places_nulls_last_in_both_directions() {
        let w = sample();
        for dir in ["asc", "desc"] {
            let out = w
                .query(&format!("sort cores {dir} show kind"))
                .expect("clean query");
            assert_eq!(
                out.rows.last().expect("rows")[0],
                Value::Str("totals".to_string()),
                "null cores must sort last with {dir}"
            );
        }
    }

    #[test]
    fn sorting_a_float_column_with_nan_is_a_total_order() {
        // A store is outside input: any f64 bit pattern decodes, NaN too.
        let w = Warehouse::new();
        let records: Vec<RunRecord> = (0..40)
            .map(|seed| {
                let mut r = RunRecord::new(RowKind::Scenario, seed, 5, "full");
                r.total_cpi = Some(if seed % 3 == 0 {
                    f64::NAN
                } else {
                    ((seed * 7) % 13) as f64
                });
                r
            })
            .collect();
        w.append_all(&records);
        for dir in ["asc", "desc"] {
            let out = w
                .query(&format!("sort total_cpi {dir} show seed, total_cpi"))
                .expect("clean query");
            let cpis: Vec<f64> = out
                .rows
                .iter()
                .map(|row| match row[1] {
                    Value::Float(v) => v,
                    ref other => panic!("total_cpi cell {other:?}"),
                })
                .collect();
            let (numbers, nans) = cpis.split_at(cpis.iter().position(|v| v.is_nan()).unwrap());
            assert_eq!(nans.len(), 14, "NaNs sort after every number ({dir})");
            assert!(nans.iter().all(|v| v.is_nan()), "{cpis:?}");
            let mut sorted = numbers.to_vec();
            sorted.sort_by(f64::total_cmp);
            if dir == "desc" {
                sorted.reverse();
            }
            assert_eq!(numbers, sorted, "{dir}");
        }
    }

    #[test]
    fn string_equality_and_inequality() {
        let w = sample();
        assert_eq!(w.query("config=full").expect("ok").rows.len(), 6);
        assert_eq!(w.query("config!=full").expect("ok").rows.len(), 0);
        assert_eq!(
            w.query("workload!=apache & kind=scenario")
                .expect("ok")
                .rows
                .len(),
            2
        );
    }

    #[test]
    fn table_and_json_render() {
        let w = sample();
        let out = w
            .query("design=P show workload, design, cores, off_chip_rate")
            .expect("clean query");
        let table = out.render_table();
        assert!(table.starts_with("workload  design  cores  off_chip_rate"));
        assert!(table.contains("apache"));
        let json = out.to_json();
        assert!(json.contains("\"design\": \"P\""));
        assert!(json.contains("\"cores\": 32"));
    }
}
