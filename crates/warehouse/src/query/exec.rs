//! Query execution over the columnar store.
//!
//! Filters are conjunctive; comparisons against a null cell are false
//! (except the explicit `= null` / `!= null` presence tests). Sorting is
//! stable with nulls last regardless of direction, so ties and gaps stay
//! deterministic. Projection defaults to every catalog column.

use std::cmp::Ordering;

use super::lexer::CmpOp;
use super::resolve::{Filter, Operand, Plan};
use super::QueryOutput;
use crate::catalog::CATALOG;
use crate::store::{Store, Value};

/// Runs a resolved plan: filter, sort, truncate, project.
pub(super) fn execute(store: &Store, plan: &Plan) -> QueryOutput {
    let mut rows: Vec<usize> = (0..store.row_count())
        .filter(|&row| plan.filters.iter().all(|f| matches(store, row, f)))
        .collect();

    if let Some((col, descending)) = plan.sort {
        let keys: Vec<Value> = rows.iter().map(|&row| store.value(row, col)).collect();
        let mut order: Vec<usize> = (0..rows.len()).collect();
        order.sort_by(|&a, &b| {
            // Nulls sort last in both directions: decide them before the
            // direction flip so `desc` cannot float them to the top.
            match (&keys[a], &keys[b]) {
                (Value::Null, Value::Null) => Ordering::Equal,
                (Value::Null, _) => Ordering::Greater,
                (_, Value::Null) => Ordering::Less,
                (x, y) => {
                    let cmp = cmp_cells(x, y);
                    if descending {
                        cmp.reverse()
                    } else {
                        cmp
                    }
                }
            }
        });
        rows = order.into_iter().map(|i| rows[i]).collect();
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
            .map(|&row| projected.iter().map(|&c| store.value(row, c)).collect())
            .collect(),
    }
}

fn matches(store: &Store, row: usize, filter: &Filter) -> bool {
    let cell = store.value(row, filter.col);
    match (&filter.operand, &cell) {
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

/// Total order for sort keys: null > everything (nulls last ascending);
/// mixed types cannot occur since a sort key is one column.
fn cmp_cells(a: &Value, b: &Value) -> Ordering {
    match (a, b) {
        (Value::Null, Value::Null) => Ordering::Equal,
        (Value::Null, _) => Ordering::Greater,
        (_, Value::Null) => Ordering::Less,
        (Value::Int(x), Value::Int(y)) => x.cmp(y),
        (Value::Float(x), Value::Float(y)) => x.partial_cmp(y).unwrap_or(Ordering::Equal),
        (Value::Int(x), Value::Float(y)) => (*x as f64).partial_cmp(y).unwrap_or(Ordering::Equal),
        (Value::Float(x), Value::Int(y)) => x.partial_cmp(&(*y as f64)).unwrap_or(Ordering::Equal),
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
