//! Append-only results warehouse with a typed query language.
//!
//! Every measured run the simulator produces — perf scenarios, perf report
//! totals, sweep points, and quarantined sweep failures — lands in one
//! [`Warehouse`]: a versioned store of rows, one cell per catalog column,
//! keyed by [`RunRecord::key`] (for a measured job, its job key plus the
//! identity columns). Rows come only from the run that measured them. The
//! key makes appends idempotent: storing the same report twice or
//! re-running the same sweep adds zero new rows, so repeated CI runs and
//! local sweeps accumulate incrementally instead of duplicating.
//!
//! On top of the store sits a small typed query language:
//!
//! ```text
//! design=R & cores>=32 sort off_chip_rate show workload, cores, off_chip_rate top 5
//! ```
//!
//! The pipeline is a lexer, a resilient parser that collects every syntax
//! error in one pass, name resolution against the typed column
//! [catalog](catalog::CATALOG) (with did-you-mean suggestions), and an
//! executor supporting conjunctive filters, comparisons, sorting,
//! projection, and row limits. Errors carry byte spans into the query text
//! and render in compiler style.
#![warn(missing_docs)]

pub mod catalog;
pub mod query;
pub mod record;
pub mod store;

pub use catalog::{column_index, ColumnType, CATALOG};
pub use query::{render_errors, QueryError, QueryOutput, Span};
pub use record::{RowKind, RunRecord};
pub use store::{AppendSummary, StoreError, Value, Warehouse};
