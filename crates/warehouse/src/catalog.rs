//! The typed column catalog the store and the query language share.
//!
//! The catalog is static: every warehouse file carries the same fixed set
//! of columns, and the file header pins a hash of the catalog so a store
//! written against a different column set is rejected with a clear error
//! instead of silently misread. Name resolution in the query layer checks
//! column names and operator/type compatibility against this table.

use rnuca_types::Fnv64;
use ColumnType::{Float, Int, Str};

/// The type of one warehouse column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float (stored by bit pattern, round-trips exactly).
    Float,
    /// Interned UTF-8 string.
    Str,
}

impl ColumnType {
    /// The lowercase name used in error messages and the file header hash.
    pub fn name(self) -> &'static str {
        match self {
            ColumnType::Int => "int",
            ColumnType::Float => "float",
            ColumnType::Str => "str",
        }
    }
}

/// One column of the catalog: its query-visible name and its type.
///
/// Columns not listed as required may be null on any given row (a totals
/// row has no `workload`; a scenario row has no `refs_per_sec`).
#[derive(Debug, Clone, Copy)]
pub struct Column {
    /// The name used in queries and JSON output.
    pub name: &'static str,
    /// The column's type.
    pub ty: ColumnType,
}

/// The full catalog, in storage order.
///
/// `batch` is assigned by the store at append time (monotonic per
/// [`Warehouse::append_all`](crate::Warehouse::append_all) call); every
/// other column comes from the [`RunRecord`](crate::RunRecord).
pub const CATALOG: &[Column] = &[
    col("batch", Int),
    col("kind", Str),
    col("workload", Str),
    col("design", Str),
    col("letter", Str),
    col("cores", Int),
    col("slice_kb", Int),
    col("cluster", Int),
    col("seed", Int),
    col("schema", Int),
    col("config", Str),
    col("refs", Int),
    col("scenarios", Int),
    col("total_cpi", Float),
    col("cpi_busy", Float),
    col("cpi_l1_to_l1", Float),
    col("cpi_l2", Float),
    col("cpi_off_chip", Float),
    col("cpi_other", Float),
    col("cpi_reclass", Float),
    col("off_chip_rate", Float),
    col("l1_to_l1_rate", Float),
    col("misclass_rate", Float),
    col("reclassifications", Int),
    col("warmup_nanos", Int),
    col("measured_nanos", Int),
    col("refs_per_sec", Float),
    col("failure", Str),
];

const fn col(name: &'static str, ty: ColumnType) -> Column {
    Column { name, ty }
}

/// The position of `name` in [`CATALOG`], if it is a known column.
pub fn column_index(name: &str) -> Option<usize> {
    CATALOG.iter().position(|c| c.name == name)
}

/// A fingerprint of the catalog (names and types, in order).
///
/// Written into every store file header; a mismatch on open means the file
/// was produced by an incompatible catalog revision and must be re-built,
/// which [`StoreError::CatalogMismatch`](crate::StoreError) reports rather
/// than decoding columns under the wrong layout.
pub fn catalog_hash() -> u64 {
    let mut h = Fnv64::new();
    for col in CATALOG {
        h.write_str(col.name);
        h.write_str(col.ty.name());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_resolvable() {
        for (i, col) in CATALOG.iter().enumerate() {
            assert_eq!(
                column_index(col.name),
                Some(i),
                "duplicate or shadowed column {}",
                col.name
            );
        }
        assert_eq!(column_index("no_such_column"), None);
    }

    #[test]
    fn hash_is_stable_across_calls() {
        assert_eq!(catalog_hash(), catalog_hash());
        assert_ne!(catalog_hash(), 0);
    }

    #[test]
    fn the_catalog_hash_is_pinned() {
        // Every store file is headed by this value: a change here makes
        // every store written before it fail to open with
        // `StoreError::CatalogMismatch`, so it must only move on purpose
        // (a column added, dropped, renamed, retyped or reordered).
        assert_eq!(CATALOG.len(), 28);
        assert_eq!(catalog_hash(), 0xa4cf_a832_ccb0_231f);
    }
}
