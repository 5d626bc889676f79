//! Property test: the warehouse byte codec is a faithful round trip.
//!
//! For random batches of records — including nullable cells, interned
//! string reuse, and floats with arbitrary bit patterns (NaN payloads
//! included) — `append → encode → decode` must reproduce every cell
//! bit-identically, re-encode to the same bytes (canonical encoding),
//! and preserve the dedup index so re-appending the original records
//! adds zero rows.

use proptest::prelude::*;
use rnuca_warehouse::{RowKind, RunRecord, Value, Warehouse};

/// Deterministically expands five random words into one record, hitting
/// every column type and both null and non-null cells.
fn record_from(id: u64, kind_idx: u64, a: u64, b: u64, c: u64) -> RunRecord {
    let kind = match kind_idx % 4 {
        0 => RowKind::Scenario,
        1 => RowKind::Failed,
        2 => RowKind::Totals,
        _ => RowKind::Sweep,
    };
    let config = ["full", "quick", "smoke", "custom"][(a % 4) as usize];
    let mut r = RunRecord::new(kind, (id % 1000) as i64, 5, config);
    r.job_key = a;
    if a & 1 == 0 {
        r.warmup_nanos = Some((c % 1_000_000_007) as i64);
    }
    if a & 2 == 0 {
        r.workload = Some(format!("wl{}", id % 7));
    }
    if a & 4 == 0 {
        r.design = Some(["R", "P", "S", "A", "I"][(b % 5) as usize].to_string());
    }
    if a & 8 == 0 {
        r.cores = Some((b % 128) as i64);
    }
    if a & 16 == 0 {
        r.slice_kb = Some((b % 2048) as i64);
    }
    if a & 32 == 0 {
        // Arbitrary bit pattern: exercises NaN payloads, infinities,
        // signed zeros. The store must round-trip the exact bits.
        r.total_cpi = Some(f64::from_bits(c));
    }
    if a & 64 == 0 {
        r.off_chip_rate = Some(f64::from_bits(c.rotate_left(17)));
    }
    if a & 128 == 0 {
        r.refs = Some(b as i64);
    }
    if a & 256 == 0 {
        r.failure = Some(format!("panic after {} attempts: wl{}", b % 4, id % 7));
    }
    if a & 512 == 0 {
        r.refs_per_sec = Some((b % 10_000_000) as f64 + 0.5);
    }
    r
}

/// Bit-level cell equality: `Float` compares by `to_bits`, so NaN == NaN
/// when the payloads match (plain `PartialEq` would reject every NaN).
fn bits_eq(x: &Value, y: &Value) -> bool {
    match (x, y) {
        (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
        _ => x == y,
    }
}

proptest! {
    #[test]
    fn append_reopen_query_is_identity(
        rows in proptest::collection::vec(
            (any::<u64>(), 0u64..4, any::<u64>(), any::<u64>(), any::<u64>()),
            1..24,
        ),
    ) {
        let records: Vec<RunRecord> = rows
            .iter()
            .map(|&(id, k, a, b, c)| record_from(id, k, a, b, c))
            .collect();

        let original = Warehouse::new();
        let summary = original.append_all(&records);
        prop_assert_eq!(summary.added + summary.deduplicated, records.len());

        let bytes = original.to_bytes();
        let reopened = Warehouse::from_bytes(&bytes).expect("decode of fresh encode");

        // Same rows, bit-identical cells.
        prop_assert_eq!(reopened.len(), original.len());
        let want = original.query("").expect("empty query");
        let got = reopened.query("").expect("empty query");
        prop_assert_eq!(&want.columns, &got.columns);
        prop_assert_eq!(want.rows.len(), got.rows.len());
        for (row_w, row_g) in want.rows.iter().zip(&got.rows) {
            for (cell_w, cell_g) in row_w.iter().zip(row_g) {
                prop_assert!(
                    bits_eq(cell_w, cell_g),
                    "cell differs after reopen: {:?} vs {:?}", cell_w, cell_g
                );
            }
        }

        // The encoding is canonical: encode(decode(bytes)) == bytes.
        prop_assert_eq!(reopened.to_bytes(), bytes);

        // The dedup index survives the round trip: the same records all
        // dedup against the reopened store.
        let again = reopened.append_all(&records);
        prop_assert_eq!(again.added, 0);
        prop_assert_eq!(again.deduplicated, records.len());
    }
}
