//! Crash-safety of the warehouse save path: a fault injected at every stage
//! of `Warehouse::save` — writing the temp file, syncing it, renaming it
//! into place, or tearing the temp write halfway — must leave either the
//! old store or the new store on disk, fully intact, and never a torn file
//! or a stray `.tmp` sibling.
//!
//! Fail points are live because this test depends on `rnuca-types` with the
//! `failpoints` feature (dev-dependencies only).

use rnuca_types::failpoint::{self, FailAction, FailSpec};
use rnuca_warehouse::{RowKind, RunRecord, Warehouse};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Serializes the tests in this binary around the process-wide fail-point
/// registry.
static SERIAL: Mutex<()> = Mutex::new(());

fn record(workload: &str, cores: i64) -> RunRecord {
    let mut r = RunRecord::new(RowKind::Sweep, 42, 5, "smoke");
    r.job_key = cores as u64;
    r.workload = Some(workload.to_string());
    r.cores = Some(cores);
    r.total_cpi = Some(1.5);
    r
}

fn store_with(rows: &[RunRecord]) -> Warehouse {
    let store = Warehouse::new();
    store.append_all(rows);
    store
}

fn save_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rnuca-atomic-{}-{tag}.bin", std::process::id()))
}

fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .expect("test paths have names")
        .to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Every injectable stage of the save path, in write order.
fn stages() -> Vec<(&'static str, FailAction)> {
    vec![
        ("warehouse::save::temp_write", FailAction::Io),
        ("warehouse::save::torn_temp", FailAction::Io),
        ("warehouse::save::fsync", FailAction::Io),
        ("warehouse::save::rename", FailAction::Io),
    ]
}

#[test]
fn a_failed_save_leaves_the_old_store_intact() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let old = store_with(&[record("oltp", 16)]);
    let new = store_with(&[record("oltp", 16), record("em3d", 32)]);
    for (site, action) in stages() {
        let path = save_path(&site.replace("::", "-"));
        old.save(&path).expect("the initial save is fault-free");
        let old_bytes = std::fs::read(&path).expect("the initial save exists");
        {
            let _guard = failpoint::arm(&[FailSpec::nth(site, action, 1)]);
            let err = new
                .save(&path)
                .expect_err("the injected fault must fail the save");
            assert!(
                err.to_string().contains(site),
                "{site}: the error must name the injected site, got: {err}"
            );
        }
        // Old store intact, byte for byte, and still opens; no temp debris.
        assert_eq!(
            std::fs::read(&path).expect("the old store must survive"),
            old_bytes,
            "{site}: a failed save must not disturb the old store"
        );
        let reopened = Warehouse::open(&path).expect("the old store still opens");
        assert_eq!(reopened.len(), 1, "{site}");
        assert!(
            !tmp_sibling(&path).exists(),
            "{site}: a failed save must clean up its temp file"
        );
        // The fault was transient: the very next save lands the new store.
        new.save(&path).expect("a clean retry succeeds");
        let final_store = Warehouse::open(&path).expect("the new store opens");
        assert_eq!(final_store.len(), 2, "{site}");
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn a_failed_first_save_leaves_no_file_behind() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let store = store_with(&[record("oltp", 16)]);
    for (site, action) in stages() {
        let path = save_path(&format!("fresh-{}", site.replace("::", "-")));
        std::fs::remove_file(&path).ok();
        {
            let _guard = failpoint::arm(&[FailSpec::nth(site, action, 1)]);
            store
                .save(&path)
                .expect_err("the injected fault must fail the save");
        }
        assert!(
            !path.exists(),
            "{site}: a failed first save must not materialize a store"
        );
        assert!(
            !tmp_sibling(&path).exists(),
            "{site}: a failed first save must clean up its temp file"
        );
        // A missing store opens empty — the documented cold-start path.
        let opened = Warehouse::open(&path).expect("missing stores open empty");
        assert_eq!(opened.len(), 0, "{site}");
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn a_torn_write_can_never_be_mistaken_for_a_store() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Force the torn half-write THROUGH to the final path (simulating an
    // OS that renamed a partially flushed file after power loss) and prove
    // the checksum trailer refuses it with a typed, offset-carrying error.
    let store = store_with(&[record("oltp", 16), record("em3d", 32)]);
    let path = save_path("torn-final");
    store.save(&path).expect("the initial save is fault-free");
    let bytes = std::fs::read(&path).expect("saved store exists");
    std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("simulate the torn file");
    match Warehouse::open(&path) {
        Err(e @ rnuca_warehouse::StoreError::Corrupt { offset, .. }) => {
            assert!(offset <= bytes.len() / 2, "offset points into the file");
            assert!(!e.to_string().is_empty());
        }
        other => panic!("a torn store must open as Corrupt, got: {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}
