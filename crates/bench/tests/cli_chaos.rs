//! End-to-end chaos smoke: kill the real `figures` binary at a fail-point-
//! chosen job boundary mid-sweep, resume it from its journal, and prove the
//! resumed warehouse is byte-identical to one built by a run that was never
//! interrupted. And poison one job: a sweep quarantines it, while a figure
//! or the perf report, which need every job, fail loudly.
//!
//! Ignored by default — each leg runs a full `--smoke` sweep, so CI runs
//! this in release mode (`cargo test --release -p rnuca-bench --test
//! cli_chaos -- --include-ignored`, the `chaos-smoke` step). The fail-point
//! plan travels to the child process via `RNUCA_FAILPOINTS`; the test
//! profile compiles the binary with live fail points (dev-dependency
//! feature unification), release-profile `cargo build` does not.

use std::path::PathBuf;
use std::process::{Command, Output};

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rnuca-chaos-cli-{}-{name}", std::process::id()))
}

fn figures(args: &[&str], failpoints: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_figures"));
    cmd.args(args).env_remove("RNUCA_FAILPOINTS");
    if let Some(plan) = failpoints {
        cmd.env("RNUCA_FAILPOINTS", plan);
    }
    cmd.output().expect("the figures binary runs")
}

#[test]
#[ignore = "runs three --smoke sweeps; CI's chaos-smoke step runs it in release"]
fn killed_and_resumed_sweep_builds_a_byte_identical_warehouse() {
    let baseline_store = temp("baseline.bin");
    let baseline_journal = temp("baseline.journal");
    let chaos_store = temp("chaos.bin");
    let chaos_journal = temp("chaos.journal");
    for p in [
        &baseline_store,
        &baseline_journal,
        &chaos_store,
        &chaos_journal,
    ] {
        std::fs::remove_file(p).ok();
    }
    let store_arg = |p: &PathBuf| format!("--store={}", p.display());
    let journal_arg = |p: &PathBuf| format!("--journal={}", p.display());

    // Leg 1 — ground truth: an uninterrupted journaled sweep.
    let out = figures(
        &[
            "--smoke",
            "--workers=2",
            "sweep",
            &store_arg(&baseline_store),
            &journal_arg(&baseline_journal),
        ],
        None,
    );
    assert!(
        out.status.success(),
        "baseline sweep failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let baseline_bytes = std::fs::read(&baseline_store).expect("baseline store exists");
    let baseline_json = out.stdout.clone();
    assert!(
        !baseline_journal.exists(),
        "a completed sweep removes its journal"
    );

    // Leg 2 — chaos: a fixed-seed fail point injects an i/o error into one
    // of the first 10 journal appends, killing the run at a job boundary.
    let out = figures(
        &[
            "--smoke",
            "--workers=2",
            "sweep",
            &store_arg(&chaos_store),
            &journal_arg(&chaos_journal),
        ],
        Some("sweep::journal::append=io@seed:7%10"),
    );
    assert!(
        !out.status.success(),
        "the injected fault must kill the sweep"
    );
    assert!(chaos_journal.exists(), "the journal survives the crash");
    assert!(
        !chaos_store.exists(),
        "a killed sweep must not have written a store"
    );

    // The journal subcommand can inspect the wreckage without running.
    let out = figures(&["journal", chaos_journal.to_str().unwrap()], None);
    assert!(out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("jobs journaled"),
        "journal inspection: {}",
        String::from_utf8_lossy(&out.stdout)
    );

    // A rerun without --resume refuses to clobber the leftover journal.
    let out = figures(
        &[
            "--smoke",
            "--workers=2",
            "sweep",
            &store_arg(&chaos_store),
            &journal_arg(&chaos_journal),
        ],
        None,
    );
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--resume"),
        "the error must point at --resume: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Leg 3 — resume: replay the journaled jobs, run the rest, and land the
    // exact bytes (and the exact JSON) the uninterrupted run produced.
    let out = figures(
        &[
            "--smoke",
            "--workers=2",
            "sweep",
            "--resume",
            &store_arg(&chaos_store),
            &journal_arg(&chaos_journal),
        ],
        None,
    );
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "resume failed: {stderr}");
    assert!(stderr.contains("replayed"), "resume summary: {stderr}");
    assert_eq!(out.stdout, baseline_json, "resumed sweep JSON differs");
    let resumed_bytes = std::fs::read(&chaos_store).expect("resumed store exists");
    assert_eq!(
        resumed_bytes, baseline_bytes,
        "resumed warehouse is not byte-identical to the uninterrupted run"
    );
    assert!(
        !chaos_journal.exists(),
        "a completed resume removes its journal"
    );

    for p in [&baseline_store, &chaos_store] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
#[ignore = "runs a --smoke sweep; CI's chaos-smoke step runs it in release"]
fn a_poisoned_sweep_job_is_quarantined_journaled_and_stored_as_failed() {
    let store = temp("quarantine.bin");
    let journal = temp("quarantine.journal");
    for p in [&store, &journal] {
        std::fs::remove_file(p).ok();
    }
    let store_arg = format!("--store={}", store.display());
    let journal_arg = format!("--journal={}", journal.display());

    // The site names one scenario at each of the three slice capacities;
    // its first hit is job 0 (OLTP DB2, shared, 16 cores, 512 KB), and with
    // no retries that job alone is quarantined.
    let site = "sim::member::OLTP DB2::shared::16c";
    let out = figures(
        &[
            "--smoke",
            "--workers=2",
            "sweep",
            "--retries=0",
            &journal_arg,
            &store_arg,
        ],
        Some(&format!("{site}=panic@1")),
    );
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "the sweep failed: {stderr}");
    assert!(
        stderr.contains("sweep: 1 of 288 jobs quarantined"),
        "{stderr}"
    );
    // The typed failure is the only report of the panic: the attempt's raw
    // panic-hook block stays off stderr.
    assert!(
        stderr.contains("job 0 failed after 1 attempt (panic)"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked at"), "{stderr}");
    let json = String::from_utf8(out.stdout).expect("utf-8 JSON");
    assert!(
        json.contains("\"results\": [\n    null,\n"),
        "job 0's slot is null"
    );
    let failures = &json[json.find("\"failures\": [").expect("a failures array")..];
    assert_eq!(failures.matches("\"job\": ").count(), 1, "{failures}");
    assert!(failures.contains("\"job\": 0,"), "{failures}");
    assert!(failures.contains(site), "{failures}");
    assert!(!journal.exists(), "a completed sweep removes its journal");

    let out = figures(
        &[
            "query",
            &store_arg,
            "kind=failed show workload, design, cores",
        ],
        None,
    );
    let table = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(out.status.success(), "query failed: {table}");
    assert!(table.ends_with("1 rows\n"), "one kind=failed row: {table}");
    assert!(table.contains("OLTP DB2  S       16"), "{table}");
    std::fs::remove_file(&store).ok();
}

#[test]
#[ignore = "runs a --smoke evaluation; CI's chaos-smoke step runs it in release"]
fn a_poisoned_job_fails_the_figures_loudly() {
    // Figure 7 needs every job of the paper evaluation. One poisoned job
    // must end the run with its failure on stderr and exit 1 — not a raw
    // panic, and not a table drawn from the jobs that survived.
    let site = "sim::member::OLTP DB2::shared::16c";
    let out = figures(
        &["--smoke", "--workers=2", "fig7"],
        Some(&format!("{site}=panic@1")),
    );
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    // Job 2 of the evaluation is OLTP DB2's shared design (P, A, S, ...).
    assert!(
        stderr.contains("job 2 failed after 1 attempt (panic)"),
        "{stderr}"
    );
    assert!(stderr.contains(site), "{stderr}");
    assert!(!stderr.contains("panicked at"), "{stderr}");
    assert!(
        !stdout.contains("Figure 7"),
        "no table is printed: {stdout}"
    );
}

#[test]
#[ignore = "runs a --smoke perf subset; CI's chaos-smoke step runs it in release"]
fn a_poisoned_perf_scenario_fails_the_report_loudly() {
    // The perf report needs every scenario of its (filtered) list, so one
    // poisoned scenario ends the run with its typed failure and exit 1,
    // and no report is written.
    let out_path = temp("poisoned-perf.json");
    std::fs::remove_file(&out_path).ok();
    let site = "sim::member::em3d::shared::16c";
    let out = figures(
        &[
            "--smoke",
            "--workers=2",
            "perf",
            "--filter=em3d",
            &format!("--out={}", out_path.display()),
        ],
        Some(&format!("{site}=panic@1")),
    );
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    // Job 2 of the em3d subset is its shared design at 16 cores.
    assert!(
        stderr.contains("job 2 failed after 1 attempt (panic)"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked at"), "{stderr}");
    assert!(!out_path.exists(), "no partial report is written");
}
