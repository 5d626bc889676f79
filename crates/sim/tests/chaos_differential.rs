//! Chaos differential: a sweep interrupted at an injected crash point and
//! then resumed from its journal must be indistinguishable — result for
//! result, warehouse byte for warehouse byte — from a sweep that never
//! crashed. And a panic injected into one scenario must quarantine exactly
//! that scenario while every other job completes with its usual result.
//! Every combination of journal, retry policy and warehouse sink must run
//! the same sweep: the options choose how a sweep executes, never what it
//! computes.
//!
//! Fail points are compiled in because this test depends on `rnuca-types`
//! with the `failpoints` feature (dev-dependencies only; release builds of
//! the library stay fault-free).

use rnuca_sim::{
    ExperimentConfig, ExperimentEngine, FailureCause, JournalError, JournalReplay, ScenarioMatrix,
    SweepError, SweepJournal, SweepOptions, SweepOutcome,
};
use rnuca_types::failpoint::{self, FailAction, FailSpec};
use rnuca_types::RetryPolicy;
use rnuca_warehouse::Warehouse;
use rnuca_workloads::{TraceArena, WorkloadSpec};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Serializes the tests in this binary: a test's un-armed phases (baseline
/// runs, resumes) must not execute while another test has fail points armed
/// in the process-wide registry.
static SERIAL: Mutex<()> = Mutex::new(());

/// Four jobs: one workload at two core counts (two reference streams)
/// under the shared design and R-NUCA.
fn chaos_matrix() -> ScenarioMatrix {
    let mut cfg = ExperimentConfig::smoke();
    cfg.warmup_refs = 1_000;
    cfg.measured_refs = 800;
    let mut m = ScenarioMatrix::new(cfg);
    m.workloads = vec![WorkloadSpec::oltp_db2()];
    m.designs = vec![
        rnuca_sim::LlcDesign::Shared,
        rnuca_sim::LlcDesign::rnuca_default(),
    ];
    m.core_counts = vec![16, 32];
    m
}

fn journal_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rnuca-chaos-{}-{tag}.journal", std::process::id()))
}

/// Runs `m` with the given journal (path plus resume flag), retry policy
/// and warehouse sink.
fn run_sweep(
    m: &ScenarioMatrix,
    engine: ExperimentEngine,
    arena: &Arc<TraceArena>,
    journal: Option<(&Path, bool)>,
    policy: RetryPolicy,
    store: Option<&Warehouse>,
) -> Result<SweepOutcome, SweepError> {
    m.run(&SweepOptions {
        arena: Arc::clone(arena),
        journal: journal.map(|(path, _)| path),
        resume: journal.is_some_and(|(_, resume)| resume),
        policy,
        store,
        ..SweepOptions::new(engine)
    })
}

#[test]
fn interrupted_and_resumed_sweeps_are_bit_identical() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let m = chaos_matrix();
    let engine = ExperimentEngine::with_workers(1);
    let arena = Arc::new(TraceArena::new());

    // The ground truth: an uninterrupted journaled run and the exact bytes
    // of the warehouse it builds.
    let baseline_journal = journal_path("baseline");
    let baseline_store = Warehouse::new();
    let outcome = run_sweep(
        &m,
        engine,
        &arena,
        Some((&baseline_journal, false)),
        RetryPolicy::default(),
        Some(&baseline_store),
    )
    .expect("the chaos matrix is valid");
    let (baseline, summary, resumed) = (
        outcome.sweep.into_sweep().expect("every job completes"),
        outcome.stored.expect("a store was given"),
        outcome.resumed,
    );
    let baseline_bytes = baseline_store.to_bytes();
    assert_eq!(summary.added, 4);
    assert_eq!((resumed.replayed, resumed.ran), (0, 4));

    // Crash the sweep at several injected points — seeded triggers on the
    // journal's append path, a fixed mid-run append failure, and a torn
    // half-written entry — then resume from the journal each time.
    let injections: Vec<(String, FailSpec)> = vec![
        (
            "seed-1".into(),
            FailSpec::seeded("sweep::journal::append", FailAction::Io, 1, 4),
        ),
        (
            "seed-2".into(),
            FailSpec::seeded("sweep::journal::append", FailAction::Io, 2, 4),
        ),
        (
            "seed-3".into(),
            FailSpec::seeded("sweep::journal::append", FailAction::Panic, 3, 4),
        ),
        (
            "append-2".into(),
            FailSpec::nth("sweep::journal::append", FailAction::Io, 2),
        ),
        (
            "torn-1".into(),
            FailSpec::nth("sweep::journal::torn", FailAction::Panic, 1),
        ),
        (
            "torn-3".into(),
            FailSpec::nth("sweep::journal::torn", FailAction::Panic, 3),
        ),
    ];
    for (tag, spec) in injections {
        let path = journal_path(&tag);
        {
            let _guard = failpoint::arm(std::slice::from_ref(&spec));
            // An injected panic unwinds out of the sweep; an injected i/o
            // error ends it with a journal error. Either aborts it.
            let crashed = catch_unwind(AssertUnwindSafe(|| {
                run_sweep(
                    &m,
                    engine,
                    &arena,
                    Some((&path, false)),
                    RetryPolicy::default(),
                    None,
                )
            }))
            .map_err(drop)
            .and_then(|outcome| outcome.map(drop).map_err(drop));
            assert!(
                crashed.is_err(),
                "{tag}: the injected fault must abort the sweep"
            );
        }
        let store = Warehouse::new();
        let outcome = run_sweep(
            &m,
            engine,
            &arena,
            Some((&path, true)),
            RetryPolicy::default(),
            Some(&store),
        )
        .unwrap_or_else(|e| panic!("{tag}: resume failed: {e}"));
        let (sweep, summary, resumed) = (
            outcome.sweep.into_sweep().expect("every job completes"),
            outcome.stored.expect("a store was given"),
            outcome.resumed,
        );
        assert_eq!(sweep, baseline, "{tag}: resumed results differ");
        assert_eq!(
            store.to_bytes(),
            baseline_bytes,
            "{tag}: resumed warehouse is not byte-identical"
        );
        assert_eq!(summary.added, 4, "{tag}");
        assert_eq!(resumed.replayed + resumed.ran, 4, "{tag}");
        assert!(
            resumed.ran > 0,
            "{tag}: the interrupted job itself must re-run"
        );
        std::fs::remove_file(&path).ok();
    }
    std::fs::remove_file(&baseline_journal).ok();
}

#[test]
fn resume_rejects_a_journal_from_a_different_sweep() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let m = chaos_matrix();
    let engine = ExperimentEngine::with_workers(2);
    let arena = Arc::new(TraceArena::new());
    let path = journal_path("mismatch");
    run_sweep(
        &m,
        engine,
        &arena,
        Some((&path, false)),
        RetryPolicy::default(),
        None,
    )
    .expect("the chaos matrix is valid");

    // Any change to the matrix — here the seed — must invalidate the journal.
    let mut other = chaos_matrix();
    other.cfg.seed += 1;
    let err = run_sweep(
        &other,
        engine,
        &arena,
        Some((&path, true)),
        RetryPolicy::default(),
        None,
    )
    .expect_err("a stale journal must be rejected, not silently mixed in");
    match err {
        SweepError::Journal(JournalError::FingerprintMismatch { found, expected }) => {
            assert_eq!(found, m.fingerprint().unwrap());
            assert_eq!(expected, other.fingerprint().unwrap());
        }
        other => panic!("expected a fingerprint mismatch, got: {other}"),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn an_injected_panic_quarantines_exactly_that_job() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let m = chaos_matrix();
    let engine = ExperimentEngine::with_workers(2);
    let arena = Arc::new(TraceArena::new());
    let baseline = run_sweep(&m, engine, &arena, None, RetryPolicy::default(), None)
        .expect("the chaos matrix is valid")
        .sweep
        .into_sweep()
        .expect("every job completes");

    // Job 0 is (OLTP DB2, shared, 16 cores); its per-job site panics on
    // every attempt, so the first attempt and the retry both fail — while
    // job 1, which shares its reference stream, must still complete.
    let site = "sim::member::OLTP DB2::shared::16c";
    let _guard = failpoint::arm(&[FailSpec::always(site, FailAction::Panic)]);
    let sweep = run_sweep(&m, engine, &arena, None, RetryPolicy::immediate(1), None)
        .expect("the chaos matrix is valid")
        .sweep;
    assert_eq!(sweep.results.len(), 4);
    assert_eq!(sweep.completed(), 3);
    let failures = sweep.failures();
    assert_eq!(failures.len(), 1, "exactly the poisoned scenario fails");
    assert_eq!(failures[0].job, 0);
    assert_eq!(failures[0].attempts, 2, "one solo attempt plus one retry");
    assert!(failures[0].message.contains(site));
    for i in 1..4 {
        assert_eq!(
            sweep.results[i].as_ref().expect("healthy jobs complete"),
            &baseline.results[i],
            "job {i}: quarantine must not perturb healthy results"
        );
    }
}

#[test]
fn a_journaled_supervised_sweep_quarantines_and_resume_skips_the_failure() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let m = chaos_matrix();
    let engine = ExperimentEngine::with_workers(2);
    let arena = Arc::new(TraceArena::new());
    let path = journal_path("supervised");
    let policy = RetryPolicy::immediate(1);

    // First pass: job 0's member site panics on every attempt, so it ends
    // up quarantined — and journaled as a typed failure entry — while the
    // other three jobs complete and journal their runs.
    let store = Warehouse::new();
    let (sweep, summary, resumed) = {
        let site = "sim::member::OLTP DB2::shared::16c";
        let _guard = failpoint::arm(&[FailSpec::always(site, FailAction::Panic)]);
        let outcome = run_sweep(
            &m,
            engine,
            &arena,
            Some((&path, false)),
            policy,
            Some(&store),
        )
        .expect("a quarantined member must not abort the sweep");
        (
            outcome.sweep,
            outcome.stored.expect("a store was given"),
            outcome.resumed,
        )
    };
    assert_eq!((resumed.replayed, resumed.ran), (0, 4));
    assert_eq!(sweep.completed(), 3);
    let failures = sweep.failures();
    assert_eq!(failures.len(), 1);
    assert_eq!(failures[0].job, 0);
    assert_eq!(failures[0].attempts, 2, "one solo attempt plus one retry");
    assert_eq!(failures[0].cause, FailureCause::Panic);
    assert_eq!(summary.added, 4, "three sweep rows plus one failed row");
    let json = sweep.to_json();
    assert!(json.contains("\"failures\": ["));
    assert!(json.contains("\"cause\": \"panic\""));

    // The failure surfaces as a queryable `kind=failed` row.
    let out = store
        .query("kind=failed show workload, design, failure")
        .expect("clean query");
    assert_eq!(out.rows.len(), 1);
    assert_eq!(out.rows[0][0].to_string(), "OLTP DB2");
    assert_eq!(out.rows[0][1].to_string(), "S");
    let failure_text = out.rows[0][2].to_string();
    assert!(
        failure_text.starts_with("panic after 2 attempts:"),
        "failure column carries the typed summary, got: {failure_text}"
    );

    // Resume with the fail point disarmed: the quarantined job is *skipped*
    // (replayed as a failure, not re-run — even though it would now
    // succeed), and the rebuilt warehouse is byte-identical.
    let resumed_store = Warehouse::new();
    let outcome = run_sweep(
        &m,
        engine,
        &arena,
        Some((&path, true)),
        policy,
        Some(&resumed_store),
    )
    .expect("resume must succeed");
    let (resumed_sweep, resumed_summary, resumed2) = (
        outcome.sweep,
        outcome.stored.expect("a store was given"),
        outcome.resumed,
    );
    assert_eq!(
        (resumed2.replayed, resumed2.ran),
        (4, 0),
        "every entry — including the failure — replays from the journal"
    );
    assert_eq!(resumed_sweep, sweep, "resume must not re-run the failure");
    assert_eq!(resumed_summary.added, 4);
    assert_eq!(
        resumed_store.to_bytes(),
        store.to_bytes(),
        "resumed warehouse is not byte-identical"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_journal_write_error_ends_a_supervised_sweep_without_quarantining_the_job() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let m = chaos_matrix();
    let engine = ExperimentEngine::with_workers(1);
    let arena = Arc::new(TraceArena::new());
    let path = journal_path("append-error");
    let policy = RetryPolicy::immediate(0);
    let baseline = run_sweep(&m, engine, &arena, None, RetryPolicy::default(), None)
        .expect("the chaos matrix is valid")
        .sweep;

    // The first journal append fails. The job itself was healthy, so the
    // error must end the sweep as a journal error — not be quarantined as
    // the job's own failure and journaled as one.
    {
        let _guard = failpoint::arm(&[FailSpec::nth("sweep::journal::append", FailAction::Io, 1)]);
        match run_sweep(&m, engine, &arena, Some((&path, false)), policy, None) {
            Err(SweepError::Journal(JournalError::Io(e))) => {
                assert!(e.to_string().contains("injected"), "{e}");
            }
            other => panic!("expected a journal i/o error, got {other:?}"),
        }
    }
    let replay = JournalReplay::load(&path).expect("the journal is intact");
    assert_eq!(replay.failed(), 0, "no job may be journaled as failed");

    // Resume runs the job whose append failed, and the result equals the
    // uninterrupted run's.
    let outcome = run_sweep(&m, engine, &arena, Some((&path, true)), policy, None)
        .expect("resume must succeed");
    assert_eq!(outcome.resumed.replayed + outcome.resumed.ran, 4);
    assert!(
        outcome.resumed.ran > 0,
        "the job whose append failed re-runs"
    );
    assert!(outcome.sweep.failures().is_empty());
    assert_eq!(outcome.sweep, baseline);
    std::fs::remove_file(&path).ok();
}

#[test]
fn every_option_combination_runs_the_same_sweep() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let m = chaos_matrix();
    let engine = ExperimentEngine::with_workers(2);
    let baseline = run_sweep(
        &m,
        engine,
        &Arc::new(TraceArena::new()),
        None,
        RetryPolicy::default(),
        None,
    )
    .expect("the chaos matrix is valid")
    .sweep
    .into_sweep()
    .expect("every job completes");

    #[derive(Debug, Clone, Copy)]
    enum Journal {
        Off,
        On,
        ResumeHalfWritten,
    }
    let mut stored_bytes: Option<Vec<u8>> = None;
    for journal in [Journal::Off, Journal::On, Journal::ResumeHalfWritten] {
        for policy in [RetryPolicy::immediate(0), RetryPolicy::immediate(1)] {
            for with_store in [false, true] {
                let tag = format!("{journal:?}-{}-{with_store}", policy.retries);
                let path = journal_path(&format!("combo-{tag}"));
                std::fs::remove_file(&path).ok();
                if let Journal::ResumeHalfWritten = journal {
                    // Half the jobs already journaled, as an interrupted
                    // run leaves them.
                    let written = SweepJournal::create(&path, m.fingerprint().unwrap(), 4)
                        .expect("journal create");
                    for i in [0, 3] {
                        written
                            .append(i, &baseline.results[i].run)
                            .expect("journal append");
                    }
                }
                let store = Warehouse::new();
                let outcome = run_sweep(
                    &m,
                    engine,
                    &Arc::new(TraceArena::new()),
                    match journal {
                        Journal::Off => None,
                        Journal::On => Some((&path, false)),
                        Journal::ResumeHalfWritten => Some((&path, true)),
                    },
                    policy,
                    with_store.then_some(&store),
                )
                .unwrap_or_else(|e| panic!("{tag}: {e}"));
                let replayed = match journal {
                    Journal::ResumeHalfWritten => 2,
                    _ => 0,
                };
                assert_eq!(outcome.resumed.replayed, replayed, "{tag}");
                assert_eq!(outcome.resumed.ran, 4 - replayed, "{tag}");
                assert!(outcome.sweep.failures().is_empty(), "{tag}");
                assert_eq!(
                    outcome.sweep.into_sweep().expect("every job completes"),
                    baseline,
                    "{tag}: results differ"
                );
                assert_eq!(outcome.stored.is_some(), with_store, "{tag}");
                if with_store {
                    let bytes = store.to_bytes();
                    match &stored_bytes {
                        None => stored_bytes = Some(bytes),
                        Some(first) => {
                            assert_eq!(&bytes, first, "{tag}: warehouse bytes differ")
                        }
                    }
                }
                std::fs::remove_file(&path).ok();
            }
        }
    }
}
