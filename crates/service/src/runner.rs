//! The runner thread: claims submissions, executes them as journaled,
//! deadline-bounded sweeps, and lands their rows in the warehouse.
//!
//! # Execution shape
//!
//! A submission is one call of the library's sweep function,
//! [`ScenarioMatrix::run`](rnuca_sim::ScenarioMatrix::run) — the same
//! supervised path `figures sweep` takes — with the submission's journal
//! (resumed when a previous run or a crash left one behind), its retry
//! policy (seeded backoff, per-attempt deadline), the warehouse as the row
//! sink, the claim's stop flag, and a progress callback feeding the
//! registry. Every attempt runs on the worker that claimed its job, and the
//! sweep journals each job there the moment its outcome is final, so the
//! crash window is the jobs in flight, and a drain or cancel stops claiming
//! at the next job. Jobs whose every attempt fails are journaled as typed
//! failure entries. The deadline is cooperative: a job checks it before
//! each batch of references it replays, so an overrun ends at the next
//! batch, but stream generation and simulator construction are not
//! interrupted. What stays here is the service's own work: the atomic save,
//! spool retirement, and state updates.
//!
//! # The crash-resume and byte-identity invariant
//!
//! The warehouse is written once, at completion: the sweep appends one
//! batch of rows in job order built from the (replayed + freshly measured)
//! results, and the runner saves it through the warehouse's atomic
//! temp-fsync-rename path; only after that save returns is the spool entry
//! removed. A `kill -9` at any earlier point leaves the journal behind, the
//! next start's scan re-enqueues the submission, replayed entries fill the
//! same slots the crashed run had journaled, and the final batch is
//! identical row for row — so the saved warehouse is byte-identical to an
//! uninterrupted run's.

use crate::spool::Spool;
use crate::state::{Claim, Registry, SubmissionState};
use rnuca_sim::{ExperimentEngine, SweepError, SweepOptions};
use rnuca_warehouse::Warehouse;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// How a claimed submission's execution ended.
#[derive(Debug)]
enum Outcome {
    /// Every job has an outcome and the warehouse save returned.
    Completed {
        /// Jobs with a result row.
        completed: usize,
        /// Jobs quarantined with a failed row.
        failed: usize,
    },
    /// The stop flag (drain or cancel) interrupted the run between jobs;
    /// the journal holds everything finished so far.
    Stopped,
}

/// The service's single worker: owns the engine and drains the registry
/// queue until a drain is requested.
///
/// Each submission's sweep resolves its reference streams through a trace
/// arena of its own, and the sweep retires every stream after the last job
/// that replays it. The service therefore retains no streams across
/// submissions: its trace memory is bounded by the jobs in flight, and a
/// repeat submission regenerates its streams (about 40 ns per reference).
#[derive(Debug)]
pub struct Runner {
    registry: Arc<Registry>,
    spool: Spool,
    store_path: PathBuf,
    workers: usize,
}

impl Runner {
    /// A runner executing with `workers` engine threads, journaling into
    /// `spool` and landing rows at `store_path`.
    pub fn new(registry: Arc<Registry>, spool: Spool, store_path: PathBuf, workers: usize) -> Self {
        Runner {
            registry,
            spool,
            store_path,
            workers: workers.max(1),
        }
    }

    /// Claims and executes submissions until the registry drains. Never
    /// panics outward: a panic inside a submission (spec bugs, arena
    /// poisoning) marks that submission failed and the loop continues.
    pub fn run(&self) {
        let engine = ExperimentEngine::with_workers(self.workers);
        while let Some(claim) = self.registry.claim() {
            self.registry.set_state(
                &claim.id,
                SubmissionState::Running {
                    done_jobs: 0,
                    total_jobs: 0,
                },
            );
            let outcome = catch_unwind(AssertUnwindSafe(|| self.run_submission(engine, &claim)));
            match outcome {
                Ok(Ok(Outcome::Completed { completed, failed })) => self
                    .registry
                    .set_state(&claim.id, SubmissionState::Completed { completed, failed }),
                Ok(Ok(Outcome::Stopped)) => {
                    if claim.cancelled.load(Ordering::SeqCst) {
                        // Cancelled: the submission's work is discarded.
                        self.spool.remove(&claim.id).ok();
                        self.registry
                            .set_state(&claim.id, SubmissionState::Cancelled);
                    }
                    // Drained: leave the journal and spec in the spool; the
                    // next start's scan re-enqueues and resumes it.
                }
                Ok(Err(message)) => self
                    .registry
                    .set_state(&claim.id, SubmissionState::Failed(message)),
                Err(payload) => {
                    let text = payload
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| payload.downcast_ref::<&str>().copied())
                        .unwrap_or("non-string panic");
                    self.registry
                        .set_state(&claim.id, SubmissionState::Failed(format!("panic: {text}")));
                }
            }
        }
    }

    fn run_submission(&self, engine: ExperimentEngine, claim: &Claim) -> Result<Outcome, String> {
        let matrix = claim.spec.to_matrix()?;
        let store = Warehouse::open(&self.store_path).map_err(|e| format!("warehouse: {e}"))?;
        // The spec line fully determines the matrix and the id is its
        // fingerprint, so a journal that does not match is spool tampering:
        // a hard error, never a silent re-run.
        let journal = self.spool.journal_path(&claim.id);
        let progress = |done_jobs, total_jobs| {
            self.registry.set_state(
                &claim.id,
                SubmissionState::Running {
                    done_jobs,
                    total_jobs,
                },
            );
        };
        let outcome = matrix.run(&SweepOptions {
            journal: Some(&journal),
            resume: journal.exists(),
            policy: claim.spec.policy(),
            store: Some(&store),
            stop: Some(&claim.stop),
            progress: Some(&progress),
            ..SweepOptions::new(engine)
        });
        let sweep = match outcome {
            Ok(outcome) => outcome.sweep,
            Err(SweepError::Stopped) => return Ok(Outcome::Stopped),
            Err(e @ SweepError::Journal(_)) => return Err(format!("journal: {e}")),
            Err(e) => return Err(e.to_string()),
        };

        // Completion: one atomic save, and only then is the spool entry
        // retired.
        store
            .save(&self.store_path)
            .map_err(|e| format!("warehouse save: {e}"))?;
        self.spool
            .remove(&claim.id)
            .map_err(|e| format!("spool cleanup: {e}"))?;
        let completed = sweep.completed();
        Ok(Outcome::Completed {
            completed,
            failed: sweep.results.len() - completed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SubmitSpec;
    use std::thread;
    use std::time::Duration;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rnuca-runner-{}-{tag}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn wait_terminal(registry: &Registry, id: &str) -> SubmissionState {
        let mut generation = registry.generation();
        loop {
            if let Some(state) = registry.state_of(id) {
                if state.is_terminal() {
                    return state;
                }
            }
            generation = registry.wait_change(generation, Duration::from_millis(200));
        }
    }

    #[test]
    fn a_submission_runs_to_completion_and_retires_its_spool_entry() {
        let root = temp_dir("complete");
        let spool = Spool::new(&root.join("spool")).unwrap();
        let store_path = root.join("warehouse.bin");
        let registry = Arc::new(Registry::new());
        let spec = SubmitSpec {
            workloads: vec!["oltp-db2".to_string()],
            designs: vec!["S".to_string()],
            core_counts: vec![16],
            ..SubmitSpec::default()
        };
        let id = spec.submission_id().unwrap();
        spool.write_spec(&id, &spec).unwrap();
        registry.submit(&id, spec).unwrap();

        let runner = Runner::new(registry.clone(), spool.clone(), store_path.clone(), 2);
        let handle = {
            let registry = registry.clone();
            let worker = thread::spawn(move || runner.run());
            let state = wait_terminal(&registry, &id);
            registry.drain();
            (worker, state)
        };
        handle.0.join().unwrap();
        assert_eq!(
            handle.1,
            SubmissionState::Completed {
                completed: 1,
                failed: 0
            }
        );
        assert!(!spool.dir(&id).exists(), "completed submissions retire");
        let store = Warehouse::open(&store_path).unwrap();
        let out = store.query("kind=sweep show workload, design").unwrap();
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0][0].to_string(), "OLTP DB2");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_journal_of_other_jobs_fails_the_submission_and_replays_nothing() {
        let root = temp_dir("stalejournal");
        let spool = Spool::new(&root.join("spool")).unwrap();
        let store_path = root.join("warehouse.bin");
        let registry = Arc::new(Registry::new());
        let spec = SubmitSpec {
            workloads: vec!["oltp-db2".to_string()],
            designs: vec!["S".to_string()],
            core_counts: vec![16],
            ..SubmitSpec::default()
        };
        let id = spec.submission_id().unwrap();
        spool.write_spec(&id, &spec).unwrap();
        // A journal left under this id by jobs with other keys (here: the
        // same matrix under another seed), with the one job's run in it.
        let other = SubmitSpec {
            seed: Some(7),
            ..spec.clone()
        }
        .to_matrix()
        .unwrap();
        let journal = rnuca_sim::SweepJournal::create(
            &spool.journal_path(&id),
            other.fingerprint().unwrap(),
            1,
        )
        .unwrap();
        let run = rnuca_sim::run_single(
            &rnuca_workloads::WorkloadSpec::oltp_db2(),
            rnuca_sim::LlcDesign::Shared,
            &other.cfg,
        );
        journal.append(0, &run).unwrap();
        drop(journal);
        registry.submit(&id, spec).unwrap();

        let runner = Runner::new(registry.clone(), spool.clone(), store_path.clone(), 1);
        let worker = thread::spawn(move || runner.run());
        let state = wait_terminal(&registry, &id);
        registry.drain();
        worker.join().unwrap();
        match state {
            SubmissionState::Failed(msg) => {
                assert!(msg.contains("journal fingerprint"), "got: {msg}")
            }
            other => panic!("expected a refused journal, got {other}"),
        }
        assert!(spool.journal_path(&id).exists(), "the spool entry stays");
        assert!(!store_path.exists(), "nothing reached the warehouse");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn an_invalid_spec_fails_the_submission_not_the_runner() {
        let root = temp_dir("badspec");
        let spool = Spool::new(&root.join("spool")).unwrap();
        let registry = Arc::new(Registry::new());
        let spec = SubmitSpec {
            config: "galactic".to_string(),
            ..SubmitSpec::default()
        };
        // The id cannot come from the (invalid) matrix; any id works here.
        registry.submit("sbad", spec).unwrap();
        let runner = Runner::new(
            registry.clone(),
            spool.clone(),
            root.join("warehouse.bin"),
            1,
        );
        let worker = thread::spawn(move || runner.run());
        let state = wait_terminal(&registry, "sbad");
        match state {
            SubmissionState::Failed(msg) => assert!(msg.contains("galactic"), "got: {msg}"),
            other => panic!("expected failure, got {other}"),
        }
        registry.drain();
        worker.join().unwrap();
        std::fs::remove_dir_all(&root).ok();
    }
}
