//! The runner thread: claims submissions, executes them as supervised,
//! journaled, deadline-bounded sweeps, and lands their rows in the
//! warehouse.
//!
//! # Execution shape
//!
//! A submission's pending jobs execute in *chunks* of at most `workers`
//! jobs through [`ExperimentEngine::run_supervised_detached`] — the
//! detached path so a per-attempt wall-clock deadline can abandon a wedged
//! attempt. Every job is the library's per-job path, [`ScenarioJob::run`],
//! under the submission's full retry policy (seeded backoff, deadline).
//! The closure handed to the engine is side-effect-free (it only measures);
//! journaling happens in this thread after each chunk returns, and only for
//! results the supervisor *accepted*. An abandoned deadline-overrun thread
//! can therefore never race a journal append: its late result is simply
//! dropped. The crash window is one chunk of re-computable work. Jobs whose
//! every attempt fails are journaled as typed failure entries, exactly like
//! the library's `run_supervised_journaled`.
//!
//! # The crash-resume and byte-identity invariant
//!
//! The warehouse is written once, at completion: records are built in job
//! order from the (replayed + freshly measured) results, appended in one
//! batch, and saved through the warehouse's atomic temp-fsync-rename path;
//! only after that save returns is the spool entry removed. A `kill -9` at
//! any earlier point leaves the journal behind, the next start's scan
//! re-enqueues the submission, replayed entries fill the same slots the
//! crashed run had journaled, and the final batch is identical row for row
//! — so the saved warehouse is byte-identical to an uninterrupted run's.

use crate::spool::Spool;
use crate::state::{Claim, Registry, SubmissionState};
use rnuca_sim::{
    failed_record, result_from, sweep_record, ExperimentEngine, JobFailure, JournalEntry,
    JournalFailure, JournalReplay, ScenarioJob, ScenarioResult, SweepJournal,
};
use rnuca_warehouse::{RunRecord, Warehouse};
use rnuca_workloads::TraceArena;
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
    /// The stop flag (drain or cancel) interrupted the run between chunks;
    /// the journal holds everything finished so far.
    Stopped,
}

/// The service's single worker: owns the engine and the trace arena, drains the
/// registry queue until a drain is requested.
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
        let arena = Arc::new(TraceArena::new());
        while let Some(claim) = self.registry.claim() {
            self.registry.set_state(
                &claim.id,
                SubmissionState::Running {
                    done_jobs: 0,
                    total_jobs: 0,
                },
            );
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                self.run_submission(&engine, &arena, &claim)
            }));
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

    fn run_submission(
        &self,
        engine: &ExperimentEngine,
        arena: &Arc<TraceArena>,
        claim: &Claim,
    ) -> Result<Outcome, String> {
        let matrix = claim.spec.to_matrix()?;
        let jobs = matrix.jobs().map_err(|e| e.to_string())?;
        let cfg = matrix.cfg;
        let fingerprint = matrix.fingerprint();
        let policy = claim.spec.policy();

        // Create the journal, or resume the one a previous run (or a crash)
        // left behind. The spec line fully determines the matrix, and the id
        // is the fingerprint, so a mismatch here means spool tampering — a
        // hard error, never a silent re-run.
        let journal_path = self.spool.journal_path(&claim.id);
        let (journal, journaled) = if journal_path.exists() {
            let replay = JournalReplay::load(&journal_path).map_err(|e| format!("journal: {e}"))?;
            if replay.fingerprint != fingerprint {
                return Err(format!(
                    "journal fingerprint {:016x} does not match the spec's matrix {:016x}",
                    replay.fingerprint, fingerprint
                ));
            }
            if replay.jobs as usize != jobs.len() {
                return Err(format!(
                    "journal covers {} jobs, the spec's matrix has {}",
                    replay.jobs,
                    jobs.len()
                ));
            }
            let journal = SweepJournal::resume(&journal_path, &replay)
                .map_err(|e| format!("journal: {e}"))?;
            (journal, replay.entries)
        } else {
            let journal = SweepJournal::create(&journal_path, fingerprint, jobs.len() as u64)
                .map_err(|e| format!("journal: {e}"))?;
            (journal, vec![None; jobs.len()])
        };

        // Scatter replayed entries: completed jobs become results, failure
        // entries stay quarantined (resume never re-crashes on them), and
        // only entry-less jobs run.
        let mut results: Vec<Option<Result<ScenarioResult, JobFailure>>> =
            jobs.iter().map(|_| None).collect();
        let mut pending: Vec<usize> = Vec::new();
        for (i, entry) in journaled.into_iter().enumerate() {
            match entry {
                Some(JournalEntry::Run(run)) => results[i] = Some(Ok(result_from(&jobs[i], run))),
                Some(JournalEntry::Failed(f)) => {
                    results[i] = Some(Err(JobFailure {
                        job: i,
                        attempts: f.attempts,
                        cause: f.cause,
                        message: f.message,
                    }));
                }
                None => pending.push(i),
            }
        }

        if !pending.is_empty() {
            if claim.stop.load(Ordering::SeqCst) {
                return Ok(Outcome::Stopped);
            }
            let total_jobs = pending.len();
            let mut done_jobs = 0;
            self.registry.set_state(
                &claim.id,
                SubmissionState::Running {
                    done_jobs,
                    total_jobs,
                },
            );

            let items: Vec<(usize, ScenarioJob)> =
                pending.iter().map(|&i| (i, jobs[i].clone())).collect();
            for chunk in items.chunks(self.workers) {
                if claim.stop.load(Ordering::SeqCst) {
                    return Ok(Outcome::Stopped);
                }
                let chunk: Arc<Vec<(usize, ScenarioJob)>> = Arc::new(chunk.to_vec());
                let run = {
                    let arena = Arc::clone(arena);
                    Arc::new(move |_: usize, (_, job): &(usize, ScenarioJob)| job.run(&cfg, &arena))
                };
                let outcomes = engine.run_supervised_detached(
                    Arc::clone(&chunk),
                    cfg.seed,
                    &policy,
                    &claim.stop,
                    run,
                );
                for ((job_idx, job), outcome) in chunk.iter().zip(outcomes) {
                    match outcome {
                        // Stop raised before the job was claimed.
                        None => continue,
                        Some(Ok(run)) => {
                            journal
                                .append(*job_idx, &run)
                                .map_err(|e| format!("journal append: {e}"))?;
                            results[*job_idx] = Some(Ok(result_from(job, run)));
                        }
                        Some(Err(failure)) => {
                            journal
                                .append_failure(
                                    *job_idx,
                                    &JournalFailure {
                                        attempts: failure.attempts,
                                        cause: failure.cause,
                                        message: failure.message.clone(),
                                    },
                                )
                                .map_err(|e| format!("journal append: {e}"))?;
                            results[*job_idx] = Some(Err(JobFailure {
                                job: *job_idx,
                                ..failure
                            }));
                        }
                    }
                    done_jobs += 1;
                }
                self.registry.set_state(
                    &claim.id,
                    SubmissionState::Running {
                        done_jobs,
                        total_jobs,
                    },
                );
            }
        }

        // A stop between a chunk's launch and its last job leaves
        // unclaimed slots; only a fully-resolved sweep reaches the store.
        if results.iter().any(Option::is_none) {
            return Ok(Outcome::Stopped);
        }

        // Completion: one batch of rows in job order, one atomic save, and
        // only then is the spool entry retired.
        let mut completed = 0;
        let mut failed = 0;
        let records: Vec<RunRecord> = jobs
            .iter()
            .zip(&results)
            .map(|(job, slot)| match slot.as_ref().expect("checked above") {
                Ok(result) => {
                    completed += 1;
                    sweep_record(&cfg, &job.workload, result)
                }
                Err(failure) => {
                    failed += 1;
                    failed_record(&cfg, job, failure)
                }
            })
            .collect();
        let store = Warehouse::open(&self.store_path).map_err(|e| format!("warehouse: {e}"))?;
        store.append_all(&records);
        store
            .save(&self.store_path)
            .map_err(|e| format!("warehouse save: {e}"))?;
        drop(journal);
        self.spool
            .remove(&claim.id)
            .map_err(|e| format!("spool cleanup: {e}"))?;
        Ok(Outcome::Completed { completed, failed })
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
