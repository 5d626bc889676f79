//! Declarative scenario matrices: one struct, every `(workload, design,
//! config-point)` combination.
//!
//! The paper's figures each hand-rolled their own loop (per-workload designs
//! for Figures 7-10/12, cluster sizes for Figure 11). A [`ScenarioMatrix`]
//! replaces those loops: declare the workloads, the designs, and the sweep
//! axes — core counts, L2 slice capacities, R-NUCA instruction-cluster sizes
//! — and the matrix flattens itself into jobs for the
//! [`ExperimentEngine`]. Results come back
//! in a deterministic order (and are identical for every worker-pool size),
//! ready for tables or the JSON emitted by [`ScenarioSweep::to_json`].
//!
//! Every job is independent: [`ScenarioJob::run`] builds the job's
//! simulator, warms it in place over the job's [`TraceArena`] slab, and
//! measures the rest of the slab. A matrix shares reference streams (one per
//! unique `(workload, core count, seed)`, materialized once each) but never
//! warmed state, so the plain, journaled and supervised paths — and the
//! experiment service — all execute the same per-job function, and a job's
//! result does not depend on which other jobs ran beside it.
//!
//! # Example
//!
//! ```
//! use rnuca_sim::{ExperimentConfig, LlcDesign, ScenarioMatrix};
//! use rnuca_workloads::WorkloadSpec;
//!
//! let mut matrix = ScenarioMatrix::new(ExperimentConfig::smoke());
//! matrix.workloads = vec![WorkloadSpec::mix()];
//! matrix.designs = vec![LlcDesign::Shared, LlcDesign::rnuca_default()];
//! matrix.core_counts = vec![16, 32];
//! matrix.cluster_sizes = vec![2, 4];
//! // 1 workload x 2 core counts x (shared + R-NUCA at 2 cluster sizes).
//! assert_eq!(matrix.jobs().unwrap().len(), 2 * 3);
//! ```

use crate::design::LlcDesign;
use crate::engine::{ExperimentEngine, JobFailure};
use crate::experiment::{DesignComparison, ExperimentConfig};
use crate::journal::{
    JournalEntry, JournalError, JournalFailure, JournalReplay, SweepJournal, JOURNAL_VERSION,
};
use crate::simulator::MeasuredRun;
use rnuca_types::config::ConfigPoint;
use rnuca_types::retry::RetryPolicy;
use rnuca_types::{ConfigError, Fnv64};
use rnuca_warehouse::{AppendSummary, RowKind, RunRecord, Warehouse};
use rnuca_workloads::{TraceArena, WorkloadSpec};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::Path;

/// Schema version of the sweep rows [`ScenarioMatrix::run_forked_into`]
/// appends to the warehouse (bumped when their column content changes
/// meaning, so old and new rows stay distinguishable by the `schema`
/// column).
pub const SWEEP_SCHEMA_VERSION: u64 = 1;

/// A declarative sweep over workloads, designs, and configuration axes.
///
/// Empty axis vectors mean "use each workload's baseline value", so the
/// default matrix reduces to a plain design comparison. `cluster_sizes`
/// applies only to R-NUCA designs (other designs have no cluster parameter).
/// Sizes exceeding a point's core count are skipped for that point
/// (mirroring [`crate::DesignComparison::run_cluster_sweep`]); sizes that are not
/// powers of two are skipped too, rather than panicking inside a worker the
/// way the rotational map's constructor would.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioMatrix {
    /// Workload profiles to evaluate.
    pub workloads: Vec<WorkloadSpec>,
    /// LLC designs to evaluate per workload and config point.
    pub designs: Vec<LlcDesign>,
    /// Core counts to sweep (empty: each workload's preset count).
    pub core_counts: Vec<usize>,
    /// L2 slice capacities in KB to sweep (empty: each preset's capacity).
    pub slice_capacities_kb: Vec<usize>,
    /// R-NUCA instruction-cluster sizes to sweep (empty: the design's own).
    pub cluster_sizes: Vec<usize>,
    /// Run lengths and seed shared by every job.
    pub cfg: ExperimentConfig,
}

/// One flattened job of a [`ScenarioMatrix`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioJob {
    /// The workload, already pinned to the job's system configuration.
    pub workload: WorkloadSpec,
    /// The design, already parameterised with the job's cluster size.
    pub design: LlcDesign,
    /// The overrides that produced this job (for labelling results).
    pub point: ConfigPoint,
}

impl ScenarioJob {
    /// Runs the job in place: builds the simulator, warms it over the job's
    /// arena slab, and measures the rest of the slab.
    ///
    /// This is the one per-job path every matrix run and the experiment
    /// service execute.
    pub fn run(&self, cfg: &ExperimentConfig, traces: &TraceArena) -> MeasuredRun {
        // Per-job injection site for the quarantine tests: the site name
        // pins one scenario regardless of worker count or job order, so a
        // chaos test can poison exactly one job.
        if rnuca_types::failpoint::enabled() {
            rnuca_types::failpoint::panic_point(&format!(
                "sim::member::{}::{}::{}c",
                self.workload.name,
                self.design,
                self.workload.num_cores()
            ));
        }
        DesignComparison::run_single_with_arena(&self.workload, self.design, cfg, traces).run
    }
}

/// The outcome of one scenario job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioResult {
    /// Workload name.
    pub workload: String,
    /// Design simulated.
    pub design: LlcDesign,
    /// The overrides that produced this job.
    pub point: ConfigPoint,
    /// Resolved core count the job ran with.
    pub cores: usize,
    /// Resolved per-tile L2 slice capacity in KB.
    pub slice_kb: usize,
    /// Measured CPI detail and rates.
    pub run: MeasuredRun,
}

/// All results of one matrix run, in flattened job order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSweep {
    /// The run lengths and seed the sweep used.
    pub cfg: ExperimentConfig,
    /// One result per job, ordered by job index.
    pub results: Vec<ScenarioResult>,
}

/// Why a journaled sweep could not run.
#[derive(Debug)]
pub enum SweepError {
    /// The matrix itself is invalid (same errors as [`ScenarioMatrix::jobs`]).
    Config(ConfigError),
    /// The journal could not be created, loaded, or matched to the matrix.
    Journal(JournalError),
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Config(e) => write!(f, "{e}"),
            SweepError::Journal(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepError::Config(e) => Some(e),
            SweepError::Journal(e) => Some(e),
        }
    }
}

impl From<ConfigError> for SweepError {
    fn from(e: ConfigError) -> Self {
        SweepError::Config(e)
    }
}

impl From<JournalError> for SweepError {
    fn from(e: JournalError) -> Self {
        SweepError::Journal(e)
    }
}

/// How much of a journaled sweep was replayed versus re-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResumeSummary {
    /// Jobs whose results were replayed from the journal.
    pub replayed: usize,
    /// Jobs the sweep (re-)ran.
    pub ran: usize,
}

/// A supervised matrix run: per-job `Result`s instead of an all-or-nothing
/// sweep. See [`ScenarioMatrix::run_supervised_forked`].
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantinedSweep {
    /// The run lengths and seed the sweep used.
    pub cfg: ExperimentConfig,
    /// One outcome per job, ordered by job index: the scenario's result,
    /// or the quarantined failure that poisoned it.
    pub results: Vec<Result<ScenarioResult, JobFailure>>,
}

impl QuarantinedSweep {
    /// The quarantined failures, in job order.
    pub fn failures(&self) -> Vec<&JobFailure> {
        self.results
            .iter()
            .filter_map(|r| r.as_ref().err())
            .collect()
    }

    /// Jobs that completed.
    pub fn completed(&self) -> usize {
        self.results.iter().filter(|r| r.is_ok()).count()
    }

    /// The sweep with every failure discarded (results stay in job order).
    pub fn into_sweep(self) -> ScenarioSweep {
        ScenarioSweep {
            cfg: self.cfg,
            results: self.results.into_iter().filter_map(Result::ok).collect(),
        }
    }
}

impl ScenarioMatrix {
    /// An empty matrix (no workloads, no designs) with the given run config.
    pub fn new(cfg: ExperimentConfig) -> Self {
        ScenarioMatrix {
            workloads: Vec::new(),
            designs: Vec::new(),
            core_counts: Vec::new(),
            slice_capacities_kb: Vec::new(),
            cluster_sizes: Vec::new(),
            cfg,
        }
    }

    /// The paper's evaluation as a matrix: the full workload suite under the
    /// shared and R-NUCA designs at their baseline configurations. Callers
    /// add sweep axes on top.
    pub fn paper_evaluation(cfg: ExperimentConfig) -> Self {
        ScenarioMatrix {
            workloads: WorkloadSpec::evaluation_suite(),
            designs: vec![LlcDesign::Shared, LlcDesign::rnuca_default()],
            ..Self::new(cfg)
        }
    }

    /// Flattens the matrix into its job list.
    ///
    /// Job order is deterministic: workloads, then core counts, then slice
    /// capacities, then designs (R-NUCA designs expanding over cluster
    /// sizes), in declaration order.
    ///
    /// # Errors
    ///
    /// Returns an error if an axis value produces an invalid system
    /// configuration for some workload (e.g. a non-power-of-two core count).
    pub fn jobs(&self) -> Result<Vec<ScenarioJob>, ConfigError> {
        let option_axis = |axis: &[usize]| -> Vec<Option<usize>> {
            if axis.is_empty() {
                vec![None]
            } else {
                axis.iter().copied().map(Some).collect()
            }
        };
        let cores_axis = option_axis(&self.core_counts);
        let caps_axis = option_axis(&self.slice_capacities_kb);
        let clusters_axis = option_axis(&self.cluster_sizes);

        let mut jobs = Vec::new();
        for spec in &self.workloads {
            for &cores in &cores_axis {
                for &cap_kb in &caps_axis {
                    let system_point = ConfigPoint {
                        num_cores: cores,
                        slice_capacity_kb: cap_kb,
                        instr_cluster_size: None,
                    };
                    let workload = spec.at_config_point(&system_point)?;
                    let num_cores = workload.num_cores();
                    for &design in &self.designs {
                        match design {
                            LlcDesign::RNuca { instr_cluster_size } => {
                                for &cluster in &clusters_axis {
                                    let size = cluster.unwrap_or(instr_cluster_size);
                                    if !size.is_power_of_two() || size > num_cores {
                                        continue;
                                    }
                                    jobs.push(ScenarioJob {
                                        workload: workload.clone(),
                                        design: LlcDesign::RNuca {
                                            instr_cluster_size: size,
                                        },
                                        point: ConfigPoint {
                                            instr_cluster_size: Some(size),
                                            ..system_point
                                        },
                                    });
                                }
                            }
                            _ => jobs.push(ScenarioJob {
                                workload: workload.clone(),
                                design,
                                point: system_point,
                            }),
                        }
                    }
                }
            }
        }
        Ok(jobs)
    }

    /// Runs the matrix on a default-sized engine.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::jobs`] errors.
    pub fn run(&self) -> Result<ScenarioSweep, ConfigError> {
        self.run_with(&ExperimentEngine::new())
    }

    /// Runs the matrix on an explicit engine. The result vector is ordered
    /// by job index and identical for every worker count.
    ///
    /// The matrix multiplies designs and slice capacities on top of far
    /// fewer unique `(workload, core count, seed)` streams, so each stream
    /// is generated once, into a [`TraceArena`], by the first job that needs
    /// it, and every other job replays its slab.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::jobs`] errors.
    pub fn run_with(&self, engine: &ExperimentEngine) -> Result<ScenarioSweep, ConfigError> {
        self.run_with_arena(engine, &TraceArena::new())
    }

    /// [`Self::run_with`] resolving jobs through an explicit `arena`
    /// (exposed so callers can share streams across matrices and inspect
    /// deduplication).
    ///
    /// # Errors
    ///
    /// Propagates [`Self::jobs`] errors.
    pub fn run_with_arena(
        &self,
        engine: &ExperimentEngine,
        arena: &TraceArena,
    ) -> Result<ScenarioSweep, ConfigError> {
        let jobs = self.jobs()?;
        let completed = vec![None; jobs.len()];
        let runs = self.run_core(engine, arena, &jobs, completed, None);
        Ok(ScenarioSweep {
            cfg: self.cfg,
            results: jobs
                .iter()
                .zip(runs)
                .map(|(job, run)| result_from(job, run))
                .collect(),
        })
    }

    /// A fingerprint over every field of the matrix (and the journal
    /// format version), identifying "the same sweep" for journal resume.
    /// Any change — a workload profile, an axis value, a run length, the
    /// seed — changes the fingerprint, so a stale journal is rejected
    /// rather than silently mixed into a different sweep.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write(format!("{self:?}").as_bytes());
        h.write(&JOURNAL_VERSION.to_le_bytes());
        h.write(&SWEEP_SCHEMA_VERSION.to_le_bytes());
        h.finish()
    }

    /// [`Self::run_with_arena`], journaling every completed job to `path`.
    ///
    /// With `resume` false, `path` is created (truncating any previous
    /// journal). With `resume` true, `path` is loaded first: its header
    /// must match this matrix (fingerprint and job count), journaled jobs
    /// are replayed instead of re-run, and only the remainder executes.
    /// Because every job's result is a pure function of the matrix and the
    /// seed, the resumed sweep — and any warehouse built from it — is
    /// bit-identical to an uninterrupted run.
    ///
    /// # Errors
    ///
    /// [`SweepError::Config`] for invalid matrices; [`SweepError::Journal`]
    /// when the journal cannot be created or loaded, or does not belong to
    /// this matrix.
    pub fn run_forked_journaled(
        &self,
        engine: &ExperimentEngine,
        arena: &TraceArena,
        path: &Path,
        resume: bool,
    ) -> Result<(ScenarioSweep, ResumeSummary), SweepError> {
        let jobs = self.jobs()?;
        let fingerprint = self.fingerprint();
        let (journal, completed) = if resume {
            let replay = JournalReplay::load(path)?;
            if replay.fingerprint != fingerprint {
                return Err(JournalError::FingerprintMismatch {
                    found: replay.fingerprint,
                    expected: fingerprint,
                }
                .into());
            }
            if replay.jobs as usize != jobs.len() {
                return Err(JournalError::JobCountMismatch {
                    found: replay.jobs,
                    expected: jobs.len() as u64,
                }
                .into());
            }
            let journal = SweepJournal::resume(path, &replay).map_err(JournalError::Io)?;
            // This is the fail-fast path: a journaled *failure* entry does
            // not satisfy the job (there is no run to replay), so the job
            // re-runs — and, being deterministic, re-raises its panic. Use
            // [`Self::run_supervised_journaled`] to skip quarantined jobs.
            let runs = replay
                .entries
                .into_iter()
                .map(|entry| match entry {
                    Some(JournalEntry::Run(run)) => Some(run),
                    _ => None,
                })
                .collect();
            (journal, runs)
        } else {
            let journal = SweepJournal::create(path, fingerprint, jobs.len() as u64)
                .map_err(JournalError::Io)?;
            (journal, vec![None; jobs.len()])
        };
        let replayed = completed.iter().filter(|c| c.is_some()).count();
        let runs = self.run_core(engine, arena, &jobs, completed, Some(&journal));
        let sweep = ScenarioSweep {
            cfg: self.cfg,
            results: jobs
                .iter()
                .zip(runs)
                .map(|(job, run)| result_from(job, run))
                .collect(),
        };
        Ok((
            sweep,
            ResumeSummary {
                replayed,
                ran: jobs.len() - replayed,
            },
        ))
    }

    /// [`Self::run_forked_journaled`], additionally appending one
    /// `kind=sweep` row per result into `store` (the journaled analogue of
    /// [`Self::run_forked_into`], with the same dedup-by-key semantics).
    ///
    /// # Errors
    ///
    /// Same as [`Self::run_forked_journaled`].
    pub fn run_forked_into_journaled(
        &self,
        engine: &ExperimentEngine,
        arena: &TraceArena,
        path: &Path,
        resume: bool,
        store: &Warehouse,
    ) -> Result<(ScenarioSweep, AppendSummary, ResumeSummary), SweepError> {
        let (sweep, resumed) = self.run_forked_journaled(engine, arena, path, resume)?;
        let jobs = self.jobs()?;
        let records: Vec<RunRecord> = jobs
            .iter()
            .zip(&sweep.results)
            .map(|(job, result)| sweep_record(&self.cfg, &job.workload, result))
            .collect();
        let summary = store.append_all(&records);
        Ok((sweep, summary, resumed))
    }

    /// [`Self::run_supervised_forked`] composed with the journal — the
    /// crash-safe *and* panic-safe sweep.
    ///
    /// Before this composition existed, journaled sweeps were fail-fast: a
    /// single poisoned member killed the whole sweep, and `--resume` would
    /// deterministically re-crash on the same job forever. Here every
    /// completed job journals a run entry as before, while a job whose
    /// every attempt fails journals a *typed failure entry* — so resume
    /// replays completed jobs as results, replays quarantined jobs as
    /// failures (skipping them instead of re-crashing), and re-runs only
    /// jobs with no entry at all.
    ///
    /// Every pending job runs under `policy` — its retry budget and seeded
    /// backoff (the pause schedule derives from the matrix seed, so it is
    /// identical for every worker count). The policy's `deadline` is not
    /// enforced on this borrow-based path; the experiment service's runner
    /// enforces deadlines per job via
    /// [`ExperimentEngine::run_supervised_detached`].
    ///
    /// # Errors
    ///
    /// [`SweepError::Config`] for invalid matrices; [`SweepError::Journal`]
    /// when the journal cannot be created, loaded, appended, or does not
    /// belong to this matrix.
    pub fn run_supervised_journaled(
        &self,
        engine: &ExperimentEngine,
        arena: &TraceArena,
        path: &Path,
        resume: bool,
        policy: &RetryPolicy,
    ) -> Result<(QuarantinedSweep, ResumeSummary), SweepError> {
        let jobs = self.jobs()?;
        let fingerprint = self.fingerprint();
        let (journal, journaled) = if resume {
            let replay = JournalReplay::load(path)?;
            if replay.fingerprint != fingerprint {
                return Err(JournalError::FingerprintMismatch {
                    found: replay.fingerprint,
                    expected: fingerprint,
                }
                .into());
            }
            if replay.jobs as usize != jobs.len() {
                return Err(JournalError::JobCountMismatch {
                    found: replay.jobs,
                    expected: jobs.len() as u64,
                }
                .into());
            }
            let journal = SweepJournal::resume(path, &replay).map_err(JournalError::Io)?;
            (journal, replay.entries)
        } else {
            let journal = SweepJournal::create(path, fingerprint, jobs.len() as u64)
                .map_err(JournalError::Io)?;
            (journal, vec![None; jobs.len()])
        };
        let replayed = journaled.iter().filter(|e| e.is_some()).count();

        let mut results: Vec<Option<Result<ScenarioResult, JobFailure>>> =
            jobs.iter().map(|_| None).collect();
        let mut pending: Vec<usize> = Vec::new();
        for (i, entry) in journaled.into_iter().enumerate() {
            match entry {
                Some(JournalEntry::Run(run)) => {
                    results[i] = Some(Ok(result_from(&jobs[i], run)));
                }
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

        let outcomes = engine.run_supervised_policy(&pending, self.cfg.seed, policy, |_, &i| {
            let run = jobs[i].run(&self.cfg, arena);
            journal
                .append(i, &run)
                .unwrap_or_else(|e| panic!("journal append failed: {e}"));
            run
        });
        for (&i, outcome) in pending.iter().zip(outcomes) {
            results[i] = Some(match outcome {
                Ok(run) => Ok(result_from(&jobs[i], run)),
                Err(failure) => {
                    let failure = JobFailure { job: i, ..failure };
                    journal
                        .append_failure(
                            i,
                            &JournalFailure {
                                attempts: failure.attempts,
                                cause: failure.cause,
                                message: failure.message.clone(),
                            },
                        )
                        .map_err(JournalError::Io)?;
                    Err(failure)
                }
            });
        }
        Ok((
            QuarantinedSweep {
                cfg: self.cfg,
                results: results
                    .into_iter()
                    .map(|r| r.expect("every job is replayed or run"))
                    .collect(),
            },
            ResumeSummary {
                replayed,
                ran: jobs.len() - replayed,
            },
        ))
    }

    /// [`Self::run_supervised_journaled`], additionally appending one row
    /// per job into `store`: a `kind=sweep` row for each completed job and
    /// a `kind=failed` row (failure message in the `failure` column) for
    /// each quarantined one, so `figures query kind=failed` lists exactly
    /// what a sweep lost instead of failures silently vanishing.
    ///
    /// # Errors
    ///
    /// Same as [`Self::run_supervised_journaled`].
    pub fn run_supervised_into_journaled(
        &self,
        engine: &ExperimentEngine,
        arena: &TraceArena,
        path: &Path,
        resume: bool,
        policy: &RetryPolicy,
        store: &Warehouse,
    ) -> Result<(QuarantinedSweep, AppendSummary, ResumeSummary), SweepError> {
        let (sweep, resumed) =
            self.run_supervised_journaled(engine, arena, path, resume, policy)?;
        let jobs = self.jobs()?;
        let records: Vec<RunRecord> = jobs
            .iter()
            .zip(&sweep.results)
            .map(|(job, result)| match result {
                Ok(result) => sweep_record(&self.cfg, &job.workload, result),
                Err(failure) => failed_record(&self.cfg, job, failure),
            })
            .collect();
        let summary = store.append_all(&records);
        Ok((sweep, summary, resumed))
    }

    /// [`Self::run_with_arena`] with per-job panic quarantine: one poisoned
    /// scenario yields a [`JobFailure`] in its slot while every other job
    /// completes. Each job gets up to `retries` extra attempts before it is
    /// quarantined.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::jobs`] errors.
    pub fn run_supervised_forked(
        &self,
        engine: &ExperimentEngine,
        arena: &TraceArena,
        retries: u32,
    ) -> Result<QuarantinedSweep, ConfigError> {
        let jobs = self.jobs()?;
        let outcomes = engine.run_supervised(&jobs, retries, |_, job| job.run(&self.cfg, arena));
        Ok(QuarantinedSweep {
            cfg: self.cfg,
            results: jobs
                .iter()
                .zip(outcomes)
                .map(|(job, outcome)| outcome.map(|run| result_from(job, run)))
                .collect(),
        })
    }

    /// The shared execution path: runs every job whose slot in `completed`
    /// is `None`, journaling each finished job when a journal is given, and
    /// returns the full run vector in job order (replayed results merged
    /// with computed ones).
    fn run_core(
        &self,
        engine: &ExperimentEngine,
        arena: &TraceArena,
        jobs: &[ScenarioJob],
        completed: Vec<Option<MeasuredRun>>,
        journal: Option<&SweepJournal>,
    ) -> Vec<MeasuredRun> {
        let pending: Vec<usize> = (0..jobs.len())
            .filter(|&i| completed[i].is_none())
            .collect();
        let runs = engine.run(&pending, |_, &i| {
            let run = jobs[i].run(&self.cfg, arena);
            if let Some(journal) = journal {
                // Journal each job as soon as it completes: a crash loses
                // at most the jobs in flight (re-run deterministically on
                // resume).
                journal
                    .append(i, &run)
                    .unwrap_or_else(|e| panic!("journal append failed: {e}"));
            }
            run
        });
        let mut all = completed;
        for (&i, run) in pending.iter().zip(runs) {
            all[i] = Some(run);
        }
        all.into_iter()
            .map(|r| r.expect("every job is replayed or run"))
            .collect()
    }

    /// [`Self::run_with_arena`], additionally appending one `kind=sweep` row
    /// per result into `store`.
    ///
    /// Rows are keyed by the full workload-spec fingerprint plus design,
    /// geometry, seed, and schema, so re-running the same matrix into the
    /// same store adds zero rows — repeated sweeps accumulate
    /// incrementally, and only genuinely new points grow the store.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::jobs`] errors.
    pub fn run_forked_into(
        &self,
        engine: &ExperimentEngine,
        arena: &TraceArena,
        store: &Warehouse,
    ) -> Result<(ScenarioSweep, AppendSummary), ConfigError> {
        let sweep = self.run_with_arena(engine, arena)?;
        // jobs() is deterministic and cheap next to the simulation, so
        // re-flattening recovers each result's full WorkloadSpec (the
        // sweep itself only keeps the name) for fingerprinting.
        let jobs = self.jobs()?;
        let records: Vec<RunRecord> = jobs
            .iter()
            .zip(&sweep.results)
            .map(|(job, result)| sweep_record(&self.cfg, &job.workload, result))
            .collect();
        let summary = store.append_all(&records);
        Ok((sweep, summary))
    }
}

/// Labels one job's measured run with its resolved configuration.
///
/// Public so external drivers (the experiment service's runner) can turn
/// journal-replayed and freshly-measured runs into the same results a
/// library sweep produces.
pub fn result_from(job: &ScenarioJob, run: MeasuredRun) -> ScenarioResult {
    let system = job.workload.system_config();
    ScenarioResult {
        workload: job.workload.name.clone(),
        design: job.design,
        point: job.point,
        cores: system.num_cores,
        slice_kb: system.l2_slice.geometry.capacity_bytes / 1024,
        run,
    }
}

/// One sweep result as a warehouse row.
///
/// Public so external drivers (the experiment service's runner) can build
/// the exact rows the `run_*_into` methods would, then batch them into a
/// single [`Warehouse::append_all`] call of their own.
pub fn sweep_record(
    cfg: &ExperimentConfig,
    spec: &WorkloadSpec,
    result: &ScenarioResult,
) -> RunRecord {
    let mut r = RunRecord::new(
        RowKind::Sweep,
        cfg.seed as i64,
        SWEEP_SCHEMA_VERSION as i64,
        cfg.label(),
    );
    // FNV-1a over the full debug rendering, covering every field of the
    // spec.
    let mut h = Fnv64::new();
    h.write(format!("{spec:?}").as_bytes());
    r.fingerprint = h.finish();
    r.workload = Some(result.workload.clone());
    r.design = Some(result.design.letter().to_string());
    r.letter = Some(result.design.letter().to_string());
    r.cores = Some(result.cores as i64);
    r.slice_kb = Some(result.slice_kb as i64);
    r.cluster = match result.design {
        LlcDesign::RNuca { instr_cluster_size } => Some(instr_cluster_size as i64),
        _ => None,
    };
    r.refs = Some(cfg.total_refs() as i64);
    let b = &result.run.cpi.breakdown;
    r.total_cpi = Some(result.run.total_cpi());
    r.cpi_busy = Some(b.busy);
    r.cpi_l1_to_l1 = Some(b.l1_to_l1);
    r.cpi_l2 = Some(b.l2);
    r.cpi_off_chip = Some(b.off_chip);
    r.cpi_other = Some(b.other);
    r.cpi_reclass = Some(b.reclassification);
    r.off_chip_rate = Some(result.run.off_chip_rate);
    r.l1_to_l1_rate = Some(result.run.l1_to_l1_rate);
    r.misclass_rate = Some(result.run.misclassification_rate);
    r.reclassifications = Some(result.run.reclassifications as i64);
    r
}

/// One quarantined job as a `kind=failed` warehouse row.
///
/// Carries the same identity columns a sweep row would (workload, design,
/// geometry, seed, schema, fingerprint) so the failure is attributable to a
/// precise scenario, plus the failure summary in the `failure` column. No
/// metric columns are set — there is no run to report. Rows key on identity
/// *and* the failure text: re-ingesting the same failure deduplicates,
/// while the same scenario failing differently later adds a new row.
pub fn failed_record(cfg: &ExperimentConfig, job: &ScenarioJob, failure: &JobFailure) -> RunRecord {
    let mut r = RunRecord::new(
        RowKind::Failed,
        cfg.seed as i64,
        SWEEP_SCHEMA_VERSION as i64,
        cfg.label(),
    );
    let mut h = Fnv64::new();
    h.write(format!("{:?}", job.workload).as_bytes());
    r.fingerprint = h.finish();
    let system = job.workload.system_config();
    r.workload = Some(job.workload.name.clone());
    r.design = Some(job.design.letter().to_string());
    r.letter = Some(job.design.letter().to_string());
    r.cores = Some(system.num_cores as i64);
    r.slice_kb = Some((system.l2_slice.geometry.capacity_bytes / 1024) as i64);
    r.cluster = match job.design {
        LlcDesign::RNuca { instr_cluster_size } => Some(instr_cluster_size as i64),
        _ => None,
    };
    r.refs = Some(cfg.total_refs() as i64);
    r.failure = Some(format!(
        "{} after {} attempt{}: {}",
        failure.cause,
        failure.attempts,
        if failure.attempts == 1 { "" } else { "s" },
        failure.message
    ));
    r
}

impl ScenarioSweep {
    /// Serialises the sweep as a JSON document.
    ///
    /// Emitted by hand (the workspace vendors no JSON library) with a
    /// deterministic field order and Rust's shortest-roundtrip float
    /// formatting, so equal sweeps produce byte-identical documents — the
    /// property the worker-count determinism test pins down.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.results.len() * 256);
        out.push_str("{\n  \"config\": {");
        out.push_str(&format!(
            "\"warmup_refs\": {}, \"measured_refs\": {}, \"seed\": {}, \"asr_best_of\": {}",
            self.cfg.warmup_refs, self.cfg.measured_refs, self.cfg.seed, self.cfg.asr_best_of
        ));
        out.push_str("},\n  \"results\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            out.push_str("    ");
            out.push_str(&result_json(r));
            out.push_str(if i + 1 < self.results.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// The results for one workload, in job order.
    pub fn workload(&self, name: &str) -> Vec<&ScenarioResult> {
        self.results.iter().filter(|r| r.workload == name).collect()
    }
}

/// One scenario result as a JSON object (shared by both sweep documents).
fn result_json(r: &ScenarioResult) -> String {
    let cluster = match r.design {
        LlcDesign::RNuca { instr_cluster_size } => instr_cluster_size.to_string(),
        _ => "null".to_string(),
    };
    let b = &r.run.cpi.breakdown;
    format!(
        "{{\"workload\": {}, \"design\": {}, \"letter\": \"{}\", \
         \"cores\": {}, \"slice_kb\": {}, \"cluster\": {}, \
         \"total_cpi\": {}, \"cpi\": {{\"busy\": {}, \"l1_to_l1\": {}, \"l2\": {}, \
         \"off_chip\": {}, \"other\": {}, \"reclassification\": {}}}, \
         \"off_chip_rate\": {}, \"l1_to_l1_rate\": {}}}",
        json_string(&r.workload),
        json_string(&r.design.to_string()),
        r.design.letter(),
        r.cores,
        r.slice_kb,
        cluster,
        r.run.total_cpi(),
        b.busy,
        b.l1_to_l1,
        b.l2,
        b.off_chip,
        b.other,
        b.reclassification,
        r.run.off_chip_rate,
        r.run.l1_to_l1_rate,
    )
}

impl QuarantinedSweep {
    /// Serialises the supervised sweep as a JSON document.
    ///
    /// Same deterministic shape as [`ScenarioSweep::to_json`], except each
    /// slot in `results` is either a result object or `null` (the job was
    /// quarantined), and a `failures` array lists every quarantined job
    /// with its index, attempt count, cause, and panic message — failures
    /// appear in the output instead of silently vanishing.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.results.len() * 256);
        out.push_str("{\n  \"config\": {");
        out.push_str(&format!(
            "\"warmup_refs\": {}, \"measured_refs\": {}, \"seed\": {}, \"asr_best_of\": {}",
            self.cfg.warmup_refs, self.cfg.measured_refs, self.cfg.seed, self.cfg.asr_best_of
        ));
        out.push_str("},\n  \"results\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            out.push_str("    ");
            match r {
                Ok(r) => out.push_str(&result_json(r)),
                Err(_) => out.push_str("null"),
            }
            out.push_str(if i + 1 < self.results.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n  \"failures\": [\n");
        let failures = self.failures();
        for (i, f) in failures.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"job\": {}, \"attempts\": {}, \"cause\": \"{}\", \"message\": {}}}",
                f.job,
                f.attempts,
                f.cause,
                json_string(&f.message),
            ));
            out.push_str(if i + 1 < failures.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control characters).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_matrix() -> ScenarioMatrix {
        let mut cfg = ExperimentConfig::smoke();
        cfg.warmup_refs = 1_500;
        cfg.measured_refs = 1_000;
        let mut m = ScenarioMatrix::new(cfg);
        m.workloads = vec![WorkloadSpec::oltp_db2()];
        m.designs = vec![LlcDesign::Shared, LlcDesign::rnuca_default()];
        m
    }

    #[test]
    fn empty_axes_reduce_to_the_baseline_comparison() {
        let m = tiny_matrix();
        let jobs = m.jobs().unwrap();
        assert_eq!(jobs.len(), 2);
        assert!(jobs.iter().all(|j| j.workload.num_cores() == 16));
        assert!(jobs[0].point.is_baseline());
        // The R-NUCA job's point records the design's own cluster size.
        assert_eq!(jobs[1].point.instr_cluster_size, Some(4));
    }

    #[test]
    fn axes_multiply_and_oversized_clusters_are_skipped() {
        let mut m = tiny_matrix();
        m.workloads = vec![WorkloadSpec::mix()]; // 8-core preset
        m.core_counts = vec![8, 16];
        m.slice_capacities_kb = vec![512, 1024];
        m.cluster_sizes = vec![4, 16]; // 16 > 8 cores: skipped at 8 cores
        let jobs = m.jobs().unwrap();
        // Per (cores, cap): shared + R-NUCA clusters. At 8 cores: 1 + 1; at
        // 16 cores: 1 + 2.
        assert_eq!(jobs.len(), 2 * (2 + 3));
        for job in &jobs {
            if let LlcDesign::RNuca { instr_cluster_size } = job.design {
                assert!(instr_cluster_size <= job.workload.num_cores());
            }
        }
    }

    #[test]
    fn invalid_axis_values_error_out() {
        let mut m = tiny_matrix();
        m.core_counts = vec![24];
        assert!(m.jobs().is_err());
        assert!(m.run().is_err());
    }

    #[test]
    fn sweep_json_is_identical_across_worker_counts() {
        // Acceptance criterion: scenario output is byte-identical no matter
        // how many workers execute the matrix.
        let mut m = tiny_matrix();
        m.core_counts = vec![16, 32];
        m.cluster_sizes = vec![2, 4];
        let serial = m.run_with(&ExperimentEngine::with_workers(1)).unwrap();
        let pooled = m.run_with(&ExperimentEngine::with_workers(5)).unwrap();
        assert_eq!(serial, pooled);
        assert_eq!(serial.to_json(), pooled.to_json());
        assert_eq!(serial.results.len(), 2 * 3);
    }

    #[test]
    fn sweep_jobs_group_onto_unique_streams() {
        // 1 workload x 2 core counts x 2 capacities x 2 designs = 8 jobs,
        // but only the core count changes the reference stream: the arena
        // must end up holding exactly 2 slabs, each generated once.
        let mut m = tiny_matrix();
        m.core_counts = vec![16, 32];
        m.slice_capacities_kb = vec![512, 1024];
        let arena = TraceArena::new();
        let sweep = m
            .run_with_arena(&ExperimentEngine::with_workers(4), &arena)
            .unwrap();
        assert_eq!(sweep.results.len(), 2 * 2 * 2);
        assert_eq!(arena.len(), 2, "one stream per core count");
        assert_eq!(arena.generations(), 2);
    }

    #[test]
    fn sweep_jobs_group_onto_unique_checkpoints() {
        // Three ASR variants x two capacities = 6 jobs. Each job warms in
        // place, but the variants of one capacity point share a warm-up
        // class: measuring clones of one warmed simulator per capacity
        // point must reproduce every job's result. Capacities share a
        // stream (capacity is cost-only), so the trace arena holds one.
        use crate::design::AsrPolicy;
        use crate::simulator::CmpSimulator;
        let mut m = tiny_matrix();
        m.designs = vec![
            LlcDesign::Asr {
                policy: AsrPolicy::Static(0.0),
            },
            LlcDesign::Asr {
                policy: AsrPolicy::Static(1.0),
            },
            LlcDesign::Asr {
                policy: AsrPolicy::Adaptive,
            },
        ];
        m.slice_capacities_kb = vec![512, 1024];
        let traces = TraceArena::new();
        let sweep = m
            .run_with_arena(&ExperimentEngine::with_workers(4), &traces)
            .unwrap();
        assert_eq!(sweep.results.len(), 3 * 2);
        assert_eq!(traces.len(), 1, "capacity never changes the stream");
        assert_eq!(traces.generations(), 1);

        let cfg = m.cfg;
        let mut checkpoints: Vec<(usize, CmpSimulator)> = Vec::new();
        for (job, result) in m.jobs().unwrap().iter().zip(&sweep.results) {
            let mut slice = traces.slice(&job.workload, cfg.seed, cfg.total_refs());
            let at = match checkpoints
                .iter()
                .position(|(kb, _)| *kb == result.slice_kb)
            {
                Some(at) => at,
                None => {
                    let mut sim = CmpSimulator::with_seed(job.design, &job.workload, cfg.seed);
                    sim.run_warmup(&mut slice.clone(), cfg.warmup_refs);
                    checkpoints.push((result.slice_kb, sim));
                    checkpoints.len() - 1
                }
            };
            let LlcDesign::Asr { policy } = job.design else {
                unreachable!("the matrix runs ASR designs only")
            };
            let mut fork = checkpoints[at].1.clone();
            fork.set_asr_policy(policy);
            slice.skip(cfg.warmup_refs);
            assert_eq!(
                fork.run_measured(&mut slice, cfg.measured_refs),
                result.run,
                "{} / {} KB",
                job.design,
                result.slice_kb
            );
        }
        assert_eq!(checkpoints.len(), 2, "one checkpoint per capacity point");
    }

    #[test]
    fn results_record_resolved_configuration() {
        let mut m = tiny_matrix();
        m.core_counts = vec![32];
        m.slice_capacities_kb = vec![512];
        let sweep = m.run().unwrap();
        assert!(!sweep.results.is_empty());
        for r in &sweep.results {
            assert_eq!(r.cores, 32);
            assert_eq!(r.slice_kb, 512);
            assert!(r.run.total_cpi() > 0.0);
        }
        assert_eq!(sweep.workload("OLTP DB2").len(), sweep.results.len());
        assert!(sweep.workload("nonexistent").is_empty());
    }

    #[test]
    fn json_has_the_documented_shape() {
        let mut m = tiny_matrix();
        m.designs = vec![LlcDesign::rnuca_default()];
        let sweep = m.run().unwrap();
        let json = sweep.to_json();
        assert!(json.starts_with("{\n  \"config\""));
        assert!(json.contains("\"workload\": \"OLTP DB2\""));
        assert!(json.contains("\"letter\": \"R\""));
        assert!(json.contains("\"cluster\": 4"));
        assert!(json.contains("\"total_cpi\": "));
        assert!(json.trim_end().ends_with('}'));
        // Shared designs carry a null cluster.
        let mut m2 = tiny_matrix();
        m2.designs = vec![LlcDesign::Shared];
        assert!(m2.run().unwrap().to_json().contains("\"cluster\": null"));
    }

    #[test]
    fn rerunning_a_sweep_into_the_store_adds_zero_rows() {
        let mut m = tiny_matrix();
        m.core_counts = vec![16, 32];
        let engine = ExperimentEngine::with_workers(2);
        let store = Warehouse::new();

        let (sweep, first) = m
            .run_forked_into(&engine, &TraceArena::new(), &store)
            .unwrap();
        assert_eq!(first.added, sweep.results.len());
        assert_eq!(first.deduplicated, 0);
        assert_eq!(store.len(), sweep.results.len());

        // The same matrix again: fully deduplicated, store unchanged.
        let bytes = store.to_bytes();
        let (_, second) = m
            .run_forked_into(&engine, &TraceArena::new(), &store)
            .unwrap();
        assert_eq!(second.added, 0);
        assert_eq!(second.deduplicated, sweep.results.len());
        assert_eq!(store.to_bytes(), bytes, "re-ingest must be byte-identical");

        // A new axis point is incremental: only the new rows append.
        m.core_counts = vec![16, 32, 64];
        let (bigger, third) = m
            .run_forked_into(&engine, &TraceArena::new(), &store)
            .unwrap();
        assert_eq!(third.added, bigger.results.len() - sweep.results.len());
        assert_eq!(third.deduplicated, sweep.results.len());
        assert_eq!(store.len(), bigger.results.len());

        // And the rows are queryable with the documented columns.
        let out = store
            .query("kind=sweep & design=R & cores>=32 show workload, cores, total_cpi")
            .expect("clean query");
        assert_eq!(out.rows.len(), 2, "R-NUCA rows at 32 and 64 cores");
    }

    #[test]
    fn sweep_records_mirror_the_json_fields() {
        let m = tiny_matrix();
        let store = Warehouse::new();
        let (sweep, _) = m
            .run_forked_into(
                &ExperimentEngine::with_workers(1),
                &TraceArena::new(),
                &store,
            )
            .unwrap();
        let out = store
            .query("kind=sweep sort design show design, cluster, total_cpi, off_chip_rate, config, schema, partial")
            .expect("clean query");
        assert_eq!(out.rows.len(), sweep.results.len());
        for (row, want) in out.rows.iter().zip(
            // sort design: R before S.
            [&sweep.results[1], &sweep.results[0]],
        ) {
            assert_eq!(row[0].to_string(), want.design.letter());
            assert_eq!(row[2].to_string(), want.run.total_cpi().to_string());
            assert_eq!(row[3].to_string(), want.run.off_chip_rate.to_string());
            assert_eq!(row[4].to_string(), "custom", "1500/1000 refs is no preset");
            assert_eq!(row[5].to_string(), SWEEP_SCHEMA_VERSION.to_string());
            assert_eq!(row[6].to_string(), "false");
        }
        // The R-NUCA row records its cluster size; shared rows are null.
        let clusters: Vec<String> = out.rows.iter().map(|r| r[1].to_string()).collect();
        assert_eq!(clusters, ["4", "-"]);
    }

    #[test]
    fn json_string_escapes_specials() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("x\ny"), "\"x\\u000ay\"");
    }
}
