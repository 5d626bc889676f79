//! Declarative scenario matrices: one struct, every `(workload, design,
//! config-point)` combination, and the one function that runs them.
//!
//! Every figure that simulates runs a [`ScenarioMatrix`]: the paper's
//! evaluation behind Figures 7-10 and 12 is
//! [`ScenarioMatrix::paper_evaluation`], Figure 11 is
//! [`ScenarioMatrix::cluster_sweep`], and `figures sweep`, the experiment
//! service and the perf suite's job list declare their own. A matrix names
//! the workloads, the designs, and the sweep axes — core counts, L2 slice
//! capacities, R-NUCA instruction-cluster sizes — and flattens itself into
//! jobs for the [`ExperimentEngine`]. Results come back
//! in a deterministic order (and are identical for every worker-pool size),
//! ready for tables or the JSON emitted by [`QuarantinedSweep::to_json`].
//!
//! [`ScenarioMatrix::run`] is the only way to execute a matrix, and every
//! run is supervised: a job whose every attempt fails is quarantined as a
//! [`JobFailure`] while the others complete. Its [`SweepOptions`] choose
//! everything else: the engine and trace arena, an optional journal
//! (created, or replayed with `resume`), the [`RetryPolicy`] (one attempt
//! by default; retries, backoff and a per-attempt deadline when set), an
//! optional warehouse sink, and the experiment service's stop flag and
//! progress callback. `figures`, the service and the tests all call it.
//! It is [`ScenarioMatrix::jobs`] plus one executor,
//! [`ScenarioMatrix::run_jobs`], which the perf suite calls directly to run
//! a filtered subset of its matrix. Each job's [`JobPhases`] come back with
//! the outcome.
//!
//! Every job is independent: [`ScenarioJob::run`] builds the job's
//! simulator, warms it in place over the job's [`TraceArena`] slab, and
//! measures the rest of the slab. Under
//! [`ExperimentConfig::asr_best_of`] an ASR job measures all six ASR
//! versions from that one warm-up and reports the fastest. A matrix shares
//! reference streams (one per unique `(workload, core count, seed)`,
//! materialized once each and retired from the arena after the last job
//! that replays it) but never warmed state across jobs, so a job's result
//! does not depend on which options ran it or on which other jobs ran
//! beside it: it depends only on what its [`JobKey`] hashes.
//!
//! # Example
//!
//! ```
//! use rnuca_sim::{ExperimentConfig, ExperimentEngine, LlcDesign, ScenarioMatrix, SweepOptions};
//! use rnuca_workloads::WorkloadSpec;
//!
//! let mut matrix = ScenarioMatrix::new(ExperimentConfig::smoke());
//! matrix.workloads = vec![WorkloadSpec::mix()];
//! matrix.designs = vec![LlcDesign::Shared, LlcDesign::rnuca_default()];
//! matrix.core_counts = vec![16, 32];
//! matrix.cluster_sizes = vec![2, 4];
//! // 1 workload x 2 core counts x (shared + R-NUCA at 2 cluster sizes).
//! assert_eq!(matrix.jobs().unwrap().len(), 2 * 3);
//! let outcome = matrix.run(&SweepOptions::new(ExperimentEngine::with_workers(2))).unwrap();
//! assert_eq!(outcome.sweep.completed(), 6);
//! ```

use crate::design::{AsrPolicy, LlcDesign};
use crate::engine::{ExperimentEngine, JobFailure};
use crate::experiment::ExperimentConfig;
use crate::journal::{
    JournalEntry, JournalError, JournalReplay, SweepJournal, JOB_COUNT_OFFSET, JOURNAL_VERSION,
};
use crate::simulator::{CmpSimulator, MeasuredRun};
use rnuca_types::config::ConfigPoint;
use rnuca_types::json::json_string;
use rnuca_types::retry::{DeadlineExceeded, RetryPolicy};
use rnuca_types::MemoryAccess;
use rnuca_types::{ConfigError, Fnv64};
use rnuca_warehouse::{AppendSummary, RowKind, RunRecord, Warehouse};
use rnuca_workloads::{
    SharingPattern, TraceArena, TraceKey, TraceSlice, TraceSource, WorkloadSpec,
};
use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Schema version of the sweep rows [`ScenarioMatrix::run`] appends to the
/// warehouse (bumped when their column content changes meaning, so old and
/// new rows stay distinguishable by the `schema` column). Version 2: an
/// ASR row under `asr_best_of` is the best of the six ASR versions.
pub const SWEEP_SCHEMA_VERSION: u64 = 2;

/// Version of the simulated model, mixed into every [`JobKey`].
///
/// Bump it with any change that moves a simulated result (a golden
/// `MeasuredRun` digest): every result stored under the old model then
/// stops matching, so journals and service spool entries are refused by
/// fingerprint and warehouse rows no longer deduplicate against new ones.
/// The `golden_results` suite pins it to the golden digests.
pub const MODEL_VERSION: u64 = 1;

/// The identity of one job's result: [`ScenarioJob::key`]'s FNV-1a hash
/// of everything the result is computed from. Journals and service
/// submission ids carry it through [`ScenarioMatrix::fingerprint`];
/// `sweep`, `failed` and perf `scenario` warehouse rows key on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobKey(pub u64);

/// A declarative sweep over workloads, designs, and configuration axes.
///
/// Empty axis vectors mean "use each workload's baseline value", so the
/// default matrix reduces to a plain design comparison. `cluster_sizes`
/// applies only to R-NUCA designs (other designs have no cluster parameter).
/// Sizes exceeding a point's core count are skipped for that point; sizes
/// that are not powers of two are skipped too, rather than panicking inside
/// a worker the way the rotational map's constructor would.
#[derive(Debug, Clone, PartialEq)]
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
#[derive(Debug, Clone, PartialEq)]
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
    /// When `cfg.asr_best_of` is set and the design is ASR, the job reports
    /// the paper's ASR result instead: every version of
    /// [`AsrPolicy::all_versions`] measures the one warmed simulator under
    /// its own policy — each version but the last on a clone, the last on
    /// the warmed original itself — and the run with the lowest total CPI
    /// wins (the first version in that order wins ties). All ASR versions
    /// warm identically, so each measures the bit-identical run a fresh
    /// warm-up of its version would (the `warm_reuse_fidelity` suite pins
    /// this).
    ///
    /// Replaying the arena slab is bit-identical to streaming the workload's
    /// generator, and the slab is generated at most once per unique
    /// `(workload, geometry, seed)` key no matter how many jobs replay it.
    /// This is the one per-job path every matrix run and the experiment
    /// service execute.
    ///
    /// With a `deadline`, the job checks the clock before each batch of
    /// references it replays and unwinds with a [`DeadlineExceeded`]
    /// payload once the deadline has passed. Stream generation and
    /// simulator construction run unchecked.
    ///
    /// The run comes back with its [`JobPhases`]: where the job's wall time
    /// went, measured here on the worker that ran it.
    pub fn run(
        &self,
        cfg: &ExperimentConfig,
        traces: &TraceArena,
        deadline: Option<Instant>,
    ) -> (MeasuredRun, JobPhases) {
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
        let mut sim = CmpSimulator::with_seed(self.design, &self.workload, cfg.seed);
        let start = Instant::now();
        let mut slice = Deadlined {
            slice: traces.slice(&self.workload, cfg.seed, cfg.total_refs()),
            deadline,
        };
        let streamed = Instant::now();
        sim.run_warmup(&mut slice, cfg.warmup_refs);
        let warmed = Instant::now();
        let run = self.measure(sim, &mut slice, cfg);
        let phases = JobPhases {
            stream: streamed - start,
            warm: warmed - streamed,
            measure: warmed.elapsed(),
        };
        (run, phases)
    }

    /// Measures the warmed simulator: once under the job's own design, or,
    /// for ASR under `cfg.asr_best_of`, once per ASR version, keeping the
    /// fastest.
    fn measure(
        &self,
        mut sim: CmpSimulator,
        slice: &mut Deadlined,
        cfg: &ExperimentConfig,
    ) -> MeasuredRun {
        if !(cfg.asr_best_of && matches!(self.design, LlcDesign::Asr { .. })) {
            return sim.run_measured(slice, cfg.measured_refs);
        }
        let versions = AsrPolicy::all_versions();
        let (&last, earlier) = versions.split_last().expect("ASR has six versions");
        let mut runs: Vec<MeasuredRun> = earlier
            .iter()
            .map(|&policy| {
                let mut version = sim.clone();
                version.set_asr_policy(policy);
                version.run_measured(&mut slice.clone(), cfg.measured_refs)
            })
            .collect();
        sim.set_asr_policy(last);
        runs.push(sim.run_measured(slice, cfg.measured_refs));
        runs.into_iter()
            .min_by(|a, b| a.total_cpi().total_cmp(&b.total_cpi()))
            .expect("ASR has six versions")
    }

    /// The job's [`JobKey`] under `cfg`: [`MODEL_VERSION`], the applied
    /// system configuration, the workload profile, the design and its
    /// parameter, the run lengths, the seed and `asr_best_of`.
    ///
    /// Every field is mixed one by one in an explicit encoding, never
    /// through `Debug` output, so the value is stable across compiler
    /// versions; exhaustive destructuring makes a new field a compile error
    /// here. The workload's `system` is the applied configuration, mixed in
    /// whole.
    pub fn key(&self, cfg: &ExperimentConfig) -> JobKey {
        let WorkloadSpec {
            name,
            system: _,
            busy_cpi,
            l2_refs_per_kilo_instr,
            instr_fraction,
            private_fraction,
            shared_fraction,
            instr_footprint_kb,
            private_footprint_kb_per_core,
            shared_footprint_kb,
            shared_write_fraction,
            private_write_fraction,
            sharing,
            hot_access_fraction,
            hot_footprint_fraction,
        } = &self.workload;
        let ExperimentConfig {
            warmup_refs,
            measured_refs,
            seed,
            asr_best_of,
        } = cfg;
        let mut h = Fnv64::new();
        h.write_u64(MODEL_VERSION);
        self.workload.system_config().write_fingerprint(&mut h);
        h.write_str(name);
        for v in [
            busy_cpi,
            l2_refs_per_kilo_instr,
            instr_fraction,
            private_fraction,
            shared_fraction,
            shared_write_fraction,
            private_write_fraction,
            hot_access_fraction,
            hot_footprint_fraction,
        ] {
            h.write_f64(*v);
        }
        for v in [
            instr_footprint_kb,
            private_footprint_kb_per_core,
            shared_footprint_kb,
        ] {
            h.write_u64(*v);
        }
        match sharing {
            SharingPattern::Universal => h.write_u64(0),
            SharingPattern::NearestNeighbor { degree } => h.write_u64(1).write_u64(*degree as u64),
            SharingPattern::ProducerConsumer => h.write_u64(2),
        };
        match self.design {
            LlcDesign::Private => h.write_u64(0),
            LlcDesign::Asr {
                policy: AsrPolicy::Static(p),
            } => h.write_u64(1).write_f64(p),
            LlcDesign::Asr {
                policy: AsrPolicy::Adaptive,
            } => h.write_u64(2),
            LlcDesign::Shared => h.write_u64(3),
            LlcDesign::RNuca { instr_cluster_size } => {
                h.write_u64(4).write_u64(instr_cluster_size as u64)
            }
            LlcDesign::Ideal => h.write_u64(5),
        };
        h.write_u64(*warmup_refs as u64)
            .write_u64(*measured_refs as u64)
            .write_u64(*seed)
            .write_bool(*asr_best_of);
        JobKey(h.finish())
    }

    /// The job's label, `workload/letter/design/Ncores` — the string
    /// `figures perf --filter=<substring>` matches against.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}/{}c",
            self.workload.name,
            self.design.letter(),
            self.design,
            self.workload.num_cores()
        )
    }
}

/// Where one [`ScenarioJob::run`] spent its wall time. Simulator
/// construction is in none of the three phases.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobPhases {
    /// Inside [`TraceArena::slice`]: generating the job's stream, or waiting
    /// on the worker that generates it. Near zero when the stream exists.
    pub stream: Duration,
    /// Warming the simulator over the stream's prefix.
    pub warm: Duration,
    /// Measuring the rest of the stream (every ASR version under
    /// [`ExperimentConfig::asr_best_of`]).
    pub measure: Duration,
}

/// A job's trace slice that checks the attempt's deadline before each batch
/// the simulator pulls from it.
#[derive(Clone)]
struct Deadlined {
    slice: TraceSlice,
    deadline: Option<Instant>,
}

impl TraceSource for Deadlined {
    fn fill_into(&mut self, n: usize, buf: &mut Vec<MemoryAccess>) {
        DeadlineExceeded::check(self.deadline);
        self.slice.fill_into(n, buf);
    }
}

/// The outcome of one scenario job.
#[derive(Debug, Clone, PartialEq)]
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
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSweep {
    /// The run lengths and seed the sweep used.
    pub cfg: ExperimentConfig,
    /// One result per job, ordered by job index.
    pub results: Vec<ScenarioResult>,
}

/// Why a sweep could not run to completion.
#[derive(Debug)]
pub enum SweepError {
    /// The matrix itself is invalid (same errors as [`ScenarioMatrix::jobs`]).
    Config(ConfigError),
    /// The journal could not be created, loaded, appended to, or matched to
    /// the matrix.
    Journal(JournalError),
    /// The stop flag was raised before every job had an outcome. The
    /// journal holds every job finished so far; nothing reached the store.
    Stopped,
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Config(e) => write!(f, "{e}"),
            SweepError::Journal(e) => write!(f, "{e}"),
            SweepError::Stopped => f.write_str("the sweep was stopped before every job ran"),
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepError::Config(e) => Some(e),
            SweepError::Journal(e) => Some(e),
            SweepError::Stopped => None,
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

/// A matrix run's per-job `Result`s: a job whose every attempt failed is
/// quarantined instead of aborting the sweep.
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

    /// The sweep's results in job order, or every quarantined failure when
    /// any job failed — for callers that need the whole matrix.
    ///
    /// # Errors
    ///
    /// The failures, in job order, when at least one job was quarantined.
    pub fn into_sweep(self) -> Result<ScenarioSweep, Vec<JobFailure>> {
        let failures: Vec<JobFailure> = self.failures().into_iter().cloned().collect();
        if !failures.is_empty() {
            return Err(failures);
        }
        Ok(ScenarioSweep {
            cfg: self.cfg,
            results: self.results.into_iter().filter_map(Result::ok).collect(),
        })
    }
}

/// How [`ScenarioMatrix::run`] executes: every knob of a sweep in one value.
///
/// Start from [`SweepOptions::new`] and set the fields a run needs with
/// struct-update syntax:
///
/// ```
/// use rnuca_sim::{ExperimentEngine, SweepOptions};
/// use rnuca_types::RetryPolicy;
///
/// let opts = SweepOptions {
///     policy: RetryPolicy::immediate(1),
///     ..SweepOptions::new(ExperimentEngine::with_workers(2))
/// };
/// assert!(opts.journal.is_none());
/// ```
pub struct SweepOptions<'a> {
    /// The worker pool jobs run on.
    pub engine: ExperimentEngine,
    /// Where jobs resolve their reference streams. A stream lives here from
    /// its first job's start to its last job's final outcome, so the arena
    /// is empty again when the run returns, on every exit path; callers
    /// pass their own to inspect deduplication through
    /// [`TraceArena::generations`].
    pub arena: Arc<TraceArena>,
    /// Journal every job's final outcome to this file as soon as it exists.
    pub journal: Option<&'a Path>,
    /// Load `journal` and replay its entries instead of creating it. The
    /// journal's header must match this matrix (fingerprint and job count).
    pub resume: bool,
    /// Every job runs under the policy's retries, seeded backoff and
    /// per-attempt deadline, and a job whose every attempt fails is
    /// quarantined (journaled as a typed failure entry that resume replays
    /// instead of re-running). Defaults to one attempt, no deadline.
    pub policy: RetryPolicy,
    /// Append one row per job here once every job has an outcome: a
    /// `kind=sweep` row per result, a `kind=failed` row per quarantined job.
    pub store: Option<&'a Warehouse>,
    /// Stop claiming jobs once this flag is raised (jobs in flight finish
    /// and are journaled); the run then ends with [`SweepError::Stopped`].
    pub stop: Option<&'a AtomicBool>,
    /// Called with `(done, total)` before the first job and after each job's
    /// outcome is journaled, where `total` counts the jobs this run must
    /// execute (those the journal did not replay).
    pub progress: Option<&'a (dyn Fn(usize, usize) + Sync)>,
}

impl SweepOptions<'_> {
    /// One attempt per job on `engine` with a fresh trace arena: no
    /// journal, no store, no stop flag, no progress reports.
    pub fn new(engine: ExperimentEngine) -> Self {
        SweepOptions {
            engine,
            arena: Arc::new(TraceArena::new()),
            journal: None,
            resume: false,
            policy: RetryPolicy::default(),
            store: None,
            stop: None,
            progress: None,
        }
    }
}

impl fmt::Debug for SweepOptions<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SweepOptions")
            .field("engine", &self.engine)
            .field("journal", &self.journal)
            .field("resume", &self.resume)
            .field("policy", &self.policy)
            .field("store", &self.store.is_some())
            .field("stop", &self.stop)
            .field("progress", &self.progress.is_some())
            .finish_non_exhaustive()
    }
}

/// What [`ScenarioMatrix::run`] produced.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Every job's result or quarantined failure, in job order.
    pub sweep: QuarantinedSweep,
    /// Each job's [`JobPhases`], in job order: `None` for a job the journal
    /// replayed and for a quarantined job.
    pub phases: Vec<Option<JobPhases>>,
    /// How many jobs the journal replayed and how many ran.
    pub resumed: ResumeSummary,
    /// The warehouse append, when [`SweepOptions::store`] was set.
    pub stored: Option<AppendSummary>,
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

    /// The paper's evaluation (Figures 7-10 and 12) as a matrix: the full
    /// workload suite under the P/A/S/R/I designs of
    /// [`LlcDesign::speedup_set`] at their baseline configurations, in that
    /// order per workload. Callers add sweep axes on top.
    pub fn paper_evaluation(cfg: ExperimentConfig) -> Self {
        ScenarioMatrix {
            workloads: WorkloadSpec::evaluation_suite(),
            designs: LlcDesign::speedup_set(),
            ..Self::new(cfg)
        }
    }

    /// Figure 11's instruction-cluster sweep: the full workload suite under
    /// R-NUCA at each of `sizes`, in order, per workload. Sizes above a
    /// workload's core count are skipped. Every size of one workload
    /// replays the same stream (the cluster size never changes it) but
    /// warms separately, since it changes where warm-up places instruction
    /// blocks.
    pub fn cluster_sweep(cfg: ExperimentConfig, sizes: &[usize]) -> Self {
        ScenarioMatrix {
            workloads: WorkloadSpec::evaluation_suite(),
            designs: vec![LlcDesign::rnuca_default()],
            cluster_sizes: sizes.to_vec(),
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

    /// Runs the matrix as `opts` describe. The result vector is ordered by
    /// job index and identical for every worker count, with or without a
    /// journal, retries or a store.
    ///
    /// With a journal, every job's final outcome is appended the moment it
    /// exists, so a crash loses at most the jobs in flight. On resume,
    /// journaled runs and failures are replayed instead of re-run; the
    /// journal carries the matrix [`fingerprint`](Self::fingerprint), which
    /// covers every job's [`JobKey`], so the resumed sweep — and any
    /// warehouse built from it — is bit-identical to an uninterrupted run.
    /// Store rows key on their job's [`JobKey`], so re-running a matrix
    /// into the same store adds zero rows and only genuinely new jobs grow
    /// it.
    ///
    /// Each unique stream the pending jobs replay is generated once, and
    /// the arena's handle on it is retired as soon as the last of those
    /// jobs has its final outcome (a retried attempt still finds it). Live
    /// trace memory is therefore bounded by the jobs in flight, and the
    /// run leaves none of its streams in the arena, however it ends: every
    /// attempt runs on the worker that claimed it, so none outlives the run.
    ///
    /// # Errors
    ///
    /// [`SweepError::Config`] for invalid matrices; [`SweepError::Journal`]
    /// when the journal cannot be created, loaded, or appended to, or does
    /// not belong to this matrix; [`SweepError::Stopped`] when the stop flag
    /// ended the run early. A job's panic never unwinds out of the run; it
    /// is quarantined.
    pub fn run(&self, opts: &SweepOptions<'_>) -> Result<SweepOutcome, SweepError> {
        self.run_jobs(&self.jobs()?, opts)
    }

    /// Runs `jobs` exactly as [`ScenarioMatrix::run`] runs the matrix's own
    /// job list, under this matrix's [`ExperimentConfig`]. `jobs` may be any
    /// list, such as a filtered subset of [`ScenarioMatrix::jobs`]; results,
    /// phases and failures are indexed by position in `jobs`.
    ///
    /// # Errors
    ///
    /// As for [`ScenarioMatrix::run`]. A journal records the matrix, so
    /// with [`SweepOptions::journal`] set, a `jobs` other than
    /// [`ScenarioMatrix::jobs`] is a [`SweepError::Config`].
    pub fn run_jobs(
        &self,
        jobs: &[ScenarioJob],
        opts: &SweepOptions<'_>,
    ) -> Result<SweepOutcome, SweepError> {
        if opts.journal.is_some() && jobs != self.jobs()? {
            return Err(SweepError::Config(ConfigError::new(
                "a journaled sweep runs its matrix's own job list",
            )));
        }
        let (journal, mut slots) = match opts.journal {
            Some(path) => {
                let (journal, entries) = self.open_journal(path, opts.resume, jobs)?;
                let slots = entries
                    .into_iter()
                    .map(|entry| match entry? {
                        JournalEntry::Run(run) => Some(Ok(run)),
                        JournalEntry::Failed(f) => Some(Err(f)),
                    })
                    .collect();
                (Some(journal), slots)
            }
            None => (None, vec![None; jobs.len()]),
        };
        let pending: Vec<usize> = (0..jobs.len()).filter(|&i| slots[i].is_none()).collect();
        let streams = StreamCountdown::new(&opts.arena, jobs, &pending, self.cfg.seed);

        // The one place a job's final outcome is recorded: its stream's
        // countdown, the journal, then the progress report. `k` indexes
        // `pending`.
        let done = AtomicUsize::new(0);
        let report = |n: usize| {
            if let Some(progress) = opts.progress {
                progress(n, pending.len());
            }
        };
        let accept = |k: usize, outcome: &Result<(MeasuredRun, JobPhases), JobFailure>| {
            streams.finished(k);
            if let Some(journal) = &journal {
                let job = pending[k];
                match outcome {
                    Ok((run, _)) => journal.append(job, run),
                    Err(f) => journal.append_failure(job, f),
                }
                .map_err(JournalError::Io)?;
            }
            report(done.fetch_add(1, Ordering::Relaxed) + 1);
            Ok::<(), JournalError>(())
        };
        report(0);
        let never = AtomicBool::new(false);
        let stop = opts.stop.unwrap_or(&never);
        let outcomes = opts.engine.run_supervised(
            &pending,
            self.cfg.seed,
            &opts.policy,
            stop,
            |_, &i, deadline| jobs[i].run(&self.cfg, &opts.arena, deadline),
            accept,
        )?;
        let mut phases = vec![None; jobs.len()];
        for (&i, outcome) in pending.iter().zip(outcomes) {
            slots[i] = outcome.map(|r| match r {
                Ok((run, job_phases)) => {
                    phases[i] = Some(job_phases);
                    Ok(run)
                }
                Err(f) => Err(JobFailure { job: i, ..f }),
            });
        }
        let results: Vec<Result<ScenarioResult, JobFailure>> = jobs
            .iter()
            .zip(slots)
            .map(|(job, slot)| Some(slot?.map(|run| result_from(job, run))))
            .collect::<Option<_>>()
            .ok_or(SweepError::Stopped)?;
        let stored = opts.store.map(|store| {
            let records: Vec<RunRecord> = jobs
                .iter()
                .zip(&results)
                .map(|(job, result)| record(&self.cfg, job, result))
                .collect();
            store.append_all(&records)
        });
        Ok(SweepOutcome {
            sweep: QuarantinedSweep {
                cfg: self.cfg,
                results,
            },
            phases,
            resumed: ResumeSummary {
                replayed: jobs.len() - pending.len(),
                ran: pending.len(),
            },
            stored,
        })
    }

    /// Creates the journal at `path`, or (with `resume`) loads it, checks
    /// that it records this matrix, and reopens it for appending. Returns
    /// the journal and its replayed entries, one slot per job.
    fn open_journal(
        &self,
        path: &Path,
        resume: bool,
        jobs: &[ScenarioJob],
    ) -> Result<(SweepJournal, Vec<Option<JournalEntry>>), JournalError> {
        let fingerprint = fingerprint(&self.cfg, jobs);
        let jobs = jobs.len();
        if !resume {
            let journal = SweepJournal::create(path, fingerprint, jobs as u64)?;
            return Ok((journal, vec![None; jobs]));
        }
        let replay = JournalReplay::load(path)?;
        if replay.fingerprint != fingerprint {
            return Err(JournalError::FingerprintMismatch {
                found: replay.fingerprint,
                expected: fingerprint,
            });
        }
        // The fingerprint hashes the job count, so a count that disagrees
        // under a matching fingerprint is a damaged header field (the
        // header carries no checksum).
        if replay.jobs as usize != jobs {
            return Err(JournalError::Corrupt {
                offset: JOB_COUNT_OFFSET,
                message: format!(
                    "header records {} jobs, but its fingerprint is of this {jobs}-job matrix",
                    replay.jobs
                ),
            });
        }
        let journal = SweepJournal::resume(path, &replay)?;
        let mut slots = vec![None; jobs];
        for (job, entry) in replay.entries {
            // `load` bounds every job by the header's count, now checked.
            slots[job as usize] = Some(entry);
        }
        Ok((journal, slots))
    }

    /// The identity of "the same sweep", for journal resume and service
    /// submission ids: an FNV-1a hash of [`JOURNAL_VERSION`],
    /// [`SWEEP_SCHEMA_VERSION`] and the [`JobKey`] of every job, in job
    /// order. Two matrices that flatten to jobs with the same keys share
    /// it, however they were written down; any change to what a job
    /// computes (a workload profile, an applied configuration value, a run
    /// length, the seed, [`MODEL_VERSION`]) changes it, so a stale journal
    /// is rejected rather than silently mixed into a different sweep.
    ///
    /// # Errors
    ///
    /// As for [`ScenarioMatrix::jobs`].
    pub fn fingerprint(&self) -> Result<u64, ConfigError> {
        Ok(fingerprint(&self.cfg, &self.jobs()?))
    }
}

/// [`ScenarioMatrix::fingerprint`] of a matrix under `cfg` that flattens to
/// `jobs`.
fn fingerprint(cfg: &ExperimentConfig, jobs: &[ScenarioJob]) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(u64::from(JOURNAL_VERSION))
        .write_u64(SWEEP_SCHEMA_VERSION)
        .write_u64(jobs.len() as u64);
    for job in jobs {
        h.write_u64(job.key(cfg).0);
    }
    h.finish()
}

/// The trace keys a run's pending jobs replay, each counting down the jobs
/// that have no final outcome yet. The last job of a key retires it from
/// the arena; dropping the countdown retires every key still held, so a
/// run that stops, fails or panics leaves no stream behind either.
struct StreamCountdown<'a> {
    arena: &'a TraceArena,
    /// Each pending job's stream, indexed like `pending`.
    key_of: Vec<TraceKey>,
    left: HashMap<TraceKey, AtomicUsize>,
}

impl<'a> StreamCountdown<'a> {
    fn new(arena: &'a TraceArena, jobs: &[ScenarioJob], pending: &[usize], seed: u64) -> Self {
        let key_of: Vec<TraceKey> = pending
            .iter()
            .map(|&i| TraceKey::new(&jobs[i].workload, seed))
            .collect();
        let mut left: HashMap<TraceKey, AtomicUsize> = HashMap::new();
        for key in &key_of {
            *left.entry(key.clone()).or_default().get_mut() += 1;
        }
        StreamCountdown {
            arena,
            key_of,
            left,
        }
    }

    /// Pending job `k` has its final outcome.
    fn finished(&self, k: usize) {
        let key = &self.key_of[k];
        if self.left[key].fetch_sub(1, Ordering::AcqRel) == 1 {
            self.arena.retire(key);
        }
    }
}

impl Drop for StreamCountdown<'_> {
    fn drop(&mut self) {
        for (key, left) in &self.left {
            if left.load(Ordering::Acquire) > 0 {
                self.arena.retire(key);
            }
        }
    }
}

/// Labels one job's measured run with its resolved configuration.
fn result_from(job: &ScenarioJob, run: MeasuredRun) -> ScenarioResult {
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

/// One job's outcome as a warehouse row: `kind=sweep` with the metric
/// columns for a result, `kind=failed` with the failure summary in the
/// `failure` column for a quarantined job.
///
/// Both kinds carry the same identity columns (workload, design, geometry,
/// seed, schema) and the job's [`JobKey`], so a failure is attributable to
/// a precise scenario. Failed rows key on
/// identity *and* the failure text: storing the same failure again
/// deduplicates, while the same scenario failing differently later adds a
/// new row.
fn record(
    cfg: &ExperimentConfig,
    job: &ScenarioJob,
    outcome: &Result<ScenarioResult, JobFailure>,
) -> RunRecord {
    let kind = match outcome {
        Ok(_) => RowKind::Sweep,
        Err(_) => RowKind::Failed,
    };
    let mut r = RunRecord::new(
        kind,
        cfg.seed as i64,
        SWEEP_SCHEMA_VERSION as i64,
        cfg.label(),
    );
    let system = job.workload.system_config();
    r.job_key = job.key(cfg).0;
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
    match outcome {
        Ok(result) => {
            let run = &result.run;
            let b = &run.cpi.breakdown;
            r.total_cpi = Some(run.total_cpi());
            r.cpi_busy = Some(b.busy);
            r.cpi_l1_to_l1 = Some(b.l1_to_l1);
            r.cpi_l2 = Some(b.l2);
            r.cpi_off_chip = Some(b.off_chip);
            r.cpi_other = Some(b.other);
            r.cpi_reclass = Some(b.reclassification);
            r.off_chip_rate = Some(run.off_chip_rate);
            r.l1_to_l1_rate = Some(run.l1_to_l1_rate);
            r.misclass_rate = Some(run.misclassification_rate);
            r.reclassifications = Some(run.reclassifications as i64);
        }
        Err(failure) => {
            r.failure = Some(format!(
                "{} after {} attempt{}: {}",
                failure.cause,
                failure.attempts,
                if failure.attempts == 1 { "" } else { "s" },
                failure.message
            ));
        }
    }
    r
}

impl ScenarioSweep {
    /// The results for one workload, in job order.
    pub fn workload(&self, name: &str) -> Vec<&ScenarioResult> {
        self.results.iter().filter(|r| r.workload == name).collect()
    }
}

/// One scenario result as a JSON object.
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
    /// Serialises the sweep as a JSON document: the config object, a
    /// `results` array with one slot per job — a result object, or `null`
    /// for a quarantined job — and a `failures` array listing every
    /// quarantined job with its index, attempt count, cause, and panic
    /// message, so failures appear in the output instead of silently
    /// vanishing.
    ///
    /// Emitted by hand (the workspace vendors no JSON library) with a
    /// deterministic field order and Rust's shortest-roundtrip float
    /// formatting, so equal sweeps produce byte-identical documents — the
    /// property the worker-count determinism test pins down.
    pub fn to_json(&self) -> String {
        let cfg = &self.cfg;
        let mut out = String::with_capacity(256 + self.results.len() * 256);
        out.push_str(&format!(
            "{{\n  \"config\": {{\"warmup_refs\": {}, \"measured_refs\": {}, \"seed\": {}, \
             \"asr_best_of\": {}}},\n  \"results\": [\n",
            cfg.warmup_refs, cfg.measured_refs, cfg.seed, cfg.asr_best_of
        ));
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    fn tiny_matrix() -> ScenarioMatrix {
        let mut cfg = ExperimentConfig::smoke();
        cfg.warmup_refs = 1_500;
        cfg.measured_refs = 1_000;
        let mut m = ScenarioMatrix::new(cfg);
        m.workloads = vec![WorkloadSpec::oltp_db2()];
        m.designs = vec![LlcDesign::Shared, LlcDesign::rnuca_default()];
        m
    }

    /// The matrix's per-job outcomes on `engine`, resolving streams
    /// through `arena`.
    fn outcomes_on(
        m: &ScenarioMatrix,
        engine: ExperimentEngine,
        arena: &Arc<TraceArena>,
    ) -> QuarantinedSweep {
        let opts = SweepOptions {
            arena: Arc::clone(arena),
            ..SweepOptions::new(engine)
        };
        m.run(&opts).expect("the matrix is valid").sweep
    }

    /// The matrix's sweep on `engine`, every job completed.
    fn sweep_on(
        m: &ScenarioMatrix,
        engine: ExperimentEngine,
        arena: &Arc<TraceArena>,
    ) -> ScenarioSweep {
        outcomes_on(m, engine, arena)
            .into_sweep()
            .expect("every job completes")
    }

    /// The matrix's sweep on a default-sized engine.
    fn sweep_of(m: &ScenarioMatrix) -> ScenarioSweep {
        sweep_on(m, ExperimentEngine::new(), &Arc::new(TraceArena::new()))
    }

    /// The matrix's sweep, appending its rows into `store`.
    fn sweep_into(
        m: &ScenarioMatrix,
        engine: ExperimentEngine,
        store: &Warehouse,
    ) -> (ScenarioSweep, AppendSummary) {
        let opts = SweepOptions {
            store: Some(store),
            ..SweepOptions::new(engine)
        };
        let outcome = m.run(&opts).expect("the matrix is valid");
        (
            outcome.sweep.into_sweep().expect("every job completes"),
            outcome.stored.expect("a store was given"),
        )
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
        assert!(m.run(&SweepOptions::new(ExperimentEngine::new())).is_err());
    }

    #[test]
    fn sweep_json_is_identical_across_worker_counts() {
        // Acceptance criterion: scenario output is byte-identical no matter
        // how many workers execute the matrix.
        let mut m = tiny_matrix();
        m.core_counts = vec![16, 32];
        m.cluster_sizes = vec![2, 4];
        let arena = Arc::new(TraceArena::new());
        let serial = outcomes_on(&m, ExperimentEngine::with_workers(1), &arena);
        let pooled = outcomes_on(&m, ExperimentEngine::with_workers(5), &arena);
        assert_eq!(serial, pooled);
        assert_eq!(serial.to_json(), pooled.to_json());
        assert_eq!(serial.completed(), 2 * 3);
    }

    #[test]
    fn sweep_jobs_group_onto_unique_streams() {
        // 1 workload x 2 core counts x 2 capacities x 2 designs = 8 jobs,
        // but only the core count changes the reference stream: the run
        // must generate exactly 2 slabs, once each, and hold neither after
        // it returns.
        let mut m = tiny_matrix();
        m.core_counts = vec![16, 32];
        m.slice_capacities_kb = vec![512, 1024];
        let arena = Arc::new(TraceArena::new());
        let sweep = sweep_on(&m, ExperimentEngine::with_workers(4), &arena);
        assert_eq!(sweep.results.len(), 2 * 2 * 2);
        assert_eq!(arena.generations(), 2, "one stream per core count");
        assert_eq!(arena.len(), 0, "every stream is retired");
    }

    /// Three workloads x (shared, R-NUCA): six jobs over three streams,
    /// each workload's two jobs adjacent in job order.
    fn three_stream_matrix() -> ScenarioMatrix {
        let mut m = tiny_matrix();
        m.workloads = vec![
            WorkloadSpec::oltp_db2(),
            WorkloadSpec::apache(),
            WorkloadSpec::em3d(),
        ];
        m
    }

    #[test]
    fn a_stream_is_retired_after_its_last_job() {
        // One worker runs the jobs in order, so at most one stream is live
        // at any time: each workload's stream is generated by its first job
        // and retired by its second.
        let m = three_stream_matrix();
        let arena = Arc::new(TraceArena::new());
        let live = Mutex::new(Vec::new());
        let progress = |_, _| live.lock().unwrap().push(arena.len());
        let opts = SweepOptions {
            arena: Arc::clone(&arena),
            progress: Some(&progress),
            ..SweepOptions::new(ExperimentEngine::with_workers(1))
        };
        let outcome = m.run(&opts).expect("the matrix is valid");
        assert_eq!(outcome.sweep.completed(), 6);
        let live = live.into_inner().unwrap();
        assert!(live.iter().all(|&n| n <= 1), "{live:?}");
        assert_eq!(
            live,
            [0, 1, 0, 1, 0, 1, 0],
            "before the first job, then after each"
        );
        assert_eq!(arena.len(), 0);
        assert_eq!(arena.generations(), 3, "each stream generated once");
    }

    #[test]
    fn a_stopped_run_and_its_resume_each_leave_the_arena_empty() {
        let m = three_stream_matrix();
        let path = std::env::temp_dir().join(format!(
            "rnuca-scenario-{}-retire.journal",
            std::process::id()
        ));
        std::fs::remove_file(&path).ok();

        // The stop flag goes up once three of the six jobs are journaled;
        // the one worker claims nothing after that. Job 2 was Apache's
        // first, so its stream was still held when the run stopped.
        let stop = AtomicBool::new(false);
        let raise = |done, _| {
            if done == 3 {
                stop.store(true, Ordering::Release);
            }
        };
        let arena = Arc::new(TraceArena::new());
        let stopped = m.run(&SweepOptions {
            arena: Arc::clone(&arena),
            journal: Some(&path),
            stop: Some(&stop),
            progress: Some(&raise),
            ..SweepOptions::new(ExperimentEngine::with_workers(1))
        });
        assert!(matches!(stopped, Err(SweepError::Stopped)), "{stopped:?}");
        assert_eq!(arena.len(), 0, "a stopped run holds none of its streams");
        assert_eq!(arena.generations(), 2, "jobs 0-2 replay DB2 and Apache");

        // The resume runs jobs 3-5 only: Apache's second job and em3d's two.
        let arena = Arc::new(TraceArena::new());
        let resumed = m
            .run(&SweepOptions {
                arena: Arc::clone(&arena),
                journal: Some(&path),
                resume: true,
                ..SweepOptions::new(ExperimentEngine::with_workers(2))
            })
            .expect("the journal matches the matrix");
        std::fs::remove_file(&path).ok();
        assert_eq!(
            resumed.resumed,
            ResumeSummary {
                replayed: 3,
                ran: 3
            }
        );
        assert_eq!(arena.len(), 0);
        assert_eq!(arena.generations(), 2, "replayed jobs need no stream");
        let ran: Vec<bool> = resumed.phases.iter().map(Option::is_some).collect();
        assert_eq!(
            ran,
            [false, false, false, true, true, true],
            "replayed jobs have no phases"
        );
        assert_eq!(resumed.sweep.into_sweep().unwrap(), sweep_of(&m));
    }

    #[test]
    fn a_job_subset_runs_alone_and_reports_its_phases() {
        // The subset is indexed by its own positions: em3d's two jobs only,
        // over em3d's stream alone, each with the phases it spent.
        let m = three_stream_matrix();
        let subset: Vec<ScenarioJob> = m.jobs().unwrap().split_off(4);
        let arena = Arc::new(TraceArena::new());
        let outcome = m
            .run_jobs(
                &subset,
                &SweepOptions {
                    arena: Arc::clone(&arena),
                    ..SweepOptions::new(ExperimentEngine::with_workers(2))
                },
            )
            .expect("no journal, no stop flag");
        let sweep = outcome.sweep.into_sweep().expect("every job completes");
        assert_eq!(sweep.results, sweep_of(&m).results[4..]);
        assert_eq!(arena.generations(), 1, "em3d's stream only");
        assert_eq!(arena.len(), 0);
        for phases in &outcome.phases {
            let phases = phases.expect("every job ran");
            assert!(phases.warm > Duration::ZERO && phases.measure > Duration::ZERO);
        }
        assert_eq!(
            outcome.resumed,
            ResumeSummary {
                replayed: 0,
                ran: 2
            }
        );

        // A journal records the whole matrix: a subset cannot be journaled,
        // and the refusal comes before the journal file is created.
        let path = std::env::temp_dir().join(format!(
            "rnuca-scenario-{}-subset.journal",
            std::process::id()
        ));
        std::fs::remove_file(&path).ok();
        let journaled = m.run_jobs(
            &subset,
            &SweepOptions {
                journal: Some(&path),
                ..SweepOptions::new(ExperimentEngine::with_workers(1))
            },
        );
        assert!(
            matches!(journaled, Err(SweepError::Config(_))),
            "{journaled:?}"
        );
        assert!(!path.exists());
    }

    #[test]
    fn a_retried_job_still_finds_its_stream() {
        // DB2's first job panics before replaying anything: once (it
        // recovers on its retry), then on every attempt (it is quarantined).
        // Only a final outcome counts down its stream, so DB2's second job
        // still finds the stream and no stream is generated twice. The
        // renamed workload gives the fail point a site no test running
        // alongside this one reaches.
        use rnuca_types::failpoint::{self, FailAction, FailSpec};
        let mut m = three_stream_matrix();
        m.workloads[0].name = "retried DB2".to_string();
        for (failing, quarantined) in [(1, 0), (u64::MAX, 1)] {
            let _armed = failpoint::arm(&[FailSpec::window(
                "sim::member::retried DB2::shared::16c",
                FailAction::Panic,
                1,
                failing,
            )]);
            let arena = Arc::new(TraceArena::new());
            let outcome = m
                .run(&SweepOptions {
                    arena: Arc::clone(&arena),
                    policy: RetryPolicy::immediate(2),
                    ..SweepOptions::new(ExperimentEngine::with_workers(1))
                })
                .expect("the matrix is valid");
            assert_eq!(outcome.sweep.failures().len(), quarantined);
            assert_eq!(outcome.sweep.completed(), 6 - quarantined);
            assert_eq!(
                outcome.phases[0].is_none(),
                quarantined == 1,
                "a quarantined job has no phases"
            );
            assert_eq!(arena.len(), 0);
            assert_eq!(arena.generations(), 3, "each stream generated once");
        }
    }

    #[test]
    fn a_deadline_overrun_is_quarantined_and_leaves_nothing_running() {
        // A zero deadline has passed by the first trace batch, so every
        // attempt unwinds there: each job fails twice with cause
        // `deadline`. Each stream is still generated once, and retired
        // once its last job's final outcome is in.
        use std::time::Duration;
        let m = three_stream_matrix();
        let arena = Arc::new(TraceArena::new());
        let outcome = m
            .run(&SweepOptions {
                arena: Arc::clone(&arena),
                policy: RetryPolicy::immediate(1).with_deadline(Duration::ZERO),
                ..SweepOptions::new(ExperimentEngine::with_workers(2))
            })
            .expect("the matrix is valid");
        let failures = outcome.sweep.failures();
        assert_eq!(failures.len(), 6, "every job overruns");
        for (job, failure) in failures.iter().enumerate() {
            assert_eq!(failure.job, job);
            assert_eq!(failure.cause.as_str(), "deadline");
            assert_eq!(failure.attempts, 2);
        }
        assert_eq!(arena.generations(), 3, "one generation per unique key");
        assert_eq!(arena.len(), 0);

        // No attempt outlived the run: nothing regenerates a stream later.
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(arena.len(), 0);
        assert_eq!(arena.generations(), 3);
    }

    #[test]
    fn sweep_jobs_group_onto_unique_checkpoints() {
        // Three ASR variants x two capacities = 6 jobs. Each job warms in
        // place, but the variants of one capacity point share a warm-up
        // class: measuring clones of one warmed simulator per capacity
        // point must reproduce every job's result. Capacities share a
        // stream (capacity is cost-only), so the run generates one and
        // retires it.
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
        let traces = Arc::new(TraceArena::new());
        let sweep = sweep_on(&m, ExperimentEngine::with_workers(4), &traces);
        assert_eq!(sweep.results.len(), 3 * 2);
        assert_eq!(traces.generations(), 1, "capacity never changes the stream");
        assert_eq!(traces.len(), 0, "the stream is retired");

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
        let sweep = sweep_of(&m);
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
        let json_of = |m: &ScenarioMatrix| {
            outcomes_on(m, ExperimentEngine::new(), &Arc::new(TraceArena::new())).to_json()
        };
        let mut m = tiny_matrix();
        m.designs = vec![LlcDesign::rnuca_default()];
        let json = json_of(&m);
        assert!(json.starts_with("{\n  \"config\""));
        assert!(json.contains("\"workload\": \"OLTP DB2\""));
        assert!(json.contains("\"letter\": \"R\""));
        assert!(json.contains("\"cluster\": 4"));
        assert!(json.contains("\"total_cpi\": "));
        assert!(json.ends_with("  ],\n  \"failures\": [\n  ]\n}\n"));
        // Shared designs carry a null cluster.
        let mut m2 = tiny_matrix();
        m2.designs = vec![LlcDesign::Shared];
        assert!(json_of(&m2).contains("\"cluster\": null"));
    }

    #[test]
    fn rerunning_a_sweep_into_the_store_adds_zero_rows() {
        let mut m = tiny_matrix();
        m.core_counts = vec![16, 32];
        let engine = ExperimentEngine::with_workers(2);
        let store = Warehouse::new();

        let (sweep, first) = sweep_into(&m, engine, &store);
        assert_eq!(first.added, sweep.results.len());
        assert_eq!(first.deduplicated, 0);
        assert_eq!(store.len(), sweep.results.len());

        // The same matrix again: fully deduplicated, store unchanged.
        let bytes = store.to_bytes();
        let (_, second) = sweep_into(&m, engine, &store);
        assert_eq!(second.added, 0);
        assert_eq!(second.deduplicated, sweep.results.len());
        assert_eq!(
            store.to_bytes(),
            bytes,
            "a repeated sweep must be byte-identical"
        );

        // A new axis point is incremental: only the new rows append.
        m.core_counts = vec![16, 32, 64];
        let (bigger, third) = sweep_into(&m, engine, &store);
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
    fn a_sweep_that_computes_something_else_appends_its_rows_again() {
        // Each re-run differs from the first only in one value its results
        // depend on, and all three carry the same `custom` config label.
        let mut m = tiny_matrix();
        m.designs.push(LlcDesign::Asr {
            policy: AsrPolicy::Adaptive,
        });
        let jobs = m.jobs().expect("the matrix is valid").len();
        let engine = ExperimentEngine::with_workers(2);
        let store = Warehouse::new();
        assert_eq!(sweep_into(&m, engine, &store).1.added, jobs);

        let mut best_of = m.clone();
        best_of.cfg.asr_best_of = true;
        assert_eq!(best_of.cfg.label(), "custom");
        let (_, appended) = sweep_into(&best_of, engine, &store);
        assert_eq!(appended.added, jobs, "only asr_best_of differs");

        let mut longer = m.clone();
        longer.cfg.warmup_refs += 100;
        assert_eq!(longer.cfg.label(), "custom");
        let (_, appended) = sweep_into(&longer, engine, &store);
        assert_eq!(appended.added, jobs, "only the warm-up length differs");
        assert_eq!(store.len(), 3 * jobs);
    }

    #[test]
    fn sweep_records_mirror_the_json_fields() {
        let m = tiny_matrix();
        let store = Warehouse::new();
        let (sweep, _) = sweep_into(&m, ExperimentEngine::with_workers(1), &store);
        let out = store
            .query("kind=sweep sort design show design, cluster, total_cpi, off_chip_rate, config, schema, kind")
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
            assert_eq!(row[6].to_string(), "sweep");
        }
        // The R-NUCA row records its cluster size; shared rows are null.
        let clusters: Vec<String> = out.rows.iter().map(|r| r[1].to_string()).collect();
        assert_eq!(clusters, ["4", "-"]);
    }

    #[test]
    fn the_paper_evaluation_fingerprint_is_pinned() {
        // Journals and service submission ids key on this value: a change
        // here orphans every journal and spool entry written before it, so
        // it must only move on purpose (a journal, schema or model version
        // bump, or a change to what a job computes). Re-pinned when the
        // fingerprint became a hash of the jobs' keys.
        assert_eq!(
            ScenarioMatrix::paper_evaluation(ExperimentConfig::smoke())
                .fingerprint()
                .unwrap(),
            0xb493_1ac2_3073_f764
        );
    }

    #[test]
    fn matrices_with_identical_job_lists_share_a_fingerprint() {
        let mut by_preset = ScenarioMatrix::new(ExperimentConfig::smoke());
        by_preset.workloads = vec![WorkloadSpec::oltp_db2()];
        by_preset.designs = LlcDesign::speedup_set();
        // The preset's own core count, named explicitly: the jobs carry a
        // different `point` label but apply the same configuration.
        let explicit = ScenarioMatrix {
            core_counts: vec![16],
            ..by_preset.clone()
        };
        assert_ne!(by_preset, explicit);
        let keys = |m: &ScenarioMatrix| -> Vec<JobKey> {
            m.jobs()
                .unwrap()
                .iter()
                .map(|job| job.key(&m.cfg))
                .collect()
        };
        assert_eq!(keys(&by_preset), keys(&explicit));
        assert_eq!(
            by_preset.fingerprint().unwrap(),
            explicit.fingerprint().unwrap()
        );
    }

    #[test]
    fn changing_any_single_field_changes_the_fingerprint() {
        use rnuca_types::config::SystemConfig;
        use rnuca_workloads::SharingPattern;
        type Mutation = fn(&mut ScenarioMatrix);
        let mutations: Vec<(&str, Mutation)> = vec![
            ("workloads", |m| m.workloads.push(WorkloadSpec::mix())),
            ("designs", |m| m.designs.push(LlcDesign::Ideal)),
            ("design parameter", |m| {
                m.designs[3] = LlcDesign::RNuca {
                    instr_cluster_size: 8,
                }
            }),
            ("core_counts", |m| m.core_counts.push(32)),
            ("slice_capacities_kb", |m| m.slice_capacities_kb.push(512)),
            ("cluster_sizes", |m| m.cluster_sizes.push(2)),
            ("warmup_refs", |m| m.cfg.warmup_refs += 1),
            ("measured_refs", |m| m.cfg.measured_refs += 1),
            ("seed", |m| m.cfg.seed += 1),
            ("asr_best_of", |m| m.cfg.asr_best_of = !m.cfg.asr_best_of),
            ("name", |m| m.workloads[0].name.push('!')),
            ("system", |m| {
                m.workloads[0].system = SystemConfig::desktop_8()
            }),
            ("busy_cpi", |m| m.workloads[0].busy_cpi += 0.5),
            ("l2_refs_per_kilo_instr", |m| {
                m.workloads[0].l2_refs_per_kilo_instr += 0.5
            }),
            ("instr_fraction", |m| m.workloads[0].instr_fraction += 0.01),
            ("private_fraction", |m| {
                m.workloads[0].private_fraction += 0.01
            }),
            ("shared_fraction", |m| {
                m.workloads[0].shared_fraction += 0.01
            }),
            ("instr_footprint_kb", |m| {
                m.workloads[0].instr_footprint_kb += 1
            }),
            ("private_footprint_kb_per_core", |m| {
                m.workloads[0].private_footprint_kb_per_core += 1
            }),
            ("shared_footprint_kb", |m| {
                m.workloads[0].shared_footprint_kb += 1
            }),
            ("shared_write_fraction", |m| {
                m.workloads[0].shared_write_fraction += 0.01
            }),
            ("private_write_fraction", |m| {
                m.workloads[0].private_write_fraction += 0.01
            }),
            ("sharing", |m| {
                m.workloads[0].sharing = SharingPattern::NearestNeighbor { degree: 3 }
            }),
            ("hot_access_fraction", |m| {
                m.workloads[0].hot_access_fraction += 0.01
            }),
            ("hot_footprint_fraction", |m| {
                m.workloads[0].hot_footprint_fraction += 0.01
            }),
            ("system field", |m| {
                m.workloads[0].system.l2_slice.victim_entries += 1
            }),
        ];
        let base = ScenarioMatrix::paper_evaluation(ExperimentConfig::smoke());
        let mut seen = vec![("unchanged", base.fingerprint().unwrap())];
        for (field, mutate) in mutations {
            let mut m = base.clone();
            mutate(&mut m);
            let fingerprint = m.fingerprint().unwrap();
            if let Some((other, _)) = seen.iter().find(|(_, f)| *f == fingerprint) {
                panic!("changing {field} gives the same fingerprint as {other}");
            }
            seen.push((field, fingerprint));
        }
    }
}
