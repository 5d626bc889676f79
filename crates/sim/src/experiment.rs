//! The experiment configuration and the streaming reference run.
//!
//! [`ExperimentConfig`] holds the run lengths and seed every job of a
//! [`ScenarioMatrix`](crate::ScenarioMatrix) shares, including whether ASR
//! reports the best of its six versions (the paper's methodology). The
//! paper's evaluation behind Figures 7-10 and 12 is the
//! [`ScenarioMatrix::paper_evaluation`](crate::ScenarioMatrix::paper_evaluation)
//! preset, and Figure 11's cluster-size sweep is
//! [`ScenarioMatrix::cluster_sweep`](crate::ScenarioMatrix::cluster_sweep);
//! both run through [`ScenarioMatrix::run`](crate::ScenarioMatrix::run).
//!
//! [`run_single`] is the one path that bypasses the matrix: it streams a
//! workload's generator into a fresh simulator, with no trace arena and no
//! shared warm-up. Tests compare every matrix result against it.

use crate::design::LlcDesign;
use crate::simulator::{CmpSimulator, MeasuredRun};
use rnuca_workloads::{TraceGenerator, WorkloadSpec};

/// Parameters of one evaluation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentConfig {
    /// References used to warm caches, TLBs, and page tables before measuring.
    pub warmup_refs: usize,
    /// References measured.
    pub measured_refs: usize,
    /// Trace seed (same seed = same reference stream for every design).
    pub seed: u64,
    /// If set, every ASR job reports the best of its six versions (the
    /// paper's methodology; see [`ScenarioJob::run`](crate::ScenarioJob::run));
    /// otherwise an ASR job runs its own policy alone.
    pub asr_best_of: bool,
}

impl ExperimentConfig {
    /// References each job drives in total — the slab length the trace
    /// arena materializes per unique stream.
    pub fn total_refs(&self) -> usize {
        self.warmup_refs + self.measured_refs
    }

    /// The configuration used by the figure harness: long enough runs for
    /// stable occupancy in every slice.
    pub fn full() -> Self {
        ExperimentConfig {
            warmup_refs: 600_000,
            measured_refs: 300_000,
            seed: 42,
            asr_best_of: true,
        }
    }

    /// A much smaller configuration for unit tests and `--quick` runs.
    pub fn quick() -> Self {
        ExperimentConfig {
            warmup_refs: 30_000,
            measured_refs: 20_000,
            seed: 42,
            asr_best_of: false,
        }
    }

    /// A tiny configuration for CI smoke runs: just enough references to
    /// exercise every code path of the harness without meaningful occupancy.
    pub fn smoke() -> Self {
        ExperimentConfig {
            warmup_refs: 2_000,
            measured_refs: 1_500,
            seed: 42,
            asr_best_of: false,
        }
    }

    /// The preset this configuration's reference counts match: `"full"`,
    /// `"quick"`, `"smoke"`, or `"custom"` for anything else.
    ///
    /// The label keys results in the warehouse (`config=full` selects
    /// full-length runs). It follows the run lengths, not the constructor:
    /// a preset with its lengths changed is `custom`.
    pub fn label(&self) -> &'static str {
        let shape = (self.warmup_refs, self.measured_refs);
        if shape == (Self::full().warmup_refs, Self::full().measured_refs) {
            "full"
        } else if shape == (Self::quick().warmup_refs, Self::quick().measured_refs) {
            "quick"
        } else if shape == (Self::smoke().warmup_refs, Self::smoke().measured_refs) {
            "smoke"
        } else {
            "custom"
        }
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig::full()
    }
}

/// Runs one workload under one design by streaming its trace generator: no
/// trace arena, no shared warm-up. This is the reference the arena and job
/// paths are tested against.
///
/// The experiment seed drives both the trace generator and the simulator's
/// internal RNG, so ASR's probabilistic replication varies with the seed
/// instead of being pinned to a hardcoded one.
pub fn run_single(spec: &WorkloadSpec, design: LlcDesign, cfg: &ExperimentConfig) -> MeasuredRun {
    let mut gen = TraceGenerator::new(spec, cfg.seed);
    let mut sim = CmpSimulator::with_seed(design, spec, cfg.seed);
    sim.run_warmup(&mut gen, cfg.warmup_refs);
    sim.run_measured(&mut gen, cfg.measured_refs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::AsrPolicy;
    use crate::engine::ExperimentEngine;
    use crate::scenario::{ScenarioJob, ScenarioMatrix, ScenarioSweep, SweepOptions};
    use rnuca_types::config::ConfigPoint;
    use rnuca_workloads::TraceArena;
    use std::sync::Arc;

    /// An ASR job for `spec` at its baseline configuration.
    fn asr_job(spec: &WorkloadSpec) -> ScenarioJob {
        ScenarioJob {
            workload: spec.clone(),
            design: LlcDesign::Asr {
                policy: AsrPolicy::Adaptive,
            },
            point: ConfigPoint::baseline(),
        }
    }

    /// The paper's reported ASR result on the streaming path: the lowest
    /// total CPI of six fresh runs, one per version (first wins ties).
    fn best_of_six_streamed(spec: &WorkloadSpec, cfg: &ExperimentConfig) -> MeasuredRun {
        AsrPolicy::all_versions()
            .into_iter()
            .map(|policy| run_single(spec, LlcDesign::Asr { policy }, cfg))
            .min_by(|a, b| a.total_cpi().total_cmp(&b.total_cpi()))
            .expect("ASR has six versions")
    }

    /// What a matrix job must report: its own streamed run, or the best of
    /// six for ASR under `asr_best_of`.
    fn streamed(job: &ScenarioJob, cfg: &ExperimentConfig) -> MeasuredRun {
        match job.design {
            LlcDesign::Asr { .. } if cfg.asr_best_of => best_of_six_streamed(&job.workload, cfg),
            design => run_single(&job.workload, design, cfg),
        }
    }

    /// The paper's evaluation on `workers` workers, resolving streams
    /// through `arena`.
    fn evaluation(
        cfg: &ExperimentConfig,
        workers: usize,
        arena: &Arc<TraceArena>,
    ) -> ScenarioSweep {
        let opts = SweepOptions {
            arena: Arc::clone(arena),
            ..SweepOptions::new(ExperimentEngine::with_workers(workers))
        };
        ScenarioMatrix::paper_evaluation(*cfg)
            .run(&opts)
            .expect("the paper evaluation's axes are valid")
            .sweep
            .into_sweep()
            .expect("every job completes")
    }

    #[test]
    fn asr_best_of_picks_the_fastest_version() {
        let spec = WorkloadSpec::oltp_db2();
        let mut cfg = ExperimentConfig::quick();
        cfg.asr_best_of = true;
        cfg.warmup_refs = 10_000;
        cfg.measured_refs = 8_000;
        let (best, _) = asr_job(&spec).run(&cfg, &TraceArena::new(), None);
        // The best-of result can be no slower than the adaptive version alone.
        let adaptive = run_single(&spec, asr_job(&spec).design, &cfg);
        assert!(best.total_cpi() <= adaptive.total_cpi() + 1e-9);
        // Run lengths, not `asr_best_of` or the constructor, pick the
        // warehouse label: this shortened quick run is `custom`.
        for (preset, label) in [
            (ExperimentConfig::full(), "full"),
            (ExperimentConfig::quick(), "quick"),
            (ExperimentConfig::smoke(), "smoke"),
            (cfg, "custom"),
        ] {
            assert_eq!(preset.label(), label);
        }
    }

    #[test]
    fn asr_best_of_is_honoured_by_a_matrix_run() {
        // A matrix of ASR jobs under `asr_best_of` reports the best of the
        // six versions, not the adaptive version alone. On this workload and
        // seed adaptive is not the best version, so the two differ.
        let mut cfg = ExperimentConfig::smoke();
        cfg.asr_best_of = true;
        cfg.seed = 7;
        let spec = WorkloadSpec::oltp_oracle();
        let best = best_of_six_streamed(&spec, &cfg);
        let adaptive = run_single(&spec, asr_job(&spec).design, &cfg);
        assert!(
            best.total_cpi() < adaptive.total_cpi(),
            "adaptive must not be the best version here"
        );
        let mut matrix = ScenarioMatrix::new(cfg);
        matrix.workloads = vec![spec];
        matrix.designs = vec![asr_job(&matrix.workloads[0]).design];
        let sweep = matrix
            .run(&SweepOptions::new(ExperimentEngine::with_workers(1)))
            .expect("the matrix is valid")
            .sweep
            .into_sweep()
            .expect("every job completes");
        assert_eq!(sweep.results.len(), 1);
        assert_eq!(sweep.results[0].run, best);
    }

    #[test]
    fn scenario_job_run_matches_the_streaming_path() {
        let cfg = ExperimentConfig::quick();
        let arena = TraceArena::new();
        for design in LlcDesign::speedup_set() {
            let spec = WorkloadSpec::oltp_db2();
            let job = ScenarioJob {
                workload: spec.clone(),
                design,
                point: ConfigPoint::baseline(),
            };
            assert_eq!(
                job.run(&cfg, &arena, None).0,
                run_single(&spec, design, &cfg),
                "{design} must be replay-invariant"
            );
        }
        assert_eq!(arena.len(), 1, "one workload, one stream");
    }

    #[test]
    fn asr_best_of_six_shares_one_arena_slab() {
        // All six ASR versions of one (workload, config-point) resolve to
        // the same slab: the stream is generated exactly once, not six times.
        let spec = WorkloadSpec::oltp_db2();
        let mut cfg = ExperimentConfig::smoke();
        cfg.asr_best_of = true;
        let arena = TraceArena::new();
        asr_job(&spec).run(&cfg, &arena, None);
        assert_eq!(arena.len(), 1, "six versions, one unique key");
        assert_eq!(arena.generations(), 1, "the stream was generated once");
    }

    #[test]
    fn full_evaluation_holds_one_arena_entry_per_unique_key() {
        // The paper's evaluation (ASR best-of-six included) holds one arena
        // entry per unique (workload, geometry, seed) key — the eight suite
        // workloads — while that key's jobs run: each stream is generated
        // exactly once despite five design jobs per workload, and retired
        // after its last job, so none is held once the run returns.
        let mut cfg = ExperimentConfig::smoke();
        cfg.asr_best_of = true;
        let arena = Arc::new(TraceArena::new());
        let sweep = evaluation(&cfg, 4, &arena);
        assert_eq!(sweep.results.len(), 8 * 5);
        assert_eq!(arena.generations(), WorkloadSpec::evaluation_suite().len());
        assert_eq!(arena.len(), 0);
    }

    #[test]
    fn forked_run_matches_the_streaming_path_for_every_design() {
        // Forking warmed state is a `clone()` of the warmed simulator: for
        // every design, measuring the clone equals warm + measure on the
        // streaming path, bit for bit, and leaves the original untouched.
        let cfg = ExperimentConfig::quick();
        let traces = TraceArena::new();
        let spec = WorkloadSpec::oltp_db2();
        for design in LlcDesign::speedup_set() {
            let streamed = run_single(&spec, design, &cfg);
            let mut slice = traces.slice(&spec, cfg.seed, cfg.total_refs());
            let mut warmed = CmpSimulator::with_seed(design, &spec, cfg.seed);
            warmed.run_warmup(&mut slice, cfg.warmup_refs);
            let forked = warmed
                .clone()
                .run_measured(&mut slice.clone(), cfg.measured_refs);
            assert_eq!(
                forked, streamed,
                "{design} fork must match streamed warm-up"
            );
            assert_eq!(
                warmed.run_measured(&mut slice, cfg.measured_refs),
                streamed,
                "{design} fork must not disturb the warmed original"
            );
        }
        assert_eq!(traces.len(), 1, "one workload, one stream");
    }

    #[test]
    fn asr_best_of_six_forks_from_one_snapshot() {
        // The six ASR versions share one warm-up: the job warms one
        // simulator and every version measures a clone of it. That must
        // pick exactly the run warming every version separately picks.
        let spec = WorkloadSpec::oltp_db2();
        let mut cfg = ExperimentConfig::smoke();
        cfg.asr_best_of = true;
        let traces = TraceArena::new();
        let (best, _) = asr_job(&spec).run(&cfg, &traces, None);
        assert_eq!(best, best_of_six_streamed(&spec, &cfg));
        assert_eq!(traces.generations(), 1, "the stream was generated once");
    }

    #[test]
    fn full_evaluation_warms_one_checkpoint_per_class() {
        // The paper's evaluation (ASR best-of-six included) warms five
        // classes per workload: P, S, R and I each warm in place, and the
        // six ASR versions share one warm-up. Every reported result must
        // equal a fresh warm-up of its own design.
        let mut cfg = ExperimentConfig::smoke();
        cfg.asr_best_of = true;
        let traces = Arc::new(TraceArena::new());
        let sweep = evaluation(&cfg, 4, &traces);
        let jobs = ScenarioMatrix::paper_evaluation(cfg).jobs().unwrap();
        assert_eq!(sweep.results.len(), jobs.len());
        for (job, result) in jobs.iter().zip(&sweep.results) {
            assert_eq!(
                result.run,
                streamed(job, &cfg),
                "{} / {}",
                result.workload,
                result.design
            );
        }
        assert_eq!(traces.generations(), WorkloadSpec::evaluation_suite().len());
        assert_eq!(traces.len(), 0);
    }

    #[test]
    fn engine_evaluation_matches_the_per_workload_path() {
        // The paper's evaluation, flattened into matrix jobs, reports
        // exactly what one streamed run per job reports, with A the best of
        // six streamed versions.
        let mut cfg = ExperimentConfig::quick();
        cfg.asr_best_of = true;
        let sweep = evaluation(&cfg, 4, &Arc::new(TraceArena::new()));
        let jobs = ScenarioMatrix::paper_evaluation(cfg).jobs().unwrap();
        let designs = LlcDesign::speedup_set();
        assert_eq!(sweep.results.len(), 8 * designs.len());
        for (job, result) in jobs.iter().zip(&sweep.results) {
            assert_eq!(result.workload, job.workload.name);
            assert_eq!(result.design, job.design);
            assert_eq!(result.run, streamed(job, &cfg), "{}", job.label());
        }
        for (i, result) in sweep.results.iter().enumerate() {
            assert_eq!(result.design, designs[i % designs.len()], "P/A/S/R/I order");
        }
    }

    #[test]
    fn evaluation_is_identical_across_worker_counts() {
        let mut cfg = ExperimentConfig::quick();
        cfg.warmup_refs = 5_000;
        cfg.measured_refs = 4_000;
        cfg.asr_best_of = true; // exercise the best-of-six jobs
        let serial = evaluation(&cfg, 1, &Arc::new(TraceArena::new()));
        let pooled = evaluation(&cfg, 8, &Arc::new(TraceArena::new()));
        assert_eq!(serial, pooled);
    }

    /// Figure 11's cluster sweep on `workers` workers.
    fn cluster_sweep(cfg: &ExperimentConfig, sizes: &[usize], workers: usize) -> ScenarioSweep {
        ScenarioMatrix::cluster_sweep(*cfg, sizes)
            .run(&SweepOptions::new(ExperimentEngine::with_workers(workers)))
            .expect("the cluster sweep's axes are valid")
            .sweep
            .into_sweep()
            .expect("every job completes")
    }
    #[test]
    fn cluster_sweep_is_identical_across_worker_counts() {
        let mut cfg = ExperimentConfig::quick();
        cfg.warmup_refs = 3_000;
        cfg.measured_refs = 2_000;
        let serial = cluster_sweep(&cfg, &[1, 4], 1);
        let pooled = cluster_sweep(&cfg, &[1, 4], 6);
        assert_eq!(serial, pooled);
    }

    #[test]
    fn cluster_sweep_covers_requested_sizes() {
        let mut cfg = ExperimentConfig::quick();
        cfg.warmup_refs = 5_000;
        cfg.measured_refs = 5_000;
        let sweep = cluster_sweep(&cfg, &[1, 4], 2);
        let suite = WorkloadSpec::evaluation_suite();
        assert_eq!(sweep.results.len(), 2 * suite.len());
        for spec in &suite {
            let rows = sweep.workload(&spec.name);
            assert_eq!(rows.len(), 2, "both sizes apply to every workload");
            assert_eq!(rows[0].point.instr_cluster_size, Some(1));
            assert_eq!(rows[1].point.instr_cluster_size, Some(4));
        }
    }
}
