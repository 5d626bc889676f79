//! The experiment runner: the paper's evaluation loop.
//!
//! [`DesignComparison::run_evaluation`] runs every workload of the evaluation
//! suite under every design (P, A, S, R, I) with warmed caches, producing the
//! data behind Figures 7-10 and 12. [`DesignComparison::run_cluster_sweep`]
//! sweeps the R-NUCA instruction-cluster size for Figure 11.
//!
//! Both are thin wrappers over the [`ExperimentEngine`]: every
//! `(workload, design, config-point)` combination becomes one job in a flat
//! list executed on a bounded worker pool, and the assembled results are
//! identical for every worker count.
//!
//! Jobs resolve their reference streams through a shared [`TraceArena`]:
//! the first job to need a `(workload, geometry, seed)` stream generates it
//! and every other job replays the memoized slab. Replay is bit-identical
//! to streaming generation (the golden-result tests pin this), so the arena
//! changes wall-clock time only.
//!
//! Every job warms in place: it builds its simulator, runs the warm-up
//! prefix of its slab, and measures the rest. Warmed state is reused in one
//! place only, the ASR best-of-six selection, because that is the only
//! warm-up with several consumers: all six ASR versions warm identically,
//! so [`DesignComparison::run_asr_with_arena`] warms one simulator, clones
//! it per version, switches each clone's policy with
//! [`CmpSimulator::set_asr_policy`], and measures the clones. A clone
//! measures the bit-identical run a fresh warm-up of its version would (the
//! `warm_reuse_fidelity` suite pins this).

use crate::design::{AsrPolicy, LlcDesign};
use crate::engine::ExperimentEngine;
use crate::simulator::{CmpSimulator, MeasuredRun};
use rnuca_workloads::{TraceArena, TraceGenerator, WorkloadSpec};
use serde::{Deserialize, Serialize};

/// Parameters of one evaluation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// References used to warm caches, TLBs, and page tables before measuring.
    pub warmup_refs: usize,
    /// References measured.
    pub measured_refs: usize,
    /// Trace seed (same seed = same reference stream for every design).
    pub seed: u64,
    /// If set, the ASR design reports the best of its six versions per
    /// workload (the paper's methodology); otherwise only the adaptive
    /// version runs.
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

    /// A much smaller configuration for unit tests and Criterion benches.
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
    /// The label keys results in the warehouse (the perf gate queries
    /// `config=full` rows only) and is inferred the same way when a
    /// report JSON — which records the reference counts but not the
    /// preset — is ingested back.
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

/// The result of one `(workload, design)` simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Design simulated.
    pub design: LlcDesign,
    /// Measured CPI detail and rates.
    pub run: MeasuredRun,
}

impl RunResult {
    /// Total CPI of the run.
    pub fn total_cpi(&self) -> f64 {
        self.run.total_cpi()
    }

    /// Speedup of this design relative to a baseline run of the same workload
    /// (CPI ratio; >1 means faster than the baseline).
    pub fn speedup_over(&self, baseline: &RunResult) -> f64 {
        baseline.total_cpi() / self.total_cpi()
    }
}

/// All designs' results for one workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadResults {
    /// Workload name.
    pub workload: String,
    /// Whether the paper buckets this workload as private-averse
    /// (the private design is the slower baseline) or shared-averse.
    pub private_averse: bool,
    /// One result per design, in P/A/S/R(/I) order.
    pub results: Vec<RunResult>,
}

impl WorkloadResults {
    /// The result for a given design letter ("P", "A", "S", "R", "I"), if present.
    pub fn by_letter(&self, letter: &str) -> Option<&RunResult> {
        self.results.iter().find(|r| r.design.letter() == letter)
    }

    /// The private-design baseline result.
    ///
    /// # Panics
    ///
    /// Panics if the private design was not part of the run.
    pub fn private_baseline(&self) -> &RunResult {
        self.by_letter("P")
            .expect("evaluation always includes the private design")
    }

    /// Speedups of every design over the private baseline (Figure 12).
    pub fn speedups_over_private(&self) -> Vec<(LlcDesign, f64)> {
        let baseline = self.private_baseline();
        self.results
            .iter()
            .map(|r| (r.design, r.speedup_over(baseline)))
            .collect()
    }

    /// CPI of every design normalised to the private design's total CPI (Figures 7-10).
    pub fn normalized_total_cpi(&self) -> Vec<(LlcDesign, f64)> {
        let base = self.private_baseline().total_cpi();
        self.results
            .iter()
            .map(|r| (r.design, r.total_cpi() / base))
            .collect()
    }
}

/// The complete evaluation: every workload under every design.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignComparison {
    /// Per-workload results in the paper's figure order.
    pub workloads: Vec<WorkloadResults>,
}

impl DesignComparison {
    /// Runs one workload under one design.
    ///
    /// The experiment seed drives both the trace generator and the
    /// simulator's internal RNG, so ASR's probabilistic replication varies
    /// with the seed instead of being pinned to a hardcoded one.
    pub fn run_single(spec: &WorkloadSpec, design: LlcDesign, cfg: &ExperimentConfig) -> RunResult {
        let mut gen = TraceGenerator::new(spec, cfg.seed);
        let mut sim = CmpSimulator::with_seed(design, spec, cfg.seed);
        sim.run_warmup(&mut gen, cfg.warmup_refs);
        let run = sim.run_measured(&mut gen, cfg.measured_refs);
        RunResult {
            workload: spec.name.clone(),
            design,
            run,
        }
    }

    /// [`Self::run_single`] replaying the workload's stream from `arena`
    /// instead of regenerating it. The result is bit-identical to the
    /// streaming path; the stream is generated at most once per unique
    /// `(workload, geometry, seed)` key no matter how many designs run it.
    pub fn run_single_with_arena(
        spec: &WorkloadSpec,
        design: LlcDesign,
        cfg: &ExperimentConfig,
        arena: &TraceArena,
    ) -> RunResult {
        let mut slice = arena.slice(spec, cfg.seed, cfg.total_refs());
        let mut sim = CmpSimulator::with_seed(design, spec, cfg.seed);
        sim.run_warmup(&mut slice, cfg.warmup_refs);
        let run = sim.run_measured(&mut slice, cfg.measured_refs);
        RunResult {
            workload: spec.name.clone(),
            design,
            run,
        }
    }

    /// The ASR design variants one workload must run: the six versions when
    /// `asr_best_of` is set, the adaptive version alone otherwise.
    fn asr_variants(cfg: &ExperimentConfig) -> Vec<LlcDesign> {
        if cfg.asr_best_of {
            AsrPolicy::all_versions()
                .into_iter()
                .map(|policy| LlcDesign::Asr { policy })
                .collect()
        } else {
            vec![LlcDesign::Asr {
                policy: AsrPolicy::Adaptive,
            }]
        }
    }

    /// Selects the paper's reported ASR result from the candidate runs: the
    /// version with the lowest total CPI (first wins ties, matching the
    /// version order of [`AsrPolicy::all_versions`]).
    fn best_asr(candidates: Vec<RunResult>) -> RunResult {
        candidates
            .into_iter()
            .min_by(|a, b| a.total_cpi().total_cmp(&b.total_cpi()))
            .expect("at least one ASR version exists")
    }

    /// Runs the ASR design, optionally taking the best of its six versions
    /// (the paper reports the highest-performing version per workload).
    pub fn run_asr(spec: &WorkloadSpec, cfg: &ExperimentConfig) -> RunResult {
        Self::run_asr_with(spec, cfg, &ExperimentEngine::new())
    }

    /// [`Self::run_asr`] on an explicit engine: the six versions are
    /// independent jobs, so best-of-six costs one version's wall-clock time.
    /// The versions share one arena slab — the workload's stream is
    /// generated once, not six times.
    pub fn run_asr_with(
        spec: &WorkloadSpec,
        cfg: &ExperimentConfig,
        engine: &ExperimentEngine,
    ) -> RunResult {
        Self::run_asr_with_arena(spec, cfg, engine, &TraceArena::new())
    }

    /// [`Self::run_asr_with`] resolving every variant through `arena`.
    ///
    /// All ASR versions warm identically, so the warm-up runs once: one
    /// simulator warms over the workload's slab, and every version measures
    /// a clone of it under its own policy, one engine job per version. The
    /// result is bit-identical to warming each version separately.
    pub fn run_asr_with_arena(
        spec: &WorkloadSpec,
        cfg: &ExperimentConfig,
        engine: &ExperimentEngine,
        arena: &TraceArena,
    ) -> RunResult {
        let variants = Self::asr_variants(cfg);
        let mut slice = arena.slice(spec, cfg.seed, cfg.total_refs());
        let mut warmed = CmpSimulator::with_seed(variants[0], spec, cfg.seed);
        warmed.run_warmup(&mut slice, cfg.warmup_refs);
        let candidates = engine.run(&variants, |_, &design| {
            let LlcDesign::Asr { policy } = design else {
                unreachable!("asr_variants yields ASR designs only")
            };
            let mut sim = warmed.clone();
            sim.set_asr_policy(policy);
            RunResult {
                workload: spec.name.clone(),
                design,
                run: sim.run_measured(&mut slice.clone(), cfg.measured_refs),
            }
        });
        Self::best_asr(candidates)
    }

    /// Runs one workload under the P/A/S/R/I design set, serially (the
    /// reference path the flattened evaluation is tested against).
    pub fn run_workload(spec: &WorkloadSpec, cfg: &ExperimentConfig) -> WorkloadResults {
        let private = Self::run_single(spec, LlcDesign::Private, cfg);
        let asr = Self::run_asr_with(spec, cfg, &ExperimentEngine::with_workers(1));
        let shared = Self::run_single(spec, LlcDesign::Shared, cfg);
        let rnuca = Self::run_single(spec, LlcDesign::rnuca_default(), cfg);
        let ideal = Self::run_single(spec, LlcDesign::Ideal, cfg);
        Self::assemble_workload(spec, private, asr, shared, rnuca, ideal)
    }

    fn assemble_workload(
        spec: &WorkloadSpec,
        private: RunResult,
        asr: RunResult,
        shared: RunResult,
        rnuca: RunResult,
        ideal: RunResult,
    ) -> WorkloadResults {
        let private_averse = private.total_cpi() >= shared.total_cpi();
        WorkloadResults {
            workload: spec.name.clone(),
            private_averse,
            results: vec![private, asr, shared, rnuca, ideal],
        }
    }

    /// Runs the full evaluation suite on a default-sized engine.
    pub fn run_evaluation(cfg: &ExperimentConfig) -> DesignComparison {
        Self::run_evaluation_with(cfg, &ExperimentEngine::new())
    }

    /// [`Self::run_evaluation`] on an explicit engine.
    ///
    /// Every `(workload, design variant)` pair — including each ASR version —
    /// is one job, so the pool balances across the whole evaluation instead
    /// of per workload. The assembled comparison is identical to running
    /// [`Self::run_workload`] sequentially over the suite, for every worker
    /// count.
    pub fn run_evaluation_with(
        cfg: &ExperimentConfig,
        engine: &ExperimentEngine,
    ) -> DesignComparison {
        Self::run_evaluation_with_arena(cfg, engine, &TraceArena::new())
    }

    /// [`Self::run_evaluation_with`] resolving jobs through an explicit
    /// `arena` (exposed so callers can share streams across evaluations and
    /// inspect deduplication).
    ///
    /// Each workload contributes five jobs, all replaying its one stream:
    /// P, S, R and I warm in place, and the ASR job warms once and measures
    /// a clone per version (see [`Self::run_asr_with_arena`]).
    pub fn run_evaluation_with_arena(
        cfg: &ExperimentConfig,
        engine: &ExperimentEngine,
        arena: &TraceArena,
    ) -> DesignComparison {
        let specs = WorkloadSpec::evaluation_suite();
        let asr = LlcDesign::Asr {
            policy: AsrPolicy::Adaptive,
        };
        let designs = [
            LlcDesign::Private,
            asr,
            LlcDesign::Shared,
            LlcDesign::rnuca_default(),
            LlcDesign::Ideal,
        ];
        let jobs: Vec<(&WorkloadSpec, LlcDesign)> = specs
            .iter()
            .flat_map(|spec| designs.map(|design| (spec, design)))
            .collect();
        let serial = ExperimentEngine::with_workers(1);
        let mut results = engine
            .run(&jobs, |_, &(spec, design)| {
                if design == asr {
                    Self::run_asr_with_arena(spec, cfg, &serial, arena)
                } else {
                    Self::run_single_with_arena(spec, design, cfg, arena)
                }
            })
            .into_iter();
        let workloads = specs
            .iter()
            .map(|spec| {
                let mut next = || results.next().expect("five results per workload");
                let (private, asr, shared, rnuca, ideal) = (next(), next(), next(), next(), next());
                Self::assemble_workload(spec, private, asr, shared, rnuca, ideal)
            })
            .collect();
        DesignComparison { workloads }
    }

    /// Sweeps the R-NUCA instruction-cluster size over `sizes` for every
    /// workload (Figure 11). Returns, per workload, one result per size.
    pub fn run_cluster_sweep(
        cfg: &ExperimentConfig,
        sizes: &[usize],
    ) -> Vec<(String, Vec<(usize, MeasuredRun)>)> {
        Self::run_cluster_sweep_with(cfg, sizes, &ExperimentEngine::new())
    }

    /// [`Self::run_cluster_sweep`] on an explicit engine. Sizes exceeding a
    /// workload's core count are skipped. Every `(workload, size)` pair is
    /// one job; the sizes of one workload replay the same arena slab (the
    /// cluster size never changes the reference stream) but warm separately,
    /// since cluster size changes where warm-up places instruction blocks.
    pub fn run_cluster_sweep_with(
        cfg: &ExperimentConfig,
        sizes: &[usize],
        engine: &ExperimentEngine,
    ) -> Vec<(String, Vec<(usize, MeasuredRun)>)> {
        let specs = WorkloadSpec::evaluation_suite();
        let arena = TraceArena::new();
        let jobs: Vec<(usize, usize)> = specs
            .iter()
            .enumerate()
            .flat_map(|(i, spec)| {
                sizes
                    .iter()
                    .copied()
                    .filter(|&s| s <= spec.num_cores())
                    .map(move |s| (i, s))
            })
            .collect();
        let runs = engine.run(&jobs, |_, &(i, size)| {
            let design = LlcDesign::RNuca {
                instr_cluster_size: size,
            };
            Self::run_single_with_arena(&specs[i], design, cfg, &arena).run
        });

        let mut rows: Vec<(String, Vec<(usize, MeasuredRun)>)> = specs
            .iter()
            .map(|spec| (spec.name.clone(), Vec::new()))
            .collect();
        for (&(i, size), run) in jobs.iter().zip(runs) {
            rows[i].1.push((size, run));
        }
        rows
    }

    /// The results for one workload by name.
    pub fn workload(&self, name: &str) -> Option<&WorkloadResults> {
        self.workloads.iter().find(|w| w.workload == name)
    }

    /// Geometric-mean speedup of a design over the private baseline across all workloads.
    pub fn mean_speedup_over_private(&self, letter: &str) -> f64 {
        let speedups: Vec<f64> = self
            .workloads
            .iter()
            .filter_map(|w| {
                let baseline = w.private_baseline();
                w.by_letter(letter).map(|r| r.speedup_over(baseline))
            })
            .collect();
        if speedups.is_empty() {
            return 1.0;
        }
        let log_sum: f64 = speedups.iter().map(|s| s.ln()).sum();
        (log_sum / speedups.len() as f64).exp()
    }

    /// Geometric-mean speedup of one design over another across all workloads.
    pub fn mean_speedup(&self, design_letter: &str, baseline_letter: &str) -> f64 {
        let speedups: Vec<f64> = self
            .workloads
            .iter()
            .filter_map(|w| {
                let baseline = w.by_letter(baseline_letter)?;
                w.by_letter(design_letter).map(|r| r.speedup_over(baseline))
            })
            .collect();
        if speedups.is_empty() {
            return 1.0;
        }
        let log_sum: f64 = speedups.iter().map(|s| s.ln()).sum();
        (log_sum / speedups.len() as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_single_produces_named_result() {
        let spec = WorkloadSpec::em3d();
        let cfg = ExperimentConfig::quick();
        let r = DesignComparison::run_single(&spec, LlcDesign::Shared, &cfg);
        assert_eq!(r.workload, "em3d");
        assert_eq!(r.design.letter(), "S");
        assert!(r.total_cpi() > 0.0);
    }

    #[test]
    fn workload_results_expose_speedups_and_normalised_cpi() {
        let spec = WorkloadSpec::mix();
        let cfg = ExperimentConfig::quick();
        let w = DesignComparison::run_workload(&spec, &cfg);
        assert_eq!(w.results.len(), 5);
        let speedups = w.speedups_over_private();
        assert_eq!(speedups.len(), 5);
        // The private design's speedup over itself is exactly 1.
        let p = speedups.iter().find(|(d, _)| d.letter() == "P").unwrap();
        assert!((p.1 - 1.0).abs() < 1e-12);
        // Normalised CPI of the private design is exactly 1.
        let norm = w.normalized_total_cpi();
        let pn = norm.iter().find(|(d, _)| d.letter() == "P").unwrap();
        assert!((pn.1 - 1.0).abs() < 1e-12);
        // Ideal is at least as fast as everything else.
        let ideal = w.by_letter("I").unwrap().total_cpi();
        for r in &w.results {
            assert!(ideal <= r.total_cpi() + 1e-9);
        }
    }

    #[test]
    fn asr_best_of_picks_the_fastest_version() {
        let spec = WorkloadSpec::oltp_db2();
        let mut cfg = ExperimentConfig::quick();
        cfg.asr_best_of = true;
        cfg.warmup_refs = 10_000;
        cfg.measured_refs = 8_000;
        let best = DesignComparison::run_asr(&spec, &cfg);
        // The best-of result can be no slower than the adaptive version alone.
        let adaptive = DesignComparison::run_single(
            &spec,
            LlcDesign::Asr {
                policy: AsrPolicy::Adaptive,
            },
            &cfg,
        );
        assert!(best.total_cpi() <= adaptive.total_cpi() + 1e-9);
    }

    #[test]
    fn run_single_with_arena_matches_the_streaming_path() {
        let cfg = ExperimentConfig::quick();
        let arena = TraceArena::new();
        for design in LlcDesign::speedup_set() {
            let spec = WorkloadSpec::oltp_db2();
            assert_eq!(
                DesignComparison::run_single_with_arena(&spec, design, &cfg, &arena),
                DesignComparison::run_single(&spec, design, &cfg),
                "{design} must be replay-invariant"
            );
        }
        assert_eq!(arena.len(), 1, "one workload, one stream");
    }

    #[test]
    fn asr_best_of_six_shares_one_arena_slab() {
        // Satellite acceptance: all six ASR variants of one
        // (workload, config-point) resolve to the same slab — the stream is
        // generated exactly once, not six times.
        let spec = WorkloadSpec::oltp_db2();
        let mut cfg = ExperimentConfig::smoke();
        cfg.asr_best_of = true;
        let arena = TraceArena::new();
        let best = DesignComparison::run_asr_with_arena(
            &spec,
            &cfg,
            &ExperimentEngine::with_workers(4),
            &arena,
        );
        assert_eq!(best.design.letter(), "A");
        assert_eq!(arena.len(), 1, "six variants, one unique key");
        assert_eq!(arena.generations(), 1, "the stream was generated once");
    }

    #[test]
    fn full_evaluation_holds_one_arena_entry_per_unique_key() {
        // Satellite acceptance: after a full experiment (ASR best-of-six
        // included), the arena holds exactly one entry per unique
        // (workload, geometry, seed) key — the eight suite workloads — and
        // generated each exactly once despite ~10 design jobs per workload.
        let mut cfg = ExperimentConfig::smoke();
        cfg.asr_best_of = true;
        let arena = TraceArena::new();
        let comparison = DesignComparison::run_evaluation_with_arena(
            &cfg,
            &ExperimentEngine::with_workers(4),
            &arena,
        );
        assert_eq!(comparison.workloads.len(), 8);
        assert_eq!(arena.len(), WorkloadSpec::evaluation_suite().len());
        assert_eq!(arena.generations(), arena.len());
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
            let streamed = DesignComparison::run_single(&spec, design, &cfg).run;
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
        // The six ASR variants share one warm-up: the best-of-six sweep
        // warms one simulator and every variant measures a clone of it.
        // That must pick exactly the run warming every version separately
        // picks.
        let spec = WorkloadSpec::oltp_db2();
        let mut cfg = ExperimentConfig::smoke();
        cfg.asr_best_of = true;
        let traces = TraceArena::new();
        let best = DesignComparison::run_asr_with_arena(
            &spec,
            &cfg,
            &ExperimentEngine::with_workers(4),
            &traces,
        );
        let fresh = DesignComparison::best_asr(
            AsrPolicy::all_versions()
                .into_iter()
                .map(|policy| DesignComparison::run_single(&spec, LlcDesign::Asr { policy }, &cfg))
                .collect(),
        );
        assert_eq!(best.design.letter(), "A");
        assert_eq!(best, fresh);
        assert_eq!(traces.generations(), 1, "the stream was generated once");
    }

    #[test]
    fn full_evaluation_warms_one_checkpoint_per_class() {
        // A full evaluation (ASR best-of-six included) warms five classes
        // per workload: P, S, R and I each warm in place, and the six ASR
        // versions share one warm-up. Every reported result must equal a
        // fresh warm-up of its own design.
        let mut cfg = ExperimentConfig::smoke();
        cfg.asr_best_of = true;
        let traces = TraceArena::new();
        let comparison = DesignComparison::run_evaluation_with_arena(
            &cfg,
            &ExperimentEngine::with_workers(4),
            &traces,
        );
        let specs = WorkloadSpec::evaluation_suite();
        assert_eq!(comparison.workloads.len(), specs.len());
        for (spec, workload) in specs.iter().zip(&comparison.workloads) {
            for result in &workload.results {
                let fresh = match result.design {
                    LlcDesign::Asr { .. } => DesignComparison::best_asr(
                        AsrPolicy::all_versions()
                            .into_iter()
                            .map(|policy| {
                                DesignComparison::run_single(spec, LlcDesign::Asr { policy }, &cfg)
                            })
                            .collect(),
                    ),
                    design => DesignComparison::run_single(spec, design, &cfg),
                };
                assert_eq!(result, &fresh, "{} / {}", spec.name, result.design);
            }
        }
        assert_eq!(traces.len(), specs.len());
        assert_eq!(traces.generations(), traces.len());
    }

    #[test]
    fn engine_evaluation_matches_the_per_workload_path() {
        // Acceptance criterion: the flattened job-level evaluation assembles
        // exactly the comparison the per-workload path produces on quick().
        let cfg = ExperimentConfig::quick();
        let engine = ExperimentEngine::with_workers(4);
        let flattened = DesignComparison::run_evaluation_with(&cfg, &engine);
        let per_workload: Vec<WorkloadResults> = WorkloadSpec::evaluation_suite()
            .iter()
            .map(|spec| DesignComparison::run_workload(spec, &cfg))
            .collect();
        assert_eq!(flattened.workloads, per_workload);
    }

    #[test]
    fn evaluation_is_identical_across_worker_counts() {
        let mut cfg = ExperimentConfig::quick();
        cfg.warmup_refs = 5_000;
        cfg.measured_refs = 4_000;
        cfg.asr_best_of = true; // exercise the flattened best-of-six jobs
        let serial =
            DesignComparison::run_evaluation_with(&cfg, &ExperimentEngine::with_workers(1));
        let pooled =
            DesignComparison::run_evaluation_with(&cfg, &ExperimentEngine::with_workers(8));
        assert_eq!(serial, pooled);
    }

    #[test]
    fn cluster_sweep_is_identical_across_worker_counts() {
        let mut cfg = ExperimentConfig::quick();
        cfg.warmup_refs = 3_000;
        cfg.measured_refs = 2_000;
        let serial = DesignComparison::run_cluster_sweep_with(
            &cfg,
            &[1, 4],
            &ExperimentEngine::with_workers(1),
        );
        let pooled = DesignComparison::run_cluster_sweep_with(
            &cfg,
            &[1, 4],
            &ExperimentEngine::with_workers(6),
        );
        assert_eq!(serial, pooled);
    }

    #[test]
    fn cluster_sweep_covers_requested_sizes() {
        let mut cfg = ExperimentConfig::quick();
        cfg.warmup_refs = 5_000;
        cfg.measured_refs = 5_000;
        let sweep = DesignComparison::run_cluster_sweep(&cfg, &[1, 4]);
        assert_eq!(sweep.len(), WorkloadSpec::evaluation_suite().len());
        for (name, rows) in &sweep {
            assert!(!name.is_empty());
            assert_eq!(rows.len(), 2, "both sizes apply to every workload");
            assert_eq!(rows[0].0, 1);
            assert_eq!(rows[1].0, 4);
        }
    }
}
