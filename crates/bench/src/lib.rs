//! Helpers behind the `figures` binary: the perf suite (whose rows go to
//! the warehouse), trace characterization and the sweep matrix.
//!
//! Everything heavy lives in `rnuca-sim`; this crate only provides small
//! formatting and orchestration helpers for the figure-regeneration
//! binary and its tests.

#![warn(missing_docs)]

pub mod perf;

pub use perf::{filter_scenarios, perf_matrix, run_perf, PerfReport, PerfResult, PerfTotals};

use rnuca_sim::{ExperimentConfig, LlcDesign, ScenarioMatrix};
use rnuca_workloads::{TraceCharacterization, TraceGenerator, WorkloadSpec};

/// Generates a trace of `n` references for a workload and characterizes it.
pub fn characterize_workload(spec: &WorkloadSpec, n: usize, seed: u64) -> TraceCharacterization {
    let mut gen = TraceGenerator::new(spec, seed);
    let trace = gen.generate(n);
    TraceCharacterization::analyze(&trace, spec.system_config().l2_slice.geometry.block_bytes)
}

/// The scenario matrix behind the `figures sweep` subcommand: the full
/// workload suite at 16/32/64 cores, 512 KB/1 MB/2 MB L2 slices, under the
/// shared design and R-NUCA with size-2/4/8 instruction clusters.
pub fn default_sweep_matrix(cfg: ExperimentConfig) -> ScenarioMatrix {
    ScenarioMatrix {
        designs: vec![LlcDesign::Shared, LlcDesign::rnuca_default()],
        core_counts: vec![16, 32, 64],
        slice_capacities_kb: vec![512, 1024, 2048],
        cluster_sizes: vec![2, 4, 8],
        ..ScenarioMatrix::paper_evaluation(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn characterization_helper_produces_data() {
        let c = characterize_workload(&WorkloadSpec::em3d(), 5_000, 1);
        assert_eq!(c.accesses, 5_000);
        assert!(c.breakdown.private_data > 0.5);
    }

    #[test]
    fn default_sweep_matrix_flattens() {
        let matrix = default_sweep_matrix(ExperimentConfig::smoke());
        let jobs = matrix.jobs().expect("default axes are valid");
        // 8 workloads x 3 core counts x 3 capacities x (shared + 3 clusters).
        assert_eq!(jobs.len(), 8 * 3 * 3 * 4);
    }
}
