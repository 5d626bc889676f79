//! Shared helpers for the benchmark harnesses and the `figures` binary.
//!
//! Everything heavy lives in `rnuca-sim`; this crate only provides small
//! formatting and orchestration helpers so the Criterion benches and the
//! figure-regeneration binary do not duplicate code.

#![warn(missing_docs)]

pub mod ingest;
pub mod json;
pub mod perf;

pub use ingest::{evaluate_gate_query, records_from_json, IngestKind};
pub use json::JsonValue;
pub use perf::{
    default_perf_scenarios, evaluate_gate, filter_scenarios, run_perf, run_perf_scenarios,
    run_perf_scenarios_in, GateOutcome, PerfBaseline, PerfReport, PerfResult, PerfScenario,
    PerfTotals,
};

use rnuca_sim::report::{fmt3, fmt_pct};
use rnuca_sim::{DesignComparison, ExperimentConfig, ScenarioMatrix, TextTable};
use rnuca_workloads::{TraceCharacterization, TraceGenerator, WorkloadSpec};

/// Generates a trace of `n` references for a workload and characterizes it.
pub fn characterize_workload(spec: &WorkloadSpec, n: usize, seed: u64) -> TraceCharacterization {
    let mut gen = TraceGenerator::new(spec, seed);
    let trace = gen.generate(n);
    TraceCharacterization::analyze(&trace, spec.system_config().l2_slice.geometry.block_bytes)
}

/// Renders Figure 3 (L2 reference breakdown by class) as a text table.
pub fn figure3_table(n: usize, seed: u64) -> TextTable {
    let mut table = TextTable::new(vec![
        "workload",
        "instr",
        "private",
        "shared-RW",
        "shared-RO",
    ]);
    for spec in WorkloadSpec::evaluation_suite() {
        let c = characterize_workload(&spec, n, seed);
        table.add_row(vec![
            spec.name.clone(),
            fmt_pct(c.breakdown.instructions),
            fmt_pct(c.breakdown.private_data),
            fmt_pct(c.breakdown.shared_read_write),
            fmt_pct(c.breakdown.shared_read_only),
        ]);
    }
    table
}

/// Renders Figure 7 (total CPI normalised to the private design) as a text table.
pub fn figure7_table(comparison: &DesignComparison) -> TextTable {
    let mut table = TextTable::new(vec!["workload", "P", "A", "S", "R"]);
    for w in &comparison.workloads {
        let base = w.private_baseline().total_cpi();
        let mut row = vec![w.workload.clone()];
        for letter in ["P", "A", "S", "R"] {
            let cpi = w
                .by_letter(letter)
                .map(|r| r.total_cpi() / base)
                .unwrap_or(f64::NAN);
            row.push(fmt3(cpi));
        }
        table.add_row(row);
    }
    table
}

/// Runs the full evaluation once with the given configuration.
pub fn run_evaluation(cfg: &ExperimentConfig) -> DesignComparison {
    DesignComparison::run_evaluation(cfg)
}

/// The scenario matrix behind the `figures sweep` subcommand: the full
/// workload suite at 16/32/64 cores, 512 KB/1 MB/2 MB L2 slices, under the
/// shared design and R-NUCA with size-2/4/8 instruction clusters.
pub fn default_sweep_matrix(cfg: ExperimentConfig) -> ScenarioMatrix {
    let mut matrix = ScenarioMatrix::paper_evaluation(cfg);
    matrix.core_counts = vec![16, 32, 64];
    matrix.slice_capacities_kb = vec![512, 1024, 2048];
    matrix.cluster_sizes = vec![2, 4, 8];
    matrix
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
    fn figure3_table_has_all_workloads() {
        let t = figure3_table(2_000, 1);
        assert_eq!(t.len(), 8);
    }

    #[test]
    fn default_sweep_matrix_flattens() {
        let matrix = default_sweep_matrix(ExperimentConfig::smoke());
        let jobs = matrix.jobs().expect("default axes are valid");
        // 8 workloads x 3 core counts x 3 capacities x (shared + 3 clusters).
        assert_eq!(jobs.len(), 8 * 3 * 3 * 4);
    }
}
