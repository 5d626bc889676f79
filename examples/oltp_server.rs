//! Server-workload scenario: characterize an OLTP trace and compare all five
//! LLC designs on it, reproducing one bar group of Figures 7 and 12.
//!
//! ```text
//! cargo run --release --example oltp_server
//! ```

use rnuca_sim::report::{fmt3, fmt_pct};
use rnuca_sim::{ExperimentConfig, ExperimentEngine, ScenarioMatrix, SweepOptions, TextTable};
use rnuca_workloads::{TraceCharacterization, TraceGenerator, WorkloadSpec};

fn main() {
    let spec = WorkloadSpec::oltp_db2();

    // Characterize the reference stream (Figures 2-4 for this workload).
    let mut gen = TraceGenerator::new(&spec, 7);
    let trace = gen.generate(150_000);
    let ch = TraceCharacterization::analyze(&trace, 64);
    println!(
        "{} L2 reference characterization ({} refs):",
        spec.name,
        trace.len()
    );
    println!(
        "  class mix: instr {} / private {} / shared-RW {} / shared-RO {}",
        fmt_pct(ch.breakdown.instructions),
        fmt_pct(ch.breakdown.private_data),
        fmt_pct(ch.breakdown.shared_read_write),
        fmt_pct(ch.breakdown.shared_read_only),
    );
    println!(
        "  instruction working set: 90% of fetches within {:.0} KB; shared data: 90% within {:.0} KB",
        ch.instr_cdf.kb_at_fraction(0.9),
        ch.shared_cdf.kb_at_fraction(0.9),
    );
    println!(
        "  instruction reuse by same core before another core intervenes: {:.0}%",
        ch.instr_reuse.reuse_fraction() * 100.0
    );

    // Compare the five designs.
    let mut cfg = ExperimentConfig::full();
    cfg.warmup_refs = 300_000;
    cfg.measured_refs = 150_000;
    cfg.asr_best_of = false;
    println!("\nRunning the P/A/S/R/I design comparison (this takes a few seconds)...");
    // The paper's evaluation restricted to this workload.
    let mut matrix = ScenarioMatrix::paper_evaluation(cfg);
    matrix.workloads = vec![spec];
    let results = matrix
        .run(&SweepOptions::new(ExperimentEngine::new()))
        .expect("the paper evaluation's axes are valid")
        .sweep
        .into_sweep()
        .expect("every job completes")
        .results;
    let cpi = |letter: &str| {
        results
            .iter()
            .find(|r| r.design.letter() == letter)
            .expect("the paper evaluation runs P/A/S/R/I")
            .run
            .total_cpi()
    };
    let base = cpi("P");

    let mut table = TextTable::new(vec![
        "design",
        "CPI",
        "CPI/private",
        "speedup",
        "off-chip rate",
    ]);
    for r in &results {
        let total = r.run.total_cpi();
        table.add_row(vec![
            r.design.to_string(),
            fmt3(total),
            fmt3(total / base),
            format!("{:+.1}%", (base / total - 1.0) * 100.0),
            fmt_pct(r.run.off_chip_rate),
        ]);
    }
    println!("{table}");
    println!(
        "Workload bucket: {}",
        if base >= cpi("S") {
            "private-averse"
        } else {
            "shared-averse"
        }
    );
}
