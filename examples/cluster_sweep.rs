//! Instruction-cluster-size sweep (the Figure 11 experiment) for one workload.
//!
//! Small clusters keep instructions close but replicate them in every slice,
//! inflating capacity pressure and off-chip misses; large clusters spread the
//! working set thin and stretch access latency. Size 4 is the paper's sweet
//! spot for the 16-core configuration.
//!
//! ```text
//! cargo run --release --example cluster_sweep [workload]
//! ```

use rnuca_sim::report::fmt3;
use rnuca_sim::{ExperimentConfig, ExperimentEngine, ScenarioMatrix, SweepOptions, TextTable};
use rnuca_workloads::WorkloadSpec;

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "Apache".to_string());
    let spec = WorkloadSpec::evaluation_suite()
        .into_iter()
        .find(|s| s.name.eq_ignore_ascii_case(&name))
        .unwrap_or_else(|| {
            eprintln!("unknown workload {name}, falling back to Apache");
            WorkloadSpec::apache()
        });

    let mut cfg = ExperimentConfig::full();
    cfg.warmup_refs = 300_000;
    cfg.measured_refs = 150_000;

    println!(
        "Instruction-cluster sweep for {} ({} cores):",
        spec.name,
        spec.num_cores()
    );
    let mut table = TextTable::new(vec![
        "cluster size",
        "total CPI",
        "total / size-1",
        "instr L2 CPI",
        "off-chip CPI",
    ]);
    // Figure 11's preset restricted to one workload; sizes above the core
    // count are skipped.
    let mut matrix = ScenarioMatrix::cluster_sweep(cfg, &[1, 2, 4, 8, 16]);
    matrix.workloads = vec![spec];
    let sweep = matrix
        .run(&SweepOptions::new(ExperimentEngine::new()))
        .expect("the cluster sizes are valid")
        .sweep
        .into_sweep()
        .expect("every job completes");
    let base = sweep.results[0].run.total_cpi();
    for r in &sweep.results {
        let total = r.run.total_cpi();
        table.add_row(vec![
            format!("size-{}", r.point.instr_cluster_size.unwrap_or_default()),
            fmt3(total),
            fmt3(total / base),
            fmt3(r.run.cpi.l2_instructions),
            fmt3(r.run.cpi.breakdown.off_chip),
        ]);
    }
    println!("{table}");
}
