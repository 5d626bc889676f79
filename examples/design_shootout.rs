//! The full evaluation in miniature: every workload under every design, with
//! the Figure 12 speedup summary and the paper's headline averages.
//!
//! ```text
//! cargo run --release --example design_shootout [--quick]
//! ```

use rnuca_sim::{DesignComparison, ExperimentConfig, ExperimentEngine, TextTable};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let cfg = if quick {
        ExperimentConfig::quick()
    } else {
        let mut c = ExperimentConfig::full();
        c.warmup_refs = 300_000;
        c.measured_refs = 150_000;
        c.asr_best_of = false;
        c
    };

    println!(
        "Running {} workloads x 5 designs (parallel)...",
        rnuca_workloads::WorkloadSpec::evaluation_suite().len()
    );
    let comparison = DesignComparison::run_evaluation(&cfg, &ExperimentEngine::new());

    let mut table = TextTable::new(vec!["workload", "bucket", "A", "S", "R", "I"]);
    for w in &comparison.workloads {
        let baseline = w.private_baseline();
        let mut row = vec![
            w.workload.clone(),
            if w.private_averse {
                "private-averse".into()
            } else {
                "shared-averse".into()
            },
        ];
        for letter in ["A", "S", "R", "I"] {
            let s = w
                .by_letter(letter)
                .map(|r| format!("{:+.1}%", (r.speedup_over(baseline) - 1.0) * 100.0))
                .unwrap_or_default();
            row.push(s);
        }
        table.add_row(row);
    }
    println!("\nSpeedup over the private design (Figure 12):\n{table}");

    println!(
        "R-NUCA average speedup: {:+.1}% over private, {:+.1}% over shared; performance within {:.1}% of ideal",
        (comparison.mean_speedup("R", "P") - 1.0) * 100.0,
        (comparison.mean_speedup("R", "S") - 1.0) * 100.0,
        (1.0 - 1.0 / comparison.mean_speedup("I", "R")) * 100.0,
    );
}
