//! Integration tests for the experiment engine and scenario-matrix surface
//! as seen from outside the workspace crates.

use rnuca_sim::{
    run_single, AsrPolicy, ExperimentConfig, ExperimentEngine, LlcDesign, ScenarioMatrix,
    SweepOptions,
};
use rnuca_workloads::WorkloadSpec;

fn small_cfg() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::smoke();
    cfg.warmup_refs = 2_000;
    cfg.measured_refs = 1_500;
    cfg
}

#[test]
fn scenario_sweep_json_is_byte_identical_across_worker_pools() {
    let mut matrix = ScenarioMatrix::new(small_cfg());
    matrix.workloads = vec![WorkloadSpec::oltp_db2(), WorkloadSpec::mix()];
    matrix.designs = vec![
        LlcDesign::Shared,
        LlcDesign::rnuca_default(),
        LlcDesign::Asr {
            policy: AsrPolicy::Static(0.5),
        },
    ];
    matrix.core_counts = vec![16, 32];
    matrix.cluster_sizes = vec![2, 4];
    let outputs: Vec<String> = [1, 2, 7]
        .iter()
        .map(|&w| {
            matrix
                .run(&SweepOptions::new(ExperimentEngine::with_workers(w)))
                .expect("matrix axes are valid")
                .sweep
                .to_json()
        })
        .collect();
    assert_eq!(outputs[0], outputs[1]);
    assert_eq!(outputs[0], outputs[2]);
    // 2 workloads x 2 core counts x (shared + 2 clusters + ASR).
    assert_eq!(outputs[0].matches("\"workload\"").count(), 2 * 2 * 4);
}

#[test]
fn experiment_seed_reaches_the_simulator() {
    // ASR's probabilistic replication must vary with the experiment seed:
    // before the fix, the simulator RNG was pinned to a hardcoded constant
    // and only the trace stream changed.
    let spec = WorkloadSpec::oltp_db2();
    let design = LlcDesign::Asr {
        policy: AsrPolicy::Static(0.5),
    };
    let mut a = small_cfg();
    let mut b = small_cfg();
    a.seed = 1;
    b.seed = 2;
    let ra = run_single(&spec, design, &a);
    let rb = run_single(&spec, design, &b);
    assert_ne!(ra, rb);
    // Same seed stays fully deterministic.
    let ra2 = run_single(&spec, design, &a);
    assert_eq!(ra, ra2);
}

#[test]
fn scaled_core_counts_run_end_to_end() {
    // A 64-core scenario exercises the reshaped 8x8 torus, its 16 memory
    // controllers, and R-NUCA placement beyond the paper's table.
    let spec = WorkloadSpec::oltp_db2()
        .at_config_point(&rnuca_types::ConfigPoint {
            num_cores: Some(64),
            slice_capacity_kb: Some(512),
            instr_cluster_size: None,
        })
        .expect("64-core point is valid");
    assert_eq!(spec.num_cores(), 64);
    for design in [LlcDesign::Shared, LlcDesign::rnuca_default()] {
        let r = run_single(&spec, design, &small_cfg());
        assert!(r.total_cpi() > 0.0, "{design} must produce CPI at 64 cores");
    }
}
