//! End-to-end integration tests: full workload simulations across crates,
//! checking the paper's headline qualitative claims on small runs.

use rnuca_sim::{run_single, CmpSimulator, ExperimentConfig, LlcDesign};
use rnuca_workloads::{TraceGenerator, WorkloadSpec};

fn cfg() -> ExperimentConfig {
    let mut c = ExperimentConfig::quick();
    c.warmup_refs = 120_000;
    c.measured_refs = 60_000;
    c
}

/// R-NUCA must track the better of private and shared for an OLTP workload
/// (the performance-stability claim of Section 5.4).
#[test]
fn rnuca_matches_or_beats_both_baselines_on_oltp() {
    let spec = WorkloadSpec::oltp_db2();
    let c = cfg();
    let private = run_single(&spec, LlcDesign::Private, &c).total_cpi();
    let shared = run_single(&spec, LlcDesign::Shared, &c).total_cpi();
    let rnuca = run_single(&spec, LlcDesign::rnuca_default(), &c).total_cpi();
    let best = private.min(shared);
    assert!(
        rnuca <= best * 1.05,
        "R-NUCA ({rnuca:.3}) should be within 5% of the best baseline ({best:.3})"
    );
}

/// The multi-programmed MIX is the canonical shared-averse workload: the
/// private organisation (and R-NUCA) must beat the shared organisation.
#[test]
fn mix_is_shared_averse() {
    let spec = WorkloadSpec::mix();
    let c = cfg();
    let private = run_single(&spec, LlcDesign::Private, &c).total_cpi();
    let shared = run_single(&spec, LlcDesign::Shared, &c).total_cpi();
    let rnuca = run_single(&spec, LlcDesign::rnuca_default(), &c).total_cpi();
    assert!(
        private < shared,
        "MIX: private ({private:.3}) should beat shared ({shared:.3})"
    );
    assert!(
        rnuca <= shared,
        "MIX: R-NUCA ({rnuca:.3}) should beat shared ({shared:.3})"
    );
}

/// Apache (large instruction footprint, universally shared data) is
/// private-averse: the shared organisation and R-NUCA must beat private.
#[test]
fn apache_is_private_averse() {
    let spec = WorkloadSpec::apache();
    let c = cfg();
    let private = run_single(&spec, LlcDesign::Private, &c).total_cpi();
    let rnuca = run_single(&spec, LlcDesign::rnuca_default(), &c).total_cpi();
    assert!(
        rnuca < private,
        "Apache: R-NUCA ({rnuca:.3}) should beat the private design ({private:.3})"
    );
}

/// The ideal design bounds every other design from below on every workload.
#[test]
fn ideal_design_is_a_lower_bound() {
    let c = cfg();
    for spec in WorkloadSpec::evaluation_suite() {
        let cpis: Vec<(LlcDesign, f64)> = LlcDesign::speedup_set()
            .into_iter()
            .map(|design| (design, run_single(&spec, design, &c).total_cpi()))
            .collect();
        // `speedup_set` ends with the Ideal bound itself.
        let (_, ideal) = cpis[cpis.len() - 1];
        for (design, cpi) in cpis {
            assert!(
                ideal <= cpi + 1e-9,
                "{}: ideal ({ideal:.3}) must not exceed {design} ({cpi:.3})",
                spec.name,
            );
        }
    }
}

/// Size-4 instruction clusters must beat size-16 clusters (which spread
/// instructions chip-wide) on an instruction-heavy server workload, and the
/// size-1 configuration must show more off-chip CPI than size-4 (the Figure 11
/// trade-off).
#[test]
fn instruction_cluster_size_tradeoff() {
    let spec = WorkloadSpec::apache();
    let c = cfg();
    let run = |n: usize| {
        run_single(
            &spec,
            LlcDesign::RNuca {
                instr_cluster_size: n,
            },
            &c,
        )
    };
    let size1 = run(1);
    let size4 = run(4);
    let size16 = run(16);
    assert!(
        size4.cpi.l2_instructions < size16.cpi.l2_instructions,
        "size-4 clusters must fetch instructions faster than chip-wide interleaving"
    );
    assert!(
        size1.cpi.breakdown.off_chip > size4.cpi.breakdown.off_chip,
        "size-1 clusters must increase off-chip pressure vs size-4"
    );
}

/// The OS-driven classification misclassifies well under 1% of accesses at
/// steady state (Section 5.2 reports <0.75%).
#[test]
fn classification_accuracy_is_high_at_steady_state() {
    let spec = WorkloadSpec::oltp_db2();
    let mut gen = TraceGenerator::new(&spec, 5);
    let mut sim = CmpSimulator::new(LlcDesign::rnuca_default(), &spec);
    sim.run_warmup(&mut gen, 200_000);
    let run = sim.run_measured(&mut gen, 100_000);
    assert!(
        run.misclassification_rate < 0.01,
        "steady-state misclassification should be below 1%, got {:.3}%",
        run.misclassification_rate * 100.0
    );
}

/// The same seed and configuration reproduce identical results — the whole
/// pipeline is deterministic.
#[test]
fn full_pipeline_is_deterministic() {
    let spec = WorkloadSpec::dss_qry13();
    let c = ExperimentConfig::quick();
    let a = run_single(&spec, LlcDesign::rnuca_default(), &c);
    let b = run_single(&spec, LlcDesign::rnuca_default(), &c);
    assert_eq!(a, b);
}
