//! Golden-results pinning: the refactor-proof digest of the simulator.
//!
//! One `(design, workload, seed)` triple per LLC design is run end-to-end
//! and the entire [`MeasuredRun`] — every CPI component, rate, and counter —
//! is compared against a recorded golden value. `f64`'s `Debug` output is
//! the shortest round-trippable decimal form, so string equality here is
//! bit-identity: any change to simulation semantics (replacement order, RNG
//! draw sequence, cost accounting) flips at least one digit and fails the
//! test, while pure performance work (layout, batching, probe merging)
//! leaves it untouched. The values were recorded before the flat-slab cache
//! refactor and prove it preserved simulation behaviour exactly. The 16-core
//! tests assert the digest over two paths — streaming generation and
//! trace-arena replay — so the shared-slab machinery is pinned to the same
//! bit-identical outputs. The `*_64c` tests repeat the matrix at a second
//! geometry (64 cores), where the torus, directory, and page-classification
//! state are all larger.

use rnuca_sim::{AsrPolicy, CmpSimulator, LlcDesign};
use rnuca_types::config::ConfigPoint;
use rnuca_workloads::{TraceArena, TraceGenerator, WorkloadSpec};

const WARMUP: usize = 20_000;
const MEASURED: usize = 20_000;
const SEED: u64 = 20_260_727;

fn run(design: LlcDesign, spec: &WorkloadSpec) -> String {
    let mut gen = TraceGenerator::new(spec, SEED);
    let mut sim = CmpSimulator::with_seed(design, spec, SEED);
    sim.run_warmup(&mut gen, WARMUP);
    format!("{:?}", sim.run_measured(&mut gen, MEASURED))
}

/// [`run`] replaying the stream from a trace-arena slab instead of the
/// streaming generator. Every golden test asserts both paths against the
/// same recorded digest, proving arena replay is bit-identical to streaming
/// generation on the pinned simulation outputs.
fn run_replayed(design: LlcDesign, spec: &WorkloadSpec) -> String {
    let mut slice = TraceArena::new().slice(spec, SEED, WARMUP + MEASURED);
    let mut sim = CmpSimulator::with_seed(design, spec, SEED);
    sim.run_warmup(&mut slice, WARMUP);
    format!("{:?}", sim.run_measured(&mut slice, MEASURED))
}

/// The preset re-pinned to 64 cores — the second golden geometry.
fn at_64_cores(spec: &WorkloadSpec) -> WorkloadSpec {
    let point = ConfigPoint {
        num_cores: Some(64),
        ..ConfigPoint::default()
    };
    spec.at_config_point(&point)
        .expect("64 cores is valid for every preset")
}

#[test]
fn golden_private_oltp_db2() {
    let golden = "MeasuredRun { cpi: DetailedCpi { breakdown: CpiBreakdown { busy: 1.0, l1_to_l1: 0.043192799999999996, l2: 0.8097137999999999, off_chip: 1.6485504, other: 0.13377, reclassification: 0.0 }, l2_private_data: 0.0171696, l2_instructions: 0.7428918, l2_shared_load: 0.0012936, l2_shared_coherence: 0.0483588, off_chip_instructions: 0.1555386 }, accesses: 20000, instructions: 476190.4761904762, off_chip_rate: 0.28605, l1_to_l1_rate: 0.029, misclassification_rate: 0.0, reclassifications: 0 }";
    assert_eq!(run(LlcDesign::Private, &WorkloadSpec::oltp_db2()), golden);
    assert_eq!(
        run_replayed(LlcDesign::Private, &WorkloadSpec::oltp_db2()),
        golden
    );
}

#[test]
fn golden_asr_adaptive_oltp_db2() {
    let golden = "MeasuredRun { cpi: DetailedCpi { breakdown: CpiBreakdown { busy: 1.0, l1_to_l1: 0.043192799999999996, l2: 0.9310392, off_chip: 1.6485504, other: 0.13377, reclassification: 0.0 }, l2_private_data: 0.0171696, l2_instructions: 0.8642046, l2_shared_load: 0.0012936, l2_shared_coherence: 0.048371399999999995, off_chip_instructions: 0.1555386 }, accesses: 20000, instructions: 476190.4761904762, off_chip_rate: 0.28605, l1_to_l1_rate: 0.029, misclassification_rate: 0.0, reclassifications: 0 }";
    assert_eq!(
        run(
            LlcDesign::Asr {
                policy: AsrPolicy::Adaptive
            },
            &WorkloadSpec::oltp_db2()
        ),
        golden
    );
    assert_eq!(
        run_replayed(
            LlcDesign::Asr {
                policy: AsrPolicy::Adaptive
            },
            &WorkloadSpec::oltp_db2()
        ),
        golden
    );
}

#[test]
fn golden_shared_em3d() {
    let golden = "MeasuredRun { cpi: DetailedCpi { breakdown: CpiBreakdown { busy: 0.7, l1_to_l1: 0.0005302, l2: 0.0121924, off_chip: 1.5891612000000002, other: 0.1327788, reclassification: 0.0 }, l2_private_data: 0.0006270000000000001, l2_instructions: 0.0107118, l2_shared_load: 0.0008536, l2_shared_coherence: 0.0, off_chip_instructions: 0.0104258 }, accesses: 20000, instructions: 909090.9090909091, off_chip_rate: 0.54845, l1_to_l1_rate: 0.0009, misclassification_rate: 0.0, reclassifications: 0 }";
    assert_eq!(run(LlcDesign::Shared, &WorkloadSpec::em3d()), golden);
    assert_eq!(
        run_replayed(LlcDesign::Shared, &WorkloadSpec::em3d()),
        golden
    );
}

#[test]
fn golden_rnuca_oltp_db2() {
    let golden = "MeasuredRun { cpi: DetailedCpi { breakdown: CpiBreakdown { busy: 1.0, l1_to_l1: 0.022621199999999998, l2: 0.33446699999999996, off_chip: 1.8754134, other: 0.13377, reclassification: 0.050780099999999995 }, l2_private_data: 0.0171696, l2_instructions: 0.2938908, l2_shared_load: 0.0234066, l2_shared_coherence: 0.0, off_chip_instructions: 0.504042 }, accesses: 20000, instructions: 476190.4761904762, off_chip_rate: 0.35735, l1_to_l1_rate: 0.02755, misclassification_rate: 0.0121, reclassifications: 116 }";
    assert_eq!(
        run(LlcDesign::rnuca_default(), &WorkloadSpec::oltp_db2()),
        golden
    );
    assert_eq!(
        run_replayed(LlcDesign::rnuca_default(), &WorkloadSpec::oltp_db2()),
        golden
    );
}

#[test]
fn golden_ideal_dss_qry6() {
    let golden = "MeasuredRun { cpi: DetailedCpi { breakdown: CpiBreakdown { busy: 0.8, l1_to_l1: 0.0, l2: 0.058130799999999996, off_chip: 2.254668, other: 0.03822, reclassification: 0.0 }, l2_private_data: 3.64e-5, l2_instructions: 0.057220799999999995, l2_shared_load: 0.0008736, l2_shared_coherence: 0.0, off_chip_instructions: 0.0271362 }, accesses: 20000, instructions: 769230.7692307692, off_chip_rate: 0.7353, l1_to_l1_rate: 0.0, misclassification_rate: 0.0, reclassifications: 0 }";
    assert_eq!(run(LlcDesign::Ideal, &WorkloadSpec::dss_qry6()), golden);
    assert_eq!(
        run_replayed(LlcDesign::Ideal, &WorkloadSpec::dss_qry6()),
        golden
    );
}

// ---- the second geometry: the same designs pinned at 64 cores --------------

#[test]
fn golden_private_oltp_db2_64c() {
    let golden = "MeasuredRun { cpi: DetailedCpi { breakdown: CpiBreakdown { busy: 1.0, l1_to_l1: 0.0578802, l2: 1.2812394, off_chip: 2.0100822, other: 0.13377, reclassification: 0.0 }, l2_private_data: 0.0050274, l2_instructions: 1.2105282, l2_shared_load: 0.0003528, l2_shared_coherence: 0.065331, off_chip_instructions: 0.1751526 }, accesses: 20000, instructions: 476190.4761904762, off_chip_rate: 0.3067, l1_to_l1_rate: 0.03015, misclassification_rate: 0.0, reclassifications: 0 }";
    let spec = at_64_cores(&WorkloadSpec::oltp_db2());
    assert_eq!(run(LlcDesign::Private, &spec), golden);
}

#[test]
fn golden_asr_adaptive_oltp_db2_64c() {
    let golden = "MeasuredRun { cpi: DetailedCpi { breakdown: CpiBreakdown { busy: 1.0, l1_to_l1: 0.0578802, l2: 1.3616021999999999, off_chip: 2.0100822, other: 0.13377, reclassification: 0.0 }, l2_private_data: 0.0050274, l2_instructions: 1.2909918, l2_shared_load: 0.0003528, l2_shared_coherence: 0.0652302, off_chip_instructions: 0.1751526 }, accesses: 20000, instructions: 476190.4761904762, off_chip_rate: 0.3067, l1_to_l1_rate: 0.03015, misclassification_rate: 0.0, reclassifications: 0 }";
    let spec = at_64_cores(&WorkloadSpec::oltp_db2());
    let design = LlcDesign::Asr {
        policy: AsrPolicy::Adaptive,
    };
    assert_eq!(run(design, &spec), golden);
}

#[test]
fn golden_shared_em3d_64c() {
    let golden = "MeasuredRun { cpi: DetailedCpi { breakdown: CpiBreakdown { busy: 0.7, l1_to_l1: 0.0006424, l2: 0.0173558, off_chip: 1.8811078, other: 0.1327788, reclassification: 0.0 }, l2_private_data: 0.00020240000000000001, l2_instructions: 0.0156816, l2_shared_load: 0.0014718, l2_shared_coherence: 0.0, off_chip_instructions: 0.011657800000000001 }, accesses: 20000, instructions: 909090.9090909091, off_chip_rate: 0.549, l1_to_l1_rate: 0.00085, misclassification_rate: 0.0, reclassifications: 0 }";
    let spec = at_64_cores(&WorkloadSpec::em3d());
    assert_eq!(run(LlcDesign::Shared, &spec), golden);
}

#[test]
fn golden_rnuca_oltp_db2_64c() {
    let golden = "MeasuredRun { cpi: DetailedCpi { breakdown: CpiBreakdown { busy: 1.0, l1_to_l1: 0.0359226, l2: 0.1677648, off_chip: 3.3596052, other: 0.13377, reclassification: 0.054041399999999996 }, l2_private_data: 0.0050274, l2_instructions: 0.12957, l2_shared_load: 0.0331674, l2_shared_coherence: 0.0, off_chip_instructions: 1.6725029999999999 }, accesses: 20000, instructions: 476190.4761904762, off_chip_rate: 0.574, l1_to_l1_rate: 0.0286, misclassification_rate: 0.01185, reclassifications: 120 }";
    let spec = at_64_cores(&WorkloadSpec::oltp_db2());
    assert_eq!(run(LlcDesign::rnuca_default(), &spec), golden);
}

#[test]
fn golden_ideal_dss_qry6_64c() {
    let golden = "MeasuredRun { cpi: DetailedCpi { breakdown: CpiBreakdown { busy: 0.8, l1_to_l1: 0.0, l2: 0.0580944, off_chip: 2.4848486, other: 0.03822, reclassification: 0.0 }, l2_private_data: 0.0, l2_instructions: 0.057220799999999995, l2_shared_load: 0.0008736, l2_shared_coherence: 0.0, off_chip_instructions: 0.0298818 }, accesses: 20000, instructions: 769230.7692307692, off_chip_rate: 0.7354, l1_to_l1_rate: 0.0, misclassification_rate: 0.0, reclassifications: 0 }";
    let spec = at_64_cores(&WorkloadSpec::dss_qry6());
    assert_eq!(run(LlcDesign::Ideal, &spec), golden);
}
