//! Warm-reuse fidelity: the one place warmed state is shared — the ASR
//! best-of-six sweep — must be indistinguishable, bit for bit, from warming
//! every variant itself.
//!
//! For each of the six ASR variants × three geometries (16/32/64 cores) ×
//! three seeds, the suite compares two runs of the same scenario: a fresh
//! simulator that streams the warm-up and then measures, and a clone of one
//! simulator warmed once per `(geometry, seed)`, switched to the variant
//! with `set_asr_policy` and then measured. The two [`MeasuredRun`]s must be
//! equal *and* render identical `Debug` strings — `f64`'s `Debug` output is
//! the shortest round-trippable decimal form, so string equality is
//! bit-identity on every CPI component and rate. Every variant measures a
//! clone of the same warmed original, so the suite also proves measuring a
//! clone leaves the original untouched. Per `(geometry, seed)`, the suite
//! also checks that an ASR [`ScenarioJob`] under `asr_best_of` reports
//! exactly the lowest-CPI run of the six fresh ones.
//!
//! Run it in release mode (`cargo test --release -p rnuca-sim --test
//! warm_reuse_fidelity`): it drives 63 warm-up windows, up to 64 cores.

use rnuca_sim::{AsrPolicy, CmpSimulator, ExperimentConfig, LlcDesign, MeasuredRun, ScenarioJob};
use rnuca_types::config::ConfigPoint;
use rnuca_workloads::{TraceArena, WorkloadSpec};

const WARMUP: usize = 5_000;
/// Longer than two windows of the adaptive ASR controller (10 000
/// references), so a clone that kept the wrong controller mode or
/// probability measures differently from a fresh run.
const MEASURED: usize = 24_000;
const CORE_COUNTS: [usize; 3] = [16, 32, 64];
const SEEDS: [u64; 3] = [11, 20_260_727, 0x00C0_FFEE];

fn at_cores(cores: usize) -> WorkloadSpec {
    let point = ConfigPoint {
        num_cores: Some(cores),
        ..ConfigPoint::default()
    };
    WorkloadSpec::oltp_db2()
        .at_config_point(&point)
        .expect("standard core counts are valid for the preset")
}

fn warm_then_measure(
    policy: AsrPolicy,
    spec: &WorkloadSpec,
    seed: u64,
    traces: &TraceArena,
) -> MeasuredRun {
    let mut slice = traces.slice(spec, seed, WARMUP + MEASURED);
    let mut sim = CmpSimulator::with_seed(LlcDesign::Asr { policy }, spec, seed);
    sim.run_warmup(&mut slice, WARMUP);
    sim.run_measured(&mut slice, MEASURED)
}

#[test]
fn cloned_asr_variants_are_byte_identical_to_fresh_runs() {
    let traces = TraceArena::new();
    let variants = AsrPolicy::all_versions();
    assert_eq!(variants.len(), 6);
    for cores in CORE_COUNTS {
        let spec = at_cores(cores);
        for seed in SEEDS {
            // Warm once, under a different variant than most clones measure.
            let mut slice = traces.slice(&spec, seed, WARMUP + MEASURED);
            let warm_design = LlcDesign::Asr {
                policy: AsrPolicy::Adaptive,
            };
            let mut warmed = CmpSimulator::with_seed(warm_design, &spec, seed);
            warmed.run_warmup(&mut slice, WARMUP);
            let mut fresh_runs = Vec::new();
            for &policy in &variants {
                let mut sim = warmed.clone();
                sim.set_asr_policy(policy);
                assert_eq!(sim.design(), LlcDesign::Asr { policy });
                let cloned = sim.run_measured(&mut slice.clone(), MEASURED);
                let fresh = warm_then_measure(policy, &spec, seed, &traces);
                let design = LlcDesign::Asr { policy };
                assert_eq!(
                    cloned, fresh,
                    "clone diverged from a fresh warm-up: {design} / {cores} cores / seed {seed}"
                );
                assert_eq!(
                    format!("{cloned:?}"),
                    format!("{fresh:?}"),
                    "Debug digests diverged: {design} / {cores} cores / seed {seed}"
                );
                fresh_runs.push(fresh);
            }
            let (best_of_six, _) = ScenarioJob {
                workload: spec.clone(),
                design: warm_design,
                point: ConfigPoint {
                    num_cores: Some(cores),
                    ..ConfigPoint::default()
                },
            }
            .run(
                &ExperimentConfig {
                    warmup_refs: WARMUP,
                    measured_refs: MEASURED,
                    seed,
                    asr_best_of: true,
                },
                &traces,
                None,
            );
            let fastest = fresh_runs
                .into_iter()
                .min_by(|a, b| a.total_cpi().total_cmp(&b.total_cpi()))
                .expect("six fresh runs");
            assert_eq!(
                best_of_six, fastest,
                "best of six diverged from the fastest fresh run: {cores} cores / seed {seed}"
            );
        }
    }
}
