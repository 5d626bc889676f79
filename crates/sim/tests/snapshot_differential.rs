//! Differential fork suite: forking a warmed simulator — `clone()` of one
//! that has streamed its warm-up — must be indistinguishable, bit for bit,
//! from streaming the warm-up yourself.
//!
//! For every LLC design (including a static ASR variant forked from a
//! simulator warmed under the adaptive policy) × three geometries
//! (16/32/64 cores) × three seeds, the suite warms one simulator, measures
//! a fork of it, and compares that with a fresh simulator that streams the
//! warm-up and measures. The two [`MeasuredRun`]s must be equal *and*
//! render identical `Debug` strings — `f64`'s `Debug` output is the
//! shortest round-trippable decimal form, so string equality is
//! bit-identity on every CPI component and rate.
//!
//! The suite also pins the sharing discipline: forking twice from one
//! warmed simulator yields identical runs (no state leaks through a fork),
//! and concurrent jobs warming in place over shared arena streams generate
//! each unique stream exactly once and agree with each other.

use rnuca_sim::{AsrPolicy, CmpSimulator, LlcDesign, MeasuredRun};
use rnuca_types::config::ConfigPoint;
use rnuca_workloads::{TraceArena, WorkloadSpec};

const WARMUP: usize = 5_000;
const MEASURED: usize = 4_000;
const CORE_COUNTS: [usize; 3] = [16, 32, 64];
const SEEDS: [u64; 3] = [11, 20_260_727, 0x00C0_FFEE];

/// The five designs plus a static ASR variant, so the matrix covers a fork
/// whose design differs from the design its original was warmed with.
fn designs() -> Vec<LlcDesign> {
    vec![
        LlcDesign::Private,
        LlcDesign::Asr {
            policy: AsrPolicy::Adaptive,
        },
        LlcDesign::Asr {
            policy: AsrPolicy::Static(0.25),
        },
        LlcDesign::Shared,
        LlcDesign::rnuca_default(),
        LlcDesign::Ideal,
    ]
}

fn geometries() -> Vec<WorkloadSpec> {
    CORE_COUNTS
        .iter()
        .map(|&cores| {
            let point = ConfigPoint {
                num_cores: Some(cores),
                ..ConfigPoint::default()
            };
            WorkloadSpec::oltp_db2()
                .at_config_point(&point)
                .expect("standard core counts are valid for the preset")
        })
        .collect()
}

fn warm_then_measure(
    design: LlcDesign,
    spec: &WorkloadSpec,
    seed: u64,
    traces: &TraceArena,
) -> MeasuredRun {
    let mut slice = traces.slice(spec, seed, WARMUP + MEASURED);
    let mut sim = CmpSimulator::with_seed(design, spec, seed);
    sim.run_warmup(&mut slice, WARMUP);
    sim.run_measured(&mut slice, MEASURED)
}

/// A simulator of `design`'s warm-up class that has streamed the warm-up.
/// ASR variants all warm as the adaptive version.
fn warmed(design: LlcDesign, spec: &WorkloadSpec, seed: u64, traces: &TraceArena) -> CmpSimulator {
    let class = match design {
        LlcDesign::Asr { .. } => LlcDesign::Asr {
            policy: AsrPolicy::Adaptive,
        },
        other => other,
    };
    let mut slice = traces.slice(spec, seed, WARMUP + MEASURED);
    let mut sim = CmpSimulator::with_seed(class, spec, seed);
    sim.run_warmup(&mut slice, WARMUP);
    sim
}

fn fork_then_measure(
    original: &CmpSimulator,
    design: LlcDesign,
    spec: &WorkloadSpec,
    seed: u64,
    traces: &TraceArena,
) -> MeasuredRun {
    let mut sim = original.clone();
    if let LlcDesign::Asr { policy } = design {
        sim.set_asr_policy(policy);
    }
    let mut slice = traces.slice(spec, seed, WARMUP + MEASURED);
    slice.skip(WARMUP);
    sim.run_measured(&mut slice, MEASURED)
}

#[test]
fn forked_runs_are_byte_identical_to_streamed_runs() {
    let traces = TraceArena::new();
    for spec in geometries() {
        for seed in SEEDS {
            for design in designs() {
                let original = warmed(design, &spec, seed, &traces);
                let streamed = warm_then_measure(design, &spec, seed, &traces);
                let forked = fork_then_measure(&original, design, &spec, seed, &traces);
                assert_eq!(
                    streamed,
                    forked,
                    "fork diverged from streaming: {design} / {} cores / seed {seed}",
                    spec.num_cores()
                );
                assert_eq!(
                    format!("{streamed:?}"),
                    format!("{forked:?}"),
                    "Debug digests diverged: {design} / {} cores / seed {seed}",
                    spec.num_cores()
                );
            }
        }
    }
    // One stream per (geometry, seed), however many simulators replayed it.
    assert_eq!(traces.len(), CORE_COUNTS.len() * SEEDS.len());
    assert_eq!(traces.generations(), traces.len());
}

#[test]
fn forking_twice_from_one_snapshot_yields_identical_runs() {
    let traces = TraceArena::new();
    let spec = WorkloadSpec::em3d();
    let design = LlcDesign::rnuca_default();
    let seed = 7;
    let original = warmed(design, &spec, seed, &traces);
    let first = fork_then_measure(&original, design, &spec, seed, &traces);
    let second = fork_then_measure(&original, design, &spec, seed, &traces);
    assert_eq!(
        format!("{first:?}"),
        format!("{second:?}"),
        "a fork must not mutate the simulator it came from"
    );
    assert_eq!(traces.generations(), 1, "both forks replayed one stream");
}

#[test]
fn concurrent_requests_warm_each_unique_key_exactly_once() {
    let traces = TraceArena::new();
    let spec = WorkloadSpec::em3d();
    // Eight threads race to warm in place over two distinct streams.
    let runs: Vec<(u64, MeasuredRun)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let (traces, spec) = (&traces, &spec);
                s.spawn(move || {
                    let (design, seed) = if i % 2 == 0 {
                        (LlcDesign::Shared, 5)
                    } else {
                        (LlcDesign::Private, 6)
                    };
                    let mut slice = traces.slice(spec, seed, 2_000);
                    let mut sim = CmpSimulator::with_seed(design, spec, seed);
                    sim.run_warmup(&mut slice, 1_000);
                    (seed, sim.run_measured(&mut slice, 1_000))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up thread panicked"))
            .collect()
    });
    assert_eq!(traces.len(), 2, "two unique keys were requested");
    assert_eq!(
        traces.generations(),
        2,
        "each unique key generated exactly once despite eight concurrent requests"
    );
    for (seed, run) in &runs {
        let first = runs.iter().find(|(s, _)| s == seed).expect("present");
        assert_eq!(
            format!("{run:?}"),
            format!("{:?}", first.1),
            "concurrent warm-ups of one key diverged"
        );
    }
}
