//! Property test: the byte record the sweep journal stores results with
//! ([`MeasuredRun::to_bytes`]) is a faithful round trip.
//!
//! For random `(design, seed, warm-up length)` triples, serializing a
//! measured run and restoring the bytes must reproduce the original bit for
//! bit — the `Debug` strings match too, and `f64`'s `Debug` output is the
//! shortest round-trippable decimal form. Re-serializing the restored run
//! must also reproduce the original byte buffer, which pins the encoding
//! itself as canonical, and every strict prefix of the encoding must be
//! rejected with a typed error rather than decoded or panicked on.

use proptest::prelude::*;
use rnuca_sim::{AsrPolicy, CmpSimulator, LlcDesign, MeasuredRun};
use rnuca_workloads::{TraceArena, WorkloadSpec};

const MEASURED: usize = 500;

/// The five designs plus a static ASR variant.
fn design_from(idx: usize) -> LlcDesign {
    match idx {
        0 => LlcDesign::Private,
        1 => LlcDesign::Asr {
            policy: AsrPolicy::Adaptive,
        },
        2 => LlcDesign::Asr {
            policy: AsrPolicy::Static(0.75),
        },
        3 => LlcDesign::Shared,
        4 => LlcDesign::rnuca_default(),
        _ => LlcDesign::Ideal,
    }
}

proptest! {
    #[test]
    fn restore_of_serialize_is_identity(
        seed in 0u64..1_000_000_000,
        warmup in 0usize..1_500,
        design_idx in 0usize..6,
    ) {
        let design = design_from(design_idx);
        let spec = WorkloadSpec::em3d();
        let traces = TraceArena::new();
        let mut slice = traces.slice(&spec, seed, warmup + MEASURED);
        let mut sim = CmpSimulator::with_seed(design, &spec, seed);
        sim.run_warmup(&mut slice, warmup);
        let run = sim.run_measured(&mut slice, MEASURED);

        let bytes = run.to_bytes();
        let restored = MeasuredRun::from_bytes(&bytes).expect("a full encoding decodes");
        prop_assert!(
            restored == run && format!("{restored:?}") == format!("{run:?}"),
            "restore(serialize(r)) != r for {design}, seed {seed}, warmup {warmup}"
        );
        prop_assert!(
            restored.to_bytes() == bytes,
            "re-serialization is not canonical for {design}, seed {seed}, warmup {warmup}"
        );
        for cut in 0..bytes.len() {
            prop_assert!(
                MeasuredRun::from_bytes(&bytes[..cut]).is_err(),
                "a {cut}-byte prefix decoded for {design}, seed {seed}, warmup {warmup}"
            );
        }
    }
}
