//! Property test: the [`Snap`] codec the sweep journal stores results with
//! is a faithful round trip.
//!
//! For random `(design, seed, warm-up length)` triples, serializing a
//! measured run and restoring the bytes must reproduce the original bit for
//! bit — the `Debug` strings match too, and `f64`'s `Debug` output is the
//! shortest round-trippable decimal form — and must consume exactly the
//! bytes the encoding produced. Re-serializing the restored run must also
//! reproduce the original byte buffer, which pins the encoding itself as
//! canonical.

use proptest::prelude::*;
use rnuca_sim::{AsrPolicy, CmpSimulator, LlcDesign, MeasuredRun};
use rnuca_types::snap::{Snap, SnapReader};
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

        let mut bytes = Vec::new();
        run.encode(&mut bytes);
        let mut reader = SnapReader::new(&bytes);
        let restored = MeasuredRun::decode(&mut reader);
        prop_assert_eq!(reader.remaining(), 0, "decode must consume the whole encoding");
        prop_assert!(
            restored == run && format!("{restored:?}") == format!("{run:?}"),
            "restore(serialize(r)) != r for {design}, seed {seed}, warmup {warmup}"
        );
        let mut again = Vec::new();
        restored.encode(&mut again);
        prop_assert!(
            again == bytes,
            "re-serialization is not canonical for {design}, seed {seed}, warmup {warmup}"
        );
    }
}
