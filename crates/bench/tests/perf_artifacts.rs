//! Keeps the checked-in perf artifacts honest: `bench/baseline.json` must
//! parse for every run configuration, and the recorded `BENCH_perf.json`
//! must carry the documented schema, consistent totals, a passing gate, and
//! its speedup over the pre-optimization number.

use rnuca_bench::{JsonValue, PerfBaseline};
use std::path::PathBuf;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(name: &str) -> String {
    let path = repo_root().join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

#[test]
fn checked_in_baseline_has_a_section_per_config() {
    let text = read("bench/baseline.json");
    for config in ["smoke", "quick", "full"] {
        let b = PerfBaseline::from_json(&text, config)
            .unwrap_or_else(|e| panic!("baseline section {config}: {e}"));
        assert!(
            b.pre_optimization_blocks_per_sec > 0.0,
            "{config}: pre-opt must be positive"
        );
        assert!(
            b.gate_blocks_per_sec > 0.0,
            "{config}: gate must be positive"
        );
        assert!(
            (0.0..1.0).contains(&b.tolerance),
            "{config}: tolerance must be a fraction, got {}",
            b.tolerance
        );
    }
}

#[test]
fn recorded_bench_perf_json_parses_with_schema_and_speedup() {
    let doc = JsonValue::parse(&read("BENCH_perf.json")).expect("BENCH_perf.json must parse");
    assert_eq!(
        doc.get("schema_version").and_then(JsonValue::as_f64),
        Some(6.0)
    );
    let scenarios = doc
        .get("scenarios")
        .and_then(JsonValue::as_array)
        .expect("scenarios array");
    assert_eq!(
        scenarios.len(),
        45,
        "5 designs x 3 workloads x 3 core counts"
    );
    let field = |v: &JsonValue, key: &str| -> f64 {
        v.get(key)
            .and_then(JsonValue::as_f64)
            .unwrap_or_else(|| panic!("record must carry numeric {key}"))
    };
    let (mut refs, mut warmup, mut measured) = (0.0, 0.0, 0.0);
    for s in scenarios {
        for key in ["workload", "design", "letter"] {
            assert!(s.get(key).is_some(), "scenario record must carry {key}");
        }
        assert!(field(s, "cores") > 0.0);
        assert!(field(s, "total_cpi") > 0.0);
        assert!(field(s, "off_chip_rate") >= 0.0);
        assert!(field(s, "warmup_nanos") > 0.0, "every scenario warmed");
        assert!(field(s, "measured_nanos") > 0.0, "every scenario measured");
        refs += field(s, "refs");
        warmup += field(s, "warmup_nanos");
        measured += field(s, "measured_nanos");
    }
    assert!(doc.get("groups").is_none(), "schema v6 has no fused groups");

    // The totals add up: refs and both phases are the scenario sums, and
    // the gated loop is warm-up plus measurement, nothing else.
    let totals = doc.get("totals").expect("totals object");
    assert_eq!(field(totals, "refs"), refs);
    assert_eq!(field(totals, "warmup_nanos"), warmup);
    assert_eq!(field(totals, "measured_nanos"), measured);
    assert_eq!(field(totals, "loop_nanos"), warmup + measured);
    assert!(field(totals, "blocks_per_sec") > 0.0);

    // Trace generation runs once per unique stream before any scenario, and
    // it is a phase of the run, not the whole of it.
    let tracegen = field(totals, "tracegen_nanos");
    assert!(tracegen > 0.0, "recorded run materialized streams");
    assert!(tracegen < field(totals, "elapsed_nanos"));

    // The recorded run carries a passing regression-gate verdict, and its
    // speedup over the pre-optimization number is the totals' own rate.
    let baseline = doc
        .get("baseline")
        .expect("recorded run must include the baseline block");
    assert_eq!(
        baseline.get("gate_pass").and_then(JsonValue::as_bool),
        Some(true)
    );
    let speedup = field(baseline, "speedup_vs_pre_optimization");
    let expected =
        field(totals, "blocks_per_sec") / field(baseline, "pre_optimization_blocks_per_sec");
    assert!(
        (speedup - expected).abs() <= 1e-9 * expected,
        "speedup {speedup} must be blocks_per_sec / pre_optimization ({expected})"
    );
}
