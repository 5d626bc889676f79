//! JSON → warehouse ingestion, and the perf-regression gate as a query.
//!
//! The warehouse ([`rnuca_warehouse`]) is the system of record for measured
//! runs; the JSON artifacts (`BENCH_perf.json`, sweep documents) are views
//! derived from it. This module closes the loop in both directions:
//!
//! * [`PerfReport::to_records`] converts a freshly measured report into
//!   warehouse rows natively, and [`records_from_json`] converts a
//!   checked-in artifact back into the *same* rows — the emitters use
//!   shortest-roundtrip float formatting, so a report that goes out through
//!   `to_json` and comes back through the ingester produces bit-identical
//!   cells. Re-ingesting a file the store has already seen therefore adds
//!   zero rows.
//! * [`evaluate_gate_query`] reimplements the CI perf-regression gate as a
//!   warehouse query: probe the latest non-partial totals row for the run
//!   configuration, then ask the query engine whether that row clears the
//!   baseline threshold. The verdict is definitionally the legacy
//!   [`evaluate_gate`](crate::perf::evaluate_gate)'s comparison, evaluated
//!   by the same engine that serves `figures query` — the tests pin the
//!   equivalence on passing and regressed reports.
//!
//! Rows ingested from a filtered run (`figures perf --filter=`) carry
//! `partial=true`; gate queries exclude them explicitly (`partial=false`),
//! so a partial report can never satisfy — or poison — the gate.

use crate::json::JsonValue;
use crate::perf::{
    default_perf_scenarios, GateOutcome, PerfBaseline, PerfReport, PERF_SCHEMA_VERSION,
};
use rnuca_sim::{ExperimentConfig, SWEEP_SCHEMA_VERSION};
use rnuca_types::Fnv64;
use rnuca_warehouse::{RowKind, RunRecord, Value, Warehouse};
use std::collections::HashSet;

/// What kind of document an ingested file turned out to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestKind {
    /// A `BENCH_perf.json` throughput report (perf schema).
    PerfReport,
    /// A `figures sweep` scenario-matrix document.
    Sweep,
}

impl IngestKind {
    /// Human-readable label for CLI output.
    pub fn as_str(self) -> &'static str {
        match self {
            IngestKind::PerfReport => "perf report",
            IngestKind::Sweep => "sweep",
        }
    }
}

/// The workload fingerprint JSON ingests use: FNV-1a over the workload
/// *name*. A JSON artifact does not carry the full workload spec, so the
/// name is the strongest identity both sides of a round-trip can agree on;
/// [`PerfReport::to_records`] uses the same function so native rows and
/// re-ingested rows collide (dedup) instead of duplicating.
fn name_fingerprint(name: &str) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(name);
    h.finish()
}

/// Maps `(warmup_refs, measured_refs)` onto the preset config labels the
/// baseline document is keyed by (`full` / `quick` / `smoke`), or `custom`.
fn config_label(warmup_refs: usize, measured_refs: usize) -> &'static str {
    let mut cfg = ExperimentConfig::smoke();
    cfg.warmup_refs = warmup_refs;
    cfg.measured_refs = measured_refs;
    cfg.label()
}

impl PerfReport {
    /// This report as warehouse rows: one `scenario` row per result and one
    /// `totals` row. `partial` marks rows from a filtered run so gate
    /// queries can exclude them.
    ///
    /// The warehouse has no warm-up column: a row's `loop_nanos` is its
    /// warm-up plus measured time and `measured_nanos` the measured part,
    /// so the warm-up is their difference.
    ///
    /// The `design` column stores the design *letter* (`P`/`A`/`S`/`R`/`I`),
    /// matching the sweep rows, so `design=R` selects R-NUCA across every
    /// row kind.
    pub fn to_records(&self, partial: bool) -> Vec<RunRecord> {
        let label = self.cfg.label();
        let seed = self.cfg.seed as i64;
        let schema = PERF_SCHEMA_VERSION as i64;
        let mut records = Vec::with_capacity(self.results.len() + 1);
        for res in &self.results {
            let mut r = RunRecord::new(RowKind::Scenario, seed, schema, label);
            r.partial = partial;
            r.fingerprint = name_fingerprint(&res.workload);
            r.workload = Some(res.workload.clone());
            r.design = Some(res.letter.to_string());
            r.letter = Some(res.letter.to_string());
            r.cores = Some(res.cores as i64);
            r.refs = Some(res.refs as i64);
            r.total_cpi = Some(res.total_cpi);
            r.off_chip_rate = Some(res.off_chip_rate);
            r.measured_nanos = Some(res.measured_nanos as i64);
            r.loop_nanos = Some((res.warmup_nanos + res.measured_nanos) as i64);
            records.push(r);
        }
        let t = &self.totals;
        let mut r = RunRecord::new(RowKind::Totals, seed, schema, label);
        r.partial = partial;
        r.scenarios = Some(t.scenarios as i64);
        r.refs = Some(t.refs as i64);
        r.measured_nanos = Some(t.measured_nanos as i64);
        r.loop_nanos = Some(t.loop_nanos as i64);
        r.blocks_per_sec = Some(t.blocks_per_sec);
        r.jobs_per_sec = Some(t.jobs_per_sec);
        records.push(r);
        records
    }
}

/// Parses a benchmark artifact into warehouse rows, detecting whether it is
/// a perf report (has `schema_version` and `scenarios`) or a sweep document
/// (has `results`).
///
/// Perf reports are checked against [`default_perf_scenarios`]: a report
/// that does not cover the full default scenario set came from a filtered
/// run, and its rows are marked `partial=true` so gate queries skip them.
///
/// # Errors
///
/// Returns a message locating the problem: JSON syntax errors carry line
/// and column, structural errors name the missing or mistyped field.
pub fn records_from_json(text: &str) -> Result<(Vec<RunRecord>, IngestKind), String> {
    let doc = JsonValue::parse(text).map_err(|e| e.to_string())?;
    if doc.get("schema_version").is_some() && doc.get("scenarios").is_some() {
        Ok((perf_records(&doc)?, IngestKind::PerfReport))
    } else if doc.get("results").is_some() {
        Ok((sweep_records(&doc)?, IngestKind::Sweep))
    } else {
        Err(
            "unrecognized document: expected a perf report (schema_version + scenarios) \
             or a sweep (results)"
                .to_string(),
        )
    }
}

fn perf_records(doc: &JsonValue) -> Result<Vec<RunRecord>, String> {
    let schema = num(doc, "schema_version", "report")? as i64;
    let config = doc
        .get("config")
        .ok_or_else(|| "report: missing 'config' object".to_string())?;
    let warmup = num(config, "warmup_refs", "config")? as usize;
    let measured = num(config, "measured_refs", "config")? as usize;
    let seed = num(config, "seed", "config")? as i64;
    let label = config_label(warmup, measured);

    if schema != PERF_SCHEMA_VERSION as i64 {
        return Err(format!(
            "report: perf schema {schema} is not the supported version {PERF_SCHEMA_VERSION}"
        ));
    }
    let scenarios = array(doc, "scenarios", "report")?;
    let totals = doc
        .get("totals")
        .ok_or_else(|| "report: missing 'totals' object".to_string())?;

    // A report that does not cover the full default scenario set came from
    // a filtered run: mark every row partial so the gate ignores it.
    let full: HashSet<(String, String, i64)> = default_perf_scenarios()
        .iter()
        .map(|s| {
            (
                s.workload.name.clone(),
                s.design.letter().to_string(),
                s.cores as i64,
            )
        })
        .collect();
    let mut have = HashSet::new();
    for (i, s) in scenarios.iter().enumerate() {
        let ctx = format!("scenarios[{i}]");
        have.insert((
            string(s, "workload", &ctx)?,
            string(s, "letter", &ctx)?,
            num(s, "cores", &ctx)? as i64,
        ));
    }
    let partial = !full.is_subset(&have);

    let mut records = Vec::with_capacity(scenarios.len() + 1);
    for (i, s) in scenarios.iter().enumerate() {
        let ctx = format!("scenarios[{i}]");
        let workload = string(s, "workload", &ctx)?;
        let letter = string(s, "letter", &ctx)?;
        let mut r = RunRecord::new(RowKind::Scenario, seed, schema, label);
        r.partial = partial;
        r.fingerprint = name_fingerprint(&workload);
        r.workload = Some(workload);
        r.design = Some(letter.clone());
        r.letter = Some(letter);
        r.cores = Some(num(s, "cores", &ctx)? as i64);
        r.refs = Some(num(s, "refs", &ctx)? as i64);
        r.total_cpi = Some(num(s, "total_cpi", &ctx)?);
        r.off_chip_rate = Some(num(s, "off_chip_rate", &ctx)?);
        let measured = num(s, "measured_nanos", &ctx)? as i64;
        r.measured_nanos = Some(measured);
        r.loop_nanos = Some(num(s, "warmup_nanos", &ctx)? as i64 + measured);
        records.push(r);
    }
    let mut r = RunRecord::new(RowKind::Totals, seed, schema, label);
    r.partial = partial;
    r.scenarios = Some(num(totals, "scenarios", "totals")? as i64);
    r.refs = Some(num(totals, "refs", "totals")? as i64);
    r.measured_nanos = Some(num(totals, "measured_nanos", "totals")? as i64);
    r.loop_nanos = Some(num(totals, "loop_nanos", "totals")? as i64);
    r.blocks_per_sec = Some(num(totals, "blocks_per_sec", "totals")?);
    r.jobs_per_sec = Some(num(totals, "jobs_per_sec", "totals")?);
    records.push(r);
    Ok(records)
}

fn sweep_records(doc: &JsonValue) -> Result<Vec<RunRecord>, String> {
    let config = doc
        .get("config")
        .ok_or_else(|| "sweep: missing 'config' object".to_string())?;
    let warmup = num(config, "warmup_refs", "config")? as usize;
    let measured = num(config, "measured_refs", "config")? as usize;
    let seed = num(config, "seed", "config")? as i64;
    let label = config_label(warmup, measured);
    let results = array(doc, "results", "sweep")?;

    let mut records = Vec::with_capacity(results.len());
    for (i, res) in results.iter().enumerate() {
        let ctx = format!("results[{i}]");
        let workload = string(res, "workload", &ctx)?;
        let letter = string(res, "letter", &ctx)?;
        let cpi = res
            .get("cpi")
            .ok_or_else(|| format!("{ctx}: missing 'cpi' object"))?;
        let mut r = RunRecord::new(RowKind::Sweep, seed, SWEEP_SCHEMA_VERSION as i64, label);
        r.fingerprint = name_fingerprint(&workload);
        r.workload = Some(workload);
        r.design = Some(letter.clone());
        r.letter = Some(letter);
        r.cores = Some(num(res, "cores", &ctx)? as i64);
        r.slice_kb = Some(num(res, "slice_kb", &ctx)? as i64);
        r.cluster = res
            .get("cluster")
            .and_then(JsonValue::as_f64)
            .map(|c| c as i64);
        r.refs = Some((warmup + measured) as i64);
        r.total_cpi = Some(num(res, "total_cpi", &ctx)?);
        r.cpi_busy = Some(num(cpi, "busy", &ctx)?);
        r.cpi_l1_to_l1 = Some(num(cpi, "l1_to_l1", &ctx)?);
        r.cpi_l2 = Some(num(cpi, "l2", &ctx)?);
        r.cpi_off_chip = Some(num(cpi, "off_chip", &ctx)?);
        r.cpi_other = Some(num(cpi, "other", &ctx)?);
        r.cpi_reclass = Some(num(cpi, "reclassification", &ctx)?);
        r.off_chip_rate = Some(num(res, "off_chip_rate", &ctx)?);
        r.l1_to_l1_rate = Some(num(res, "l1_to_l1_rate", &ctx)?);
        records.push(r);
    }
    Ok(records)
}

fn num(v: &JsonValue, key: &str, ctx: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("{ctx}: missing or non-numeric field '{key}'"))
}

fn string(v: &JsonValue, key: &str, ctx: &str) -> Result<String, String> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("{ctx}: missing or non-string field '{key}'"))
}

fn array<'a>(v: &'a JsonValue, key: &str, ctx: &str) -> Result<&'a [JsonValue], String> {
    v.get(key)
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("{ctx}: missing or non-array field '{key}'"))
}

/// The perf-regression gate, reimplemented as a warehouse query.
///
/// Two queries decide the verdict:
///
/// 1. A probe finds the run under test — the *latest* non-partial totals
///    row for `config`:
///    `kind=totals & config='<config>' & partial=false sort batch desc top 1`.
/// 2. The verdict re-selects that row with the threshold as one more
///    filter: `... & batch=<B> & blocks_per_sec>=<threshold>` where
///    `<threshold>` is `gate_blocks_per_sec * (1 - tolerance)` — the gate
///    passes iff the row survives.
///
/// Thresholds round-trip exactly: Rust formats the `f64` with
/// shortest-roundtrip notation and the query lexer parses it back to the
/// same bits, so the verdict is bit-for-bit the comparison the legacy
/// [`evaluate_gate`](crate::perf::evaluate_gate) computes.
///
/// # Errors
///
/// Returns a message when the store holds no eligible totals row for
/// `config`, or when a query fails (which would be a bug, as both queries
/// are generated).
pub fn evaluate_gate_query(
    store: &Warehouse,
    baseline: &PerfBaseline,
    config: &str,
) -> Result<GateOutcome, String> {
    let probe = format!(
        "kind=totals & config='{config}' & partial=false \
         sort batch desc top 1 show batch, blocks_per_sec"
    );
    let out = store
        .query(&probe)
        .map_err(|errs| format!("gate probe query failed:\n{}", join_errors(&errs, &probe)))?;
    let row = out.rows.first().ok_or_else(|| {
        format!("the store holds no non-partial totals row for config '{config}'")
    })?;
    let (batch, got) = match (&row[0], &row[1]) {
        (Value::Int(b), Value::Float(v)) => (*b, *v),
        _ => return Err("gate probe returned unexpected cell types".to_string()),
    };
    let threshold = baseline.gate_blocks_per_sec * (1.0 - baseline.tolerance);
    let verdict = format!(
        "kind=totals & config='{config}' & partial=false \
         & batch={batch} & blocks_per_sec>={threshold}"
    );
    let pass = store
        .query(&verdict)
        .map_err(|errs| {
            format!(
                "gate verdict query failed:\n{}",
                join_errors(&errs, &verdict)
            )
        })?
        .rows
        .len()
        == 1;
    let ratio = |b: f64| if b > 0.0 { got / b } else { 0.0 };
    Ok(GateOutcome {
        baseline: *baseline,
        speedup_vs_pre_optimization: ratio(baseline.pre_optimization_blocks_per_sec),
        ratio_vs_gate: ratio(baseline.gate_blocks_per_sec),
        pass,
    })
}

fn join_errors(errors: &[rnuca_warehouse::QueryError], source: &str) -> String {
    rnuca_warehouse::render_errors(errors, source)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::{evaluate_gate, run_perf_scenarios, PerfScenario};
    use rnuca_sim::{ExperimentEngine, LlcDesign};
    use rnuca_workloads::WorkloadSpec;

    fn tiny_report() -> PerfReport {
        let mut cfg = ExperimentConfig::smoke();
        cfg.warmup_refs = 600;
        cfg.measured_refs = 400;
        let spec = WorkloadSpec::oltp_db2();
        let scenarios = vec![
            PerfScenario {
                workload: spec.clone(),
                design: LlcDesign::Shared,
                cores: 16,
            },
            PerfScenario {
                workload: spec,
                design: LlcDesign::rnuca_default(),
                cores: 16,
            },
        ];
        run_perf_scenarios(&scenarios, &cfg, &ExperimentEngine::with_workers(1))
    }

    fn baseline() -> PerfBaseline {
        PerfBaseline {
            pre_optimization_blocks_per_sec: 1e6,
            gate_blocks_per_sec: 2e6,
            tolerance: 0.25,
        }
    }

    #[test]
    fn ingesting_the_emitted_report_reproduces_the_native_records() {
        // The emitters use shortest-roundtrip float formatting, so the JSON
        // round-trip must reproduce the native records *exactly* — field for
        // field, bit for bit. This is what makes "ingest after perf" a
        // no-op: the keys collide and dedup wins.
        let report = tiny_report();
        let native = report.to_records(true); // 2 scenarios ⊂ 45: partial.
        let (ingested, kind) = records_from_json(&report.to_json()).expect("parses");
        assert_eq!(kind, IngestKind::PerfReport);
        assert_eq!(native, ingested);

        let store = Warehouse::new();
        let first = store.append_all(&native);
        assert_eq!(first.added, native.len());
        let second = store.append_all(&ingested);
        assert_eq!(second.added, 0, "re-ingest adds zero rows");
        assert_eq!(second.deduplicated, ingested.len());
    }

    #[test]
    fn full_scenario_coverage_is_not_partial() {
        // A report covering every default scenario is a full run; the
        // ingester must not mark it partial. Fabricate one from the default
        // list without simulating (the metrics don't matter for the flag).
        let labels: Vec<String> = default_perf_scenarios()
            .iter()
            .map(|s| {
                format!(
                    r#"{{"workload": "{}", "design": "x", "letter": "{}", "cores": {},
                        "refs": 1, "total_cpi": 1.0, "off_chip_rate": 0.1,
                        "warmup_nanos": 1, "measured_nanos": 1}}"#,
                    s.workload.name,
                    s.design.letter(),
                    s.cores
                )
            })
            .collect();
        let doc = format!(
            r#"{{"schema_version": 6,
                 "config": {{"warmup_refs": 600000, "measured_refs": 300000, "seed": 42}},
                 "scenarios": [{}],
                 "totals": {{"scenarios": 45, "refs": 45, "measured_nanos": 1, "loop_nanos": 2,
                             "blocks_per_sec": 5.0, "jobs_per_sec": 1.0}}}}"#,
            labels.join(",")
        );
        let (records, _) = records_from_json(&doc).expect("parses");
        assert!(records.iter().all(|r| !r.partial));
        assert_eq!(records.last().unwrap().config, "full", "600k/300k is full");
    }

    #[test]
    fn sweep_documents_ingest_and_dedup() {
        let mut cfg = ExperimentConfig::smoke();
        cfg.warmup_refs = 1_500;
        cfg.measured_refs = 1_000;
        let mut m = rnuca_sim::ScenarioMatrix::new(cfg);
        m.workloads = vec![WorkloadSpec::oltp_db2()];
        m.designs = vec![LlcDesign::Shared, LlcDesign::rnuca_default()];
        let sweep = m.run_with(&ExperimentEngine::with_workers(1)).unwrap();

        let (records, kind) = records_from_json(&sweep.to_json()).expect("parses");
        assert_eq!(kind, IngestKind::Sweep);
        assert_eq!(records.len(), sweep.results.len());
        assert!(records.iter().all(|r| r.kind == RowKind::Sweep));
        assert!(records.iter().all(|r| r.config == "custom"));

        let store = Warehouse::new();
        assert_eq!(store.append_all(&records).added, records.len());
        assert_eq!(store.append_all(&records).added, 0);
        let out = store
            .query("design=R show cluster, total_cpi")
            .expect("clean query");
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0][0].to_string(), "4");
    }

    #[test]
    fn unrecognized_documents_are_rejected_with_context() {
        assert!(records_from_json("not json").unwrap_err().contains("line"));
        let err = records_from_json(r#"{"something": 1}"#).unwrap_err();
        assert!(err.contains("perf report"), "got: {err}");
        assert!(err.contains("sweep"), "got: {err}");
        // Structural problems name the field and its position.
        let err = records_from_json(
            r#"{"schema_version": 6, "config": {"warmup_refs": 1, "measured_refs": 1, "seed": 1},
                "scenarios": [{"workload": 7}], "totals": {}}"#,
        )
        .unwrap_err();
        assert!(err.contains("scenarios[0]"), "got: {err}");
        assert!(err.contains("workload"), "got: {err}");
        // A report of another perf schema is refused by its version.
        let err = records_from_json(
            r#"{"schema_version": 5, "config": {"warmup_refs": 1, "measured_refs": 1, "seed": 1},
                "scenarios": [], "groups": [], "totals": {}}"#,
        )
        .unwrap_err();
        assert!(err.contains("perf schema 5"), "got: {err}");
    }

    #[test]
    fn gate_query_matches_the_legacy_verdict_on_pass_and_regression() {
        let mut report = tiny_report();
        report.totals.blocks_per_sec = 1.6e6; // above 2M * 0.75: pass
        let store = Warehouse::new();
        store.append_all(&report.to_records(false));

        let legacy = evaluate_gate(&report, &baseline());
        let query = evaluate_gate_query(&store, &baseline(), report.cfg.label()).unwrap();
        assert!(legacy.pass);
        assert_eq!(query.pass, legacy.pass);
        assert_eq!(query.ratio_vs_gate, legacy.ratio_vs_gate);
        assert_eq!(
            query.speedup_vs_pre_optimization,
            legacy.speedup_vs_pre_optimization
        );

        // A synthetically regressed run lands in a later batch; the probe's
        // `sort batch desc top 1` must judge it, not the older passing row.
        let mut regressed = report.clone();
        regressed.totals.blocks_per_sec = 1.4e6; // below 2M * 0.75: fail
        store.append_all(&regressed.to_records(false));
        let legacy = evaluate_gate(&regressed, &baseline());
        let query = evaluate_gate_query(&store, &baseline(), regressed.cfg.label()).unwrap();
        assert!(!legacy.pass);
        assert_eq!(query.pass, legacy.pass);
        assert_eq!(query.ratio_vs_gate, legacy.ratio_vs_gate);
    }

    #[test]
    fn gate_verdict_is_exact_at_the_threshold_boundary() {
        // The threshold travels through the query as text; shortest-
        // roundtrip formatting must keep the >= comparison bit-exact even
        // when the run sits precisely on the boundary.
        let b = baseline();
        let exact = b.gate_blocks_per_sec * (1.0 - b.tolerance);
        for (bps, want) in [
            (exact, true),
            (f64::from_bits(exact.to_bits() - 1), false),
            (f64::from_bits(exact.to_bits() + 1), true),
        ] {
            let mut report = tiny_report();
            report.totals.blocks_per_sec = bps;
            let store = Warehouse::new();
            store.append_all(&report.to_records(false));
            let legacy = evaluate_gate(&report, &b);
            let query = evaluate_gate_query(&store, &b, report.cfg.label()).unwrap();
            assert_eq!(query.pass, want, "query verdict at bps={bps:?}");
            assert_eq!(legacy.pass, want, "legacy verdict at bps={bps:?}");
        }
    }

    #[test]
    fn partial_rows_never_satisfy_the_gate() {
        // A filtered run with absurdly high throughput lands after a failing
        // full run; the gate must still fail because partial rows are
        // excluded — and an all-partial store has no eligible row at all.
        let mut failing = tiny_report();
        failing.totals.blocks_per_sec = 1.0; // hopeless
        let mut flattering = tiny_report();
        flattering.totals.blocks_per_sec = 1e12;

        let store = Warehouse::new();
        store.append_all(&failing.to_records(false));
        store.append_all(&flattering.to_records(true)); // partial
        let query = evaluate_gate_query(&store, &baseline(), failing.cfg.label()).unwrap();
        assert!(!query.pass, "a partial run cannot rescue the gate");

        let only_partial = Warehouse::new();
        only_partial.append_all(&flattering.to_records(true));
        let err = evaluate_gate_query(&only_partial, &baseline(), "custom").unwrap_err();
        assert!(err.contains("no non-partial totals row"), "got: {err}");
    }
}
