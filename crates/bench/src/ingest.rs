//! JSON → warehouse ingestion.
//!
//! The warehouse ([`rnuca_warehouse`]) is the system of record for measured
//! runs; the JSON artifacts (perf reports, sweep documents) are views
//! derived from it. [`PerfReport::to_records`] converts a freshly measured
//! report into warehouse rows natively, and [`records_from_json`] converts
//! an emitted artifact back into the *same* rows — the emitters use
//! shortest-roundtrip float formatting, so a report that goes out through
//! `to_json` and comes back through the ingester produces bit-identical
//! cells. Re-ingesting a file the store has already seen therefore adds
//! zero rows, which CI checks on every run.

use crate::json::JsonValue;
use crate::perf::{PerfReport, PERF_SCHEMA_VERSION};
use rnuca_sim::{ExperimentConfig, SWEEP_SCHEMA_VERSION};
use rnuca_types::Fnv64;
use rnuca_warehouse::{RowKind, RunRecord};

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

/// Maps `(warmup_refs, measured_refs)` onto the preset config labels
/// (`full` / `quick` / `smoke`), or `custom`.
fn config_label(warmup_refs: usize, measured_refs: usize) -> &'static str {
    let mut cfg = ExperimentConfig::smoke();
    cfg.warmup_refs = warmup_refs;
    cfg.measured_refs = measured_refs;
    cfg.label()
}

impl PerfReport {
    /// This report as warehouse rows: one `scenario` row per result and one
    /// `totals` row carrying the run's `refs_per_sec` headline.
    ///
    /// The `design` column stores the design *letter* (`P`/`A`/`S`/`R`/`I`),
    /// matching the sweep rows, so `design=R` selects R-NUCA across every
    /// row kind.
    pub fn to_records(&self) -> Vec<RunRecord> {
        let label = self.cfg.label();
        let seed = self.cfg.seed as i64;
        let schema = PERF_SCHEMA_VERSION as i64;
        let mut records = Vec::with_capacity(self.results.len() + 1);
        for res in &self.results {
            let mut r = RunRecord::new(RowKind::Scenario, seed, schema, label);
            r.fingerprint = name_fingerprint(&res.workload);
            r.workload = Some(res.workload.clone());
            r.design = Some(res.letter.to_string());
            r.letter = Some(res.letter.to_string());
            r.cores = Some(res.cores as i64);
            r.refs = Some(res.refs as i64);
            r.total_cpi = Some(res.total_cpi);
            r.off_chip_rate = Some(res.off_chip_rate);
            r.warmup_nanos = Some(res.warmup_nanos as i64);
            r.measured_nanos = Some(res.measured_nanos as i64);
            records.push(r);
        }
        let t = &self.totals;
        let mut r = RunRecord::new(RowKind::Totals, seed, schema, label);
        r.scenarios = Some(t.scenarios as i64);
        r.refs = Some(t.refs as i64);
        r.warmup_nanos = Some(t.warmup_nanos as i64);
        r.measured_nanos = Some(t.measured_nanos as i64);
        r.refs_per_sec = Some(t.refs_per_sec);
        records.push(r);
        records
    }
}

/// Parses a benchmark artifact into warehouse rows, detecting whether it is
/// a perf report (has `schema_version` and `scenarios`) or a sweep document
/// (has `results`). A perf report of another schema version is refused.
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

    let mut records = Vec::with_capacity(scenarios.len() + 1);
    for (i, s) in scenarios.iter().enumerate() {
        let ctx = format!("scenarios[{i}]");
        let workload = string(s, "workload", &ctx)?;
        let letter = string(s, "letter", &ctx)?;
        let mut r = RunRecord::new(RowKind::Scenario, seed, schema, label);
        r.fingerprint = name_fingerprint(&workload);
        r.workload = Some(workload);
        r.design = Some(letter.clone());
        r.letter = Some(letter);
        r.cores = Some(num(s, "cores", &ctx)? as i64);
        r.refs = Some(num(s, "refs", &ctx)? as i64);
        r.total_cpi = Some(num(s, "total_cpi", &ctx)?);
        r.off_chip_rate = Some(num(s, "off_chip_rate", &ctx)?);
        r.warmup_nanos = Some(num(s, "warmup_nanos", &ctx)? as i64);
        r.measured_nanos = Some(num(s, "measured_nanos", &ctx)? as i64);
        records.push(r);
    }
    let mut r = RunRecord::new(RowKind::Totals, seed, schema, label);
    r.scenarios = Some(num(totals, "scenarios", "totals")? as i64);
    r.refs = Some(num(totals, "refs", "totals")? as i64);
    r.warmup_nanos = Some(num(totals, "warmup_nanos", "totals")? as i64);
    r.measured_nanos = Some(num(totals, "measured_nanos", "totals")? as i64);
    r.refs_per_sec = Some(num(totals, "refs_per_sec", "totals")?);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::{perf_matrix, run_perf};
    use rnuca_sim::{ExperimentEngine, LlcDesign};
    use rnuca_warehouse::Warehouse;
    use rnuca_workloads::{TraceArena, WorkloadSpec};

    fn tiny_report() -> PerfReport {
        let mut cfg = ExperimentConfig::smoke();
        cfg.warmup_refs = 600;
        cfg.measured_refs = 400;
        let mut m = rnuca_sim::ScenarioMatrix::new(cfg);
        m.workloads = vec![WorkloadSpec::oltp_db2()];
        m.designs = vec![LlcDesign::Shared, LlcDesign::rnuca_default()];
        let scenarios = m.jobs().expect("baseline jobs are valid");
        run_perf(
            &scenarios,
            &cfg,
            &ExperimentEngine::with_workers(1),
            &TraceArena::new(),
        )
    }

    #[test]
    fn ingesting_the_emitted_report_reproduces_the_native_records() {
        // The emitters use shortest-roundtrip float formatting, so the JSON
        // round-trip must reproduce the native records *exactly* — field for
        // field, bit for bit. This is what makes "ingest after perf" a
        // no-op: the keys collide and dedup wins.
        let report = tiny_report();
        let native = report.to_records();
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
    fn full_config_reports_ingest_under_the_full_label() {
        // A report's run lengths decide its config label, so a full-config
        // report's rows are queryable as `config=full`. Fabricate one from
        // the default list without simulating (the metrics don't matter).
        let labels: Vec<String> = perf_matrix(ExperimentConfig::full())
            .jobs()
            .expect("standard core counts are valid for every preset")
            .iter()
            .map(|s| {
                format!(
                    r#"{{"workload": "{}", "design": "x", "letter": "{}", "cores": {},
                        "refs": 1, "total_cpi": 1.0, "off_chip_rate": 0.1,
                        "warmup_nanos": 1, "measured_nanos": 1}}"#,
                    s.workload.name,
                    s.design.letter(),
                    s.workload.num_cores()
                )
            })
            .collect();
        let doc = format!(
            r#"{{"schema_version": 7,
                 "config": {{"warmup_refs": 600000, "measured_refs": 300000, "seed": 42}},
                 "scenarios": [{}],
                 "totals": {{"scenarios": 45, "refs": 45, "tracegen_nanos": 1,
                             "warmup_nanos": 1, "measured_nanos": 1, "elapsed_nanos": 9,
                             "refs_per_sec": 5.0}}}}"#,
            labels.join(",")
        );
        let (records, _) = records_from_json(&doc).expect("parses");
        assert_eq!(records.len(), 46, "45 scenario rows and one totals row");
        assert!(
            records.iter().all(|r| r.config == "full"),
            "600k/300k is full"
        );
        let totals = records.last().unwrap();
        assert_eq!(totals.kind, RowKind::Totals);
        assert_eq!(totals.refs_per_sec, Some(5.0));
    }

    #[test]
    fn sweep_documents_ingest_and_dedup() {
        let mut cfg = ExperimentConfig::smoke();
        cfg.warmup_refs = 1_500;
        cfg.measured_refs = 1_000;
        let mut m = rnuca_sim::ScenarioMatrix::new(cfg);
        m.workloads = vec![WorkloadSpec::oltp_db2()];
        m.designs = vec![LlcDesign::Shared, LlcDesign::rnuca_default()];
        let sweep = m
            .run(&rnuca_sim::SweepOptions::new(
                ExperimentEngine::with_workers(1),
            ))
            .unwrap()
            .sweep
            .into_sweep();

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
            r#"{"schema_version": 7, "config": {"warmup_refs": 1, "measured_refs": 1, "seed": 1},
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
        // So is schema 6, whose totals have no `refs_per_sec` headline.
        let err = records_from_json(
            r#"{"schema_version": 6, "config": {"warmup_refs": 1, "measured_refs": 1, "seed": 1},
                "scenarios": [], "totals": {"scenarios": 0, "refs": 0}}"#,
        )
        .unwrap_err();
        assert!(err.contains("perf schema 6"), "got: {err}");
    }
}
