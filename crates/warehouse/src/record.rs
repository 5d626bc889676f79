//! One measured run as a warehouse row, and its dedup key.
//!
//! A [`RunRecord`] mirrors the column [catalog](crate::catalog::CATALOG)
//! field-for-field (minus `batch`, which the store assigns at append
//! time). Its [`key`](RunRecord::key) is what makes the store idempotent:
//! appending a record whose key is already present is a no-op, so
//! re-running a sweep adds zero rows.

use crate::store::Value;
use rnuca_types::Fnv64;

/// What a row measures, i.e. which subset of columns it populates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowKind {
    /// One perf scenario: per-(workload, design, cores) simulation metrics.
    Scenario,
    /// Whole-report totals: throughput over every scenario in one perf run.
    Totals,
    /// One sweep point from an `rnuca_sim::ScenarioMatrix` evaluation run.
    Sweep,
    /// One quarantined sweep point: the job was supervised, every attempt
    /// failed, and instead of silently vanishing from results it is stored
    /// with its failure message in the `failure` column (queryable as
    /// `kind=failed`).
    Failed,
}

impl RowKind {
    /// The lowercase string stored in the `kind` column and used in queries.
    pub fn as_str(self) -> &'static str {
        match self {
            RowKind::Scenario => "scenario",
            RowKind::Totals => "totals",
            RowKind::Sweep => "sweep",
            RowKind::Failed => "failed",
        }
    }
}

/// One run, ready to append into a [`Warehouse`](crate::Warehouse).
///
/// Fields are public by design: the producers that measured the run (the
/// perf harness, the sweep driver) construct a skeleton with
/// [`RunRecord::new`] and fill in whichever metric columns the row kind
/// carries. `None` stores as a null cell.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Row kind; stored in the `kind` column.
    pub kind: RowKind,
    /// Workload name (`apache`, `em3d`, ...), when the row is per-workload.
    pub workload: Option<String>,
    /// LLC design letter-name (`R`, `P`, `S`, `A`, `I`), when per-design.
    pub design: Option<String>,
    /// The design letter again (`R`, `P`, `S`, `A`, `I`): every producer
    /// stores the same letter here as in `design`.
    pub letter: Option<String>,
    /// Core count of the simulated CMP.
    pub cores: Option<i64>,
    /// LLC slice capacity in KiB.
    pub slice_kb: Option<i64>,
    /// R-NUCA fixed-center cluster size.
    pub cluster: Option<i64>,
    /// The `JobKey` of the job that measured this row (`rnuca_sim`'s hash
    /// of everything its result is computed from), or 0 on rows no single
    /// job measured. Not a column; folded into the dedup key.
    pub job_key: u64,
    /// RNG seed the run used.
    pub seed: i64,
    /// Schema version of the producing pipeline (perf schema for
    /// scenario/totals rows, sweep schema for sweep rows).
    pub schema: i64,
    /// Experiment config label: `full`, `quick`, `smoke`, or `custom`.
    pub config: String,
    /// References simulated (warm-up plus measured), where known.
    pub refs: Option<i64>,
    /// Scenario count (totals rows).
    pub scenarios: Option<i64>,
    /// Total cycles-per-instruction.
    pub total_cpi: Option<f64>,
    /// CPI component: busy (compute) cycles.
    pub cpi_busy: Option<f64>,
    /// CPI component: L1-to-L1 transfers.
    pub cpi_l1_to_l1: Option<f64>,
    /// CPI component: L2 (LLC) hits.
    pub cpi_l2: Option<f64>,
    /// CPI component: off-chip accesses.
    pub cpi_off_chip: Option<f64>,
    /// CPI component: everything else.
    pub cpi_other: Option<f64>,
    /// CPI component: R-NUCA reclassification overhead.
    pub cpi_reclass: Option<f64>,
    /// Fraction of accesses that went off-chip.
    pub off_chip_rate: Option<f64>,
    /// Fraction of accesses served by a peer L1.
    pub l1_to_l1_rate: Option<f64>,
    /// Fraction of accesses the classifier initially misclassified.
    pub misclass_rate: Option<f64>,
    /// Count of page reclassification events.
    pub reclassifications: Option<i64>,
    /// Wall-clock nanoseconds spent in the warm-up phase (summed over
    /// scenarios on totals rows).
    pub warmup_nanos: Option<i64>,
    /// Wall-clock nanoseconds spent in the measured phase (summed over
    /// scenarios on totals rows).
    pub measured_nanos: Option<i64>,
    /// End-to-end throughput of a perf run: references stepped (warm-up
    /// plus measured, every scenario) per second of the run's elapsed
    /// wall-clock time (totals rows).
    pub refs_per_sec: Option<f64>,
    /// Failure description (`cause after N attempts: message`), on failed
    /// rows.
    pub failure: Option<String>,
}

impl RunRecord {
    /// A skeleton record with every optional column null.
    pub fn new(kind: RowKind, seed: i64, schema: i64, config: &str) -> Self {
        RunRecord {
            kind,
            workload: None,
            design: None,
            letter: None,
            cores: None,
            slice_kb: None,
            cluster: None,
            job_key: 0,
            seed,
            schema,
            config: config.to_string(),
            refs: None,
            scenarios: None,
            total_cpi: None,
            cpi_busy: None,
            cpi_l1_to_l1: None,
            cpi_l2: None,
            cpi_off_chip: None,
            cpi_other: None,
            cpi_reclass: None,
            off_chip_rate: None,
            l1_to_l1_rate: None,
            misclass_rate: None,
            reclassifications: None,
            warmup_nanos: None,
            measured_nanos: None,
            refs_per_sec: None,
            failure: None,
        }
    }

    /// The dedup key for this record.
    ///
    /// Deterministic rows (scenario, sweep) are keyed by *identity* — what
    /// was run: the [`job_key`](RunRecord::job_key) plus the workload,
    /// design, geometry, seed, schema and config columns. The job key
    /// hashes everything the job's result is computed from, the model
    /// version included, so re-running the same job under the same model
    /// maps to the same key and the first row wins — repeated sweeps are
    /// incremental — while a job that differs in anything its result
    /// depends on appends a row of its own.
    ///
    /// Totals rows measure wall-clock, which is *not* a
    /// function of identity, so they are keyed by full content: the same
    /// report stored twice dedups to zero new rows, while a genuinely new
    /// run of the same configuration appends fresh rows.
    ///
    /// Failed rows are keyed by identity *plus* the failure text: resuming
    /// the same quarantined job dedups to one row, while the same point
    /// failing differently (a new message after a code change) stays
    /// visible as its own row.
    pub fn key(&self) -> u64 {
        let mut h = Fnv64::new();
        self.hash_identity(&mut h);
        match self.kind {
            RowKind::Scenario | RowKind::Sweep => {}
            RowKind::Totals => self.hash_metrics(&mut h),
            RowKind::Failed => hash_opt_str(&mut h, self.failure.as_deref()),
        }
        h.finish()
    }

    fn hash_identity(&self, h: &mut Fnv64) {
        h.write_str(self.kind.as_str());
        hash_opt_str(h, self.workload.as_deref());
        hash_opt_str(h, self.design.as_deref());
        hash_opt_str(h, self.letter.as_deref());
        hash_opt_i64(h, self.cores);
        hash_opt_i64(h, self.slice_kb);
        hash_opt_i64(h, self.cluster);
        h.write_u64(self.job_key);
        h.write_i64(self.seed);
        h.write_i64(self.schema);
        h.write_str(&self.config);
    }

    fn hash_metrics(&self, h: &mut Fnv64) {
        hash_opt_i64(h, self.refs);
        hash_opt_i64(h, self.scenarios);
        hash_opt_f64(h, self.total_cpi);
        hash_opt_f64(h, self.cpi_busy);
        hash_opt_f64(h, self.cpi_l1_to_l1);
        hash_opt_f64(h, self.cpi_l2);
        hash_opt_f64(h, self.cpi_off_chip);
        hash_opt_f64(h, self.cpi_other);
        hash_opt_f64(h, self.cpi_reclass);
        hash_opt_f64(h, self.off_chip_rate);
        hash_opt_f64(h, self.l1_to_l1_rate);
        hash_opt_f64(h, self.misclass_rate);
        hash_opt_i64(h, self.reclassifications);
        hash_opt_i64(h, self.warmup_nanos);
        hash_opt_i64(h, self.measured_nanos);
        hash_opt_f64(h, self.refs_per_sec);
    }

    /// The cell this record stores under catalog column `name`, with the
    /// store-assigned batch number.
    pub(crate) fn cell(&self, name: &str, batch: u32) -> Value {
        match name {
            "batch" => Value::Int(i64::from(batch)),
            "kind" => Value::Str(self.kind.as_str().to_string()),
            "workload" => opt_str(self.workload.as_deref()),
            "design" => opt_str(self.design.as_deref()),
            "letter" => opt_str(self.letter.as_deref()),
            "cores" => opt_int(self.cores),
            "slice_kb" => opt_int(self.slice_kb),
            "cluster" => opt_int(self.cluster),
            "seed" => Value::Int(self.seed),
            "schema" => Value::Int(self.schema),
            "config" => Value::Str(self.config.clone()),
            "refs" => opt_int(self.refs),
            "scenarios" => opt_int(self.scenarios),
            "total_cpi" => opt_float(self.total_cpi),
            "cpi_busy" => opt_float(self.cpi_busy),
            "cpi_l1_to_l1" => opt_float(self.cpi_l1_to_l1),
            "cpi_l2" => opt_float(self.cpi_l2),
            "cpi_off_chip" => opt_float(self.cpi_off_chip),
            "cpi_other" => opt_float(self.cpi_other),
            "cpi_reclass" => opt_float(self.cpi_reclass),
            "off_chip_rate" => opt_float(self.off_chip_rate),
            "l1_to_l1_rate" => opt_float(self.l1_to_l1_rate),
            "misclass_rate" => opt_float(self.misclass_rate),
            "reclassifications" => opt_int(self.reclassifications),
            "warmup_nanos" => opt_int(self.warmup_nanos),
            "measured_nanos" => opt_int(self.measured_nanos),
            "refs_per_sec" => opt_float(self.refs_per_sec),
            "failure" => opt_str(self.failure.as_deref()),
            other => unreachable!("column {other} is not in the catalog"),
        }
    }
}

fn opt_str(v: Option<&str>) -> Value {
    v.map_or(Value::Null, |s| Value::Str(s.to_string()))
}

fn opt_int(v: Option<i64>) -> Value {
    v.map_or(Value::Null, Value::Int)
}

fn opt_float(v: Option<f64>) -> Value {
    v.map_or(Value::Null, Value::Float)
}

fn hash_opt_str(h: &mut Fnv64, v: Option<&str>) {
    h.write_bool(v.is_some());
    if let Some(s) = v {
        h.write_str(s);
    }
}

fn hash_opt_i64(h: &mut Fnv64, v: Option<i64>) {
    h.write_bool(v.is_some());
    if let Some(x) = v {
        h.write_i64(x);
    }
}

fn hash_opt_f64(h: &mut Fnv64, v: Option<f64>) {
    h.write_bool(v.is_some());
    if let Some(x) = v {
        h.write_f64(x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario() -> RunRecord {
        let mut r = RunRecord::new(RowKind::Scenario, 42, 5, "full");
        r.workload = Some("apache".into());
        r.design = Some("R".into());
        r.letter = Some("R".into());
        r.cores = Some(32);
        r.job_key = 0xDEAD_BEEF;
        r.total_cpi = Some(1.25);
        r
    }

    #[test]
    fn deterministic_rows_key_by_identity_not_metrics() {
        let a = scenario();
        let mut b = scenario();
        b.total_cpi = Some(9.99);
        assert_eq!(a.key(), b.key(), "scenario metrics must not affect the key");

        let mut c = scenario();
        c.cores = Some(64);
        assert_ne!(a.key(), c.key(), "geometry is part of the identity");
    }

    #[test]
    fn timing_rows_key_by_content() {
        let mut a = RunRecord::new(RowKind::Totals, 42, 5, "full");
        a.refs_per_sec = Some(5.5e6);
        let mut b = a.clone();
        assert_eq!(a.key(), b.key());
        b.refs_per_sec = Some(5.6e6);
        assert_ne!(a.key(), b.key(), "totals metrics are part of the key");
    }

    #[test]
    fn identity_fields_and_kind_separate_keys() {
        let a = scenario();
        let mut b = scenario();
        b.config = "quick".into();
        assert_ne!(a.key(), b.key(), "the config label is part of the identity");
        let mut b = scenario();
        b.schema = 6;
        assert_ne!(
            a.key(),
            b.key(),
            "the schema version is part of the identity"
        );

        let mut c = scenario();
        c.kind = RowKind::Sweep;
        assert_ne!(a.key(), c.key());
    }

    #[test]
    fn every_catalog_column_has_a_cell() {
        let r = scenario();
        for col in crate::catalog::CATALOG {
            let _ = r.cell(col.name, 7);
        }
    }

    #[test]
    fn failed_rows_key_by_identity_plus_failure_text() {
        let mut a = scenario();
        a.kind = RowKind::Failed;
        a.failure = Some("panic after 3 attempts: boom".into());
        let b = a.clone();
        assert_eq!(a.key(), b.key(), "resuming the same failure must dedup");

        let mut c = a.clone();
        c.failure = Some("deadline after 1 attempt: too slow".into());
        assert_ne!(a.key(), c.key(), "a different failure is a new row");

        let mut d = a.clone();
        d.kind = RowKind::Sweep;
        d.failure = None;
        assert_ne!(a.key(), d.key(), "failed and sweep rows never collide");
        assert_eq!(a.cell("failure", 0), Value::Str(a.failure.clone().unwrap()));
        assert_eq!(d.cell("failure", 0), Value::Null);
    }
}
