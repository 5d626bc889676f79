//! One measured run as a warehouse row, and its dedup key.
//!
//! A [`RunRecord`] mirrors the column [catalog](crate::catalog::CATALOG)
//! field-for-field (minus `batch`, which the store assigns at append
//! time). Its [`key`](RunRecord::key) is what makes the store idempotent:
//! appending a record whose key is already present is a no-op, so
//! re-ingesting a report or re-running a sweep adds zero rows.

use crate::store::Value;
use rnuca_types::Fnv64;

/// What a row measures, i.e. which subset of columns it populates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowKind {
    /// One perf scenario: per-(workload, design, cores) simulation metrics.
    Scenario,
    /// One fused perf group: wall-clock aggregate over a scenario group
    /// (perf schema v5 and older).
    Group,
    /// Whole-report totals: throughput over every group in one perf run.
    Totals,
    /// One sweep point from a [`ScenarioMatrix`] evaluation run.
    ///
    /// [`ScenarioMatrix`]: https://example.invalid/rnuca-sim
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
            RowKind::Group => "group",
            RowKind::Totals => "totals",
            RowKind::Sweep => "sweep",
            RowKind::Failed => "failed",
        }
    }
}

/// One run, ready to append into a [`Warehouse`](crate::Warehouse).
///
/// Fields are public by design: producers (the perf harness, the sweep
/// driver, the JSON ingester) construct a skeleton with [`RunRecord::new`]
/// and fill in whichever metric columns the row kind carries. `None`
/// stores as a null cell.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Row kind; stored in the `kind` column.
    pub kind: RowKind,
    /// Workload name (`apache`, `em3d`, ...), when the row is per-workload.
    pub workload: Option<String>,
    /// LLC design letter-name (`R`, `P`, `S`, `A`, `I`), when per-design.
    pub design: Option<String>,
    /// Geometry point letter from the paper's sweep (`a`..`d`).
    pub letter: Option<String>,
    /// Core count of the simulated CMP.
    pub cores: Option<i64>,
    /// LLC slice capacity in KiB.
    pub slice_kb: Option<i64>,
    /// R-NUCA fixed-center cluster size.
    pub cluster: Option<i64>,
    /// Workload fingerprint: FNV-1a of the full workload spec on native
    /// appends, of the workload name on JSON ingests (the JSON report does
    /// not carry the spec). Not a column; folded into the dedup key.
    pub fingerprint: u64,
    /// RNG seed the run used.
    pub seed: i64,
    /// Schema version of the producing pipeline (perf schema for
    /// scenario/group/totals rows, sweep schema for sweep rows).
    pub schema: i64,
    /// Experiment config label: `full`, `quick`, `smoke`, or `custom`.
    pub config: String,
    /// True when the producing run was filtered (`figures perf --filter`)
    /// and therefore does not cover the full scenario set. Gate queries
    /// exclude partial rows explicitly (`partial=false`).
    pub partial: bool,
    /// Scenario group key (`workload/letter/Ncores`), on group rows.
    pub group: Option<String>,
    /// References simulated (warm-up plus measured), where known.
    pub refs: Option<i64>,
    /// Scenario count (totals rows).
    pub scenarios: Option<i64>,
    /// Group count (totals rows).
    pub groups: Option<i64>,
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
    /// Wall-clock nanoseconds spent forking warmed snapshots (group rows
    /// of perf schema v5 and older).
    pub fork_nanos: Option<i64>,
    /// Wall-clock nanoseconds spent in the measured phase.
    pub measured_nanos: Option<i64>,
    /// Wall-clock nanoseconds for the timed loop: warm-up plus measurement
    /// since perf schema v6.
    pub loop_nanos: Option<i64>,
    /// Measured throughput in cache-block accesses per second.
    pub blocks_per_sec: Option<f64>,
    /// Measured throughput in scenario jobs per second.
    pub jobs_per_sec: Option<f64>,
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
            fingerprint: 0,
            seed,
            schema,
            config: config.to_string(),
            partial: false,
            group: None,
            refs: None,
            scenarios: None,
            groups: None,
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
            fork_nanos: None,
            measured_nanos: None,
            loop_nanos: None,
            blocks_per_sec: None,
            jobs_per_sec: None,
            failure: None,
        }
    }

    /// The dedup key for this record.
    ///
    /// Deterministic rows (scenario, sweep) are keyed by *identity* — what
    /// was run: workload fingerprint, design, geometry, seed, schema,
    /// config, and the partial flag. Their metrics are a pure function of
    /// that identity, so re-running the same point maps to the same key
    /// and the first row wins — repeated sweeps are incremental.
    ///
    /// Timing rows (group, totals) measure wall-clock, which is *not* a
    /// function of identity, so they are keyed by full content: the same
    /// report re-ingested dedups to zero new rows, while a genuinely new
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
            RowKind::Group | RowKind::Totals => self.hash_metrics(&mut h),
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
        h.write_u64(self.fingerprint);
        h.write_i64(self.seed);
        h.write_i64(self.schema);
        h.write_str(&self.config);
        h.write_bool(self.partial);
        hash_opt_str(h, self.group.as_deref());
    }

    fn hash_metrics(&self, h: &mut Fnv64) {
        hash_opt_i64(h, self.refs);
        hash_opt_i64(h, self.scenarios);
        hash_opt_i64(h, self.groups);
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
        hash_opt_i64(h, self.fork_nanos);
        hash_opt_i64(h, self.measured_nanos);
        hash_opt_i64(h, self.loop_nanos);
        hash_opt_f64(h, self.blocks_per_sec);
        hash_opt_f64(h, self.jobs_per_sec);
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
            "partial" => Value::Bool(self.partial),
            "group" => opt_str(self.group.as_deref()),
            "refs" => opt_int(self.refs),
            "scenarios" => opt_int(self.scenarios),
            "groups" => opt_int(self.groups),
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
            "fork_nanos" => opt_int(self.fork_nanos),
            "measured_nanos" => opt_int(self.measured_nanos),
            "loop_nanos" => opt_int(self.loop_nanos),
            "blocks_per_sec" => opt_float(self.blocks_per_sec),
            "jobs_per_sec" => opt_float(self.jobs_per_sec),
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
        r.letter = Some("b".into());
        r.cores = Some(32);
        r.fingerprint = 0xDEAD_BEEF;
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
        a.blocks_per_sec = Some(5.5e6);
        let mut b = a.clone();
        assert_eq!(a.key(), b.key());
        b.blocks_per_sec = Some(5.6e6);
        assert_ne!(a.key(), b.key(), "totals metrics are part of the key");
    }

    #[test]
    fn partial_flag_and_kind_separate_keys() {
        let a = scenario();
        let mut b = scenario();
        b.partial = true;
        assert_ne!(a.key(), b.key());

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
