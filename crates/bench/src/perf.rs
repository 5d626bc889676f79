//! The throughput benchmark behind `figures perf`.
//!
//! [`run_perf`] executes timed end-to-end simulations on the deterministic
//! [`ExperimentEngine`], and [`PerfReport::to_json`] emits the perf report
//! (`BENCH_perf.json` by default). The scenarios are the jobs of one
//! scenario matrix, [`perf_matrix`]: the five LLC designs × representative
//! workloads × 16/32/64 cores.
//!
//! Every scenario is one engine job that warms in place: it builds its
//! simulator, runs the warm-up prefix of its [`TraceArena`] slab, then
//! measures the rest. The two phases are timed separately
//! (`warmup_nanos`, `measured_nanos`). The unique reference streams are
//! materialized into the arena up front (`tracegen_nanos`, once per
//! `(workload, cores, seed)`, nine for the default list).
//!
//! The one headline is **refs/sec**: block references stepped (warm-up plus
//! measured, every scenario) per second of the run's *elapsed* wall-clock
//! time, trace generation and simulator construction included. It is the
//! rate `perfbench` reports as `refs_per_s` for the same run, and CI gates
//! on it by comparing a change against its merge-base on one host
//! (`bench/ab.py`), never against a number recorded on another machine.
//!
//! Everything except the timing fields is a pure function of the scenario
//! list and the [`ExperimentConfig`]: [`PerfReport::to_canonical_json`]
//! (timing zeroed) is byte-identical for every `--workers` value, which is
//! the schema-stability property the tests pin down.
//!
//! With `figures perf --store=`, the measured report also lands in the
//! results warehouse as [`PerfReport::to_records`] rows.

use rnuca_sim::{
    CmpSimulator, ExperimentConfig, ExperimentEngine, LlcDesign, MeasuredRun, ScenarioJob,
    ScenarioMatrix,
};
use rnuca_types::json::json_string;
use rnuca_warehouse::{RowKind, RunRecord};
use rnuca_workloads::{TraceArena, TraceKey, WorkloadSpec};
use std::collections::HashSet;
use std::time::Instant;

/// The perf suite as a matrix: a sharing-heavy server workload (OLTP DB2),
/// a nearest-neighbour scientific code (em3d), and a streaming scan with
/// capacity pressure (DSS Qry6) — together they exercise every step path:
/// L1-to-L1 forwarding, re-classification, and off-chip — at 16/32/64
/// cores under the five P/A/S/R/I designs. Its [`ScenarioMatrix::jobs`]
/// are the suite's 45 scenarios, ordered workload, then cores, then design.
pub fn perf_matrix(cfg: ExperimentConfig) -> ScenarioMatrix {
    ScenarioMatrix {
        workloads: vec![
            WorkloadSpec::oltp_db2(),
            WorkloadSpec::em3d(),
            WorkloadSpec::dss_qry6(),
        ],
        designs: LlcDesign::speedup_set(),
        core_counts: vec![16, 32, 64],
        ..ScenarioMatrix::new(cfg)
    }
}

/// Keeps the scenarios whose [`ScenarioJob::label`] contains `filter`
/// (ASCII-case-insensitive) — the engine behind `figures perf --filter=`,
/// for fast local perf iteration on a scenario subset.
pub fn filter_scenarios(scenarios: Vec<ScenarioJob>, filter: &str) -> Vec<ScenarioJob> {
    let filter = filter.to_ascii_lowercase();
    scenarios
        .into_iter()
        .filter(|s| s.label().to_ascii_lowercase().contains(&filter))
        .collect()
}

/// The timing and deterministic results of one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfResult {
    /// Workload name.
    pub workload: String,
    /// The workload's [`WorkloadSpec::fingerprint`]: the identity its
    /// warehouse row keys on. Not written to the JSON report.
    pub fingerprint: u64,
    /// Design letter ("P", "A", "S", "R", "I").
    pub letter: &'static str,
    /// Human-readable design name.
    pub design: String,
    /// Core count the scenario ran with.
    pub cores: usize,
    /// Block references the scenario steps (warm-up + measured).
    pub refs: u64,
    /// Total CPI of the measured window — a deterministic digest of the
    /// simulation outcome, used to detect result drift across worker counts.
    pub total_cpi: f64,
    /// Off-chip rate of the measured window (deterministic).
    pub off_chip_rate: f64,
    /// Wall-clock nanoseconds of the warm-up phase.
    pub warmup_nanos: u64,
    /// Wall-clock nanoseconds of the measured phase.
    pub measured_nanos: u64,
}

/// Aggregates over all scenarios of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfTotals {
    /// Number of scenarios executed.
    pub scenarios: usize,
    /// Total block references stepped (all scenarios, warm-up + measured).
    pub refs: u64,
    /// Wall-clock nanoseconds spent materializing the unique reference
    /// streams into the trace arena, before any scenario ran. Generation
    /// happens once per unique `(workload, cores, seed)` stream, not once
    /// per scenario.
    pub tracegen_nanos: u64,
    /// Summed warm-up time across scenarios, in nanoseconds.
    pub warmup_nanos: u64,
    /// Summed measured-phase time across scenarios, in nanoseconds.
    pub measured_nanos: u64,
    /// Wall-clock nanoseconds for the whole run (trace generation,
    /// construction, warm-up and measurement).
    pub elapsed_nanos: u64,
    /// The headline: `refs / elapsed_nanos`, in references per second.
    pub refs_per_sec: f64,
}

/// A complete perf run: configuration, per-scenario results, aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Run lengths and seed shared by every scenario.
    pub cfg: ExperimentConfig,
    /// One result per scenario, in scenario-list order (deterministic).
    pub results: Vec<PerfResult>,
    /// Aggregates over the whole run.
    pub totals: PerfTotals,
}

/// The version stamped into the perf report and the `schema` column of its
/// warehouse rows; bump when either changes. Version 8 keys `scenario` rows
/// on the full workload spec's fingerprint; earlier rows keyed on the
/// workload name.
pub const PERF_SCHEMA_VERSION: u64 = 8;

/// Runs `scenarios` on `engine`, timing each scenario's warm-up and
/// measured phases. The arena is explicit so callers can share streams
/// across runs and inspect deduplication.
///
/// Before any scenario runs, the unique reference streams behind the list
/// (one per `(workload, cores, seed)` — the 45-scenario default needs only
/// 9) are materialized into the [`TraceArena`] in parallel (reported as
/// `tracegen_nanos`). Each scenario is then one engine job that warms in
/// place and measures over its stream's slab. The streams stay in `arena`
/// after the run: this is the one caller that materializes every stream up
/// front, unlike `ScenarioMatrix::run`, which retires each stream after its
/// last job.
///
/// The deterministic fields of the report (scenario identity, reference
/// counts, CPI digests) are identical for every worker count; only the
/// timing fields vary run to run.
pub fn run_perf(
    scenarios: &[ScenarioJob],
    cfg: &ExperimentConfig,
    engine: &ExperimentEngine,
    arena: &TraceArena,
) -> PerfReport {
    let start = Instant::now();
    let mut seen = HashSet::new();
    let unique: Vec<&ScenarioJob> = scenarios
        .iter()
        .filter(|s| seen.insert(TraceKey::new(&s.workload, cfg.seed)))
        .collect();
    let t = Instant::now();
    engine.run(&unique, |_, s| {
        arena.populate(&s.workload, cfg.seed, cfg.total_refs())
    });
    let tracegen_nanos = saturating_nanos(t.elapsed().as_nanos());
    let timed = engine.run(scenarios, |_, s| time_scenario(s, cfg, arena));
    let elapsed_nanos = saturating_nanos(start.elapsed().as_nanos());

    let results: Vec<PerfResult> = scenarios
        .iter()
        .zip(timed)
        .map(|(s, (run, warmup_nanos, measured_nanos))| PerfResult {
            workload: s.workload.name.clone(),
            fingerprint: s.workload.fingerprint(),
            letter: s.design.letter(),
            design: s.design.to_string(),
            cores: s.workload.num_cores(),
            refs: cfg.total_refs() as u64,
            total_cpi: run.total_cpi(),
            off_chip_rate: run.off_chip_rate,
            warmup_nanos,
            measured_nanos,
        })
        .collect();
    let refs: u64 = results.iter().map(|r| r.refs).sum();
    let warmup_nanos: u64 = results.iter().map(|r| r.warmup_nanos).sum();
    let measured_nanos: u64 = results.iter().map(|r| r.measured_nanos).sum();
    let totals = PerfTotals {
        scenarios: results.len(),
        refs,
        tracegen_nanos,
        warmup_nanos,
        measured_nanos,
        elapsed_nanos,
        refs_per_sec: per_sec(refs, elapsed_nanos),
    };
    PerfReport {
        cfg: *cfg,
        results,
        totals,
    }
}

/// Runs one scenario over its pre-materialized arena stream and times its
/// two phases: the warm-up prefix and the measured window (construction
/// and trace generation excluded). Recording both makes phase-specific
/// regressions visible instead of averaged away.
///
/// The timers need the phases apart, so this does not call
/// [`ScenarioJob::run`]: every scenario is one warm-up and one measured
/// window under its own design, and ASR never runs best-of-six here.
fn time_scenario(
    s: &ScenarioJob,
    cfg: &ExperimentConfig,
    arena: &TraceArena,
) -> (MeasuredRun, u64, u64) {
    let mut slice = arena.slice(&s.workload, cfg.seed, cfg.total_refs());
    let mut sim = CmpSimulator::with_seed(s.design, &s.workload, cfg.seed);
    let t = Instant::now();
    sim.run_warmup(&mut slice, cfg.warmup_refs);
    let warmup_nanos = saturating_nanos(t.elapsed().as_nanos());
    let t = Instant::now();
    let run = sim.run_measured(&mut slice, cfg.measured_refs);
    let measured_nanos = saturating_nanos(t.elapsed().as_nanos());
    (run, warmup_nanos, measured_nanos)
}

fn per_sec(count: u64, nanos: u64) -> f64 {
    if nanos == 0 {
        return 0.0;
    }
    count as f64 * 1e9 / nanos as f64
}

fn saturating_nanos(n: u128) -> u64 {
    n.min(u64::MAX as u128) as u64
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
            r.fingerprint = res.fingerprint;
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

    /// The full document, timing included.
    pub fn to_json(&self) -> String {
        self.render(true)
    }

    /// The canonical document: every timing field zeroed.
    ///
    /// This is a pure function of the scenario list and the configuration —
    /// byte-identical for every `--workers` value and across runs.
    pub fn to_canonical_json(&self) -> String {
        self.render(false)
    }

    fn render(&self, timing: bool) -> String {
        let t = |v: f64| if timing { v } else { 0.0 };
        let tn = |v: u64| if timing { v } else { 0 };
        let mut out = String::with_capacity(512 + self.results.len() * 256);
        out.push_str("{\n");
        out.push_str(&format!("  \"schema_version\": {PERF_SCHEMA_VERSION},\n"));
        out.push_str(&format!(
            "  \"config\": {{\"warmup_refs\": {}, \"measured_refs\": {}, \"seed\": {}}},\n",
            self.cfg.warmup_refs, self.cfg.measured_refs, self.cfg.seed
        ));
        out.push_str("  \"scenarios\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"workload\": {}, \"design\": {}, \"letter\": \"{}\", \
                 \"cores\": {}, \"refs\": {}, \"total_cpi\": {}, \"off_chip_rate\": {}, \
                 \"warmup_nanos\": {}, \"measured_nanos\": {}}}",
                json_string(&r.workload),
                json_string(&r.design),
                r.letter,
                r.cores,
                r.refs,
                r.total_cpi,
                r.off_chip_rate,
                tn(r.warmup_nanos),
                tn(r.measured_nanos),
            ));
            out.push_str(if i + 1 < self.results.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"totals\": {{\"scenarios\": {}, \"refs\": {}, \"tracegen_nanos\": {}, \
             \"warmup_nanos\": {}, \"measured_nanos\": {}, \"elapsed_nanos\": {}, \
             \"refs_per_sec\": {}}}\n}}\n",
            self.totals.scenarios,
            self.totals.refs,
            tn(self.totals.tracegen_nanos),
            tn(self.totals.warmup_nanos),
            tn(self.totals.measured_nanos),
            tn(self.totals.elapsed_nanos),
            t(self.totals.refs_per_sec),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnuca_warehouse::Warehouse;

    fn tiny_cfg() -> ExperimentConfig {
        let mut cfg = ExperimentConfig::smoke();
        cfg.warmup_refs = 600;
        cfg.measured_refs = 400;
        cfg
    }

    /// Runs `scenarios` over a fresh arena.
    fn run(scenarios: &[ScenarioJob], cfg: &ExperimentConfig, workers: usize) -> PerfReport {
        run_perf(
            scenarios,
            cfg,
            &ExperimentEngine::with_workers(workers),
            &TraceArena::new(),
        )
    }

    fn tiny_scenarios() -> Vec<ScenarioJob> {
        let mut m = ScenarioMatrix::new(tiny_cfg());
        m.workloads = vec![WorkloadSpec::oltp_db2()];
        m.designs = vec![LlcDesign::Shared, LlcDesign::rnuca_default()];
        m.jobs().expect("baseline jobs are valid")
    }

    /// The default 45-scenario list.
    fn default_scenarios() -> Vec<ScenarioJob> {
        perf_matrix(tiny_cfg())
            .jobs()
            .expect("standard core counts are valid for every preset")
    }

    #[test]
    fn default_scenarios_cover_designs_workloads_and_core_counts() {
        let scenarios = default_scenarios();
        assert_eq!(scenarios.len(), 3 * 3 * 5);
        assert!(scenarios.iter().any(|s| s.workload.num_cores() == 64));
        let letters: std::collections::HashSet<&str> =
            scenarios.iter().map(|s| s.design.letter()).collect();
        assert_eq!(letters.len(), 5, "all five designs present");
        // Workload, then cores, then design.
        let cores: Vec<usize> = scenarios.iter().map(|s| s.workload.num_cores()).collect();
        assert_eq!(cores[..15], [[16; 5], [32; 5], [64; 5]].concat());
        assert_eq!(scenarios[15].workload.name, "em3d");
    }

    #[test]
    fn report_totals_are_consistent_with_scenarios() {
        let cfg = tiny_cfg();
        let report = run(&tiny_scenarios(), &cfg, 1);
        assert_eq!(report.totals.scenarios, 2);
        assert_eq!(report.totals.refs, 2 * 1000);
        assert!(
            report.totals.tracegen_nanos > 0,
            "materializing the shared stream takes measurable time"
        );
        for r in &report.results {
            assert!(r.total_cpi > 0.0);
            assert!(r.warmup_nanos > 0, "warming takes measurable time");
            assert!(r.measured_nanos > 0, "measuring takes measurable time");
        }
        assert_eq!(
            report.totals.warmup_nanos,
            report.results.iter().map(|r| r.warmup_nanos).sum::<u64>()
        );
        assert_eq!(
            report.totals.measured_nanos,
            report.results.iter().map(|r| r.measured_nanos).sum::<u64>()
        );
        assert!(
            report.totals.elapsed_nanos
                >= report.totals.tracegen_nanos
                    + report.totals.warmup_nanos
                    + report.totals.measured_nanos,
            "one worker: the phases run one after another inside the elapsed time"
        );
        assert_eq!(
            report.totals.refs_per_sec,
            report.totals.refs as f64 * 1e9 / report.totals.elapsed_nanos as f64
        );

        // As warehouse rows: one scenario row per result, keyed on the same
        // full-spec fingerprint as a sweep row, then the totals row.
        let records = report.to_records();
        assert_eq!(records.len(), 3);
        for (r, s) in records.iter().zip(&tiny_scenarios()) {
            assert_eq!(r.kind, RowKind::Scenario);
            assert_eq!(r.fingerprint, s.workload.fingerprint());
            assert_eq!(r.design.as_deref(), Some(s.design.letter()));
        }
        assert!(records
            .iter()
            .all(|r| r.schema == 8 && r.config == "custom"));
        assert_eq!(records[2].kind, RowKind::Totals);
        assert_eq!(records[2].refs_per_sec, Some(report.totals.refs_per_sec));
        // Storing the same report twice adds nothing the second time.
        let store = Warehouse::new();
        assert_eq!(store.append_all(&records).added, 3);
        assert_eq!(store.append_all(&records).deduplicated, 3);
    }

    #[test]
    fn default_perf_run_generates_exactly_nine_streams() {
        // 45 scenarios resolve onto 9 unique streams (3 workloads x 3 core
        // counts), each generated exactly once.
        let cfg = tiny_cfg();
        let arena = TraceArena::new();
        let report = run_perf(
            &default_scenarios(),
            &cfg,
            &ExperimentEngine::with_workers(2),
            &arena,
        );
        assert_eq!(report.totals.scenarios, 45);
        assert_eq!(arena.len(), 9, "one stream per (workload, cores)");
        assert_eq!(arena.generations(), 9, "each generated exactly once");
    }

    #[test]
    fn canonical_json_is_identical_across_worker_counts() {
        let cfg = tiny_cfg();
        let scenarios = tiny_scenarios();
        let serial = run(&scenarios, &cfg, 1);
        let pooled = run(&scenarios, &cfg, 4);
        assert_eq!(serial.to_canonical_json(), pooled.to_canonical_json());
        // The deterministic fields agree even in the timed documents.
        for (a, b) in serial.results.iter().zip(&pooled.results) {
            assert_eq!(a.total_cpi, b.total_cpi);
            assert_eq!(a.off_chip_rate, b.off_chip_rate);
        }
    }

    #[test]
    fn emitted_json_parses_and_has_the_documented_schema() {
        // Hand-written values, no simulation: the document's key order,
        // number formatting and schema version are pinned byte for byte.
        let result = |design: &str, letter, total_cpi, warmup_nanos| PerfResult {
            workload: "OLTP DB2".to_string(),
            fingerprint: 0xfeed,
            letter,
            design: design.to_string(),
            cores: 16,
            refs: 1000,
            total_cpi,
            off_chip_rate: 0.25,
            warmup_nanos,
            measured_nanos: 9,
        };
        let report = PerfReport {
            cfg: tiny_cfg(),
            results: vec![
                result("shared", "S", 1.5, 7),
                result("R-NUCA \"4\"", "R", 0.1, 8),
            ],
            totals: PerfTotals {
                scenarios: 2,
                refs: 2000,
                tracegen_nanos: 3,
                warmup_nanos: 15,
                measured_nanos: 18,
                elapsed_nanos: 40,
                refs_per_sec: 5e10,
            },
        };
        let expected = r#"{
  "schema_version": 8,
  "config": {"warmup_refs": 600, "measured_refs": 400, "seed": 42},
  "scenarios": [
    {"workload": "OLTP DB2", "design": "shared", "letter": "S", "cores": 16, "refs": 1000, "total_cpi": 1.5, "off_chip_rate": 0.25, "warmup_nanos": 7, "measured_nanos": 9},
    {"workload": "OLTP DB2", "design": "R-NUCA \"4\"", "letter": "R", "cores": 16, "refs": 1000, "total_cpi": 0.1, "off_chip_rate": 0.25, "warmup_nanos": 8, "measured_nanos": 9}
  ],
  "totals": {"scenarios": 2, "refs": 2000, "tracegen_nanos": 3, "warmup_nanos": 15, "measured_nanos": 18, "elapsed_nanos": 40, "refs_per_sec": 50000000000}
}
"#;
        assert_eq!(report.to_json(), expected);
    }

    #[test]
    fn scenario_labels_render_and_filter() {
        let scenarios = default_scenarios();
        let label = scenarios[0].label();
        assert_eq!(label, "OLTP DB2/P/private/16c");

        // Filtering by workload keeps that workload's 15 scenarios.
        let em3d = filter_scenarios(default_scenarios(), "em3d");
        assert_eq!(em3d.len(), 15);
        assert!(em3d.iter().all(|s| s.workload.name == "em3d"));

        // By design letter (the "/R/" segment), across workloads and cores.
        let rnuca = filter_scenarios(default_scenarios(), "/R/");
        assert_eq!(rnuca.len(), 9);
        assert!(rnuca.iter().all(|s| s.design.letter() == "R"));

        // By core count, case-insensitively; unmatched filters yield nothing.
        let big = filter_scenarios(default_scenarios(), "/64C");
        assert_eq!(big.len(), 15);
        assert!(big.iter().all(|s| s.workload.num_cores() == 64));
        assert!(filter_scenarios(default_scenarios(), "nope").is_empty());
    }

    #[test]
    fn filter_casing_never_affects_selection_or_grouping() {
        // The allocation-free matcher folds ASCII case exactly like the old
        // lowercase-both-sides comparison: every casing of a filter selects
        // the same scenarios...
        let labels = |filter: &str| -> Vec<String> {
            filter_scenarios(default_scenarios(), filter)
                .iter()
                .map(ScenarioJob::label)
                .collect()
        };
        assert_eq!(labels("em3d"), labels("EM3D"));
        assert_eq!(labels("em3d"), labels("eM3d"));
        assert_eq!(labels("oltp db2"), labels("OLTP DB2"));
        assert_eq!(labels("/r/"), labels("/R/"));
        assert!(!labels("EM3D").is_empty());
        // ...and the trace keys that group scenarios onto shared arena
        // streams derive from the spec, not from label strings, so the
        // selected scenarios share streams identically no matter how the
        // filter (or any display label) is cased.
        let trace_keys = |filter: &str| -> Vec<TraceKey> {
            filter_scenarios(default_scenarios(), filter)
                .iter()
                .map(|s| TraceKey::new(&s.workload, 42))
                .collect()
        };
        assert_eq!(trace_keys("em3d"), trace_keys("EM3D"));
        assert_eq!(trace_keys("/r/"), trace_keys("/R/"));
    }

    #[test]
    fn scenarios_sharing_a_stream_report_identical_results() {
        // Two designs over one workload share an arena slab; their
        // deterministic digests must come out as if each streamed privately.
        let cfg = tiny_cfg();
        let report = run(&tiny_scenarios(), &cfg, 2);
        for (s, r) in tiny_scenarios().iter().zip(&report.results) {
            let single = rnuca_sim::run_single(&s.workload, s.design, &cfg);
            assert_eq!(r.total_cpi, single.total_cpi());
            assert_eq!(r.off_chip_rate, single.off_chip_rate);
        }
    }
}
