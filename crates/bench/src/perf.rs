//! The throughput benchmark behind `figures perf`.
//!
//! The perf suite is one scenario matrix, [`perf_matrix`]: the five LLC
//! designs × representative workloads × 16/32/64 cores. [`run_perf`] runs
//! its jobs (or a `--filter`ed subset) once through
//! [`ScenarioMatrix::run_jobs`], the executor behind every
//! [`ScenarioMatrix::run`], and [`PerfReport::to_json`] emits the perf
//! report (`BENCH_perf.json` by default) as a view over that run.
//!
//! Every scenario is one job that warms in place: it builds its simulator,
//! runs the warm-up prefix of its [`TraceArena`] slab, then measures the
//! rest, and reports how long each phase took ([`JobPhases`]). Each unique
//! stream (one per `(workload, cores, seed)`, nine for the default list) is
//! generated by the first job that needs it and retired after its last, so
//! live trace memory is bounded by the jobs in flight. The report's phases
//! are sums over jobs: `tracegen_nanos` (inside the arena: generating a
//! stream, or waiting on the worker that generates it), `warmup_nanos` and
//! `measured_nanos`. `other_nanos` is the rest of the pool's time (elapsed
//! time × busy workers), so the four add up to it.
//!
//! The one headline is **refs/sec**: block references stepped (warm-up plus
//! measured, every scenario) per second of the run's *elapsed* wall-clock
//! time, trace generation and simulator construction included. It is the
//! rate `perfbench` reports as `refs_per_s` for the same run, and CI gates
//! on it by comparing a change against its merge-base on one host
//! (`bench/ab.py`), never against a number recorded on another machine.
//! [`PerfReport::render_phase_costs`] explains it: warm-up and measured
//! nanoseconds per reference by design and core count, and Private's
//! measured cost over Shared's.
//!
//! Everything except the timing fields is a pure function of the scenario
//! list and the [`ExperimentConfig`]: [`PerfReport::to_canonical_json`]
//! (timing zeroed) is byte-identical for every `--workers` value, which is
//! the schema-stability property the tests pin down.
//!
//! With `figures perf --store=`, the measured report also lands in the
//! results warehouse as [`PerfReport::to_records`] rows.

use rnuca_sim::{
    ExperimentConfig, ExperimentEngine, JobFailure, JobKey, JobPhases, LlcDesign, ScenarioJob,
    ScenarioMatrix, SweepOptions,
};
use rnuca_types::json::json_string;
use rnuca_warehouse::{RowKind, RunRecord};
use rnuca_workloads::{TraceArena, WorkloadSpec};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The perf suite as a matrix: a sharing-heavy server workload (OLTP DB2),
/// a nearest-neighbour scientific code (em3d), and a streaming scan with
/// capacity pressure (DSS Qry6) — together they exercise every step path:
/// L1-to-L1 forwarding, re-classification, and off-chip — at 16/32/64
/// cores under the five P/A/S/R/I designs. Its [`ScenarioMatrix::jobs`]
/// are the suite's 45 scenarios, ordered workload, then cores, then design.
///
/// The matrix clears [`ExperimentConfig::asr_best_of`]: every "A" scenario
/// times adaptive ASR alone, one warm-up and one measured window like every
/// other design, at every preset.
pub fn perf_matrix(cfg: ExperimentConfig) -> ScenarioMatrix {
    ScenarioMatrix {
        workloads: vec![
            WorkloadSpec::oltp_db2(),
            WorkloadSpec::em3d(),
            WorkloadSpec::dss_qry6(),
        ],
        designs: LlcDesign::speedup_set(),
        core_counts: vec![16, 32, 64],
        ..ScenarioMatrix::new(ExperimentConfig {
            asr_best_of: false,
            ..cfg
        })
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
    /// The scenario's [`JobKey`]: the identity its warehouse row keys on.
    /// Not written to the JSON report.
    pub key: JobKey,
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
///
/// The four phases partition the pool's time, `elapsed_nanos ×
/// min(workers, scenarios)`: `tracegen_nanos + warmup_nanos +
/// measured_nanos + other_nanos` equals it.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfTotals {
    /// Number of scenarios executed.
    pub scenarios: usize,
    /// Total block references stepped (all scenarios, warm-up + measured).
    pub refs: u64,
    /// Summed time scenarios spent obtaining their reference streams from
    /// the trace arena: generating a stream (once per unique `(workload,
    /// cores, seed)`), or waiting on the worker generating it.
    pub tracegen_nanos: u64,
    /// Summed warm-up time across scenarios, in nanoseconds.
    pub warmup_nanos: u64,
    /// Summed measured-phase time across scenarios, in nanoseconds.
    pub measured_nanos: u64,
    /// The pool's time in no scenario phase: simulator construction, result
    /// assembly, and workers idle at the tail of the run.
    pub other_nanos: u64,
    /// Wall-clock nanoseconds for the whole run (trace generation,
    /// construction, warm-up and measurement).
    pub elapsed_nanos: u64,
    /// The headline: `refs / elapsed_nanos`, in references per second.
    pub refs_per_sec: f64,
}

/// The warm and measure cost per reference of one design at one core
/// count, over every workload the run timed it on.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PhaseCost {
    /// Design letter ("P", "A", "S", "R", "I").
    letter: &'static str,
    /// Core count.
    cores: usize,
    /// Wall-clock nanoseconds per warm-up reference.
    warm_ns_per_ref: f64,
    /// Wall-clock nanoseconds per measured reference.
    measure_ns_per_ref: f64,
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
/// warehouse rows; bump when either changes. Version 9 adds
/// `totals.other_nanos`, and `tracegen_nanos` became the summed per-job
/// stream time; version 8 keyed `scenario` rows on the workload spec (they
/// now key on the job's [`JobKey`]).
pub const PERF_SCHEMA_VERSION: u64 = 9;

/// Runs `scenarios` (`matrix`'s jobs, or a subset of them) through one
/// [`ScenarioMatrix::run_jobs`] call on `engine`, and builds the report
/// from the outcome: each job's result and [`JobPhases`], and the call's
/// elapsed time. Streams resolve through `arena`, which is empty again when
/// the run returns; its [`TraceArena::generations`] counts the streams the
/// run generated.
///
/// The deterministic fields of the report (scenario identity, reference
/// counts, CPI digests) are identical for every worker count; only the
/// timing fields vary run to run.
///
/// # Errors
///
/// The quarantined failures, in job order, when any scenario's attempt
/// panicked: the report needs every scenario.
pub fn run_perf(
    matrix: &ScenarioMatrix,
    scenarios: &[ScenarioJob],
    engine: &ExperimentEngine,
    arena: &Arc<TraceArena>,
) -> Result<PerfReport, Vec<JobFailure>> {
    let opts = SweepOptions {
        arena: Arc::clone(arena),
        ..SweepOptions::new(*engine)
    };
    let start = Instant::now();
    let outcome = matrix
        .run_jobs(scenarios, &opts)
        .expect("a run with no journal and no stop flag gives every job an outcome");
    let elapsed = start.elapsed();
    let sweep = outcome.sweep.into_sweep()?;
    let phases: Vec<JobPhases> = outcome
        .phases
        .into_iter()
        .map(|p| p.expect("every job ran and completed"))
        .collect();

    let cfg = matrix.cfg;
    let results: Vec<PerfResult> = scenarios
        .iter()
        .zip(&sweep.results)
        .zip(&phases)
        .map(|((s, r), p)| PerfResult {
            workload: s.workload.name.clone(),
            key: s.key(&cfg),
            letter: s.design.letter(),
            design: s.design.to_string(),
            cores: r.cores,
            refs: cfg.total_refs() as u64,
            total_cpi: r.run.total_cpi(),
            off_chip_rate: r.run.off_chip_rate,
            warmup_nanos: nanos(p.warm),
            measured_nanos: nanos(p.measure),
        })
        .collect();
    let sum = |phase: fn(&JobPhases) -> Duration| nanos(phases.iter().map(phase).sum());
    let (tracegen_nanos, warmup_nanos, measured_nanos) =
        (sum(|p| p.stream), sum(|p| p.warm), sum(|p| p.measure));
    let elapsed_nanos = nanos(elapsed);
    let pool_nanos = elapsed_nanos.saturating_mul(engine.workers().min(scenarios.len()) as u64);
    let refs: u64 = results.iter().map(|r| r.refs).sum();
    let totals = PerfTotals {
        scenarios: results.len(),
        refs,
        tracegen_nanos,
        warmup_nanos,
        measured_nanos,
        // Every phase lies inside the timed call, on one of the pool's
        // workers, so this never saturates (the tests check it does not).
        other_nanos: pool_nanos.saturating_sub(tracegen_nanos + warmup_nanos + measured_nanos),
        elapsed_nanos,
        refs_per_sec: per_sec(refs, elapsed_nanos),
    };
    Ok(PerfReport {
        cfg,
        results,
        totals,
    })
}

fn per_sec(count: u64, nanos: u64) -> f64 {
    if nanos == 0 {
        return 0.0;
    }
    count as f64 * 1e9 / nanos as f64
}

fn per_ref(nanos: u64, refs: u64) -> f64 {
    if refs == 0 {
        return 0.0;
    }
    nanos as f64 / refs as f64
}

/// The distinct values of `items`, in first-seen order.
fn first_seen<T: PartialEq>(items: impl Iterator<Item = T>) -> Vec<T> {
    let mut seen = Vec::new();
    for item in items {
        if !seen.contains(&item) {
            seen.push(item);
        }
    }
    seen
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

impl PerfReport {
    /// Where the per-reference time goes: one [`PhaseCost`] per design
    /// letter × core count the run timed, letters in first-seen order, then
    /// core counts in first-seen order. Each sums its scenarios' warm-up
    /// and measured nanoseconds over the references each phase stepped.
    pub(crate) fn phase_costs(&self) -> Vec<PhaseCost> {
        let letters = first_seen(self.results.iter().map(|r| r.letter));
        let cores = first_seen(self.results.iter().map(|r| r.cores));
        let mut costs = Vec::new();
        for &letter in &letters {
            for &c in &cores {
                let runs = self
                    .results
                    .iter()
                    .filter(|r| r.letter == letter && r.cores == c);
                let (warm, measure, n) = runs.fold((0, 0, 0), |(w, m, n), r| {
                    (w + r.warmup_nanos, m + r.measured_nanos, n + 1)
                });
                if n > 0 {
                    costs.push(PhaseCost {
                        letter,
                        cores: c,
                        warm_ns_per_ref: per_ref(warm, n * self.cfg.warmup_refs as u64),
                        measure_ns_per_ref: per_ref(measure, n * self.cfg.measured_refs as u64),
                    });
                }
            }
        }
        costs
    }

    /// Private's measured nanoseconds per reference over Shared's, each
    /// summed over every scenario the design ran: the private-like path's
    /// cost target is at most 1.5. `None` unless both designs ran.
    pub(crate) fn private_over_shared(&self) -> Option<f64> {
        let measure = |letter: &str| {
            let runs = self.results.iter().filter(|r| r.letter == letter);
            let (nanos, n) = runs.fold((0u64, 0u64), |(t, n), r| (t + r.measured_nanos, n + 1));
            (n > 0).then(|| per_ref(nanos, n * self.cfg.measured_refs as u64))
        };
        let (p, s) = (measure("P")?, measure("S")?);
        (s > 0.0).then(|| p / s)
    }

    /// Where the per-reference time goes, as text: warm-up and measured
    /// nanoseconds per reference in one row per design letter and one
    /// `warm / measure` column per core count, each cell summed over the
    /// workloads, then Private's measured cost over Shared's when both ran
    /// (the private-like path's cost target is at most 1.5).
    pub fn render_phase_costs(&self) -> String {
        let costs = self.phase_costs();
        let cores = first_seen(costs.iter().map(|c| c.cores));
        let mut out = String::from("ns/ref, warm / measure:\n    ");
        for c in &cores {
            out.push_str(&format!("{:>16}", format!("{c}c")));
        }
        for letter in first_seen(costs.iter().map(|c| c.letter)) {
            out.push_str(&format!("\n  {letter:<2}"));
            for &c in &cores {
                let cell = costs
                    .iter()
                    .find(|p| p.letter == letter && p.cores == c)
                    .map_or("-".to_string(), |p| {
                        format!("{:.0} / {:.0}", p.warm_ns_per_ref, p.measure_ns_per_ref)
                    });
                out.push_str(&format!("{cell:>16}"));
            }
        }
        out.push('\n');
        if let Some(ratio) = self.private_over_shared() {
            out.push_str(&format!(
                "P/S measure: {ratio:.2}x (target: at most 1.50x)\n"
            ));
        }
        out
    }

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
            r.job_key = res.key.0;
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
             \"warmup_nanos\": {}, \"measured_nanos\": {}, \"other_nanos\": {}, \
             \"elapsed_nanos\": {}, \"refs_per_sec\": {}}}\n}}\n",
            self.totals.scenarios,
            self.totals.refs,
            tn(self.totals.tracegen_nanos),
            tn(self.totals.warmup_nanos),
            tn(self.totals.measured_nanos),
            tn(self.totals.other_nanos),
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
    use rnuca_workloads::TraceKey;

    fn tiny_cfg() -> ExperimentConfig {
        let mut cfg = ExperimentConfig::smoke();
        cfg.warmup_refs = 600;
        cfg.measured_refs = 400;
        cfg
    }

    /// Runs `scenarios` of `matrix` over `arena` on `workers` workers.
    fn run_in(
        matrix: &ScenarioMatrix,
        scenarios: &[ScenarioJob],
        workers: usize,
        arena: &Arc<TraceArena>,
    ) -> PerfReport {
        run_perf(
            matrix,
            scenarios,
            &ExperimentEngine::with_workers(workers),
            arena,
        )
        .expect("no scenario panics")
    }

    /// Runs every job of `matrix` over a fresh arena.
    fn run(matrix: &ScenarioMatrix, workers: usize) -> PerfReport {
        let jobs = matrix.jobs().expect("the matrix is valid");
        run_in(matrix, &jobs, workers, &Arc::new(TraceArena::new()))
    }

    /// OLTP DB2 under shared and R-NUCA: two scenarios over one stream.
    fn tiny_matrix() -> ScenarioMatrix {
        let mut m = ScenarioMatrix::new(tiny_cfg());
        m.workloads = vec![WorkloadSpec::oltp_db2()];
        m.designs = vec![LlcDesign::Shared, LlcDesign::rnuca_default()];
        m
    }

    fn tiny_scenarios() -> Vec<ScenarioJob> {
        tiny_matrix().jobs().expect("baseline jobs are valid")
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
        // "A" is adaptive ASR alone, even at the full preset.
        assert!(!perf_matrix(ExperimentConfig::full()).cfg.asr_best_of);
    }

    #[test]
    fn report_totals_are_consistent_with_scenarios() {
        let report = run(&tiny_matrix(), 1);
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
        assert_eq!(
            report.totals.refs_per_sec,
            report.totals.refs as f64 * 1e9 / report.totals.elapsed_nanos as f64
        );

        // As warehouse rows: one scenario row per result, keyed on its
        // job's key as a sweep row is, then the totals row.
        let records = report.to_records();
        assert_eq!(records.len(), 3);
        for (r, s) in records.iter().zip(&tiny_scenarios()) {
            assert_eq!(r.kind, RowKind::Scenario);
            assert_eq!(r.job_key, s.key(&tiny_cfg()).0);
            assert_eq!(r.design.as_deref(), Some(s.design.letter()));
        }
        assert!(records
            .iter()
            .all(|r| r.schema == 9 && r.config == "custom"));
        assert_eq!(records[2].kind, RowKind::Totals);
        assert_eq!(records[2].refs_per_sec, Some(report.totals.refs_per_sec));
        // Storing the same report twice adds nothing the second time.
        let store = Warehouse::new();
        assert_eq!(store.append_all(&records).added, 3);
        assert_eq!(store.append_all(&records).deduplicated, 3);
    }

    #[test]
    fn a_report_that_computes_something_else_appends_its_scenario_rows_again() {
        // Each re-run differs from the first only in one value its results
        // depend on, and all three carry the same `custom` config label.
        // The totals row is new every time: it measures wall-clock.
        let mut m = tiny_matrix();
        m.designs.push(LlcDesign::Asr {
            policy: rnuca_sim::AsrPolicy::Adaptive,
        });
        let jobs = m.jobs().expect("the matrix is valid").len();
        let store = Warehouse::new();
        assert_eq!(store.append_all(&run(&m, 2).to_records()).added, jobs + 1);

        let mut best_of = m.clone();
        best_of.cfg.asr_best_of = true;
        let report = run(&best_of, 2);
        assert_eq!(report.cfg.label(), "custom");
        let appended = store.append_all(&report.to_records());
        assert_eq!(appended.added, jobs + 1, "only asr_best_of differs");

        let mut longer = m.clone();
        longer.cfg.warmup_refs += 100;
        let report = run(&longer, 2);
        assert_eq!(report.cfg.label(), "custom");
        let appended = store.append_all(&report.to_records());
        assert_eq!(appended.added, jobs + 1, "only the warm-up length differs");
    }

    #[test]
    fn phases_add_up_to_the_pool_time() {
        // Every phase is timed inside the run, on one of its workers, so
        // the phases never exceed the pool's time and `other` is the exact
        // remainder: it never saturates at zero.
        let mut m = tiny_matrix();
        m.core_counts = vec![16, 32];
        for workers in [1, 2] {
            let t = run(&m, workers).totals;
            let phases = t.tracegen_nanos + t.warmup_nanos + t.measured_nanos;
            let pool = t.elapsed_nanos * workers as u64;
            let other = pool.checked_sub(phases);
            assert!(
                other.is_some_and(|o| o > 0),
                "{workers} workers: phases {phases} ns outside a pool of {pool} ns"
            );
            assert_eq!(Some(t.other_nanos), other, "{workers} workers");
        }
    }

    #[test]
    fn default_perf_run_generates_exactly_nine_streams() {
        // 45 scenarios resolve onto 9 unique streams (3 workloads x 3 core
        // counts), each generated exactly once and retired after its last
        // scenario.
        let m = perf_matrix(tiny_cfg());
        let arena = Arc::new(TraceArena::new());
        let report = run_in(&m, &default_scenarios(), 2, &arena);
        assert_eq!(report.totals.scenarios, 45);
        assert_eq!(arena.generations(), 9, "each generated exactly once");
        assert_eq!(arena.len(), 0, "every stream is retired");
    }

    #[test]
    fn a_filtered_perf_run_generates_only_its_scenarios_streams() {
        let m = perf_matrix(tiny_cfg());
        let em3d = filter_scenarios(default_scenarios(), "em3d");
        let arena = Arc::new(TraceArena::new());
        let report = run_in(&m, &em3d, 2, &arena);
        let labels = |jobs: &[ScenarioJob]| jobs.iter().map(ScenarioJob::label).collect::<Vec<_>>();
        assert_eq!(report.totals.scenarios, 15);
        assert!(report.results.iter().all(|r| r.workload == "em3d"));
        assert_eq!(
            report
                .results
                .iter()
                .map(|r| format!("{}/{}/{}/{}c", r.workload, r.letter, r.design, r.cores))
                .collect::<Vec<_>>(),
            labels(&em3d),
            "results come back in filtered-list order"
        );
        assert_eq!(arena.generations(), 3, "em3d at 16, 32 and 64 cores");
        assert_eq!(arena.len(), 0);
    }

    #[test]
    fn canonical_json_is_identical_across_worker_counts() {
        let serial = run(&tiny_matrix(), 1);
        let pooled = run(&tiny_matrix(), 4);
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
            key: JobKey(0xfeed),
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
                other_nanos: 4,
                elapsed_nanos: 40,
                refs_per_sec: 5e10,
            },
        };
        let expected = r#"{
  "schema_version": 9,
  "config": {"warmup_refs": 600, "measured_refs": 400, "seed": 42},
  "scenarios": [
    {"workload": "OLTP DB2", "design": "shared", "letter": "S", "cores": 16, "refs": 1000, "total_cpi": 1.5, "off_chip_rate": 0.25, "warmup_nanos": 7, "measured_nanos": 9},
    {"workload": "OLTP DB2", "design": "R-NUCA \"4\"", "letter": "R", "cores": 16, "refs": 1000, "total_cpi": 0.1, "off_chip_rate": 0.25, "warmup_nanos": 8, "measured_nanos": 9}
  ],
  "totals": {"scenarios": 2, "refs": 2000, "tracegen_nanos": 3, "warmup_nanos": 15, "measured_nanos": 18, "other_nanos": 4, "elapsed_nanos": 40, "refs_per_sec": 50000000000}
}
"#;
        assert_eq!(report.to_json(), expected);
    }

    #[test]
    fn phase_costs_split_per_reference_time_by_design_and_cores() {
        // tiny_cfg: 600 warm-up and 400 measured references per scenario.
        let result = |workload: &str, letter, cores, warmup_nanos, measured_nanos| PerfResult {
            workload: workload.to_string(),
            key: JobKey(0),
            letter,
            design: letter.to_string(),
            cores,
            refs: 1000,
            total_cpi: 1.0,
            off_chip_rate: 0.0,
            warmup_nanos,
            measured_nanos,
        };
        let report = PerfReport {
            cfg: tiny_cfg(),
            results: vec![
                result("a", "P", 16, 600_000, 400_000),
                result("a", "S", 16, 60_000, 80_000),
                result("a", "P", 32, 1_200_000, 800_000),
                result("b", "P", 16, 1_800_000, 1_200_000),
                result("b", "S", 16, 120_000, 160_000),
            ],
            totals: PerfTotals {
                scenarios: 5,
                refs: 5000,
                tracegen_nanos: 0,
                warmup_nanos: 0,
                measured_nanos: 0,
                other_nanos: 0,
                elapsed_nanos: 1,
                refs_per_sec: 0.0,
            },
        };
        let cost = |letter, cores, warm_ns_per_ref, measure_ns_per_ref| PhaseCost {
            letter,
            cores,
            warm_ns_per_ref,
            measure_ns_per_ref,
        };
        // P at 16 cores sums workloads a and b: 2.4 ms over 1200 warm-up
        // references and 1.6 ms over 800 measured ones.
        assert_eq!(
            report.phase_costs(),
            [
                cost("P", 16, 2000.0, 2000.0),
                cost("P", 32, 2000.0, 2000.0),
                cost("S", 16, 150.0, 300.0),
            ]
        );
        // P measures 2.4 ms over 1200 references, S 0.24 ms over 800.
        assert_eq!(report.private_over_shared(), Some(2000.0 / 300.0));
        assert_eq!(
            report.render_phase_costs(),
            "ns/ref, warm / measure:
                 16c             32c
  P      2000 / 2000     2000 / 2000
  S        150 / 300               -
P/S measure: 6.67x (target: at most 1.50x)
"
        );

        let mut shared_only = report.clone();
        shared_only.results.retain(|r| r.letter == "S");
        assert_eq!(shared_only.private_over_shared(), None);
        assert!(!shared_only.render_phase_costs().contains("P/S"));
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
        let report = run(&tiny_matrix(), 2);
        for (s, r) in tiny_scenarios().iter().zip(&report.results) {
            let single = rnuca_sim::run_single(&s.workload, s.design, &cfg);
            assert_eq!(r.total_cpi, single.total_cpi());
            assert_eq!(r.off_chip_rate, single.off_chip_rate);
        }
    }
}
