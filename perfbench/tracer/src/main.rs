//! Traced, in-process replay of one perfbench workload.
//!
//! ```text
//! perfbench-tracer --workload perf-suite --out DIR [--seed 42]
//! ```
//!
//! Runs every job of the workload the way the `figures` binary defines it —
//! materialize the stream, construct the simulator, warm, measure — through
//! the crates' public calls, one job at a time on one thread, with a span
//! around every call. Each unique stream is also replayed through the
//! cache, coherence, OS, placement and index-map layers (see [`layers`]);
//! the measured runs are appended to a sweep journal and a results
//! warehouse in `DIR`. Writes `DIR/trace.json`: the per-job results in
//! `figures` output order, and every span.

mod layers;
mod trace;

use rnuca_sim::{AsrPolicy, CmpSimulator, LlcDesign, MeasuredRun, SweepJournal};
use rnuca_types::{ConfigPoint, MemoryAccess};
use rnuca_warehouse::{RowKind, RunRecord, Warehouse};
use rnuca_workloads::{TraceArena, TraceGenerator, TraceKey, TraceSource, WorkloadSpec};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use trace::{json_str, Tracer};

/// Warm-up and measured references per job at the `figures` full preset.
const FULL: (usize, usize) = (600_000, 300_000);
/// The same at the `--quick` preset.
const QUICK: (usize, usize) = (30_000, 20_000);
/// References the simulator steps per batch; generation and replay are
/// timed at the same granularity.
const BATCH: usize = 4096;
/// Repetitions of the warehouse query (one takes a few milliseconds).
const QUERY_REPS: u64 = 5;
const QUERY: &str = "design=R sort off_chip_rate";

/// One simulation job.
struct Job {
    spec: WorkloadSpec,
    design: LlcDesign,
    warmup: usize,
    measured: usize,
    /// Not part of the `figures` run: simulated only so every design has a
    /// per-reference rate on this workload.
    extra: bool,
}

impl Job {
    fn new(spec: &WorkloadSpec, design: LlcDesign, (warmup, measured): (usize, usize)) -> Self {
        Job {
            spec: spec.clone(),
            design,
            warmup,
            measured,
            extra: false,
        }
    }
}

fn at(spec: &WorkloadSpec, cores: usize, slice_kb: Option<usize>) -> WorkloadSpec {
    spec.at_config_point(&ConfigPoint {
        num_cores: Some(cores),
        slice_capacity_kb: slice_kb,
        instr_cluster_size: None,
    })
    .expect("the benchmark's core counts and slice sizes are valid for every preset")
}

fn adaptive_asr() -> LlcDesign {
    LlcDesign::Asr {
        policy: AsrPolicy::Adaptive,
    }
}

/// The job list of `workload`, in the order `figures` reports results.
fn jobs(workload: &str) -> Option<Vec<Job>> {
    let five = || {
        [
            LlcDesign::Private,
            adaptive_asr(),
            LlcDesign::Shared,
            LlcDesign::rnuca_default(),
            LlcDesign::Ideal,
        ]
    };
    let mut jobs = Vec::new();
    match workload {
        // `figures perf`: three workloads x 16/32/64 cores x P/A/S/R/I.
        "perf-suite" => {
            for spec in [
                WorkloadSpec::oltp_db2(),
                WorkloadSpec::em3d(),
                WorkloadSpec::dss_qry6(),
            ] {
                for cores in [16, 32, 64] {
                    let spec = at(&spec, cores, None);
                    jobs.extend(five().map(|d| Job::new(&spec, d, FULL)));
                }
            }
        }
        // `figures fig7 fig12`: the suite at preset core counts x P, the six
        // ASR versions, S, R, I.
        "eval-best-of-six" => {
            for spec in WorkloadSpec::evaluation_suite() {
                jobs.push(Job::new(&spec, LlcDesign::Private, FULL));
                for policy in AsrPolicy::all_versions() {
                    jobs.push(Job::new(&spec, LlcDesign::Asr { policy }, FULL));
                }
                for d in [
                    LlcDesign::Shared,
                    LlcDesign::rnuca_default(),
                    LlcDesign::Ideal,
                ] {
                    jobs.push(Job::new(&spec, d, FULL));
                }
            }
        }
        // `figures sweep --quick`: the suite x 16/32/64 cores x 512 KB/1 MB/
        // 2 MB slices x (S + R at clusters 2/4/8). After each workload's
        // 16-core points, P/A/I run once at 1 MB as extra jobs.
        "sweep-journaled" => {
            for spec in WorkloadSpec::evaluation_suite() {
                for cores in [16, 32, 64] {
                    for slice_kb in [512, 1024, 2048] {
                        let spec = at(&spec, cores, Some(slice_kb));
                        jobs.push(Job::new(&spec, LlcDesign::Shared, QUICK));
                        for instr_cluster_size in [2, 4, 8] {
                            let design = LlcDesign::RNuca { instr_cluster_size };
                            jobs.push(Job::new(&spec, design, QUICK));
                        }
                    }
                    if cores == 16 {
                        let spec = at(&spec, cores, Some(1024));
                        for d in [LlcDesign::Private, adaptive_asr(), LlcDesign::Ideal] {
                            jobs.push(Job {
                                extra: true,
                                ..Job::new(&spec, d, QUICK)
                            });
                        }
                    }
                }
            }
        }
        _ => return None,
    }
    Some(jobs)
}

struct Args {
    workload: String,
    seed: u64,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        out: out.ok_or("--out is required")?,
    })
}

/// One finished job: what `figures` would report for it, plus counts.
struct JobResult {
    run: MeasuredRun,
    l2_hits: u64,
    l2_probes: u64,
    tlb_misses: u64,
    tlb_lookups: u64,
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench-tracer: {e}");
        std::process::exit(2);
    });
    let Some(jobs) = jobs(&args.workload) else {
        eprintln!("perfbench-tracer: unknown workload {}", args.workload);
        std::process::exit(2);
    };
    let mut t = Tracer::new();
    let root = t.begin("trace.run", &args.workload);
    let results = run_jobs(&mut t, &jobs, args.seed);
    store_layers(&mut t, &jobs, &results, args.seed, &args.out);
    t.end(root, &[("jobs", jobs.len() as u64)]);

    let mut doc = String::from("{\n");
    let _ = writeln!(doc, "\"workload\": {},", json_str(&args.workload));
    let _ = writeln!(doc, "\"seed\": {},", args.seed);
    doc.push_str("\"jobs\": [\n");
    for (i, (job, r)) in jobs.iter().zip(&results).enumerate() {
        doc.push_str(&job_json(job, r));
        doc.push_str(if i + 1 < jobs.len() { ",\n" } else { "\n" });
    }
    doc.push_str("],\n\"spans\": ");
    doc.push_str(&t.to_json());
    doc.push_str("\n}\n");
    let path = args.out.join("trace.json");
    std::fs::write(&path, doc).unwrap_or_else(|e| {
        eprintln!("perfbench-tracer: cannot write {}: {e}", path.display());
        std::process::exit(1);
    });
}

/// Runs every job in order. A new stream is materialized (and replayed
/// through the layers) whenever the job's stream differs from the last one;
/// the layers also run once per distinct slice geometry of a stream.
fn run_jobs(t: &mut Tracer, jobs: &[Job], seed: u64) -> Vec<JobResult> {
    let mut arena = TraceArena::new();
    let mut stream: Option<TraceKey> = None;
    let mut layered: HashSet<(TraceKey, usize)> = HashSet::new();
    let mut results = Vec::with_capacity(jobs.len());
    for job in jobs {
        let spec = &job.spec;
        let total = job.warmup + job.measured;
        let key = TraceKey::new(spec, seed);
        if stream.as_ref() != Some(&key) {
            // The previous stream's jobs are done: free its slab first.
            arena = TraceArena::new();
            materialize(t, &arena, spec, seed, total);
            stream = Some(key.clone());
        }
        let cfg = spec.system_config();
        let slice_bytes = cfg.l2_slice.geometry.capacity_bytes;
        if layered.insert((key, slice_bytes)) {
            let refs = decode(t, &arena, spec, seed, total);
            layers::replay(t, &spec.name, &cfg, &refs);
        }
        results.push(run_job(t, &arena, job, seed));
    }
    results
}

/// Generates `spec`'s stream with the streaming generator (timed on its
/// own), then materializes it into `arena` and replays it once.
fn materialize(t: &mut Tracer, arena: &TraceArena, spec: &WorkloadSpec, seed: u64, total: usize) {
    let mut buf = Vec::with_capacity(BATCH);
    let span = t.begin("workloads.generate", &spec.name);
    let mut gen = TraceGenerator::new(spec, seed);
    let mut left = total;
    while left > 0 {
        let n = left.min(BATCH);
        gen.generate_into(n, &mut buf);
        std::hint::black_box(&buf);
        left -= n;
    }
    t.end(span, &[("refs", total as u64)]);

    let span = t.begin("workloads.populate", &spec.name);
    arena.populate(spec, seed, total);
    t.end(
        span,
        &[
            ("refs", total as u64),
            ("bytes", arena.packed_bytes() as u64),
        ],
    );

    let span = t.begin("workloads.replay", &spec.name);
    let mut slice = arena.slice(spec, seed, total);
    let mut left = total;
    while left > 0 {
        let n = left.min(BATCH);
        slice.fill_into(n, &mut buf);
        std::hint::black_box(&buf);
        left -= n;
    }
    t.end(span, &[("refs", total as u64)]);
}

/// The whole stream as one vector, for the layer replays.
fn decode(
    t: &mut Tracer,
    arena: &TraceArena,
    spec: &WorkloadSpec,
    seed: u64,
    total: usize,
) -> Vec<MemoryAccess> {
    let span = t.begin("workloads.decode", &spec.name);
    let mut refs = Vec::new();
    arena.slice(spec, seed, total).fill_into(total, &mut refs);
    t.end(span, &[("refs", total as u64)]);
    refs
}

fn run_job(t: &mut Tracer, arena: &TraceArena, job: &Job, seed: u64) -> JobResult {
    let spec = &job.spec;
    let letter = job.design.letter();
    let span = t.begin(
        if job.extra {
            "sim.extra_job"
        } else {
            "sim.job"
        },
        letter,
    );
    let mut slice = arena.slice(spec, seed, job.warmup + job.measured);

    let s = t.begin("sim.construct", letter);
    let mut sim = CmpSimulator::with_seed(job.design, spec, seed);
    t.end(s, &[]);

    let s = t.begin("sim.warm", letter);
    sim.run_warmup(&mut slice, job.warmup);
    t.end(s, &[("refs", job.warmup as u64)]);

    let s = t.begin("sim.measure", letter);
    let run = sim.run_measured(&mut slice, job.measured);
    t.end(s, &[("refs", job.measured as u64)]);

    let (l2_hits, l2_probes) = sim.tiles().iter().fold((0, 0), |(h, p), tile| {
        let stats = tile.slice_stats();
        (h + stats.hits, p + stats.probes())
    });
    let os = *sim.os().stats();
    t.end(span, &[]);
    JobResult {
        run,
        l2_hits,
        l2_probes,
        tlb_misses: os.tlb_misses,
        tlb_lookups: os.tlb_hits + os.tlb_misses,
    }
}

/// Appends every job's run to a sweep journal and every job's row to a
/// results warehouse in `out`, then saves, reopens and queries the store.
fn store_layers(t: &mut Tracer, jobs: &[Job], results: &[JobResult], seed: u64, out: &Path) {
    let journal_path = out.join("journal.bin");
    let span = t.begin("journal.append", "");
    let journal = SweepJournal::create(&journal_path, seed, jobs.len() as u64)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", journal_path.display()));
    for (i, r) in results.iter().enumerate() {
        journal
            .append(i, &r.run)
            .unwrap_or_else(|e| panic!("cannot append to {}: {e}", journal_path.display()));
    }
    drop(journal);
    t.end(span, &[("ops", results.len() as u64)]);

    let records: Vec<RunRecord> = jobs
        .iter()
        .zip(results)
        .map(|(job, r)| record(job, &r.run, seed))
        .collect();
    let store = Warehouse::new();
    let span = t.begin("warehouse.append", "");
    let summary = store.append_all(&records);
    t.end(
        span,
        &[
            ("ops", records.len() as u64),
            ("added", summary.added as u64),
        ],
    );

    let store_path = out.join("warehouse.bin");
    let span = t.begin("warehouse.save", "");
    store
        .save(&store_path)
        .unwrap_or_else(|e| panic!("cannot save {}: {e:?}", store_path.display()));
    t.end(span, &[("ops", 1)]);

    let span = t.begin("warehouse.open", "");
    let reopened = Warehouse::open(&store_path)
        .unwrap_or_else(|e| panic!("cannot open {}: {e:?}", store_path.display()));
    t.end(span, &[("ops", 1), ("rows", reopened.len() as u64)]);

    let span = t.begin("warehouse.query", "");
    let mut rows = 0;
    for _ in 0..QUERY_REPS {
        rows = reopened
            .query(QUERY)
            .unwrap_or_else(|e| panic!("query {QUERY:?} failed: {e:?}"))
            .rows
            .len();
    }
    t.end(span, &[("ops", QUERY_REPS), ("rows", rows as u64)]);
}

/// A warehouse row for one job, with the columns a sweep row carries.
fn record(job: &Job, run: &MeasuredRun, seed: u64) -> RunRecord {
    let cfg = job.spec.system_config();
    let mut r = RunRecord::new(RowKind::Sweep, seed as i64, 1, "perfbench");
    r.workload = Some(job.spec.name.clone());
    r.design = Some(job.design.letter().to_string());
    r.letter = Some(job.design.letter().to_string());
    r.cores = Some(cfg.num_cores as i64);
    r.slice_kb = Some((cfg.l2_slice.geometry.capacity_bytes / 1024) as i64);
    r.cluster = cluster(job.design).map(|c| c as i64);
    r.refs = Some((job.warmup + job.measured) as i64);
    let b = &run.cpi.breakdown;
    r.total_cpi = Some(run.total_cpi());
    r.cpi_busy = Some(b.busy);
    r.cpi_l1_to_l1 = Some(b.l1_to_l1);
    r.cpi_l2 = Some(b.l2);
    r.cpi_off_chip = Some(b.off_chip);
    r.cpi_other = Some(b.other);
    r.cpi_reclass = Some(b.reclassification);
    r.off_chip_rate = Some(run.off_chip_rate);
    r.l1_to_l1_rate = Some(run.l1_to_l1_rate);
    r.misclass_rate = Some(run.misclassification_rate);
    r.reclassifications = Some(run.reclassifications as i64);
    r
}

fn cluster(design: LlcDesign) -> Option<usize> {
    match design {
        LlcDesign::RNuca { instr_cluster_size } => Some(instr_cluster_size),
        _ => None,
    }
}

fn job_json(job: &Job, r: &JobResult) -> String {
    let cfg = job.spec.system_config();
    let b = &r.run.cpi.breakdown;
    format!(
        "  {{\"workload\": {}, \"design\": {}, \"letter\": \"{}\", \"cores\": {}, \
         \"slice_kb\": {}, \"cluster\": {}, \"extra\": {}, \"measured_refs\": {}, \
         \"total_cpi\": {}, \"cpi\": {{\"busy\": {}, \"l1_to_l1\": {}, \"l2\": {}, \
         \"off_chip\": {}, \"other\": {}, \"reclassification\": {}}}, \
         \"off_chip_rate\": {}, \"l1_to_l1_rate\": {}, \"reclassifications\": {}, \
         \"l2_hits\": {}, \"l2_probes\": {}, \"tlb_misses\": {}, \"tlb_lookups\": {}}}",
        json_str(&job.spec.name),
        json_str(&job.design.to_string()),
        job.design.letter(),
        cfg.num_cores,
        cfg.l2_slice.geometry.capacity_bytes / 1024,
        cluster(job.design).map_or("null".to_string(), |c| c.to_string()),
        job.extra,
        job.measured,
        r.run.total_cpi(),
        b.busy,
        b.l1_to_l1,
        b.l2,
        b.off_chip,
        b.other,
        b.reclassification,
        r.run.off_chip_rate,
        r.run.l1_to_l1_rate,
        r.run.reclassifications,
        r.l2_hits,
        r.l2_probes,
        r.tlb_misses,
        r.tlb_lookups,
    )
}
