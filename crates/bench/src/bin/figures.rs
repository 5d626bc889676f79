//! Regenerates every table and figure of the paper's evaluation as text tables.
//!
//! ```text
//! cargo run --release -p rnuca-bench --bin figures -- all
//! cargo run --release -p rnuca-bench --bin figures -- fig7 fig12
//! cargo run --release -p rnuca-bench --bin figures -- --quick all
//! cargo run --release -p rnuca-bench --bin figures -- --quick --workers=4 sweep
//! ```
//!
//! Supported targets: `table1`, `fig2`..`fig12`, `accuracy`, `all`, `sweep`,
//! `perf`. `--quick` shrinks warm-up and measurement windows for a fast run;
//! `--smoke` shrinks them further for CI smoke tests. `--workers=N` bounds
//! the experiment engine's worker pool (results are identical for every N).
//!
//! `sweep` runs the scenario matrix — core counts 16/32/64, L2 slice
//! capacities 512 KB/1 MB/2 MB, R-NUCA instruction clusters 2/4/8 — and
//! prints JSON to stdout (nothing else, so it can be piped into a file).
//! `sweep` is intentionally not part of `all`, which emits text tables.
//!
//! `perf` runs the timed throughput suite (five designs × three workloads ×
//! 16/32/64 cores) and writes `BENCH_perf.json` (`--out=PATH` overrides the
//! path). With `--baseline=bench/baseline.json` it also evaluates the
//! perf-regression gate and exits non-zero when aggregate blocks/sec drops
//! below the baseline's tolerance — the CI perf gate. The gate is evaluated
//! as a warehouse query (see below): the run's rows are appended to a
//! results store (`--store=PATH` persists it; otherwise in-memory) and the
//! verdict is a query over the latest totals row. Like `sweep`, `perf` is
//! not part of `all`. `--filter=SUBSTRING` keeps only the scenarios whose
//! `workload/letter/design/Ncores` label contains the substring
//! (case-insensitive, e.g. `--filter=em3d` or `--filter=/R/`) for fast local
//! iteration; a filtered run skips the gate, appends its rows with
//! `partial=true` (gate queries exclude them), and writes a report file only
//! when `--out=` is explicit (a partial report must not clobber the
//! checked-in `BENCH_perf.json`). `perf --list` prints the scenario labels,
//! one per line, without simulating anything; it honours `--filter`.
//!
//! The results-warehouse subcommands operate on the store named by
//! `--store=PATH` (default `bench/warehouse.bin`):
//!
//! * `ingest FILE...` loads benchmark artifacts (`BENCH_perf.json` or sweep
//!   documents) into the store. Appends are idempotent: re-ingesting a file
//!   the store has seen reports `0 new rows`.
//! * `query "QUERY"` runs a typed query (`design=R & cores>=32 sort
//!   off_chip_rate`) and prints an aligned table, or JSON with `--json`.
//!   Malformed queries print compiler-style spanned diagnostics on stderr
//!   and exit 2.
//! * `gate --baseline=bench/baseline.json` evaluates the perf-regression
//!   gate as a query over the store's latest non-partial totals row for the
//!   active config (`full`, or `--quick`/`--smoke`), exiting 1 on failure.
//!
//! `sweep --store=PATH` additionally appends one row per sweep point to the
//! store (the JSON on stdout is unchanged; the append summary goes to
//! stderr).
//!
//! Crash safety: `sweep --journal=PATH` journals every completed job to
//! `PATH` as the sweep runs, so an interrupted sweep can be continued with
//! `--resume` — journaled jobs are replayed, the remainder re-runs, and the
//! result (and any warehouse built from it) is bit-identical to an
//! uninterrupted run. A leftover journal without `--resume` is an error
//! (it means an earlier sweep was interrupted); a completed sweep removes
//! its journal. `journal PATH` prints a journal's header and completion
//! count without running anything.
//!
//! Panic quarantine: `sweep --supervised` composes the journal with per-job
//! supervision — a scenario whose every attempt panics is quarantined (with
//! `--retries=N` retries under seeded backoff) instead of killing the
//! sweep, journaled as a typed failure entry (`--resume` skips it rather
//! than re-crashing), recorded as a queryable `kind=failed` warehouse row,
//! and listed in a `"failures"` array in the JSON.
//!
//! The experiment service (`figures serve`) runs sweeps as a resident job
//! server over a Unix socket in `--spool=DIR` (default `bench/spool`);
//! `submit`/`status`/`watch`/`cancel`/`drain` are thin clients for it. A
//! `submit` takes the active `--quick`/`--smoke` config plus
//! `--workloads=`/`--designs=`/`--cores=`/`--slices=`/`--clusters=` axes
//! and `--retries=`/`--deadline-ms=` supervision knobs. See the
//! `rnuca-service` crate docs for the protocol and crash-resume semantics.
//!
//! Exit codes: 0 success, 1 generic failure, 2 malformed query (spanned
//! diagnostics on stderr), 3 corrupt on-disk artifact — a damaged
//! warehouse or journal renders a compiler-style diagnostic naming the
//! file and byte offset, and is never silently recreated or repaired.

use rnuca_bench::{
    characterize_workload, default_perf_scenarios, evaluate_gate_query, filter_scenarios,
    records_from_json, run_perf_scenarios, PerfBaseline, PerfScenario,
};
use rnuca_os::rid_assignment;
use rnuca_service::{Request, ServiceClient, ServiceConfig};
use rnuca_sim::report::{fmt3, fmt_pct};
use rnuca_sim::{
    DesignComparison, ExperimentConfig, ExperimentEngine, JournalError, JournalReplay,
    QuarantinedSweep, ScenarioMatrix, ScenarioSweep, SweepError, TextTable,
};
use rnuca_types::access::AccessClass;
use rnuca_types::config::SystemConfig;
use rnuca_types::ids::TileId;
use rnuca_types::{BackoffConfig, RetryPolicy};
use rnuca_warehouse::{render_errors, Warehouse};
use rnuca_workloads::WorkloadSpec;
use std::path::Path;

const CHARACTERIZATION_REFS: usize = 400_000;
const CHARACTERIZATION_REFS_QUICK: usize = 60_000;
const CHARACTERIZATION_REFS_SMOKE: usize = 10_000;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let smoke = args.iter().any(|a| a == "--smoke");
    let engine = match args.iter().find_map(|a| a.strip_prefix("--workers=")) {
        Some(n) => match n.parse::<usize>() {
            Ok(n) if n > 0 => ExperimentEngine::with_workers(n),
            _ => {
                eprintln!("--workers must be a positive integer, got {n}");
                std::process::exit(2);
            }
        },
        None => ExperimentEngine::new(),
    };
    let perf_out = args
        .iter()
        .find_map(|a| a.strip_prefix("--out="))
        .map(String::from);
    let baseline_path = args
        .iter()
        .find_map(|a| a.strip_prefix("--baseline="))
        .map(String::from);
    let perf_filter = args
        .iter()
        .find_map(|a| a.strip_prefix("--filter="))
        .map(String::from);
    let perf_list = args.iter().any(|a| a == "--list");
    let store_path = args
        .iter()
        .find_map(|a| a.strip_prefix("--store="))
        .map(String::from);
    let journal_arg = args
        .iter()
        .find_map(|a| a.strip_prefix("--journal="))
        .map(String::from);
    let resume = args.iter().any(|a| a == "--resume");
    let json_output = args.iter().any(|a| a == "--json");
    let supervised = args.iter().any(|a| a == "--supervised");
    let retries = match args.iter().find_map(|a| a.strip_prefix("--retries=")) {
        Some(n) => n
            .parse::<u32>()
            .unwrap_or_else(|_| exit_with(&format!("--retries must be a number, got {n}"))),
        None => 1,
    };
    let spool_dir = args
        .iter()
        .find_map(|a| a.strip_prefix("--spool="))
        .unwrap_or("bench/spool")
        .to_string();
    let targets: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .cloned()
        .collect();
    let targets = if targets.is_empty() {
        vec!["all".to_string()]
    } else {
        targets
    };

    let (cfg, cfg_label) = if smoke {
        (ExperimentConfig::smoke(), "smoke")
    } else if quick {
        (ExperimentConfig::quick(), "quick")
    } else {
        (ExperimentConfig::full(), "full")
    };
    let char_refs = if smoke {
        CHARACTERIZATION_REFS_SMOKE
    } else if quick {
        CHARACTERIZATION_REFS_QUICK
    } else {
        CHARACTERIZATION_REFS
    };

    // The warehouse and service subcommands consume the remaining
    // positionals (files, query text, submission ids) themselves — they are
    // whole invocations, not targets.
    match targets[0].as_str() {
        "ingest" => return ingest_cmd(store_path.as_deref(), &targets[1..]),
        "query" => return query_cmd(store_path.as_deref(), json_output, &targets[1..]),
        "gate" => return gate_cmd(store_path.as_deref(), baseline_path.as_deref(), cfg_label),
        "journal" => return journal_cmd(&targets[1..]),
        "serve" => {
            return serve_cmd(
                &spool_dir,
                store_path.as_deref().unwrap_or(DEFAULT_STORE),
                &args,
            )
        }
        "submit" => return submit_cmd(&spool_dir, &args, cfg_label, retries, &targets[1..]),
        "status" => return simple_client_cmd(&spool_dir, Request::Status),
        "watch" => return watch_cmd(&spool_dir, &targets[1..]),
        "cancel" => {
            let id = targets
                .get(1)
                .unwrap_or_else(|| exit_with("cancel needs a submission id"));
            return simple_client_cmd(&spool_dir, Request::Cancel(id.clone()));
        }
        "drain" => return simple_client_cmd(&spool_dir, Request::Drain),
        _ => {}
    }
    if resume && journal_arg.is_none() {
        exit_with("--resume needs --journal=PATH (the journal the interrupted sweep wrote)");
    }

    // The evaluation (Figures 7-12) shares one run of every workload x design.
    let needs_eval = targets.iter().any(|t| {
        t == "all"
            || matches!(
                t.as_str(),
                "fig7" | "fig8" | "fig9" | "fig10" | "fig12" | "accuracy"
            )
    });
    let comparison = if needs_eval {
        Some(DesignComparison::run_evaluation_with(&cfg, &engine))
    } else {
        None
    };

    for target in &targets {
        match target.as_str() {
            "table1" => table1(),
            "fig2" => fig2(char_refs),
            "fig3" => fig3(char_refs),
            "fig4" => fig4(char_refs),
            "fig5" => fig5(char_refs),
            "fig6" => fig6(),
            "fig7" => fig7(comparison.as_ref().unwrap()),
            "fig8" => fig8(comparison.as_ref().unwrap()),
            "fig9" => fig9(comparison.as_ref().unwrap()),
            "fig10" => fig10(comparison.as_ref().unwrap()),
            "fig11" => fig11(&cfg, &engine),
            "fig12" => fig12(comparison.as_ref().unwrap()),
            "accuracy" => accuracy(comparison.as_ref().unwrap()),
            "sweep" if supervised => sweep_supervised(
                cfg,
                &engine,
                store_path.as_deref(),
                journal_arg.as_deref(),
                resume,
                retries,
            ),
            "sweep" => sweep(
                cfg,
                &engine,
                store_path.as_deref(),
                journal_arg.as_deref(),
                resume,
            ),
            "perf" if perf_list => perf_list_only(perf_filter.as_deref()),
            "perf" => perf(
                &cfg,
                cfg_label,
                &engine,
                perf_out.as_deref(),
                baseline_path.as_deref(),
                perf_filter.as_deref(),
                store_path.as_deref(),
            ),
            "all" => {
                table1();
                fig2(char_refs);
                fig3(char_refs);
                fig4(char_refs);
                fig5(char_refs);
                fig6();
                let c = comparison.as_ref().unwrap();
                accuracy(c);
                fig7(c);
                fig8(c);
                fig9(c);
                fig10(c);
                fig11(&cfg, &engine);
                fig12(c);
            }
            other => eprintln!("unknown target: {other}"),
        }
    }
}

/// The scenario-matrix sweep: every workload at 16/32/64 cores, three slice
/// capacities, under the shared design and R-NUCA at three cluster sizes.
/// Prints the result matrix as JSON on stdout. With `--store=` every sweep
/// point is also appended to the warehouse (the append summary goes to
/// stderr, keeping stdout pipeable). With `--journal=` every completed job
/// is logged as the sweep runs, and `--resume` continues an interrupted
/// sweep from that journal.
fn sweep(
    cfg: ExperimentConfig,
    engine: &ExperimentEngine,
    store_path: Option<&str>,
    journal: Option<&str>,
    resume: bool,
) {
    use rnuca_workloads::TraceArena;
    let matrix = rnuca_bench::default_sweep_matrix(cfg);
    let sweep = match journal {
        Some(jpath) => run_journaled_sweep(&matrix, engine, jpath, resume, store_path),
        None => match store_path {
            Some(path) => {
                let store = open_store(path);
                let (sweep, summary) = matrix
                    .run_forked_into(engine, &TraceArena::new(), &store)
                    .expect("the default sweep axes are valid");
                save_store(&store, path);
                eprintln!(
                    "warehouse: {} new rows ({} deduplicated) -> {path}",
                    summary.added, summary.deduplicated
                );
                sweep
            }
            None => matrix
                .run_with(engine)
                .expect("the default sweep axes are valid"),
        },
    };
    print!("{}", sweep.to_json());
}

/// The journaled (crash-safe) sweep path: refuses to clobber a leftover
/// journal without `--resume`, replays journaled jobs on resume, and
/// removes the journal once the sweep completes.
fn run_journaled_sweep(
    matrix: &ScenarioMatrix,
    engine: &ExperimentEngine,
    jpath: &str,
    resume: bool,
    store_path: Option<&str>,
) -> ScenarioSweep {
    use rnuca_workloads::TraceArena;
    let path = Path::new(jpath);
    if !resume && path.exists() {
        exit_with(&format!(
            "journal {jpath} already exists — an earlier sweep was interrupted; \
             pass --resume to continue it, or delete the journal to start over"
        ));
    }
    if resume && !path.exists() {
        exit_with(&format!(
            "--resume: journal {jpath} does not exist (run once without --resume to create it)"
        ));
    }
    let arena = TraceArena::new();
    let (sweep, resumed) = match store_path {
        Some(spath) => {
            let store = open_store(spath);
            let (sweep, summary, resumed) = matrix
                .run_forked_into_journaled(engine, &arena, path, resume, &store)
                .unwrap_or_else(|e| exit_sweep_error(jpath, e));
            save_store(&store, spath);
            eprintln!(
                "warehouse: {} new rows ({} deduplicated) -> {spath}",
                summary.added, summary.deduplicated
            );
            (sweep, resumed)
        }
        None => matrix
            .run_forked_journaled(engine, &arena, path, resume)
            .unwrap_or_else(|e| exit_sweep_error(jpath, e)),
    };
    eprintln!(
        "journal: replayed {} of {} jobs, ran {} -> {jpath}",
        resumed.replayed,
        resumed.replayed + resumed.ran,
        resumed.ran
    );
    // A journal only matters while its sweep is incomplete; leaving it
    // behind would make the next plain run error out for no reason.
    std::fs::remove_file(path)
        .unwrap_or_else(|e| exit_with(&format!("cannot remove completed journal {jpath}: {e}")));
    eprintln!("journal: sweep complete, removed {jpath}");
    sweep
}

/// `sweep --supervised`: the panic-quarantining sweep. One poisoned
/// scenario gets `--retries` retries under seeded backoff and, if it
/// still fails, a typed failure entry — in the JSON's `"failures"` array,
/// in the journal (so `--resume` skips it instead of re-crashing), and as a
/// `kind=failed` warehouse row with the failure text in the `failure`
/// column.
fn sweep_supervised(
    cfg: ExperimentConfig,
    engine: &ExperimentEngine,
    store_path: Option<&str>,
    journal: Option<&str>,
    resume: bool,
    retries: u32,
) {
    use rnuca_workloads::TraceArena;
    let matrix = rnuca_bench::default_sweep_matrix(cfg);
    let policy = RetryPolicy::immediate(retries).with_backoff(BackoffConfig::default_service());
    let arena = TraceArena::new();
    let sweep = match journal {
        Some(jpath) => {
            let path = Path::new(jpath);
            if !resume && path.exists() {
                exit_with(&format!(
                    "journal {jpath} already exists — an earlier sweep was interrupted; \
                     pass --resume to continue it, or delete the journal to start over"
                ));
            }
            if resume && !path.exists() {
                exit_with(&format!(
                    "--resume: journal {jpath} does not exist (run once without --resume to \
                     create it)"
                ));
            }
            let (sweep, resumed) = match store_path {
                Some(spath) => {
                    let store = open_store(spath);
                    let (sweep, summary, resumed) = matrix
                        .run_supervised_into_journaled(
                            engine, &arena, path, resume, &policy, &store,
                        )
                        .unwrap_or_else(|e| exit_sweep_error(jpath, e));
                    save_store(&store, spath);
                    eprintln!(
                        "warehouse: {} new rows ({} deduplicated) -> {spath}",
                        summary.added, summary.deduplicated
                    );
                    (sweep, resumed)
                }
                None => matrix
                    .run_supervised_journaled(engine, &arena, path, resume, &policy)
                    .unwrap_or_else(|e| exit_sweep_error(jpath, e)),
            };
            eprintln!(
                "journal: replayed {} of {} jobs, ran {} -> {jpath}",
                resumed.replayed,
                resumed.replayed + resumed.ran,
                resumed.ran
            );
            // Every job has an outcome (a run or a quarantined failure), so
            // the journal's work is done, exactly like the fail-fast path.
            std::fs::remove_file(path).unwrap_or_else(|e| {
                exit_with(&format!("cannot remove completed journal {jpath}: {e}"))
            });
            eprintln!("journal: sweep complete, removed {jpath}");
            sweep
        }
        None => {
            let sweep = matrix
                .run_supervised_forked(engine, &arena, retries)
                .unwrap_or_else(|e| exit_with(&format!("sweep failed: {e}")));
            if let Some(spath) = store_path {
                let store = open_store(spath);
                let jobs = matrix.jobs().expect("the default sweep axes are valid");
                let records: Vec<_> = jobs
                    .iter()
                    .zip(&sweep.results)
                    .map(|(job, result)| match result {
                        Ok(r) => rnuca_sim::sweep_record(&matrix.cfg, &job.workload, r),
                        Err(f) => rnuca_sim::failed_record(&matrix.cfg, job, f),
                    })
                    .collect();
                let summary = store.append_all(&records);
                save_store(&store, spath);
                eprintln!(
                    "warehouse: {} new rows ({} deduplicated) -> {spath}",
                    summary.added, summary.deduplicated
                );
            }
            sweep
        }
    };
    report_quarantined(&sweep);
    print!("{}", sweep.to_json());
}

/// Makes quarantined jobs loud on stderr (stdout stays pipeable JSON).
fn report_quarantined(sweep: &QuarantinedSweep) {
    let failures = sweep.failures();
    if failures.is_empty() {
        return;
    }
    eprintln!(
        "supervised sweep: {} of {} jobs quarantined:",
        failures.len(),
        sweep.results.len()
    );
    for f in failures {
        eprintln!("  {f}");
    }
}

/// `figures serve`: run the resident experiment service until drained.
fn serve_cmd(spool: &str, store: &str, args: &[String]) {
    let workers = match args.iter().find_map(|a| a.strip_prefix("--workers=")) {
        Some(n) => n
            .parse::<usize>()
            .ok()
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                exit_with(&format!("--workers must be a positive integer, got {n}"))
            }),
        None => std::thread::available_parallelism().map_or(4, |n| n.get()),
    };
    rnuca_service::serve(&ServiceConfig {
        spool: spool.into(),
        store: store.into(),
        workers,
    })
    .unwrap_or_else(|e| exit_with(&format!("service: {e}")));
}

/// Connects to the service socket inside `spool`, failing with a hint when
/// no service is running there.
fn connect_service(spool: &str) -> ServiceClient {
    let socket = Path::new(spool).join("service.sock");
    ServiceClient::connect(&socket).unwrap_or_else(|e| {
        exit_with(&format!(
            "cannot reach the experiment service at {} ({e}); start one with \
             `figures serve --spool={spool}`",
            socket.display()
        ))
    })
}

/// `figures submit`: build a spec from the active config and axis flags (or
/// take a raw `v1|...` spec line as the positional) and queue it.
fn submit_cmd(spool: &str, args: &[String], cfg_label: &str, retries: u32, rest: &[String]) {
    let spec_line = match rest.first() {
        Some(raw) => raw.clone(),
        None => {
            let axis = |prefix: &str| {
                args.iter()
                    .find_map(|a| a.strip_prefix(prefix))
                    .unwrap_or("")
                    .to_string()
            };
            let seed = args
                .iter()
                .find_map(|a| a.strip_prefix("--seed="))
                .unwrap_or("-");
            let deadline_ms = args
                .iter()
                .find_map(|a| a.strip_prefix("--deadline-ms="))
                .unwrap_or("0");
            format!(
                "v1|config={cfg_label}|seed={seed}|workloads={}|designs={}|cores={}|slices={}\
                 |clusters={}|retries={retries}|deadline_ms={deadline_ms}",
                axis("--workloads="),
                axis("--designs="),
                axis("--cores="),
                axis("--slices="),
                axis("--clusters="),
            )
        }
    };
    // Validate locally first: a typo'd flag should fail with the parse
    // error, not a round-trip.
    if let Err(e) = rnuca_service::SubmitSpec::parse(&spec_line) {
        exit_with(&format!("invalid submission: {e}"));
    }
    let mut client = connect_service(spool);
    finish_reply(client.request(&Request::Submit(spec_line)));
}

/// Sends one request (`status`, `cancel`, `drain`) and prints the reply.
fn simple_client_cmd(spool: &str, request: Request) {
    let mut client = connect_service(spool);
    finish_reply(client.request(&request));
}

/// `figures watch ID`: stream a submission's progress events until it
/// reaches a terminal state; exit 1 when that state is a failure.
fn watch_cmd(spool: &str, rest: &[String]) {
    let id = rest
        .first()
        .unwrap_or_else(|| exit_with("watch needs a submission id: figures watch ID"));
    let mut client = connect_service(spool);
    let done = client
        .watch(id, |event| println!("{event}"))
        .unwrap_or_else(|e| exit_with(&format!("watch failed: {e}")));
    println!("{done}");
    // A failed submission renders as `done ID failed: reason` — distinct
    // from the `failed=N` counter a completed one reports.
    if done.starts_with("err ") || done.contains(" failed:") {
        std::process::exit(1);
    }
}

/// Prints an `ok` reply (sans prefix) or exits 1 with the `err` message.
fn finish_reply(reply: std::io::Result<String>) {
    match reply {
        Ok(reply) => match reply.strip_prefix("ok ") {
            Some(body) => println!("{body}"),
            None => exit_with(&reply),
        },
        Err(e) => exit_with(&format!("service request failed: {e}")),
    }
}

/// Renders a journaled-sweep failure and exits: corrupt journals get the
/// byte-offset diagnostic and exit code 3, stale journals an actionable
/// hint, config errors the generic exit.
fn exit_sweep_error(jpath: &str, e: SweepError) -> ! {
    match e {
        SweepError::Journal(JournalError::Corrupt { offset, message }) => {
            eprintln!(
                "error: corrupt sweep journal: {message}\n  --> {jpath} (byte {offset})\n   \
                 = help: delete the journal and re-run the sweep from the start"
            );
            std::process::exit(EXIT_CORRUPT);
        }
        SweepError::Journal(e @ JournalError::FingerprintMismatch { .. }) => exit_with(&format!(
            "{e}\njournal {jpath} belongs to a different sweep (axes, seed, run lengths, or \
             schema changed); delete it to start this sweep from scratch"
        )),
        other => exit_with(&format!("sweep failed: {other}")),
    }
}

/// `figures journal PATH...`: prints each journal's identity and completion
/// count without running anything.
fn journal_cmd(paths: &[String]) {
    if paths.is_empty() {
        exit_with("journal needs at least one path: figures journal PATH...");
    }
    for path in paths {
        match JournalReplay::load(Path::new(path)) {
            Ok(replay) => println!(
                "{path}: sweep {:#018x}, {} of {} jobs journaled{}",
                replay.fingerprint,
                replay.completed(),
                replay.jobs,
                if replay.torn_tail {
                    " (torn tail dropped)"
                } else {
                    ""
                }
            ),
            Err(JournalError::Corrupt { offset, message }) => {
                eprintln!(
                    "error: corrupt sweep journal: {message}\n  --> {path} (byte {offset})\n   \
                     = help: delete the journal and re-run the sweep from the start"
                );
                std::process::exit(EXIT_CORRUPT);
            }
            Err(e) => exit_with(&format!("cannot read journal {path}: {e}")),
        }
    }
}

/// Where the warehouse lives when `--store=` is not given.
const DEFAULT_STORE: &str = "bench/warehouse.bin";

/// Exit code for a corrupt on-disk artifact (store or journal) — distinct
/// from generic failures (1) and malformed queries (2) so CI and scripts
/// can tell "fix your command" from "your data is damaged".
const EXIT_CORRUPT: i32 = 3;

/// Opens (or initializes) the warehouse at `path`, exiting on corruption —
/// a damaged store fails loudly with a diagnostic naming the file and byte
/// offset (exit code 3); it is never silently recreated.
fn open_store(path: &str) -> Warehouse {
    let p = Path::new(path);
    let bytes = match std::fs::read(p) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Warehouse::new(),
        Err(e) => exit_with(&format!("cannot read store {path}: {e}")),
    };
    Warehouse::from_bytes(&bytes).unwrap_or_else(|e| {
        eprintln!("{}", e.render(p, &bytes));
        std::process::exit(EXIT_CORRUPT);
    })
}

fn save_store(store: &Warehouse, path: &str) {
    if let Some(dir) = Path::new(path)
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
    {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| exit_with(&format!("cannot create {}: {e}", dir.display())));
    }
    store
        .save(Path::new(path))
        .unwrap_or_else(|e| exit_with(&format!("cannot write store {path}: {e}")));
}

/// `figures ingest FILE...`: loads benchmark artifacts into the warehouse.
fn ingest_cmd(store_path: Option<&str>, files: &[String]) {
    if files.is_empty() {
        exit_with("ingest needs at least one file: figures ingest [--store=PATH] FILE...");
    }
    let path = store_path.unwrap_or(DEFAULT_STORE);
    let store = open_store(path);
    for file in files {
        let text = std::fs::read_to_string(file)
            .unwrap_or_else(|e| exit_with(&format!("cannot read {file}: {e}")));
        let (records, kind) = records_from_json(&text)
            .unwrap_or_else(|e| exit_with(&format!("cannot ingest {file}: {e}")));
        let summary = store.append_all(&records);
        println!(
            "{file}: {} new rows ({} deduplicated, {})",
            summary.added,
            summary.deduplicated,
            kind.as_str()
        );
    }
    save_store(&store, path);
    println!("store: {} rows -> {path}", store.len());
}

/// `figures query "QUERY"`: runs a typed query against the warehouse and
/// prints a table (or JSON with `--json`). Query errors render with source
/// spans on stderr and exit 2, like a compiler.
fn query_cmd(store_path: Option<&str>, json: bool, query_parts: &[String]) {
    let path = store_path.unwrap_or(DEFAULT_STORE);
    let store = open_store(path);
    let query = query_parts.join(" ");
    match store.query(&query) {
        Ok(out) => {
            if json {
                println!("{}", out.to_json());
            } else {
                print!("{}", out.render_table());
                println!("{} rows", out.rows.len());
            }
        }
        Err(errors) => {
            eprintln!("{}", render_errors(&errors, &query));
            std::process::exit(2);
        }
    }
}

/// `figures gate --baseline=PATH [--config via --quick/--smoke]`: the CI
/// perf-regression gate as a warehouse query, judging the store's latest
/// non-partial totals row for the active config. Exits 1 on failure.
fn gate_cmd(store_path: Option<&str>, baseline: Option<&str>, cfg_label: &str) {
    let baseline_path =
        baseline.unwrap_or_else(|| exit_with("gate needs --baseline=bench/baseline.json"));
    let path = store_path.unwrap_or(DEFAULT_STORE);
    let store = open_store(path);
    let text = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| exit_with(&format!("cannot read baseline {baseline_path}: {e}")));
    let parsed = PerfBaseline::from_json(&text, cfg_label)
        .unwrap_or_else(|e| exit_with(&format!("cannot parse baseline {baseline_path}: {e}")));
    let gate = evaluate_gate_query(&store, &parsed, cfg_label)
        .unwrap_or_else(|e| exit_with(&format!("gate query failed: {e}")));
    report_gate(&gate, cfg_label);
}

/// Prints a gate verdict in the format CI greps for, exiting 1 on failure.
fn report_gate(g: &rnuca_bench::GateOutcome, cfg_label: &str) {
    println!(
        "baseline ({cfg_label}): {:+.1}% vs pre-optimization, {:.2}x gate (tolerance {:.0}%)",
        (g.speedup_vs_pre_optimization - 1.0) * 100.0,
        g.ratio_vs_gate,
        g.baseline.tolerance * 100.0,
    );
    if !g.pass {
        exit_with(&format!(
            "PERF GATE FAILED: throughput is more than {:.0}% below the baseline {:.0}",
            g.baseline.tolerance * 100.0,
            g.baseline.gate_blocks_per_sec,
        ));
    }
    println!("perf gate: PASS");
}

/// The timed throughput suite: writes `BENCH_perf.json` to `out` and, when a
/// baseline is given, evaluates the regression gate (exiting non-zero on
/// failure, which is how CI turns a perf regression into a red build). The
/// run's rows are appended to the results warehouse — persisted when
/// `--store=` names a path, in-memory otherwise — and the gate verdict is a
/// query over that store's latest totals row (see
/// [`rnuca_bench::evaluate_gate_query`]). A `--filter` substring restricts
/// the scenario list for local iteration — and skips the gate, since the
/// baseline numbers describe the full list; filtered rows are appended with
/// `partial=true` so gate queries exclude them. A filtered run also refuses
/// the default output path: its partial report would silently clobber the
/// checked-in full-configuration record, so the report is written only when
/// `--out=` names a destination explicitly.
fn perf(
    cfg: &ExperimentConfig,
    cfg_label: &str,
    engine: &ExperimentEngine,
    out: Option<&str>,
    baseline: Option<&str>,
    filter: Option<&str>,
    store_path: Option<&str>,
) {
    heading("perf: timed end-to-end throughput");
    let scenarios = selected_scenarios(filter);
    let report = run_perf_scenarios(&scenarios, cfg, engine);
    // Every run lands in the warehouse; a filtered run's rows are marked
    // partial so they can never satisfy (or poison) a gate query.
    let store = match store_path {
        Some(path) => open_store(path),
        None => Warehouse::new(),
    };
    let summary = store.append_all(&report.to_records(filter.is_some()));
    if let Some(path) = store_path {
        save_store(&store, path);
        println!(
            "warehouse: {} new rows ({} deduplicated) -> {path}",
            summary.added, summary.deduplicated
        );
    }
    if filter.is_some() && baseline.is_some() {
        println!("note: --filter active, skipping the regression gate (baseline covers the full scenario list)");
    }
    let gate = baseline.filter(|_| filter.is_none()).map(|path| {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| exit_with(&format!("cannot read baseline {path}: {e}")));
        let parsed = PerfBaseline::from_json(&text, cfg_label)
            .unwrap_or_else(|e| exit_with(&format!("cannot parse baseline {path}: {e}")));
        evaluate_gate_query(&store, &parsed, cfg_label)
            .unwrap_or_else(|e| exit_with(&format!("gate query failed: {e}")))
    });
    let json = match &gate {
        Some(g) => report.to_json_with_gate(g),
        None => report.to_json(),
    };
    // A filtered (partial) report must never land on the default path,
    // where it would overwrite the checked-in full-configuration record.
    let destination = match (out, filter) {
        (Some(path), _) => Some(path),
        (None, None) => Some("BENCH_perf.json"),
        (None, Some(_)) => None,
    };
    let written = match destination {
        Some(path) => {
            std::fs::write(path, &json)
                .unwrap_or_else(|e| exit_with(&format!("cannot write {path}: {e}")));
            path
        }
        None => {
            println!("note: --filter active and no --out= given, not writing a report file");
            "(not written)"
        }
    };
    println!(
        "{} scenarios, {} refs, {:.0} blocks/sec (warm-up + measured loop), \
         {:.2} jobs/sec, {:.2}s trace generation (once per unique stream), \
         {:.2}s warm-up + {:.2}s measured -> {written}",
        report.totals.scenarios,
        report.totals.refs,
        report.totals.blocks_per_sec,
        report.totals.jobs_per_sec,
        report.totals.tracegen_nanos as f64 / 1e9,
        report.totals.warmup_nanos as f64 / 1e9,
        report.totals.measured_nanos as f64 / 1e9,
    );
    if let Some(g) = gate {
        report_gate(&g, cfg_label);
    }
}

/// Resolves `--filter` against the default perf scenario list, exiting when
/// nothing matches (a typo'd filter should fail loudly, not run zero work).
fn selected_scenarios(filter: Option<&str>) -> Vec<PerfScenario> {
    match filter {
        Some(f) => {
            let kept = filter_scenarios(default_perf_scenarios(), f);
            if kept.is_empty() {
                exit_with(&format!("--filter={f} matches no perf scenario"));
            }
            println!(
                "filter '{f}': {} of {} scenarios",
                kept.len(),
                default_perf_scenarios().len()
            );
            kept
        }
        None => default_perf_scenarios(),
    }
}

/// `perf --list`: prints the scenario labels, one per line, without
/// generating traces or simulating.
fn perf_list_only(filter: Option<&str>) {
    let scenarios = selected_scenarios(filter);
    println!("{} scenarios:", scenarios.len());
    for s in &scenarios {
        println!("  {}", s.label());
    }
}

fn exit_with(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
}

fn heading(title: &str) {
    println!("\n==== {title} ====");
}

fn table1() {
    heading("Table 1: system parameters");
    for (label, cfg) in [
        ("16-core (server/scientific)", SystemConfig::server_16()),
        ("8-core (multi-programmed)", SystemConfig::desktop_8()),
    ] {
        println!(
            "{label}: {} cores, {} KB L2/slice {}-way {}-cycle hit, {}x{} folded torus, {}-cycle DRAM, {} memory controllers",
            cfg.num_cores,
            cfg.l2_slice.geometry.capacity_bytes / 1024,
            cfg.l2_slice.geometry.ways,
            cfg.l2_slice.hit_latency.value(),
            cfg.torus.width,
            cfg.torus.height,
            cfg.memory.access_latency.value(),
            cfg.num_mem_controllers(),
        );
    }
}

fn fig2(refs: usize) {
    heading("Figure 2: L2 reference clustering (sharers vs read-write blocks)");
    let mut table = TextTable::new(vec![
        "workload",
        "class",
        "sharers",
        "%accesses",
        "%RW blocks",
    ]);
    for spec in WorkloadSpec::evaluation_suite() {
        let c = characterize_workload(&spec, refs, 1);
        for b in &c.sharers.bubbles {
            if b.access_fraction < 0.005 {
                continue;
            }
            table.add_row(vec![
                spec.name.clone(),
                b.class.label().to_string(),
                b.sharers.to_string(),
                fmt_pct(b.access_fraction),
                fmt_pct(b.read_write_fraction),
            ]);
        }
    }
    println!("{table}");
}

fn fig3(refs: usize) {
    heading("Figure 3: L2 reference breakdown by access class");
    println!("{}", rnuca_bench::figure3_table(refs, 1));
}

fn fig4(refs: usize) {
    heading(
        "Figure 4: working-set CDFs (footprint KB capturing 50% / 90% of each class's references)",
    );
    let mut table = TextTable::new(vec![
        "workload",
        "instr KB@50%",
        "instr KB@90%",
        "private KB@50%",
        "private KB@90%",
        "shared KB@50%",
        "shared KB@90%",
    ]);
    for spec in WorkloadSpec::evaluation_suite() {
        let c = characterize_workload(&spec, refs, 1);
        table.add_row(vec![
            spec.name.clone(),
            fmt3(c.instr_cdf.kb_at_fraction(0.5)),
            fmt3(c.instr_cdf.kb_at_fraction(0.9)),
            fmt3(c.private_cdf.kb_at_fraction(0.5)),
            fmt3(c.private_cdf.kb_at_fraction(0.9)),
            fmt3(c.shared_cdf.kb_at_fraction(0.5)),
            fmt3(c.shared_cdf.kb_at_fraction(0.9)),
        ]);
    }
    println!("{table}");
}

fn fig5(refs: usize) {
    heading("Figure 5: instruction and shared-data reuse by the same core");
    let mut table = TextTable::new(vec![
        "workload", "class", "1st", "2nd", "3rd-4th", "5th-8th", "9+",
    ]);
    for spec in WorkloadSpec::evaluation_suite() {
        let c = characterize_workload(&spec, refs, 1);
        for (label, hist) in [("Instr", c.instr_reuse), ("Shared", c.shared_reuse)] {
            let f = hist.fractions();
            table.add_row(vec![
                spec.name.clone(),
                label.to_string(),
                fmt_pct(f[0]),
                fmt_pct(f[1]),
                fmt_pct(f[2]),
                fmt_pct(f[3]),
                fmt_pct(f[4]),
            ]);
        }
    }
    println!("{table}");
}

fn fig6() {
    heading("Figure 6: rotational-ID assignment and size-4 cluster example (4x4 torus)");
    let rids = rid_assignment(4, 4, 4, 0);
    for y in 0..4 {
        let row: Vec<String> = (0..4)
            .map(|x| format!("{:02b}", rids[y * 4 + x].value()))
            .collect();
        println!("  {}", row.join(" "));
    }
    let engine = rnuca::PlacementEngine::new(rnuca::PlacementConfig::from_system(
        &SystemConfig::server_16(),
    ));
    let cluster = engine.instruction_cluster(rnuca_types::ids::CoreId::new(5));
    let members: Vec<String> = cluster.members().iter().map(TileId::to_string).collect();
    println!(
        "  size-4 fixed-center cluster of tile T5: {{{}}}",
        members.join(", ")
    );
}

fn accuracy(c: &DesignComparison) {
    heading("Section 5.2: page-classification accuracy under R-NUCA");
    let mut table = TextTable::new(vec![
        "workload",
        "misclassified accesses",
        "re-classifications",
    ]);
    for w in &c.workloads {
        if let Some(r) = w.by_letter("R") {
            table.add_row(vec![
                w.workload.clone(),
                fmt_pct(r.run.misclassification_rate),
                r.run.reclassifications.to_string(),
            ]);
        }
    }
    println!("{table}");
}

fn fig7(c: &DesignComparison) {
    heading("Figure 7: total CPI breakdown, normalised to the private design");
    let mut table = TextTable::new(vec![
        "workload", "design", "busy", "L1-to-L1", "L2", "off-chip", "other", "re-class", "total",
    ]);
    for w in &c.workloads {
        let base = w.private_baseline().total_cpi();
        for letter in ["P", "A", "S", "R"] {
            if let Some(r) = w.by_letter(letter) {
                let b = r.run.cpi.breakdown.scaled(base);
                table.add_row(vec![
                    w.workload.clone(),
                    letter.to_string(),
                    fmt3(b.busy),
                    fmt3(b.l1_to_l1),
                    fmt3(b.l2),
                    fmt3(b.off_chip),
                    fmt3(b.other),
                    fmt3(b.reclassification),
                    fmt3(r.total_cpi() / base),
                ]);
            }
        }
    }
    println!("{table}");
}

fn fig8(c: &DesignComparison) {
    heading("Figure 8: CPI of L1-to-L1 and shared-data L2 loads, normalised to the private design's total CPI");
    let mut table = TextTable::new(vec![
        "workload",
        "design",
        "L1-to-L1",
        "L2 shared coherence",
        "L2 shared load",
    ]);
    for w in &c.workloads {
        let base = w.private_baseline().total_cpi();
        for letter in ["P", "A", "S", "R"] {
            if let Some(r) = w.by_letter(letter) {
                table.add_row(vec![
                    w.workload.clone(),
                    letter.to_string(),
                    fmt3(r.run.cpi.breakdown.l1_to_l1 / base),
                    fmt3(r.run.cpi.l2_shared_coherence / base),
                    fmt3(r.run.cpi.l2_shared_load / base),
                ]);
            }
        }
    }
    println!("{table}");
}

fn fig9(c: &DesignComparison) {
    heading("Figure 9: CPI of L2 accesses to private data, normalised to the private design's total CPI");
    per_class_l2_table(c, AccessClass::PrivateData);
}

fn fig10(c: &DesignComparison) {
    heading(
        "Figure 10: CPI of L2 instruction accesses, normalised to the private design's total CPI",
    );
    per_class_l2_table(c, AccessClass::Instruction);
}

fn per_class_l2_table(c: &DesignComparison, class: AccessClass) {
    let mut table = TextTable::new(vec!["workload", "P", "A", "S", "R"]);
    for w in &c.workloads {
        let base = w.private_baseline().total_cpi();
        let mut row = vec![w.workload.clone()];
        for letter in ["P", "A", "S", "R"] {
            let v = w
                .by_letter(letter)
                .map(|r| match class {
                    AccessClass::PrivateData => r.run.cpi.l2_private_data,
                    AccessClass::Instruction => r.run.cpi.l2_instructions,
                    AccessClass::SharedData => {
                        r.run.cpi.l2_shared_load + r.run.cpi.l2_shared_coherence
                    }
                })
                .unwrap_or(f64::NAN);
            row.push(fmt3(v / base));
        }
        table.add_row(row);
    }
    println!("{table}");
}

fn fig11(cfg: &ExperimentConfig, engine: &ExperimentEngine) {
    heading("Figure 11: CPI vs R-NUCA instruction-cluster size, normalised to size-1 clusters");
    let sweep = DesignComparison::run_cluster_sweep_with(cfg, &[1, 2, 4, 8, 16], engine);
    let mut table = TextTable::new(vec![
        "workload",
        "size",
        "total/size-1",
        "L2 instr CPI",
        "off-chip CPI",
    ]);
    for (name, rows) in &sweep {
        let base = rows.first().map(|(_, r)| r.total_cpi()).unwrap_or(1.0);
        for (size, run) in rows {
            table.add_row(vec![
                name.clone(),
                size.to_string(),
                fmt3(run.total_cpi() / base),
                fmt3(run.cpi.l2_instructions),
                fmt3(run.cpi.breakdown.off_chip),
            ]);
        }
    }
    println!("{table}");
}

fn fig12(c: &DesignComparison) {
    heading("Figure 12: speedup over the private design");
    let mut table = TextTable::new(vec!["workload", "bucket", "P", "A", "S", "R", "I"]);
    for w in &c.workloads {
        let mut row = vec![
            w.workload.clone(),
            if w.private_averse {
                "private-averse".into()
            } else {
                "shared-averse".into()
            },
        ];
        let baseline = w.private_baseline();
        for letter in ["P", "A", "S", "R", "I"] {
            let s = w
                .by_letter(letter)
                .map(|r| r.speedup_over(baseline))
                .unwrap_or(f64::NAN);
            row.push(format!("{:+.1}%", (s - 1.0) * 100.0));
        }
        table.add_row(row);
    }
    println!("{table}");
    println!(
        "Average speedup of R-NUCA: {:+.1}% over private, {:+.1}% over shared, {:.1}% below ideal",
        (c.mean_speedup("R", "P") - 1.0) * 100.0,
        (c.mean_speedup("R", "S") - 1.0) * 100.0,
        (1.0 - 1.0 / c.mean_speedup("I", "R")) * 100.0,
    );
}
