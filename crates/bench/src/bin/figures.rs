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
//! `--seed=N` replaces the preset's seed (42) for every simulating target
//! and the characterization seed (1) of `fig2`..`fig5`; without it, every
//! target prints what it always has.
//!
//! `sweep` runs the scenario matrix — core counts 16/32/64, L2 slice
//! capacities 512 KB/1 MB/2 MB, R-NUCA instruction clusters 2/4/8 — and
//! prints JSON to stdout (nothing else, so it can be piped into a file).
//! `sweep` is intentionally not part of `all`, which emits text tables.
//!
//! Every simulating target runs its matrix supervised: a job that panics is
//! quarantined instead of unwinding through `figures`. The figures need
//! every job, so a quarantined job makes them print each failure on stderr
//! (`job N failed after 1 attempt (panic): ...`) and exit 1 before any
//! table is printed.
//!
//! `perf` runs the timed throughput suite (five designs × three workloads ×
//! 16/32/64 cores) and writes the perf report to `BENCH_perf.json`
//! (`--out=PATH` overrides the path); with `--store=PATH` it also appends
//! the report's rows to that warehouse. Like `sweep`, `perf` is not part of
//! `all`. `--filter=SUBSTRING` keeps only the scenarios whose
//! `workload/letter/design/Ncores` label contains the substring
//! (case-insensitive, e.g. `--filter=em3d` or `--filter=/R/`) for fast local
//! iteration. `perf --list` prints the scenario labels, one per line,
//! without simulating anything; it honours `--filter`.
//!
//! `query "QUERY"` runs a typed query (`design=R & cores>=32 sort
//! off_chip_rate`) against the results warehouse named by `--store=PATH`
//! (default `bench/warehouse.bin`) and prints an aligned table, or JSON with
//! `--json`. Malformed queries print compiler-style spanned diagnostics on
//! stderr and exit 2.
//!
//! Rows reach the warehouse only from the run that measured them:
//! `perf --store=` above, and `sweep --store=PATH`, which appends one row
//! per sweep point (the JSON on stdout is unchanged; the append summary
//! goes to stderr). Appends are idempotent: re-running a sweep the store
//! has seen reports `0 new rows`.
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
//! Panic quarantine: `sweep` retries a scenario whose attempt panics
//! (`--retries=N`, default 1, under seeded backoff). One whose every
//! attempt panics is quarantined instead of killing the sweep: it is
//! journaled as a typed failure entry (`--resume` skips it rather than
//! re-crashing), recorded as a queryable `kind=failed` warehouse row, and
//! listed in the JSON's `"failures"` array (empty when every job
//! completed), with `null` in its `"results"` slot.
//!
//! The experiment service (`figures serve`) runs sweeps as a resident job
//! server over a Unix socket in `--spool=DIR` (default `bench/spool`);
//! `submit`/`status`/`watch`/`cancel`/`drain` are thin clients for it. A
//! `submit` takes the active `--quick`/`--smoke` config plus
//! `--workloads=`/`--designs=`/`--cores=`/`--slices=`/`--clusters=` axes
//! and `--retries=`/`--deadline-ms=` supervision knobs, with `--seed=`
//! overriding the preset's seed. See the `rnuca-service` crate docs for the
//! protocol and crash-resume semantics.
//!
//! Some flags are read by some targets only: `--journal=` and `--resume` by
//! `sweep`; `--retries=` by `sweep` and `submit`; `--out=`, `--filter=` and
//! `--list` by `perf`; `--json` by `query`; the axis flags and
//! `--deadline-ms=` by `submit`. A flag that none of the requested targets
//! reads is a usage error rather than silently ignored.
//!
//! Exit codes: 0 success, 1 generic failure (including a figure whose
//! matrix had a quarantined job), 2 usage error (an unknown flag or target,
//! a flag no requested target reads, a malformed `--workers=`, `--seed=` or
//! `--retries=`, or a malformed query with spanned diagnostics on stderr),
//! 3 corrupt on-disk artifact — a damaged warehouse or journal renders a
//! compiler-style diagnostic naming the file and byte offset, and is never
//! silently recreated or repaired.

use rnuca_bench::{characterize_workload, filter_scenarios, perf_matrix, run_perf};
use rnuca_os::rid_assignment;
use rnuca_service::{Request, ServiceClient, ServiceConfig};
use rnuca_sim::report::{fmt3, fmt_pct};
use rnuca_sim::{
    ExperimentConfig, ExperimentEngine, JobFailure, JournalError, JournalReplay, QuarantinedSweep,
    ScenarioJob, ScenarioMatrix, ScenarioResult, ScenarioSweep, SweepError, SweepOptions,
    TextTable,
};
use rnuca_types::access::AccessClass;
use rnuca_types::config::SystemConfig;
use rnuca_types::ids::TileId;
use rnuca_types::{BackoffConfig, RetryPolicy};
use rnuca_warehouse::{render_errors, Warehouse};
use rnuca_workloads::{TraceArena, TraceCharacterization, WorkloadSpec};
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;

// Every `print!`/`println!` below resolves to these, not to std's: std's
// panic when the reader of stdout hangs up (`figures perf --list | head -1`),
// turning a finished pipeline into a crash report.
macro_rules! print {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}
macro_rules! println {
    () => {
        write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Writes to stdout. Once the reader has closed the pipe nobody is left to
/// read the rest, so `figures` exits 0 quietly instead of panicking; any
/// other write error still panics.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {e}");
    }
}

const CHARACTERIZATION_REFS: usize = 400_000;
const CHARACTERIZATION_REFS_QUICK: usize = 60_000;
const CHARACTERIZATION_REFS_SMOKE: usize = 10_000;
/// The seed `fig2`..`fig5` characterize the workloads under unless
/// `--seed=` replaces it.
const CHARACTERIZATION_SEED: u64 = 1;

/// Every flag `figures` accepts, with the targets that read it (an empty
/// list: every target). A `--name=value` option is listed with its `=`. A
/// command line whose requested targets include no reader of one of its
/// flags exits 2 instead of running as if the flag had not been given.
const FLAGS: &[(&str, &[&str])] = &[
    ("--quick", &[]),
    ("--smoke", &[]),
    ("--workers=", &[]),
    ("--seed=", &[]),
    ("--store=", &[]),
    ("--spool=", &[]),
    ("--journal=", &["sweep"]),
    ("--resume", &["sweep"]),
    ("--retries=", &["sweep", "submit"]),
    ("--out=", &["perf"]),
    ("--filter=", &["perf"]),
    ("--list", &["perf"]),
    ("--json", &["query"]),
    ("--workloads=", &["submit"]),
    ("--designs=", &["submit"]),
    ("--cores=", &["submit"]),
    ("--slices=", &["submit"]),
    ("--clusters=", &["submit"]),
    ("--deadline-ms=", &["submit"]),
];

/// The warehouse and service subcommands: each takes the positionals after
/// it as its own operands (files, query text, submission ids), not as
/// targets.
const SUBCOMMANDS: &[&str] = &[
    "query", "journal", "serve", "submit", "status", "watch", "cancel", "drain",
];

/// The targets that print figures or run experiments; the warehouse and
/// service subcommands are dispatched before these are checked.
const TARGETS: &[&str] = &[
    "table1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
    "fig12", "accuracy", "all", "sweep", "perf",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
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
    let requested = if SUBCOMMANDS.contains(&targets[0].as_str()) {
        &targets[..1]
    } else {
        &targets[..]
    };
    for flag in args.iter().filter(|a| a.starts_with("--")) {
        let matches = |name: &str| {
            if name.ends_with('=') {
                flag.starts_with(name)
            } else {
                flag == name
            }
        };
        let Some((_, readers)) = FLAGS.iter().find(|(name, _)| matches(name)) else {
            exit_usage(&format!("unknown flag: {flag}"));
        };
        if !readers.is_empty() && !requested.iter().any(|t| readers.contains(&t.as_str())) {
            let readers: Vec<String> = readers.iter().map(|t| format!("`figures {t}`")).collect();
            exit_usage(&format!("{flag} applies only to {}", readers.join(" or ")));
        }
    }
    let quick = args.iter().any(|a| a == "--quick");
    let smoke = args.iter().any(|a| a == "--smoke");
    let engine = match args.iter().find_map(|a| a.strip_prefix("--workers=")) {
        Some(n) => match n.parse::<usize>() {
            Ok(n) if n > 0 => ExperimentEngine::with_workers(n),
            _ => exit_usage(&format!("--workers must be a positive integer, got {n}")),
        },
        None => ExperimentEngine::new(),
    };
    let seed = args
        .iter()
        .find_map(|a| a.strip_prefix("--seed="))
        .map(|n| {
            n.parse::<u64>().unwrap_or_else(|_| {
                exit_usage(&format!("--seed must be a non-negative integer, got {n}"))
            })
        });
    let perf_out = args
        .iter()
        .find_map(|a| a.strip_prefix("--out="))
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
    let retries = match args.iter().find_map(|a| a.strip_prefix("--retries=")) {
        Some(n) => n.parse::<u32>().unwrap_or_else(|_| {
            exit_usage(&format!(
                "--retries must be a non-negative integer, got {n}"
            ))
        }),
        None => 1,
    };
    let spool_dir = args
        .iter()
        .find_map(|a| a.strip_prefix("--spool="))
        .unwrap_or("bench/spool")
        .to_string();

    let (mut cfg, cfg_label) = if smoke {
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
    let char_seed = seed.unwrap_or(CHARACTERIZATION_SEED);
    if let Some(seed) = seed {
        cfg.seed = seed;
    }

    // The warehouse and service subcommands consume the remaining
    // positionals (files, query text, submission ids) themselves — they are
    // whole invocations, not targets.
    match targets[0].as_str() {
        "query" => return query_cmd(store_path.as_deref(), json_output, &targets[1..]),
        "journal" => return journal_cmd(&targets[1..]),
        "serve" => {
            return serve_cmd(
                &spool_dir,
                store_path.as_deref().unwrap_or(DEFAULT_STORE),
                engine.workers(),
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
    if let Some(target) = targets.iter().find(|t| !TARGETS.contains(&t.as_str())) {
        exit_usage(&format!("unknown target: {target}"));
    }
    if resume && journal_arg.is_none() {
        exit_with("--resume needs --journal=PATH (the journal the interrupted sweep wrote)");
    }

    // Figures 7-10, 12 and the accuracy table share one run of the paper's
    // evaluation.
    let needs_eval = targets.iter().any(|t| {
        t == "all"
            || matches!(
                t.as_str(),
                "fig7" | "fig8" | "fig9" | "fig10" | "fig12" | "accuracy"
            )
    });
    let evaluation = needs_eval.then(|| Evaluation::run(cfg, engine));
    // Figures 2-5 share one characterization of the suite.
    let needs_characterization = targets
        .iter()
        .any(|t| matches!(t.as_str(), "all" | "fig2" | "fig3" | "fig4" | "fig5"));
    let suite = needs_characterization.then(|| characterize_suite(char_refs, char_seed));

    for target in &targets {
        match target.as_str() {
            "table1" => table1(),
            "fig2" => fig2(suite.as_ref().unwrap()),
            "fig3" => fig3(suite.as_ref().unwrap()),
            "fig4" => fig4(suite.as_ref().unwrap()),
            "fig5" => fig5(suite.as_ref().unwrap()),
            "fig6" => fig6(),
            "fig7" => fig7(evaluation.as_ref().unwrap()),
            "fig8" => fig8(evaluation.as_ref().unwrap()),
            "fig9" => fig9(evaluation.as_ref().unwrap()),
            "fig10" => fig10(evaluation.as_ref().unwrap()),
            "fig11" => fig11(&cfg, &engine),
            "fig12" => fig12(evaluation.as_ref().unwrap()),
            "accuracy" => accuracy(evaluation.as_ref().unwrap()),
            "sweep" => sweep(
                cfg,
                &engine,
                store_path.as_deref(),
                journal_arg.as_deref(),
                resume,
                retries,
            ),
            "perf" if perf_list => perf_list_only(&cfg, perf_filter.as_deref()),
            "perf" => perf(
                &cfg,
                &engine,
                perf_out.as_deref(),
                perf_filter.as_deref(),
                store_path.as_deref(),
            ),
            "all" => {
                table1();
                fig2(suite.as_ref().unwrap());
                fig3(suite.as_ref().unwrap());
                fig4(suite.as_ref().unwrap());
                fig5(suite.as_ref().unwrap());
                fig6();
                let c = evaluation.as_ref().unwrap();
                accuracy(c);
                fig7(c);
                fig8(c);
                fig9(c);
                fig10(c);
                fig11(&cfg, &engine);
                fig12(c);
            }
            other => unreachable!("target {other} was checked against TARGETS"),
        }
    }
}

/// The scenario-matrix sweep: every workload at 16/32/64 cores, three slice
/// capacities, under the shared design and R-NUCA at three cluster sizes.
/// Prints the result matrix as JSON on stdout. The flags only choose the
/// options of the one sweep path: with `--store=` every sweep point is also
/// appended to the warehouse (the append summary goes to stderr, keeping
/// stdout pipeable); with `--journal=` every finished job is logged as the
/// sweep runs, and `--resume` continues an interrupted sweep from that
/// journal. A scenario whose attempt panics gets `--retries` retries
/// (default 1) under seeded backoff and, if it still fails, a typed failure
/// entry — in the JSON's `"failures"` array, in the journal (so `--resume`
/// skips it instead of re-crashing), and as a `kind=failed` warehouse row.
fn sweep(
    cfg: ExperimentConfig,
    engine: &ExperimentEngine,
    store_path: Option<&str>,
    journal: Option<&str>,
    resume: bool,
    retries: u32,
) {
    if let Some(jpath) = journal {
        let exists = Path::new(jpath).exists();
        if !resume && exists {
            exit_with(&format!(
                "journal {jpath} already exists — an earlier sweep was interrupted; \
                 pass --resume to continue it, or delete the journal to start over"
            ));
        }
        if resume && !exists {
            exit_with(&format!(
                "--resume: journal {jpath} does not exist (run once without --resume to create it)"
            ));
        }
    }
    let store = store_path.map(open_store);
    let opts = SweepOptions {
        journal: journal.map(Path::new),
        resume,
        policy: RetryPolicy::immediate(retries).with_backoff(BackoffConfig::default_service()),
        store: store.as_ref(),
        ..SweepOptions::new(*engine)
    };
    let outcome = rnuca_bench::default_sweep_matrix(cfg)
        .run(&opts)
        .unwrap_or_else(|e| exit_sweep_error(journal.unwrap_or_default(), e));
    if let (Some(store), Some(spath), Some(summary)) = (&store, store_path, outcome.stored) {
        save_store(store, spath);
        eprintln!(
            "warehouse: {} new rows ({} deduplicated) -> {spath}",
            summary.added, summary.deduplicated
        );
    }
    if let Some(jpath) = journal {
        let resumed = outcome.resumed;
        eprintln!(
            "journal: replayed {} of {} jobs, ran {} -> {jpath}",
            resumed.replayed,
            resumed.replayed + resumed.ran,
            resumed.ran
        );
        // Every job has an outcome (a run or a quarantined failure), so a
        // journal only matters while its sweep is incomplete; leaving it
        // behind would make the next plain run error out for no reason.
        std::fs::remove_file(jpath).unwrap_or_else(|e| {
            exit_with(&format!("cannot remove completed journal {jpath}: {e}"))
        });
        eprintln!("journal: sweep complete, removed {jpath}");
    }
    report_quarantined(&outcome.sweep);
    print!("{}", outcome.sweep.to_json());
}

/// Makes quarantined jobs loud on stderr (stdout stays pipeable JSON).
fn report_quarantined(sweep: &QuarantinedSweep) {
    let failures = sweep.failures();
    if failures.is_empty() {
        return;
    }
    eprintln!(
        "sweep: {} of {} jobs quarantined:",
        failures.len(),
        sweep.results.len()
    );
    for f in failures {
        eprintln!("  {f}");
    }
}

/// The sweep's results when every job completed. Otherwise each quarantined
/// job is printed on stderr and `figures` exits 1: a figure drawn from part
/// of its matrix would be silently wrong.
fn complete(sweep: QuarantinedSweep) -> ScenarioSweep {
    sweep
        .into_sweep()
        .unwrap_or_else(|failures| exit_failed(&failures))
}

/// Prints each quarantined job's failure on stderr and exits 1.
fn exit_failed(failures: &[JobFailure]) -> ! {
    for failure in failures {
        eprintln!("{failure}");
    }
    std::process::exit(1);
}

/// `figures serve`: run the resident experiment service until drained, with
/// the engine's worker count (`--workers=`, or one per available core).
fn serve_cmd(spool: &str, store: &str, workers: usize) {
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
            "{e}\njournal {jpath} belongs to a different sweep (an axis, the seed, a run \
             length, a configuration value, the schema or the model version changed); delete \
             it to start this sweep from scratch"
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

/// The timed throughput suite: writes the perf report to `out` (default
/// `BENCH_perf.json`) and, with `--store=`, appends the report's rows to
/// that warehouse. A `--filter` substring restricts the scenario list for
/// local iteration. A quarantined scenario prints its failure and exits 1:
/// the report needs every scenario.
fn perf(
    cfg: &ExperimentConfig,
    engine: &ExperimentEngine,
    out: Option<&str>,
    filter: Option<&str>,
    store_path: Option<&str>,
) {
    heading("perf: timed end-to-end throughput");
    let scenarios = selected_scenarios(cfg, filter);
    let report = run_perf(
        &perf_matrix(*cfg),
        &scenarios,
        engine,
        &Arc::new(TraceArena::new()),
    )
    .unwrap_or_else(|failures| exit_failed(&failures));
    if let Some(path) = store_path {
        let store = open_store(path);
        let summary = store.append_all(&report.to_records());
        save_store(&store, path);
        println!(
            "warehouse: {} new rows ({} deduplicated) -> {path}",
            summary.added, summary.deduplicated
        );
    }
    let out = out.unwrap_or("BENCH_perf.json");
    std::fs::write(out, report.to_json())
        .unwrap_or_else(|e| exit_with(&format!("cannot write {out}: {e}")));
    let t = &report.totals;
    println!(
        "{} scenarios, {} refs in {:.2}s: {:.0} refs/sec end to end \
         ({:.2}s trace generation, {:.2}s warm-up, {:.2}s measured, {:.2}s other, \
         summed over workers) -> {out}",
        t.scenarios,
        t.refs,
        t.elapsed_nanos as f64 / 1e9,
        t.refs_per_sec,
        t.tracegen_nanos as f64 / 1e9,
        t.warmup_nanos as f64 / 1e9,
        t.measured_nanos as f64 / 1e9,
        t.other_nanos as f64 / 1e9,
    );
    print!("{}", report.render_phase_costs());
}

/// Resolves `--filter` against the perf matrix's jobs, exiting when nothing
/// matches (a typo'd filter should fail loudly, not run zero work).
fn selected_scenarios(cfg: &ExperimentConfig, filter: Option<&str>) -> Vec<ScenarioJob> {
    let all = perf_matrix(*cfg)
        .jobs()
        .expect("the perf matrix's core counts are valid for every preset");
    match filter {
        Some(f) => {
            let total = all.len();
            let kept = filter_scenarios(all, f);
            if kept.is_empty() {
                exit_with(&format!("--filter={f} matches no perf scenario"));
            }
            println!("filter '{f}': {} of {total} scenarios", kept.len());
            kept
        }
        None => all,
    }
}

/// `perf --list`: prints the scenario labels, one per line, without
/// generating traces or simulating.
fn perf_list_only(cfg: &ExperimentConfig, filter: Option<&str>) {
    let scenarios = selected_scenarios(cfg, filter);
    println!("{} scenarios:", scenarios.len());
    for s in &scenarios {
        println!("  {}", s.label());
    }
}

fn exit_with(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
}

/// Exits 2 on a command line `figures` does not understand, so a typo'd or
/// retired flag fails instead of running something else.
fn exit_usage(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
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

/// Every suite workload with the characterization of its trace: `refs`
/// references generated under `seed`.
fn characterize_suite(refs: usize, seed: u64) -> Vec<(WorkloadSpec, TraceCharacterization)> {
    WorkloadSpec::evaluation_suite()
        .into_iter()
        .map(|spec| {
            let c = characterize_workload(&spec, refs, seed);
            (spec, c)
        })
        .collect()
}

fn fig2(suite: &[(WorkloadSpec, TraceCharacterization)]) {
    heading("Figure 2: L2 reference clustering (sharers vs read-write blocks)");
    let mut table = TextTable::new(vec![
        "workload",
        "class",
        "sharers",
        "%accesses",
        "%RW blocks",
    ]);
    for (spec, c) in suite {
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

fn fig3(suite: &[(WorkloadSpec, TraceCharacterization)]) {
    heading("Figure 3: L2 reference breakdown by access class");
    let mut table = TextTable::new(vec![
        "workload",
        "instr",
        "private",
        "shared-RW",
        "shared-RO",
    ]);
    for (spec, c) in suite {
        table.add_row(vec![
            spec.name.clone(),
            fmt_pct(c.breakdown.instructions),
            fmt_pct(c.breakdown.private_data),
            fmt_pct(c.breakdown.shared_read_write),
            fmt_pct(c.breakdown.shared_read_only),
        ]);
    }
    println!("{table}");
}

fn fig4(suite: &[(WorkloadSpec, TraceCharacterization)]) {
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
    for (spec, c) in suite {
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

fn fig5(suite: &[(WorkloadSpec, TraceCharacterization)]) {
    heading("Figure 5: instruction and shared-data reuse by the same core");
    let mut table = TextTable::new(vec![
        "workload", "class", "1st", "2nd", "3rd-4th", "5th-8th", "9+",
    ]);
    for (spec, c) in suite {
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
    let rids = rid_assignment(4, 4, 4);
    for y in 0..4 {
        let row: Vec<String> = (0..4)
            .map(|x| format!("{:02b}", rids[y * 4 + x].value()))
            .collect();
        println!("  {}", row.join(" "));
    }
    let engine = rnuca::PlacementEngine::new(rnuca::PlacementConfig::from_system(
        &SystemConfig::server_16(),
    ));
    let members: Vec<String> = engine
        .instruction_cluster(rnuca_types::ids::CoreId::new(5))
        .iter()
        .map(TileId::to_string)
        .collect();
    println!(
        "  size-4 fixed-center cluster of tile T5: {{{}}}",
        members.join(", ")
    );
}

/// The paper's evaluation behind Figures 7-10, 12 and the accuracy table:
/// the [`ScenarioMatrix::paper_evaluation`] sweep, whose results come in
/// job order — each workload's P/A/S/R/I runs in turn.
struct Evaluation(ScenarioSweep);

impl Evaluation {
    fn run(cfg: ExperimentConfig, engine: ExperimentEngine) -> Self {
        let outcome = ScenarioMatrix::paper_evaluation(cfg)
            .run(&SweepOptions::new(engine))
            .expect("the paper evaluation's axes are valid");
        Evaluation(complete(outcome.sweep))
    }

    /// One workload's results at a time, in the suite's order.
    fn workloads(&self) -> impl Iterator<Item = Workload<'_>> {
        self.0
            .results
            .chunk_by(|a, b| a.workload == b.workload)
            .map(Workload)
    }

    /// Geometric-mean speedup of one design over another across all
    /// workloads.
    fn mean_speedup(&self, letter: &str, baseline: &str) -> f64 {
        let logs: Vec<f64> = self
            .workloads()
            .filter_map(|w| Some(speedup(w.by_letter(letter)?, w.by_letter(baseline)?).ln()))
            .collect();
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    }
}

/// One workload's P/A/S/R/I results.
struct Workload<'a>(&'a [ScenarioResult]);

impl Workload<'_> {
    fn name(&self) -> String {
        self.0[0].workload.clone()
    }

    fn by_letter(&self, letter: &str) -> Option<&ScenarioResult> {
        self.0.iter().find(|r| r.design.letter() == letter)
    }

    /// The private design's run, the baseline every figure normalises to.
    fn private(&self) -> &ScenarioResult {
        self.by_letter("P")
            .expect("the paper evaluation includes the private design")
    }

    /// Whether the paper buckets this workload as private-averse (the
    /// private design is no faster than the shared one) or shared-averse.
    fn private_averse(&self) -> bool {
        let shared = self
            .by_letter("S")
            .expect("the paper evaluation includes the shared design");
        self.private().run.total_cpi() >= shared.run.total_cpi()
    }
}

/// Speedup of `r` over `baseline` (CPI ratio; >1 means faster).
fn speedup(r: &ScenarioResult, baseline: &ScenarioResult) -> f64 {
    baseline.run.total_cpi() / r.run.total_cpi()
}

fn accuracy(c: &Evaluation) {
    heading("Section 5.2: page-classification accuracy under R-NUCA");
    let mut table = TextTable::new(vec![
        "workload",
        "misclassified accesses",
        "re-classifications",
    ]);
    for w in c.workloads() {
        if let Some(r) = w.by_letter("R") {
            table.add_row(vec![
                w.name(),
                fmt_pct(r.run.misclassification_rate),
                r.run.reclassifications.to_string(),
            ]);
        }
    }
    println!("{table}");
}

fn fig7(c: &Evaluation) {
    heading("Figure 7: total CPI breakdown, normalised to the private design");
    let mut table = TextTable::new(vec![
        "workload", "design", "busy", "L1-to-L1", "L2", "off-chip", "other", "re-class", "total",
    ]);
    for w in c.workloads() {
        let base = w.private().run.total_cpi();
        for letter in ["P", "A", "S", "R"] {
            if let Some(r) = w.by_letter(letter) {
                let b = r.run.cpi.breakdown.scaled(base);
                table.add_row(vec![
                    w.name(),
                    letter.to_string(),
                    fmt3(b.busy),
                    fmt3(b.l1_to_l1),
                    fmt3(b.l2),
                    fmt3(b.off_chip),
                    fmt3(b.other),
                    fmt3(b.reclassification),
                    fmt3(r.run.total_cpi() / base),
                ]);
            }
        }
    }
    println!("{table}");
}

fn fig8(c: &Evaluation) {
    heading("Figure 8: CPI of L1-to-L1 and shared-data L2 loads, normalised to the private design's total CPI");
    let mut table = TextTable::new(vec![
        "workload",
        "design",
        "L1-to-L1",
        "L2 shared coherence",
        "L2 shared load",
    ]);
    for w in c.workloads() {
        let base = w.private().run.total_cpi();
        for letter in ["P", "A", "S", "R"] {
            if let Some(r) = w.by_letter(letter) {
                table.add_row(vec![
                    w.name(),
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

fn fig9(c: &Evaluation) {
    heading("Figure 9: CPI of L2 accesses to private data, normalised to the private design's total CPI");
    per_class_l2_table(c, AccessClass::PrivateData);
}

fn fig10(c: &Evaluation) {
    heading(
        "Figure 10: CPI of L2 instruction accesses, normalised to the private design's total CPI",
    );
    per_class_l2_table(c, AccessClass::Instruction);
}

fn per_class_l2_table(c: &Evaluation, class: AccessClass) {
    let mut table = TextTable::new(vec!["workload", "P", "A", "S", "R"]);
    for w in c.workloads() {
        let base = w.private().run.total_cpi();
        let mut row = vec![w.name()];
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
    let outcome = ScenarioMatrix::cluster_sweep(*cfg, &[1, 2, 4, 8, 16])
        .run(&SweepOptions::new(*engine))
        .expect("the Figure 11 sizes are valid");
    let sweep = complete(outcome.sweep);
    let mut table = TextTable::new(vec![
        "workload",
        "size",
        "total/size-1",
        "L2 instr CPI",
        "off-chip CPI",
    ]);
    // Results come in job order: each workload's sizes, smallest first.
    for rows in sweep.results.chunk_by(|a, b| a.workload == b.workload) {
        let base = rows[0].run.total_cpi();
        for r in rows {
            let run = &r.run;
            table.add_row(vec![
                r.workload.clone(),
                r.point.instr_cluster_size.unwrap_or_default().to_string(),
                fmt3(run.total_cpi() / base),
                fmt3(run.cpi.l2_instructions),
                fmt3(run.cpi.breakdown.off_chip),
            ]);
        }
    }
    println!("{table}");
}

fn fig12(c: &Evaluation) {
    heading("Figure 12: speedup over the private design");
    let mut table = TextTable::new(vec!["workload", "bucket", "P", "A", "S", "R", "I"]);
    for w in c.workloads() {
        let mut row = vec![
            w.name(),
            if w.private_averse() {
                "private-averse".into()
            } else {
                "shared-averse".into()
            },
        ];
        let baseline = w.private();
        for letter in ["P", "A", "S", "R", "I"] {
            let s = w
                .by_letter(letter)
                .map(|r| speedup(r, baseline))
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
