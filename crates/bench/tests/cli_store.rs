//! The figures CLI against damaged on-disk artifacts: a corrupt or
//! truncated warehouse must fail `query` with exit code 3 and
//! a diagnostic naming the file and byte offset — distinct from exit 2
//! (malformed query) and exit 1 (generic errors) — and the `journal`
//! subcommand must report journal health the same way. A command line the
//! binary does not understand (an unknown flag or target, or a submit-only
//! option given to another target) exits 2 as well.

use rnuca_sim::SweepJournal;
use rnuca_warehouse::{RowKind, RunRecord, Warehouse};
use std::path::PathBuf;
use std::process::{Command, Output};

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        // Hermetic: the test-profile binary has live fail points, so an
        // inherited plan must not leak into these runs.
        .env_remove("RNUCA_FAILPOINTS")
        .output()
        .expect("the figures binary runs")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rnuca-cli-{}-{name}", std::process::id()))
}

/// A small valid store on disk, returning its path and saved bytes.
fn valid_store(name: &str) -> (PathBuf, Vec<u8>) {
    let store = Warehouse::new();
    let mut r = RunRecord::new(RowKind::Sweep, 42, 5, "smoke");
    r.workload = Some("oltp".into());
    r.cores = Some(16);
    r.total_cpi = Some(1.25);
    store.append(&r);
    let path = temp(name);
    store.save(&path).expect("saving a small store succeeds");
    let bytes = std::fs::read(&path).expect("saved store exists");
    (path, bytes)
}

#[test]
fn query_on_a_bit_flipped_store_exits_3_naming_file_and_offset() {
    let (path, mut bytes) = valid_store("flip.bin");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();
    let out = figures(&[
        "query",
        &format!("--store={}", path.display()),
        "kind=sweep",
    ]);
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(
        err.contains("checksum"),
        "diagnostic names the cause: {err}"
    );
    assert!(
        err.contains(&path.display().to_string()),
        "diagnostic names the file: {err}"
    );
    assert!(err.contains("byte"), "diagnostic carries an offset: {err}");
    assert!(err.contains("help:"), "diagnostic suggests a fix: {err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn query_on_a_truncated_store_exits_3() {
    let (path, bytes) = valid_store("trunc.bin");
    std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
    let out = figures(&[
        "query",
        &format!("--store={}", path.display()),
        "kind=sweep",
    ]);
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(
        err.contains(&path.display().to_string()) && err.contains("byte"),
        "diagnostic names the file and offset: {err}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn exit_codes_distinguish_bad_queries_from_bad_stores() {
    // A malformed query against a healthy (missing -> empty) store is the
    // caller's fault: exit 2 with spanned diagnostics, not 3.
    let missing = temp("missing.bin");
    std::fs::remove_file(&missing).ok();
    let out = figures(&[
        "query",
        &format!("--store={}", missing.display()),
        "bogus !! query",
    ]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    // And a clean query on the same empty store succeeds.
    let out = figures(&[
        "query",
        &format!("--store={}", missing.display()),
        "kind=sweep",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
    assert!(stdout_of(&out).contains("0 rows"));
}

#[test]
fn journal_subcommand_reports_completion_and_corruption() {
    // A fresh header-only journal: identity printed, zero jobs completed.
    let path = temp("inspect.journal");
    SweepJournal::create(&path, 0xfeed_beef_dead_cafe, 7).expect("journal create");
    let out = figures(&["journal", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
    let text = stdout_of(&out);
    assert!(
        text.contains("0 of 7 jobs journaled") && text.contains("0xfeedbeefdeadcafe"),
        "journal report: {text}"
    );
    // Damage the magic: exit 3 with the offending offset.
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[0] ^= 0xff;
    std::fs::write(&path, &bytes).unwrap();
    let out = figures(&["journal", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(
        err.contains("byte 0") && err.contains(path.to_str().unwrap()),
        "corrupt-journal diagnostic: {err}"
    );
    // A missing journal is a usage error, not corruption.
    std::fs::remove_file(&path).ok();
    let out = figures(&["journal", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr_of(&out));
}

#[test]
fn resume_without_a_journal_is_refused_up_front() {
    let out = figures(&["--smoke", "sweep", "--resume"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr_of(&out).contains("--journal"), "{}", stderr_of(&out));
    let out = figures(&[
        "--smoke",
        "sweep",
        "--resume",
        "--journal=/nonexistent/rnuca.journal",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr_of(&out).contains("does not exist"),
        "{}",
        stderr_of(&out)
    );
}

/// `figures args` exits 2 before running anything, naming `named`.
fn assert_usage_error(args: &[&str], named: &str) {
    let out = figures(args);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr_of(&out));
    assert!(
        stderr_of(&out).contains(named),
        "{args:?} names {named}: {}",
        stderr_of(&out)
    );
    assert!(stdout_of(&out).is_empty(), "{args:?} ran something");
}

#[test]
fn unknown_flags_and_targets_exit_2_naming_them() {
    // A retired flag, a typo'd flag and an unknown target each fail before
    // any work starts, with a message naming what was not understood.
    for (args, named) in [
        (&["--baseline=x", "perf", "--list"][..], "--baseline=x"),
        (&["--worker=2", "table1"][..], "--worker=2"),
        (&["fig99"][..], "fig99"),
    ] {
        assert_usage_error(args, named);
    }
}

#[test]
fn submit_only_flags_exit_2_on_every_other_target() {
    // Only `figures submit` reads these options; any other target would run
    // its preset (seed 42, preset cores, every design) as if the flag had
    // not been given, so it refuses the command line instead. The same
    // holds for every flag only some targets read: `--journal=`,
    // `--resume` and `--retries=` (sweep), `--out=`, `--filter=` and
    // `--list` (perf), `--json` (query). `--supervised` is no flag at all:
    // every sweep is supervised.
    for (args, named) in [
        (&["--smoke", "fig6", "--journal=x"][..], "--journal=x"),
        (&["--smoke", "fig6", "--resume"][..], "--resume"),
        (&["--smoke", "fig6", "--retries=3"][..], "--retries=3"),
        (&["--smoke", "fig6", "--out=y"][..], "--out=y"),
        (&["--smoke", "fig6", "--filter=z"][..], "--filter=z"),
        (&["--smoke", "fig6", "--list"][..], "--list"),
        (&["--smoke", "fig6", "--json"][..], "--json"),
        (&["--smoke", "fig6", "--supervised"][..], "--supervised"),
        (&["--smoke", "perf", "--journal=x"][..], "--journal=x"),
        (&["--smoke", "sweep", "--out=y"][..], "--out=y"),
        (&["--smoke", "sweep", "--retries=x"][..], "--retries"),
        (&["journal", "--json", "x.journal"][..], "--json"),
        (
            &[
                "--smoke",
                "fig6",
                "--journal=x",
                "--retries=3",
                "--out=y",
                "--filter=z",
                "--json",
            ][..],
            "--journal=x",
        ),
        (&["--smoke", "--cores=64", "fig7"][..], "--cores=64"),
        (&["--smoke", "--designs=S", "fig7"][..], "--designs=S"),
        (
            &["--smoke", "--workloads=mix", "sweep"][..],
            "--workloads=mix",
        ),
        (&["--slices=512", "table1"][..], "--slices=512"),
        (&["--clusters=2", "fig6"][..], "--clusters=2"),
        (
            &["--deadline-ms=5", "perf", "--list"][..],
            "--deadline-ms=5",
        ),
    ] {
        assert_usage_error(args, named);
    }
}
