//! `figures` whose reader hangs up early (`figures perf --list | head -1`)
//! exits 0 with nothing on stderr, instead of panicking on the broken pipe.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

/// Runs `figures`, reads `lines` lines of its stdout, then closes the pipe
/// and waits: the rest of the output goes to a pipe nobody reads.
fn hang_up_after(args: &[&str], lines: usize) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .env_remove("RNUCA_FAILPOINTS")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the figures binary runs");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    for _ in 0..lines {
        let mut line = String::new();
        stdout.read_line(&mut line).expect("stdout is readable");
        assert!(
            !line.is_empty(),
            "{args:?} printed fewer than {lines} lines"
        );
    }
    drop(stdout);
    let out = child.wait_with_output().expect("figures exits");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{args:?} after {lines} line(s): {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        out.stderr.is_empty(),
        "{args:?} after {lines} line(s) wrote to stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn a_reader_that_leaves_after_one_line_ends_figures_quietly() {
    // The two short outputs fit in a pipe buffer, so they meet the closed
    // pipe only when the reader leaves before `figures` finishes writing;
    // the sweep's ~100 KB of JSON always outruns the buffer.
    for args in [
        &["perf", "--list"][..],
        &["--smoke", "fig7"],
        &["--smoke", "--workers=2", "sweep"],
    ] {
        hang_up_after(args, 1);
    }
}

#[test]
fn a_reader_that_leaves_at_once_ends_figures_quietly() {
    // The pipe closes before `figures` has parsed its arguments, so its
    // first line already goes nowhere.
    for args in [&["perf", "--list"][..], &["--smoke", "fig7"]] {
        hang_up_after(args, 0);
    }
}
