//! `figures --seed=N` on the figure targets: without the flag every target
//! prints what its preset always printed, a different seed changes the
//! results, and a seed that is not a number is a usage error.

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

/// The stdout of a successful run.
fn stdout_of(args: &[&str]) -> String {
    let out = figures(args);
    assert!(
        out.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("figures prints UTF-8")
}

#[test]
fn the_evaluation_follows_the_seed() {
    let preset = stdout_of(&["--smoke", "fig7"]);
    assert_eq!(
        preset,
        stdout_of(&["--smoke", "--seed=42", "fig7"]),
        "42 is the preset's seed"
    );
    assert_ne!(preset, stdout_of(&["--smoke", "--seed=7", "fig7"]));
}

#[test]
fn the_characterization_figures_follow_the_seed() {
    let preset = stdout_of(&["--smoke", "fig3"]);
    assert_eq!(
        preset,
        stdout_of(&["--smoke", "--seed=1", "fig3"]),
        "1 is the characterization seed"
    );
    assert_ne!(preset, stdout_of(&["--smoke", "--seed=7", "fig3"]));
}

#[test]
fn a_seed_that_is_not_a_number_exits_2() {
    for args in [&["--seed=x", "fig7"][..], &["--smoke", "--seed=-1", "fig3"]] {
        let out = figures(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("--seed must be"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
    }
}
