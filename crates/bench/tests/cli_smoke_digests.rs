//! Pins the stdout of `figures --smoke all` and `figures --smoke --workers=2
//! sweep` by digest: table 1, Figures 2-12, the accuracy table and the sweep
//! JSON are bit-identical to the recorded runs. A change meant to move
//! results re-pins these on purpose, as it does the golden digests.

use rnuca_types::Fnv64;
use std::process::Command;

/// The FNV-1a digest of the stdout of a successful `figures` run.
fn stdout_digest(args: &[&str]) -> u64 {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        // Hermetic: the test-profile binary has live fail points, so an
        // inherited plan must not leak into these runs.
        .env_remove("RNUCA_FAILPOINTS")
        .output()
        .expect("the figures binary runs");
    assert!(
        out.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    Fnv64::new().write(&out.stdout).finish()
}

#[test]
fn smoke_figures_print_the_pinned_text() {
    assert_eq!(
        stdout_digest(&["--smoke", "all"]),
        0x4909_f738_478b_71b3,
        "`figures --smoke all` printed different text"
    );
}

#[test]
fn smoke_sweep_prints_the_pinned_json() {
    assert_eq!(
        stdout_digest(&["--smoke", "--workers=2", "sweep"]),
        0x827c_4f62_e227_cd28,
        "`figures --smoke --workers=2 sweep` printed a different matrix"
    );
}
