//! End-to-end service chaos smoke: a real `figures serve` process is
//! SIGABRT-killed mid-sweep at a fail-point-chosen journal append, restarted
//! on the same spool, and must auto-resume to a warehouse byte-identical to
//! one built by a service that was never interrupted.
//!
//! Ignored by default — each leg runs a `--smoke` sweep through a spawned
//! service process, so CI runs this in release mode (the `service-smoke`
//! step, `cargo test --release -p rnuca-bench --test cli_service --
//! --include-ignored`). The kill travels to the service via
//! `RNUCA_FAILPOINTS`; the test profile compiles the binary with live fail
//! points (dev-dependency feature unification), release-profile
//! `cargo build` does not.

use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

/// The matrix both legs submit: oltp-db2 x {S, R} x {16, 32} cores — four
/// jobs, so the sweep spans several journal appends the fail point can
/// land between.
const SPEC: &str = "v1|config=smoke|workloads=oltp-db2|designs=S,R|cores=16,32";

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rnuca-service-cli-{}-{name}", std::process::id()))
}

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .env_remove("RNUCA_FAILPOINTS")
        .output()
        .expect("the figures binary runs")
}

/// A spawned `figures serve` process, killed on drop so a failed assert
/// does not leak a resident service into the test machine.
struct ServiceGuard(Child);

impl Drop for ServiceGuard {
    fn drop(&mut self) {
        self.0.kill().ok();
        self.0.wait().ok();
    }
}

fn spawn_service(spool: &Path, store: &Path, failpoints: Option<&str>) -> ServiceGuard {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_figures"));
    cmd.arg("serve")
        .arg(format!("--spool={}", spool.display()))
        .arg(format!("--store={}", store.display()))
        .arg("--workers=2")
        .env_remove("RNUCA_FAILPOINTS")
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if let Some(plan) = failpoints {
        cmd.env("RNUCA_FAILPOINTS", plan);
    }
    let child = cmd.spawn().expect("the service spawns");
    // The listener is bound once the spool is scanned; from then on client
    // verbs connect. Wait for a connection, not for the socket file: a
    // killed service leaves its socket file behind, and until the restarted
    // one replaces it a client gets "connection refused".
    let socket = spool.join("service.sock");
    let deadline = Instant::now() + Duration::from_secs(30);
    while UnixStream::connect(&socket).is_err() {
        assert!(Instant::now() < deadline, "service never bound its socket");
        std::thread::sleep(Duration::from_millis(25));
    }
    ServiceGuard(child)
}

/// Submits [`SPEC`] to the service on `spool` and returns the submission id
/// the service assigned.
fn submit(spool: &Path) -> String {
    let spool_arg = format!("--spool={}", spool.display());
    let out = figures(&["submit", &spool_arg, SPEC]);
    assert!(
        out.status.success(),
        "submit failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    stdout
        .split_whitespace()
        .next()
        .unwrap_or_else(|| panic!("submit printed no id: {stdout}"))
        .to_string()
}

/// Waits (via `figures watch`) until `id` reaches a terminal state and
/// returns the `done` line.
fn watch(spool: &Path, id: &str) -> String {
    let spool_arg = format!("--spool={}", spool.display());
    let out = figures(&["watch", &spool_arg, id]);
    assert!(
        out.status.success(),
        "watch failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .expect("watch prints a done line")
        .to_string()
}

/// Drains the service on `spool` and waits for the process to exit cleanly.
fn drain(spool: &Path, mut service: ServiceGuard) {
    let spool_arg = format!("--spool={}", spool.display());
    let out = figures(&["drain", &spool_arg]);
    assert!(
        out.status.success(),
        "drain failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let status = wait_for_exit(&mut service.0, Duration::from_secs(120));
    assert!(status.success(), "a drained service exits cleanly");
}

fn wait_for_exit(child: &mut Child, timeout: Duration) -> std::process::ExitStatus {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(status) = child.try_wait().expect("try_wait works") {
            return status;
        }
        assert!(Instant::now() < deadline, "service did not exit in time");
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
#[ignore = "spawns service processes running --smoke sweeps; CI's service-smoke step runs it in release"]
fn killed_service_resumes_to_a_byte_identical_warehouse() {
    let ref_spool = temp("ref-spool");
    let ref_store = temp("ref-store.bin");
    let chaos_spool = temp("chaos-spool");
    let chaos_store = temp("chaos-store.bin");
    for dir in [&ref_spool, &chaos_spool] {
        std::fs::remove_dir_all(dir).ok();
    }
    for file in [&ref_store, &chaos_store] {
        std::fs::remove_file(file).ok();
    }

    // Leg 1 — ground truth: an uninterrupted service run.
    let service = spawn_service(&ref_spool, &ref_store, None);
    let id = submit(&ref_spool);
    let done = watch(&ref_spool, &id);
    assert_eq!(done, format!("done {id} completed ok=4 failed=0"));
    drain(&ref_spool, service);
    let reference_bytes = std::fs::read(&ref_store).expect("reference store exists");
    assert!(
        !ref_spool.join(&id).exists(),
        "a completed submission leaves no spool entry"
    );

    // Leg 2 — chaos: the second journal append aborts the whole process
    // (SIGABRT, no unwinding, no destructors — kill -9 at a chosen instant),
    // so the service dies mid-sweep with one job journaled and three not.
    let mut service = spawn_service(
        &chaos_spool,
        &chaos_store,
        Some("sweep::journal::append=abort@2"),
    );
    let chaos_id = submit(&chaos_spool);
    assert_eq!(chaos_id, id, "identical specs share an id across services");
    let status = wait_for_exit(&mut service.0, Duration::from_secs(120));
    assert!(
        !status.success(),
        "the injected abort must kill the service"
    );
    drop(service);
    assert!(
        chaos_spool.join(&id).join("journal.bin").exists(),
        "the journal survives the kill"
    );
    assert!(
        !chaos_store.exists(),
        "a killed sweep must not have written a store"
    );

    // Leg 3 — restart on the same spool: the startup scan finds the
    // submission, replays its journal, runs the remaining jobs, and lands
    // the exact bytes the uninterrupted service produced.
    let service = spawn_service(&chaos_spool, &chaos_store, None);
    let done = watch(&chaos_spool, &id);
    assert_eq!(done, format!("done {id} completed ok=4 failed=0"));
    drain(&chaos_spool, service);
    let resumed_bytes = std::fs::read(&chaos_store).expect("resumed store exists");
    assert_eq!(
        resumed_bytes, reference_bytes,
        "the resumed warehouse is not byte-identical to the uninterrupted run's"
    );
    assert!(
        !chaos_spool.join(&id).exists(),
        "the resumed submission retired its spool entry"
    );

    for dir in [&ref_spool, &chaos_spool] {
        std::fs::remove_dir_all(dir).ok();
    }
    for file in [&ref_store, &chaos_store] {
        std::fs::remove_file(file).ok();
    }
}
