//! The resident service: a thread-based acceptor over a Unix-domain socket
//! plus the drain/shutdown choreography.
//!
//! [`serve`] owns the whole lifecycle:
//!
//! 1. Open the spool and *scan it* — any submission a previous process left
//!    behind (crash, `kill -9`, drain) is re-enqueued, so interrupted
//!    sweeps resume automatically from their journals.
//! 2. Bind the socket (removing a stale one a crashed process left), start
//!    the single [`Runner`] thread, and accept connections; each connection
//!    gets its own handler thread speaking the framed protocol.
//! 3. On `drain`: stop accepting, let the runner finish its jobs in
//!    flight and journal them, then return. Unfinished submissions keep their
//!    spool entries for the next start. `kill -9` is the same story minus
//!    the courtesy — the journal's torn-tail tolerance and the startup scan
//!    make the two indistinguishable after restart.

use crate::protocol::{read_frame, write_frame, Request};
use crate::runner::Runner;
use crate::spec::SubmitSpec;
use crate::spool::Spool;
use crate::state::{Registry, SubmitOutcome};
use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// What a service instance needs to run.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Spool directory (also hosts the socket).
    pub spool: PathBuf,
    /// Warehouse file completed sweeps land in.
    pub store: PathBuf,
    /// Engine worker threads.
    pub workers: usize,
}

/// Runs the service until a client sends `drain`. Blocks the calling
/// thread; see the module docs for the lifecycle.
///
/// # Errors
///
/// Spool or socket setup failures, or an accept-loop error other than
/// "no connection pending".
pub fn serve(config: &ServiceConfig) -> io::Result<()> {
    let spool = Spool::new(&config.spool)?;
    let registry = Arc::new(Registry::new());

    // Startup auto-resume: everything still in the spool is unfinished.
    let (found, rejected) = spool.scan()?;
    for (id, reason) in &rejected {
        eprintln!("service: ignoring spooled `{id}`: {reason}");
    }
    for (id, spec) in found {
        eprintln!("service: resuming spooled submission {id}");
        registry
            .submit(&id, spec)
            .expect("a fresh registry is not draining");
    }

    let socket = spool.socket_path();
    // A previous kill -9 leaves the socket file behind; it is ours to
    // replace (one spool == one service instance).
    std::fs::remove_file(&socket).ok();
    let listener = UnixListener::bind(&socket)?;
    listener.set_nonblocking(true)?;
    eprintln!("service: listening on {}", socket.display());

    let runner = Runner::new(
        registry.clone(),
        spool.clone(),
        config.store.clone(),
        config.workers,
    );
    let runner_thread = thread::spawn(move || runner.run());

    // Accept loop: nonblocking + short poll so a drain is noticed promptly
    // even with no incoming connections.
    let result = loop {
        if registry.is_draining() {
            break Ok(());
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let registry = registry.clone();
                let spool = spool.clone();
                // Handler threads are not joined: a `watch` may outlive the
                // drain, and the process exit after `serve` returns reaps
                // them. They hold only Arc'd state.
                thread::spawn(move || {
                    let _ = serve_connection(stream, &registry, &spool);
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(25));
            }
            Err(e) => break Err(e),
        }
    };

    runner_thread.join().expect("runner thread never panics");
    std::fs::remove_file(&socket).ok();
    eprintln!("service: drained");
    result
}

/// One connection: read request frames, answer until the peer hangs up.
fn serve_connection(mut stream: UnixStream, registry: &Registry, spool: &Spool) -> io::Result<()> {
    loop {
        let Some(line) = read_frame(&mut stream)? else {
            return Ok(());
        };
        let reply = match Request::parse(&line) {
            Err(e) => format!("err {e}"),
            Ok(Request::Submit(spec_line)) => match submit(&spec_line, registry, spool) {
                Ok(reply) => reply,
                Err(e) => format!("err {e}"),
            },
            Ok(Request::Status) => format!("ok {}", registry.status_report()),
            Ok(Request::Cancel(id)) => match registry.cancel(&id) {
                Ok(state) => format!("ok {id} {state}"),
                Err(e) => format!("err {e}"),
            },
            Ok(Request::Drain) => {
                registry.drain();
                "ok draining".to_string()
            }
            Ok(Request::Watch(id)) => {
                watch(&mut stream, registry, &id)?;
                continue;
            }
        };
        write_frame(&mut stream, &reply)?;
    }
}

/// `submit`: spool first, enqueue second. The spec hits disk *before* the
/// queue so there is no accepted-but-unspooled window a crash could lose;
/// if the registry then refuses (drain raced us) the unused spool entry is
/// retired again, unless a journal shows the id was already live.
fn submit(spec_line: &str, registry: &Registry, spool: &Spool) -> Result<String, String> {
    let spec = SubmitSpec::parse(spec_line)?;
    let id = spec.submission_id()?;
    // Known ids answer from the registry without touching the spool —
    // resubmitting a completed spec must not plant a spool entry that the
    // next start's scan would re-run.
    if let Some(state) = registry.state_of(&id) {
        return Ok(format!("ok {id} {state}"));
    }
    spool
        .write_spec(&id, &spec)
        .map_err(|e| format!("spool: {e}"))?;
    match registry.submit(&id, spec) {
        Ok(SubmitOutcome::Enqueued) => Ok(format!("ok {id} queued")),
        Ok(SubmitOutcome::AlreadyKnown(state)) => Ok(format!("ok {id} {state}")),
        Err(e) => {
            if !spool.journal_path(&id).exists() {
                spool.remove(&id).ok();
            }
            Err(e)
        }
    }
}

/// `watch`: stream one `event` frame per observed state change, then one
/// `done` frame when the submission reaches a terminal state.
fn watch(stream: &mut UnixStream, registry: &Registry, id: &str) -> io::Result<()> {
    let Some(mut state) = registry.state_of(id) else {
        return write_frame(stream, &format!("err unknown submission `{id}`"));
    };
    write_frame(stream, &format!("event {id} {state}"))?;
    let mut generation = registry.generation();
    while !state.is_terminal() {
        generation = registry.wait_change(generation, Duration::from_millis(250));
        match registry.state_of(id) {
            Some(next) if next != state => {
                state = next;
                write_frame(stream, &format!("event {id} {state}"))?;
            }
            Some(_) => {}
            None => break,
        }
    }
    write_frame(stream, &format!("done {id} {state}"))
}
