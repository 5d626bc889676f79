//! Resident experiment service: a supervised job server over a Unix-domain
//! socket with per-job deadlines, seeded retry backoff, graceful drain, and
//! crash-resume.
//!
//! The library crates can already run a sweep crash-safely in one process
//! (`rnuca-sim`'s journaled sweeps); this crate makes that a *service*: a
//! long-lived process that accepts sweep submissions over a socket, runs
//! them one at a time under supervision, streams progress to watchers, and
//! — the load-bearing property — survives being killed at any instant.
//! A `kill -9` mid-sweep followed by a restart yields a warehouse
//! byte-identical to a run that was never interrupted.
//!
//! # Pieces
//!
//! | module | role |
//! |---|---|
//! | [`protocol`] | framed wire protocol (the rustdoc there is the spec) |
//! | [`spec`] | `SubmitSpec`: the submit payload → `ScenarioMatrix` + policy |
//! | [`spool`] | on-disk submission state; the crash-resume ground truth |
//! | [`state`] | in-memory registry: queue, lifecycle states, watch wakeups |
//! | [`runner`] | the worker: one supervised, journaled sweep per submission |
//! | [`server`] | `serve()`: acceptor, handlers, drain choreography |
//! | [`client`] | `ServiceClient`: what the CLI's thin verbs speak |
//!
//! # Quick start
//!
//! ```no_run
//! use rnuca_service::{serve, ServiceConfig};
//! serve(&ServiceConfig {
//!     spool: "bench/spool".into(),
//!     store: "bench/warehouse.bin".into(),
//!     workers: 4,
//! })
//! .expect("service runs until drained");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod client;
pub mod protocol;
pub mod runner;
pub mod server;
pub mod spec;
pub mod spool;
pub mod state;

pub use client::ServiceClient;
pub use protocol::{read_frame, write_frame, Request, MAX_FRAME};
pub use runner::Runner;
pub use server::{serve, ServiceConfig};
pub use spec::SubmitSpec;
pub use spool::Spool;
pub use state::{Claim, Registry, SubmissionState, SubmitOutcome};
