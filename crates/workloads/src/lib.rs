//! Synthetic workload models for the R-NUCA reproduction.
//!
//! The paper evaluates R-NUCA on commercial server workloads (TPC-C on DB2
//! and Oracle, SPECweb on Apache, TPC-H decision-support queries), one
//! scientific code (em3d) and a multi-programmed SPEC CPU2000 mix, all run
//! under full-system simulation. Those binaries, datasets, and the Flexus
//! toolchain are not available here, so this crate substitutes **statistical
//! workload models**: each [`WorkloadSpec`] captures the published
//! characterization of one workload — the L2 access-class mix (Figure 3), the
//! per-class working-set footprints (Figure 4), the sharing patterns and
//! read-write behaviour (Figure 2), and per-class locality — and a
//! [`TraceGenerator`] turns it into a reproducible stream of L2 references
//! (the unit of analysis used throughout the paper).
//!
//! The [`arena`] module memoizes generated streams: a [`TraceArena`]
//! materializes each unique `(workload, geometry, seed)` stream exactly once
//! into a packed [`TraceSlab`] and replays it through [`TraceSlice`] cursors,
//! so experiments that run many designs over one stream generate it once.
//! The arena holds a stream until its key is retired; a scenario-matrix run
//! retires each stream after the last job that replays it.
//!
//! The [`characterize`] module recomputes the paper's characterization figures
//! from generated traces, closing the loop: the traces we feed the simulator
//! demonstrably exhibit the class mix, footprints, sharing, and reuse the
//! paper reports.
//!
//! # Example
//!
//! ```
//! use rnuca_workloads::{TraceGenerator, WorkloadSpec};
//!
//! let spec = WorkloadSpec::oltp_db2();
//! let mut gen = TraceGenerator::new(&spec, 42);
//! let trace: Vec<_> = gen.by_ref().take(10_000).collect();
//! assert_eq!(trace.len(), 10_000);
//! // Every access carries its ground-truth class for characterization.
//! assert!(trace.iter().any(|a| a.class == rnuca_types::AccessClass::Instruction));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arena;
pub mod characterize;
pub mod generator;
pub mod regions;
pub mod spec;

pub use arena::{TraceArena, TraceKey, TraceSlab, TraceSlice, TraceSource};
pub use characterize::{
    ClassBreakdown, ReuseHistogram, SharerProfile, TraceCharacterization, WorkingSetCdf,
};
pub use generator::TraceGenerator;
pub use regions::AddressLayout;
pub use spec::{SharingPattern, WorkloadSpec};
