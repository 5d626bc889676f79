//! Trace-driven tiled-CMP simulator comparing last-level-cache designs.
//!
//! This crate ties the substrates together — the torus network
//! (`rnuca-noc`), the cache arrays (`rnuca-cache`), the coherence directory
//! (`rnuca-coherence`), the memory controllers (`rnuca-mem`), the OS page
//! classifier (`rnuca-os`), the R-NUCA placement engine (`rnuca`) and the
//! synthetic workloads (`rnuca-workloads`) — into the experiment the paper
//! runs: feed the same reference stream to five LLC organisations and compare
//! their CPI breakdowns.
//!
//! The five designs (Section 5.1):
//!
//! | Design  | L2 organisation | Coherence at L2 |
//! |---------|-----------------|-----------------|
//! | Private | every slice is a private L2 for its tile, blocks replicate freely | full-map directory (sharers, dirty owner) |
//! | ASR     | private + probabilistic local allocation of clean shared blocks   | full-map directory (sharers, dirty owner) |
//! | Shared  | blocks address-interleaved over all slices, one location each     | none (L1-only directory) |
//! | R-NUCA  | class-aware placement: local / rotational cluster / interleaved    | none (L1-only directory) |
//! | Ideal   | aggregate capacity at local-slice latency                           | none |
//!
//! The timing model is additive and trace-driven: every L2 reference is
//! charged the network traversals, slice lookups, and DRAM accesses its
//! design routes it through, using the Table 1 latencies. Stores are charged
//! to the "other" CPI component, mirroring the paper's accounting.
//!
//! # Example
//!
//! ```
//! use rnuca_sim::{CmpSimulator, LlcDesign};
//! use rnuca_workloads::{TraceGenerator, WorkloadSpec};
//!
//! let spec = WorkloadSpec::oltp_db2();
//! let mut gen = TraceGenerator::new(&spec, 1);
//! let mut sim = CmpSimulator::new(LlcDesign::RNuca { instr_cluster_size: 4 }, &spec);
//! sim.run_warmup(&mut gen, 20_000);
//! let result = sim.run_measured(&mut gen, 20_000);
//! assert!(result.cpi.total() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cpi;
pub mod design;
pub mod engine;
pub mod experiment;
pub mod journal;
pub mod report;
pub mod scenario;
pub mod simulator;
pub mod tile;

pub use cpi::{CpiBreakdown, CpiComponent, DetailedCpi};
pub use design::{AsrPolicy, LlcDesign};
pub use engine::{ExperimentEngine, FailureCause, JobFailure};
pub use experiment::{run_single, ExperimentConfig};
pub use journal::{
    JournalEntry, JournalError, JournalFailure, JournalReplay, SweepJournal, JOURNAL_VERSION,
};
pub use report::TextTable;
pub use scenario::{
    JobKey, JobPhases, QuarantinedSweep, ResumeSummary, ScenarioJob, ScenarioMatrix,
    ScenarioResult, ScenarioSweep, SweepError, SweepOptions, SweepOutcome, MODEL_VERSION,
    SWEEP_SCHEMA_VERSION,
};
pub use simulator::{CmpSimulator, MeasuredRun};
pub use tile::{Tile, TileAccess};
