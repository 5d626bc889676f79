//! Reactive NUCA (R-NUCA) block placement.
//!
//! This crate implements the paper's primary contribution: a placement policy
//! for distributed last-level caches that reacts to the class of each access
//! (Section 4).
//!
//! * **Private data** is placed in the size-1 cluster — the local L2 slice of
//!   the accessing core — for minimum latency, with no coherence needed.
//! * **Instructions** are placed with **rotational interleaving** over size-4
//!   fixed-center clusters: each core's cluster consists of the tiles
//!   logically surrounding it, each slice stores exactly `1/n` of the
//!   instruction working set regardless of how many clusters it belongs to,
//!   and every instruction block is at most one hop from the requesting core.
//! * **Shared data** is placed with standard address interleaving over the
//!   size-16 cluster (the whole chip), which keeps exactly one copy per block
//!   and thus obviates L2 coherence.
//!
//! The two pieces exposed here are [`rotational`] (the indexing function, RID
//! machinery and cluster membership) and [`placement`] (the
//! [`PlacementEngine`] that the simulator queries on every L1 miss). A
//! cluster is just its member tiles: [`RotationalMap::cluster_members`]
//! lists the slices a core's size-`n` fixed-center cluster spans, and
//! [`PlacementEngine::instruction_cluster`] the ones it fetches
//! instructions from.
//!
//! # Example
//!
//! ```
//! use rnuca::placement::{PlacementEngine, PlacementConfig};
//! use rnuca_os::PageClass;
//! use rnuca_types::addr::BlockAddr;
//! use rnuca_types::config::SystemConfig;
//! use rnuca_types::ids::CoreId;
//!
//! let cfg = SystemConfig::server_16();
//! let engine = PlacementEngine::new(PlacementConfig::from_system(&cfg));
//! let core = CoreId::new(5);
//! let block = BlockAddr::from_block_number(0x1234);
//!
//! // Private data lives in the local slice.
//! assert_eq!(engine.place(PageClass::Private, block, core), core.tile());
//! // Instructions live within one hop of the requesting core.
//! let instr_home = engine.place(PageClass::Instruction, block, core);
//! // Shared data has a single, core-independent home.
//! let shared_home = engine.place(PageClass::Shared, block, core);
//! assert_eq!(shared_home, engine.place(PageClass::Shared, block, CoreId::new(11)));
//! # let _ = instr_home;
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod placement;
pub mod rotational;

pub use placement::{PlacementConfig, PlacementEngine};
pub use rotational::{rotational_index, RotationalMap};
