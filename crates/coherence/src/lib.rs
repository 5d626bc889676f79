//! Directory-based coherence model.
//!
//! The paper's private and ASR designs keep the per-tile L2 slices coherent
//! with a Piranha-style MOSI protocol driven by an (optimistically
//! zero-area) full-map distributed directory; the shared and R-NUCA designs
//! only need a directory covering the L1 caches, because every modifiable
//! block has exactly one possible L2 location (Sections 2.2 and 4).
//!
//! The trace-driven simulator reads two answers from that protocol: who
//! supplies the data of a read, and whom a write invalidates. This crate's
//! [`Directory`] tracks, per block, the set of sharers and a dirty owner —
//! all the state those answers depend on — and returns exactly them: a
//! [`ReadSource`] for a read, the invalidation [`SharerSet`] for a write.
//! The *timing* of those actions — network traversals and slice lookups —
//! is charged by the simulator crate.
//!
//! # Example
//!
//! ```
//! use rnuca_coherence::{Directory, ReadSource};
//! use rnuca_types::addr::BlockAddr;
//! use rnuca_types::ids::TileId;
//!
//! let mut dir = Directory::new(16);
//! let block = BlockAddr::from_block_number(7);
//! // First reader fetches from memory.
//! assert_eq!(dir.handle_read(block, TileId::new(0)), ReadSource::Memory);
//! // Second reader is serviced by an existing sharer.
//! assert_eq!(
//!     dir.handle_read(block, TileId::new(1)),
//!     ReadSource::Cache(TileId::new(0))
//! );
//! // A writer invalidates every other sharer and becomes the dirty owner.
//! let invalidations = dir.handle_write(block, TileId::new(2));
//! assert_eq!(invalidations.len(), 2);
//! assert_eq!(dir.owner(block), Some(TileId::new(2)));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod directory;
pub mod sharers;
mod table;

pub use directory::{Directory, DirectoryStats, ReadSource};
pub use sharers::SharerSet;
