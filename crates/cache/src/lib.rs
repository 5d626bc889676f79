//! Cache building blocks: set-associative arrays and victim caches.
//!
//! Every cache in the modelled system — the split L1 I/D caches and the L2
//! NUCA slices (Table 1 of the paper) — is built from the same
//! [`CacheArray`]: a set-associative, true-LRU array that stores caller-chosen
//! metadata with every block. The array is purely functional state (no
//! timing); the timing model lives in `rnuca-sim`.
//!
//! # Example
//!
//! ```
//! use rnuca_cache::CacheArray;
//! use rnuca_types::addr::BlockAddr;
//! use rnuca_types::config::CacheGeometry;
//!
//! let geom = CacheGeometry::new(64 * 1024, 2, 64)?;
//! let mut l1: CacheArray<()> = CacheArray::new(geom);
//! let block = BlockAddr::from_block_number(42);
//! assert!(l1.probe(block).is_none());      // cold miss
//! l1.insert(block, ());
//! assert!(l1.probe(block).is_some());      // hit
//! # Ok::<(), rnuca_types::ConfigError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod array;
pub mod stats;
pub mod victim;

pub use array::{CacheArray, EntryRef, Eviction, ProbeEntry, SetRef};
pub use stats::CacheStats;
pub use victim::VictimCache;
