//! Common vocabulary types for the R-NUCA reproduction.
//!
//! This crate defines the identifiers, physical-address helpers, access
//! classification vocabulary, latency accounting types, and the system
//! configuration (the parameters of Table 1 in the paper) that every other
//! crate in the workspace builds on.
//!
//! # Example
//!
//! ```
//! use rnuca_types::config::SystemConfig;
//! use rnuca_types::ids::CoreId;
//!
//! // The 16-core server configuration from Table 1 of the paper.
//! let cfg = SystemConfig::server_16();
//! assert_eq!(cfg.num_tiles(), 16);
//! assert_eq!(cfg.torus.width, 4);
//! assert_eq!(cfg.l2_slice.hit_latency.0, 14);
//!
//! // Tiles are addressed by `TileId`; cores by `CoreId`.
//! let core = CoreId::new(5);
//! assert_eq!(core.index(), 5);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod access;
pub mod addr;
pub mod byte_reader;
pub mod config;
pub mod error;
pub mod failpoint;
pub mod fingerprint;
pub mod ids;
pub mod index_map;
pub mod json;
pub mod latency;
pub mod os_hint;
pub mod retry;
pub mod table;

pub use access::{AccessClass, AccessKind, MemoryAccess};
pub use addr::{BlockAddr, PageAddr, PhysAddr};
pub use byte_reader::{ByteReader, DecodeError};
pub use config::{
    CacheGeometry, ConfigPoint, L2SliceConfig, NocConfig, SystemConfig, TraceGeometry,
};
pub use error::ConfigError;
pub use fingerprint::Fnv64;
pub use ids::{CoreId, MemCtrlId, RotationalId, TileId};
pub use index_map::U64Map;
pub use latency::Cycles;
pub use retry::{BackoffConfig, DeadlineExceeded, RetryPolicy};
pub use table::TextTable;
