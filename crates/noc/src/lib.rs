//! On-chip interconnection network model.
//!
//! The paper's tiled CMP connects tiles with a **2-D folded torus** (Table 1:
//! 32-byte links, 1-cycle link latency, 2-cycle routers; Section 5.1 argues
//! tori avoid the hot spots and edge effects of meshes). This crate
//! provides [`Network`], the simulator's latency oracle on that torus: the
//! closed-form hop count between two tiles (the per-axis ring distances
//! summed), times `link + router`, plus payload serialization. It models no
//! contention and no other topology.
//!
//! # Example
//!
//! ```
//! use rnuca_noc::Network;
//! use rnuca_types::config::SystemConfig;
//! use rnuca_types::ids::TileId;
//!
//! let cfg = SystemConfig::server_16();
//! let net = Network::new(cfg.torus);
//! // On a 4x4 torus the antipode of tile 0 is tile 10 at (2,2): 2 hops per axis.
//! assert_eq!(net.hops(TileId::new(0), TileId::new(10)), 4);
//! // Wraparound makes the geometric corner tile 15 only 2 hops away.
//! assert_eq!(net.hops(TileId::new(0), TileId::new(15)), 2);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod network;

pub use network::Network;
