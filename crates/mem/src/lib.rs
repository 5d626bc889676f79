//! Main-memory model: which on-chip memory controller serves each page.
//!
//! Table 1 of the paper provisions one memory controller per four cores, each
//! co-located with a tile, with pages interleaved round-robin across the
//! controllers. The controller a request uses determines the extra on-chip
//! hops an off-chip access pays, which is why off-chip CPI differs slightly
//! between designs even at equal miss rates. The model is a pure map: the
//! DRAM latency itself comes from `SystemConfig`, and since the simulator
//! models no controller contention and charges nothing for writebacks, it
//! keeps no request counters.
//!
//! # Example
//!
//! ```
//! use rnuca_mem::MemorySystem;
//! use rnuca_types::config::SystemConfig;
//! use rnuca_types::addr::PhysAddr;
//!
//! let cfg = SystemConfig::server_16();
//! let mem = MemorySystem::new(&cfg);
//! assert_eq!(mem.num_controllers(), 4);
//! // Consecutive pages rotate round-robin over the controllers.
//! let p0 = mem.controller_for(PhysAddr::new(0));
//! let p1 = mem.controller_for(PhysAddr::new(8192));
//! assert_ne!(p0, p1);
//! // Off-chip requests leave the network at the controller's tile.
//! assert_eq!(mem.exit_tile_for(PhysAddr::new(8192)), mem.controller_tile(p1));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use rnuca_types::addr::PhysAddr;
use rnuca_types::config::SystemConfig;
use rnuca_types::ids::{MemCtrlId, TileId};

/// The memory controllers of the modelled system and the pages each serves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemorySystem {
    /// `log2(page_bytes)`, so the per-request page extraction is a shift.
    page_shift: u32,
    /// `controllers - 1` when the controller count is a power of two (the
    /// standard configurations); lets [`MemorySystem::controller_for`] mask
    /// instead of dividing on the per-miss path.
    ctrl_mask: Option<u64>,
    /// The tile each controller is co-located with.
    controller_tiles: Vec<TileId>,
}

impl MemorySystem {
    /// Builds the memory system described by a [`SystemConfig`].
    ///
    /// Controllers are co-located with evenly spaced tiles: controller `i`
    /// sits at tile `i * cores_per_controller`, mirroring the paper's
    /// flip-chip assumption of distributing controllers over the die.
    pub fn new(config: &SystemConfig) -> Self {
        let n = config.num_mem_controllers();
        let spacing = config.memory.cores_per_controller;
        let controller_tiles = (0..n).map(|i| TileId::new(i * spacing)).collect();
        // The shift-based page extraction below is only correct for
        // power-of-two pages; the config validator enforces this, but the
        // fields are public, so keep the guard local too.
        debug_assert!(
            config.memory.page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        MemorySystem {
            page_shift: config.memory.page_bytes.trailing_zeros(),
            ctrl_mask: n.is_power_of_two().then_some(n as u64 - 1),
            controller_tiles,
        }
    }

    /// Number of memory controllers.
    pub fn num_controllers(&self) -> usize {
        self.controller_tiles.len()
    }

    /// The controller responsible for an address (round-robin page interleaving).
    #[inline]
    pub fn controller_for(&self, addr: PhysAddr) -> MemCtrlId {
        let page = addr.value() >> self.page_shift;
        let idx = match self.ctrl_mask {
            Some(mask) => page & mask,
            None => page % self.controller_tiles.len() as u64,
        };
        MemCtrlId::new(idx as usize)
    }

    /// The tile a controller is co-located with (where off-chip requests exit the NoC).
    pub fn controller_tile(&self, ctrl: MemCtrlId) -> TileId {
        self.controller_tiles[ctrl.index()]
    }

    /// The tile whose router an off-chip access to `addr` must reach.
    #[inline]
    pub fn exit_tile_for(&self, addr: PhysAddr) -> TileId {
        self.controller_tile(self.controller_for(addr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnuca_types::config::SystemConfig;

    fn server_mem() -> MemorySystem {
        MemorySystem::new(&SystemConfig::server_16())
    }

    #[test]
    fn controller_count_matches_table1() {
        assert_eq!(server_mem().num_controllers(), 4);
        assert_eq!(
            MemorySystem::new(&SystemConfig::desktop_8()).num_controllers(),
            2
        );
    }

    #[test]
    fn pages_interleave_round_robin() {
        let mem = server_mem();
        let page = 8192u64;
        let ids: Vec<_> = (0..8)
            .map(|i| mem.controller_for(PhysAddr::new(i * page)).index())
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        // Addresses within the same page use the same controller.
        assert_eq!(
            mem.controller_for(PhysAddr::new(100)),
            mem.controller_for(PhysAddr::new(8000))
        );
    }

    #[test]
    fn controller_tiles_are_spread_across_the_die() {
        let mem = server_mem();
        let tiles: Vec<_> = (0..4)
            .map(|i| mem.controller_tile(MemCtrlId::new(i)).index())
            .collect();
        assert_eq!(tiles, vec![0, 4, 8, 12]);
        assert_eq!(mem.exit_tile_for(PhysAddr::new(8192)).index(), 4);
    }

    #[test]
    fn requests_balance_across_controllers_for_a_page_sweep() {
        let mem = server_mem();
        let mut counts = [0u64; 4];
        for p in 0..400u64 {
            counts[mem.controller_for(PhysAddr::new(p * 8192)).index()] += 1;
        }
        assert_eq!(counts, [100; 4]);
    }
}
