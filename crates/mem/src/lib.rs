//! Main-memory model: on-chip memory controllers and DRAM latency.
//!
//! Table 1 of the paper provisions one memory controller per four cores, each
//! co-located with a tile, with pages interleaved round-robin across the
//! controllers and a 45 ns (90-cycle at 2 GHz) access latency. The controller
//! a request uses determines the extra on-chip hops an off-chip access pays,
//! which is why off-chip CPI differs slightly between designs even at equal
//! miss rates.
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
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use rnuca_types::addr::PhysAddr;
use rnuca_types::config::SystemConfig;
use rnuca_types::ids::{MemCtrlId, TileId};
use rnuca_types::latency::Cycles;
use serde::{Deserialize, Serialize};

/// Counters accumulated by the memory system.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryStats {
    /// Off-chip read requests serviced.
    pub reads: u64,
    /// Off-chip writeback requests serviced.
    pub writebacks: u64,
    /// Total DRAM cycles charged.
    pub busy_cycles: u64,
}

impl MemoryStats {
    /// Total requests serviced.
    pub fn requests(&self) -> u64 {
        self.reads + self.writebacks
    }
}

/// The memory controllers and DRAM of the modelled system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemorySystem {
    /// `log2(page_bytes)`, so the per-request page extraction is a shift.
    page_shift: u32,
    /// `controllers - 1` when the controller count is a power of two (the
    /// standard configurations); lets [`MemorySystem::controller_for`] mask
    /// instead of dividing on the per-miss path.
    ctrl_mask: Option<u64>,
    access_latency: Cycles,
    /// The tile each controller is co-located with.
    controller_tiles: Vec<TileId>,
    /// Per-controller request counters (for balance checks).
    per_controller_requests: Vec<u64>,
    stats: MemoryStats,
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
            access_latency: config.memory.access_latency,
            controller_tiles,
            per_controller_requests: vec![0; n],
            stats: MemoryStats::default(),
        }
    }

    /// Number of memory controllers.
    pub fn num_controllers(&self) -> usize {
        self.controller_tiles.len()
    }

    /// DRAM access latency.
    pub fn access_latency(&self) -> Cycles {
        self.access_latency
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

    /// Convenience: the tile whose router an off-chip access to `addr` must reach.
    pub fn exit_tile_for(&self, addr: PhysAddr) -> TileId {
        self.controller_tile(self.controller_for(addr))
    }

    /// Services an off-chip read, returning the DRAM latency charged.
    pub fn read(&mut self, addr: PhysAddr) -> Cycles {
        self.read_via(addr);
        self.access_latency
    }

    /// Services an off-chip read and returns the tile its controller sits
    /// at — the fused form of [`MemorySystem::exit_tile_for`] +
    /// [`MemorySystem::read`] the simulator's miss paths use, performing the
    /// controller lookup once instead of twice.
    #[inline]
    pub fn read_via(&mut self, addr: PhysAddr) -> TileId {
        let ctrl = self.controller_for(addr);
        self.per_controller_requests[ctrl.index()] += 1;
        self.stats.reads += 1;
        self.stats.busy_cycles += self.access_latency.value();
        self.controller_tiles[ctrl.index()]
    }

    /// Services a dirty writeback, returning the DRAM latency charged.
    ///
    /// Writebacks are off the critical path of the requesting core, but they
    /// still occupy the controller, so they are tracked separately.
    pub fn writeback(&mut self, addr: PhysAddr) -> Cycles {
        let ctrl = self.controller_for(addr);
        self.per_controller_requests[ctrl.index()] += 1;
        self.stats.writebacks += 1;
        self.stats.busy_cycles += self.access_latency.value();
        self.access_latency
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &MemoryStats {
        &self.stats
    }

    /// Requests serviced by each controller, in controller order.
    pub fn per_controller_requests(&self) -> &[u64] {
        &self.per_controller_requests
    }

    /// Resets all counters.
    pub fn reset_stats(&mut self) {
        self.stats = MemoryStats::default();
        self.per_controller_requests.iter_mut().for_each(|c| *c = 0);
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
    fn read_and_writeback_charge_dram_latency() {
        let mut mem = server_mem();
        assert_eq!(mem.read(PhysAddr::new(0)), Cycles(90));
        assert_eq!(mem.writeback(PhysAddr::new(8192)), Cycles(90));
        assert_eq!(mem.stats().reads, 1);
        assert_eq!(mem.stats().writebacks, 1);
        assert_eq!(mem.stats().requests(), 2);
        assert_eq!(mem.stats().busy_cycles, 180);
        assert_eq!(mem.per_controller_requests(), &[1, 1, 0, 0]);
        mem.reset_stats();
        assert_eq!(mem.stats().requests(), 0);
        assert_eq!(mem.per_controller_requests(), &[0, 0, 0, 0]);
    }

    #[test]
    fn requests_balance_across_controllers_for_a_page_sweep() {
        let mut mem = server_mem();
        for p in 0..400u64 {
            mem.read(PhysAddr::new(p * 8192));
        }
        let counts = mem.per_controller_requests();
        assert_eq!(counts.iter().sum::<u64>(), 400);
        for &c in counts {
            assert_eq!(c, 100);
        }
    }
}
