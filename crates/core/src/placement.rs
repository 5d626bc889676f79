//! The R-NUCA placement engine (Section 4.2 of the paper).
//!
//! Given the classification of an access — produced by the OS layer at page
//! granularity — the engine answers the only question the hardware needs:
//! *which L2 slice services this block for this core?*
//!
//! * Private data → the size-1 cluster: the requesting core's own slice.
//! * Shared data → the size-16 cluster (all tiles), standard address
//!   interleaving, so every core agrees on a single location and no L2
//!   coherence is needed.
//! * Instructions → the size-`n` fixed-center cluster around the requesting
//!   core (`n = 4` in the paper's configuration), rotational interleaving.
//!
//! The engine performs exactly one lookup per request — there is never a
//! second probe or a directory indirection — which is the property the paper
//! leans on for its latency advantage.

use crate::rotational::RotationalMap;
use rnuca_os::PageClass;
use rnuca_types::addr::BlockAddr;
use rnuca_types::config::SystemConfig;
use rnuca_types::ids::{CoreId, TileId};

/// Configuration of a [`PlacementEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacementConfig {
    /// Torus width in tiles.
    pub width: usize,
    /// Torus height in tiles.
    pub height: usize,
    /// Number of sets in each L2 slice (determines where the interleaving bits sit).
    pub sets_per_slice: usize,
    /// Size of the fixed-center cluster used for instructions (4 in the paper).
    pub instr_cluster_size: usize,
}

impl PlacementConfig {
    /// Derives the placement configuration from a full system configuration,
    /// using the paper's defaults (size-4 instruction clusters).
    pub fn from_system(cfg: &SystemConfig) -> Self {
        PlacementConfig {
            width: cfg.torus.width,
            height: cfg.torus.height,
            sets_per_slice: cfg.l2_slice.geometry.num_sets(),
            instr_cluster_size: 4.min(cfg.num_tiles()),
        }
    }

    /// Overrides the instruction-cluster size (the Figure 11 sweep).
    pub fn with_instr_cluster_size(mut self, n: usize) -> Self {
        self.instr_cluster_size = n;
        self
    }

    /// Number of tiles on the chip.
    pub fn num_tiles(&self) -> usize {
        self.width * self.height
    }
}

/// The R-NUCA placement engine.
///
/// Construction precomputes the rotational-interleaving map for the configured
/// instruction-cluster size; every placement query afterwards is a table
/// lookup plus a few bit operations, mirroring the "simple boolean logic"
/// hardware cost the paper claims.
#[derive(Debug, Clone)]
pub struct PlacementEngine {
    config: PlacementConfig,
    instr_map: RotationalMap,
}

impl PlacementEngine {
    /// Builds an engine for the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the instruction-cluster size is not a power of two or
    /// exceeds the tile count.
    pub fn new(config: PlacementConfig) -> Self {
        let instr_map = RotationalMap::new(config.instr_cluster_size, config.width, config.height);
        PlacementEngine { config, instr_map }
    }

    /// The configuration this engine was built with.
    pub fn config(&self) -> &PlacementConfig {
        &self.config
    }

    /// The slice holding private data of `core`: the size-1 cluster, i.e.
    /// the core's own slice, whatever the block.
    pub fn private_home(&self, core: CoreId) -> TileId {
        core.tile()
    }

    /// The chip-wide home slice of a shared-data block (standard address
    /// interleaving over the size-16 cluster).
    pub fn shared_home(&self, block: BlockAddr) -> TileId {
        let tiles = self.config.num_tiles();
        let bits = (tiles as u64).trailing_zeros();
        let idx = if tiles.is_power_of_two() {
            block.interleave_bits(self.config.sets_per_slice, bits) as usize
        } else {
            (block.interleave_bits(self.config.sets_per_slice, 16) as usize) % tiles
        };
        TileId::new(idx)
    }

    /// The slice servicing an instruction block for `core` under rotational
    /// interleaving over the core's fixed-center cluster.
    pub fn instruction_home(&self, block: BlockAddr, core: CoreId) -> TileId {
        self.instr_map
            .home_for(core.tile(), block, self.config.sets_per_slice)
    }

    /// Dispatches on the page classification (the single lookup the L1 miss path performs).
    pub fn place(&self, class: PageClass, block: BlockAddr, core: CoreId) -> TileId {
        match class {
            PageClass::Private => self.private_home(core),
            PageClass::Shared => self.shared_home(block),
            PageClass::Instruction => self.instruction_home(block, core),
        }
    }

    /// The members of `core`'s fixed-center instruction cluster (the slices
    /// it ever fetches instructions from), sorted.
    pub fn instruction_cluster(&self, core: CoreId) -> Vec<TileId> {
        self.instr_map.cluster_members(core.tile())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn engine() -> PlacementEngine {
        PlacementEngine::new(PlacementConfig::from_system(&SystemConfig::server_16()))
    }

    fn b(n: u64) -> BlockAddr {
        BlockAddr::from_block_number(n)
    }

    #[test]
    fn from_system_uses_paper_defaults() {
        let cfg = PlacementConfig::from_system(&SystemConfig::server_16());
        assert_eq!(cfg.width, 4);
        assert_eq!(cfg.height, 4);
        assert_eq!(cfg.instr_cluster_size, 4);
        assert_eq!(cfg.sets_per_slice, 1024);
        assert_eq!(cfg.num_tiles(), 16);
    }

    #[test]
    fn private_data_is_always_local() {
        let e = engine();
        for c in 0..16 {
            let core = CoreId::new(c);
            assert_eq!(e.place(PageClass::Private, b(0xDEAD), core), core.tile());
        }
    }

    #[test]
    fn shared_home_is_core_independent_and_uniform() {
        let e = engine();
        let mut counts: HashMap<TileId, usize> = HashMap::new();
        for n in 0..4096u64 {
            // Spread blocks across the interleave bits (above the 10 set-index bits).
            let block = b(n << 10);
            let home = e.place(PageClass::Shared, block, CoreId::new(0));
            let home2 = e.place(PageClass::Shared, block, CoreId::new(9));
            assert_eq!(home, home2, "shared home must not depend on the requester");
            *counts.entry(home).or_insert(0) += 1;
        }
        assert_eq!(counts.len(), 16, "all slices must be used");
        for (&tile, &count) in &counts {
            assert_eq!(count, 256, "tile {tile} should receive an equal share");
        }
    }

    #[test]
    fn instruction_home_is_within_the_cluster() {
        let e = engine();
        for c in 0..16 {
            let core = CoreId::new(c);
            let cluster = e.instruction_cluster(core);
            for n in 0..64u64 {
                let home = e.place(PageClass::Instruction, b(n << 10), core);
                assert!(
                    cluster.contains(&home),
                    "instruction home must stay in the cluster"
                );
            }
        }
    }

    #[test]
    fn instruction_blocks_spread_evenly_within_a_cluster() {
        let e = engine();
        let core = CoreId::new(6);
        let mut counts: HashMap<TileId, usize> = HashMap::new();
        for n in 0..1024u64 {
            let home = e.instruction_home(b(n << 10), core);
            *counts.entry(home).or_insert(0) += 1;
        }
        assert_eq!(counts.len(), 4);
        for &count in counts.values() {
            assert_eq!(count, 256);
        }
    }

    #[test]
    fn cluster_size_one_keeps_instructions_local() {
        let cfg =
            PlacementConfig::from_system(&SystemConfig::server_16()).with_instr_cluster_size(1);
        let e = PlacementEngine::new(cfg);
        for c in 0..16 {
            let core = CoreId::new(c);
            assert_eq!(e.instruction_home(b(123 << 10), core), core.tile());
        }
    }

    #[test]
    fn cluster_size_sixteen_matches_chip_wide_interleaving_capacity() {
        let cfg =
            PlacementConfig::from_system(&SystemConfig::server_16()).with_instr_cluster_size(16);
        let e = PlacementEngine::new(cfg);
        // Every block has a single chip-wide home, like shared data.
        for n in 0..64u64 {
            let block = b(n << 10);
            let homes: std::collections::HashSet<_> = (0..16)
                .map(|c| e.instruction_home(block, CoreId::new(c)))
                .collect();
            assert_eq!(homes.len(), 1);
        }
    }

    #[test]
    fn desktop_config_works() {
        let e = PlacementEngine::new(PlacementConfig::from_system(&SystemConfig::desktop_8()));
        assert_eq!(e.config().num_tiles(), 8);
        let home = e.place(PageClass::Shared, b(3 << 12), CoreId::new(1));
        assert!(home.index() < 8);
    }
}
