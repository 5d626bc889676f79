//! Full-map directory: per-block sharer tracking and MOSI transaction handling.

use crate::protocol::{MosiState, ReadOutcome, ReadSource, WriteOutcome};
use crate::sharers::SharerSet;
use crate::table::EntryTable;
use rnuca_types::addr::BlockAddr;
use rnuca_types::ids::TileId;
use serde::{Deserialize, Serialize};

/// Blocks the directory pre-sizes for; past this it grows by doubling.
const INITIAL_BLOCK_CAPACITY: usize = 8_192;

/// Counters accumulated by a [`Directory`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DirectoryStats {
    /// Read transactions handled.
    pub reads: u64,
    /// Write/upgrade transactions handled.
    pub writes: u64,
    /// Transactions that had to fetch the block from main memory.
    pub memory_fetches: u64,
    /// Transactions serviced by forwarding from another tile's cache.
    pub forwards: u64,
    /// Invalidation messages sent to sharers.
    pub invalidations_sent: u64,
    /// Dirty writebacks to memory caused by evictions of owned blocks.
    pub dirty_writebacks: u64,
}

/// A full-map coherence directory.
///
/// One logical directory suffices for the functional model even though the
/// real hardware distributes it by address interleaving across the tiles; the
/// *location* of the directory slice consulted by a transaction (and therefore
/// the network distance to reach it) is decided by the simulator, which knows
/// the address-to-home mapping.
///
/// The same structure serves both deployment points of the paper:
/// * tracking which **L1** caches share a block (shared / R-NUCA designs), and
/// * tracking which **L2 slices** hold a block (private / ASR designs).
///
/// Every store and every local L2 miss of the private/ASR designs performs a
/// directory transaction, so the entry table is an open-addressed,
/// structure-of-arrays store keyed by the block number (see the `table`
/// module for the layout rationale) rather than a SipHash `HashMap`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Directory {
    num_tiles: usize,
    entries: EntryTable,
    stats: DirectoryStats,
}

impl Directory {
    /// Creates a directory for a system with `num_tiles` tiles.
    ///
    /// # Panics
    ///
    /// Panics if `num_tiles` is zero or greater than 64 (the sharer-mask width).
    pub fn new(num_tiles: usize) -> Self {
        assert!(
            num_tiles > 0 && num_tiles <= 64,
            "directory supports 1..=64 tiles"
        );
        Directory {
            num_tiles,
            entries: EntryTable::with_capacity(INITIAL_BLOCK_CAPACITY),
            stats: DirectoryStats::default(),
        }
    }

    /// Number of tiles this directory was built for.
    pub fn num_tiles(&self) -> usize {
        self.num_tiles
    }

    /// Accumulated transaction statistics.
    pub fn stats(&self) -> &DirectoryStats {
        &self.stats
    }

    /// Resets the statistics, keeping the sharing state.
    pub fn reset_stats(&mut self) {
        self.stats = DirectoryStats::default();
    }

    /// Number of blocks with at least one on-chip copy.
    pub fn tracked_blocks(&self) -> usize {
        self.entries.len()
    }

    /// Hints the CPU to pull the directory entry of `block` into cache ahead
    /// of a transaction. The entry table is the largest randomly-probed
    /// structure of the private/ASR designs, so the simulator's batch
    /// drivers prefetch upcoming blocks to overlap the misses. Performance
    /// hint only — no state changes.
    #[inline]
    pub fn prefetch(&self, block: BlockAddr) {
        self.entries.prefetch(block.block_number());
    }

    /// The sharers currently recorded for a block.
    pub fn sharers(&self, block: BlockAddr) -> SharerSet {
        self.entries
            .find(block.block_number())
            .map(|slot| SharerSet::from_bits(self.entries.sharer_bits(slot)))
            .unwrap_or_default()
    }

    /// The current owner of a block (the tile responsible for supplying dirty data), if any.
    pub fn owner(&self, block: BlockAddr) -> Option<TileId> {
        self.entries
            .find(block.block_number())
            .and_then(|slot| self.entries.owner(slot))
    }

    /// Returns `true` if any tile holds a copy of the block.
    pub fn is_cached(&self, block: BlockAddr) -> bool {
        self.entries
            .find(block.block_number())
            .map(|slot| self.entries.sharer_bits(slot) != 0)
            .unwrap_or(false)
    }

    fn check_tile(&self, tile: TileId) {
        assert!(
            tile.index() < self.num_tiles,
            "tile {tile} out of range for a {}-tile directory",
            self.num_tiles
        );
    }

    /// Handles a read request from `requester`, returning where the data comes
    /// from and which state the requester ends up in.
    pub fn handle_read(&mut self, block: BlockAddr, requester: TileId) -> ReadOutcome {
        self.check_tile(requester);
        self.stats.reads += 1;
        let (slot, _) = self.entries.get_or_insert(block.block_number());
        let mut sharers = SharerSet::from_bits(self.entries.sharer_bits(slot));

        if sharers.contains(requester) {
            // Already has a copy: nothing to do (the requester's cache hit).
            let state = if self.entries.owner(slot) == Some(requester) && self.entries.dirty(slot) {
                MosiState::Modified
            } else {
                MosiState::Shared
            };
            return ReadOutcome {
                source: ReadSource::AlreadyPresent,
                downgraded_owner: false,
                new_state: state,
            };
        }

        if sharers.is_empty() {
            // Not on chip: fetch from memory, requester becomes the sole (clean) sharer.
            self.entries
                .set_sharer_bits(slot, SharerSet::singleton(requester).to_bits());
            self.entries.set_owner(slot, Some(requester));
            self.entries.set_dirty(slot, false);
            self.stats.memory_fetches += 1;
            return ReadOutcome {
                source: ReadSource::Memory,
                downgraded_owner: false,
                new_state: MosiState::Shared,
            };
        }

        // Forward from the owner (if dirty) or any current sharer.
        let dirty = self.entries.dirty(slot);
        let supplier = if dirty {
            self.entries
                .owner(slot)
                .or_else(|| sharers.first())
                .expect("dirty entry has an owner")
        } else {
            sharers.first().expect("non-empty sharer set")
        };
        sharers.insert(requester);
        self.entries.set_sharer_bits(slot, sharers.to_bits());
        self.stats.forwards += 1;
        ReadOutcome {
            source: ReadSource::Cache(supplier),
            downgraded_owner: dirty,
            new_state: MosiState::Shared,
        }
    }

    /// Handles a write (or upgrade) request from `requester`, returning the
    /// data source and the set of tiles that must be invalidated.
    pub fn handle_write(&mut self, block: BlockAddr, requester: TileId) -> WriteOutcome {
        self.check_tile(requester);
        self.stats.writes += 1;
        let (slot, _) = self.entries.get_or_insert(block.block_number());
        let sharers = SharerSet::from_bits(self.entries.sharer_bits(slot));

        let had_copy = sharers.contains(requester);
        let invalidations = sharers.without(requester);
        self.stats.invalidations_sent += invalidations.len() as u64;

        let source = if had_copy {
            ReadSource::AlreadyPresent
        } else if sharers.is_empty() {
            self.stats.memory_fetches += 1;
            ReadSource::Memory
        } else {
            let supplier = if self.entries.dirty(slot) {
                self.entries
                    .owner(slot)
                    .or_else(|| sharers.first())
                    .expect("dirty entry has an owner")
            } else {
                sharers.first().expect("non-empty sharer set")
            };
            self.stats.forwards += 1;
            ReadSource::Cache(supplier)
        };

        self.entries
            .set_sharer_bits(slot, SharerSet::singleton(requester).to_bits());
        self.entries.set_owner(slot, Some(requester));
        self.entries.set_dirty(slot, true);
        WriteOutcome {
            source,
            invalidations,
            new_state: MosiState::Modified,
        }
    }

    /// Records that `tile` evicted its copy of `block`.
    ///
    /// Returns `true` if the eviction requires a dirty writeback to memory
    /// (the evicting tile was the owner of a dirty block).
    pub fn handle_eviction(&mut self, block: BlockAddr, tile: TileId) -> bool {
        self.check_tile(tile);
        // Every eviction of a tracked block used to probe the entry table
        // twice (lookup, then keyed removal once the sharer set drained);
        // the slot index makes the removal free.
        let Some(slot) = self.entries.find(block.block_number()) else {
            return false;
        };
        let mut sharers = SharerSet::from_bits(self.entries.sharer_bits(slot));
        let was_present = sharers.remove(tile);
        if !was_present {
            return false;
        }
        self.entries.set_sharer_bits(slot, sharers.to_bits());
        let needs_writeback = self.entries.dirty(slot) && self.entries.owner(slot) == Some(tile);
        if needs_writeback {
            self.stats.dirty_writebacks += 1;
            // Ownership (and the dirty data) returns to memory; remaining
            // sharers keep clean copies.
            self.entries.set_dirty(slot, false);
            self.entries.set_owner(slot, sharers.first());
        } else if self.entries.owner(slot) == Some(tile) {
            self.entries.set_owner(slot, sharers.first());
        }
        if sharers.is_empty() {
            self.entries.remove_at(slot);
        }
        needs_writeback
    }

    /// Invalidates every copy of `block` on chip (e.g. an R-NUCA page
    /// shoot-down), returning the tiles that held a copy.
    pub fn invalidate_all(&mut self, block: BlockAddr) -> Vec<TileId> {
        match self.entries.find(block.block_number()) {
            Some(slot) => {
                let tiles: Vec<TileId> = SharerSet::from_bits(self.entries.sharer_bits(slot))
                    .iter()
                    .collect();
                self.entries.remove_at(slot);
                self.stats.invalidations_sent += tiles.len() as u64;
                tiles
            }
            None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(n: u64) -> BlockAddr {
        BlockAddr::from_block_number(n)
    }

    fn t(i: usize) -> TileId {
        TileId::new(i)
    }

    #[test]
    fn first_read_fetches_from_memory() {
        let mut d = Directory::new(16);
        let r = d.handle_read(b(1), t(0));
        assert_eq!(r.source, ReadSource::Memory);
        assert_eq!(r.new_state, MosiState::Shared);
        assert!(d.is_cached(b(1)));
        assert_eq!(d.stats().memory_fetches, 1);
    }

    #[test]
    fn second_read_forwards_from_sharer() {
        let mut d = Directory::new(16);
        d.handle_read(b(1), t(0));
        let r = d.handle_read(b(1), t(3));
        assert_eq!(r.source, ReadSource::Cache(t(0)));
        assert!(
            !r.downgraded_owner,
            "clean copy should not need a downgrade"
        );
        assert_eq!(d.sharers(b(1)).len(), 2);
        assert_eq!(d.stats().forwards, 1);
    }

    #[test]
    fn read_after_write_downgrades_the_owner() {
        let mut d = Directory::new(16);
        d.handle_write(b(1), t(2));
        let r = d.handle_read(b(1), t(5));
        assert_eq!(r.source, ReadSource::Cache(t(2)));
        assert!(r.downgraded_owner);
        assert_eq!(d.owner(b(1)), Some(t(2)));
    }

    #[test]
    fn repeated_read_by_same_tile_is_already_present() {
        let mut d = Directory::new(16);
        d.handle_read(b(1), t(0));
        let r = d.handle_read(b(1), t(0));
        assert_eq!(r.source, ReadSource::AlreadyPresent);
    }

    #[test]
    fn write_invalidates_all_other_sharers() {
        let mut d = Directory::new(16);
        for i in 0..4 {
            d.handle_read(b(9), t(i));
        }
        let w = d.handle_write(b(9), t(1));
        assert_eq!(w.invalidations.len(), 3);
        assert!(!w.invalidations.contains(t(1)));
        assert_eq!(w.source, ReadSource::AlreadyPresent);
        assert_eq!(w.new_state, MosiState::Modified);
        assert_eq!(d.sharers(b(9)).len(), 1);
        assert_eq!(d.owner(b(9)), Some(t(1)));
    }

    #[test]
    fn write_by_non_sharer_forwards_and_invalidates() {
        let mut d = Directory::new(16);
        d.handle_read(b(9), t(0));
        let w = d.handle_write(b(9), t(5));
        assert_eq!(w.source, ReadSource::Cache(t(0)));
        assert_eq!(w.invalidations, SharerSet::singleton(t(0)));
    }

    #[test]
    fn write_miss_with_no_copies_goes_to_memory() {
        let mut d = Directory::new(16);
        let w = d.handle_write(b(2), t(7));
        assert_eq!(w.source, ReadSource::Memory);
        assert!(w.invalidations.is_empty());
    }

    #[test]
    fn eviction_of_dirty_owner_requires_writeback() {
        let mut d = Directory::new(16);
        d.handle_write(b(4), t(3));
        assert!(d.handle_eviction(b(4), t(3)));
        assert!(!d.is_cached(b(4)));
        assert_eq!(d.stats().dirty_writebacks, 1);
    }

    #[test]
    fn eviction_of_clean_sharer_needs_no_writeback() {
        let mut d = Directory::new(16);
        d.handle_read(b(4), t(0));
        d.handle_read(b(4), t(1));
        assert!(!d.handle_eviction(b(4), t(0)));
        assert!(d.is_cached(b(4)));
        assert_eq!(d.sharers(b(4)).len(), 1);
        // Evicting a non-sharer is a no-op.
        assert!(!d.handle_eviction(b(4), t(9)));
    }

    #[test]
    fn eviction_of_dirty_owner_with_remaining_sharers_passes_ownership() {
        let mut d = Directory::new(16);
        d.handle_write(b(4), t(3));
        d.handle_read(b(4), t(5)); // downgrades owner, two sharers now
        assert!(d.handle_eviction(b(4), t(3)));
        assert_eq!(d.owner(b(4)), Some(t(5)));
        assert!(d.is_cached(b(4)));
    }

    #[test]
    fn invalidate_all_clears_the_entry() {
        let mut d = Directory::new(16);
        for i in 0..5 {
            d.handle_read(b(7), t(i));
        }
        let mut tiles = d.invalidate_all(b(7));
        tiles.sort();
        assert_eq!(tiles, (0..5).map(t).collect::<Vec<_>>());
        assert!(!d.is_cached(b(7)));
        assert!(d.invalidate_all(b(7)).is_empty());
    }

    #[test]
    fn tracked_blocks_counts_entries() {
        let mut d = Directory::new(16);
        d.handle_read(b(1), t(0));
        d.handle_read(b(2), t(0));
        assert_eq!(d.tracked_blocks(), 2);
        d.handle_eviction(b(1), t(0));
        assert_eq!(d.tracked_blocks(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_tile_panics() {
        Directory::new(8).handle_read(b(0), t(8));
    }

    #[test]
    #[should_panic(expected = "1..=64")]
    fn zero_tiles_panics() {
        Directory::new(0);
    }
}
