//! Full-map directory: per-block sharers and dirty owner, and the answer to
//! each transaction — who supplies the data, whom to invalidate.

use crate::sharers::SharerSet;
use crate::table::{Entry, EntryTable, KEY_LIMIT};
use rnuca_types::addr::BlockAddr;
use rnuca_types::ids::TileId;

/// Blocks the directory pre-sizes for; past this it grows by doubling.
const INITIAL_BLOCK_CAPACITY: usize = 8_192;

/// Where the data for a read request comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReadSource {
    /// No on-chip copy existed; the block is fetched from main memory.
    Memory,
    /// The request already had a valid copy (hit at the requester; no transaction needed).
    AlreadyPresent,
    /// The data is forwarded from the cache of another tile (the dirty
    /// owner, else a sharer).
    Cache(TileId),
}

/// Counters accumulated by a [`Directory`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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
/// directory transaction, so the entry table is an open-addressed store of
/// 16-byte entries keyed by the block number (see the `table` module for
/// the layout rationale) rather than a SipHash `HashMap`. A block number
/// must be below 2^48 to fit an entry; the simulated 42-bit physical
/// address space keeps it below 2^36.
#[derive(Debug, Clone)]
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
            .map(|slot| SharerSet::from_bits(self.entries.slot(slot).sharer_bits()))
            .unwrap_or_default()
    }

    /// The current owner of a block (the tile responsible for supplying dirty data), if any.
    pub fn owner(&self, block: BlockAddr) -> Option<TileId> {
        self.entries
            .find(block.block_number())
            .and_then(|slot| self.entries.slot(slot).owner())
    }

    /// Returns `true` if any tile holds a copy of the block.
    pub fn is_cached(&self, block: BlockAddr) -> bool {
        self.entries
            .find(block.block_number())
            .map(|slot| self.entries.slot(slot).sharer_bits() != 0)
            .unwrap_or(false)
    }

    fn check_tile(&self, tile: TileId) {
        assert!(
            tile.index() < self.num_tiles,
            "tile {tile} out of range for a {}-tile directory",
            self.num_tiles
        );
    }

    /// The block's number, which must fit the entry table's 48-bit key.
    fn checked_key(block: BlockAddr) -> u64 {
        let key = block.block_number();
        assert!(
            key < KEY_LIMIT,
            "block number {key:#x} does not fit the directory's 48-bit key"
        );
        key
    }

    /// Handles a read request from `requester`, returning where the data
    /// comes from. A requester that did not hold the block joins the sharers.
    pub fn handle_read(&mut self, block: BlockAddr, requester: TileId) -> ReadSource {
        self.check_tile(requester);
        let key = Self::checked_key(block);
        self.stats.reads += 1;
        let (slot, _) = self.entries.find_or_insert(key, || Entry::new(key));
        let e = self.entries.slot_mut(slot);
        let mut sharers = SharerSet::from_bits(e.sharer_bits());

        if sharers.contains(requester) {
            // Already has a copy: nothing to do (the requester's cache hit).
            return ReadSource::AlreadyPresent;
        }

        if sharers.is_empty() {
            // Not on chip: fetch from memory, requester becomes the sole (clean) sharer.
            e.set_sharer_bits(SharerSet::singleton(requester).to_bits());
            e.set_owner(Some(requester));
            e.set_dirty(false);
            self.stats.memory_fetches += 1;
            return ReadSource::Memory;
        }

        // Forward from the owner (if dirty) or any current sharer.
        let supplier = if e.dirty() {
            e.owner()
                .or_else(|| sharers.first())
                .expect("dirty entry has an owner")
        } else {
            sharers.first().expect("non-empty sharer set")
        };
        sharers.insert(requester);
        e.set_sharer_bits(sharers.to_bits());
        self.stats.forwards += 1;
        ReadSource::Cache(supplier)
    }

    /// Handles a write (or upgrade) request from `requester`, returning the
    /// tiles whose copies must be invalidated before the write can proceed.
    /// The requester becomes the block's sole holder and its dirty owner.
    pub fn handle_write(&mut self, block: BlockAddr, requester: TileId) -> SharerSet {
        self.check_tile(requester);
        let key = Self::checked_key(block);
        self.stats.writes += 1;
        let (slot, _) = self.entries.find_or_insert(key, || Entry::new(key));
        let e = self.entries.slot_mut(slot);
        let sharers = SharerSet::from_bits(e.sharer_bits());

        let invalidations = sharers.without(requester);
        self.stats.invalidations_sent += invalidations.len() as u64;
        if !sharers.contains(requester) {
            if sharers.is_empty() {
                self.stats.memory_fetches += 1;
            } else {
                self.stats.forwards += 1;
            }
        }

        e.set_sharer_bits(SharerSet::singleton(requester).to_bits());
        e.set_owner(Some(requester));
        e.set_dirty(true);
        invalidations
    }

    /// Records that `tile` evicted its copy of `block`. Evicting the dirty
    /// owner's copy counts a writeback in [`DirectoryStats::dirty_writebacks`].
    pub fn handle_eviction(&mut self, block: BlockAddr, tile: TileId) {
        self.check_tile(tile);
        // Every eviction of a tracked block used to probe the entry table
        // twice (lookup, then keyed removal once the sharer set drained);
        // the slot index makes the removal free.
        let Some(slot) = self.entries.find(block.block_number()) else {
            return;
        };
        let e = self.entries.slot_mut(slot);
        let mut sharers = SharerSet::from_bits(e.sharer_bits());
        if !sharers.remove(tile) {
            return;
        }
        e.set_sharer_bits(sharers.to_bits());
        if e.dirty() && e.owner() == Some(tile) {
            self.stats.dirty_writebacks += 1;
            // Ownership (and the dirty data) returns to memory; remaining
            // sharers keep clean copies.
            e.set_dirty(false);
            e.set_owner(sharers.first());
        } else if e.owner() == Some(tile) {
            e.set_owner(sharers.first());
        }
        if sharers.is_empty() {
            self.entries.remove_at(slot);
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
        assert_eq!(d.handle_read(b(1), t(0)), ReadSource::Memory);
        assert!(d.is_cached(b(1)));
        assert_eq!(d.stats().memory_fetches, 1);
    }

    #[test]
    fn second_read_forwards_from_sharer() {
        let mut d = Directory::new(16);
        d.handle_read(b(1), t(0));
        assert_eq!(d.handle_read(b(1), t(3)), ReadSource::Cache(t(0)));
        assert_eq!(d.sharers(b(1)).len(), 2);
        assert_eq!(d.stats().forwards, 1);
    }

    #[test]
    fn read_after_write_downgrades_the_owner() {
        let mut d = Directory::new(16);
        d.handle_write(b(1), t(2));
        // Tile 0 is now the lowest-numbered sharer, but the dirty owner, not
        // the first sharer, supplies.
        d.handle_read(b(1), t(0));
        assert_eq!(d.handle_read(b(1), t(5)), ReadSource::Cache(t(2)));
        assert_eq!(d.owner(b(1)), Some(t(2)));
    }

    #[test]
    fn repeated_read_by_same_tile_is_already_present() {
        let mut d = Directory::new(16);
        d.handle_read(b(1), t(0));
        assert_eq!(d.handle_read(b(1), t(0)), ReadSource::AlreadyPresent);
    }

    #[test]
    fn write_invalidates_all_other_sharers() {
        let mut d = Directory::new(16);
        for i in 0..4 {
            d.handle_read(b(9), t(i));
        }
        let invalidations = d.handle_write(b(9), t(1));
        assert_eq!(invalidations.len(), 3);
        assert!(!invalidations.contains(t(1)));
        assert_eq!(d.stats().forwards, 3, "an upgrade forwards nothing");
        assert_eq!(d.sharers(b(9)).len(), 1);
        assert_eq!(d.owner(b(9)), Some(t(1)));
    }

    #[test]
    fn write_by_non_sharer_forwards_and_invalidates() {
        let mut d = Directory::new(16);
        d.handle_read(b(9), t(0));
        assert_eq!(d.handle_write(b(9), t(5)), SharerSet::singleton(t(0)));
        assert_eq!(d.stats().forwards, 1);
    }

    #[test]
    fn write_miss_with_no_copies_goes_to_memory() {
        let mut d = Directory::new(16);
        assert!(d.handle_write(b(2), t(7)).is_empty());
        assert_eq!(d.stats().memory_fetches, 1);
    }

    #[test]
    fn eviction_of_dirty_owner_requires_writeback() {
        let mut d = Directory::new(16);
        d.handle_write(b(4), t(3));
        d.handle_eviction(b(4), t(3));
        assert!(!d.is_cached(b(4)));
        assert_eq!(d.stats().dirty_writebacks, 1);
    }

    #[test]
    fn eviction_of_clean_sharer_needs_no_writeback() {
        let mut d = Directory::new(16);
        d.handle_read(b(4), t(0));
        d.handle_read(b(4), t(1));
        d.handle_eviction(b(4), t(0));
        assert!(d.is_cached(b(4)));
        assert_eq!(d.sharers(b(4)).len(), 1);
        // Evicting a non-sharer is a no-op.
        d.handle_eviction(b(4), t(9));
        assert_eq!(d.sharers(b(4)), SharerSet::singleton(t(1)));
        assert_eq!(d.stats().dirty_writebacks, 0);
    }

    #[test]
    fn eviction_of_dirty_owner_with_remaining_sharers_passes_ownership() {
        let mut d = Directory::new(16);
        d.handle_write(b(4), t(3));
        d.handle_read(b(4), t(5)); // downgrades owner, two sharers now
        d.handle_eviction(b(4), t(3));
        assert_eq!(d.stats().dirty_writebacks, 1);
        assert_eq!(d.owner(b(4)), Some(t(5)));
        assert!(d.is_cached(b(4)));
        // The data went back to memory: the new owner's copy is clean, so
        // its eviction writes nothing back.
        d.handle_eviction(b(4), t(5));
        assert_eq!(d.stats().dirty_writebacks, 1);
    }

    #[test]
    fn the_last_eviction_untracks_the_block() {
        let mut d = Directory::new(16);
        d.handle_read(b(1), t(0));
        d.handle_read(b(2), t(0));
        d.handle_eviction(b(1), t(0));
        assert!(!d.is_cached(b(1)));
        assert!(d.is_cached(b(2)));
        // An untracked block starts over from memory.
        assert_eq!(d.handle_read(b(1), t(3)), ReadSource::Memory);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_tile_panics() {
        Directory::new(8).handle_read(b(0), t(8));
    }

    #[test]
    #[should_panic(expected = "block number 0x1000000000000 does not fit")]
    fn block_number_past_the_key_field_panics() {
        Directory::new(8).handle_write(b(1 << 48), t(0));
    }

    #[test]
    #[should_panic(expected = "1..=64")]
    fn zero_tiles_panics() {
        Directory::new(0);
    }
}
