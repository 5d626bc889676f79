//! The per-tile cache state managed by the simulator.
//!
//! A tile couples a core with its L2 slice (plus a small victim buffer). The
//! simulator stores per-block metadata in the slice — the block's access
//! class and a dirty bit — and the tile exposes the small set of operations
//! the design policies need, including the single-probe
//! [`Tile::access`]/[`Tile::fill_at`] pair the hot loop uses.

use rnuca_cache::{CacheArray, CacheStats, EntryRef, ProbeEntry, SetRef, VictimCache};
use rnuca_types::access::AccessClass;
use rnuca_types::addr::{BlockAddr, PageAddr};
use rnuca_types::config::SystemConfig;
use rnuca_types::ids::TileId;
use serde::{Deserialize, Serialize};

/// Outcome of a single-probe [`Tile::access`]: a located resident block, or
/// the slice set a subsequent [`Tile::fill_at`] should fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TileAccess {
    /// The block is resident (in the slice, or re-promoted from the victim
    /// buffer); the handle addresses its metadata.
    Hit(EntryRef),
    /// The block is absent from the tile; the handle locates the fill set.
    Miss(SetRef),
}

impl TileAccess {
    /// Returns `true` for a hit.
    pub fn is_hit(&self) -> bool {
        matches!(self, TileAccess::Hit(_))
    }
}

/// Metadata stored with every block resident in an L2 slice.
///
/// Deliberately two bytes: the metadata slab is touched on every hit and
/// fill, so its footprint is hot-loop state. (R-NUCA page shoot-downs walk
/// the page's block addresses, so blocks do not need to remember their
/// page.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockMeta {
    /// Ground-truth access class of the block (used only for statistics).
    pub class: AccessClass,
    /// Whether the resident copy is dirty with respect to memory.
    pub dirty: bool,
}

/// One tile: an L2 slice plus its victim buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct Tile {
    id: TileId,
    slice: CacheArray<BlockMeta>,
    victims: VictimCache<BlockMeta>,
}

impl Tile {
    /// Builds the tile's cache structures from the system configuration.
    pub fn new(id: TileId, config: &SystemConfig) -> Self {
        Tile {
            id,
            slice: CacheArray::new(config.l2_slice.geometry),
            victims: VictimCache::new(config.l2_slice.victim_entries),
        }
    }

    /// The tile's identifier.
    pub fn id(&self) -> TileId {
        self.id
    }

    /// Hints the CPU to pull the slice set a probe of `block` will scan into
    /// cache (see [`CacheArray::prefetch`]). Performance hint only.
    #[inline]
    pub fn prefetch(&self, block: BlockAddr) {
        self.slice.prefetch(block);
    }

    /// The block a fill-after-miss would push out of the tile entirely — the
    /// victim buffer's oldest entry, which is what [`Tile::fill_at`] reports
    /// and the directory is told about. `None` while the buffer still has
    /// room (then nothing departs). Read-only; prefetch hints use it to warm
    /// the departing block's directory entry ahead of the eviction.
    pub fn peek_departing(&self) -> Option<BlockAddr> {
        self.victims.peek_oldest()
    }

    /// Looks up a block in the slice (checking the victim buffer on a miss and
    /// re-promoting on a victim hit). Returns `true` on a hit.
    pub fn probe(&mut self, block: BlockAddr) -> bool {
        self.access(block).is_hit()
    }

    /// Single-probe lookup: like [`Tile::probe`], but the returned handle
    /// lets the caller update a hit's metadata or fill the missed set via
    /// [`Tile::fill_at`] without a second tag search. A victim-buffer hit is
    /// re-promoted into the slice (anything displaced goes back to the
    /// buffer) and reported as a hit.
    pub fn access(&mut self, block: BlockAddr) -> TileAccess {
        match self.slice.probe_entry(block) {
            ProbeEntry::Hit(entry) => TileAccess::Hit(entry),
            ProbeEntry::Miss(slot) => match self.victims.recall(block) {
                Some(meta) => {
                    let (entry, evicted) = self.slice.fill_at(slot, block, meta);
                    if let Some(ev) = evicted {
                        self.victims.insert(ev.block, ev.meta);
                    }
                    TileAccess::Hit(entry)
                }
                None => TileAccess::Miss(slot),
            },
        }
    }

    /// The metadata of a resident block located by [`Tile::access`].
    pub fn meta_mut(&mut self, entry: EntryRef) -> &mut BlockMeta {
        self.slice.entry_meta_mut(entry)
    }

    /// Fills a block into the slice set a preceding [`Tile::access`] miss
    /// searched, skipping the re-scan [`Tile::fill`] would perform. Returns
    /// the block that left the tile entirely (fell out of both the slice and
    /// the victim buffer), which is what the directory needs to know about.
    pub fn fill_at(
        &mut self,
        slot: SetRef,
        block: BlockAddr,
        meta: BlockMeta,
    ) -> Option<(BlockAddr, BlockMeta)> {
        let (_, evicted) = self.slice.fill_at(slot, block, meta);
        let evicted = evicted?;
        self.victims.insert(evicted.block, evicted.meta)
    }

    /// Checks residency without disturbing replacement state.
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.slice.contains(block) || self.victims.contains(block)
    }

    /// Marks a resident block dirty; returns `true` if the block was resident.
    pub fn mark_dirty(&mut self, block: BlockAddr) -> bool {
        match self.slice.probe_mut(block) {
            Some(meta) => {
                meta.dirty = true;
                true
            }
            None => false,
        }
    }

    /// Fills a block into the slice, returning the displaced block (if any)
    /// after it has been parked in the victim buffer and finally dropped.
    ///
    /// The returned eviction is the block that left the tile entirely (fell
    /// out of both the slice and the victim buffer), which is what the
    /// directory needs to know about.
    pub fn fill(&mut self, block: BlockAddr, meta: BlockMeta) -> Option<(BlockAddr, BlockMeta)> {
        let evicted = self.slice.insert(block, meta)?;
        self.victims.insert(evicted.block, evicted.meta)
    }

    /// Invalidates a block everywhere in the tile, returning its metadata if it was resident.
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<BlockMeta> {
        let from_slice = self.slice.invalidate(block);
        let from_victims = self.victims.invalidate(block);
        from_slice.or(from_victims)
    }

    /// Invalidates every block belonging to `page` (an R-NUCA shoot-down),
    /// returning how many blocks were dropped from the slice.
    ///
    /// A page's blocks are a contiguous block-number range, so the
    /// shoot-down is one [`CacheArray::invalidate_range`] sweep over the
    /// sets the page maps to, keeping re-classification cost proportional
    /// to the page size rather than the slice size. The victim buffer is
    /// deliberately left alone, mirroring the metadata-scan behaviour the
    /// page walk originally replaced.
    pub fn invalidate_page(&mut self, page: PageAddr, page_bytes: usize) -> usize {
        let blocks_per_page = page_bytes / self.slice.geometry().block_bytes;
        let first = BlockAddr::from_block_number(page.page_number() * blocks_per_page as u64);
        self.slice.invalidate_range(first, blocks_per_page)
    }

    /// Number of blocks resident in the slice (excluding the victim buffer).
    pub fn resident_blocks(&self) -> usize {
        self.slice.len()
    }

    /// Statistics of the slice array.
    pub fn slice_stats(&self) -> &CacheStats {
        self.slice.stats()
    }

    /// Number of resident blocks of each class `(instructions, private, shared)`.
    pub fn class_occupancy(&self) -> (usize, usize, usize) {
        let mut instr = 0;
        let mut private = 0;
        let mut shared = 0;
        for (_, meta) in self.slice.iter() {
            match meta.class {
                AccessClass::Instruction => instr += 1,
                AccessClass::PrivateData => private += 1,
                AccessClass::SharedData => shared += 1,
            }
        }
        (instr, private, shared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(class: AccessClass) -> BlockMeta {
        BlockMeta {
            class,
            dirty: false,
        }
    }

    fn tile() -> Tile {
        Tile::new(TileId::new(0), &SystemConfig::server_16())
    }

    fn b(n: u64) -> BlockAddr {
        BlockAddr::from_block_number(n)
    }

    #[test]
    fn probe_miss_then_fill_then_hit() {
        let mut t = tile();
        assert!(!t.probe(b(1)));
        assert!(t.fill(b(1), meta(AccessClass::PrivateData)).is_none());
        assert!(t.probe(b(1)));
        assert!(t.contains(b(1)));
        assert_eq!(t.resident_blocks(), 1);
    }

    #[test]
    fn victim_buffer_catches_recent_evictions() {
        let mut t = tile();
        // The server L2 slice has 1024 sets x 16 ways; blocks that share set 0
        // are multiples of 1024. Fill 17 of them to force one eviction.
        for i in 0..17u64 {
            t.fill(b(i * 1024), meta(AccessClass::PrivateData));
        }
        // The LRU block (block 0) fell out of the slice but sits in the victim buffer.
        assert_eq!(t.resident_blocks(), 16);
        assert!(
            t.contains(b(0)),
            "victim buffer should still hold the evicted block"
        );
        assert!(t.probe(b(0)), "probing re-promotes from the victim buffer");
    }

    #[test]
    fn mark_dirty_only_affects_resident_blocks() {
        let mut t = tile();
        assert!(!t.mark_dirty(b(9)));
        t.fill(b(9), meta(AccessClass::SharedData));
        assert!(t.mark_dirty(b(9)));
    }

    #[test]
    fn invalidate_page_drops_only_that_page() {
        let mut t = tile();
        // 8 KB pages of 64 B blocks: page 7 spans blocks 896..1024.
        let page_bytes = 8192;
        let first = 7 * (page_bytes as u64 / 64);
        t.fill(b(first), meta(AccessClass::PrivateData));
        t.fill(b(first + 1), meta(AccessClass::PrivateData));
        let other = 8 * (page_bytes as u64 / 64);
        t.fill(b(other), meta(AccessClass::PrivateData));
        assert_eq!(
            t.invalidate_page(PageAddr::from_page_number(7), page_bytes),
            2
        );
        assert!(!t.contains(b(first)));
        assert!(t.contains(b(other)));
        // A second shoot-down finds nothing left.
        assert_eq!(
            t.invalidate_page(PageAddr::from_page_number(7), page_bytes),
            0
        );
    }

    #[test]
    fn a_shoot_down_straddling_the_last_set_drops_exactly_that_page() {
        // The server slice has 1024 sets and an 8 KB page holds 128 blocks:
        // page 15 spans blocks 1920..2048, i.e. sets 896..1024, and page 16
        // wraps back to set 0. Fill the page's first and last blocks, the
        // neighbours on both sides, and another page aliasing the same sets.
        let mut t = tile();
        let page_bytes = 8192;
        let page = PageAddr::from_page_number(15);
        let (first, last) = (15 * 128, 16 * 128 - 1);
        let keep = [first - 1, last + 1, first + 1024, last + 1024];
        for n in [first, first + 64, last].into_iter().chain(keep) {
            t.fill(b(n), meta(AccessClass::PrivateData));
        }
        assert_eq!(t.invalidate_page(page, page_bytes), 3);
        for n in [first, first + 64, last] {
            assert!(!t.contains(b(n)), "block {n} of the page survived");
        }
        for n in keep {
            assert!(t.contains(b(n)), "block {n} outside the page was dropped");
        }
        assert_eq!(t.resident_blocks(), keep.len());
        assert_eq!(t.slice_stats().invalidations, 3);
    }

    #[test]
    fn invalidate_single_block() {
        let mut t = tile();
        t.fill(b(5), meta(AccessClass::Instruction));
        assert!(t.invalidate(b(5)).is_some());
        assert!(t.invalidate(b(5)).is_none());
    }

    #[test]
    fn class_occupancy_counts() {
        let mut t = tile();
        t.fill(b(1), meta(AccessClass::Instruction));
        t.fill(b(2), meta(AccessClass::PrivateData));
        t.fill(b(3), meta(AccessClass::PrivateData));
        t.fill(b(4), meta(AccessClass::SharedData));
        assert_eq!(t.class_occupancy(), (1, 2, 1));
    }
}
