//! The per-tile cache state managed by the simulator.
//!
//! A tile couples a core with its L2 slice (plus a small victim buffer). The
//! slice records only which blocks are resident: no result reads a block's
//! class, and the model charges nothing for writebacks, so blocks carry no
//! metadata. The tile exposes the small set of operations the design
//! policies need, including the single-probe [`Tile::access`]/
//! [`Tile::fill_at`] pair the hot loop uses.

use rnuca_cache::{CacheArray, CacheStats, ProbeEntry, SetRef, VictimCache};
use rnuca_types::addr::{BlockAddr, PageAddr};
use rnuca_types::config::SystemConfig;
use rnuca_types::ids::TileId;

/// Outcome of a single-probe [`Tile::access`]: a resident block, or the
/// slice set a subsequent [`Tile::fill_at`] should fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TileAccess {
    /// The block is resident (in the slice, or re-promoted from the victim
    /// buffer).
    Hit,
    /// The block is absent from the tile; the handle locates the fill set.
    Miss(SetRef),
}

impl TileAccess {
    /// Returns `true` for a hit.
    pub fn is_hit(&self) -> bool {
        matches!(self, TileAccess::Hit)
    }
}

/// One tile: an L2 slice plus its victim buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct Tile {
    id: TileId,
    slice: CacheArray<()>,
    victims: VictimCache<()>,
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

    /// Single-probe lookup: like [`Tile::probe`], but a miss returns the
    /// handle [`Tile::fill_at`] fills without a second tag search. A
    /// victim-buffer hit is re-promoted into the slice (anything displaced
    /// goes back to the buffer) and reported as a hit.
    pub fn access(&mut self, block: BlockAddr) -> TileAccess {
        match self.slice.probe_entry(block) {
            ProbeEntry::Hit(_) => TileAccess::Hit,
            ProbeEntry::Miss(slot) => match self.victims.recall(block) {
                Some(()) => {
                    let (_, evicted) = self.slice.fill_at(slot, block, ());
                    if let Some(ev) = evicted {
                        self.victims.insert(ev.block, ());
                    }
                    TileAccess::Hit
                }
                None => TileAccess::Miss(slot),
            },
        }
    }

    /// Fills a block into the slice set a preceding [`Tile::access`] miss
    /// searched, skipping the re-scan [`Tile::fill`] would perform. Returns
    /// the block that left the tile entirely (fell out of both the slice and
    /// the victim buffer), which is what the directory needs to know about.
    pub fn fill_at(&mut self, slot: SetRef, block: BlockAddr) -> Option<BlockAddr> {
        let (_, evicted) = self.slice.fill_at(slot, block, ());
        let evicted = evicted?;
        self.victims
            .insert(evicted.block, ())
            .map(|(block, ())| block)
    }

    /// Checks residency without disturbing replacement state.
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.slice.contains(block) || self.victims.contains(block)
    }

    /// Fills a block into the slice, returning the displaced block (if any)
    /// after it has been parked in the victim buffer and finally dropped.
    ///
    /// The returned eviction is the block that left the tile entirely (fell
    /// out of both the slice and the victim buffer), which is what the
    /// directory needs to know about.
    pub fn fill(&mut self, block: BlockAddr) -> Option<BlockAddr> {
        let evicted = self.slice.insert(block, ())?;
        self.victims
            .insert(evicted.block, ())
            .map(|(block, ())| block)
    }

    /// Invalidates a block everywhere in the tile, returning whether it was resident.
    pub fn invalidate(&mut self, block: BlockAddr) -> bool {
        let from_slice = self.slice.invalidate(block).is_some();
        let from_victims = self.victims.invalidate(block).is_some();
        from_slice || from_victims
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
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(t.fill(b(1)).is_none());
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
            t.fill(b(i * 1024));
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
    fn invalidate_page_drops_only_that_page() {
        let mut t = tile();
        // 8 KB pages of 64 B blocks: page 7 spans blocks 896..1024.
        let page_bytes = 8192;
        let first = 7 * (page_bytes as u64 / 64);
        t.fill(b(first));
        t.fill(b(first + 1));
        let other = 8 * (page_bytes as u64 / 64);
        t.fill(b(other));
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
            t.fill(b(n));
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
        t.fill(b(5));
        assert!(t.invalidate(b(5)));
        assert!(!t.invalidate(b(5)));
    }
}
