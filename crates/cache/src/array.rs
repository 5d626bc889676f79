//! Set-associative cache array with true-LRU replacement, stored as one
//! flat slab.
//!
//! Every simulated L2 reference lands in a [`CacheArray`] probe, so the
//! layout is optimised for the probe path: the tags of a set are contiguous
//! `u64`s (two cache lines for a 16-way set), per-set occupancy is a single
//! `u64` bitmask, and LRU state is a slab of packed one-byte recency ranks.
//! Metadata lives in its own parallel slab and is only touched on a hit or
//! fill, never during the tag scan.

use crate::stats::CacheStats;
use rnuca_types::addr::BlockAddr;
use rnuca_types::config::CacheGeometry;

/// Recency rank marking an unoccupied way. Valid ways always hold a rank
/// below their set's associativity, so this value never collides.
const AGE_INVALID: u8 = u8::MAX;

/// A block evicted from a [`CacheArray`] to make room for a fill.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Eviction<T> {
    /// Address of the evicted block.
    pub block: BlockAddr,
    /// Metadata stored with the evicted block (e.g. coherence state, dirty bit).
    pub meta: T,
}

/// Handle to the set searched by [`CacheArray::probe_entry`].
///
/// On a miss, passing the handle to [`CacheArray::fill_at`] fills the block
/// into that set without recomputing the set index or re-scanning the tags —
/// the lookup-then-update sequences of the simulator become single-probe.
/// The handle stays valid as long as no other operation mutates the array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetRef(u32);

/// Handle to a specific resident way, as returned by a [`CacheArray::probe_entry`]
/// hit or a [`CacheArray::fill_at`]. Valid until the block is moved or removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryRef {
    set: u32,
    way: u32,
}

/// Outcome of [`CacheArray::probe_entry`]: a located resident way, or the
/// set to fill on a miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeEntry {
    /// The block is resident at this way (LRU refreshed, hit counted).
    Hit(EntryRef),
    /// The block is absent; fill into this set (miss counted).
    Miss(SetRef),
}

/// A set-associative cache array with true-LRU replacement.
///
/// The array indexes blocks by [`BlockAddr`] using the low bits of the block
/// number as the set index, exactly as a physical cache indexed above the
/// block offset would. Per-block metadata of type `T` travels with each entry
/// (coherence state, dirty bit, owning cluster, ...).
///
/// All operations are O(associativity) over contiguous memory; the array
/// never allocates after construction. Residency is tracked by a maintained
/// counter, so [`CacheArray::len`] is O(1).
#[derive(Debug, Clone, PartialEq)]
pub struct CacheArray<T> {
    geometry: CacheGeometry,
    num_sets: usize,
    ways: usize,
    /// Tag slab, `num_sets * ways` long: the block number of each way.
    /// Meaningful only where the set's occupancy bit is set.
    tags: Vec<u64>,
    /// LRU slab, parallel to `tags`: recency rank within the set (0 = MRU).
    /// The occupied ways of a set always hold a permutation of `0..count`.
    ages: Vec<u8>,
    /// Metadata slab, parallel to `tags`.
    meta: Vec<Option<T>>,
    /// Per-set occupancy bitmask (bit `w` = way `w` holds a block).
    occupied: Vec<u64>,
    /// Number of blocks currently resident (maintained, O(1) `len`).
    resident: usize,
    stats: CacheStats,
}

impl<T> CacheArray<T> {
    /// Creates an empty array with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry's associativity exceeds 64 (the per-set
    /// occupancy word is a `u64`).
    pub fn new(geometry: CacheGeometry) -> Self {
        let num_sets = geometry.num_sets();
        let ways = geometry.ways;
        assert!(ways <= 64, "flat-slab cache arrays support at most 64 ways");
        let slots = num_sets * ways;
        let mut meta: Vec<Option<T>> = Vec::with_capacity(slots);
        // Hint huge-page backing for the large slabs before first touch:
        // probes index them by set at random, and with 4 KB pages each
        // probe of a big array (the ideal design's aggregate cache in
        // particular) costs a dTLB miss on top of the data miss.
        rnuca_types::os_hint::advise_huge_pages(
            meta.as_ptr(),
            slots * std::mem::size_of::<Option<T>>(),
        );
        meta.resize_with(slots, || None);
        let tags = vec![0u64; slots];
        rnuca_types::os_hint::advise_huge_pages_slice(&tags);
        CacheArray {
            geometry,
            num_sets,
            ways,
            tags,
            ages: vec![AGE_INVALID; slots],
            meta,
            occupied: vec![0; num_sets],
            resident: 0,
            stats: CacheStats::default(),
        }
    }

    /// The geometry this array was built with.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Accumulated hit/miss/eviction statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets the accumulated statistics (contents are untouched).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Number of blocks currently resident.
    pub fn len(&self) -> usize {
        self.resident
    }

    /// Returns `true` if no blocks are resident.
    pub fn is_empty(&self) -> bool {
        self.resident == 0
    }

    fn set_index(&self, block: BlockAddr) -> usize {
        block.set_index(self.num_sets)
    }

    /// Hints the CPU to pull `block`'s set — its tag lines and occupancy
    /// word — into cache ahead of a probe. Purely a performance hint with
    /// no architectural effect; the simulator's batch drivers call this for
    /// upcoming references so independent probe misses overlap.
    #[inline]
    pub fn prefetch(&self, block: BlockAddr) {
        let set = self.set_index(block);
        let base = set * self.ways;
        rnuca_types::index_map::prefetch_read(&self.tags[base]);
        // A 16-way set spans two 64-byte tag lines; touch the second too.
        if self.ways > 8 {
            rnuca_types::index_map::prefetch_read(&self.tags[base + 8]);
        }
        rnuca_types::index_map::prefetch_read(&self.occupied[set]);
        // A hit promotes the way to MRU (ages) and reads its metadata; both
        // slabs are parallel to the tags, one line per set.
        rnuca_types::index_map::prefetch_read(&self.ages[base]);
        rnuca_types::index_map::prefetch_read(&self.meta[base]);
    }

    /// The way holding `block` in `set`, if resident.
    ///
    /// The scan is branchless — a tag-compare bitmask ANDed with the set's
    /// occupancy word — so the compiler can vectorize the tag comparisons
    /// and the probe never mispredicts on tag contents.
    #[inline]
    fn find_way(&self, set: usize, block: BlockAddr) -> Option<usize> {
        let tag = block.block_number();
        let base = set * self.ways;
        let tags = &self.tags[base..base + self.ways];
        let mut hit_mask = 0u64;
        for (w, &t) in tags.iter().enumerate() {
            hit_mask |= u64::from(t == tag) << w;
        }
        hit_mask &= self.occupied[set];
        if hit_mask != 0 {
            Some(hit_mask.trailing_zeros() as usize)
        } else {
            None
        }
    }

    /// Promotes way `w` of `set` to MRU, demoting the ways that were more
    /// recent. Unoccupied ways carry [`AGE_INVALID`] and are never demoted
    /// (their rank can never sit below a valid rank).
    #[inline]
    fn touch(&mut self, set: usize, w: usize) {
        let base = set * self.ways;
        let ages = &mut self.ages[base..base + self.ways];
        let rank = ages[w];
        for a in ages.iter_mut() {
            *a += u8::from(*a < rank);
        }
        ages[w] = 0;
    }

    /// Looks up a block, updating LRU state and hit/miss counters.
    ///
    /// Returns a reference to the stored metadata on a hit.
    pub fn probe(&mut self, block: BlockAddr) -> Option<&T> {
        match self.probe_entry(block) {
            ProbeEntry::Hit(e) => Some(self.entry_meta(e)),
            ProbeEntry::Miss(_) => None,
        }
    }

    /// Looks up a block, updating LRU state and hit/miss counters, returning
    /// mutable access to the stored metadata on a hit.
    pub fn probe_mut(&mut self, block: BlockAddr) -> Option<&mut T> {
        match self.probe_entry(block) {
            ProbeEntry::Hit(e) => Some(self.entry_meta_mut(e)),
            ProbeEntry::Miss(_) => None,
        }
    }

    /// Looks up a block, updating LRU state and hit/miss counters, and
    /// returns a handle: the resident way on a hit, or the searched set on a
    /// miss. A miss handle passed to [`CacheArray::fill_at`] turns the
    /// classic lookup-then-insert double probe into a single one.
    pub fn probe_entry(&mut self, block: BlockAddr) -> ProbeEntry {
        let set = self.set_index(block);
        match self.find_way(set, block) {
            Some(w) => {
                self.touch(set, w);
                self.stats.hits += 1;
                ProbeEntry::Hit(EntryRef {
                    set: set as u32,
                    way: w as u32,
                })
            }
            None => {
                self.stats.misses += 1;
                ProbeEntry::Miss(SetRef(set as u32))
            }
        }
    }

    /// The metadata of a resident way located by a probe or fill.
    pub fn entry_meta(&self, e: EntryRef) -> &T {
        self.meta[e.set as usize * self.ways + e.way as usize]
            .as_ref()
            .expect("entry handle points at an occupied way")
    }

    /// Mutable access to the metadata of a resident way.
    pub fn entry_meta_mut(&mut self, e: EntryRef) -> &mut T {
        self.meta[e.set as usize * self.ways + e.way as usize]
            .as_mut()
            .expect("entry handle points at an occupied way")
    }

    /// Checks residency without perturbing LRU state or statistics.
    pub fn peek(&self, block: BlockAddr) -> Option<&T> {
        let set = self.set_index(block);
        let w = self.find_way(set, block)?;
        self.meta[set * self.ways + w].as_ref()
    }

    /// Returns `true` if the block is resident (no LRU/statistics side effects).
    pub fn contains(&self, block: BlockAddr) -> bool {
        let set = self.set_index(block);
        self.find_way(set, block).is_some()
    }

    /// Fills `block` into the set a preceding [`CacheArray::probe_entry`]
    /// miss searched, without re-scanning the tags. The block must not be
    /// resident (which the miss established). If the set is full, the
    /// least-recently-used way is evicted and returned alongside the filled
    /// way's handle.
    pub fn fill_at(
        &mut self,
        slot: SetRef,
        block: BlockAddr,
        meta: T,
    ) -> (EntryRef, Option<Eviction<T>>) {
        let set = slot.0 as usize;
        debug_assert!(
            self.find_way(set, block).is_none(),
            "fill_at requires the block to be absent (a preceding probe miss)"
        );
        self.stats.fills += 1;
        let mask = self.occupied[set];
        let full = mask.count_ones() as usize >= self.ways;
        let (w, evicted) = if full {
            let w = self.lru_way(set);
            self.stats.evictions += 1;
            let base = set * self.ways;
            let victim = Eviction {
                block: BlockAddr::from_block_number(self.tags[base + w]),
                meta: self.meta[base + w]
                    .take()
                    .expect("occupied way has metadata"),
            };
            self.resident -= 1;
            (w, Some(victim))
        } else {
            // First free way: the lowest zero bit of the occupancy mask.
            ((!mask).trailing_zeros() as usize, None)
        };
        let base = set * self.ways;
        self.tags[base + w] = block.block_number();
        self.meta[base + w] = Some(meta);
        self.occupied[set] |= 1 << w;
        self.resident += 1;
        // Demote every occupied way, then seat the new block as MRU. Ranks
        // stay a permutation of 0..count.
        let ways = self.ways as u8;
        for a in &mut self.ages[base..base + self.ways] {
            *a += u8::from(*a < ways);
        }
        self.ages[base + w] = 0;
        (
            EntryRef {
                set: set as u32,
                way: w as u32,
            },
            evicted,
        )
    }

    /// The occupied way of `set` with the highest recency rank (the LRU way).
    fn lru_way(&self, set: usize) -> usize {
        let base = set * self.ways;
        let target = self.occupied[set].count_ones() as u8 - 1;
        self.ages[base..base + self.ways]
            .iter()
            .position(|&a| a == target)
            .expect("occupied ranks form a permutation of 0..count")
    }

    /// Inserts (fills) a block with the given metadata.
    ///
    /// If the block is already resident its metadata is replaced and its LRU
    /// position refreshed. If the set is full, the least-recently-used way is
    /// evicted and returned.
    pub fn insert(&mut self, block: BlockAddr, meta: T) -> Option<Eviction<T>> {
        let set = self.set_index(block);
        if let Some(w) = self.find_way(set, block) {
            self.meta[set * self.ways + w] = Some(meta);
            self.touch(set, w);
            return None;
        }
        self.fill_at(SetRef(set as u32), block, meta).1
    }

    /// Removes a block from the array, returning its metadata if it was resident.
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<T> {
        let set = self.set_index(block);
        let w = self.find_way(set, block)?;
        self.stats.invalidations += 1;
        Some(self.remove_way(set, w))
    }

    /// Removes way `w` of `set`, keeping the remaining ranks a permutation.
    fn remove_way(&mut self, set: usize, w: usize) -> T {
        let base = set * self.ways;
        let rank = self.ages[base + w];
        let ways = self.ways as u8;
        for a in &mut self.ages[base..base + self.ways] {
            *a -= u8::from(*a > rank && *a < ways);
        }
        self.ages[base + w] = AGE_INVALID;
        self.occupied[set] &= !(1 << w);
        self.resident -= 1;
        self.meta[base + w]
            .take()
            .expect("occupied way has metadata")
    }

    /// Removes every resident block for which the predicate returns `true`,
    /// returning the removed blocks. Used for page shoot-downs during R-NUCA
    /// re-classification.
    pub fn invalidate_matching<F>(&mut self, mut pred: F) -> Vec<Eviction<T>>
    where
        F: FnMut(BlockAddr, &T) -> bool,
    {
        let mut removed = Vec::new();
        for set in 0..self.num_sets {
            let base = set * self.ways;
            let mut mask = self.occupied[set];
            while mask != 0 {
                let w = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let block = BlockAddr::from_block_number(self.tags[base + w]);
                let keep = {
                    let meta = self.meta[base + w].as_ref().expect("occupied way");
                    !pred(block, meta)
                };
                if !keep {
                    self.stats.invalidations += 1;
                    let meta = self.remove_way(set, w);
                    removed.push(Eviction { block, meta });
                }
            }
        }
        removed
    }

    /// Iterates over all resident blocks and their metadata (set order, then way order).
    pub fn iter(&self) -> impl Iterator<Item = (BlockAddr, &T)> {
        self.occupied
            .iter()
            .enumerate()
            .flat_map(move |(set, &mask)| {
                let base = set * self.ways;
                (0..self.ways).filter_map(move |w| {
                    if (mask >> w) & 1 == 1 {
                        Some((
                            BlockAddr::from_block_number(self.tags[base + w]),
                            self.meta[base + w].as_ref().expect("occupied way"),
                        ))
                    } else {
                        None
                    }
                })
            })
    }

    /// Removes every block from the array.
    pub fn clear(&mut self) {
        for m in &mut self.meta {
            *m = None;
        }
        for a in &mut self.ages {
            *a = AGE_INVALID;
        }
        for o in &mut self.occupied {
            *o = 0;
        }
        self.resident = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnuca_types::config::CacheGeometry;

    fn tiny() -> CacheGeometry {
        // 4 sets x 2 ways x 64B blocks = 512B.
        CacheGeometry::new(512, 2, 64).unwrap()
    }

    fn b(n: u64) -> BlockAddr {
        BlockAddr::from_block_number(n)
    }

    #[test]
    fn miss_then_hit() {
        let mut c: CacheArray<u32> = CacheArray::new(tiny());
        assert!(c.probe(b(1)).is_none());
        c.insert(b(1), 7);
        assert_eq!(c.probe(b(1)), Some(&7));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_eviction_within_a_set() {
        let mut c: CacheArray<&str> = CacheArray::new(tiny());
        // Blocks 0, 4, 8 all map to set 0 (4 sets).
        c.insert(b(0), "a");
        c.insert(b(4), "b");
        // Touch block 0 so block 4 becomes LRU.
        assert!(c.probe(b(0)).is_some());
        let ev = c.insert(b(8), "c").expect("set is full, must evict");
        assert_eq!(ev.block, b(4));
        assert_eq!(ev.meta, "b");
        assert!(c.contains(b(0)));
        assert!(c.contains(b(8)));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn insert_existing_block_updates_metadata_without_eviction() {
        let mut c: CacheArray<u32> = CacheArray::new(tiny());
        c.insert(b(3), 1);
        assert!(c.insert(b(3), 2).is_none());
        assert_eq!(c.peek(b(3)), Some(&2));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn peek_does_not_touch_lru_or_stats() {
        let mut c: CacheArray<u32> = CacheArray::new(tiny());
        c.insert(b(0), 0);
        c.insert(b(4), 4);
        // Peek block 0 (older); it must NOT be promoted.
        assert_eq!(c.peek(b(0)), Some(&0));
        let hits_before = c.stats().hits;
        let ev = c.insert(b(8), 8).unwrap();
        assert_eq!(ev.block, b(0), "peek must not refresh LRU");
        assert_eq!(c.stats().hits, hits_before);
    }

    #[test]
    fn probe_mut_allows_in_place_update() {
        let mut c: CacheArray<u32> = CacheArray::new(tiny());
        c.insert(b(2), 10);
        if let Some(m) = c.probe_mut(b(2)) {
            *m += 5;
        }
        assert_eq!(c.peek(b(2)), Some(&15));
    }

    #[test]
    fn invalidate_removes_block() {
        let mut c: CacheArray<u32> = CacheArray::new(tiny());
        c.insert(b(5), 50);
        assert_eq!(c.invalidate(b(5)), Some(50));
        assert_eq!(c.invalidate(b(5)), None);
        assert!(!c.contains(b(5)));
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn invalidate_matching_removes_page_blocks() {
        let mut c: CacheArray<u64> = CacheArray::new(tiny());
        for n in 0..8 {
            c.insert(b(n), n);
        }
        // Remove all even block numbers (e.g. "blocks of a page being reclassified").
        let removed = c.invalidate_matching(|blk, _| blk.block_number() % 2 == 0);
        assert_eq!(removed.len(), 4);
        assert!(c.iter().all(|(blk, _)| blk.block_number() % 2 == 1));
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c: CacheArray<()> = CacheArray::new(tiny());
        // Blocks 0..4 map to distinct sets; filling them evicts nothing.
        for n in 0..4 {
            assert!(c.insert(b(n), ()).is_none());
        }
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn capacity_is_bounded_by_geometry() {
        let geom = tiny();
        let mut c: CacheArray<()> = CacheArray::new(geom);
        for n in 0..1000 {
            c.insert(b(n), ());
        }
        assert!(c.len() <= geom.num_blocks());
        assert_eq!(c.len(), geom.num_blocks());
    }

    #[test]
    fn clear_and_is_empty() {
        let mut c: CacheArray<()> = CacheArray::new(tiny());
        assert!(c.is_empty());
        c.insert(b(1), ());
        assert!(!c.is_empty());
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c: CacheArray<()> = CacheArray::new(tiny());
        c.insert(b(1), ());
        c.probe(b(1));
        c.reset_stats();
        assert_eq!(c.stats().hits, 0);
        assert!(c.contains(b(1)));
    }

    #[test]
    fn probe_entry_miss_then_fill_at_is_a_single_probe() {
        let mut c: CacheArray<u32> = CacheArray::new(tiny());
        let slot = match c.probe_entry(b(4)) {
            ProbeEntry::Miss(slot) => slot,
            ProbeEntry::Hit(_) => panic!("cold cache cannot hit"),
        };
        let (entry, evicted) = c.fill_at(slot, b(4), 40);
        assert!(evicted.is_none());
        assert_eq!(c.entry_meta(entry), &40);
        match c.probe_entry(b(4)) {
            ProbeEntry::Hit(e) => {
                *c.entry_meta_mut(e) += 2;
            }
            ProbeEntry::Miss(_) => panic!("filled block must hit"),
        }
        assert_eq!(c.peek(b(4)), Some(&42));
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().fills, 1);
    }

    #[test]
    fn fill_at_evicts_the_lru_way_of_a_full_set() {
        let mut c: CacheArray<u32> = CacheArray::new(tiny());
        c.insert(b(0), 0);
        c.insert(b(4), 4);
        c.probe(b(0)); // block 4 becomes LRU
        let slot = match c.probe_entry(b(8)) {
            ProbeEntry::Miss(slot) => slot,
            ProbeEntry::Hit(_) => panic!("block 8 is absent"),
        };
        let (_, evicted) = c.fill_at(slot, b(8), 8);
        let ev = evicted.expect("full set must evict");
        assert_eq!(ev.block, b(4));
        assert_eq!(ev.meta, 4);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn stale_tags_of_invalidated_ways_never_match() {
        let mut c: CacheArray<u32> = CacheArray::new(tiny());
        c.insert(b(4), 1);
        c.invalidate(b(4));
        // The tag slab still holds block 4's number in the freed way; the
        // occupancy mask must keep it from matching.
        assert!(!c.contains(b(4)));
        assert!(c.probe(b(4)).is_none());
        // Refill and make sure exactly one copy exists.
        c.insert(b(4), 2);
        assert_eq!(c.iter().filter(|(blk, _)| *blk == b(4)).count(), 1);
    }

    #[test]
    fn lru_order_survives_interleaved_invalidations() {
        let mut c: CacheArray<u32> = CacheArray::new(CacheGeometry::new(1024, 4, 64).unwrap());
        // Four blocks in set 0 (multiples of 4), touched in a known order.
        for n in [0u64, 4, 8, 12] {
            c.insert(b(n), n as u32);
        }
        // Recency now 12 > 8 > 4 > 0. Drop the middle one.
        c.invalidate(b(8));
        // Refill with a new block; no eviction (set has a free way).
        assert!(c.insert(b(16), 16).is_none());
        // Set is full again; recency 16 > 12 > 4 > 0, so 0 is the victim.
        let ev = c.insert(b(20), 20).expect("full set");
        assert_eq!(ev.block, b(0));
        // And the next victim is 4.
        let ev = c.insert(b(24), 24).expect("full set");
        assert_eq!(ev.block, b(4));
    }
}
