//! Small fully-associative victim cache.
//!
//! Table 1 attaches a 16-entry victim cache to each L1 and L2 array. Evicted
//! blocks are parked here; a subsequent miss that hits in the victim cache is
//! serviced at array latency and the block is re-promoted.
//!
//! Like the main [`crate::CacheArray`], the buffer is stored flat: the tags
//! sit in their own contiguous slab so the probe that runs on every slice
//! miss is a vectorizable scan over a couple of cache lines, and metadata is
//! only touched on a hit. FIFO order is kept by an intrusive doubly-linked
//! list over the slots, so inserting a victim and dropping the oldest are
//! both O(1) — the operations the fill path performs on every eviction.

use crate::stats::CacheStats;
use rnuca_types::addr::BlockAddr;

/// Sentinel link meaning "no slot".
const NIL: u8 = u8::MAX;

/// A fully-associative FIFO victim buffer holding recently evicted blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct VictimCache<T> {
    capacity: usize,
    /// Tag slab; meaningful only where the occupancy bit is set.
    tags: Vec<u64>,
    metas: Vec<Option<T>>,
    /// Intrusive FIFO list over the slots: `head` is the oldest victim (the
    /// next dropped on overflow), `tail` the most recent insertion.
    next: Vec<u8>,
    prev: Vec<u8>,
    head: u8,
    tail: u8,
    /// Bit `i` set = slot `i` holds a victim.
    occupied: u64,
    stats: CacheStats,
}

impl<T> VictimCache<T> {
    /// Creates a victim cache with room for `capacity` blocks.
    ///
    /// A zero capacity is allowed and produces a victim cache that never holds
    /// anything (useful to disable the structure in ablations).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` exceeds 64 (the occupancy word is a `u64`).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity <= 64, "victim caches support at most 64 entries");
        let mut metas = Vec::with_capacity(capacity);
        metas.resize_with(capacity, || None);
        VictimCache {
            capacity,
            tags: vec![0; capacity],
            metas,
            next: vec![NIL; capacity],
            prev: vec![NIL; capacity],
            head: NIL,
            tail: NIL,
            occupied: 0,
            stats: CacheStats::default(),
        }
    }

    /// Maximum number of blocks held.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The block the next overflow-insert would drop: the oldest victim of a
    /// *full* buffer (`None` while free slots remain, since inserts then
    /// drop nothing). Read-only — prefetch hints use it to warm the dropped
    /// block's bookkeeping without disturbing FIFO order or statistics.
    pub fn peek_oldest(&self) -> Option<BlockAddr> {
        if self.len() < self.capacity || self.head == NIL {
            return None;
        }
        Some(BlockAddr::from_block_number(self.tags[self.head as usize]))
    }

    /// Number of blocks currently held.
    pub fn len(&self) -> usize {
        self.occupied.count_ones() as usize
    }

    /// Returns `true` if no victims are held.
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }

    /// Accumulated statistics (hits = successful recalls, misses = failed probes).
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The slot holding `block`, if parked here. When duplicate tags exist
    /// (a block filled into the slice while an older copy sat here, then
    /// evicted again) the oldest copy wins, which is what scanning the queue
    /// from its head used to do.
    #[inline]
    fn find(&self, block: BlockAddr) -> Option<usize> {
        let tag = block.block_number();
        let mut hit_mask = 0u64;
        for (i, &t) in self.tags.iter().enumerate() {
            hit_mask |= u64::from(t == tag) << i;
        }
        hit_mask &= self.occupied;
        if hit_mask == 0 {
            return None;
        }
        if hit_mask & (hit_mask - 1) == 0 {
            return Some(hit_mask.trailing_zeros() as usize);
        }
        // Rare duplicate-tag case: walk the FIFO list from the oldest end.
        let mut i = self.head;
        while i != NIL {
            if hit_mask >> i & 1 == 1 {
                return Some(i as usize);
            }
            i = self.next[i as usize];
        }
        unreachable!("occupied matches are always reachable from the head")
    }

    /// Unlinks `slot` from the FIFO list and clears its occupancy.
    fn unlink(&mut self, slot: usize) {
        let (p, n) = (self.prev[slot], self.next[slot]);
        if p == NIL {
            self.head = n;
        } else {
            self.next[p as usize] = n;
        }
        if n == NIL {
            self.tail = p;
        } else {
            self.prev[n as usize] = p;
        }
        self.occupied &= !(1 << slot);
    }

    fn take(&mut self, slot: usize) -> (BlockAddr, T) {
        self.unlink(slot);
        (
            BlockAddr::from_block_number(self.tags[slot]),
            self.metas[slot].take().expect("occupied slot has metadata"),
        )
    }

    /// Inserts an evicted block. If the buffer is full the oldest victim is
    /// dropped and returned.
    pub fn insert(&mut self, block: BlockAddr, meta: T) -> Option<(BlockAddr, T)> {
        if self.capacity == 0 {
            return Some((block, meta));
        }
        self.stats.fills += 1;
        let (slot, dropped) = if self.len() >= self.capacity {
            self.stats.evictions += 1;
            let oldest = self.head as usize;
            let dropped = self.take(oldest);
            (oldest, Some(dropped))
        } else {
            ((!self.occupied).trailing_zeros() as usize, None)
        };
        self.tags[slot] = block.block_number();
        self.metas[slot] = Some(meta);
        self.occupied |= 1 << slot;
        // Link at the tail (the youngest end).
        self.prev[slot] = self.tail;
        self.next[slot] = NIL;
        if self.tail == NIL {
            self.head = slot as u8;
        } else {
            self.next[self.tail as usize] = slot as u8;
        }
        self.tail = slot as u8;
        dropped
    }

    /// Attempts to recall a block, removing it from the buffer on success.
    pub fn recall(&mut self, block: BlockAddr) -> Option<T> {
        match self.find(block) {
            Some(slot) => {
                self.stats.hits += 1;
                Some(self.take(slot).1)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Returns `true` if the block is currently parked here (no statistics side effects).
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.find(block).is_some()
    }

    /// Removes a block without counting it as a recall (e.g. on invalidation).
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<T> {
        let slot = self.find(block)?;
        self.stats.invalidations += 1;
        Some(self.take(slot).1)
    }

    /// Removes all victims.
    pub fn clear(&mut self) {
        for m in &mut self.metas {
            *m = None;
        }
        self.occupied = 0;
        self.head = NIL;
        self.tail = NIL;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(n: u64) -> BlockAddr {
        BlockAddr::from_block_number(n)
    }

    #[test]
    fn recall_hit_and_miss() {
        let mut v: VictimCache<u32> = VictimCache::new(2);
        v.insert(b(1), 11);
        assert!(v.contains(b(1)));
        assert_eq!(v.recall(b(1)), Some(11));
        assert!(!v.contains(b(1)));
        assert_eq!(v.recall(b(1)), None);
        assert_eq!(v.stats().hits, 1);
        assert_eq!(v.stats().misses, 1);
    }

    #[test]
    fn fifo_overflow_drops_oldest() {
        let mut v: VictimCache<&str> = VictimCache::new(2);
        assert!(v.insert(b(1), "a").is_none());
        assert!(v.insert(b(2), "b").is_none());
        let dropped = v.insert(b(3), "c").expect("capacity exceeded");
        assert_eq!(dropped, (b(1), "a"));
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn fifo_order_survives_middle_removal() {
        let mut v: VictimCache<u32> = VictimCache::new(3);
        v.insert(b(1), 1);
        v.insert(b(2), 2);
        v.insert(b(3), 3);
        // Recall the middle entry; the hole is refilled by the next insert
        // but the drop order stays 1, then 3.
        assert_eq!(v.recall(b(2)), Some(2));
        v.insert(b(4), 4);
        let dropped = v.insert(b(5), 5).expect("full");
        assert_eq!(dropped, (b(1), 1));
        let dropped = v.insert(b(6), 6).expect("full");
        assert_eq!(dropped, (b(3), 3));
    }

    #[test]
    fn sustained_churn_preserves_queue_order() {
        // Overflow repeatedly so every slot is recycled several times; drops
        // must always come out in insertion order.
        let mut v: VictimCache<u64> = VictimCache::new(4);
        let mut dropped = Vec::new();
        for n in 0..32u64 {
            if let Some((blk, meta)) = v.insert(b(n), n) {
                assert_eq!(blk.block_number(), meta);
                dropped.push(meta);
            }
        }
        assert_eq!(dropped, (0..28).collect::<Vec<u64>>());
    }

    #[test]
    fn zero_capacity_rejects_everything() {
        let mut v: VictimCache<()> = VictimCache::new(0);
        assert_eq!(v.insert(b(1), ()), Some((b(1), ())));
        assert!(v.is_empty());
    }

    #[test]
    fn invalidate_does_not_count_as_hit() {
        let mut v: VictimCache<u32> = VictimCache::new(4);
        v.insert(b(5), 1);
        assert_eq!(v.invalidate(b(5)), Some(1));
        assert_eq!(v.stats().hits, 0);
        assert_eq!(v.stats().invalidations, 1);
        assert_eq!(v.invalidate(b(5)), None);
    }

    #[test]
    fn clear_empties_buffer() {
        let mut v: VictimCache<()> = VictimCache::new(4);
        v.insert(b(1), ());
        v.insert(b(2), ());
        v.clear();
        assert!(v.is_empty());
        assert_eq!(v.capacity(), 4);
        // The buffer is fully usable after a clear.
        v.insert(b(3), ());
        assert!(v.contains(b(3)));
    }

    #[test]
    fn stale_tags_never_match_after_removal() {
        let mut v: VictimCache<u32> = VictimCache::new(4);
        v.insert(b(7), 70);
        assert_eq!(v.recall(b(7)), Some(70));
        // The tag slab still holds 7; occupancy must keep it from matching.
        assert!(!v.contains(b(7)));
        assert_eq!(v.recall(b(7)), None);
    }

    #[test]
    fn duplicate_tags_recall_the_oldest_copy() {
        let mut v: VictimCache<u32> = VictimCache::new(4);
        v.insert(b(9), 1);
        v.insert(b(8), 2);
        v.insert(b(9), 3);
        assert_eq!(v.recall(b(9)), Some(1), "queue order: oldest copy first");
        assert_eq!(v.recall(b(9)), Some(3));
        assert_eq!(v.recall(b(9)), None);
    }
}
