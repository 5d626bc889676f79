//! Per-core TLB model.
//!
//! The TLB caches the page classification communicated by the OS ("the
//! accessor receives a TLB fill with an additional Private bit set",
//! Section 4.3). A TLB hit means the core can index the L2 without OS
//! involvement; a TLB miss traps to the [`crate::OsClassifier`]. Shoot-downs
//! remove a page's entry from every core's TLB during re-classification.
//!
//! The TLB sits on the simulator's per-access critical path, and streaming
//! workloads miss it on nearly every reference, so both halves are O(1): an
//! open-addressed [`U64Map`] keyed by page number finds entries, and an
//! intrusive doubly-linked list over a fixed slab keeps exact LRU order —
//! eviction pops the tail instead of scanning every entry for the oldest
//! stamp the way the `HashMap`-backed version did.

use crate::page_table::PageClass;
use rnuca_types::addr::PageAddr;
use rnuca_types::index_map::U64Map;

/// Sentinel slot index marking "no node" in the LRU list.
const NIL: u32 = u32::MAX;

/// One slab entry of the LRU list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Node {
    page: u64,
    class: PageClass,
    prev: u32,
    next: u32,
}

/// A fully-associative, LRU translation lookaside buffer caching page classifications.
#[derive(Debug, Clone)]
pub struct Tlb {
    capacity: usize,
    /// Page number → slab slot of its node.
    map: U64Map<u32>,
    /// Node slab; never exceeds `capacity` live + freed entries.
    nodes: Vec<Node>,
    /// Slots returned by shoot-downs, reused before the slab grows.
    free: Vec<u32>,
    /// Most-recently-used node, or [`NIL`].
    head: u32,
    /// Least-recently-used node, or [`NIL`].
    tail: u32,
}

impl Tlb {
    /// Creates a TLB with room for `capacity` page entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a TLB needs at least one entry");
        Tlb {
            capacity,
            map: U64Map::with_capacity(capacity),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Number of valid entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` if the TLB holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Unlinks a node from the LRU list (it remains in the slab).
    fn unlink(&mut self, idx: u32) {
        let Node { prev, next, .. } = self.nodes[idx as usize];
        if prev == NIL {
            self.head = next;
        } else {
            self.nodes[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.nodes[next as usize].prev = prev;
        }
    }

    /// Links a node at the head (most-recently-used position).
    fn link_front(&mut self, idx: u32) {
        self.nodes[idx as usize].prev = NIL;
        self.nodes[idx as usize].next = self.head;
        if self.head != NIL {
            self.nodes[self.head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Looks up a page, returning its cached classification on a hit.
    pub fn lookup(&mut self, page: PageAddr) -> Option<PageClass> {
        let idx = *self.map.get(page.page_number())?;
        if self.head != idx {
            self.unlink(idx);
            self.link_front(idx);
        }
        Some(self.nodes[idx as usize].class)
    }

    /// Fills the TLB with a classification after an OS trap, evicting the
    /// least-recently-used entry if the TLB is full.
    ///
    /// The page must be absent: the trap follows this TLB's lookup miss,
    /// and the only TLB change in between, a re-classification's
    /// shoot-down, hits the previous owner's TLB, never the accessor's.
    pub fn fill(&mut self, page: PageAddr, class: PageClass) {
        let key = page.page_number();
        debug_assert!(
            self.map.get(key).is_none(),
            "page {page} is already in the TLB"
        );
        let idx = if self.map.len() >= self.capacity {
            // Evict the LRU tail and reuse its slot.
            let victim = self.tail;
            self.unlink(victim);
            self.map.remove(self.nodes[victim as usize].page);
            victim
        } else if let Some(freed) = self.free.pop() {
            freed
        } else {
            self.nodes.push(Node {
                page: 0,
                class,
                prev: NIL,
                next: NIL,
            });
            (self.nodes.len() - 1) as u32
        };
        self.nodes[idx as usize].page = key;
        self.nodes[idx as usize].class = class;
        self.link_front(idx);
        self.map.insert(key, idx);
    }

    /// Removes a page's entry (OS shoot-down). Returns `true` if it was present.
    pub fn shootdown(&mut self, page: PageAddr) -> bool {
        match self.map.remove(page.page_number()) {
            Some(idx) => {
                self.unlink(idx);
                self.free.push(idx);
                true
            }
            None => false,
        }
    }

    /// Hints the CPU to pull the map slot a lookup of `page` probes into
    /// cache (see [`U64Map::prefetch`]). Performance hint only.
    #[inline]
    pub fn prefetch(&self, page: PageAddr) {
        self.map.prefetch(page.page_number());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(n: u64) -> PageAddr {
        PageAddr::from_page_number(n)
    }

    #[test]
    fn miss_fill_hit() {
        let mut tlb = Tlb::new(4);
        assert_eq!(tlb.lookup(p(1)), None);
        tlb.fill(p(1), PageClass::Private);
        assert_eq!(tlb.lookup(p(1)), Some(PageClass::Private));
        assert_eq!(tlb.lookup(p(2)), None);
        assert_eq!(tlb.len(), 1);
    }

    #[test]
    fn capacity_eviction_is_lru() {
        let mut tlb = Tlb::new(2);
        tlb.fill(p(1), PageClass::Private);
        tlb.fill(p(2), PageClass::Shared);
        // Touch page 1 so page 2 is LRU.
        tlb.lookup(p(1));
        tlb.fill(p(3), PageClass::Private);
        assert_eq!(tlb.len(), 2);
        assert_eq!(tlb.lookup(p(2)), None, "LRU entry should be evicted");
        assert_eq!(tlb.lookup(p(1)), Some(PageClass::Private));
        assert_eq!(tlb.lookup(p(3)), Some(PageClass::Private));
    }

    #[test]
    fn shootdown_removes_entry() {
        let mut tlb = Tlb::new(4);
        tlb.fill(p(7), PageClass::Private);
        assert!(tlb.shootdown(p(7)));
        assert!(!tlb.shootdown(p(7)));
        assert!(tlb.is_empty());
        assert_eq!(tlb.lookup(p(7)), None);
    }

    #[test]
    fn shootdown_slots_are_reused_and_order_survives() {
        let mut tlb = Tlb::new(3);
        tlb.fill(p(1), PageClass::Private);
        tlb.fill(p(2), PageClass::Shared);
        tlb.fill(p(3), PageClass::Private);
        // Shoot down the middle of the LRU list, then refill to capacity.
        assert!(tlb.shootdown(p(2)));
        tlb.fill(p(4), PageClass::Instruction);
        assert_eq!(tlb.len(), 3);
        // LRU order is now 1 < 3 < 4; filling a fifth page evicts page 1.
        tlb.fill(p(5), PageClass::Shared);
        assert_eq!(tlb.lookup(p(1)), None);
        assert_eq!(tlb.lookup(p(2)), None);
        assert_eq!(tlb.lookup(p(3)), Some(PageClass::Private));
        assert_eq!(tlb.lookup(p(4)), Some(PageClass::Instruction));
        assert_eq!(tlb.lookup(p(5)), Some(PageClass::Shared));
    }

    #[test]
    fn streaming_past_capacity_keeps_exactly_the_newest_pages() {
        let mut tlb = Tlb::new(8);
        for n in 0..100 {
            tlb.fill(p(n), PageClass::Private);
        }
        assert_eq!(tlb.len(), 8);
        for n in 92..100 {
            assert_eq!(
                tlb.lookup(p(n)),
                Some(PageClass::Private),
                "page {n} must survive"
            );
        }
        assert_eq!(tlb.lookup(p(91)), None);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_panics() {
        Tlb::new(0);
    }
}
