//! Open-addressed slot store backing the [`Directory`]'s per-block entries,
//! one 16-byte record per entry.
//!
//! The directory is the largest randomly-probed structure of the private/ASR
//! designs: at 64 tiles it tracks ~a million blocks, and every local L2 miss,
//! store, and eviction touches it (em3d under Private does about 0.55 reads,
//! 0.43 writes and up to 0.67 evictions per reference). Most of those
//! touches *hit* an entry and then read or rewrite its sharer mask and its
//! owner/dirty bits, so the whole entry lives in one slot:
//!
//! * `head` — the block number shifted left by 16, with the owner tile and
//!   dirty flag in the low 16 bits; all ones marks an empty slot;
//! * `sharers` — the 64-bit sharer mask.
//!
//! Slots are 16-byte aligned, so four share a host cache line and a probe,
//! its mask and its owner bits never straddle one: a hit, insert or removal
//! costs one random host miss, and [`EntryTable::prefetch`] pulls in the
//! whole entry. The earlier layout split the entry over three parallel
//! arrays (keys, masks, owner/dirty) so that a *missing* probe touched only
//! the keys; a hit then paid up to three misses. On perfbench's
//! `eval-best-of-six` (Private plus six ASR measurements per workload) the
//! single-record slot, together with the packed L1-dirty entry, raised the
//! median refs/s by 7.7% to 17.2% over three rounds of ten alternating
//! pairs on a shared 2-vCPU host, with every result bit-identical.
//!
//! Keys must be below [`KEY_LIMIT`] (2^48) to fit beside the owner bits. The
//! simulated physical address is 42 bits wide, so block numbers stay below
//! 2^36; [`Directory`] asserts the bound before it stores a key. The largest
//! packed `head` of a real entry, `(2^48 - 1) << 16 | 0xC03F`, never equals
//! the all-ones empty marker.
//!
//! Hashing, linear probing, and backward-shift deletion mirror
//! `rnuca_types::index_map::U64Map`, whose randomized differential tests
//! pinned the algorithm down; the table is itself differentially tested
//! against a `HashMap` reference below.
//!
//! [`Directory`]: crate::directory::Directory

use rnuca_types::ids::TileId;
use rnuca_types::os_hint;

/// Keys (block numbers) must be below this to fit a slot's `head`.
pub(crate) const KEY_LIMIT: u64 = 1 << 48;

/// How far a key is shifted in `head`, above the owner/dirty bits.
const KEY_SHIFT: u32 = 16;

/// `head` of an empty slot. No real entry packs to it: the owner/dirty bits
/// never set bits 6..14 (bit 13 is set only while the table grows).
const EMPTY_HEAD: u64 = u64::MAX;

/// Fibonacci-hash multiplier (`2^64 / phi`, odd), as in `U64Map`.
const FIB_MULT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Smallest slot-array size.
const MIN_SLOTS: usize = 16;

/// `head` bit 15: the block is dirty on chip.
const OD_DIRTY: u64 = 1 << 15;
/// `head` bit 14: the owner field is meaningful.
const OD_HAS_OWNER: u64 = 1 << 14;
/// `head` bit 13, set only inside [`EntryTable::reserve_one`]: the entry
/// still sits where the table placed it before it doubled.
const PENDING: u64 = 1 << 13;
/// `head` bits 0..6: the owner's tile index (0..64).
const OD_OWNER_MASK: u64 = 0x3F;

/// Index of an occupied slot; valid until the next insertion or removal.
pub(crate) type SlotIdx = usize;

/// One directory entry: its key and owner/dirty bits, then its sharer mask.
#[repr(C, align(16))]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    head: u64,
    sharers: u64,
}

impl Slot {
    const EMPTY: Slot = Slot {
        head: EMPTY_HEAD,
        sharers: 0,
    };

    fn is_empty(self) -> bool {
        self.head == EMPTY_HEAD
    }

    /// The key of an occupied slot.
    fn key(self) -> u64 {
        self.head >> KEY_SHIFT
    }
}

/// The entry store: one slot `Vec`, open-addressed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct EntryTable {
    slots: Vec<Slot>,
    len: usize,
}

impl EntryTable {
    /// A table pre-sized for `capacity` entries.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        let slots = (capacity * 8 / 7 + 1).next_power_of_two().max(MIN_SLOTS);
        Self::with_slots(slots)
    }

    /// An empty table of `slots` slots, hinting huge-page backing for the
    /// large ones (see [`os_hint::advise_huge_pages`]).
    fn with_slots(slots: usize) -> Self {
        let mut v: Vec<Slot> = Vec::with_capacity(slots);
        os_hint::advise_huge_pages(v.as_ptr(), slots * std::mem::size_of::<Slot>());
        v.resize(slots, Slot::EMPTY);
        EntryTable { slots: v, len: 0 }
    }

    /// Number of entries stored.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    fn home(&self, key: u64) -> usize {
        let hash = key.wrapping_mul(FIB_MULT);
        (hash >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// Pulls the probe chain's first slot — key, sharer mask and owner bits
    /// alike — toward the CPU (performance hint only).
    #[inline]
    pub(crate) fn prefetch(&self, key: u64) {
        rnuca_types::index_map::prefetch_read(&self.slots[self.home(key)]);
    }

    /// The slot holding `key`, if present.
    #[inline]
    pub(crate) fn find(&self, key: u64) -> Option<SlotIdx> {
        let mask = self.mask();
        let mut i = self.home(key);
        loop {
            let s = self.slots[i];
            if s.is_empty() {
                return None;
            }
            if s.key() == key {
                return Some(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// The slot for `key`, inserting an empty entry (no sharers, no owner,
    /// clean) if absent. The flag reports whether the entry was created.
    pub(crate) fn get_or_insert(&mut self, key: u64) -> (SlotIdx, bool) {
        debug_assert!(key < KEY_LIMIT, "key {key:#x} does not fit a slot");
        self.reserve_one();
        let mask = self.mask();
        let mut i = self.home(key);
        loop {
            let s = self.slots[i];
            if s.is_empty() {
                self.slots[i] = Slot {
                    head: key << KEY_SHIFT,
                    sharers: 0,
                };
                self.len += 1;
                return (i, true);
            }
            if s.key() == key {
                return (i, false);
            }
            i = (i + 1) & mask;
        }
    }

    /// Removes the entry at an occupied slot (backward-shift deletion, no
    /// tombstones), exactly as `U64Map::remove_slot` does.
    pub(crate) fn remove_at(&mut self, slot: SlotIdx) {
        debug_assert!(!self.slots[slot].is_empty(), "slot must be occupied");
        self.slots[slot] = Slot::EMPTY;
        self.len -= 1;
        let mask = self.mask();
        let mut hole = slot;
        let mut i = slot;
        loop {
            i = (i + 1) & mask;
            let s = self.slots[i];
            if s.is_empty() {
                break;
            }
            let home = self.home(s.key());
            let dist_from_home = i.wrapping_sub(home) & mask;
            let dist_from_hole = i.wrapping_sub(hole) & mask;
            if dist_from_home >= dist_from_hole {
                self.slots[hole] = s;
                self.slots[i] = Slot::EMPTY;
                hole = i;
            }
        }
    }

    /// The sharer mask stored at an occupied slot.
    #[inline]
    pub(crate) fn sharer_bits(&self, slot: SlotIdx) -> u64 {
        self.slots[slot].sharers
    }

    /// Replaces the sharer mask at an occupied slot.
    #[inline]
    pub(crate) fn set_sharer_bits(&mut self, slot: SlotIdx, bits: u64) {
        self.slots[slot].sharers = bits;
    }

    /// The owner recorded at an occupied slot.
    #[inline]
    pub(crate) fn owner(&self, slot: SlotIdx) -> Option<TileId> {
        let head = self.slots[slot].head;
        (head & OD_HAS_OWNER != 0).then(|| TileId::new((head & OD_OWNER_MASK) as usize))
    }

    /// Records the owner at an occupied slot, preserving the dirty flag.
    #[inline]
    pub(crate) fn set_owner(&mut self, slot: SlotIdx, owner: Option<TileId>) {
        let head = &mut self.slots[slot].head;
        *head &= !(OD_HAS_OWNER | OD_OWNER_MASK);
        if let Some(tile) = owner {
            debug_assert!(tile.index() < 64, "owner index fits the packed field");
            *head |= OD_HAS_OWNER | tile.index() as u64;
        }
    }

    /// The dirty flag at an occupied slot.
    #[inline]
    pub(crate) fn dirty(&self, slot: SlotIdx) -> bool {
        self.slots[slot].head & OD_DIRTY != 0
    }

    /// Sets the dirty flag at an occupied slot, preserving the owner.
    #[inline]
    pub(crate) fn set_dirty(&mut self, slot: SlotIdx, dirty: bool) {
        if dirty {
            self.slots[slot].head |= OD_DIRTY;
        } else {
            self.slots[slot].head &= !OD_DIRTY;
        }
    }

    /// Doubles the slot array in place when one more insert would pass a
    /// 7/8 load factor, then rehashes in place (see [`Self::place`]).
    ///
    /// Growing through `realloc` instead of into a fresh table matters for
    /// memory: the allocator can extend or remap the one slot array, where
    /// a copy left every outgrown table behind as a hole no larger table
    /// fits. On `figures --workers=2 perf`, copy-growth of these 16-byte
    /// slots peaked at 104–125 MiB over 17 runs, in-place growth at
    /// 89–91 MiB.
    fn reserve_one(&mut self) {
        if (self.len + 1) * 8 <= self.slots.len() * 7 {
            return;
        }
        let old = self.slots.len();
        self.slots.reserve_exact(old);
        self.slots.resize(old * 2, Slot::EMPTY);
        os_hint::advise_huge_pages(self.slots.as_ptr(), old * 2 * std::mem::size_of::<Slot>());
        for s in self.slots[..old].iter_mut().filter(|s| !s.is_empty()) {
            s.head |= PENDING;
        }
        for i in 0..old {
            let s = self.slots[i];
            if !s.is_empty() && s.head & PENDING != 0 {
                self.slots[i] = Slot::EMPTY;
                self.place(s);
            }
        }
    }

    /// Places the pending entry `s` by linear probing from its home in the
    /// grown table. A pending slot on the way takes `s`, and its own entry
    /// is placed next, so a placed entry's probe run never covers a pending
    /// slot — which is what lets [`Self::reserve_one`] empty one safely.
    fn place(&mut self, mut s: Slot) {
        let mask = self.mask();
        'entry: loop {
            s.head &= !PENDING;
            let mut i = self.home(s.key());
            loop {
                let t = self.slots[i];
                if t.is_empty() {
                    self.slots[i] = s;
                    return;
                }
                if t.head & PENDING != 0 {
                    std::mem::swap(&mut self.slots[i], &mut s);
                    continue 'entry;
                }
                i = (i + 1) & mask;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct RefEntry {
        sharers: u64,
        owner: Option<TileId>,
        dirty: bool,
    }

    #[test]
    fn insert_find_remove_roundtrip() {
        let mut t = EntryTable::with_capacity(4);
        assert_eq!(t.len(), 0);
        assert_eq!(t.find(7), None);
        let (slot, inserted) = t.get_or_insert(7);
        assert!(inserted);
        assert_eq!(t.sharer_bits(slot), 0);
        assert_eq!(t.owner(slot), None);
        assert!(!t.dirty(slot));

        t.set_sharer_bits(slot, 0b1010);
        t.set_owner(slot, Some(TileId::new(3)));
        t.set_dirty(slot, true);
        let (again, inserted) = t.get_or_insert(7);
        assert!(!inserted);
        assert_eq!(again, slot);
        assert_eq!(t.sharer_bits(slot), 0b1010);
        assert_eq!(t.owner(slot), Some(TileId::new(3)));
        assert!(t.dirty(slot));

        // Owner and dirty updates preserve each other.
        t.set_owner(slot, Some(TileId::new(63)));
        assert!(t.dirty(slot));
        t.set_dirty(slot, false);
        assert_eq!(t.owner(slot), Some(TileId::new(63)));
        t.set_owner(slot, None);
        assert_eq!(t.owner(slot), None);

        t.remove_at(t.find(7).unwrap());
        assert_eq!(t.find(7), None);
        assert_eq!(t.len(), 0);
        t.prefetch(7); // hint path never panics

        // Four entries share each host cache line, none straddles one.
        assert_eq!(std::mem::size_of::<Slot>(), 16);
        assert_eq!(std::mem::align_of::<Slot>(), 16);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut t = EntryTable::with_capacity(2);
        for k in 0..2_000u64 {
            let (slot, inserted) = t.get_or_insert(k * 977);
            assert!(inserted);
            t.set_sharer_bits(slot, k);
        }
        assert_eq!(t.len(), 2_000);
        for k in 0..2_000u64 {
            let slot = t.find(k * 977).expect("key survived growth");
            assert_eq!(t.sharer_bits(slot), k);
        }
    }

    /// Randomized differential test against a `HashMap` reference: the same
    /// operation mix over a tiny key universe (forcing shared probe chains
    /// and wrap-around backward shifts) must match exactly. It runs twice:
    /// near zero, and just below [`KEY_LIMIT`], where a key fills all 48 bits
    /// beside the owner/dirty bits and the top key packs to everything but
    /// the low 16 bits of the empty marker.
    #[test]
    fn randomized_operations_match_reference() {
        for (seed, base) in [(0xD1AB10, 0), (0xD1AB11, KEY_LIMIT - 300)] {
            match_reference(seed, base);
        }
    }

    fn match_reference(seed: u64, base: u64) {
        let owners = [None, Some(TileId::new(0)), Some(TileId::new(63))];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ours = EntryTable::with_capacity(8);
        let mut reference: HashMap<u64, RefEntry> = HashMap::new();
        for step in 0..50_000u64 {
            let key = base + rng.gen_range(0..300u64);
            match rng.gen_range(0..10) {
                0..=5 => {
                    let (slot, inserted) = ours.get_or_insert(key);
                    let fresh = !reference.contains_key(&key);
                    assert_eq!(inserted, fresh, "step {step}");
                    let entry = RefEntry {
                        sharers: step,
                        owner: match rng.gen_range(0..4) {
                            3 => Some(TileId::new((step % 64) as usize)),
                            i => owners[i],
                        },
                        dirty: rng.gen_range(0..2) == 0,
                    };
                    ours.set_sharer_bits(slot, entry.sharers);
                    ours.set_owner(slot, entry.owner);
                    ours.set_dirty(slot, entry.dirty);
                    reference.insert(key, entry);
                }
                6..=8 => {
                    let ref_removed = reference.remove(&key);
                    match ours.find(key) {
                        Some(slot) => {
                            assert!(ref_removed.is_some(), "step {step}");
                            ours.remove_at(slot);
                        }
                        None => assert!(ref_removed.is_none(), "step {step}"),
                    }
                }
                _ => match ours.find(key) {
                    Some(slot) => {
                        let e = reference.get(&key).expect("reference agrees");
                        assert_eq!(ours.sharer_bits(slot), e.sharers);
                        assert_eq!(ours.owner(slot), e.owner);
                        assert_eq!(ours.dirty(slot), e.dirty);
                    }
                    None => assert!(!reference.contains_key(&key)),
                },
            }
            assert_eq!(ours.len(), reference.len());
        }
        assert_eq!(
            ours.slots.iter().filter(|s| !s.is_empty()).count(),
            reference.len(),
            "no occupied slot reads as empty, and no empty one as occupied"
        );
        for (&key, e) in &reference {
            let slot = ours.find(key).expect("every reference key present");
            assert_eq!(ours.slots[slot].key(), key);
            assert_eq!(ours.sharer_bits(slot), e.sharers);
            assert_eq!(ours.owner(slot), e.owner);
            assert_eq!(ours.dirty(slot), e.dirty);
        }
    }
}
