//! Structure-of-arrays slot store backing the [`Directory`]'s per-block
//! entries.
//!
//! The directory is the largest randomly-probed structure of the private/ASR
//! designs: at 64 tiles it tracks ~a million blocks, and every local L2 miss,
//! store, and eviction probes it. A generic map stores each entry as a tagged
//! `(key, value)` slot — 32 bytes once the entry's sharer mask, owner, and
//! dirty flag are padded — so the probe path drags a 4-byte-per-useful-bit
//! working set through the host's caches. This table splits the entry into
//! three parallel arrays instead:
//!
//! * `keys` — 8 bytes per slot, `u64::MAX` marking an empty slot (block
//!   numbers are bounded by the 42-bit physical address space, so the
//!   sentinel can never collide with a real key);
//! * `sharers` — the 64-bit sharer mask;
//! * `owner_dirty` — the owner tile and dirty flag packed into 16 bits.
//!
//! A probe that misses — the common case for streaming workloads, where most
//! requested blocks are tracked by nobody — now touches *only* the keys
//! array, a quarter of the footprint, and eight slots share each cache line.
//! Hashing, linear probing, and backward-shift deletion mirror
//! `rnuca_types::index_map::U64Map`, whose randomized differential tests
//! pinned the algorithm down; the table adds the same operations over the
//! split layout and is itself differentially tested against a `HashMap`
//! reference below.
//!
//! [`Directory`]: crate::directory::Directory

use rnuca_types::ids::TileId;
use rnuca_types::os_hint;

/// Sentinel key marking an empty slot. Real keys are block numbers, bounded
/// well below this by the simulated physical address width.
const EMPTY_KEY: u64 = u64::MAX;

/// Fibonacci-hash multiplier (`2^64 / phi`, odd), as in `U64Map`.
const FIB_MULT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Smallest slot-array size.
const MIN_SLOTS: usize = 16;

/// `owner_dirty` bit 15: the block is dirty on chip.
const OD_DIRTY: u16 = 1 << 15;
/// `owner_dirty` bit 14: the owner field is meaningful.
const OD_HAS_OWNER: u16 = 1 << 14;
/// Low bits of `owner_dirty`: the owner's tile index (0..64).
const OD_OWNER_MASK: u16 = 0x3F;

/// Index of an occupied slot; valid until the next insertion or removal.
pub(crate) type SlotIdx = usize;

/// The structure-of-arrays entry store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct EntryTable {
    keys: Vec<u64>,
    sharers: Vec<u64>,
    owner_dirty: Vec<u16>,
    len: usize,
}

impl EntryTable {
    /// A table pre-sized for `capacity` entries.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        let slots = (capacity * 8 / 7 + 1).next_power_of_two().max(MIN_SLOTS);
        Self::with_slots(slots)
    }

    fn with_slots(slots: usize) -> Self {
        let keys = alloc_hinted(slots, EMPTY_KEY);
        let sharers = alloc_hinted(slots, 0u64);
        let owner_dirty = alloc_hinted(slots, 0u16);
        EntryTable {
            keys,
            sharers,
            owner_dirty,
            len: 0,
        }
    }

    /// Number of entries stored.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    fn mask(&self) -> usize {
        self.keys.len() - 1
    }

    fn home(&self, key: u64) -> usize {
        let hash = key.wrapping_mul(FIB_MULT);
        (hash >> (64 - self.keys.len().trailing_zeros())) as usize
    }

    /// Pulls the probe chain's first keys line toward the CPU (performance
    /// hint only). The parallel value lines are deliberately not touched:
    /// most probes miss and never read them.
    #[inline]
    pub(crate) fn prefetch(&self, key: u64) {
        rnuca_types::index_map::prefetch_read(&self.keys[self.home(key)]);
    }

    /// The slot holding `key`, if present.
    #[inline]
    pub(crate) fn find(&self, key: u64) -> Option<SlotIdx> {
        debug_assert_ne!(key, EMPTY_KEY, "sentinel key cannot be stored");
        let mask = self.mask();
        let mut i = self.home(key);
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(i);
            }
            if k == EMPTY_KEY {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// The slot for `key`, inserting an empty entry (no sharers, no owner,
    /// clean) if absent. The flag reports whether the entry was created.
    pub(crate) fn get_or_insert(&mut self, key: u64) -> (SlotIdx, bool) {
        debug_assert_ne!(key, EMPTY_KEY, "sentinel key cannot be stored");
        self.reserve_one();
        let mask = self.mask();
        let mut i = self.home(key);
        loop {
            let k = self.keys[i];
            if k == key {
                return (i, false);
            }
            if k == EMPTY_KEY {
                self.keys[i] = key;
                self.sharers[i] = 0;
                self.owner_dirty[i] = 0;
                self.len += 1;
                return (i, true);
            }
            i = (i + 1) & mask;
        }
    }

    /// Removes the entry at an occupied slot (backward-shift deletion, no
    /// tombstones), exactly as `U64Map::remove_slot` does but over the three
    /// parallel arrays.
    pub(crate) fn remove_at(&mut self, slot: SlotIdx) {
        debug_assert_ne!(self.keys[slot], EMPTY_KEY, "slot must be occupied");
        self.keys[slot] = EMPTY_KEY;
        self.len -= 1;
        let mask = self.mask();
        let mut hole = slot;
        let mut i = slot;
        loop {
            i = (i + 1) & mask;
            let k = self.keys[i];
            if k == EMPTY_KEY {
                break;
            }
            let home = self.home(k);
            let dist_from_home = i.wrapping_sub(home) & mask;
            let dist_from_hole = i.wrapping_sub(hole) & mask;
            if dist_from_home >= dist_from_hole {
                self.keys[hole] = k;
                self.sharers[hole] = self.sharers[i];
                self.owner_dirty[hole] = self.owner_dirty[i];
                self.keys[i] = EMPTY_KEY;
                hole = i;
            }
        }
    }

    /// The sharer mask stored at an occupied slot.
    #[inline]
    pub(crate) fn sharer_bits(&self, slot: SlotIdx) -> u64 {
        self.sharers[slot]
    }

    /// Replaces the sharer mask at an occupied slot.
    #[inline]
    pub(crate) fn set_sharer_bits(&mut self, slot: SlotIdx, bits: u64) {
        self.sharers[slot] = bits;
    }

    /// The owner recorded at an occupied slot.
    #[inline]
    pub(crate) fn owner(&self, slot: SlotIdx) -> Option<TileId> {
        let od = self.owner_dirty[slot];
        (od & OD_HAS_OWNER != 0).then(|| TileId::new((od & OD_OWNER_MASK) as usize))
    }

    /// Records the owner at an occupied slot, preserving the dirty flag.
    #[inline]
    pub(crate) fn set_owner(&mut self, slot: SlotIdx, owner: Option<TileId>) {
        let od = &mut self.owner_dirty[slot];
        *od &= OD_DIRTY;
        if let Some(tile) = owner {
            debug_assert!(tile.index() < 64, "owner index fits the packed field");
            *od |= OD_HAS_OWNER | tile.index() as u16;
        }
    }

    /// The dirty flag at an occupied slot.
    #[inline]
    pub(crate) fn dirty(&self, slot: SlotIdx) -> bool {
        self.owner_dirty[slot] & OD_DIRTY != 0
    }

    /// Sets the dirty flag at an occupied slot, preserving the owner.
    #[inline]
    pub(crate) fn set_dirty(&mut self, slot: SlotIdx, dirty: bool) {
        if dirty {
            self.owner_dirty[slot] |= OD_DIRTY;
        } else {
            self.owner_dirty[slot] &= !OD_DIRTY;
        }
    }

    /// Grows the arrays when one more insert would pass a 7/8 load factor.
    fn reserve_one(&mut self) {
        if (self.len + 1) * 8 <= self.keys.len() * 7 {
            return;
        }
        let mut grown = Self::with_slots(self.keys.len() * 2);
        for i in 0..self.keys.len() {
            let k = self.keys[i];
            if k == EMPTY_KEY {
                continue;
            }
            let (slot, inserted) = grown.get_or_insert(k);
            debug_assert!(inserted, "keys are unique during rehash");
            grown.sharers[slot] = self.sharers[i];
            grown.owner_dirty[slot] = self.owner_dirty[i];
        }
        *self = grown;
    }
}

/// Allocates a slot array filled with `fill`, hinting huge-page backing for
/// the large tables (see [`os_hint::advise_huge_pages`]).
fn alloc_hinted<T: Copy>(slots: usize, fill: T) -> Vec<T> {
    let mut v: Vec<T> = Vec::with_capacity(slots);
    os_hint::advise_huge_pages(v.as_ptr(), slots * std::mem::size_of::<T>());
    v.resize(slots, fill);
    v
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
    /// and wrap-around backward shifts) must match exactly.
    #[test]
    fn randomized_operations_match_reference() {
        let mut rng = StdRng::seed_from_u64(0xD1AB10);
        let mut ours = EntryTable::with_capacity(8);
        let mut reference: HashMap<u64, RefEntry> = HashMap::new();
        for step in 0..50_000u64 {
            let key = rng.gen_range(0..300u64);
            match rng.gen_range(0..10) {
                0..=5 => {
                    let (slot, inserted) = ours.get_or_insert(key);
                    let fresh = !reference.contains_key(&key);
                    assert_eq!(inserted, fresh, "step {step}");
                    let entry = RefEntry {
                        sharers: step,
                        owner: Some(TileId::new((step % 64) as usize)),
                        dirty: step % 3 == 0,
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
        for (&key, e) in &reference {
            let slot = ours.find(key).expect("every reference key present");
            assert_eq!(ours.sharer_bits(slot), e.sharers);
            assert_eq!(ours.owner(slot), e.owner);
            assert_eq!(ours.dirty(slot), e.dirty);
        }
    }
}
