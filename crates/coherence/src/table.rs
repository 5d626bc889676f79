//! The [`Directory`]'s entry: one 16-byte slot of the shared open-addressed
//! table (`rnuca_types::index_map::RawTable`) per tracked block.
//!
//! * `head`: the block number shifted left by 16, with the owner tile and
//!   dirty flag in the low 16 bits; all ones marks an empty slot;
//! * `sharers`: the 64-bit sharer mask.
//!
//! Slots are 16-byte aligned, so four share a host cache line and a probe,
//! its mask and its owner bits never straddle one: a hit, insert or removal
//! costs one random host miss, and a prefetch pulls in the whole entry.
//!
//! Keys must be below [`KEY_LIMIT`] (2^48) to fit beside the owner bits. The
//! simulated physical address is 42 bits wide, so block numbers stay below
//! 2^36; [`Directory`] asserts the bound before it stores a key. The largest
//! packed `head` of a real entry, `(2^48 - 1) << 16 | 0xC03F`, never equals
//! the all-ones empty marker.
//!
//! [`Directory`]: crate::directory::Directory

use rnuca_types::ids::TileId;
use rnuca_types::index_map::{RawTable, TableSlot};

/// Keys (block numbers) must be below this to fit a slot's `head`.
pub(crate) const KEY_LIMIT: u64 = 1 << 48;

/// How far a key is shifted in `head`, above the owner/dirty bits.
const KEY_SHIFT: u32 = 16;

/// `head` of an empty slot. No real entry packs to it: the owner/dirty bits
/// never set bits 6..14.
const EMPTY_HEAD: u64 = u64::MAX;

/// `head` bit 15: the block is dirty on chip.
const OD_DIRTY: u64 = 1 << 15;
/// `head` bit 14: the owner field is meaningful.
const OD_HAS_OWNER: u64 = 1 << 14;
/// `head` bits 0..6: the owner's tile index (0..64).
const OD_OWNER_MASK: u64 = 0x3F;

/// The entry store: [`Entry`] slots keyed by block number.
pub(crate) type EntryTable = RawTable<Entry>;

/// One directory entry: its key and owner/dirty bits, then its sharer mask.
#[repr(C, align(16))]
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry {
    head: u64,
    sharers: u64,
}

impl TableSlot for Entry {
    const EMPTY: Entry = Entry {
        head: EMPTY_HEAD,
        sharers: 0,
    };

    #[inline]
    fn key(&self) -> Option<u64> {
        (self.head != EMPTY_HEAD).then_some(self.head >> KEY_SHIFT)
    }
}

impl Entry {
    /// The entry of a newly tracked block: no sharers, no owner, clean.
    #[inline]
    pub(crate) fn new(key: u64) -> Entry {
        debug_assert!(key < KEY_LIMIT, "key {key:#x} does not fit a slot");
        Entry {
            head: key << KEY_SHIFT,
            sharers: 0,
        }
    }

    /// The sharer mask.
    #[inline]
    pub(crate) fn sharer_bits(&self) -> u64 {
        self.sharers
    }

    /// Replaces the sharer mask.
    #[inline]
    pub(crate) fn set_sharer_bits(&mut self, bits: u64) {
        self.sharers = bits;
    }

    /// The recorded owner.
    #[inline]
    pub(crate) fn owner(&self) -> Option<TileId> {
        (self.head & OD_HAS_OWNER != 0).then(|| TileId::new((self.head & OD_OWNER_MASK) as usize))
    }

    /// Records the owner, preserving the dirty flag.
    #[inline]
    pub(crate) fn set_owner(&mut self, owner: Option<TileId>) {
        self.head &= !(OD_HAS_OWNER | OD_OWNER_MASK);
        if let Some(tile) = owner {
            debug_assert!(tile.index() < 64, "owner index fits the packed field");
            self.head |= OD_HAS_OWNER | tile.index() as u64;
        }
    }

    /// The dirty flag.
    #[inline]
    pub(crate) fn dirty(&self) -> bool {
        self.head & OD_DIRTY != 0
    }

    /// Sets the dirty flag, preserving the owner.
    #[inline]
    pub(crate) fn set_dirty(&mut self, dirty: bool) {
        if dirty {
            self.head |= OD_DIRTY;
        } else {
            self.head &= !OD_DIRTY;
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
        let (slot, inserted) = t.find_or_insert(7, || Entry::new(7));
        assert!(inserted);
        let e = t.slot_mut(slot);
        assert_eq!(e.sharer_bits(), 0);
        assert_eq!(e.owner(), None);
        assert!(!e.dirty());

        e.set_sharer_bits(0b1010);
        e.set_owner(Some(TileId::new(3)));
        e.set_dirty(true);
        let (again, inserted) = t.find_or_insert(7, || unreachable!("key exists"));
        assert!(!inserted);
        assert_eq!(again, slot);
        let e = t.slot_mut(slot);
        assert_eq!(e.sharer_bits(), 0b1010);
        assert_eq!(e.owner(), Some(TileId::new(3)));
        assert!(e.dirty());

        // Owner and dirty updates preserve each other.
        e.set_owner(Some(TileId::new(63)));
        assert!(e.dirty());
        e.set_dirty(false);
        assert_eq!(e.owner(), Some(TileId::new(63)));
        e.set_owner(None);
        assert_eq!(e.owner(), None);

        t.remove_at(t.find(7).unwrap());
        assert_eq!(t.find(7), None);
        assert_eq!(t.len(), 0);
        t.prefetch(7); // hint path never panics

        // Four entries share each host cache line, none straddles one.
        assert_eq!(std::mem::size_of::<Entry>(), 16);
        assert_eq!(std::mem::align_of::<Entry>(), 16);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut t = EntryTable::with_capacity(2);
        for k in 0..2_000u64 {
            let (slot, inserted) = t.find_or_insert(k * 977, || Entry::new(k * 977));
            assert!(inserted);
            t.slot_mut(slot).set_sharer_bits(k);
        }
        assert_eq!(t.len(), 2_000);
        for k in 0..2_000u64 {
            let slot = t.find(k * 977).expect("key survived growth");
            assert_eq!(t.slot(slot).sharer_bits(), k);
        }
    }

    /// Randomized differential test against a `HashMap` reference: the same
    /// operation mix over a small but widening key universe (forcing shared
    /// probe chains, wrap-around backward shifts, and repeated in-place
    /// doubling from the smallest table) must match exactly. It runs twice:
    /// counting up from zero, and counting down from `KEY_LIMIT - 1`, where
    /// a key fills all 48 bits beside the owner/dirty bits and the top key
    /// packs to everything but the low 16 bits of the empty marker.
    #[test]
    fn randomized_operations_match_reference() {
        match_reference(0xD1AB10, |offset| offset);
        match_reference(0xD1AB11, |offset| KEY_LIMIT - 1 - offset);
    }

    fn match_reference(seed: u64, key_at: fn(u64) -> u64) {
        let owners = [None, Some(TileId::new(0)), Some(TileId::new(63))];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ours = EntryTable::with_capacity(8);
        let mut reference: HashMap<u64, RefEntry> = HashMap::new();
        let mut growths = 0;
        for step in 0..50_000u64 {
            let key = key_at(rng.gen_range(0..16 + step / 8));
            let slots = ours.capacity_slots();
            match rng.gen_range(0..10) {
                0..=5 => {
                    let (slot, inserted) = ours.find_or_insert(key, || Entry::new(key));
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
                    let e = ours.slot_mut(slot);
                    e.set_sharer_bits(entry.sharers);
                    e.set_owner(entry.owner);
                    e.set_dirty(entry.dirty);
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
                        let s = ours.slot(slot);
                        assert_eq!(s.sharer_bits(), e.sharers);
                        assert_eq!(s.owner(), e.owner);
                        assert_eq!(s.dirty(), e.dirty);
                    }
                    None => assert!(!reference.contains_key(&key)),
                },
            }
            growths += usize::from(ours.capacity_slots() > slots);
            assert_eq!(ours.len(), reference.len());
        }
        assert!(growths >= 6, "only {growths} doublings");
        assert_eq!(
            ours.iter().count(),
            reference.len(),
            "no occupied slot reads as empty, and no empty one as occupied"
        );
        for (&key, e) in &reference {
            let slot = ours.find(key).expect("every reference key present");
            let s = ours.slot(slot);
            assert_eq!(s.key(), Some(key));
            assert_eq!(s.sharer_bits(), e.sharers);
            assert_eq!(s.owner(), e.owner);
            assert_eq!(s.dirty(), e.dirty);
        }
    }
}
