//! An open-addressed hash map keyed by `u64` — the simulator's hot-path map.
//!
//! Every per-access lookup in the simulator is keyed by an address
//! representation that is already a small `u64` (block numbers, page
//! numbers). `std::collections::HashMap` spends most of such a lookup in
//! SipHash and in DoS-resistance machinery that a deterministic simulator
//! does not need. [`U64Map`] replaces it on those paths: Fibonacci
//! multiplicative hashing, linear probing over a power-of-two slot array,
//! and backward-shift deletion (no tombstones), so probe chains stay short
//! for the life of the map.
//!
//! Unlike `HashMap`, iteration order is *deterministic*: it depends only on
//! the sequence of operations performed, never on a per-instance random
//! state, which is the property the engine's reproducibility guarantees
//! lean on.

use std::fmt;

/// The multiplier of Fibonacci hashing: `2^64 / phi`, rounded to odd.
const FIB_MULT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Smallest number of slots a non-empty map allocates.
const MIN_SLOTS: usize = 16;

/// Opaque handle to an occupied slot of a [`U64Map`], returned by
/// [`U64Map::find_slot`]. Valid until the next insertion or removal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot(usize);

/// An open-addressed, linear-probing hash map from `u64` keys to `V`.
///
/// # Example
///
/// ```
/// use rnuca_types::index_map::U64Map;
///
/// let mut map: U64Map<&str> = U64Map::new();
/// map.insert(7, "seven");
/// assert_eq!(map.get(7), Some(&"seven"));
/// assert_eq!(map.remove(7), Some("seven"));
/// assert!(map.is_empty());
/// ```
#[derive(Clone)]
pub struct U64Map<V> {
    /// Slot array, always a power of two long (or empty before first insert).
    slots: Vec<Option<(u64, V)>>,
    /// Number of occupied slots.
    len: usize,
}

impl<V> U64Map<V> {
    /// Creates an empty map (no allocation until the first insert).
    pub fn new() -> Self {
        U64Map {
            slots: Vec::new(),
            len: 0,
        }
    }

    /// Creates a map pre-sized to hold `capacity` entries without growing.
    pub fn with_capacity(capacity: usize) -> Self {
        if capacity == 0 {
            return Self::new();
        }
        let slots = slots_for(capacity);
        U64Map {
            slots: new_slot_vec(slots),
            len: 0,
        }
    }

    /// Number of entries in the map.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of slots currently allocated (diagnostics and tests).
    pub fn capacity_slots(&self) -> usize {
        self.slots.len()
    }

    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    fn home(&self, key: u64) -> usize {
        // Fibonacci hashing: multiply spreads low-entropy keys across the
        // high bits; shift keeps exactly log2(slots) of them.
        let hash = key.wrapping_mul(FIB_MULT);
        (hash >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// Hints the CPU to pull the probe chain's first cache line for `key`
    /// into cache. Purely a performance hint — no architectural effect —
    /// used by the simulator's batch drivers, which know the next several
    /// keys in advance and overlap their (otherwise serialized) misses.
    #[inline]
    pub fn prefetch(&self, key: u64) {
        if self.slots.is_empty() {
            return;
        }
        let i = self.home(key);
        prefetch_read(&self.slots[i]);
    }

    /// The slot index holding `key`, if present.
    fn find(&self, key: u64) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.mask();
        let mut i = self.home(key);
        loop {
            match &self.slots[i] {
                None => return None,
                Some((k, _)) if *k == key => return Some(i),
                Some(_) => i = (i + 1) & mask,
            }
        }
    }

    /// Looks up a key.
    pub fn get(&self, key: u64) -> Option<&V> {
        self.find(key)
            .map(|i| &self.slots[i].as_ref().expect("found slot is occupied").1)
    }

    /// Locates a key, returning an opaque slot handle that gives the caller
    /// read, write, and remove access without re-probing — the map-level
    /// analogue of the cache array's entry handles. The handle is
    /// invalidated by any subsequent insertion or removal.
    pub fn find_slot(&self, key: u64) -> Option<Slot> {
        self.find(key).map(Slot)
    }

    /// The value of a slot located by [`U64Map::find_slot`].
    pub fn slot_value(&self, slot: Slot) -> &V {
        &self.slots[slot.0]
            .as_ref()
            .expect("slot handle is occupied")
            .1
    }

    /// Mutable access to the value of a slot located by [`U64Map::find_slot`].
    pub fn slot_value_mut(&mut self, slot: Slot) -> &mut V {
        &mut self.slots[slot.0]
            .as_mut()
            .expect("slot handle is occupied")
            .1
    }

    /// Removes the entry in a slot located by [`U64Map::find_slot`],
    /// skipping the probe [`U64Map::remove`] would repeat. Uses the same
    /// backward-shift deletion, so no tombstones accumulate.
    pub fn remove_slot(&mut self, slot: Slot) -> V {
        let (_, value) = self.slots[slot.0].take().expect("slot handle is occupied");
        self.len -= 1;
        self.backward_shift(slot.0);
        value
    }

    /// Looks up a key mutably.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        let i = self.find(key)?;
        Some(&mut self.slots[i].as_mut().expect("found slot is occupied").1)
    }

    /// Returns `true` if the key is present.
    pub fn contains_key(&self, key: u64) -> bool {
        self.find(key).is_some()
    }

    /// Inserts a key/value pair, returning the previous value if the key was
    /// already present.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        self.reserve_one();
        let mask = self.mask();
        let mut i = self.home(key);
        loop {
            match &mut self.slots[i] {
                slot @ None => {
                    *slot = Some((key, value));
                    self.len += 1;
                    return None;
                }
                Some((k, v)) if *k == key => {
                    return Some(std::mem::replace(v, value));
                }
                Some(_) => i = (i + 1) & mask,
            }
        }
    }

    /// Returns a mutable reference to the value for `key`, inserting
    /// `default()` first if the key is absent. The flag reports whether the
    /// entry was just created — a single-probe replacement for the
    /// get-then-insert double lookup.
    pub fn get_or_insert_with(&mut self, key: u64, default: impl FnOnce() -> V) -> (&mut V, bool) {
        self.reserve_one();
        let mask = self.mask();
        let mut i = self.home(key);
        let inserted = loop {
            match &self.slots[i] {
                None => {
                    self.slots[i] = Some((key, default()));
                    self.len += 1;
                    break true;
                }
                Some((k, _)) if *k == key => break false,
                Some(_) => i = (i + 1) & mask,
            }
        };
        (
            &mut self.slots[i]
                .as_mut()
                .expect("slot was just filled or matched")
                .1,
            inserted,
        )
    }

    /// Removes a key, returning its value if it was present.
    ///
    /// Uses backward-shift deletion: subsequent entries of the probe chain
    /// are moved up so no tombstones accumulate and lookups never slow down
    /// as the map churns.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let hole = self.find(key)?;
        let (_, value) = self.slots[hole].take().expect("found slot is occupied");
        self.len -= 1;
        self.backward_shift(hole);
        Some(value)
    }

    /// Closes the probe-chain hole left at `hole` by a removal, moving
    /// subsequent entries of the chain up so no tombstones accumulate.
    fn backward_shift(&mut self, mut hole: usize) {
        let mask = self.mask();
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let Some((k, _)) = &self.slots[i] else { break };
            // The entry at `i` may move into the hole only if its home
            // position lies cyclically at or before the hole — i.e. its
            // probe distance reaches past the hole.
            let home = self.home(*k);
            let dist_from_home = i.wrapping_sub(home) & mask;
            let dist_from_hole = i.wrapping_sub(hole) & mask;
            if dist_from_home >= dist_from_hole {
                self.slots[hole] = self.slots[i].take();
                hole = i;
            }
        }
    }

    /// Keeps only the entries for which the predicate returns `true`.
    ///
    /// Rebuilds the table in place (O(slots)); meant for periodic sweeps,
    /// not per-access paths.
    pub fn retain(&mut self, mut pred: impl FnMut(u64, &mut V) -> bool) {
        if self.slots.is_empty() {
            return;
        }
        let slots = self.slots.len();
        let old = std::mem::replace(&mut self.slots, new_slot_vec(slots));
        self.len = 0;
        for (k, mut v) in old.into_iter().flatten() {
            if pred(k, &mut v) {
                self.insert(k, v);
            }
        }
    }

    /// Removes every entry, keeping the allocation.
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            *slot = None;
        }
        self.len = 0;
    }

    /// Iterates over the entries in slot order (deterministic for a given
    /// operation history).
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.slots
            .iter()
            .filter_map(|s| s.as_ref().map(|(k, v)| (*k, v)))
    }

    /// Iterates over the values in slot order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.slots.iter().filter_map(|s| s.as_ref().map(|(_, v)| v))
    }

    /// Grows the slot array if one more insert would push the load factor
    /// past 7/8.
    fn reserve_one(&mut self) {
        if self.slots.is_empty() {
            self.slots = new_slot_vec(MIN_SLOTS);
            return;
        }
        if (self.len + 1) * 8 > self.slots.len() * 7 {
            let doubled = self.slots.len() * 2;
            let old = std::mem::replace(&mut self.slots, new_slot_vec(doubled));
            self.len = 0;
            for (k, v) in old.into_iter().flatten() {
                self.insert(k, v);
            }
        }
    }
}

impl<V> Default for U64Map<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: fmt::Debug> fmt::Debug for U64Map<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Issues a read prefetch for the cache line holding `value` on targets
/// that support it; a no-op elsewhere. Never has an architectural effect.
#[inline]
pub fn prefetch_read<T>(value: &T) {
    #[cfg(target_arch = "x86_64")]
    unsafe {
        // SAFETY: prefetch has no memory effects; any address is allowed.
        std::arch::x86_64::_mm_prefetch(
            std::ptr::from_ref(value).cast::<i8>(),
            std::arch::x86_64::_MM_HINT_T0,
        );
    }
    #[cfg(target_arch = "aarch64")]
    {
        // Stable Rust exposes no aarch64 prefetch intrinsic; reading the
        // reference is not equivalent (it would be an actual load), so this
        // is a deliberate no-op there.
        let _ = value;
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        let _ = value;
    }
}

/// Slot count for a requested entry capacity: next power of two above
/// `capacity * 8/7`, at least [`MIN_SLOTS`].
fn slots_for(capacity: usize) -> usize {
    (capacity * 8 / 7 + 1).next_power_of_two().max(MIN_SLOTS)
}

fn new_slot_vec<V>(slots: usize) -> Vec<Option<(u64, V)>> {
    let mut v: Vec<Option<(u64, V)>> = Vec::with_capacity(slots);
    // Hint huge-page backing before first touch: large maps (directory
    // entry tables, page tables) are probed at random, and 4 KB pages put a
    // dTLB miss on nearly every probe. Advising on the untouched capacity
    // lets the kernel fault the slots in as huge pages as `resize_with`
    // initializes them.
    crate::os_hint::advise_huge_pages(v.as_ptr(), slots * std::mem::size_of::<Option<(u64, V)>>());
    v.resize_with(slots, || None);
    v
}

/// Layout-exact equality: two maps compare equal only when their slot
/// arrays match position-for-position (same probe chains, same tombstone
/// history resolution), which is what a `clone` preserves. Maps holding equal key→value sets in different slot layouts
/// compare *unequal* — this is deliberate.
impl<V: PartialEq> PartialEq for U64Map<V> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.slots == other.slots
    }
}

impl<V: Eq> Eq for U64Map<V> {}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m: U64Map<u32> = U64Map::new();
        assert!(m.is_empty());
        assert_eq!(m.get(1), None);
        assert_eq!(m.insert(1, 10), None);
        assert_eq!(m.insert(2, 20), None);
        assert_eq!(m.insert(1, 11), Some(10));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(1), Some(&11));
        assert!(m.contains_key(2));
        assert_eq!(m.remove(1), Some(11));
        assert_eq!(m.remove(1), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut m: U64Map<u32> = U64Map::new();
        m.insert(9, 1);
        *m.get_mut(9).unwrap() += 5;
        assert_eq!(m.get(9), Some(&6));
        assert_eq!(m.get_mut(10), None);
    }

    #[test]
    fn get_or_insert_with_probes_once() {
        let mut m: U64Map<String> = U64Map::new();
        let (v, inserted) = m.get_or_insert_with(3, || "fresh".to_string());
        assert!(inserted);
        v.push('!');
        let (v, inserted) = m.get_or_insert_with(3, || unreachable!("key exists"));
        assert!(!inserted);
        assert_eq!(v, "fresh!");
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut m: U64Map<usize> = U64Map::with_capacity(4);
        for i in 0..1000u64 {
            m.insert(i * 977, i as usize);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(m.get(i * 977), Some(&(i as usize)));
        }
    }

    #[test]
    fn with_capacity_does_not_grow_within_budget() {
        let mut m: U64Map<u64> = U64Map::with_capacity(100);
        let slots = m.capacity_slots();
        for i in 0..100 {
            m.insert(i, i);
        }
        assert_eq!(
            m.capacity_slots(),
            slots,
            "no growth within the requested capacity"
        );
    }

    #[test]
    fn retain_keeps_matching_entries() {
        let mut m: U64Map<u64> = U64Map::new();
        for i in 0..100 {
            m.insert(i, i);
        }
        m.retain(|k, _| k % 3 == 0);
        assert_eq!(m.len(), 34);
        assert!(m.iter().all(|(k, _)| k % 3 == 0));
        assert_eq!(m.values().copied().max(), Some(99));
    }

    #[test]
    fn clear_keeps_allocation() {
        let mut m: U64Map<u8> = U64Map::with_capacity(50);
        for i in 0..50 {
            m.insert(i, 0);
        }
        let slots = m.capacity_slots();
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.capacity_slots(), slots);
        assert_eq!(m.get(3), None);
    }

    #[test]
    fn zero_key_and_clustered_keys_work() {
        // Block numbers cluster densely at the low end; the map must not
        // degrade or collide them with the empty-slot representation.
        let mut m: U64Map<u64> = U64Map::new();
        for i in 0..512 {
            m.insert(i, i + 1);
        }
        assert_eq!(m.get(0), Some(&1));
        assert_eq!(m.len(), 512);
        for i in 0..512 {
            assert_eq!(m.remove(i), Some(i + 1));
        }
        assert!(m.is_empty());
    }

    #[test]
    fn extreme_keys_are_ordinary_keys() {
        let mut m: U64Map<u8> = U64Map::new();
        m.insert(u64::MAX, 1);
        m.insert(u64::MIN, 2);
        assert_eq!(m.get(u64::MAX), Some(&1));
        assert_eq!(m.remove(u64::MAX), Some(1));
        assert_eq!(m.get(u64::MIN), Some(&2));
    }

    #[test]
    fn slot_handles_read_write_and_remove_without_reprobe() {
        let mut m: U64Map<u32> = U64Map::new();
        for i in 0..64 {
            m.insert(i * 31, i as u32);
        }
        assert!(m.find_slot(999).is_none());
        let slot = m.find_slot(5 * 31).expect("key present");
        assert_eq!(m.slot_value(slot), &5);
        *m.slot_value_mut(slot) = 50;
        assert_eq!(m.get(5 * 31), Some(&50));
        assert_eq!(m.remove_slot(slot), 50);
        assert_eq!(m.get(5 * 31), None);
        assert_eq!(m.len(), 63);
        // Backward-shift after a slot removal keeps every other key reachable.
        for i in 0..64u64 {
            if i != 5 {
                assert!(m.contains_key(i * 31), "key {i} lost after slot removal");
            }
        }
    }

    #[test]
    fn debug_formats_as_a_map() {
        let mut m: U64Map<u8> = U64Map::new();
        m.insert(1, 2);
        assert_eq!(format!("{m:?}"), "{1: 2}");
    }

    /// The load-bearing test: a randomized operation mix (insert, remove,
    /// lookup, occasional retain) must match `std::collections::HashMap`
    /// exactly. This exercises backward-shift deletion across wrap-around
    /// probe chains, which is where open-addressed maps classically go
    /// wrong.
    #[test]
    fn randomized_operations_match_std_hashmap() {
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        let mut ours: U64Map<u64> = U64Map::new();
        let mut reference: HashMap<u64, u64> = HashMap::new();
        for step in 0..60_000u64 {
            // A small key universe forces constant collisions and deletions
            // inside shared probe chains.
            let key = rng.gen_range(0..400u64);
            match rng.gen_range(0..10) {
                0..=4 => {
                    assert_eq!(ours.insert(key, step), reference.insert(key, step));
                }
                5..=7 => {
                    // Alternate between keyed removal and slot-handle removal
                    // so backward-shift is exercised through both entry points.
                    let removed = if step % 2 == 0 {
                        ours.remove(key)
                    } else {
                        ours.find_slot(key).map(|s| ours.remove_slot(s))
                    };
                    assert_eq!(removed, reference.remove(&key));
                }
                8 => {
                    assert_eq!(ours.get(key), reference.get(&key));
                    assert_eq!(ours.contains_key(key), reference.contains_key(&key));
                }
                _ => {
                    let (v, inserted) = ours.get_or_insert_with(key, || step);
                    let prev_len = reference.len();
                    let rv = reference.entry(key).or_insert(step);
                    assert_eq!(*v, *rv);
                    assert_eq!(inserted, reference.len() > prev_len);
                }
            }
            assert_eq!(ours.len(), reference.len());
            if step % 10_000 == 0 {
                ours.retain(|k, _| k % 7 != 3);
                reference.retain(|k, _| k % 7 != 3);
                assert_eq!(ours.len(), reference.len());
            }
        }
        // Final full-content comparison.
        let mut ours_sorted: Vec<(u64, u64)> = ours.iter().map(|(k, v)| (k, *v)).collect();
        ours_sorted.sort_unstable();
        let mut ref_sorted: Vec<(u64, u64)> = reference.iter().map(|(k, v)| (*k, *v)).collect();
        ref_sorted.sort_unstable();
        assert_eq!(ours_sorted, ref_sorted);
    }
}
