//! Open-addressed hash tables keyed by `u64`: the simulator's hot-path maps.
//!
//! Every per-access lookup in the simulator is keyed by an address
//! representation that is already a small `u64` (block numbers, page
//! numbers). `std::collections::HashMap` spends most of such a lookup in
//! SipHash and in DoS-resistance machinery that a deterministic simulator
//! does not need. [`RawTable`] is the one table those paths use: Fibonacci
//! multiplicative hashing, linear probing over a power-of-two slot array,
//! backward-shift deletion (no tombstones, so probe chains stay short for
//! the life of the table), and doubling past a 7/8 load. It is generic over
//! the layout of a slot ([`TableSlot`]), and there are two:
//!
//! * [`U64Map<V>`] keeps `Option<(u64, V)>` slots. It serves the L1-dirty
//!   map, the OS page table and the TLBs' page maps.
//! * The coherence directory keeps 16-byte `{ key << 16 | owner/dirty,
//!   sharers }` records, so that a probe, its sharer mask and its owner bits
//!   share one host cache line (`rnuca_coherence`'s `table` module).
//!
//! Growth and sweeps happen in place. Doubling extends the slot array
//! through `realloc`, and [`RawTable::retain`] (the L1-dirty expiry sweep)
//! empties the rejected slots; both then re-place the entries inside that
//! array, a short-lived side bitset marking those still to move. Copying
//! into a fresh array leaves each outgrown one behind as a hole no larger
//! array fits: on `figures --workers=2 perf`, copy-growth of the directory's
//! slots peaked at 104–125 MiB over 17 runs, in-place growth at 89–91 MiB.

use std::fmt;

/// The multiplier of Fibonacci hashing: `2^64 / phi`, rounded to odd.
const FIB_MULT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Smallest number of slots a non-empty table allocates.
const MIN_SLOTS: usize = 16;

/// The layout of one [`RawTable`] slot.
pub trait TableSlot {
    /// An empty slot.
    const EMPTY: Self;

    /// The key of an occupied slot, or `None` for an empty one.
    fn key(&self) -> Option<u64>;
}

/// An open-addressed, linear-probing table of `S` slots keyed by `u64`.
///
/// Slot indices are valid until the next insertion, removal or sweep.
#[derive(Debug, Clone)]
pub struct RawTable<S> {
    /// Always a power of two long, at least `MIN_SLOTS`.
    slots: Vec<S>,
    /// Number of occupied slots.
    len: usize,
}

impl<S: TableSlot> RawTable<S> {
    /// A table pre-sized to hold `capacity` entries without growing.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut table = RawTable {
            slots: Vec::new(),
            len: 0,
        };
        // The fewest slots that keep `capacity` entries under a 7/8 load.
        table.resize((capacity * 8 / 7 + 1).next_power_of_two().max(MIN_SLOTS));
        table
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of slots currently allocated (diagnostics and tests).
    pub fn capacity_slots(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        // Fibonacci hashing: multiply spreads low-entropy keys across the
        // high bits; shift keeps exactly log2(slots) of them.
        let hash = key.wrapping_mul(FIB_MULT);
        (hash >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// Hints the CPU to pull the first slot of `key`'s probe chain into
    /// cache. Purely a performance hint, used by the simulator's batch
    /// drivers, which know the next several keys in advance and overlap
    /// their (otherwise serialized) misses.
    #[inline]
    pub fn prefetch(&self, key: u64) {
        prefetch_read(&self.slots[self.home(key)]);
    }

    /// The index of the slot holding `key`, if present.
    #[inline]
    pub fn find(&self, key: u64) -> Option<usize> {
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            match self.slots[i].key() {
                None => return None,
                Some(k) if k == key => return Some(i),
                Some(_) => i = (i + 1) & mask,
            }
        }
    }

    /// The index of the slot holding `key`, filling the empty slot it
    /// belongs in with `vacant()` first if it is absent. The flag reports
    /// whether the entry was just created. Grows the table beforehand if one
    /// more entry would pass a 7/8 load.
    #[inline]
    pub fn find_or_insert(&mut self, key: u64, vacant: impl FnOnce() -> S) -> (usize, bool) {
        self.reserve_one();
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            match self.slots[i].key() {
                None => {
                    self.slots[i] = vacant();
                    debug_assert_eq!(self.slots[i].key(), Some(key), "filled slot holds its key");
                    self.len += 1;
                    return (i, true);
                }
                Some(k) if k == key => return (i, false),
                Some(_) => i = (i + 1) & mask,
            }
        }
    }

    /// The slot at index `i`.
    #[inline]
    pub fn slot(&self, i: usize) -> &S {
        &self.slots[i]
    }

    /// The slot at index `i`, mutably. The caller must not change its key.
    #[inline]
    pub fn slot_mut(&mut self, i: usize) -> &mut S {
        &mut self.slots[i]
    }

    /// Removes and returns the entry in occupied slot `i`. Backward-shift
    /// deletion moves the later entries of its probe chain up, so no
    /// tombstones accumulate and lookups never slow down as the table
    /// churns.
    pub fn remove_at(&mut self, i: usize) -> S {
        debug_assert!(self.slots[i].key().is_some(), "slot {i} must be occupied");
        let removed = std::mem::replace(&mut self.slots[i], S::EMPTY);
        self.len -= 1;
        let mask = self.slots.len() - 1;
        let (mut hole, mut j) = (i, i);
        loop {
            j = (j + 1) & mask;
            let Some(k) = self.slots[j].key() else { break };
            // The entry at `j` may move into the hole only if its home lies
            // cyclically at or before the hole, i.e. its probe distance
            // reaches past the hole.
            if j.wrapping_sub(self.home(k)) & mask >= j.wrapping_sub(hole) & mask {
                self.slots.swap(hole, j);
                hole = j;
            }
        }
        removed
    }

    /// Keeps only the entries for which `keep` returns `true`, then
    /// re-places the survivors in the same slot array (O(slots); meant for
    /// periodic sweeps, not per-access paths).
    pub fn retain(&mut self, mut keep: impl FnMut(&mut S) -> bool) {
        // A survivor can have to move only if the sweep emptied a slot
        // before it in its cluster (a run of occupied slots); the cluster
        // holding slot 0 may wrap around from the end, so its survivors are
        // all marked.
        let mut marks = Marks::new(self.slots.len());
        let mut hole = true;
        for (i, s) in self.slots.iter_mut().enumerate() {
            if s.key().is_none() {
                hole = false;
            } else if !keep(s) {
                *s = S::EMPTY;
                self.len -= 1;
                hole = true;
            } else if hole {
                marks.set(i);
            }
        }
        self.place_marked(marks, 0..self.slots.len());
    }

    /// Iterates over the occupied slots in slot order (deterministic for a
    /// given operation history).
    pub fn iter(&self) -> impl Iterator<Item = &S> {
        self.slots.iter().filter(|s| s.key().is_some())
    }

    /// Doubles the table if one more entry would pass a 7/8 load.
    #[inline]
    fn reserve_one(&mut self) {
        if (self.len + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
    }

    /// Doubles the slot array in place; out of line, so probe loops stay small.
    #[cold]
    #[inline(never)]
    fn grow(&mut self) {
        let old = self.slots.len();
        self.resize(old * 2);
        let mut marks = Marks::new(old * 2);
        for i in 0..old {
            if self.slots[i].key().is_some() {
                marks.set(i);
            }
        }
        self.place_marked(marks, (0..old).rev());
    }

    /// Extends the slot array to `slots` empty-tailed slots in place
    /// (through `realloc`), hinting huge-page backing before the new slots
    /// are first touched (see [`crate::os_hint::advise_huge_pages`]).
    fn resize(&mut self, slots: usize) {
        self.slots.reserve_exact(slots - self.slots.len());
        crate::os_hint::advise_huge_pages(self.slots.as_ptr(), slots * std::mem::size_of::<S>());
        self.slots.resize_with(slots, || S::EMPTY);
    }

    /// Re-places the marked entries, visiting their slots in `order`, each
    /// by linear probing from its home in the current slot array. An entry
    /// whose probe reaches a marked slot swaps into it, and the entry it
    /// displaced is placed next, so no placed entry's probe run ever covers
    /// a marked slot, which is what makes emptying one safe.
    ///
    /// Any order is correct; the callers pick the one that seldom swaps.
    /// After doubling an entry's home moves up (to about twice its old
    /// slot), so growth visits the old slots from the top down; after a
    /// sweep an entry's home is at or below its slot, so the sweep visits
    /// from the bottom up. Either way an entry nearly always lands in a
    /// slot already visited.
    fn place_marked(&mut self, mut marks: Marks, order: impl Iterator<Item = usize>) {
        let mask = self.slots.len() - 1;
        for start in order {
            if !marks.take(start) {
                continue;
            }
            let mut entry = std::mem::replace(&mut self.slots[start], S::EMPTY);
            let mut i = self.home(entry.key().expect("marked slots are occupied"));
            loop {
                if self.slots[i].key().is_none() {
                    self.slots[i] = entry;
                    break;
                }
                if marks.take(i) {
                    std::mem::swap(&mut self.slots[i], &mut entry);
                    i = self.home(entry.key().expect("marked slots are occupied"));
                } else {
                    i = (i + 1) & mask;
                }
            }
        }
    }
}

/// One bit per slot: the entries an in-place rehash has still to place.
struct Marks(Vec<u64>);

impl Marks {
    fn new(slots: usize) -> Self {
        Marks(vec![0; slots.div_ceil(64)])
    }

    fn set(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    /// Clears bit `i`, returning whether it was set.
    fn take(&mut self, i: usize) -> bool {
        let (word, bit) = (&mut self.0[i / 64], 1 << (i % 64));
        let set = *word & bit != 0;
        *word &= !bit;
        set
    }
}

impl<V> TableSlot for Option<(u64, V)> {
    const EMPTY: Self = None;

    #[inline]
    fn key(&self) -> Option<u64> {
        self.as_ref().map(|&(k, _)| k)
    }
}

/// Opaque handle to an occupied slot of a [`U64Map`], returned by
/// [`U64Map::find_slot`]. Valid until the next insertion or removal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot(usize);

/// An open-addressed, linear-probing hash map from `u64` keys to `V`: a
/// [`RawTable`] of `Option<(u64, V)>` slots.
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
    table: RawTable<Option<(u64, V)>>,
}

impl<V> U64Map<V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates a map pre-sized to hold `capacity` entries without growing.
    pub fn with_capacity(capacity: usize) -> Self {
        U64Map {
            table: RawTable::with_capacity(capacity),
        }
    }

    /// Number of entries in the map.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Returns `true` if the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Number of slots currently allocated (diagnostics and tests).
    pub fn capacity_slots(&self) -> usize {
        self.table.capacity_slots()
    }

    /// Hints the CPU to pull the probe chain's first cache line for `key`
    /// into cache (see [`RawTable::prefetch`]).
    #[inline]
    pub fn prefetch(&self, key: u64) {
        self.table.prefetch(key);
    }

    /// Looks up a key.
    pub fn get(&self, key: u64) -> Option<&V> {
        self.find_slot(key).map(|slot| self.slot_value(slot))
    }

    /// Locates a key, returning a handle that reads or removes its entry
    /// without probing again.
    pub fn find_slot(&self, key: u64) -> Option<Slot> {
        self.table.find(key).map(Slot)
    }

    /// The value of a slot located by [`U64Map::find_slot`].
    pub fn slot_value(&self, slot: Slot) -> &V {
        &self
            .table
            .slot(slot.0)
            .as_ref()
            .expect("slot handle is occupied")
            .1
    }

    /// Removes the entry in a slot located by [`U64Map::find_slot`],
    /// skipping the probe [`U64Map::remove`] would repeat.
    pub fn remove_slot(&mut self, slot: Slot) -> V {
        self.table
            .remove_at(slot.0)
            .expect("slot handle is occupied")
            .1
    }

    /// Inserts a key/value pair, returning the previous value if the key was
    /// already present.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        let mut fresh = Some(value);
        let (i, _) = self
            .table
            .find_or_insert(key, || Some((key, fresh.take().expect("filled once"))));
        // `fresh` is still full only if the key was present.
        fresh.map(|value| std::mem::replace(self.value_mut(i), value))
    }

    /// Returns a mutable reference to the value for `key`, inserting
    /// `default()` first if the key is absent. The flag reports whether the
    /// entry was just created: a single-probe replacement for the
    /// get-then-insert double lookup.
    pub fn get_or_insert_with(&mut self, key: u64, default: impl FnOnce() -> V) -> (&mut V, bool) {
        let (i, inserted) = self.table.find_or_insert(key, || Some((key, default())));
        (self.value_mut(i), inserted)
    }

    /// Removes a key, returning its value if it was present.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let slot = self.find_slot(key)?;
        Some(self.remove_slot(slot))
    }

    /// Keeps only the entries for which the predicate returns `true`, in
    /// place (see [`RawTable::retain`]).
    pub fn retain(&mut self, mut pred: impl FnMut(u64, &mut V) -> bool) {
        self.table.retain(|s| {
            let (k, v) = s.as_mut().expect("retain visits occupied slots");
            pred(*k, v)
        });
    }

    /// Iterates over the entries in slot order (deterministic for a given
    /// operation history).
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.table.iter().flatten().map(|(k, v)| (*k, v))
    }

    fn value_mut(&mut self, i: usize) -> &mut V {
        &mut self.table.slot_mut(i).as_mut().expect("slot is occupied").1
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
        assert_eq!(m.get(2), Some(&20));
        assert_eq!(m.remove(1), Some(11));
        assert_eq!(m.remove(1), None);
        assert_eq!(m.len(), 1);
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
        assert_eq!(m.iter().map(|(_, v)| *v).max(), Some(99));
    }

    #[test]
    fn retain_keeps_allocation() {
        let mut m: U64Map<u64> = U64Map::new();
        for i in 0..1000 {
            m.insert(i, i);
        }
        let (ptr, slots) = (m.table.slots.as_ptr(), m.capacity_slots());
        m.retain(|k, _| k % 2 == 0);
        assert_eq!(m.len(), 500);
        assert_eq!(
            m.table.slots.as_ptr(),
            ptr,
            "the sweep re-placed the survivors inside the same slot array"
        );
        assert_eq!(m.capacity_slots(), slots);
        for i in 0..1000 {
            assert_eq!(m.get(i), (i % 2 == 0).then_some(&i));
        }
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
        assert_eq!(m.insert(5 * 31, 50), Some(5));
        let slot = m.find_slot(5 * 31).expect("key present");
        assert_eq!(m.slot_value(slot), &50);
        assert_eq!(m.remove_slot(slot), 50);
        assert_eq!(m.get(5 * 31), None);
        assert_eq!(m.len(), 63);
        // Backward-shift after a slot removal keeps every other key reachable.
        for i in 0..64u64 {
            if i != 5 {
                assert!(m.get(i * 31).is_some(), "key {i} lost after slot removal");
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
    /// lookup, periodic retain) must match `std::collections::HashMap`
    /// exactly. This exercises backward-shift deletion across wrap-around
    /// probe chains, which is where open-addressed maps classically go
    /// wrong, and the in-place rehash through both of its callers: the key
    /// universe widens as the run goes on, so the map doubles from
    /// [`MIN_SLOTS`] again and again between sweeps.
    #[test]
    fn randomized_operations_match_std_hashmap() {
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        let mut ours: U64Map<u64> = U64Map::new();
        let mut reference: HashMap<u64, u64> = HashMap::new();
        let mut growths = 0;
        for step in 0..60_000u64 {
            // A small universe early on forces constant collisions and
            // deletions inside shared probe chains.
            let key = rng.gen_range(0..16 + step / 8);
            let slots = ours.capacity_slots();
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
                }
                _ => {
                    let (v, inserted) = ours.get_or_insert_with(key, || step);
                    let prev_len = reference.len();
                    let rv = reference.entry(key).or_insert(step);
                    assert_eq!(*v, *rv);
                    assert_eq!(inserted, reference.len() > prev_len);
                }
            }
            growths += usize::from(ours.capacity_slots() > slots);
            assert_eq!(ours.len(), reference.len());
            if step % 1_000 == 999 {
                let dropped = step / 1_000 % 7;
                ours.retain(|k, _| k % 7 != dropped);
                reference.retain(|k, _| k % 7 != dropped);
                assert_eq!(ours.len(), reference.len());
                for (k, v) in &reference {
                    assert_eq!(ours.get(*k), Some(v), "key {k} lost by a sweep");
                }
            }
        }
        assert!(growths >= 6, "only {growths} doublings between sweeps");
        // Final full-content comparison.
        let mut ours_sorted: Vec<(u64, u64)> = ours.iter().map(|(k, v)| (k, *v)).collect();
        ours_sorted.sort_unstable();
        let mut ref_sorted: Vec<(u64, u64)> = reference.iter().map(|(k, v)| (*k, *v)).collect();
        ref_sorted.sort_unstable();
        assert_eq!(ours_sorted, ref_sorted);
    }
}
