//! Sharer bit-set: which tiles hold a copy of a block.

use rnuca_types::ids::TileId;
use std::fmt;

/// A set of tiles holding a copy of a block, stored as a 64-bit mask.
///
/// The paper's directory stores a 16-bit sharers mask per block (Section 2.2);
/// 64 bits leaves room for the larger configurations discussed in Section 5.5.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct SharerSet(u64);

impl SharerSet {
    /// The empty sharer set.
    pub const EMPTY: SharerSet = SharerSet(0);

    /// Creates an empty sharer set.
    pub fn new() -> Self {
        Self::EMPTY
    }

    /// Creates a set containing a single tile.
    pub fn singleton(tile: TileId) -> Self {
        let mut s = Self::EMPTY;
        s.insert(tile);
        s
    }

    /// The raw 64-bit mask (bit `i` = tile `i` holds a copy).
    pub fn to_bits(self) -> u64 {
        self.0
    }

    /// Reconstructs a set from a raw mask produced by [`SharerSet::to_bits`].
    pub fn from_bits(bits: u64) -> Self {
        SharerSet(bits)
    }

    /// Adds a tile to the set.
    ///
    /// # Panics
    ///
    /// Panics if the tile index is 64 or larger.
    pub fn insert(&mut self, tile: TileId) {
        assert!(tile.index() < 64, "sharer set supports up to 64 tiles");
        self.0 |= 1 << tile.index();
    }

    /// Removes a tile from the set; returns `true` if it was present.
    pub fn remove(&mut self, tile: TileId) -> bool {
        let bit = 1u64 << tile.index();
        let present = self.0 & bit != 0;
        self.0 &= !bit;
        present
    }

    /// Returns `true` if the tile is in the set.
    pub fn contains(&self, tile: TileId) -> bool {
        tile.index() < 64 && self.0 & (1 << tile.index()) != 0
    }

    /// Number of tiles in the set.
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Iterates over the tiles in the set in ascending index order.
    pub fn iter(&self) -> impl Iterator<Item = TileId> + '_ {
        (0..64).filter(|i| self.0 & (1 << i) != 0).map(TileId::new)
    }

    /// The set with `except` removed, without touching `self` — the
    /// directory uses this on its per-store path to report "everyone but
    /// the writer" without allocating.
    pub fn without(&self, except: TileId) -> SharerSet {
        let mut s = *self;
        s.remove(except);
        s
    }

    /// Returns an arbitrary (lowest-index) member, if any.
    pub fn first(&self) -> Option<TileId> {
        if self.is_empty() {
            None
        } else {
            Some(TileId::new(self.0.trailing_zeros() as usize))
        }
    }

    /// Removes every tile from the set.
    pub fn clear(&mut self) {
        self.0 = 0;
    }
}

impl FromIterator<TileId> for SharerSet {
    fn from_iter<I: IntoIterator<Item = TileId>>(iter: I) -> Self {
        let mut s = SharerSet::new();
        for t in iter {
            s.insert(t);
        }
        s
    }
}

impl fmt::Display for SharerSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for t in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{t}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: usize) -> TileId {
        TileId::new(i)
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = SharerSet::new();
        assert!(s.is_empty());
        s.insert(t(3));
        s.insert(t(15));
        assert!(s.contains(t(3)));
        assert!(s.contains(t(15)));
        assert!(!s.contains(t(4)));
        assert_eq!(s.len(), 2);
        assert!(s.remove(t(3)));
        assert!(!s.remove(t(3)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn singleton_and_first() {
        let s = SharerSet::singleton(t(5));
        assert_eq!(s.len(), 1);
        assert_eq!(s.first(), Some(t(5)));
        assert_eq!(SharerSet::EMPTY.first(), None);
    }

    #[test]
    fn iter_is_sorted() {
        let s: SharerSet = [t(9), t(1), t(4)].into_iter().collect();
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v, vec![t(1), t(4), t(9)]);
    }

    #[test]
    fn without_excludes_only_the_given_tile() {
        let s: SharerSet = [t(9), t(1), t(4)].into_iter().collect();
        assert_eq!(s.without(t(4)).iter().collect::<Vec<_>>(), vec![t(1), t(9)]);
        assert_eq!(s.without(t(7)), s, "removing a non-member changes nothing");
        assert!(!s.without(t(4)).contains(t(4)));
        assert_eq!(s.len(), 3, "without must not mutate the receiver");
    }

    #[test]
    fn display_lists_members() {
        let s: SharerSet = [t(2), t(0)].into_iter().collect();
        assert_eq!(s.to_string(), "{T0,T2}");
        assert_eq!(SharerSet::EMPTY.to_string(), "{}");
    }

    #[test]
    fn clear_empties() {
        let mut s = SharerSet::singleton(t(1));
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic(expected = "up to 64 tiles")]
    fn oversized_tile_panics() {
        SharerSet::new().insert(t(64));
    }
}
