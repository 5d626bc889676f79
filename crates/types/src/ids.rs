//! Identifier newtypes for tiles, cores, rotational IDs, and memory controllers.
//!
//! The paper distinguishes between the conventional *core ID* (CID) that the
//! operating system uses for bookkeeping and the *rotational ID* (RID) used by
//! rotational interleaving (Section 4.1). Both are small integers, but mixing
//! them up silently breaks the indexing function, so each gets its own
//! newtype.

use std::fmt;

/// Identifier of a processor core (the paper's CID).
///
/// In the tiled architectures modelled here there is exactly one core per
/// tile, so a `CoreId` and the [`TileId`] of the tile hosting that core share
/// the same index. They remain distinct types because the OS page
/// classification machinery records CIDs while the placement machinery works
/// with tiles.
///
/// # Example
///
/// ```
/// use rnuca_types::ids::{CoreId, TileId};
/// let c = CoreId::new(3);
/// let t: TileId = c.tile();
/// assert_eq!(t.index(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(u16);

impl CoreId {
    /// Creates a core identifier from its index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit the 16-bit representation (65536 cores
    /// and up). Truncating silently would alias distinct cores — the trace
    /// codec, for one, stores core indices in exactly these 16 bits.
    pub fn new(index: usize) -> Self {
        assert!(
            index <= u16::MAX as usize,
            "core index {index} exceeds the 16-bit ID space"
        );
        CoreId(index as u16)
    }

    /// Returns the zero-based index of this core.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the tile that hosts this core (same index).
    pub fn tile(self) -> TileId {
        TileId(self.0)
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl From<TileId> for CoreId {
    fn from(t: TileId) -> Self {
        CoreId(t.0)
    }
}

/// Identifier of a tile (core + L1 caches + L2 slice + router).
///
/// Tiles are numbered in row-major order over the 2-D torus: tile `y * width + x`
/// sits at coordinates `(x, y)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TileId(u16);

impl TileId {
    /// Creates a tile identifier from its row-major index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit the 16-bit representation (see [`CoreId::new`]).
    pub fn new(index: usize) -> Self {
        assert!(
            index <= u16::MAX as usize,
            "tile index {index} exceeds the 16-bit ID space"
        );
        TileId(index as u16)
    }

    /// Returns the zero-based row-major index of this tile.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the core hosted on this tile (same index).
    pub fn core(self) -> CoreId {
        CoreId(self.0)
    }

    /// Returns the `(x, y)` coordinates of this tile on a grid of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn coords(self, width: usize) -> (usize, usize) {
        assert!(width > 0, "grid width must be non-zero");
        (self.index() % width, self.index() / width)
    }

    /// Builds a tile identifier from `(x, y)` coordinates on a grid of the given width.
    pub fn from_coords(x: usize, y: usize, width: usize) -> Self {
        TileId::new(y * width + x)
    }
}

impl fmt::Display for TileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl From<CoreId> for TileId {
    fn from(c: CoreId) -> Self {
        TileId(c.0)
    }
}

/// Rotational ID (RID) assigned by the operating system for rotational interleaving.
///
/// RIDs in a size-`n` cluster range over `0..n`. Consecutive tiles in a row
/// receive consecutive RIDs; consecutive tiles in a column receive RIDs that
/// differ by `log2(n)` (Section 4.1 of the paper). RID assignment itself lives
/// in the `rnuca-os` crate; this type only carries the value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RotationalId(u8);

impl RotationalId {
    /// Creates a rotational ID.
    ///
    /// # Panics
    ///
    /// Panics if `value` does not fit in a `u8` (cluster sizes are far smaller).
    pub fn new(value: usize) -> Self {
        assert!(value <= u8::MAX as usize, "RID {value} out of range");
        RotationalId(value as u8)
    }

    /// Returns the RID value.
    pub fn value(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RotationalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RID{}", self.0)
    }
}

/// Identifier of an on-chip memory controller.
///
/// Table 1 provisions one controller per four cores, each co-located with a
/// tile and reached over the on-chip network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MemCtrlId(u16);

impl MemCtrlId {
    /// Creates a memory-controller identifier from its index.
    pub fn new(index: usize) -> Self {
        MemCtrlId(index as u16)
    }

    /// Returns the zero-based index of this controller.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for MemCtrlId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MC{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_and_tile_roundtrip() {
        for i in 0..64 {
            let c = CoreId::new(i);
            assert_eq!(c.index(), i);
            assert_eq!(c.tile().index(), i);
            assert_eq!(CoreId::from(c.tile()), c);
            assert_eq!(TileId::from(c), c.tile());
        }
    }

    #[test]
    fn tile_coords_roundtrip_4x4() {
        let width = 4;
        for i in 0..16 {
            let t = TileId::new(i);
            let (x, y) = t.coords(width);
            assert_eq!(TileId::from_coords(x, y, width), t);
            assert!(x < 4 && y < 4);
        }
    }

    #[test]
    fn tile_coords_roundtrip_4x2() {
        let width = 4;
        for i in 0..8 {
            let t = TileId::new(i);
            let (x, y) = t.coords(width);
            assert_eq!(TileId::from_coords(x, y, width), t);
            assert!(x < 4 && y < 2);
        }
    }

    #[test]
    #[should_panic(expected = "grid width must be non-zero")]
    fn zero_width_panics() {
        TileId::new(0).coords(0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(CoreId::new(7).to_string(), "P7");
        assert_eq!(TileId::new(12).to_string(), "T12");
        assert_eq!(RotationalId::new(3).to_string(), "RID3");
        assert_eq!(MemCtrlId::new(1).to_string(), "MC1");
    }

    #[test]
    #[should_panic(expected = "exceeds the 16-bit ID space")]
    fn oversized_core_index_panics() {
        CoreId::new(65_536);
    }

    #[test]
    #[should_panic(expected = "exceeds the 16-bit ID space")]
    fn oversized_tile_index_panics() {
        TileId::new(1 << 20);
    }

    #[test]
    fn ids_are_ordered() {
        assert!(CoreId::new(1) < CoreId::new(2));
        assert!(TileId::new(0) < TileId::new(15));
        assert!(RotationalId::new(0) < RotationalId::new(3));
    }
}
