//! Rotational interleaving (Section 4.1 of the paper).
//!
//! Rotational interleaving lets neighbouring cores *share* instruction blocks
//! while distant cores *replicate* them, without ever storing more than `1/n`
//! of the working set in any one slice and without any search: the servicing
//! slice is computed from the block address and the requesting tile's
//! rotational ID (RID) by a trivial boolean function.
//!
//! The paper's indexing function for size-`n` clusters, with the
//! address-interleaving bits starting at offset `k`, is
//!
//! ```text
//! R = (Addr[k + log2(n) - 1 : k] + RID + 1) & (n - 1)
//! ```
//!
//! and for size-4 clusters the 2-bit result selects the local slice or the
//! slice to the right, above, or to the left of the requesting tile (for
//! results 0, 1, 2 and 3 respectively).
//!
//! [`RotationalMap`] precomputes, for a given cluster size and grid, the RID
//! of every tile and the servicing tile of every `(requesting tile, address
//! residue)` pair, and exposes the invariant checks used in tests: the
//! servicing tile is always within one "cluster radius" of the requester, and
//! the set of residues stored by a slice is the same regardless of which
//! cluster is asking (so replication never inflates capacity pressure).

use rnuca_os::rid::rid_for_tile;
use rnuca_types::addr::BlockAddr;
use rnuca_types::ids::{RotationalId, TileId};

/// The paper's boolean indexing function: `R = (addr_bits + rid + 1) & (n - 1)`.
///
/// `addr_bits` are the `log2(n)` address bits immediately above the set-index
/// bits; `rid` is the requesting tile's rotational ID.
///
/// # Panics
///
/// Panics if `n` is not a power of two.
pub fn rotational_index(addr_bits: u64, rid: RotationalId, n: usize) -> usize {
    assert!(
        n.is_power_of_two(),
        "cluster size must be a power of two, got {n}"
    );
    ((addr_bits as usize) + rid.value() + 1) & (n - 1)
}

/// Relative direction selected by the size-4 indexing function (Figure 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Size4Direction {
    /// Result `<0,0>`: the block lives in the requesting tile's own slice.
    Local,
    /// Result `<0,1>`: the slice to the right of the requesting tile.
    Right,
    /// Result `<1,0>`: the slice above the requesting tile.
    Above,
    /// Result `<1,1>`: the slice to the left of the requesting tile.
    Left,
}

impl Size4Direction {
    /// Decodes the 2-bit result of [`rotational_index`] for size-4 clusters.
    ///
    /// # Panics
    ///
    /// Panics if `r >= 4`.
    pub fn from_index(r: usize) -> Self {
        match r {
            0 => Size4Direction::Local,
            1 => Size4Direction::Right,
            2 => Size4Direction::Above,
            3 => Size4Direction::Left,
            _ => panic!("size-4 rotational index must be in 0..4, got {r}"),
        }
    }

    /// The tile in this direction from `tile` on a `width x height` torus.
    ///
    /// "Right" decreases x and "left" increases x in this implementation's
    /// coordinate system; the naming follows the paper's figure, and only the
    /// *consistency* between RID assignment and direction decoding matters for
    /// the capacity invariant (see the crate tests).
    pub fn apply(self, tile: TileId, width: usize, height: usize) -> TileId {
        let (x, y) = tile.coords(width);
        let (nx, ny) = match self {
            Size4Direction::Local => (x, y),
            Size4Direction::Right => ((x + width - 1) % width, y),
            Size4Direction::Above => (x, (y + height - 1) % height),
            Size4Direction::Left => ((x + 1) % width, y),
        };
        TileId::from_coords(nx, ny, width)
    }
}

/// Precomputed rotational-interleaving state for one cluster size on one grid.
#[derive(Debug, Clone)]
pub struct RotationalMap {
    n: usize,
    width: usize,
    height: usize,
    /// Label ("generalised RID") of every tile, row-major.
    labels: Vec<usize>,
    /// `home[tile * n + residue]` = servicing tile for address residue `residue`
    /// when requested from `tile`.
    home: Vec<TileId>,
}

impl RotationalMap {
    /// Builds the map for size-`n` clusters on a `width x height` grid.
    ///
    /// For cluster sizes that fit within one row (`n <= width`) the labels are
    /// the paper's RIDs; for larger clusters that do not tile a single row the
    /// labels generalise to a balanced block pattern spanning `n / width`
    /// rows, preserving the capacity invariant. Size `width * height` clusters
    /// degenerate to standard address interleaving over the whole chip.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two, exceeds the tile count, or the
    /// grid is degenerate.
    pub fn new(n: usize, width: usize, height: usize) -> Self {
        assert!(
            n.is_power_of_two(),
            "cluster size must be a power of two, got {n}"
        );
        assert!(width > 0 && height > 0, "grid dimensions must be non-zero");
        let tiles = width * height;
        assert!(n <= tiles, "cluster size {n} exceeds tile count {tiles}");

        let labels: Vec<usize> = (0..tiles)
            .map(|i| Self::label_of(TileId::new(i), n, width))
            .collect();

        // Precompute, for every (tile, residue), the servicing slice. Size-4
        // clusters follow the paper's formula-plus-direction construction
        // exactly; other sizes use the nearest slice storing the residue,
        // which preserves the same invariants.
        let mut home = Vec::with_capacity(tiles * n);
        for t in 0..tiles {
            let from = TileId::new(t);
            for residue in 0..n {
                let slice = if n == 1 {
                    from
                } else if n == 4 && width >= 2 && height >= 2 {
                    let rid = RotationalId::new(labels[t]);
                    let r = rotational_index(residue as u64, rid, 4);
                    Size4Direction::from_index(r).apply(from, width, height)
                } else {
                    // The slice storing residue `a` is the one labelled (n-1-a).
                    let needed_label = (n - 1 - residue) % n;
                    Self::nearest_with_label(from, needed_label, &labels, width, height)
                };
                home.push(slice);
            }
        }
        RotationalMap {
            n,
            width,
            height,
            labels,
            home,
        }
    }

    /// The label (generalised RID) of a tile.
    pub fn label(&self, tile: TileId) -> usize {
        self.labels[tile.index()]
    }

    /// The RID of a tile, for cluster sizes where the paper's RID assignment applies.
    pub fn rid(&self, tile: TileId) -> RotationalId {
        RotationalId::new(self.label(tile))
    }

    /// The address residue class a block falls in: the `log2(n)` interleaving
    /// bits of the block address, reduced modulo the cluster size.
    pub fn residue(&self, block: BlockAddr, sets_per_slice: usize) -> usize {
        if self.n == 1 {
            return 0;
        }
        let bits = self.n.trailing_zeros();
        (block.interleave_bits(sets_per_slice, bits) as usize) & (self.n - 1)
    }

    /// The slice that services `block` when requested from `tile`.
    pub fn home_for(&self, tile: TileId, block: BlockAddr, sets_per_slice: usize) -> TileId {
        let residue = self.residue(block, sets_per_slice);
        self.home_for_residue(tile, residue)
    }

    /// The slice that services any block of address residue `residue` when requested from `tile`.
    pub fn home_for_residue(&self, tile: TileId, residue: usize) -> TileId {
        debug_assert!(residue < self.n);
        self.home[tile.index() * self.n + residue]
    }

    /// The members of the fixed-center cluster of `tile`: the servicing slices
    /// of all `n` residues, i.e. the slices this core ever reads instructions from.
    pub fn cluster_members(&self, tile: TileId) -> Vec<TileId> {
        let mut members: Vec<TileId> = (0..self.n)
            .map(|r| self.home_for_residue(tile, r))
            .collect();
        members.sort();
        members.dedup();
        members
    }

    /// The address residue stored by a slice (the complement of [`Self::label`]
    /// under the paper's indexing function). Every cluster asks this slice
    /// only for blocks of this residue — the capacity invariant.
    pub fn stored_residue(&self, slice: TileId) -> usize {
        if self.n == 1 {
            0
        } else {
            (self.n - 1 - self.label(slice)) % self.n
        }
    }

    fn label_of(tile: TileId, n: usize, width: usize) -> usize {
        if n == 1 {
            return 0;
        }
        if n <= width {
            // The paper's RID assignment: consecutive along rows, +log2(n) along columns.
            rid_for_tile(tile, n, width).value()
        } else {
            // Generalised balanced labelling over an (width x n/width) block of rows.
            let rows = n / width;
            let (x, y) = tile.coords(width);
            (x % width) + width * (y % rows)
        }
    }

    fn nearest_with_label(
        from: TileId,
        label: usize,
        labels: &[usize],
        width: usize,
        height: usize,
    ) -> TileId {
        let torus_dist = |a: TileId, b: TileId| -> usize {
            let (ax, ay) = a.coords(width);
            let (bx, by) = b.coords(width);
            let dx = ax.abs_diff(bx);
            let dy = ay.abs_diff(by);
            dx.min(width - dx) + dy.min(height - dy)
        };
        (0..labels.len())
            .filter(|&i| labels[i] == label)
            .map(TileId::new)
            .min_by_key(|&t| (torus_dist(from, t), t.index()))
            .expect("balanced labelling guarantees every label exists")
    }

    /// Grid width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid height.
    pub fn height(&self) -> usize {
        self.height
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(n: u64) -> BlockAddr {
        BlockAddr::from_block_number(n)
    }

    const SETS: usize = 1024; // 1 MB, 16-way, 64 B blocks

    #[test]
    fn indexing_function_matches_paper_formula() {
        // R = (addr + rid + 1) & (n-1)
        assert_eq!(rotational_index(0, RotationalId::new(0), 4), 1);
        assert_eq!(rotational_index(1, RotationalId::new(1), 4), 3);
        assert_eq!(rotational_index(3, RotationalId::new(3), 4), 3);
        assert_eq!(rotational_index(2, RotationalId::new(1), 4), 0);
        assert_eq!(rotational_index(7, RotationalId::new(5), 8), 5);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn indexing_rejects_non_power_of_two() {
        rotational_index(0, RotationalId::new(0), 6);
    }

    #[test]
    fn size4_direction_decoding() {
        assert_eq!(Size4Direction::from_index(0), Size4Direction::Local);
        assert_eq!(Size4Direction::from_index(1), Size4Direction::Right);
        assert_eq!(Size4Direction::from_index(2), Size4Direction::Above);
        assert_eq!(Size4Direction::from_index(3), Size4Direction::Left);
    }

    #[test]
    fn size4_map_matches_explicit_formula_plus_directions() {
        // The generic nearest-with-label lookup must agree with the paper's
        // "formula + neighbour direction" procedure for size-4 clusters.
        let map = RotationalMap::new(4, 4, 4);
        for t in 0..16 {
            let tile = TileId::new(t);
            let rid = map.rid(tile);
            for addr_bits in 0..4u64 {
                let r = rotational_index(addr_bits, rid, 4);
                let dir = Size4Direction::from_index(r);
                let expected = dir.apply(tile, 4, 4);
                // Build a block whose interleave bits equal addr_bits.
                let block = b(addr_bits << SETS.trailing_zeros());
                assert_eq!(
                    map.home_for(tile, block, SETS),
                    expected,
                    "tile {tile} addr bits {addr_bits}"
                );
            }
        }
    }

    #[test]
    fn size4_homes_are_at_most_one_hop_away() {
        let map = RotationalMap::new(4, 4, 4);
        for t in 0..16 {
            let tile = TileId::new(t);
            let members = map.cluster_members(tile);
            assert_eq!(members.len(), 4, "size-4 cluster has 4 distinct members");
            for r in 0..4 {
                let home = map.home_for_residue(tile, r);
                let (x, y) = tile.coords(4);
                let (hx, hy) = home.coords(4);
                let dx = x.abs_diff(hx).min(4 - x.abs_diff(hx));
                let dy = y.abs_diff(hy).min(4 - y.abs_diff(hy));
                assert!(dx + dy <= 1, "home must be within one hop");
            }
        }
    }

    #[test]
    fn capacity_invariant_each_slice_stores_one_residue() {
        // For every cluster size, a slice is only ever asked for a single
        // address residue, no matter which tile is requesting.
        for &n in &[1usize, 2, 4, 8, 16] {
            let map = RotationalMap::new(n, 4, 4);
            for t in 0..16 {
                let tile = TileId::new(t);
                for residue in 0..n {
                    let home = map.home_for_residue(tile, residue);
                    assert_eq!(
                        map.stored_residue(home),
                        residue,
                        "size {n}: tile {t} residue {residue} must land on a slice storing it"
                    );
                }
            }
        }
    }

    #[test]
    fn residue_extraction_uses_bits_above_set_index() {
        let map = RotationalMap::new(4, 4, 4);
        // Block number = residue << log2(sets) | set bits.
        let block = b((3 << SETS.trailing_zeros()) | 17);
        assert_eq!(map.residue(block, SETS), 3);
        let map1 = RotationalMap::new(1, 4, 4);
        assert_eq!(map1.residue(block, SETS), 0);
    }

    #[test]
    fn size16_degenerates_to_full_chip_interleaving() {
        let map = RotationalMap::new(16, 4, 4);
        for t in 0..16 {
            let tile = TileId::new(t);
            let members = map.cluster_members(tile);
            assert_eq!(members.len(), 16);
        }
        // Each residue has exactly one home chip-wide.
        for residue in 0..16 {
            let homes: std::collections::HashSet<_> = (0..16)
                .map(|t| map.home_for_residue(TileId::new(t), residue))
                .collect();
            assert_eq!(
                homes.len(),
                1,
                "residue {residue} must have a unique chip-wide home"
            );
        }
    }

    #[test]
    fn size1_always_stays_local() {
        let map = RotationalMap::new(1, 4, 4);
        for t in 0..16 {
            let tile = TileId::new(t);
            assert_eq!(map.home_for(tile, b(0xABC), SETS), tile);
            assert_eq!(map.cluster_members(tile), vec![tile]);
        }
    }

    #[test]
    fn size8_clusters_are_balanced_and_nearby() {
        let map = RotationalMap::new(8, 4, 4);
        // Labels are balanced: each of the 8 labels appears exactly twice.
        let mut counts = [0usize; 8];
        for t in 0..16 {
            counts[map.label(TileId::new(t))] += 1;
        }
        assert!(counts.iter().all(|&c| c == 2));
        // Every cluster has 8 distinct members.
        for t in 0..16 {
            assert_eq!(map.cluster_members(TileId::new(t)).len(), 8);
        }
    }

    #[test]
    fn desktop_4x2_grid_supports_size4() {
        let map = RotationalMap::new(4, 4, 2);
        for t in 0..8 {
            let members = map.cluster_members(TileId::new(t));
            assert_eq!(members.len(), 4);
        }
    }

    #[test]
    fn size4_fixed_center_cluster_members() {
        let members = RotationalMap::new(4, 4, 4).cluster_members(TileId::new(5));
        assert_eq!(members.len(), 4);
        assert!(
            members.contains(&TileId::new(5)),
            "centre is always a member"
        );
    }

    #[test]
    fn size1_cluster_is_just_the_center() {
        let map = RotationalMap::new(1, 4, 4);
        assert_eq!(map.cluster_members(TileId::new(7)), vec![TileId::new(7)]);
    }

    #[test]
    fn size16_cluster_covers_the_chip() {
        let map = RotationalMap::new(16, 4, 4);
        let all: Vec<TileId> = (0..16).map(TileId::new).collect();
        assert_eq!(map.cluster_members(TileId::new(3)), all);
    }

    #[test]
    fn neighbouring_fixed_center_clusters_overlap() {
        let map = RotationalMap::new(4, 4, 4);
        let a = map.cluster_members(TileId::new(5));
        let b = map.cluster_members(TileId::new(6));
        assert!(
            a.iter().any(|t| b.contains(t)),
            "adjacent size-4 clusters share slices (Figure 6)"
        );
    }

    #[test]
    #[should_panic(expected = "exceeds tile count")]
    fn oversized_cluster_panics() {
        RotationalMap::new(32, 4, 4);
    }
}
