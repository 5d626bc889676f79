//! Rotational-ID (RID) assignment (Section 4.1 of the paper).
//!
//! RIDs are assigned by the operating system. In a size-`n` cluster RIDs
//! range over `0..n`: the OS gives some starting tile RID 0, consecutive tiles
//! in a row receive consecutive RIDs, and consecutive tiles in a column
//! receive RIDs that differ by `log2(n)`, all modulo `n`. The paper lets the
//! OS pick any starting tile; the placement properties do not depend on the
//! choice, so this model always starts at tile 0.
//!
//! The resulting pattern guarantees the key rotational-interleaving invariant
//! (verified by the `rnuca` crate's property tests): every tile stores exactly
//! the same `1/n`-th of the address space on behalf of *any* size-`n`
//! fixed-center cluster it participates in, so replication across clusters
//! never increases per-slice capacity pressure.

use rnuca_types::ids::{RotationalId, TileId};

/// Computes the RID of a single tile for size-`n` clusters on a `width`-tile-wide grid.
///
/// # Panics
///
/// Panics if `n` is not a power of two or `width` is zero.
pub fn rid_for_tile(tile: TileId, n: usize, width: usize) -> RotationalId {
    assert!(
        n.is_power_of_two(),
        "cluster size must be a power of two, got {n}"
    );
    assert!(width > 0, "grid width must be non-zero");
    if n == 1 {
        return RotationalId::new(0);
    }
    let (x, y) = tile.coords(width);
    let step_per_row = n.trailing_zeros() as usize; // log2(n)
    let rid = (x + step_per_row * y) % n;
    RotationalId::new(rid)
}

/// Computes the RID of every tile of a `width x height` grid, in row-major tile order.
///
/// # Panics
///
/// Panics if `n` is not a power of two or either dimension is zero.
pub fn rid_assignment(n: usize, width: usize, height: usize) -> Vec<RotationalId> {
    assert!(height > 0, "grid height must be non-zero");
    (0..width * height)
        .map(|i| rid_for_tile(TileId::new(i), n, width))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_four_assignment_on_4x4() {
        // rid(x, y) = (x + 2y) mod 4.
        let rids = rid_assignment(4, 4, 4);
        let values: Vec<usize> = rids.iter().map(|r| r.value()).collect();
        assert_eq!(
            values,
            vec![
                0, 1, 2, 3, // row 0
                2, 3, 0, 1, // row 1
                0, 1, 2, 3, // row 2
                2, 3, 0, 1, // row 3
            ]
        );
    }

    #[test]
    fn rows_are_consecutive_and_columns_differ_by_log2n() {
        let n = 4;
        let width = 4;
        for y in 0..4usize {
            for x in 0..3usize {
                let a = rid_for_tile(TileId::from_coords(x, y, width), n, width).value();
                let b = rid_for_tile(TileId::from_coords(x + 1, y, width), n, width).value();
                assert_eq!((a + 1) % n, b, "row neighbours must have consecutive RIDs");
            }
        }
        for x in 0..4usize {
            for y in 0..3usize {
                let a = rid_for_tile(TileId::from_coords(x, y, width), n, width).value();
                let b = rid_for_tile(TileId::from_coords(x, y + 1, width), n, width).value();
                assert_eq!((a + 2) % n, b, "column neighbours must differ by log2(n)");
            }
        }
    }

    #[test]
    fn each_rid_appears_equally_often_on_4x4_for_size_4() {
        let rids = rid_assignment(4, 4, 4);
        let mut counts = [0usize; 4];
        for r in rids {
            counts[r.value()] += 1;
        }
        assert_eq!(counts, [4, 4, 4, 4]);
    }

    #[test]
    fn size_one_clusters_have_rid_zero_everywhere() {
        assert!(rid_assignment(1, 4, 4).iter().all(|r| r.value() == 0));
    }

    #[test]
    fn size_two_assignment_is_a_checkerboard() {
        let rids = rid_assignment(2, 4, 4);
        for (i, rid) in rids.iter().enumerate() {
            let (x, y) = TileId::new(i).coords(4);
            assert_eq!(rid.value(), (x + y) % 2);
        }
    }

    #[test]
    fn size_sixteen_covers_all_rids_on_4x4() {
        let rids = rid_assignment(16, 4, 4);
        // rid(x, y) = (x + 4y) mod 16 == tile index: a bijection.
        let mut seen = [false; 16];
        for r in rids {
            seen[r.value()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_cluster_size_panics() {
        rid_for_tile(TileId::new(0), 3, 4);
    }
}
