//! Cluster geometry: the groups of L2 slices R-NUCA places data into.
//!
//! R-NUCA conceptually operates on overlapping clusters of tiles (Section 4).
//! Our configuration uses three of them — size-1 (the local slice), size-4
//! fixed-center (instructions), and size-16 (the whole chip, for shared data)
//! — but the mechanism generalises to any power-of-two size and to
//! fixed-boundary (rectangular, non-overlapping) clusters, which Section 4.4
//! suggests for partitioning a CMP into virtual domains.

use crate::rotational::RotationalMap;
use rnuca_types::ids::TileId;
use std::fmt;

/// The two cluster shapes described in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClusterKind {
    /// A cluster logically surrounding a centre core; every core defines its
    /// own (overlapping) cluster. Used for instruction replication.
    FixedCenter,
    /// A rectangular cluster with a fixed boundary; all cores inside share the
    /// same data. Suitable for partitioning the chip into disjoint domains.
    FixedBoundary,
}

impl fmt::Display for ClusterKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterKind::FixedCenter => f.write_str("fixed-center"),
            ClusterKind::FixedBoundary => f.write_str("fixed-boundary"),
        }
    }
}

/// A concrete cluster: a set of member tiles plus the kind it was built as.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cluster {
    kind: ClusterKind,
    /// The centre (fixed-center) or anchor corner (fixed-boundary) tile.
    anchor: TileId,
    members: Vec<TileId>,
}

impl Cluster {
    /// Builds the size-`n` fixed-center cluster around `center`: the slices
    /// that service the centre core's accesses under rotational interleaving.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two or exceeds the tile count.
    pub fn fixed_center(center: TileId, n: usize, width: usize, height: usize) -> Self {
        let map = RotationalMap::new(n, width, height);
        Cluster {
            kind: ClusterKind::FixedCenter,
            anchor: center,
            members: map.cluster_members(center),
        }
    }

    /// Builds the size-`n` fixed-center cluster from an existing [`RotationalMap`]
    /// (avoids recomputing the map when building clusters for every core).
    pub fn fixed_center_from_map(center: TileId, map: &RotationalMap) -> Self {
        Cluster {
            kind: ClusterKind::FixedCenter,
            anchor: center,
            members: map.cluster_members(center),
        }
    }

    /// Builds a fixed-boundary cluster covering the rectangle with corner
    /// `(x0, y0)` and dimensions `w x h` on a `width`-wide grid.
    ///
    /// # Panics
    ///
    /// Panics if the rectangle is empty or does not fit on the grid.
    pub fn fixed_boundary(
        x0: usize,
        y0: usize,
        w: usize,
        h: usize,
        width: usize,
        height: usize,
    ) -> Self {
        assert!(w > 0 && h > 0, "fixed-boundary cluster must be non-empty");
        assert!(
            x0 + w <= width && y0 + h <= height,
            "fixed-boundary cluster must fit on the grid"
        );
        let mut members = Vec::with_capacity(w * h);
        for y in y0..y0 + h {
            for x in x0..x0 + w {
                members.push(TileId::from_coords(x, y, width));
            }
        }
        Cluster {
            kind: ClusterKind::FixedBoundary,
            anchor: TileId::from_coords(x0, y0, width),
            members,
        }
    }

    /// The cluster kind.
    pub fn kind(&self) -> ClusterKind {
        self.kind
    }

    /// The centre (or anchor corner) tile.
    pub fn anchor(&self) -> TileId {
        self.anchor
    }

    /// The member tiles, sorted for fixed-center clusters and in row-major
    /// order for fixed-boundary clusters.
    pub fn members(&self) -> &[TileId] {
        &self.members
    }

    /// Number of member tiles.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Returns `true` if the cluster has no members (never the case for valid clusters).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Returns `true` if `tile` belongs to this cluster.
    pub fn contains(&self, tile: TileId) -> bool {
        self.members.contains(&tile)
    }

    /// Returns `true` if this cluster shares at least one tile with `other`.
    pub fn overlaps(&self, other: &Cluster) -> bool {
        self.members.iter().any(|t| other.contains(*t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size4_fixed_center_cluster_members() {
        let c = Cluster::fixed_center(TileId::new(5), 4, 4, 4);
        assert_eq!(c.kind(), ClusterKind::FixedCenter);
        assert_eq!(c.anchor(), TileId::new(5));
        assert_eq!(c.len(), 4);
        assert!(c.contains(TileId::new(5)), "centre is always a member");
        assert!(!c.is_empty());
    }

    #[test]
    fn size1_cluster_is_just_the_center() {
        let c = Cluster::fixed_center(TileId::new(7), 1, 4, 4);
        assert_eq!(c.members(), &[TileId::new(7)]);
    }

    #[test]
    fn size16_cluster_covers_the_chip() {
        let c = Cluster::fixed_center(TileId::new(3), 16, 4, 4);
        assert_eq!(c.len(), 16);
        for t in 0..16 {
            assert!(c.contains(TileId::new(t)));
        }
    }

    #[test]
    fn neighbouring_fixed_center_clusters_overlap() {
        let a = Cluster::fixed_center(TileId::new(5), 4, 4, 4);
        let b = Cluster::fixed_center(TileId::new(6), 4, 4, 4);
        assert!(
            a.overlaps(&b),
            "adjacent size-4 clusters share slices (Figure 6)"
        );
    }

    #[test]
    fn fixed_boundary_cluster_is_a_rectangle() {
        let c = Cluster::fixed_boundary(0, 0, 2, 2, 4, 4);
        assert_eq!(c.kind(), ClusterKind::FixedBoundary);
        assert_eq!(c.len(), 4);
        assert_eq!(
            c.members(),
            &[
                TileId::new(0),
                TileId::new(1),
                TileId::new(4),
                TileId::new(5)
            ]
        );
        let d = Cluster::fixed_boundary(2, 2, 2, 2, 4, 4);
        assert!(!c.overlaps(&d), "disjoint rectangles must not overlap");
    }

    #[test]
    fn fixed_boundary_partition_covers_chip_without_overlap() {
        // Partition the 4x4 chip into four 2x2 quadrants (Section 4.4 / virtual domains).
        let quadrants = [
            Cluster::fixed_boundary(0, 0, 2, 2, 4, 4),
            Cluster::fixed_boundary(2, 0, 2, 2, 4, 4),
            Cluster::fixed_boundary(0, 2, 2, 2, 4, 4),
            Cluster::fixed_boundary(2, 2, 2, 2, 4, 4),
        ];
        let total: usize = quadrants.iter().map(Cluster::len).sum();
        assert_eq!(total, 16);
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    assert!(!quadrants[i].overlaps(&quadrants[j]));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "must fit on the grid")]
    fn oversized_fixed_boundary_panics() {
        Cluster::fixed_boundary(3, 3, 2, 2, 4, 4);
    }

    #[test]
    fn kind_display() {
        assert_eq!(ClusterKind::FixedCenter.to_string(), "fixed-center");
        assert_eq!(ClusterKind::FixedBoundary.to_string(), "fixed-boundary");
    }
}
