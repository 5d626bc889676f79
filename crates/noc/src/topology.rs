//! Grid topologies: 2-D folded torus (the paper's choice) and 2-D mesh (the
//! baseline Section 5.1 argues against).

use rnuca_types::ids::TileId;
use std::fmt;

/// The interconnect topology connecting the tiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Topology {
    /// 2-D folded torus: every row and column wraps around, so the distance
    /// along an axis of length `n` is at most `n / 2`. This is the topology
    /// evaluated in the paper.
    FoldedTorus,
    /// 2-D mesh without wraparound links. Kept as the comparison point of
    /// Section 5.1 (meshes penalize edge tiles and create a hot centre).
    Mesh,
}

impl Topology {
    /// Distance between two coordinates along one axis of length `len`.
    fn axis_distance(self, a: usize, b: usize, len: usize) -> usize {
        let direct = a.abs_diff(b);
        match self {
            Topology::Mesh => direct,
            Topology::FoldedTorus => direct.min(len - direct),
        }
    }

    /// Minimal hop count between two tiles on a `width x height` grid.
    ///
    /// The sum of the per-axis distances: on both topologies a
    /// dimension-order (X then Y) walk is a shortest path.
    pub fn hops(self, from: TileId, to: TileId, width: usize, height: usize) -> u32 {
        let (fx, fy) = from.coords(width);
        let (tx, ty) = to.coords(width);
        (self.axis_distance(fx, tx, width) + self.axis_distance(fy, ty, height)) as u32
    }

    /// Maximum shortest-path distance between any pair of tiles (the network diameter).
    pub fn diameter(self, width: usize, height: usize) -> u32 {
        match self {
            Topology::Mesh => (width - 1 + height - 1) as u32,
            Topology::FoldedTorus => (width / 2 + height / 2) as u32,
        }
    }

    /// Average shortest-path distance over all ordered pairs of distinct tiles.
    pub fn average_distance(self, width: usize, height: usize) -> f64 {
        let n = width * height;
        if n < 2 {
            return 0.0;
        }
        let mut total = 0u64;
        let mut pairs = 0u64;
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                total += u64::from(self.hops(TileId::new(a), TileId::new(b), width, height));
                pairs += 1;
            }
        }
        total as f64 / pairs as f64
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Topology::FoldedTorus => f.write_str("2-D folded torus"),
            Topology::Mesh => f.write_str("2-D mesh"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rnuca_types::config::SystemConfig;

    const W: usize = 4;
    const H: usize = 4;

    #[test]
    fn torus_wraps_around() {
        let t = Topology::FoldedTorus;
        // Tiles 0 (0,0) and 3 (3,0) are adjacent via the wraparound link.
        assert_eq!(t.hops(TileId::new(0), TileId::new(3), W, H), 1);
        // Tiles 0 (0,0) and 12 (0,3) likewise.
        assert_eq!(t.hops(TileId::new(0), TileId::new(12), W, H), 1);
        // The geometric "corner" tile 15 at (3,3) is only 1+1 hops away thanks to wraparound...
        assert_eq!(t.hops(TileId::new(0), TileId::new(15), W, H), 2);
        // ...and the true antipode of tile 0 is tile 10 at (2,2), at the 4-hop diameter.
        assert_eq!(t.hops(TileId::new(0), TileId::new(10), W, H), 4);
        // Self distance is zero.
        assert_eq!(t.hops(TileId::new(5), TileId::new(5), W, H), 0);
    }

    #[test]
    fn mesh_does_not_wrap() {
        let m = Topology::Mesh;
        assert_eq!(m.hops(TileId::new(0), TileId::new(3), W, H), 3);
        assert_eq!(m.hops(TileId::new(0), TileId::new(15), W, H), 6);
        assert_eq!(m.hops(TileId::new(5), TileId::new(6), W, H), 1);
    }

    #[test]
    fn diameters() {
        assert_eq!(Topology::FoldedTorus.diameter(4, 4), 4);
        assert_eq!(Topology::Mesh.diameter(4, 4), 6);
        assert_eq!(Topology::FoldedTorus.diameter(4, 2), 3);
        assert_eq!(Topology::Mesh.diameter(4, 2), 4);
    }

    #[test]
    fn torus_average_distance_is_lower_than_mesh() {
        let torus = Topology::FoldedTorus.average_distance(4, 4);
        let mesh = Topology::Mesh.average_distance(4, 4);
        assert!(torus < mesh, "torus {torus} should beat mesh {mesh}");
        // Analytic value for a 4x4 torus: E[d] per axis = (0+1+2+1)/4 = 1, two axes
        // but excluding the self-pair slightly raises it: 32/15 ≈ 2.133.
        assert!((torus - 32.0 / 15.0).abs() < 1e-9);
    }

    /// Every torus shape `SystemConfig::with_core_count` yields for 1 to 64
    /// cores, from 1x1 up to the 8x4 and 8x8 grids the sweeps run.
    fn swept_shapes() -> Vec<(usize, usize)> {
        (0..=6)
            .map(|log2_cores| {
                let torus = SystemConfig::server_16()
                    .with_core_count(1 << log2_cores)
                    .expect("power-of-two core counts are valid")
                    .torus;
                (torus.width, torus.height)
            })
            .collect()
    }

    /// The tiles a dimension-order (X then Y) walk visits from `from` to `to`,
    /// both endpoints included: a step-by-step oracle for the closed-form
    /// [`Topology::hops`].
    fn route(topo: Topology, from: TileId, to: TileId, width: usize, height: usize) -> Vec<TileId> {
        let (mut x, mut y) = from.coords(width);
        let (tx, ty) = to.coords(width);
        let mut path = vec![from];
        while x != tx {
            x = step_towards(topo, x, tx, width);
            path.push(TileId::from_coords(x, y, width));
        }
        while y != ty {
            y = step_towards(topo, y, ty, height);
            path.push(TileId::from_coords(x, y, width));
        }
        path
    }

    /// Moves one step from `cur` towards `target` along an axis of length
    /// `len`, honouring wraparound for the torus.
    fn step_towards(topo: Topology, cur: usize, target: usize, len: usize) -> usize {
        let forward = (target + len - cur) % len; // steps going "up" with wraparound
        let backward = (cur + len - target) % len; // steps going "down" with wraparound
        let go_forward = match topo {
            Topology::Mesh => target > cur,
            Topology::FoldedTorus => forward <= backward,
        };
        if go_forward {
            (cur + 1) % len
        } else {
            (cur + len - 1) % len
        }
    }

    #[test]
    fn routes_have_hop_count_edges_and_correct_endpoints() {
        for (w, h) in swept_shapes() {
            for topo in [Topology::FoldedTorus, Topology::Mesh] {
                for a in 0..w * h {
                    for b in 0..w * h {
                        let from = TileId::new(a);
                        let to = TileId::new(b);
                        let route = route(topo, from, to, w, h);
                        assert_eq!(route.first().copied(), Some(from));
                        assert_eq!(route.last().copied(), Some(to));
                        assert_eq!(
                            route.len() as u32 - 1,
                            topo.hops(from, to, w, h),
                            "{topo} {w}x{h} {a}->{b}"
                        );
                        // Each step moves exactly one hop.
                        for pair in route.windows(2) {
                            assert_eq!(topo.hops(pair[0], pair[1], w, h), 1);
                        }
                    }
                }
            }
        }
    }

    proptest! {
        /// Routes always have exactly `hops` edges, on both topologies and
        /// every grid shape the sweeps use.
        #[test]
        fn route_length_equals_hop_count(
            from in 0usize..64,
            to in 0usize..64,
            torus in any::<bool>(),
            shape in 0usize..7,
        ) {
            let (w, h) = swept_shapes()[shape];
            let from = TileId::new(from % (w * h));
            let to = TileId::new(to % (w * h));
            let topo = if torus { Topology::FoldedTorus } else { Topology::Mesh };
            let route = route(topo, from, to, w, h);
            prop_assert_eq!(route.len() as u32 - 1, topo.hops(from, to, w, h));
            prop_assert_eq!(route[0], from);
            prop_assert_eq!(*route.last().unwrap(), to);
            // Every step in the route is between adjacent tiles.
            for pair in route.windows(2) {
                prop_assert_eq!(topo.hops(pair[0], pair[1], w, h), 1);
            }
        }
    }

    #[test]
    fn distances_are_symmetric() {
        for &topo in &[Topology::FoldedTorus, Topology::Mesh] {
            for a in 0..16 {
                for b in 0..16 {
                    assert_eq!(
                        topo.hops(TileId::new(a), TileId::new(b), W, H),
                        topo.hops(TileId::new(b), TileId::new(a), W, H)
                    );
                }
            }
        }
    }

    #[test]
    fn rectangular_grid_4x2() {
        let t = Topology::FoldedTorus;
        // 4x2 torus used by the 8-core desktop configuration.
        assert_eq!(t.hops(TileId::new(0), TileId::new(7), 4, 2), 2);
        assert_eq!(t.hops(TileId::new(0), TileId::new(4), 4, 2), 1);
    }

    #[test]
    fn display_names() {
        assert_eq!(Topology::FoldedTorus.to_string(), "2-D folded torus");
        assert_eq!(Topology::Mesh.to_string(), "2-D mesh");
    }
}
