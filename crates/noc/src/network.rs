//! The network façade: one-way latency queries on the paper's folded torus.

use rnuca_types::config::NocConfig;
use rnuca_types::ids::TileId;
use rnuca_types::latency::Cycles;

/// An on-chip network instance: the paper's 2-D folded torus with the Table 1
/// link/router parameters.
///
/// The network is a *latency oracle* for the trace-driven simulator: it
/// answers "how many cycles does a message of this size take from tile A to
/// tile B". It models no contention, so the simulator reads these answers
/// once into per-tile-pair lookup tables.
#[derive(Debug, Clone)]
pub struct Network {
    config: NocConfig,
}

impl Network {
    /// Creates a folded-torus network with the given parameters.
    pub fn new(config: NocConfig) -> Self {
        Network { config }
    }

    /// Minimal hop count between two tiles: the sum of the per-axis ring
    /// distances, since a dimension-order (X then Y) walk is a shortest path
    /// on the torus.
    pub fn hops(&self, from: TileId, to: TileId) -> u32 {
        let (width, height) = (self.config.width, self.config.height);
        let (fx, fy) = from.coords(width);
        let (tx, ty) = to.coords(width);
        (ring_distance(fx, tx, width) + ring_distance(fy, ty, height)) as u32
    }

    /// One-way latency of a control message (head flit only) between two tiles.
    pub fn control_latency(&self, from: TileId, to: TileId) -> Cycles {
        self.one_way_latency(from, to, 8)
    }

    /// One-way latency of a data message carrying `block_bytes` of payload.
    pub fn data_latency(&self, from: TileId, to: TileId, block_bytes: usize) -> Cycles {
        self.one_way_latency(from, to, block_bytes + 8)
    }

    /// One-way latency for an arbitrary payload size.
    ///
    /// The head flit pays `hops * (link + router)`; the remaining flits of the
    /// payload stream behind it (wormhole routing), adding
    /// `ceil(payload / link_bytes) - 1` cycles of serialization.
    pub fn one_way_latency(&self, from: TileId, to: TileId, payload_bytes: usize) -> Cycles {
        let hops = self.hops(from, to);
        if hops == 0 {
            return Cycles::ZERO;
        }
        let head = self.config.hop_latency() * hops;
        let flits = payload_bytes.div_ceil(self.config.link_bytes).max(1) as u64;
        head + Cycles(flits - 1)
    }
}

/// Distance between coordinates `a` and `b` along one folded-torus axis of
/// `len` tiles: every row and column wraps around, so it is at most `len / 2`.
fn ring_distance(a: usize, b: usize, len: usize) -> usize {
    let direct = a.abs_diff(b);
    direct.min(len - direct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rnuca_types::config::SystemConfig;

    fn server_net() -> Network {
        Network::new(SystemConfig::server_16().torus)
    }

    /// The network of a `width x height` torus with Table 1's link parameters.
    fn grid(width: usize, height: usize) -> Network {
        Network::new(NocConfig {
            width,
            height,
            ..SystemConfig::server_16().torus
        })
    }

    fn hops(net: &Network, a: usize, b: usize) -> u32 {
        net.hops(TileId::new(a), TileId::new(b))
    }

    #[test]
    fn zero_hop_latency_is_zero() {
        let net = server_net();
        assert_eq!(
            net.control_latency(TileId::new(3), TileId::new(3)),
            Cycles::ZERO
        );
    }

    #[test]
    fn control_latency_is_hops_times_three() {
        let net = server_net();
        // 1 hop = 1 link + 2 router = 3 cycles; control message fits in one flit.
        assert_eq!(
            net.control_latency(TileId::new(0), TileId::new(1)),
            Cycles(3)
        );
        // Tile 10 at (2,2) is the antipode of tile 0: 4 hops = 12 cycles.
        assert_eq!(
            net.control_latency(TileId::new(0), TileId::new(10)),
            Cycles(12)
        );
        // On the 64-core 8x8 torus the antipode of tile 0 is tile 36 at (4,4):
        // 8 hops = 24 cycles.
        let cfg64 = SystemConfig::server_16()
            .with_core_count(64)
            .expect("64 cores is a valid shape");
        let net64 = Network::new(cfg64.torus);
        assert_eq!(net64.hops(TileId::new(0), TileId::new(36)), 8);
        assert_eq!(
            net64.control_latency(TileId::new(0), TileId::new(36)),
            Cycles(24)
        );
    }

    #[test]
    fn data_latency_adds_serialization() {
        let net = server_net();
        // 64B block + 8B header = 72B over 32B links = 3 flits -> +2 cycles.
        assert_eq!(
            net.data_latency(TileId::new(0), TileId::new(1), 64),
            Cycles(5)
        );
    }

    #[test]
    fn request_response_roundtrip() {
        let net = server_net();
        let rt = net.control_latency(TileId::new(0), TileId::new(2))
            + net.data_latency(TileId::new(2), TileId::new(0), 64);
        // 2 hops each way: request 6, response 6 + 2 serialization = 8; total 14.
        assert_eq!(rt, Cycles(14));
    }

    #[test]
    fn average_hops_to_a_cluster() {
        let net = server_net();
        // Tile 0's four torus neighbours, two of them over wraparound links.
        for neighbour in [1, 4, 3, 12] {
            assert_eq!(net.hops(TileId::new(0), TileId::new(neighbour)), 1);
        }
    }

    #[test]
    fn torus_wraps_around() {
        let net = server_net();
        // Tiles 0 (0,0) and 3 (3,0) are adjacent via the wraparound link.
        assert_eq!(hops(&net, 0, 3), 1);
        // Tiles 0 (0,0) and 12 (0,3) likewise.
        assert_eq!(hops(&net, 0, 12), 1);
        // The geometric "corner" tile 15 at (3,3) is only 1+1 hops away thanks to wraparound...
        assert_eq!(hops(&net, 0, 15), 2);
        // ...and the true antipode of tile 0 is tile 10 at (2,2), at the 4-hop diameter.
        assert_eq!(hops(&net, 0, 10), 4);
        // Self distance is zero.
        assert_eq!(hops(&net, 5, 5), 0);
    }

    #[test]
    fn rectangular_grid_4x2() {
        // The 4x2 torus of the 8-core desktop configuration.
        let net = Network::new(SystemConfig::desktop_8().torus);
        assert_eq!(hops(&net, 0, 7), 2);
        assert_eq!(hops(&net, 0, 4), 1);
    }

    #[test]
    fn distances_are_symmetric() {
        let net = server_net();
        for a in 0..16 {
            for b in 0..16 {
                assert_eq!(hops(&net, a, b), hops(&net, b, a));
            }
        }
    }

    #[test]
    fn diameters() {
        // The farthest pair is half of each axis apart: w/2 + h/2 hops.
        for (w, h, diameter) in [(4, 4, 4), (4, 2, 3), (8, 8, 8)] {
            let net = grid(w, h);
            let n = w * h;
            let max = (0..n)
                .flat_map(|a| (0..n).map(move |b| (a, b)))
                .map(|(a, b)| hops(&net, a, b))
                .max();
            assert_eq!(max, Some(diameter), "{w}x{h}");
        }
    }

    #[test]
    fn torus_average_distance() {
        // Over the 16 * 15 ordered pairs of distinct tiles of a 4x4 torus the
        // hop counts sum to 512: an average of 32/15.
        let net = server_net();
        let total: u32 = (0..16)
            .flat_map(|a| (0..16).map(move |b| (a, b)))
            .map(|(a, b)| hops(&net, a, b))
            .sum();
        assert_eq!(total, 512);
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

    /// The tiles a dimension-order (X then Y) walk over the wraparound
    /// links visits from `from` to `to`, both endpoints included: a
    /// step-by-step oracle for the closed-form [`Network::hops`].
    fn route(from: TileId, to: TileId, width: usize, height: usize) -> Vec<TileId> {
        let (mut x, mut y) = from.coords(width);
        let (tx, ty) = to.coords(width);
        let mut path = vec![from];
        while x != tx {
            x = step_towards(x, tx, width);
            path.push(TileId::from_coords(x, y, width));
        }
        while y != ty {
            y = step_towards(y, ty, height);
            path.push(TileId::from_coords(x, y, width));
        }
        path
    }

    /// Moves one step from `cur` towards `target` along a ring of length
    /// `len`, the shorter way round.
    fn step_towards(cur: usize, target: usize, len: usize) -> usize {
        let forward = (target + len - cur) % len; // steps going "up" with wraparound
        let backward = (cur + len - target) % len; // steps going "down" with wraparound
        if forward <= backward {
            (cur + 1) % len
        } else {
            (cur + len - 1) % len
        }
    }

    #[test]
    fn routes_have_hop_count_edges_and_correct_endpoints() {
        for (w, h) in swept_shapes() {
            let net = grid(w, h);
            for a in 0..w * h {
                for b in 0..w * h {
                    let from = TileId::new(a);
                    let to = TileId::new(b);
                    let route = route(from, to, w, h);
                    assert_eq!(route.first().copied(), Some(from));
                    assert_eq!(route.last().copied(), Some(to));
                    assert_eq!(
                        route.len() as u32 - 1,
                        net.hops(from, to),
                        "{w}x{h} {a}->{b}"
                    );
                    // Each step moves exactly one hop.
                    for pair in route.windows(2) {
                        assert_eq!(net.hops(pair[0], pair[1]), 1);
                    }
                }
            }
        }
    }

    proptest! {
        /// Routes always have exactly `hops` edges, on every grid shape the
        /// sweeps use.
        #[test]
        fn route_length_equals_hop_count(
            from in 0usize..64,
            to in 0usize..64,
            shape in 0usize..7,
        ) {
            let (w, h) = swept_shapes()[shape];
            let net = grid(w, h);
            let from = TileId::new(from % (w * h));
            let to = TileId::new(to % (w * h));
            let route = route(from, to, w, h);
            prop_assert_eq!(route.len() as u32 - 1, net.hops(from, to));
            prop_assert_eq!(route[0], from);
            prop_assert_eq!(*route.last().unwrap(), to);
            // Every step in the route is between adjacent tiles.
            for pair in route.windows(2) {
                prop_assert_eq!(net.hops(pair[0], pair[1]), 1);
            }
        }
    }
}
