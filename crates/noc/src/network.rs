//! The network façade: one-way latency queries on the paper's folded torus.

use crate::topology::Topology;
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

    /// Hop count between two tiles.
    pub fn hops(&self, from: TileId, to: TileId) -> u32 {
        Topology::FoldedTorus.hops(from, to, self.config.width, self.config.height)
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

#[cfg(test)]
mod tests {
    use super::*;
    use rnuca_types::config::SystemConfig;

    fn server_net() -> Network {
        Network::new(SystemConfig::server_16().torus)
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
}
