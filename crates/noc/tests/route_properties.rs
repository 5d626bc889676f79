//! Property-based tests of the interconnect model.

use proptest::prelude::*;
use rnuca_noc::Network;
use rnuca_types::config::SystemConfig;
use rnuca_types::ids::TileId;

proptest! {
    /// Torus distances never exceed the Manhattan (mesh) distance, and
    /// respect the triangle inequality.
    #[test]
    fn torus_never_longer_than_mesh_and_triangle_inequality(
        a in 0usize..16,
        b in 0usize..16,
        c in 0usize..16,
    ) {
        let (a, b, c) = (TileId::new(a), TileId::new(b), TileId::new(c));
        let net = Network::new(SystemConfig::server_16().torus);
        let ((ax, ay), (bx, by)) = (a.coords(4), b.coords(4));
        prop_assert!(net.hops(a, b) as usize <= ax.abs_diff(bx) + ay.abs_diff(by));
        prop_assert!(net.hops(a, c) <= net.hops(a, b) + net.hops(b, c));
    }

    /// One-way latency grows monotonically with payload size and is zero only
    /// for the zero-hop case.
    #[test]
    fn latency_monotonic_in_payload(from in 0usize..16, to in 0usize..16, payload in 1usize..512) {
        let net = Network::new(SystemConfig::server_16().torus);
        let (from, to) = (TileId::new(from), TileId::new(to));
        let small = net.one_way_latency(from, to, payload);
        let large = net.one_way_latency(from, to, payload + 32);
        prop_assert!(large >= small);
        if from == to {
            prop_assert_eq!(small.value(), 0);
        } else {
            prop_assert!(small.value() > 0);
        }
    }
}
