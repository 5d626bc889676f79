//! Property-based tests of the R-NUCA placement invariants.
//!
//! These exercise the guarantees the paper leans on:
//! * every access has exactly one servicing slice (single-probe lookup),
//! * shared data has a core-independent home (no L2 coherence needed),
//! * instruction homes stay within the requesting core's fixed-center cluster,
//! * rotational interleaving never stores more than one address residue per
//!   slice (replication without added capacity pressure),
//! * private data is always local.

use proptest::prelude::*;
use rnuca::placement::{PlacementConfig, PlacementEngine};
use rnuca::rotational::RotationalMap;
use rnuca_os::PageClass;
use rnuca_types::addr::BlockAddr;
use rnuca_types::config::SystemConfig;
use rnuca_types::ids::{CoreId, TileId};

fn engine_with_cluster(n: usize) -> PlacementEngine {
    PlacementEngine::new(
        PlacementConfig::from_system(&SystemConfig::server_16()).with_instr_cluster_size(n),
    )
}

proptest! {
    #[test]
    fn private_data_is_always_local(block in 0u64..1_000_000, core in 0usize..16) {
        let engine = engine_with_cluster(4);
        let home = engine.place(PageClass::Private, BlockAddr::from_block_number(block), CoreId::new(core));
        prop_assert_eq!(home, TileId::new(core));
    }

    #[test]
    fn shared_home_is_independent_of_the_requester(
        block in 0u64..1_000_000,
        core_a in 0usize..16,
        core_b in 0usize..16,
    ) {
        let engine = engine_with_cluster(4);
        let b = BlockAddr::from_block_number(block);
        prop_assert_eq!(
            engine.place(PageClass::Shared, b, CoreId::new(core_a)),
            engine.place(PageClass::Shared, b, CoreId::new(core_b))
        );
    }

    #[test]
    fn instruction_home_is_inside_the_cluster_and_within_one_hop_for_size4(
        block in 0u64..1_000_000,
        core in 0usize..16,
    ) {
        let engine = engine_with_cluster(4);
        let core = CoreId::new(core);
        let b = BlockAddr::from_block_number(block);
        let home = engine.place(PageClass::Instruction, b, core);
        prop_assert!(engine.instruction_cluster(core).contains(&home));
        // Size-4 fixed-center clusters keep instructions within one torus hop.
        let (cx, cy) = core.tile().coords(4);
        let (hx, hy) = home.coords(4);
        let dx = cx.abs_diff(hx).min(4 - cx.abs_diff(hx));
        let dy = cy.abs_diff(hy).min(4 - cy.abs_diff(hy));
        prop_assert!(dx + dy <= 1);
    }

    #[test]
    fn rotational_capacity_invariant_holds_for_all_power_of_two_sizes(
        core in 0usize..16,
        residue in 0usize..16,
        size_idx in 0usize..5,
    ) {
        let n = [1usize, 2, 4, 8, 16][size_idx];
        let map = RotationalMap::new(n, 4, 4);
        let residue = residue % n;
        let home = map.home_for_residue(TileId::new(core), residue);
        // The slice chosen for this residue must be a slice that stores exactly
        // this residue, no matter which tile asked.
        prop_assert_eq!(map.stored_residue(home), residue);
    }

    #[test]
    fn placement_is_deterministic(block in 0u64..1_000_000, core in 0usize..16) {
        let engine = engine_with_cluster(4);
        let b = BlockAddr::from_block_number(block);
        let c = CoreId::new(core);
        for class in [PageClass::Private, PageClass::Shared, PageClass::Instruction] {
            prop_assert_eq!(engine.place(class, b, c), engine.place(class, b, c));
        }
    }

    #[test]
    fn shared_homes_are_balanced_over_slices(seed in 0u64..1_000) {
        // Any window of 1024 consecutive interleave values spreads evenly.
        let engine = engine_with_cluster(4);
        let mut counts = [0usize; 16];
        for i in 0..1024u64 {
            let block = BlockAddr::from_block_number((seed * 1024 + i) << 10);
            counts[engine.shared_home(block).index()] += 1;
        }
        let min = *counts.iter().min().unwrap();
        let max = *counts.iter().max().unwrap();
        prop_assert_eq!(min, max, "perfect interleaving expected, got {:?}", counts);
    }
}
