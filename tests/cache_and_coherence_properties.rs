//! Property-based tests of the cache array and directory substrates.

use proptest::prelude::*;
use rnuca_cache::{CacheArray, VictimCache};
use rnuca_coherence::{Directory, ReadSource};
use rnuca_types::addr::BlockAddr;
use rnuca_types::config::CacheGeometry;
use rnuca_types::ids::TileId;

proptest! {
    /// The cache never holds more blocks than its geometry allows, and a block
    /// just inserted is always resident immediately afterwards.
    #[test]
    fn cache_capacity_is_never_exceeded(blocks in proptest::collection::vec(0u64..10_000, 1..400)) {
        let geometry = CacheGeometry::new(16 * 1024, 4, 64).unwrap();
        let mut cache: CacheArray<u64> = CacheArray::new(geometry);
        for (i, b) in blocks.iter().enumerate() {
            let block = BlockAddr::from_block_number(*b);
            cache.insert(block, i as u64);
            prop_assert!(cache.contains(block));
            prop_assert!(cache.len() <= geometry.num_blocks());
        }
    }

    /// Probing after an insert hits until the block is invalidated, after which it misses.
    #[test]
    fn insert_probe_invalidate_roundtrip(block in 0u64..1_000_000, value in 0u64..1000) {
        let geometry = CacheGeometry::new(8 * 1024, 2, 64).unwrap();
        let mut cache: CacheArray<u64> = CacheArray::new(geometry);
        let b = BlockAddr::from_block_number(block);
        cache.insert(b, value);
        prop_assert_eq!(cache.probe(b), Some(&value));
        prop_assert_eq!(cache.invalidate(b), Some(value));
        prop_assert_eq!(cache.probe(b), None);
    }

    /// The victim cache never grows beyond its capacity and recalls exactly
    /// what was inserted (most recent first when over capacity).
    #[test]
    fn victim_cache_is_bounded(entries in proptest::collection::vec(0u64..100, 0..64), cap in 1usize..8) {
        let mut v: VictimCache<u64> = VictimCache::new(cap);
        for &e in &entries {
            v.insert(BlockAddr::from_block_number(e), e);
            prop_assert!(v.len() <= cap);
        }
    }

    /// Directory invariant: after any sequence of reads and writes, each block
    /// has at most one owner and every writer ends exclusive.
    #[test]
    fn directory_write_leaves_single_sharer(
        ops in proptest::collection::vec((0u64..32, 0usize..8, any::<bool>()), 1..200)
    ) {
        let mut dir = Directory::new(8);
        for (block, tile, is_write) in ops {
            let b = BlockAddr::from_block_number(block);
            let t = TileId::new(tile);
            if is_write {
                prop_assert!(!dir.handle_write(b, t).contains(t));
                prop_assert_eq!(dir.sharers(b).len(), 1);
                prop_assert_eq!(dir.owner(b), Some(t));
            } else {
                let source = dir.handle_read(b, t);
                prop_assert!(dir.sharers(b).contains(t));
                if let ReadSource::Cache(supplier) = source {
                    prop_assert_ne!(supplier, t, "a forward must come from another tile");
                }
            }
        }
    }

    /// Evicting every sharer of a block leaves the directory with no entry for it.
    #[test]
    fn directory_forgets_fully_evicted_blocks(readers in proptest::collection::vec(0usize..8, 1..8)) {
        let mut dir = Directory::new(8);
        let b = BlockAddr::from_block_number(7);
        for &r in &readers {
            dir.handle_read(b, TileId::new(r));
        }
        for &r in &readers {
            dir.handle_eviction(b, TileId::new(r));
        }
        prop_assert!(!dir.is_cached(b));
    }
}
