//! Randomized differential test: the flat-slab [`CacheArray`] against a
//! straightforward reference model.
//!
//! The reference keeps each set as a `Vec` in strict recency order (most
//! recent last) — the obviously-correct encoding of true LRU — and the test
//! drives both implementations through a long random mix of probes, fills,
//! entry-handle fill sequences, invalidations, block-range shoot-downs,
//! and clears, comparing every return value, every eviction, the statistics
//! counters, and (periodically) the full resident contents. Any divergence
//! in the packed-age LRU bookkeeping, the occupancy masks, or backward
//! compatibility of the classic `insert` path fails loudly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rnuca_cache::{CacheArray, ProbeEntry};
use rnuca_types::addr::BlockAddr;
use rnuca_types::config::CacheGeometry;

/// Reference model: per-set recency lists, most recently used last.
struct RefModel {
    num_sets: usize,
    ways: usize,
    sets: Vec<Vec<(u64, u64)>>,
}

impl RefModel {
    fn new(geometry: CacheGeometry) -> Self {
        RefModel {
            num_sets: geometry.num_sets(),
            ways: geometry.ways,
            sets: vec![Vec::new(); geometry.num_sets()],
        }
    }

    fn set_of(&self, block: u64) -> usize {
        (block as usize) % self.num_sets
    }

    /// Probe with LRU refresh; returns the metadata on a hit.
    fn probe(&mut self, block: u64) -> Option<u64> {
        let set_idx = self.set_of(block);
        let set = &mut self.sets[set_idx];
        let pos = set.iter().position(|&(b, _)| b == block)?;
        let entry = set.remove(pos);
        set.push(entry);
        Some(entry.1)
    }

    fn peek(&self, block: u64) -> Option<u64> {
        self.sets[self.set_of(block)]
            .iter()
            .find(|&&(b, _)| b == block)
            .map(|&(_, m)| m)
    }

    /// Insert: replace + refresh on a duplicate, else fill, evicting the LRU
    /// head when the set is full. Returns the eviction.
    fn insert(&mut self, block: u64, meta: u64) -> Option<(u64, u64)> {
        let ways = self.ways;
        let set_idx = self.set_of(block);
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|&(b, _)| b == block) {
            set.remove(pos);
            set.push((block, meta));
            return None;
        }
        let evicted = if set.len() >= ways {
            Some(set.remove(0))
        } else {
            None
        };
        set.push((block, meta));
        evicted
    }

    fn invalidate(&mut self, block: u64) -> Option<u64> {
        let set_idx = self.set_of(block);
        let set = &mut self.sets[set_idx];
        let pos = set.iter().position(|&(b, _)| b == block)?;
        Some(set.remove(pos).1)
    }

    /// Removes every block numbered `first..first + count`, returning them.
    fn invalidate_range(&mut self, first: u64, count: u64) -> Vec<(u64, u64)> {
        let mut removed = Vec::new();
        for set in &mut self.sets {
            set.retain(|&(b, m)| {
                if (first..first + count).contains(&b) {
                    removed.push((b, m));
                    false
                } else {
                    true
                }
            });
        }
        removed
    }

    fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    fn contents(&self) -> Vec<(u64, u64)> {
        let mut all: Vec<(u64, u64)> = self.sets.iter().flatten().copied().collect();
        all.sort_unstable();
        all
    }
}

fn b(n: u64) -> BlockAddr {
    BlockAddr::from_block_number(n)
}

fn drive(geometry: CacheGeometry, seed: u64, steps: u32, key_space: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ours: CacheArray<u64> = CacheArray::new(geometry);
    let mut reference = RefModel::new(geometry);

    for step in 0..steps {
        let block = rng.gen_range(0..key_space);
        let meta = u64::from(step);
        match rng.gen_range(0..100) {
            // Probe with LRU side effects.
            0..=29 => {
                assert_eq!(ours.probe(b(block)).copied(), reference.probe(block));
            }
            // The classic lookup-then-insert path.
            30..=54 => {
                let ev = ours.insert(b(block), meta);
                let ref_ev = reference.insert(block, meta);
                assert_eq!(
                    ev.map(|e| (e.block.block_number(), e.meta)),
                    ref_ev,
                    "insert eviction diverged at step {step}"
                );
            }
            // The single-probe entry-handle path the simulator uses.
            55..=74 => match ours.probe_entry(b(block)) {
                ProbeEntry::Hit(entry) => {
                    assert_eq!(reference.probe(block), Some(*ours.entry_meta(entry)));
                    *ours.entry_meta_mut(entry) = meta;
                    reference.insert(block, meta); // refresh + replace
                }
                ProbeEntry::Miss(slot) => {
                    assert_eq!(reference.probe(block), None);
                    let (entry, ev) = ours.fill_at(slot, b(block), meta);
                    assert_eq!(ours.entry_meta(entry), &meta);
                    let ref_ev = reference.insert(block, meta);
                    assert_eq!(
                        ev.map(|e| (e.block.block_number(), e.meta)),
                        ref_ev,
                        "fill_at eviction diverged at step {step}"
                    );
                }
            },
            // Peek must not disturb anything.
            75..=84 => {
                assert_eq!(ours.peek(b(block)).copied(), reference.peek(block));
                assert_eq!(ours.contains(b(block)), reference.peek(block).is_some());
            }
            // Invalidation.
            85..=94 => {
                assert_eq!(ours.invalidate(b(block)), reference.invalidate(block));
            }
            // Page shoot-down over a block range, page-aligned or not. The
            // widths span ranges narrower and wider than the set count, so
            // in the latter sets repeat within one sweep.
            95..=98 => {
                let count = [8u64, 128][rng.gen_range(0..2)];
                let first = if rng.gen_bool(0.5) {
                    block & !(count - 1)
                } else {
                    block
                };
                let invalidations = ours.stats().invalidations;
                let removed = ours.invalidate_range(b(first), count as usize);
                let ref_removed = reference.invalidate_range(first, count);
                assert_eq!(
                    removed,
                    ref_removed.len(),
                    "shoot-down diverged at step {step}"
                );
                assert_eq!(
                    ours.stats().invalidations - invalidations,
                    removed as u64,
                    "each removed block counts one invalidation"
                );
                let mut contents: Vec<(u64, u64)> = ours
                    .iter()
                    .map(|(blk, &m)| (blk.block_number(), m))
                    .collect();
                contents.sort_unstable();
                assert_eq!(
                    contents,
                    reference.contents(),
                    "contents diverged at step {step}"
                );
            }
            // Occasional full clear.
            _ => {
                ours.clear();
                reference.sets.iter_mut().for_each(Vec::clear);
            }
        }
        assert_eq!(ours.len(), reference.len(), "len diverged at step {step}");
        assert_eq!(ours.is_empty(), reference.len() == 0);
        if step % 4096 == 0 {
            let mut contents: Vec<(u64, u64)> = ours
                .iter()
                .map(|(blk, &m)| (blk.block_number(), m))
                .collect();
            contents.sort_unstable();
            assert_eq!(contents, reference.contents(), "contents diverged");
        }
    }
    // Final full comparison.
    let mut contents: Vec<(u64, u64)> = ours
        .iter()
        .map(|(blk, &m)| (blk.block_number(), m))
        .collect();
    contents.sort_unstable();
    assert_eq!(contents, reference.contents());
}

#[test]
fn flat_slab_matches_reference_on_a_tiny_thrashing_geometry() {
    // 4 sets x 2 ways with a small key universe: constant conflict misses,
    // evictions, and duplicate-key refreshes.
    drive(CacheGeometry::new(512, 2, 64).unwrap(), 0xA11CE, 40_000, 64);
}

#[test]
fn flat_slab_matches_reference_on_a_wide_set() {
    // 2 sets x 16 ways: deep LRU chains exercise the packed-age ranks hard.
    drive(CacheGeometry::new(2048, 16, 64).unwrap(), 0xB0B, 40_000, 96);
}

#[test]
fn flat_slab_matches_reference_on_a_realistic_slice() {
    // 64 sets x 8 ways with a larger key space: a mix of cold sets, capacity
    // pressure, and shoot-downs, as the simulator's L2 slices see.
    drive(
        CacheGeometry::new(32_768, 8, 64).unwrap(),
        0xC0DE,
        60_000,
        4_096,
    );
}

#[test]
fn single_way_sets_degenerate_to_direct_mapped() {
    drive(CacheGeometry::new(256, 1, 64).unwrap(), 0xD1CE, 20_000, 32);
}
