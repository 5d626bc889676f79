//! Per-layer replays: one workload reference stream, mapped onto the inputs
//! of the cache, coherence, OS, placement and index-map layers and fed
//! through their public calls, one timed span per layer.
//!
//! This approximates from outside the op stream the simulator issues: every
//! reference probes the issuing tile's slice, every store and load is a
//! directory transaction, every reference is classified by the OS and
//! placed by R-NUCA's placement engine.

use crate::trace::Tracer;
use rnuca::{PlacementConfig, PlacementEngine};
use rnuca_cache::{CacheArray, ProbeEntry, VictimCache};
use rnuca_coherence::Directory;
use rnuca_os::{OsClassifier, PageClass};
use rnuca_types::{AccessKind, BlockAddr, MemoryAccess, SystemConfig, U64Map};
use std::hint::black_box;

/// TLB entries per core, as the simulator builds its OS classifier.
const TLB_ENTRIES: usize = 512;
/// Initial capacity of the dirty-block map, as the simulator sizes it.
const DIRTY_MAP_CAPACITY: usize = 16_384;

/// One event the slice replay hands to the victim buffers and directory.
#[derive(Clone, Copy)]
enum SliceEvent {
    /// The tile's slice missed on the block.
    Miss(usize, BlockAddr),
    /// Reference `at` made the tile's slice evict the block.
    Evict {
        at: usize,
        tile: usize,
        block: BlockAddr,
    },
}

/// Replays `refs` through every layer at `cfg`'s geometry, recording one
/// span per layer tagged with `tag`.
pub fn replay(t: &mut Tracer, tag: &str, cfg: &SystemConfig, refs: &[MemoryAccess]) {
    let events = cache_layer(t, tag, cfg, refs);
    victim_layer(t, tag, cfg, &events);
    coherence_layer(t, tag, cfg, refs, &events);
    let classes = os_layer(t, tag, cfg, refs);
    placement_layer(t, tag, cfg, refs, &classes);
    index_map_layer(t, tag, cfg, refs);
}

fn cache_layer(
    t: &mut Tracer,
    tag: &str,
    cfg: &SystemConfig,
    refs: &[MemoryAccess],
) -> Vec<SliceEvent> {
    let geometry = cfg.l2_slice.geometry;
    let block_bytes = geometry.block_bytes;
    let mut slices: Vec<CacheArray<()>> = (0..cfg.num_tiles())
        .map(|_| CacheArray::new(geometry))
        .collect();
    let mut events = Vec::with_capacity(refs.len() / 2);
    let span = t.begin("cache.probe", tag);
    for (i, a) in refs.iter().enumerate() {
        let tile = a.core.tile().index();
        let block = a.addr.block(block_bytes);
        if let ProbeEntry::Miss(set) = slices[tile].probe_entry(block) {
            events.push(SliceEvent::Miss(tile, block));
            if let (_, Some(evicted)) = slices[tile].fill_at(set, block, ()) {
                events.push(SliceEvent::Evict {
                    at: i,
                    tile,
                    block: evicted.block,
                });
            }
        }
    }
    let hits: u64 = slices.iter().map(|s| s.stats().hits).sum();
    let probes: u64 = slices.iter().map(|s| s.stats().probes()).sum();
    t.end(
        span,
        &[
            ("ops", refs.len() as u64),
            ("hits", hits),
            ("probes", probes),
        ],
    );
    events
}

fn victim_layer(t: &mut Tracer, tag: &str, cfg: &SystemConfig, events: &[SliceEvent]) {
    let mut buffers: Vec<VictimCache<()>> = (0..cfg.num_tiles())
        .map(|_| VictimCache::new(cfg.l2_slice.victim_entries))
        .collect();
    let mut recalled = 0u64;
    let span = t.begin("cache.victim", tag);
    for &e in events {
        match e {
            SliceEvent::Miss(tile, block) => {
                recalled += u64::from(buffers[tile].recall(block).is_some());
            }
            SliceEvent::Evict { tile, block, .. } => {
                black_box(buffers[tile].insert(block, ()));
            }
        }
    }
    t.end(span, &[("ops", events.len() as u64), ("recalls", recalled)]);
}

fn coherence_layer(
    t: &mut Tracer,
    tag: &str,
    cfg: &SystemConfig,
    refs: &[MemoryAccess],
    events: &[SliceEvent],
) {
    let block_bytes = cfg.l2_slice.geometry.block_bytes;
    // Interleave each reference's transaction with the evictions its slice
    // fill caused, in stream order.
    let evictions: Vec<(usize, BlockAddr)> = events
        .iter()
        .filter_map(|e| match *e {
            SliceEvent::Evict { at, block, .. } => Some((at, block)),
            SliceEvent::Miss(..) => None,
        })
        .collect();
    let mut next = 0;
    let mut dir = Directory::new(cfg.num_tiles());
    let span = t.begin("coherence.dir", tag);
    for (i, a) in refs.iter().enumerate() {
        let tile = a.core.tile();
        let block = a.addr.block(block_bytes);
        if a.kind == AccessKind::Write {
            black_box(dir.handle_write(block, tile));
        } else {
            black_box(dir.handle_read(block, tile));
        }
        if let Some(&(at, evicted)) = evictions.get(next) {
            if at == i {
                black_box(dir.handle_eviction(evicted, tile));
                next += 1;
            }
        }
    }
    let ops = (refs.len() + evictions.len()) as u64;
    let stats = *dir.stats();
    t.end(
        span,
        &[
            ("ops", ops),
            ("writes", stats.writes),
            ("invalidations", stats.invalidations_sent),
        ],
    );
}

fn os_layer(
    t: &mut Tracer,
    tag: &str,
    cfg: &SystemConfig,
    refs: &[MemoryAccess],
) -> Vec<PageClass> {
    let page_bytes = cfg.memory.page_bytes;
    let mut os = OsClassifier::new(cfg.num_cores, TLB_ENTRIES);
    let mut classes = Vec::with_capacity(refs.len());
    let span = t.begin("os.classify", tag);
    for a in refs {
        let page = a.addr.page(page_bytes);
        classes.push(os.access(page, a.core, a.kind.is_instr_fetch()).class);
    }
    let stats = *os.stats();
    t.end(
        span,
        &[
            ("ops", refs.len() as u64),
            ("tlb_misses", stats.tlb_misses),
            ("tlb_lookups", stats.tlb_hits + stats.tlb_misses),
            ("reclassifications", stats.reclassifications),
        ],
    );
    classes
}

fn placement_layer(
    t: &mut Tracer,
    tag: &str,
    cfg: &SystemConfig,
    refs: &[MemoryAccess],
    classes: &[PageClass],
) {
    let block_bytes = cfg.l2_slice.geometry.block_bytes;
    let engine = PlacementEngine::new(PlacementConfig::from_system(cfg));
    let mut checksum = 0usize;
    let span = t.begin("core.place", tag);
    for (a, &class) in refs.iter().zip(classes) {
        checksum = checksum.wrapping_add(
            engine
                .place(class, a.addr.block(block_bytes), a.core)
                .index(),
        );
    }
    black_box(checksum);
    t.end(span, &[("ops", refs.len() as u64)]);
}

/// The simulator's dirty-in-some-L1 pattern: stores insert the block, other
/// references look it up and, when found, take it out again.
fn index_map_layer(t: &mut Tracer, tag: &str, cfg: &SystemConfig, refs: &[MemoryAccess]) {
    let block_bytes = cfg.l2_slice.geometry.block_bytes;
    let mut map: U64Map<u64> = U64Map::with_capacity(DIRTY_MAP_CAPACITY);
    let span = t.begin("types.u64map", tag);
    for (i, a) in refs.iter().enumerate() {
        let key = a.addr.block(block_bytes).block_number();
        if a.kind == AccessKind::Write {
            map.insert(key, i as u64);
        } else if let Some(slot) = map.find_slot(key) {
            black_box(map.remove_slot(slot));
        }
    }
    t.end(
        span,
        &[("ops", refs.len() as u64), ("live", map.len() as u64)],
    );
}
