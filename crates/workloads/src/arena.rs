//! The shared trace arena: generate each reference stream once, replay it
//! everywhere.
//!
//! The paper's headline experiments sweep five LLC designs over the *same*
//! workload reference streams — the comparison is only meaningful because
//! every design sees identical references. Yet generating a stream is
//! expensive (several RNG draws per reference), and a naive per-job runner
//! regenerates it once per design, once per ASR variant, once per timed
//! scenario. [`TraceArena`] removes that redundancy: each unique
//! `(workload profile, trace geometry, seed)` stream is materialized exactly
//! once into a compact structure-of-arrays [`TraceSlab`], and every job that
//! needs the stream replays it through a zero-copy [`TraceSlice`] cursor.
//!
//! Determinism guarantee: a slab holds exactly the sequence
//! [`TraceGenerator::next_access`] produces for the same spec and seed, so
//! replay is bit-identical to streaming generation — the arena changes how
//! fast experiments run, never what they compute. The randomized
//! differential tests below and the golden-result tests in `rnuca-sim` pin
//! this down.
//!
//! Memory footprint: a slab stores 11 bytes per reference (8-byte physical
//! address, 2-byte core index, 1-byte class+kind tag) — about 9.5 MiB for
//! the full configuration's 900 000 references, versus ~24 bytes per
//! [`MemoryAccess`] for an unpacked trace.

use crate::generator::TraceGenerator;
use crate::spec::{SharingPattern, WorkloadSpec};
use rnuca_types::access::{AccessClass, AccessKind, MemoryAccess};
use rnuca_types::addr::PhysAddr;
use rnuca_types::config::TraceGeometry;
use rnuca_types::ids::CoreId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// A source of L2 references the simulator can drive.
///
/// Implemented by the streaming [`TraceGenerator`] (draws each reference
/// from its RNG) and by [`TraceSlice`] (replays a memoized [`TraceSlab`]).
/// Both yield the identical sequence for the same workload and seed, so a
/// simulator driven by either produces bit-identical results.
pub trait TraceSource {
    /// Fills `buf` with the next `n` references, clearing it first.
    fn fill_into(&mut self, n: usize, buf: &mut Vec<MemoryAccess>);
}

impl TraceSource for TraceGenerator {
    fn fill_into(&mut self, n: usize, buf: &mut Vec<MemoryAccess>) {
        self.generate_into(n, buf);
    }
}

/// The memoization key of one reference stream.
///
/// Two jobs share a slab exactly when their streams are guaranteed equal:
/// same workload name, same *profile fingerprint* (every spec field the
/// generator reads, hashed, so a mutated spec reusing a preset's name cannot
/// alias its stream), same [`TraceGeometry`] (the configuration subset that
/// shapes stream contents — core count and block/page sizes; slice capacity
/// and latencies deliberately excluded), and same seed.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TraceKey {
    workload: String,
    geometry: TraceGeometry,
    profile: u64,
    seed: u64,
}

impl TraceKey {
    /// The key of `spec`'s stream under `seed`.
    pub fn new(spec: &WorkloadSpec, seed: u64) -> Self {
        TraceKey {
            workload: spec.name.clone(),
            geometry: spec.system_config().trace_geometry(),
            profile: profile_fingerprint(spec),
            seed,
        }
    }

    /// The workload name this key belongs to.
    pub fn workload(&self) -> &str {
        &self.workload
    }

    /// The seed this key's stream was generated with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The trace geometry (core count, block and page sizes) that shaped
    /// this key's stream contents.
    pub fn geometry(&self) -> TraceGeometry {
        self.geometry
    }
}

/// FNV-1a over every spec field the generator's output depends on. The
/// fields that only shape simulation cost (busy CPI, reference rate) are
/// deliberately excluded so cost-model tweaks keep sharing slabs.
fn profile_fingerprint(spec: &WorkloadSpec) -> u64 {
    let sharing = match spec.sharing {
        SharingPattern::Universal => 0,
        SharingPattern::NearestNeighbor { degree } => 1 | ((degree as u64) << 8),
        SharingPattern::ProducerConsumer => 2,
    };
    let mut h = rnuca_types::Fnv64::new();
    for v in [
        spec.instr_fraction.to_bits(),
        spec.private_fraction.to_bits(),
        spec.shared_fraction.to_bits(),
        spec.instr_footprint_kb,
        spec.private_footprint_kb_per_core,
        spec.shared_footprint_kb,
        spec.shared_write_fraction.to_bits(),
        spec.private_write_fraction.to_bits(),
        sharing,
        spec.hot_access_fraction.to_bits(),
        spec.hot_footprint_fraction.to_bits(),
    ] {
        h.write_u64(v);
    }
    h.finish()
}

/// Bits 0-1 of a slab tag: the access class.
const TAG_CLASS_MASK: u8 = 0b0011;
/// Bits 2-3 of a slab tag: the access kind.
const TAG_KIND_SHIFT: u8 = 2;

fn encode_tag(class: AccessClass, kind: AccessKind) -> u8 {
    let c = match class {
        AccessClass::Instruction => 0u8,
        AccessClass::PrivateData => 1,
        AccessClass::SharedData => 2,
    };
    let k = match kind {
        AccessKind::InstrFetch => 0u8,
        AccessKind::Read => 1,
        AccessKind::Write => 2,
    };
    c | (k << TAG_KIND_SHIFT)
}

fn decode_tag(tag: u8) -> (AccessClass, AccessKind) {
    let class = match tag & TAG_CLASS_MASK {
        0 => AccessClass::Instruction,
        1 => AccessClass::PrivateData,
        2 => AccessClass::SharedData,
        other => unreachable!("invalid class bits {other} in trace slab tag"),
    };
    let kind = match tag >> TAG_KIND_SHIFT {
        0 => AccessKind::InstrFetch,
        1 => AccessKind::Read,
        2 => AccessKind::Write,
        other => unreachable!("invalid kind bits {other} in trace slab tag"),
    };
    (class, kind)
}

/// One materialized reference stream in structure-of-arrays form.
///
/// Three parallel slabs — physical addresses, issuing-core indices, and
/// packed class+kind tags — hold the whole stream contiguously, so replay is
/// a linear walk decoding a handful of integer fields per reference instead
/// of the RNG draws and region arithmetic generation performs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSlab {
    addrs: Vec<u64>,
    cores: Vec<u16>,
    tags: Vec<u8>,
}

impl TraceSlab {
    /// Materializes the first `len` references of `spec`'s stream under `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails validation (as [`TraceGenerator::new`] does).
    pub fn generate(spec: &WorkloadSpec, seed: u64, len: usize) -> Self {
        let mut gen = TraceGenerator::new(spec, seed);
        let mut slab = TraceSlab {
            addrs: Vec::with_capacity(len),
            cores: Vec::with_capacity(len),
            tags: Vec::with_capacity(len),
        };
        for _ in 0..len {
            let a = gen.next_access();
            slab.addrs.push(a.addr.value());
            slab.cores.push(a.core.index() as u16);
            slab.tags.push(encode_tag(a.class, a.kind));
        }
        slab
    }

    /// Number of references held.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Whether the slab holds no references.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Heap bytes the packed stream occupies (11 bytes per reference).
    pub fn packed_bytes(&self) -> usize {
        self.addrs.len() * (std::mem::size_of::<u64>() + std::mem::size_of::<u16>() + 1)
    }

    /// Decodes reference `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> MemoryAccess {
        let (class, kind) = decode_tag(self.tags[i]);
        MemoryAccess::new(
            CoreId::new(self.cores[i] as usize),
            PhysAddr::new(self.addrs[i]),
            kind,
            class,
        )
    }
}

/// A zero-copy replay cursor over a shared [`TraceSlab`].
///
/// Slices are cheap to create (an `Arc` clone plus a position) and
/// independent: every job gets its own cursor over the one shared slab.
#[derive(Debug, Clone)]
pub struct TraceSlice {
    slab: Arc<TraceSlab>,
    pos: usize,
}

impl TraceSlice {
    /// A cursor at the start of `slab`.
    pub fn new(slab: Arc<TraceSlab>) -> Self {
        TraceSlice { slab, pos: 0 }
    }

    /// References not yet replayed.
    pub fn remaining(&self) -> usize {
        self.slab.len() - self.pos
    }

    /// The current replay position.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// The slab this cursor replays.
    pub fn slab(&self) -> &Arc<TraceSlab> {
        &self.slab
    }

    /// Advances the cursor past `n` references without decoding them.
    ///
    /// A clone of an already-warmed simulator uses this to seat its
    /// measured-phase cursor directly after the warm-up prefix the
    /// original consumed.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` references remain.
    pub fn skip(&mut self, n: usize) {
        assert!(
            n <= self.remaining(),
            "trace slab exhausted: cannot skip {n} of {} remaining references",
            self.remaining()
        );
        self.pos += n;
    }
}

impl TraceSource for TraceSlice {
    /// Decodes the next `n` references into `buf`, clearing it first. The
    /// produced sequence is identical to `n` calls of
    /// [`TraceGenerator::next_access`] on a generator at the same position.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` references remain — the arena sizes slabs to
    /// a run's full length up front, so exhaustion is a caller bug, and a
    /// silent short batch would corrupt the replayed stream.
    fn fill_into(&mut self, n: usize, buf: &mut Vec<MemoryAccess>) {
        assert!(
            n <= self.remaining(),
            "trace slab exhausted: {n} references requested, {} remain of {}",
            self.remaining(),
            self.slab.len()
        );
        buf.clear();
        buf.reserve(n);
        for i in self.pos..self.pos + n {
            buf.push(self.slab.get(i));
        }
        self.pos += n;
    }
}

/// Per-key slot: its own lock, so generating one stream never blocks
/// requests for a different one.
#[derive(Debug, Default)]
struct Cell {
    slab: Mutex<Option<Arc<TraceSlab>>>,
}

/// A thread-safe, memoizing store of materialized reference streams.
///
/// The arena guarantees each unique [`TraceKey`] is generated exactly once,
/// even under concurrent requests: the key map hands out per-key cells, and
/// generation happens under the cell's own lock (so two workers asking for
/// the *same* stream serialize on it and the second finds it filled, while
/// workers asking for *different* streams proceed in parallel).
///
/// Jobs resolve their stream through [`TraceArena::slice`]: the first
/// request generates the slab, later ones are a lock-and-clone. The perf
/// suite materializes its streams up front with [`TraceArena::populate`]
/// to time generation apart from simulation.
#[derive(Debug, Default)]
pub struct TraceArena {
    cells: Mutex<HashMap<TraceKey, Arc<Cell>>>,
    generations: AtomicUsize,
}

impl TraceArena {
    /// An empty arena.
    pub fn new() -> Self {
        TraceArena::default()
    }

    /// Number of distinct streams held.
    pub fn len(&self) -> usize {
        self.cells.lock().expect("arena key map poisoned").len()
    }

    /// Whether the arena holds no streams.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many times a stream was actually generated (diagnostics: equals
    /// [`TraceArena::len`] when every request was deduplicated, i.e. no
    /// stream was regenerated at a longer length).
    pub fn generations(&self) -> usize {
        self.generations.load(Ordering::Relaxed)
    }

    /// Total heap bytes of all packed streams currently held.
    pub fn packed_bytes(&self) -> usize {
        let cells: Vec<Arc<Cell>> = self
            .cells
            .lock()
            .expect("arena key map poisoned")
            .values()
            .cloned()
            .collect();
        cells
            .iter()
            .filter_map(|c| {
                c.slab
                    .lock()
                    .expect("arena cell poisoned")
                    .as_ref()
                    .map(|s| s.packed_bytes())
            })
            .sum()
    }

    /// The shared slab for `spec`'s stream under `seed`, holding at least
    /// `min_len` references — generated on first request, memoized after.
    ///
    /// If an earlier request materialized a shorter slab, the stream is
    /// regenerated at `min_len` and the result replaces it; determinism
    /// makes the old slab a strict prefix of the new one, so cursors already
    /// replaying the old `Arc` are unaffected.
    pub fn slab(&self, spec: &WorkloadSpec, seed: u64, min_len: usize) -> Arc<TraceSlab> {
        let cell = {
            let mut cells = self.cells.lock().expect("arena key map poisoned");
            Arc::clone(cells.entry(TraceKey::new(spec, seed)).or_default())
        };
        let mut slot = cell.slab.lock().expect("arena cell poisoned");
        if let Some(slab) = slot.as_ref() {
            if slab.len() >= min_len {
                return Arc::clone(slab);
            }
        }
        let slab = Arc::new(TraceSlab::generate(spec, seed, min_len));
        self.generations.fetch_add(1, Ordering::Relaxed);
        *slot = Some(Arc::clone(&slab));
        slab
    }

    /// A fresh replay cursor over the (possibly just materialized) stream.
    pub fn slice(&self, spec: &WorkloadSpec, seed: u64, min_len: usize) -> TraceSlice {
        TraceSlice::new(self.slab(spec, seed, min_len))
    }

    /// Ensures the stream is materialized at `min_len` references, without
    /// returning it — the up-front materialization entry point.
    pub fn populate(&self, spec: &WorkloadSpec, seed: u64, min_len: usize) {
        self.slab(spec, seed, min_len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn replayed(slice: &mut TraceSlice, n: usize, batch: usize) -> Vec<MemoryAccess> {
        let mut out = Vec::new();
        let mut buf = Vec::new();
        let mut left = n;
        while left > 0 {
            let take = left.min(batch);
            slice.fill_into(take, &mut buf);
            out.extend_from_slice(&buf);
            left -= take;
        }
        out
    }

    #[test]
    fn replay_is_identical_to_streaming_generation() {
        // Randomized differential test: across workloads, seeds, lengths,
        // and batch sizes, slab replay must yield the byte-identical access
        // sequence that streaming `next_access` calls produce.
        let mut rng = StdRng::seed_from_u64(0xA4E4A);
        let suite = WorkloadSpec::evaluation_suite();
        for trial in 0..12 {
            let spec = &suite[rng.gen_range(0..suite.len())];
            let seed: u64 = rng.gen_range(0..1_000_000);
            let len = rng.gen_range(1usize..5_000);
            let batch = rng.gen_range(1usize..700);

            let streamed: Vec<MemoryAccess> = TraceGenerator::new(spec, seed).take(len).collect();
            let slab = Arc::new(TraceSlab::generate(spec, seed, len));
            let decoded = replayed(&mut TraceSlice::new(Arc::clone(&slab)), len, batch);
            assert_eq!(
                streamed, decoded,
                "trial {trial}: {} seed {seed} len {len} batch {batch}",
                spec.name
            );
            // The Debug rendering (what golden digests pin) agrees too.
            assert_eq!(format!("{streamed:?}"), format!("{decoded:?}"));
        }
    }

    #[test]
    fn slab_packs_eleven_bytes_per_reference() {
        let spec = WorkloadSpec::oltp_db2();
        let slab = TraceSlab::generate(&spec, 1, 1_000);
        assert_eq!(slab.len(), 1_000);
        assert!(!slab.is_empty());
        assert_eq!(slab.packed_bytes(), 11 * 1_000);
    }

    #[test]
    fn tag_codec_round_trips_every_combination() {
        for class in AccessClass::ALL {
            for kind in [AccessKind::InstrFetch, AccessKind::Read, AccessKind::Write] {
                assert_eq!(decode_tag(encode_tag(class, kind)), (class, kind));
            }
        }
    }

    #[test]
    fn arena_generates_each_unique_key_exactly_once() {
        let arena = TraceArena::new();
        let spec = WorkloadSpec::em3d();
        let a = arena.slab(&spec, 7, 2_000);
        let b = arena.slab(&spec, 7, 2_000);
        let c = arena.slab(&spec, 7, 500); // shorter request: served by the same slab
        assert!(Arc::ptr_eq(&a, &b) && Arc::ptr_eq(&b, &c));
        assert_eq!(arena.len(), 1);
        assert_eq!(arena.generations(), 1);
        assert_eq!(arena.packed_bytes(), 11 * 2_000);

        // A different seed is a different stream.
        arena.populate(&spec, 8, 2_000);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.generations(), 2);
    }

    #[test]
    fn concurrent_requests_for_one_key_share_a_single_generation() {
        let arena = TraceArena::new();
        let spec = WorkloadSpec::oltp_db2();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| arena.populate(&spec, 3, 3_000));
            }
        });
        assert_eq!(arena.len(), 1);
        assert_eq!(arena.generations(), 1);
    }

    #[test]
    fn growing_a_slab_keeps_the_old_stream_as_a_prefix() {
        let arena = TraceArena::new();
        let spec = WorkloadSpec::mix();
        let short = arena.slab(&spec, 5, 300);
        let long = arena.slab(&spec, 5, 900);
        assert_eq!(arena.len(), 1, "one key, regenerated longer");
        assert_eq!(arena.generations(), 2);
        assert_eq!(long.len(), 900);
        for i in 0..short.len() {
            assert_eq!(short.get(i), long.get(i));
        }
    }

    #[test]
    fn keys_separate_profiles_geometries_and_seeds() {
        let spec = WorkloadSpec::oltp_db2();
        let base = TraceKey::new(&spec, 42);
        assert_eq!(base, TraceKey::new(&WorkloadSpec::oltp_db2(), 42));
        assert_eq!(base.workload(), "OLTP DB2");
        assert_eq!(base.seed(), 42);
        assert_ne!(base, TraceKey::new(&spec, 43), "seed separates");
        assert_ne!(
            base,
            TraceKey::new(&WorkloadSpec::apache(), 42),
            "workload separates"
        );

        // Same name, mutated profile: the fingerprint separates them.
        let mut tweaked = WorkloadSpec::oltp_db2();
        tweaked.hot_access_fraction = 0.5;
        assert_ne!(base, TraceKey::new(&tweaked, 42));

        // Cost-only fields share the key (and therefore the slab).
        let mut cost_only = WorkloadSpec::oltp_db2();
        cost_only.busy_cpi = 2.0;
        cost_only.l2_refs_per_kilo_instr = 10.0;
        assert_eq!(base, TraceKey::new(&cost_only, 42));

        // Slice capacity is cost-only; core count is not.
        let point_cap = rnuca_types::config::ConfigPoint {
            slice_capacity_kb: Some(512),
            ..Default::default()
        };
        assert_eq!(
            base,
            TraceKey::new(&spec.at_config_point(&point_cap).unwrap(), 42)
        );
        let point_cores = rnuca_types::config::ConfigPoint {
            num_cores: Some(64),
            ..Default::default()
        };
        assert_ne!(
            base,
            TraceKey::new(&spec.at_config_point(&point_cores).unwrap(), 42)
        );
    }

    #[test]
    #[should_panic(expected = "trace slab exhausted")]
    fn exhausting_a_slice_panics_instead_of_short_reading() {
        let spec = WorkloadSpec::em3d();
        let slab = Arc::new(TraceSlab::generate(&spec, 1, 100));
        let mut slice = TraceSlice::new(slab);
        let mut buf = Vec::new();
        slice.fill_into(80, &mut buf);
        assert_eq!(slice.remaining(), 20);
        assert_eq!(slice.position(), 80);
        slice.fill_into(21, &mut buf);
    }

    #[test]
    fn generator_and_slice_share_the_trace_source_interface() {
        let spec = WorkloadSpec::apache();
        let mut buf_gen = Vec::new();
        let mut buf_slice = Vec::new();
        TraceGenerator::new(&spec, 9).fill_into(256, &mut buf_gen);
        TraceArena::new()
            .slice(&spec, 9, 256)
            .fill_into(256, &mut buf_slice);
        assert_eq!(buf_gen, buf_slice);
    }
}
