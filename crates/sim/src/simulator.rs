//! The tiled-CMP simulator: one instance models one LLC design running one workload.
//!
//! The simulator is trace-driven and latency-additive. Every L2 reference
//! (the workload generators emit the post-L1-filter stream, the unit the
//! paper characterizes) is routed the way its design would route it — local
//! slice, remote slice, directory indirection, remote L1, or main memory —
//! and charged the Table 1 latencies for every network traversal, slice
//! lookup and DRAM access on its critical path. Stores update cache and
//! coherence state but their latency lands in the *other* CPI component,
//! mirroring the paper's accounting (Section 5.3).

use crate::cpi::{CpiComponent, DetailedCpi};
use crate::design::{AsrPolicy, LlcDesign};
use crate::tile::{BlockMeta, Tile, TileAccess};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rnuca::placement::{PlacementConfig, PlacementEngine};
use rnuca_cache::{CacheArray, ProbeEntry, SetRef};
use rnuca_coherence::{Directory, ReadSource};
use rnuca_mem::MemorySystem;
use rnuca_noc::{Network, Topology};
use rnuca_os::{ClassificationEvent, OsClassifier, PageClass};
use rnuca_types::access::{AccessClass, MemoryAccess};
use rnuca_types::addr::BlockAddr;
use rnuca_types::config::{CacheGeometry, SystemConfig};
use rnuca_types::ids::{CoreId, TileId};
use rnuca_types::index_map::U64Map;
use rnuca_types::{Snap, SnapReader};
use rnuca_workloads::{TraceSource, WorkloadSpec};
use serde::{Deserialize, Serialize};

/// How long (in L2 references) a dirty block is assumed to stay in its writer's L1.
const L1_RESIDENCY_WINDOW: u64 = 64_000;
/// Fixed OS overhead charged for a page re-classification (trap + shoot-down kernel work).
const RECLASSIFICATION_BASE_COST: u64 = 200;
/// Extra cycles charged per block invalidated during a shoot-down.
const RECLASSIFICATION_PER_BLOCK_COST: u64 = 2;
/// Window length (in measured references) for ASR's adaptive controller.
const ASR_WINDOW: u64 = 10_000;
/// Initial step size (and sign) of ASR's hill-climbing controller.
const ASR_INITIAL_STEP: f64 = 0.25;
/// Allocation probability every ASR variant uses while warming up.
///
/// Warm-up state is not part of what the ASR experiments compare — the
/// paper's warmed checkpoints are shared across configurations — so all six
/// ASR versions warm with the same mid-point probability. Because
/// `gen_bool` draws exactly one RNG value regardless of `p`, this makes the
/// warm-up of every variant bit-identical (decisions *and* RNG trajectory),
/// which is what lets the best-of-six sweep warm one simulator, `clone` it
/// per variant and [`set_asr_policy`](CmpSimulator::set_asr_policy) each
/// clone.
const ASR_WARMUP_PROBABILITY: f64 = 0.5;
/// Simulator seed used by [`CmpSimulator::new`] when the caller does not
/// thread an experiment seed through [`CmpSimulator::with_seed`].
const DEFAULT_SIM_SEED: u64 = 0xC0FFEE;
/// Mixed into the caller's seed before seeding the simulator RNG, so a
/// trace generator and a simulator sharing one experiment seed still draw
/// from decorrelated streams.
const SIM_SEED_SALT: u64 = 0x9E37_79B9_7F4A_7C15;
/// Cycles charged (to the "other" component) per store that reaches the L2.
///
/// The paper accounts store latency under "other" because store-wait-free
/// techniques remove it from the critical path (Section 5.3); charging a flat,
/// design-independent cost mirrors that while still letting stores update
/// cache and coherence state.
const STORE_COST: u64 = 14;
/// References generated per batch by [`CmpSimulator::drive`]: large enough
/// to amortise the generator call overhead, small enough to stay cache-hot.
const TRACE_BATCH: usize = 4_096;
/// How many references ahead of the current one the batch drivers issue
/// software prefetches for. The simulator is dominated by random probes
/// into structures far larger than the host's caches (directory entry
/// table, per-tile tag slabs, dirty-block map); consecutive references are
/// independent, so prefetching this far ahead overlaps their miss latencies
/// instead of serializing them. Eight is far enough to cover a memory
/// round-trip at the loop's work-per-reference, close enough that the
/// prefetched lines are still resident when their reference arrives.
const PREFETCH_AHEAD: usize = 8;
/// Whether the batch drivers compute prefetch hints at all. On targets
/// where `prefetch_read` is a no-op (everything but x86-64) the hint
/// computation — hashing upcoming keys, peeking classifications and
/// victims — would be pure overhead in the hot loop, so it is compiled out
/// rather than executed for nothing.
const PREFETCH_ENABLED: bool = cfg!(target_arch = "x86_64");
/// Entries the dirty-block tracker pre-sizes for; past this it grows by
/// doubling (the periodic sweep bounds it to two residency windows).
const L1_DIRTY_INITIAL_CAPACITY: usize = 16_384;

/// The per-run results returned by [`CmpSimulator::run_measured`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MeasuredRun {
    /// Per-instruction CPI detail (busy included).
    pub cpi: DetailedCpi,
    /// L2 references measured.
    pub accesses: u64,
    /// Committed instructions represented by those references.
    pub instructions: f64,
    /// Fraction of L2 references that left the chip.
    pub off_chip_rate: f64,
    /// Fraction of L2 references serviced by a remote L1.
    pub l1_to_l1_rate: f64,
    /// Fraction of accesses whose OS page classification disagreed with the
    /// ground-truth class (R-NUCA only; zero elsewhere).
    pub misclassification_rate: f64,
    /// Page re-classifications performed during the measured run (R-NUCA only).
    pub reclassifications: u64,
}

impl MeasuredRun {
    /// Total CPI of the run.
    pub fn total_cpi(&self) -> f64 {
        self.cpi.total()
    }
}

impl Snap for MeasuredRun {
    fn encode(&self, out: &mut Vec<u8>) {
        self.cpi.encode(out);
        self.accesses.encode(out);
        self.instructions.encode(out);
        self.off_chip_rate.encode(out);
        self.l1_to_l1_rate.encode(out);
        self.misclassification_rate.encode(out);
        self.reclassifications.encode(out);
    }

    fn decode(r: &mut SnapReader<'_>) -> Self {
        MeasuredRun {
            cpi: r.get(),
            accesses: r.get(),
            instructions: r.get(),
            off_chip_rate: r.get(),
            l1_to_l1_rate: r.get(),
            misclassification_rate: r.get(),
            reclassifications: r.get(),
        }
    }
}

/// Internal per-block record of "dirty and sitting in some core's L1".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct L1DirtyEntry {
    owner: CoreId,
    stamp: u64,
}

/// The simulator for one `(design, workload)` pair.
///
/// `Clone` copies the complete simulator, warmed state included: the ASR
/// best-of-six sweep warms one instance and measures a clone per variant.
#[derive(Debug, Clone)]
pub struct CmpSimulator {
    design: LlcDesign,
    config: SystemConfig,
    busy_cpi: f64,
    instr_per_ref: f64,
    /// Precomputed one-way latencies, indexed `from * num_tiles + to`.
    /// Every charge path consults these instead of recomputing grid
    /// coordinates and serialization flits per query — for a fixed topology
    /// and block size the answers never change.
    control_lut: Vec<u32>,
    data_lut: Vec<u32>,
    /// Cached [`SystemConfig`] scalars read on every reference.
    slice_latency: u64,
    dram_latency: u64,
    block_bytes: usize,
    page_bytes: usize,
    num_tiles: usize,
    tiles: Vec<Tile>,
    mem: MemorySystem,
    os: OsClassifier,
    placement: PlacementEngine,
    l2_directory: Directory,
    /// Dirty-in-some-L1 tracking, keyed by block number (open-addressed —
    /// this map is probed on every single reference).
    l1_dirty: U64Map<L1DirtyEntry>,
    ideal_cache: Option<CacheArray<BlockMeta>>,
    /// Reusable batch buffer for trace generation (see [`Self::drive`]).
    trace_buf: Vec<MemoryAccess>,
    rng: StdRng,
    // ASR adaptive controller state.
    asr_probability: f64,
    asr_adaptive: bool,
    asr_window_cycles: u64,
    asr_prev_window_cycles: u64,
    asr_window_accesses: u64,
    asr_direction: f64,
    // Accounting.
    clock: u64,
    /// References until the next expired-dirty-entry sweep (counts down from
    /// [`L1_RESIDENCY_WINDOW`]; equivalent to `clock % window == 0` without
    /// a per-reference division).
    sweep_countdown: u64,
    measuring: bool,
    acc: DetailedCpi,
    measured_accesses: u64,
    off_chip_accesses: u64,
    l1_to_l1_transfers: u64,
    misclassified: u64,
    classified: u64,
    reclassifications: u64,
}

impl CmpSimulator {
    /// Builds a simulator for `design` running `spec`'s system configuration,
    /// with a fixed default seed for its internal RNG.
    ///
    /// Experiment runners should prefer [`CmpSimulator::with_seed`] so that
    /// seed-sensitive behaviour (ASR's probabilistic replication) actually
    /// varies with the experiment seed.
    pub fn new(design: LlcDesign, spec: &WorkloadSpec) -> Self {
        Self::with_seed(design, spec, DEFAULT_SIM_SEED)
    }

    /// Builds a simulator for `design` running `spec`'s system configuration,
    /// seeding the simulator's RNG from `seed`.
    pub fn with_seed(design: LlcDesign, spec: &WorkloadSpec, seed: u64) -> Self {
        let config = spec.system_config();
        let placement_config = match design {
            LlcDesign::RNuca { instr_cluster_size } => {
                PlacementConfig::from_system(&config).with_instr_cluster_size(instr_cluster_size)
            }
            _ => PlacementConfig::from_system(&config),
        };
        let (asr_probability, asr_adaptive) = match design {
            LlcDesign::Asr { policy } => asr_controller(policy),
            _ => (1.0, false),
        };
        let ideal_cache = match design {
            LlcDesign::Ideal => {
                let slice = config.l2_slice.geometry;
                let aggregate = CacheGeometry::new(
                    slice.capacity_bytes * config.num_cores,
                    slice.ways,
                    slice.block_bytes,
                )
                .expect("aggregate geometry scales a valid slice geometry");
                Some(CacheArray::new(aggregate))
            }
            _ => None,
        };
        let network = Network::new(Topology::FoldedTorus, config.torus);
        let num_tiles = config.num_tiles();
        let block_bytes = config.l2_slice.geometry.block_bytes;
        let mut control_lut = vec![0u32; num_tiles * num_tiles];
        let mut data_lut = vec![0u32; num_tiles * num_tiles];
        let lut_entry = |cycles: u64| -> u32 {
            cycles
                .try_into()
                .expect("one-way network latency fits the 32-bit LUT entries")
        };
        for from in 0..num_tiles {
            for to in 0..num_tiles {
                let (f, t) = (TileId::new(from), TileId::new(to));
                control_lut[from * num_tiles + to] =
                    lut_entry(network.control_latency(f, t).value());
                data_lut[from * num_tiles + to] =
                    lut_entry(network.data_latency(f, t, block_bytes).value());
            }
        }
        CmpSimulator {
            design,
            busy_cpi: spec.busy_cpi,
            instr_per_ref: spec.instructions_per_l2_ref(),
            control_lut,
            data_lut,
            slice_latency: config.l2_slice.hit_latency.value(),
            dram_latency: config.memory.access_latency.value(),
            block_bytes,
            page_bytes: config.memory.page_bytes,
            num_tiles,
            tiles: (0..config.num_tiles())
                .map(|i| Tile::new(TileId::new(i), &config))
                .collect(),
            mem: MemorySystem::new(&config),
            os: OsClassifier::new(config.num_cores, 512),
            placement: PlacementEngine::new(placement_config),
            l2_directory: Directory::new(config.num_tiles()),
            l1_dirty: U64Map::with_capacity(L1_DIRTY_INITIAL_CAPACITY),
            ideal_cache,
            trace_buf: Vec::new(),
            rng: StdRng::seed_from_u64(seed ^ SIM_SEED_SALT),
            asr_probability,
            asr_adaptive,
            asr_window_cycles: 0,
            asr_prev_window_cycles: u64::MAX,
            asr_window_accesses: 0,
            asr_direction: ASR_INITIAL_STEP,
            clock: 0,
            sweep_countdown: L1_RESIDENCY_WINDOW,
            measuring: false,
            acc: DetailedCpi::default(),
            measured_accesses: 0,
            off_chip_accesses: 0,
            l1_to_l1_transfers: 0,
            misclassified: 0,
            classified: 0,
            reclassifications: 0,
            config,
        }
    }

    /// The design being simulated.
    pub fn design(&self) -> LlcDesign {
        self.design
    }

    /// Switches an ASR simulator to another ASR variant, leaving every piece
    /// of warmed state in place.
    ///
    /// All ASR variants warm identically (see `ASR_WARMUP_PROBABILITY`), so
    /// a clone of one warmed ASR simulator with its policy switched here
    /// measures exactly what a fresh simulator of that variant would after
    /// streaming the same warm-up itself.
    ///
    /// # Panics
    ///
    /// Panics if the simulator is not simulating an ASR design, or if it
    /// has already started a measured window (the adaptive controller's
    /// learned probability is warm state a variant switch must not mix in).
    pub fn set_asr_policy(&mut self, policy: AsrPolicy) {
        assert!(
            matches!(self.design, LlcDesign::Asr { .. }),
            "set_asr_policy on a {} simulator",
            self.design
        );
        assert!(!self.measuring, "set_asr_policy after measurement started");
        self.design = LlcDesign::Asr { policy };
        (self.asr_probability, self.asr_adaptive) = asr_controller(policy);
    }

    /// The system configuration in use.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Read access to the per-tile state (for occupancy inspection in tests and reports).
    pub fn tiles(&self) -> &[Tile] {
        &self.tiles
    }

    /// The OS classifier (for classification statistics).
    pub fn os(&self) -> &OsClassifier {
        &self.os
    }

    /// Runs `n` references from `src` without recording statistics (cache and
    /// page-table warm-up, mirroring the paper's warmed checkpoints).
    ///
    /// `src` is any [`TraceSource`]: a streaming
    /// [`TraceGenerator`](rnuca_workloads::TraceGenerator), or a
    /// [`TraceSlice`](rnuca_workloads::TraceSlice) replaying a stream the
    /// [`TraceArena`](rnuca_workloads::TraceArena) materialized once and
    /// shares across every design evaluating it. Both yield identical
    /// sequences, so the choice affects run time only.
    pub fn run_warmup(&mut self, src: &mut impl TraceSource, n: usize) {
        self.measuring = false;
        self.drive(src, n);
    }

    /// Feeds `n` references from `src` through the design's step path,
    /// filling them in batches into a buffer reused across calls and
    /// windows, so the run loop performs no per-access (or even per-batch)
    /// allocation. The access sequence is identical to taking `n` single
    /// references from `src` — the source does not depend on simulator
    /// state.
    fn drive(&mut self, src: &mut impl TraceSource, n: usize) {
        let mut buf = std::mem::take(&mut self.trace_buf);
        let mut remaining = n;
        while remaining > 0 {
            let batch = remaining.min(TRACE_BATCH);
            src.fill_into(batch, &mut buf);
            self.step_batch(&buf);
            remaining -= batch;
        }
        self.trace_buf = buf;
    }

    /// Steps one decoded batch of references through the design's
    /// monomorphized batch driver.
    ///
    /// The `match` on the design happens once per batch, not once per
    /// access: each arm runs a monomorphized batch loop over the design's
    /// step function, so the per-reference path is branch-predictable and
    /// free of the dispatch [`Self::step`] performs.
    fn step_batch(&mut self, buf: &[MemoryAccess]) {
        match self.design {
            LlcDesign::Ideal => {
                self.run_batch::<false>(buf, Self::step_ideal, Self::prefetch_ideal)
            }
            LlcDesign::Shared => self.run_batch::<false>(
                buf,
                |s, a| s.step_single_copy(a, None),
                Self::prefetch_single_copy,
            ),
            LlcDesign::RNuca { .. } => {
                self.run_batch::<false>(buf, Self::step_rnuca, Self::prefetch_rnuca)
            }
            LlcDesign::Private => {
                self.run_batch::<false>(buf, Self::step_private_like, Self::prefetch_private_like)
            }
            LlcDesign::Asr { .. } => {
                if self.asr_adaptive {
                    self.run_batch::<true>(
                        buf,
                        Self::step_private_like,
                        Self::prefetch_private_like,
                    )
                } else {
                    self.run_batch::<false>(
                        buf,
                        Self::step_private_like,
                        Self::prefetch_private_like,
                    )
                }
            }
        }
    }

    /// Runs one design-specialized batch: the shared per-access prologue,
    /// the design's step function, and (for the adaptive ASR driver) the
    /// controller epilogue. `ADAPT` is a compile-time flag so the other
    /// designs pay nothing for the check.
    ///
    /// `prefetch` is the design's cache-warming hint for one upcoming
    /// reference: before stepping reference `i`, the driver prefetches the
    /// structures reference `i + PREFETCH_AHEAD` will probe, so the random
    /// misses of consecutive independent references overlap instead of
    /// serializing. Prefetching is architecturally invisible — results are
    /// bit-identical with it disabled.
    fn run_batch<const ADAPT: bool>(
        &mut self,
        buf: &[MemoryAccess],
        step: impl Fn(&mut Self, &MemoryAccess),
        prefetch: impl Fn(&Self, &MemoryAccess),
    ) {
        for (i, access) in buf.iter().enumerate() {
            if PREFETCH_ENABLED {
                if let Some(upcoming) = buf.get(i + PREFETCH_AHEAD) {
                    prefetch(self, upcoming);
                }
            }
            self.pre_step();
            step(self, access);
            if ADAPT && self.measuring {
                self.asr_adapt();
            }
        }
    }

    /// The bookkeeping shared by every step path: the reference clock, the
    /// periodic dirty-map sweep, and the measured-access counter. The sweep
    /// cadence is a countdown rather than a `clock % window` test so the
    /// per-reference prologue performs no division.
    fn pre_step(&mut self) {
        self.clock += 1;
        self.sweep_countdown -= 1;
        if self.sweep_countdown == 0 {
            self.sweep_countdown = L1_RESIDENCY_WINDOW;
            self.sweep_expired_l1_dirty();
        }
        if self.measuring {
            self.measured_accesses += 1;
        }
    }

    // ----- per-design prefetch hints (see [`Self::run_batch`]) ------------

    /// Private/ASR designs probe the dirty-block map, the requester's own
    /// slice, and (on misses and stores) the coherence directory — both the
    /// requested block's entry and, when a fill would push the victim
    /// buffer's oldest block off the tile, that departing block's entry
    /// (the `handle_eviction` probe). Cores issue round-robin, so at this
    /// lookahead the tile's state is unchanged when its reference arrives
    /// and the peeked victim is the one the eviction will name.
    fn prefetch_private_like(&self, access: &MemoryAccess) {
        let block = access.addr.block(self.block_bytes);
        self.l1_dirty.prefetch(block.block_number());
        let tile = &self.tiles[access.core.tile().index()];
        tile.prefetch(block);
        self.l2_directory.prefetch(block);
        if let Some(departing) = tile.peek_departing() {
            self.l2_directory.prefetch(departing);
        }
    }

    /// The shared design probes the dirty-block map and the block's
    /// address-interleaved home slice.
    fn prefetch_single_copy(&self, access: &MemoryAccess) {
        let block = access.addr.block(self.block_bytes);
        self.l1_dirty.prefetch(block.block_number());
        let home = self.placement.shared_home(block);
        self.tiles[home.index()].prefetch(block);
    }

    /// R-NUCA consults the OS page table before the home is known. The hint
    /// reads the page's *current* classification (a plain lookup — the very
    /// miss it absorbs early) and warms the slice that classification homes
    /// the block to; pages re-classify rarely, so the speculative home is
    /// almost always the one the step will probe. The dirty-block map and
    /// the page-table entry are hinted as well.
    fn prefetch_rnuca(&self, access: &MemoryAccess) {
        let block = access.addr.block(self.block_bytes);
        self.l1_dirty.prefetch(block.block_number());
        let page = access.addr.page(self.page_bytes);
        self.os.prefetch(page);
        if let Some(class) = self.os.peek_class(page, access.core) {
            let home = self.placement.place(class, block, access.core);
            self.tiles[home.index()].prefetch(block);
        }
    }

    /// The ideal design probes only its aggregate cache array.
    fn prefetch_ideal(&self, access: &MemoryAccess) {
        if let Some(cache) = &self.ideal_cache {
            cache.prefetch(access.addr.block(self.block_bytes));
        }
    }

    /// Runs `n` references from `src` with statistics recording and returns the results.
    ///
    /// Cache, directory, and page-table state deliberately carry over from
    /// warm-up (and from any previous window — that is the warmed-checkpoint
    /// methodology), and so does the adaptive ASR controller's *learned*
    /// allocation probability, which is warm state like cache contents. The
    /// controller's window accounting (partial cycle/access counters and
    /// climb direction), however, is measurement bookkeeping and is
    /// restarted here: without the reset, counters left over from a previous
    /// measured window would fire the adaptive controller early in the next
    /// one, coupling back-to-back windows that should be independent.
    pub fn run_measured(&mut self, src: &mut impl TraceSource, n: usize) -> MeasuredRun {
        self.measuring = true;
        self.asr_window_cycles = 0;
        self.asr_window_accesses = 0;
        self.asr_prev_window_cycles = u64::MAX;
        self.asr_direction = ASR_INITIAL_STEP;
        self.acc = DetailedCpi::default();
        self.measured_accesses = 0;
        self.off_chip_accesses = 0;
        self.l1_to_l1_transfers = 0;
        self.misclassified = 0;
        self.classified = 0;
        self.reclassifications = 0;
        self.drive(src, n);
        self.results()
    }

    /// Processes a single L2 reference.
    ///
    /// The internal batch driver behind [`Self::run_warmup`] and
    /// [`Self::run_measured`] does not go through this method — it
    /// dispatches on the design once per batch instead of once per access —
    /// but the per-reference behaviour here is identical.
    pub fn step(&mut self, access: &MemoryAccess) {
        self.pre_step();
        match self.design {
            LlcDesign::Ideal => self.step_ideal(access),
            LlcDesign::Shared => self.step_single_copy(access, None),
            LlcDesign::RNuca { .. } => self.step_rnuca(access),
            LlcDesign::Private | LlcDesign::Asr { .. } => self.step_private_like(access),
        }
        if self.asr_adaptive && self.measuring {
            self.asr_adapt();
        }
    }

    fn results(&self) -> MeasuredRun {
        let instructions = self.measured_accesses as f64 * self.instr_per_ref;
        let mut cpi = self.acc.scaled(instructions.max(1.0));
        cpi.breakdown.busy = self.busy_cpi;
        let accesses = self.measured_accesses.max(1) as f64;
        MeasuredRun {
            cpi,
            accesses: self.measured_accesses,
            instructions,
            off_chip_rate: self.off_chip_accesses as f64 / accesses,
            l1_to_l1_rate: self.l1_to_l1_transfers as f64 / accesses,
            misclassification_rate: if self.classified == 0 {
                0.0
            } else {
                self.misclassified as f64 / self.classified as f64
            },
            reclassifications: self.reclassifications,
        }
    }

    // ----- cost helpers ---------------------------------------------------

    fn block_bytes(&self) -> usize {
        self.block_bytes
    }

    fn slice_latency(&self) -> u64 {
        self.slice_latency
    }

    fn dram_latency(&self) -> u64 {
        self.dram_latency
    }

    #[inline]
    fn control(&self, from: TileId, to: TileId) -> u64 {
        u64::from(self.control_lut[from.index() * self.num_tiles + to.index()])
    }

    #[inline]
    fn data(&self, from: TileId, to: TileId) -> u64 {
        u64::from(self.data_lut[from.index() * self.num_tiles + to.index()])
    }

    fn charge(&mut self, cycles: u64, component: CpiComponent) {
        if !self.measuring {
            return;
        }
        self.asr_window_cycles += cycles;
        self.acc.breakdown.add(component, cycles as f64);
    }

    fn charge_l2(&mut self, cycles: u64, class: AccessClass, coherence: bool) {
        if !self.measuring {
            return;
        }
        self.asr_window_cycles += cycles;
        self.acc.add_l2(class, coherence, cycles as f64);
    }

    fn charge_off_chip(&mut self, cycles: u64, class: AccessClass) {
        if !self.measuring {
            return;
        }
        self.asr_window_cycles += cycles;
        self.off_chip_accesses += 1;
        self.acc.add_off_chip(class, cycles as f64);
    }

    // ----- L1 dirty tracking (L1-to-L1 transfers) -------------------------

    fn l1_dirty_owner(&mut self, block: BlockAddr, requester: CoreId) -> Option<CoreId> {
        let stamp = self.clock;
        // Single probe: the slot handle serves both the freshness check and
        // the expired-entry removal.
        let slot = self.l1_dirty.find_slot(block.block_number())?;
        let e = *self.l1_dirty.slot_value(slot);
        if stamp.saturating_sub(e.stamp) >= L1_RESIDENCY_WINDOW {
            self.l1_dirty.remove_slot(slot);
            None
        } else if e.owner != requester {
            Some(e.owner)
        } else {
            None
        }
    }

    fn note_write(&mut self, block: BlockAddr, writer: CoreId) {
        self.l1_dirty.insert(
            block.block_number(),
            L1DirtyEntry {
                owner: writer,
                stamp: self.clock,
            },
        );
    }

    fn clear_dirty(&mut self, block: BlockAddr) {
        self.l1_dirty.remove(block.block_number());
    }

    /// Drops every dirty-tracking entry whose residency window has expired.
    ///
    /// [`Self::l1_dirty_owner`] already treats expired entries as absent, but
    /// it only removes the entry it happens to probe, so on streaming
    /// workloads (each block written once, never re-probed) the map would
    /// otherwise grow without bound. [`Self::step`] calls this once per
    /// residency window, bounding the map to the blocks written within the
    /// last two windows without changing any simulation outcome.
    fn sweep_expired_l1_dirty(&mut self) {
        let clock = self.clock;
        self.l1_dirty
            .retain(|_, e| clock.saturating_sub(e.stamp) < L1_RESIDENCY_WINDOW);
    }

    /// Drops the dirty-tracking entries of every block in `page` (an R-NUCA
    /// shoot-down). A page holds a fixed, small number of blocks, so this is
    /// a handful of O(1) removals instead of the full-map `retain` scan the
    /// `HashMap`-backed version performed per re-classification.
    fn clear_dirty_page(&mut self, page: rnuca_types::addr::PageAddr) {
        let block_bytes = self.block_bytes;
        let page_bytes = self.page_bytes;
        for block in page.blocks(block_bytes, page_bytes) {
            self.l1_dirty.remove(block.block_number());
        }
    }

    /// Number of blocks currently tracked as dirty in some L1 (diagnostics).
    pub fn l1_dirty_tracked(&self) -> usize {
        self.l1_dirty.len()
    }

    // ----- Ideal design ----------------------------------------------------

    fn step_ideal(&mut self, access: &MemoryAccess) {
        let block = access.addr.block(self.block_bytes());
        let meta = BlockMeta {
            class: access.class,
            dirty: access.kind.is_write(),
        };
        let cache = self
            .ideal_cache
            .as_mut()
            .expect("ideal design has an aggregate cache");
        let hit = match cache.probe_entry(block) {
            ProbeEntry::Hit(_) => true,
            ProbeEntry::Miss(slot) => {
                cache.fill_at(slot, block, meta);
                false
            }
        };
        if access.kind.is_write() {
            self.charge(STORE_COST, CpiComponent::Other);
        } else if hit {
            self.charge_l2(self.slice_latency(), access.class, false);
        } else {
            // Even the ideal design pays the trip to the memory controller and DRAM.
            let tile = access.core.tile();
            let exit = self.mem.read_via(access.addr);
            let cost = self.slice_latency()
                + self.control(tile, exit)
                + self.dram_latency()
                + self.data(exit, tile);
            self.charge_off_chip(cost, access.class);
        }
    }

    // ----- Shared and R-NUCA (single-copy designs) -------------------------

    /// Handles a reference under a single-copy organisation. `home_override`
    /// carries R-NUCA's class-aware home; `None` means pure address
    /// interleaving (the shared design).
    fn step_single_copy(&mut self, access: &MemoryAccess, home_override: Option<TileId>) {
        let core = access.core;
        let tile = core.tile();
        let block = access.addr.block(self.block_bytes());
        let home = home_override.unwrap_or_else(|| self.placement.shared_home(block));

        // Remote-L1 dirty data: one L2/directory lookup at the home slice, then
        // a forward to the owner, then data straight to the requester.
        if let Some(owner) = self.l1_dirty_owner(block, core) {
            let cost = self.control(tile, home)
                + self.slice_latency()
                + self.control(home, owner.tile())
                + self.data(owner.tile(), tile);
            if self.measuring {
                self.l1_to_l1_transfers += 1;
            }
            if access.kind.is_write() {
                self.charge(STORE_COST, CpiComponent::Other);
                self.note_write(block, core);
            } else {
                self.charge(cost, CpiComponent::L1ToL1);
                // The downgrade leaves a clean copy at the home slice.
                self.clear_dirty(block);
                self.fill_home(
                    home,
                    block,
                    BlockMeta {
                        class: access.class,
                        dirty: true,
                    },
                );
            }
            return;
        }

        match self.tiles[home.index()].access(block) {
            TileAccess::Hit(entry) => {
                if access.kind.is_write() {
                    self.tiles[home.index()].meta_mut(entry).dirty = true;
                    self.note_write(block, core);
                    self.charge(STORE_COST, CpiComponent::Other);
                } else {
                    let cost =
                        self.control(tile, home) + self.slice_latency() + self.data(home, tile);
                    self.charge_l2(cost, access.class, false);
                }
            }
            TileAccess::Miss(slot) => {
                // Off-chip: requester -> home -> memory controller -> home -> requester.
                let exit = self.mem.read_via(access.addr);
                let cost = self.control(tile, home)
                    + self.slice_latency()
                    + self.control(home, exit)
                    + self.dram_latency()
                    + self.data(exit, home)
                    + self.data(home, tile);
                self.fill_home_at(
                    home,
                    slot,
                    block,
                    BlockMeta {
                        class: access.class,
                        dirty: access.kind.is_write(),
                    },
                );
                if access.kind.is_write() {
                    self.note_write(block, core);
                    self.charge(STORE_COST, CpiComponent::Other);
                } else {
                    self.charge_off_chip(cost, access.class);
                }
            }
        }
    }

    fn fill_home(&mut self, home: TileId, block: BlockAddr, meta: BlockMeta) {
        if let Some((evicted, evicted_meta)) = self.tiles[home.index()].fill(block, meta) {
            if evicted_meta.dirty {
                self.mem.writeback(evicted.base_addr(self.block_bytes()));
            }
        }
    }

    /// [`Self::fill_home`] for a set already located by a probe miss: fills
    /// through the handle instead of re-searching the slice.
    fn fill_home_at(&mut self, home: TileId, slot: SetRef, block: BlockAddr, meta: BlockMeta) {
        if let Some((evicted, evicted_meta)) = self.tiles[home.index()].fill_at(slot, block, meta) {
            if evicted_meta.dirty {
                self.mem.writeback(evicted.base_addr(self.block_bytes()));
            }
        }
    }

    // ----- R-NUCA -----------------------------------------------------------

    fn step_rnuca(&mut self, access: &MemoryAccess) {
        let core = access.core;
        let block = access.addr.block(self.block_bytes());
        let page = access.addr.page(self.page_bytes);

        let outcome = self.os.access(page, core, access.kind.is_instr_fetch());

        // Classification accuracy against the workload's ground truth.
        if self.measuring {
            self.classified += 1;
            let matches = matches!(
                (outcome.class, access.class),
                (PageClass::Private, AccessClass::PrivateData)
                    | (PageClass::Shared, AccessClass::SharedData)
                    | (PageClass::Instruction, AccessClass::Instruction)
            );
            if !matches {
                self.misclassified += 1;
            }
        }

        // Re-classification / migration: shoot down the previous owner's slice.
        match outcome.event {
            ClassificationEvent::Reclassified { previous_owner }
            | ClassificationEvent::OwnerMigrated { previous_owner } => {
                let page_bytes = self.page_bytes;
                let invalidated =
                    self.tiles[previous_owner.index()].invalidate_page(page, page_bytes) as u64;
                self.clear_dirty_page(page);
                if self.measuring {
                    self.reclassifications += 1;
                }
                let cost = RECLASSIFICATION_BASE_COST
                    + RECLASSIFICATION_PER_BLOCK_COST * invalidated
                    + self.control(core.tile(), previous_owner.tile());
                self.charge(cost, CpiComponent::Reclassification);
            }
            _ => {}
        }

        let home = self.placement.place(outcome.class, block, core);
        self.step_single_copy(access, Some(home));
    }

    // ----- Private and ASR --------------------------------------------------

    fn step_private_like(&mut self, access: &MemoryAccess) {
        let core = access.core;
        let tile = core.tile();
        let block = access.addr.block(self.block_bytes());
        let dir_home = self.placement.shared_home(block);
        let meta = BlockMeta {
            class: access.class,
            dirty: false,
        };

        // Remote-L1 dirty data: local slice probe, directory lookup, forward,
        // remote slice + L1 probe, data response (Section 5.3's description of
        // why these requests are slower under the private designs).
        if let Some(owner) = self.l1_dirty_owner(block, core) {
            let cost = self.slice_latency()
                + self.control(tile, dir_home)
                + self.slice_latency()
                + self.control(dir_home, owner.tile())
                + self.slice_latency()
                + self.data(owner.tile(), tile);
            if self.measuring {
                self.l1_to_l1_transfers += 1;
            }
            if access.kind.is_write() {
                self.charge(STORE_COST, CpiComponent::Other);
                self.note_write(block, core);
                self.write_state_update(block, tile, meta, access);
            } else {
                self.charge(cost, CpiComponent::L1ToL1);
                self.clear_dirty(block);
            }
            return;
        }

        if access.kind.is_write() {
            // Stores: flat latency in "other"; state updates still performed.
            // The single probe here doubles as the locator for the state
            // update's metadata write or fill.
            let outcome = self.tiles[tile.index()].access(block);
            self.charge(STORE_COST, CpiComponent::Other);
            self.write_state_update_at(block, tile, outcome, meta, access);
            self.note_write(block, core);
            return;
        }

        // Loads and instruction fetches.
        let slot = match self.tiles[tile.index()].access(block) {
            TileAccess::Hit(_) => {
                self.charge_l2(self.slice_latency(), access.class, false);
                return;
            }
            TileAccess::Miss(slot) => slot,
        };

        // Local miss: consult the distributed directory.
        let read = self.l2_directory.handle_read(block, tile);
        match read.source {
            ReadSource::Memory => {
                let exit = self.mem.read_via(access.addr);
                let cost = self.slice_latency()
                    + self.control(tile, dir_home)
                    + self.slice_latency()
                    + self.control(dir_home, exit)
                    + self.dram_latency()
                    + self.data(exit, tile);
                self.charge_off_chip(cost, access.class);
                self.fill_private_at(tile, slot, block, meta);
            }
            ReadSource::Cache(owner) => {
                let cost = self.slice_latency()
                    + self.control(tile, dir_home)
                    + self.slice_latency()
                    + self.control(dir_home, owner)
                    + self.slice_latency()
                    + self.data(owner, tile);
                self.charge_l2(cost, access.class, true);
                if self.asr_allows_allocation(access.class) {
                    self.fill_private_at(tile, slot, block, meta);
                } else {
                    // ASR dropped the block instead of allocating it locally;
                    // tell the directory this tile holds no L2 copy.
                    self.l2_directory.handle_eviction(block, tile);
                }
            }
            ReadSource::AlreadyPresent => {
                // Directory believes we already hold the block (e.g. it sits in
                // the victim buffer); treat as a local hit.
                self.charge_l2(self.slice_latency(), access.class, false);
            }
        }
    }

    /// Applies the coherence state changes of a store under the private
    /// designs when no probe of the writer's slice preceded the call.
    fn write_state_update(
        &mut self,
        block: BlockAddr,
        tile: TileId,
        meta: BlockMeta,
        access: &MemoryAccess,
    ) {
        let write = self.l2_directory.handle_write(block, tile);
        for victim_tile in write.invalidations.iter() {
            self.tiles[victim_tile.index()].invalidate(block);
        }
        if write.source == ReadSource::Memory {
            self.mem.read(access.addr);
        }
        let mut dirty_meta = meta;
        dirty_meta.dirty = true;
        self.fill_private(tile, block, dirty_meta, true);
    }

    /// [`Self::write_state_update`] when the store path already probed the
    /// writer's slice: the probe outcome locates the metadata write (hit) or
    /// the fill set (miss), so the slice is searched exactly once per store.
    fn write_state_update_at(
        &mut self,
        block: BlockAddr,
        tile: TileId,
        outcome: TileAccess,
        meta: BlockMeta,
        access: &MemoryAccess,
    ) {
        let write = self.l2_directory.handle_write(block, tile);
        for victim_tile in write.invalidations.iter() {
            self.tiles[victim_tile.index()].invalidate(block);
        }
        if write.source == ReadSource::Memory {
            self.mem.read(access.addr);
        }
        let mut dirty_meta = meta;
        dirty_meta.dirty = true;
        match outcome {
            TileAccess::Hit(entry) => *self.tiles[tile.index()].meta_mut(entry) = dirty_meta,
            TileAccess::Miss(slot) => self.fill_private_at(tile, slot, block, dirty_meta),
        }
    }

    /// Fills a block into a private slice (if the policy allocates it) and
    /// keeps the directory consistent with any eviction this causes.
    fn fill_private(&mut self, tile: TileId, block: BlockAddr, meta: BlockMeta, allocate: bool) {
        if !allocate {
            return;
        }
        if let Some((evicted, evicted_meta)) = self.tiles[tile.index()].fill(block, meta) {
            let writeback = self.l2_directory.handle_eviction(evicted, tile);
            if writeback || evicted_meta.dirty {
                self.mem.writeback(evicted.base_addr(self.block_bytes()));
            }
        }
    }

    /// [`Self::fill_private`] for a set already located by a probe miss.
    fn fill_private_at(&mut self, tile: TileId, slot: SetRef, block: BlockAddr, meta: BlockMeta) {
        if let Some((evicted, evicted_meta)) = self.tiles[tile.index()].fill_at(slot, block, meta) {
            let writeback = self.l2_directory.handle_eviction(evicted, tile);
            if writeback || evicted_meta.dirty {
                self.mem.writeback(evicted.base_addr(self.block_bytes()));
            }
        }
    }

    /// ASR's allocation decision for clean shared blocks fetched from a remote slice.
    ///
    /// During warm-up every variant decides with
    /// [`ASR_WARMUP_PROBABILITY`] instead of its own probability, so the six
    /// ASR versions build identical warmed state from one reference stream
    /// (see the constant's documentation). The variant's own probability —
    /// static or learned — takes over the moment measurement starts.
    fn asr_allows_allocation(&mut self, class: AccessClass) -> bool {
        match self.design {
            LlcDesign::Asr { .. } => match class {
                AccessClass::PrivateData => true,
                AccessClass::Instruction | AccessClass::SharedData => {
                    let p = if self.measuring {
                        self.asr_probability.clamp(0.0, 1.0)
                    } else {
                        ASR_WARMUP_PROBABILITY
                    };
                    self.rng.gen_bool(p)
                }
            },
            _ => true,
        }
    }

    /// Simple hill-climbing controller for the adaptive ASR version: every
    /// window, keep moving the allocation probability in the direction that
    /// reduced stall cycles, reversing when it stops helping.
    fn asr_adapt(&mut self) {
        self.asr_window_accesses += 1;
        if self.asr_window_accesses < ASR_WINDOW {
            return;
        }
        if self.asr_window_cycles > self.asr_prev_window_cycles {
            self.asr_direction = -self.asr_direction;
        }
        self.asr_probability = (self.asr_probability + self.asr_direction).clamp(0.0, 1.0);
        self.asr_prev_window_cycles = self.asr_window_cycles;
        self.asr_window_cycles = 0;
        self.asr_window_accesses = 0;
    }
}

/// The ASR controller settings `(allocation probability, adaptive)` a
/// policy starts measurement with.
fn asr_controller(policy: AsrPolicy) -> (f64, bool) {
    match policy {
        AsrPolicy::Static(p) => (p, false),
        AsrPolicy::Adaptive => (0.5, true),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnuca_workloads::{TraceArena, TraceGenerator};

    fn quick_run(design: LlcDesign, spec: &WorkloadSpec, n: usize) -> MeasuredRun {
        let mut gen = TraceGenerator::new(spec, 7);
        let mut sim = CmpSimulator::new(design, spec);
        sim.run_warmup(&mut gen, n);
        sim.run_measured(&mut gen, n)
    }

    #[test]
    fn every_design_produces_a_positive_cpi() {
        let spec = WorkloadSpec::oltp_db2();
        for design in LlcDesign::speedup_set() {
            let run = quick_run(design, &spec, 10_000);
            assert!(
                run.total_cpi() > spec.busy_cpi,
                "{design} must add memory CPI"
            );
            assert_eq!(run.accesses, 10_000);
            assert!(run.instructions > 0.0);
        }
    }

    #[test]
    fn ideal_design_has_lowest_cpi() {
        let spec = WorkloadSpec::oltp_db2();
        let ideal = quick_run(LlcDesign::Ideal, &spec, 20_000).total_cpi();
        for design in LlcDesign::evaluation_set() {
            let cpi = quick_run(design, &spec, 20_000).total_cpi();
            assert!(
                ideal <= cpi + 1e-9,
                "ideal ({ideal:.3}) must not be slower than {design} ({cpi:.3})"
            );
        }
    }

    #[test]
    fn private_data_stays_local_under_rnuca_and_private() {
        // For a purely private workload, R-NUCA and Private should both service
        // L2 hits at local-slice latency (no network component on hits).
        let spec = WorkloadSpec::mix();
        let rnuca = quick_run(LlcDesign::rnuca_default(), &spec, 20_000);
        let shared = quick_run(LlcDesign::Shared, &spec, 20_000);
        // The shared design spreads MIX's private data across the chip and must
        // show a higher L2 CPI for private data.
        assert!(
            shared.cpi.l2_private_data > rnuca.cpi.l2_private_data,
            "shared {:.4} should exceed R-NUCA {:.4} for private-data L2 CPI",
            shared.cpi.l2_private_data,
            rnuca.cpi.l2_private_data
        );
    }

    #[test]
    fn shared_design_never_uses_l2_coherence_transfers() {
        let spec = WorkloadSpec::oltp_db2();
        let run = quick_run(LlcDesign::Shared, &spec, 20_000);
        assert_eq!(run.cpi.l2_shared_coherence, 0.0);
        let rnuca = quick_run(LlcDesign::rnuca_default(), &spec, 20_000);
        assert_eq!(rnuca.cpi.l2_shared_coherence, 0.0);
    }

    #[test]
    fn private_design_pays_coherence_on_shared_data() {
        let spec = WorkloadSpec::oltp_db2();
        let run = quick_run(LlcDesign::Private, &spec, 30_000);
        assert!(
            run.cpi.l2_shared_coherence > 0.0,
            "private design must show remote coherence transfers for shared data"
        );
    }

    #[test]
    fn rnuca_misclassification_is_small() {
        let spec = WorkloadSpec::oltp_db2();
        let run = quick_run(LlcDesign::rnuca_default(), &spec, 50_000);
        assert!(
            run.misclassification_rate < 0.02,
            "misclassification should be well below 2%, got {}",
            run.misclassification_rate
        );
        assert!(
            run.reclassifications > 0,
            "shared pages must trigger re-classifications"
        );
    }

    #[test]
    fn non_rnuca_designs_report_no_classification_activity() {
        let spec = WorkloadSpec::apache();
        let run = quick_run(LlcDesign::Shared, &spec, 5_000);
        assert_eq!(run.misclassification_rate, 0.0);
        assert_eq!(run.reclassifications, 0);
        assert_eq!(run.cpi.breakdown.reclassification, 0.0);
    }

    #[test]
    fn l1_to_l1_transfers_appear_for_read_write_sharing() {
        let spec = WorkloadSpec::oltp_db2();
        for design in [
            LlcDesign::Shared,
            LlcDesign::Private,
            LlcDesign::rnuca_default(),
        ] {
            let run = quick_run(design, &spec, 30_000);
            assert!(
                run.l1_to_l1_rate > 0.0,
                "{design} should see L1-to-L1 transfers on read-write shared data"
            );
        }
    }

    #[test]
    fn asr_static_zero_and_one_bracket_the_adaptive_version() {
        let spec = WorkloadSpec::oltp_db2();
        let p0 = quick_run(
            LlcDesign::Asr {
                policy: AsrPolicy::Static(0.0),
            },
            &spec,
            20_000,
        );
        let p1 = quick_run(
            LlcDesign::Asr {
                policy: AsrPolicy::Static(1.0),
            },
            &spec,
            20_000,
        );
        let adaptive = quick_run(
            LlcDesign::Asr {
                policy: AsrPolicy::Adaptive,
            },
            &spec,
            20_000,
        );
        for run in [&p0, &p1, &adaptive] {
            assert!(run.total_cpi() > 0.0);
        }
        // p=1.0 replicates like the private design; p=0.0 never allocates
        // shared blocks locally. Their CPIs must differ for a sharing workload.
        assert!((p0.total_cpi() - p1.total_cpi()).abs() > 1e-6);
    }

    #[test]
    fn off_chip_rate_reflects_capacity_pressure() {
        // DSS Qry6 streams a multi-gigabyte private working set: every design
        // must show substantial off-chip activity.
        let spec = WorkloadSpec::dss_qry6();
        let run = quick_run(LlcDesign::Shared, &spec, 20_000);
        assert!(
            run.off_chip_rate > 0.2,
            "streaming workload must miss on chip often"
        );
    }

    #[test]
    fn arena_replay_matches_streaming_generation_for_every_design() {
        // The perf-critical property of the trace arena: a simulator driven
        // by a replay cursor produces the bit-identical MeasuredRun that the
        // streaming generator path produces, for every design's step path.
        let spec = WorkloadSpec::oltp_db2();
        let arena = TraceArena::new();
        for design in LlcDesign::speedup_set() {
            let mut gen = TraceGenerator::new(&spec, 13);
            let mut streamed_sim = CmpSimulator::with_seed(design, &spec, 13);
            streamed_sim.run_warmup(&mut gen, 12_000);
            let streamed = streamed_sim.run_measured(&mut gen, 8_000);

            let mut slice = arena.slice(&spec, 13, 20_000);
            let mut replay_sim = CmpSimulator::with_seed(design, &spec, 13);
            replay_sim.run_warmup(&mut slice, 12_000);
            let replayed = replay_sim.run_measured(&mut slice, 8_000);

            assert_eq!(streamed, replayed, "{design} must be replay-invariant");
        }
        // All five designs resolved through one memoized stream.
        assert_eq!(arena.len(), 1);
        assert_eq!(arena.generations(), 1);
    }

    #[test]
    fn measured_run_is_deterministic_for_a_fixed_seed() {
        let spec = WorkloadSpec::em3d();
        let a = quick_run(LlcDesign::rnuca_default(), &spec, 10_000);
        let b = quick_run(LlcDesign::rnuca_default(), &spec, 10_000);
        assert_eq!(a, b);
    }

    #[test]
    fn simulator_seed_changes_asr_replication_decisions() {
        // The experiment seed must reach the simulator RNG: two ASR runs over
        // the *same* reference stream but different simulator seeds make
        // different probabilistic allocation decisions.
        let spec = WorkloadSpec::oltp_db2();
        let design = LlcDesign::Asr {
            policy: AsrPolicy::Static(0.5),
        };
        let run_with = |seed: u64| {
            let mut gen = TraceGenerator::new(&spec, 7);
            let mut sim = CmpSimulator::with_seed(design, &spec, seed);
            sim.run_warmup(&mut gen, 10_000);
            sim.run_measured(&mut gen, 10_000)
        };
        assert_ne!(
            run_with(1),
            run_with(2),
            "different seeds must alter ASR behaviour"
        );
        assert_eq!(run_with(3), run_with(3), "equal seeds stay deterministic");
    }

    #[test]
    fn reused_simulator_second_window_matches_fresh_simulator() {
        // Regression test for ASR-controller state carryover: a second
        // measured window on a reused simulator must equal the same window
        // measured on a fresh simulator that replayed the earlier references
        // as warm-up. Before the fix, the leftover window counters from the
        // first measured window fired the adaptive controller early in the
        // second one. Both windows stay below ASR_WINDOW (10 000) so the
        // learned allocation probability — warm state that legitimately
        // carries over, like cache contents — is unchanged; what must not
        // leak is exactly the window accounting this test pins down.
        let spec = WorkloadSpec::oltp_db2();
        let design = LlcDesign::Asr {
            policy: AsrPolicy::Adaptive,
        };

        let mut gen = TraceGenerator::new(&spec, 11);
        let mut reused = CmpSimulator::with_seed(design, &spec, 5);
        reused.run_warmup(&mut gen, 8_000);
        let _first = reused.run_measured(&mut gen, 6_000);
        let second = reused.run_measured(&mut gen, 8_000);

        let mut gen_fresh = TraceGenerator::new(&spec, 11);
        let mut fresh = CmpSimulator::with_seed(design, &spec, 5);
        fresh.run_warmup(&mut gen_fresh, 8_000 + 6_000);
        let second_fresh = fresh.run_measured(&mut gen_fresh, 8_000);

        assert_eq!(second, second_fresh, "measured windows must be independent");
    }

    #[test]
    fn l1_dirty_tracking_stays_bounded_on_streaming_writes() {
        // A pure write stream to distinct blocks never re-probes old entries,
        // so before the periodic sweep the map grew by one entry per write
        // forever. With the sweep it is bounded by two residency windows.
        use rnuca_types::addr::PhysAddr;
        use rnuca_types::ids::CoreId;

        let spec = WorkloadSpec::oltp_db2();
        let mut sim = CmpSimulator::new(LlcDesign::Private, &spec);
        let steps = 160_000u64; // 2.5 residency windows of 64 000 references
        for i in 0..steps {
            let access = MemoryAccess::new(
                CoreId::new((i % 16) as usize),
                PhysAddr::new(i * 64),
                rnuca_types::access::AccessKind::Write,
                AccessClass::PrivateData,
            );
            sim.step(&access);
        }
        let bound = 2 * 64_000;
        assert!(
            sim.l1_dirty_tracked() <= bound,
            "dirty map must stay within two residency windows, got {}",
            sim.l1_dirty_tracked()
        );
        // Sanity: the map is actually in use.
        assert!(sim.l1_dirty_tracked() > 0);
    }
}
