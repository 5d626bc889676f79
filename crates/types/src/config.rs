//! System configuration: the parameters of Table 1 of the paper.
//!
//! Two presets are provided: [`SystemConfig::server_16`] (the 16-core CMP used
//! for server and scientific workloads) and [`SystemConfig::desktop_8`] (the
//! 8-core CMP used for the multi-programmed MIX workload).
//!
//! Only the parameters a simulated result is computed from are fields. The
//! simulator is trace-driven on the post-L1 reference stream: every
//! reference in a trace is already an L1 miss, so Table 1's L1 geometry and
//! hit latency, the MSHR counts (the model has no outstanding-miss
//! overlap), the clock frequency (results are in cycles) and the DRAM
//! capacity (the traces never exhaust it) would change nothing it reports,
//! and have no field here.

use crate::error::ConfigError;
use crate::fingerprint::Fnv64;
use crate::latency::Cycles;

/// Geometry of a single set-associative cache array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub capacity_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Block (line) size in bytes.
    pub block_bytes: usize,
}

impl CacheGeometry {
    /// Creates a cache geometry, validating that it describes a realizable array.
    ///
    /// # Errors
    ///
    /// Returns an error if any parameter is zero, the block size is not a
    /// power of two, the capacity is not a multiple of `ways * block_bytes`,
    /// or the resulting set count is not a power of two.
    pub fn new(
        capacity_bytes: usize,
        ways: usize,
        block_bytes: usize,
    ) -> Result<Self, ConfigError> {
        if capacity_bytes == 0 || ways == 0 || block_bytes == 0 {
            return Err(ConfigError::new(
                "cache geometry parameters must be non-zero",
            ));
        }
        if !block_bytes.is_power_of_two() {
            return Err(ConfigError::new("block size must be a power of two"));
        }
        let way_bytes = ways * block_bytes;
        if !capacity_bytes.is_multiple_of(way_bytes) {
            return Err(ConfigError::new(
                "capacity must be a multiple of ways * block size",
            ));
        }
        let sets = capacity_bytes / way_bytes;
        if !sets.is_power_of_two() {
            return Err(ConfigError::new("number of sets must be a power of two"));
        }
        Ok(CacheGeometry {
            capacity_bytes,
            ways,
            block_bytes,
        })
    }

    /// Number of sets in the array.
    pub fn num_sets(&self) -> usize {
        self.capacity_bytes / (self.ways * self.block_bytes)
    }

    /// Number of blocks the array can hold.
    pub fn num_blocks(&self) -> usize {
        self.capacity_bytes / self.block_bytes
    }
}

/// Configuration of one L2 NUCA slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2SliceConfig {
    /// Geometry of the slice.
    pub geometry: CacheGeometry,
    /// Access latency of a hit in the slice (bank access only, excluding network).
    pub hit_latency: Cycles,
    /// Victim-cache entries attached to each slice.
    pub victim_entries: usize,
}

/// Configuration of the on-chip interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NocConfig {
    /// Torus width (tiles per row).
    pub width: usize,
    /// Torus height (tiles per column).
    pub height: usize,
    /// Link traversal latency.
    pub link_latency: Cycles,
    /// Router pipeline latency.
    pub router_latency: Cycles,
    /// Link width in bytes (used for serialization latency of data messages).
    pub link_bytes: usize,
}

impl NocConfig {
    /// Number of tiles on the torus.
    pub fn num_tiles(&self) -> usize {
        self.width * self.height
    }

    /// Latency of a single hop (one link plus one router).
    pub fn hop_latency(&self) -> Cycles {
        self.link_latency + self.router_latency
    }
}

/// Configuration of main memory and the on-chip memory controllers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryConfig {
    /// OS page size in bytes.
    pub page_bytes: usize,
    /// DRAM access latency in core cycles (45 ns at 2 GHz = 90 cycles).
    pub access_latency: Cycles,
    /// Number of cores served by each memory controller.
    pub cores_per_controller: usize,
}

/// Full system configuration (one row of Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemConfig {
    /// Number of processor cores (== number of tiles).
    pub num_cores: usize,
    /// Per-tile L2 slice configuration.
    pub l2_slice: L2SliceConfig,
    /// Interconnect configuration.
    pub torus: NocConfig,
    /// Memory system configuration.
    pub memory: MemoryConfig,
}

impl SystemConfig {
    /// The 16-core server/scientific configuration of Table 1:
    /// 1 MB 16-way L2 slice per core with a 14-cycle hit, 4×4 folded torus.
    pub fn server_16() -> Self {
        SystemConfig {
            num_cores: 16,
            l2_slice: L2SliceConfig {
                geometry: CacheGeometry::new(1024 * 1024, 16, 64)
                    .expect("L2 geometry from Table 1 is valid"),
                hit_latency: Cycles(14),
                victim_entries: 16,
            },
            torus: NocConfig {
                width: 4,
                height: 4,
                link_latency: Cycles(1),
                router_latency: Cycles(2),
                link_bytes: 32,
            },
            memory: MemoryConfig {
                page_bytes: 8192,
                access_latency: Cycles(90),
                cores_per_controller: 4,
            },
        }
    }

    /// The 8-core multi-programmed configuration of Table 1:
    /// 3 MB 12-way L2 slice per core with a 25-cycle hit, 4×2 folded torus.
    pub fn desktop_8() -> Self {
        SystemConfig {
            num_cores: 8,
            l2_slice: L2SliceConfig {
                geometry: CacheGeometry::new(3 * 1024 * 1024, 12, 64)
                    .expect("L2 geometry from Table 1 is valid"),
                hit_latency: Cycles(25),
                victim_entries: 16,
            },
            torus: NocConfig {
                width: 4,
                height: 2,
                link_latency: Cycles(1),
                router_latency: Cycles(2),
                link_bytes: 32,
            },
            memory: MemoryConfig {
                page_bytes: 8192,
                access_latency: Cycles(90),
                cores_per_controller: 4,
            },
        }
    }

    /// Number of tiles (== cores) in the system.
    pub fn num_tiles(&self) -> usize {
        self.num_cores
    }

    /// Returns a copy of this configuration scaled to `num_cores` cores.
    ///
    /// The torus is re-shaped to the squarest `width x height` factorisation
    /// (16 → 4×4, 32 → 8×4, 64 → 8×8) so hop counts grow the way the paper's
    /// scaling argument assumes. All per-tile parameters are kept.
    ///
    /// # Errors
    ///
    /// Returns an error if `num_cores` is zero or not a power of two (the
    /// rotational-interleaving machinery requires power-of-two tile counts).
    pub fn with_core_count(mut self, num_cores: usize) -> Result<Self, ConfigError> {
        if num_cores == 0 || !num_cores.is_power_of_two() {
            return Err(ConfigError::new(format!(
                "core count must be a non-zero power of two, got {num_cores}"
            )));
        }
        let height = 1usize << (num_cores.trailing_zeros() / 2);
        self.num_cores = num_cores;
        self.torus.width = num_cores / height;
        self.torus.height = height;
        self.validate()?;
        Ok(self)
    }

    /// Returns a copy of this configuration with `capacity_bytes` L2 slices.
    ///
    /// The block size is preserved. The associativity starts from the current
    /// value and is reduced (deterministically) until the geometry is
    /// realizable — e.g. shrinking the desktop preset's 12-way 3 MB slice to
    /// 512 KB settles on 8 ways so the set count stays a power of two.
    ///
    /// # Errors
    ///
    /// Returns an error if no associativity in `1..=current` yields a valid
    /// geometry for the requested capacity.
    pub fn with_slice_capacity(mut self, capacity_bytes: usize) -> Result<Self, ConfigError> {
        let block = self.l2_slice.geometry.block_bytes;
        let geometry = (1..=self.l2_slice.geometry.ways)
            .rev()
            .find_map(|ways| CacheGeometry::new(capacity_bytes, ways, block).ok())
            .ok_or_else(|| {
                ConfigError::new(format!(
                    "no valid L2 slice geometry for {capacity_bytes} bytes with {block}-byte blocks"
                ))
            })?;
        self.l2_slice.geometry = geometry;
        Ok(self)
    }

    /// Number of memory controllers in the system.
    pub fn num_mem_controllers(&self) -> usize {
        self.num_cores.div_ceil(self.memory.cores_per_controller)
    }

    /// Aggregate L2 capacity across all slices, in bytes.
    pub fn aggregate_l2_bytes(&self) -> usize {
        self.num_cores * self.l2_slice.geometry.capacity_bytes
    }

    /// Validates internal consistency (torus covers all tiles, geometries valid).
    ///
    /// # Errors
    ///
    /// Returns an error if the torus dimensions do not multiply to the core
    /// count, the page size is not a power of two, or the slice geometry
    /// fails validation.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.torus.num_tiles() != self.num_cores {
            return Err(ConfigError::new(
                "torus dimensions must cover exactly one tile per core",
            ));
        }
        if self.num_cores == 0 {
            return Err(ConfigError::new("system must have at least one core"));
        }
        if !self.memory.page_bytes.is_power_of_two() {
            return Err(ConfigError::new("page size must be a power of two"));
        }
        CacheGeometry::new(
            self.l2_slice.geometry.capacity_bytes,
            self.l2_slice.geometry.ways,
            self.l2_slice.geometry.block_bytes,
        )?;
        Ok(())
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig::server_16()
    }
}

/// The subset of a [`SystemConfig`] that determines the *contents* of a
/// workload's reference stream.
///
/// Trace generation depends on the number of issuing cores and on the block
/// and page granularities the address layout is built from — and on nothing
/// else. Slice capacities, associativities, latencies, and topology shape
/// what a stream *costs* to simulate, never which references it contains, so
/// two configurations with equal `TraceGeometry` replay the identical
/// stream. Trace memoization keys on this struct for exactly that reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceGeometry {
    /// Number of cores issuing references.
    pub num_cores: usize,
    /// Cache-block size in bytes (the granularity references are aligned to).
    pub block_bytes: usize,
    /// OS page size in bytes (the granularity address regions are laid out in).
    pub page_bytes: usize,
}

impl SystemConfig {
    /// Mixes every field into `h`, one by one in declaration order.
    ///
    /// Exhaustive destructuring makes a new field a compile error here, so
    /// fingerprints built on this never silently ignore part of the
    /// configuration.
    pub fn write_fingerprint(&self, h: &mut Fnv64) {
        let SystemConfig {
            num_cores,
            l2_slice,
            torus,
            memory,
        } = self;
        let L2SliceConfig {
            geometry,
            hit_latency,
            victim_entries,
        } = l2_slice;
        let CacheGeometry {
            capacity_bytes,
            ways,
            block_bytes,
        } = geometry;
        let NocConfig {
            width,
            height,
            link_latency,
            router_latency,
            link_bytes,
        } = torus;
        let MemoryConfig {
            page_bytes,
            access_latency,
            cores_per_controller,
        } = memory;
        for v in [
            *num_cores,
            *capacity_bytes,
            *ways,
            *block_bytes,
            *victim_entries,
            *width,
            *height,
            *link_bytes,
            *page_bytes,
            *cores_per_controller,
        ] {
            h.write_u64(v as u64);
        }
        for latency in [hit_latency, link_latency, router_latency, access_latency] {
            h.write_u64(latency.0);
        }
    }

    /// The trace-determining subset of this configuration (see [`TraceGeometry`]).
    pub fn trace_geometry(&self) -> TraceGeometry {
        TraceGeometry {
            num_cores: self.num_cores,
            block_bytes: self.l2_slice.geometry.block_bytes,
            page_bytes: self.memory.page_bytes,
        }
    }
}

/// One point of a scenario sweep: a set of overrides applied on top of a
/// workload's baseline [`SystemConfig`].
///
/// `None` fields keep the baseline value, so the all-`None` point is the
/// baseline itself. The first two overrides act on the system configuration
/// via [`ConfigPoint::apply`]; `instr_cluster_size` is carried along for the
/// simulation layer, which realises it by parameterising the R-NUCA design
/// rather than the system configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct ConfigPoint {
    /// Override for the number of cores (and tiles) on the chip.
    pub num_cores: Option<usize>,
    /// Override for the per-tile L2 slice capacity, in KB.
    pub slice_capacity_kb: Option<usize>,
    /// Override for the R-NUCA instruction-cluster size (consumed by the
    /// simulation layer; ignored by [`ConfigPoint::apply`]).
    pub instr_cluster_size: Option<usize>,
}

impl ConfigPoint {
    /// The baseline point: no overrides.
    pub fn baseline() -> Self {
        ConfigPoint::default()
    }

    /// Whether this point overrides nothing.
    pub fn is_baseline(&self) -> bool {
        *self == ConfigPoint::default()
    }

    /// Applies the system-level overrides to `base`.
    ///
    /// # Errors
    ///
    /// Returns an error if an override produces an invalid configuration
    /// (non-power-of-two core count, a slice capacity whose byte count
    /// overflows `usize`, unrealizable slice geometry).
    pub fn apply(&self, base: &SystemConfig) -> Result<SystemConfig, ConfigError> {
        let mut cfg = *base;
        if let Some(n) = self.num_cores {
            cfg = cfg.with_core_count(n)?;
        }
        if let Some(kb) = self.slice_capacity_kb {
            let bytes = kb.checked_mul(1024).ok_or_else(|| {
                ConfigError::new(format!(
                    "L2 slice capacity of {kb} KB overflows a byte count"
                ))
            })?;
            cfg = cfg.with_slice_capacity(bytes)?;
        }
        cfg.validate()?;
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_server_parameters() {
        let cfg = SystemConfig::server_16();
        assert_eq!(cfg.num_cores, 16);
        assert_eq!(cfg.l2_slice.geometry.capacity_bytes, 1024 * 1024);
        assert_eq!(cfg.l2_slice.geometry.ways, 16);
        assert_eq!(cfg.l2_slice.hit_latency, Cycles(14));
        assert_eq!(cfg.torus.width * cfg.torus.height, 16);
        assert_eq!(cfg.memory.access_latency, Cycles(90));
        assert_eq!(cfg.num_mem_controllers(), 4);
        assert_eq!(cfg.aggregate_l2_bytes(), 16 * 1024 * 1024);
        cfg.validate().expect("preset must validate");
    }

    #[test]
    fn table1_desktop_parameters() {
        let cfg = SystemConfig::desktop_8();
        assert_eq!(cfg.num_cores, 8);
        assert_eq!(cfg.l2_slice.geometry.capacity_bytes, 3 * 1024 * 1024);
        assert_eq!(cfg.l2_slice.geometry.ways, 12);
        assert_eq!(cfg.l2_slice.hit_latency, Cycles(25));
        assert_eq!(cfg.torus.width, 4);
        assert_eq!(cfg.torus.height, 2);
        assert_eq!(cfg.num_mem_controllers(), 2);
        cfg.validate().expect("preset must validate");
    }

    #[test]
    fn geometry_validation_rejects_bad_shapes() {
        assert!(CacheGeometry::new(0, 2, 64).is_err());
        assert!(CacheGeometry::new(64 * 1024, 0, 64).is_err());
        assert!(CacheGeometry::new(64 * 1024, 2, 48).is_err());
        assert!(CacheGeometry::new(65 * 1024, 2, 64).is_err());
        // 3 MB 12-way 64 B => 4096 sets, valid.
        assert!(CacheGeometry::new(3 * 1024 * 1024, 12, 64).is_ok());
        // 96 KB 2-way 64 B => 768 sets: not a power of two.
        assert!(CacheGeometry::new(96 * 1024, 2, 64).is_err());
    }

    #[test]
    fn geometry_derived_quantities() {
        let g = CacheGeometry::new(1024 * 1024, 16, 64).unwrap();
        assert_eq!(g.num_sets(), 1024);
        assert_eq!(g.num_blocks(), 16384);
        let small = CacheGeometry::new(64 * 1024, 2, 64).unwrap();
        assert_eq!(small.num_sets(), 512);
    }

    #[test]
    fn hop_latency_is_link_plus_router() {
        let cfg = SystemConfig::server_16();
        assert_eq!(cfg.torus.hop_latency(), Cycles(3));
    }

    #[test]
    fn validate_catches_mismatched_torus() {
        let mut cfg = SystemConfig::server_16();
        cfg.torus.width = 5;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn default_is_server_16() {
        assert_eq!(SystemConfig::default(), SystemConfig::server_16());
    }

    #[test]
    fn with_core_count_reshapes_the_torus() {
        let base = SystemConfig::server_16();
        for (n, w, h) in [(8, 4, 2), (16, 4, 4), (32, 8, 4), (64, 8, 8)] {
            let cfg = base
                .with_core_count(n)
                .expect("power-of-two core counts are valid");
            assert_eq!(cfg.num_cores, n);
            assert_eq!((cfg.torus.width, cfg.torus.height), (w, h));
            cfg.validate().expect("scaled config must validate");
            // Per-tile parameters are untouched.
            assert_eq!(cfg.l2_slice, base.l2_slice);
        }
        assert!(base.with_core_count(0).is_err());
        assert!(base.with_core_count(24).is_err());
    }

    #[test]
    fn with_slice_capacity_keeps_or_reduces_ways() {
        // 512 KB at 16 ways: 512 sets, valid — ways preserved.
        let cfg = SystemConfig::server_16()
            .with_slice_capacity(512 * 1024)
            .unwrap();
        assert_eq!(cfg.l2_slice.geometry.capacity_bytes, 512 * 1024);
        assert_eq!(cfg.l2_slice.geometry.ways, 16);
        // 512 KB at 12 ways is unrealizable; the desktop preset settles on 8.
        let cfg = SystemConfig::desktop_8()
            .with_slice_capacity(512 * 1024)
            .unwrap();
        assert_eq!(cfg.l2_slice.geometry.ways, 8);
        assert_eq!(cfg.l2_slice.geometry.num_sets(), 1024);
        // A capacity smaller than one block is unrealizable at any way count.
        assert!(SystemConfig::server_16().with_slice_capacity(32).is_err());
    }

    #[test]
    fn config_point_baseline_is_identity() {
        let base = SystemConfig::server_16();
        let point = ConfigPoint::baseline();
        assert!(point.is_baseline());
        assert_eq!(point.apply(&base).unwrap(), base);
    }

    #[test]
    fn trace_geometry_ignores_cost_only_parameters() {
        let base = SystemConfig::server_16();
        let g = base.trace_geometry();
        assert_eq!(g.num_cores, 16);
        assert_eq!(g.block_bytes, 64);
        assert_eq!(g.page_bytes, 8192);
        // Slice capacity shapes cost, not stream contents.
        let resized = base.with_slice_capacity(512 * 1024).unwrap();
        assert_eq!(resized.trace_geometry(), g);
        // Core count changes the stream.
        let scaled = base.with_core_count(64).unwrap();
        assert_ne!(scaled.trace_geometry(), g);
        assert_eq!(scaled.trace_geometry().num_cores, 64);
    }

    #[test]
    fn config_point_applies_cores_and_capacity() {
        let base = SystemConfig::server_16();
        let point = ConfigPoint {
            num_cores: Some(64),
            slice_capacity_kb: Some(512),
            instr_cluster_size: Some(8),
        };
        assert!(!point.is_baseline());
        let cfg = point.apply(&base).unwrap();
        assert_eq!(cfg.num_cores, 64);
        assert_eq!(cfg.l2_slice.geometry.capacity_bytes, 512 * 1024);
        // The cluster-size override is carried, not applied here.
        assert_eq!(cfg.torus.num_tiles(), 64);
        let bad = ConfigPoint {
            num_cores: Some(5),
            ..ConfigPoint::default()
        };
        assert!(bad.apply(&base).is_err());
    }

    #[test]
    fn config_point_rejects_a_slice_capacity_whose_byte_count_overflows() {
        // 2^54 + 1 KB wraps to exactly 1,024 bytes when multiplied unchecked.
        let kb = (1usize << 54) + 1;
        let point = ConfigPoint {
            slice_capacity_kb: Some(kb),
            ..ConfigPoint::default()
        };
        let err = point
            .apply(&SystemConfig::server_16())
            .expect_err("an overflowing capacity must not yield a config");
        assert!(err.to_string().contains(&kb.to_string()), "{err}");
    }
}
