//! Workload specifications: the statistical profile of each evaluated workload.
//!
//! The numbers encoded in the presets are read off the paper's
//! characterization (Figures 2-5) and Table 1's workload descriptions. They
//! are deliberately *approximate* — the goal is to reproduce the structure
//! that drives the evaluation (which classes dominate, how large each class's
//! footprint is relative to the L2, who shares what), not to re-derive exact
//! production traces.

use rnuca_types::config::{ConfigPoint, SystemConfig};
use std::fmt;

/// How shared data is shared among cores (the bubble positions of Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SharingPattern {
    /// Every core is equally likely to touch every shared block (server workloads).
    Universal,
    /// Blocks are shared between small groups of neighbouring cores
    /// (data-parallel scientific codes; the group size is 2-6 in Figure 2b).
    NearestNeighbor {
        /// Number of cores in each sharing group.
        degree: usize,
    },
    /// Blocks move between a producer and a consumer core (two sharers).
    ProducerConsumer,
}

/// The statistical profile of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Human-readable name used in reports ("OLTP DB2", "DSS Qry6", ...).
    pub name: String,
    /// The system configuration it runs on: a Table 1 column (the 16-core
    /// server CMP or the 8-core desktop CMP) for the presets, which scenario
    /// sweeps re-pin to other core counts and slice capacities.
    pub system: SystemConfig,
    /// CPI of useful computation, excluding L2 and off-chip stalls (the
    /// "busy" component of Figure 7).
    pub busy_cpi: f64,
    /// L2 references (L1 misses) per 1000 committed instructions, all classes combined.
    pub l2_refs_per_kilo_instr: f64,

    /// Fraction of L2 references that are instruction fetches.
    pub instr_fraction: f64,
    /// Fraction of L2 references to private data.
    pub private_fraction: f64,
    /// Fraction of L2 references to shared data (read-write plus read-only);
    /// the three fractions sum to 1.
    pub shared_fraction: f64,

    /// Instruction working-set size in KB (chip-wide; instructions are common to all cores).
    pub instr_footprint_kb: u64,
    /// Private-data working set in KB **per core**.
    pub private_footprint_kb_per_core: u64,
    /// Shared-data working set in KB (chip-wide).
    pub shared_footprint_kb: u64,

    /// Fraction of shared-data references that are writes (drives Figure 2's
    /// read-write axis and the coherence traffic of the private designs).
    pub shared_write_fraction: f64,
    /// Fraction of private-data references that are writes.
    pub private_write_fraction: f64,
    /// How shared data is shared.
    pub sharing: SharingPattern,

    /// Fraction of each class's references that go to the "hot" subset of its
    /// footprint (two-level locality model driving the Figure 4 CDFs).
    pub hot_access_fraction: f64,
    /// Fraction of each class's footprint that constitutes the hot subset.
    pub hot_footprint_fraction: f64,
}

impl WorkloadSpec {
    /// TPC-C v3.0 on IBM DB2: instruction- and shared-data-dominated, modest
    /// private footprint, universally shared read-write data.
    pub fn oltp_db2() -> Self {
        WorkloadSpec {
            name: "OLTP DB2".to_string(),
            system: SystemConfig::server_16(),
            busy_cpi: 1.0,
            l2_refs_per_kilo_instr: 42.0,
            instr_fraction: 0.44,
            private_fraction: 0.22,
            shared_fraction: 0.34,
            instr_footprint_kb: 512,
            private_footprint_kb_per_core: 512,
            shared_footprint_kb: 12_288,
            shared_write_fraction: 0.45,
            private_write_fraction: 0.35,
            sharing: SharingPattern::Universal,
            hot_access_fraction: 0.92,
            hot_footprint_fraction: 0.2,
        }
    }

    /// TPC-C v3.0 on Oracle 10g: similar to DB2 but with better locality and a
    /// larger fraction of accesses that the private design can keep local,
    /// which is why the paper groups it with the shared-averse workloads.
    pub fn oltp_oracle() -> Self {
        WorkloadSpec {
            name: "OLTP Oracle".to_string(),
            system: SystemConfig::server_16(),
            busy_cpi: 0.95,
            l2_refs_per_kilo_instr: 38.0,
            instr_fraction: 0.52,
            private_fraction: 0.30,
            shared_fraction: 0.18,
            instr_footprint_kb: 280,
            private_footprint_kb_per_core: 320,
            shared_footprint_kb: 8_192,
            shared_write_fraction: 0.50,
            private_write_fraction: 0.40,
            sharing: SharingPattern::Universal,
            hot_access_fraction: 0.94,
            hot_footprint_fraction: 0.15,
        }
    }

    /// SPECweb99 on Apache: the largest instruction footprint of the suite and
    /// a sizeable universally-shared read-write working set.
    pub fn apache() -> Self {
        WorkloadSpec {
            name: "Apache".to_string(),
            system: SystemConfig::server_16(),
            busy_cpi: 1.1,
            l2_refs_per_kilo_instr: 48.0,
            instr_fraction: 0.55,
            private_fraction: 0.16,
            shared_fraction: 0.29,
            instr_footprint_kb: 768,
            private_footprint_kb_per_core: 384,
            shared_footprint_kb: 14_336,
            shared_write_fraction: 0.40,
            private_write_fraction: 0.30,
            sharing: SharingPattern::Universal,
            hot_access_fraction: 0.9,
            hot_footprint_fraction: 0.2,
        }
    }

    /// TPC-H query 6 on DB2: a scan-dominated DSS query with a multi-gigabyte
    /// private working set that no L2 can contain.
    pub fn dss_qry6() -> Self {
        WorkloadSpec {
            name: "DSS Qry6".to_string(),
            system: SystemConfig::server_16(),
            busy_cpi: 0.8,
            l2_refs_per_kilo_instr: 26.0,
            instr_fraction: 0.16,
            private_fraction: 0.72,
            shared_fraction: 0.12,
            instr_footprint_kb: 96,
            private_footprint_kb_per_core: 131_072,
            shared_footprint_kb: 8_192,
            shared_write_fraction: 0.30,
            private_write_fraction: 0.10,
            sharing: SharingPattern::Universal,
            hot_access_fraction: 0.35,
            hot_footprint_fraction: 0.5,
        }
    }

    /// TPC-H query 8 on DB2: join-heavy DSS with more instruction and shared activity than Q6.
    pub fn dss_qry8() -> Self {
        WorkloadSpec {
            name: "DSS Qry8".to_string(),
            system: SystemConfig::server_16(),
            busy_cpi: 0.85,
            l2_refs_per_kilo_instr: 30.0,
            instr_fraction: 0.28,
            private_fraction: 0.58,
            shared_fraction: 0.14,
            instr_footprint_kb: 160,
            private_footprint_kb_per_core: 65_536,
            shared_footprint_kb: 8_192,
            shared_write_fraction: 0.30,
            private_write_fraction: 0.12,
            sharing: SharingPattern::Universal,
            hot_access_fraction: 0.5,
            hot_footprint_fraction: 0.4,
        }
    }

    /// TPC-H query 13 on DB2: the most instruction-heavy of the three DSS queries.
    pub fn dss_qry13() -> Self {
        WorkloadSpec {
            name: "DSS Qry13".to_string(),
            system: SystemConfig::server_16(),
            busy_cpi: 0.9,
            l2_refs_per_kilo_instr: 34.0,
            instr_fraction: 0.36,
            private_fraction: 0.50,
            shared_fraction: 0.14,
            instr_footprint_kb: 200,
            private_footprint_kb_per_core: 32_768,
            shared_footprint_kb: 10_240,
            shared_write_fraction: 0.32,
            private_write_fraction: 0.15,
            sharing: SharingPattern::Universal,
            hot_access_fraction: 0.55,
            hot_footprint_fraction: 0.35,
        }
    }

    /// em3d (electromagnetic wave propagation): a data-parallel scientific
    /// kernel dominated by private data with nearest-neighbour sharing, whose
    /// instruction footprint fits in the L1-I.
    pub fn em3d() -> Self {
        WorkloadSpec {
            name: "em3d".to_string(),
            system: SystemConfig::server_16(),
            busy_cpi: 0.7,
            l2_refs_per_kilo_instr: 22.0,
            instr_fraction: 0.02,
            private_fraction: 0.84,
            shared_fraction: 0.14,
            instr_footprint_kb: 24,
            private_footprint_kb_per_core: 49_152,
            shared_footprint_kb: 12_288,
            shared_write_fraction: 0.35,
            private_write_fraction: 0.45,
            sharing: SharingPattern::NearestNeighbor { degree: 4 },
            hot_access_fraction: 0.4,
            hot_footprint_fraction: 0.5,
        }
    }

    /// The SPEC CPU2000 multi-programmed MIX (2 copies each of gcc, twolf,
    /// mcf, art) on the 8-core CMP: essentially no sharing, large per-core
    /// private working sets that mostly fit the 3 MB local slices, which makes
    /// it the paper's canonical shared-averse workload.
    pub fn mix() -> Self {
        WorkloadSpec {
            name: "MIX".to_string(),
            system: SystemConfig::desktop_8(),
            busy_cpi: 1.2,
            l2_refs_per_kilo_instr: 18.0,
            instr_fraction: 0.03,
            private_fraction: 0.95,
            shared_fraction: 0.02,
            instr_footprint_kb: 48,
            private_footprint_kb_per_core: 2_560,
            shared_footprint_kb: 1_024,
            shared_write_fraction: 0.20,
            private_write_fraction: 0.40,
            sharing: SharingPattern::ProducerConsumer,
            hot_access_fraction: 0.8,
            hot_footprint_fraction: 0.2,
        }
    }

    /// The full evaluation suite in the order the paper's figures use:
    /// the private-averse workloads first, then the shared-averse ones.
    pub fn evaluation_suite() -> Vec<WorkloadSpec> {
        vec![
            Self::oltp_db2(),
            Self::apache(),
            Self::dss_qry6(),
            Self::dss_qry8(),
            Self::dss_qry13(),
            Self::em3d(),
            Self::oltp_oracle(),
            Self::mix(),
        ]
    }

    /// Number of cores the workload runs on.
    pub fn num_cores(&self) -> usize {
        self.system_config().num_cores
    }

    /// The system configuration the workload runs on.
    pub fn system_config(&self) -> SystemConfig {
        self.system
    }

    /// Returns a copy of this workload pinned to an explicit system
    /// configuration (scenario sweeps use this to evaluate one profile at
    /// many core counts and slice capacities).
    pub fn with_system_config(mut self, cfg: SystemConfig) -> Self {
        self.system = cfg;
        self
    }

    /// Returns a copy of this workload re-parameterised by a [`ConfigPoint`]
    /// applied on top of its current system configuration.
    ///
    /// # Errors
    ///
    /// Returns an error if the point produces an invalid configuration.
    pub fn at_config_point(&self, point: &ConfigPoint) -> Result<Self, rnuca_types::ConfigError> {
        let cfg = point.apply(&self.system_config())?;
        Ok(self.clone().with_system_config(cfg))
    }

    /// Committed instructions represented by each L2 reference.
    pub fn instructions_per_l2_ref(&self) -> f64 {
        1000.0 / self.l2_refs_per_kilo_instr
    }

    /// Validates that the fractions are sane probabilities.
    pub fn validate(&self) -> Result<(), rnuca_types::ConfigError> {
        let sum = self.instr_fraction + self.private_fraction + self.shared_fraction;
        if (sum - 1.0).abs() > 1e-6 {
            return Err(rnuca_types::ConfigError::new(format!(
                "class fractions must sum to 1, got {sum}"
            )));
        }
        for (label, v) in [
            ("instr_fraction", self.instr_fraction),
            ("private_fraction", self.private_fraction),
            ("shared_fraction", self.shared_fraction),
            ("shared_write_fraction", self.shared_write_fraction),
            ("private_write_fraction", self.private_write_fraction),
            ("hot_access_fraction", self.hot_access_fraction),
            ("hot_footprint_fraction", self.hot_footprint_fraction),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(rnuca_types::ConfigError::new(format!(
                    "{label} must be in [0, 1], got {v}"
                )));
            }
        }
        if self.busy_cpi <= 0.0 || self.l2_refs_per_kilo_instr <= 0.0 {
            return Err(rnuca_types::ConfigError::new(
                "busy CPI and L2 reference rate must be positive",
            ));
        }
        self.system_config().validate()
    }
}

impl fmt::Display for WorkloadSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({}-core)", self.name, self.system.num_cores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_validate() {
        for spec in WorkloadSpec::evaluation_suite() {
            spec.validate()
                .unwrap_or_else(|e| panic!("{} invalid: {e}", spec.name));
        }
    }

    #[test]
    fn evaluation_suite_has_eight_workloads() {
        let suite = WorkloadSpec::evaluation_suite();
        assert_eq!(suite.len(), 8);
        let names: Vec<_> = suite.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"OLTP DB2"));
        assert!(names.contains(&"MIX"));
    }

    #[test]
    fn server_workloads_are_instruction_and_shared_heavy() {
        for spec in [
            WorkloadSpec::oltp_db2(),
            WorkloadSpec::oltp_oracle(),
            WorkloadSpec::apache(),
        ] {
            assert!(
                spec.instr_fraction + spec.shared_fraction > 0.5,
                "{} should be dominated by instructions + shared data",
                spec.name
            );
        }
    }

    #[test]
    fn scientific_and_mix_are_private_heavy() {
        assert!(WorkloadSpec::em3d().private_fraction > 0.7);
        assert!(WorkloadSpec::mix().private_fraction > 0.9);
    }

    #[test]
    fn mix_runs_on_the_8_core_preset() {
        let mix = WorkloadSpec::mix();
        assert_eq!(mix.system, SystemConfig::desktop_8());
        assert_eq!(mix.num_cores(), 8);
        assert_eq!(
            mix.system_config().l2_slice.geometry.capacity_bytes,
            3 * 1024 * 1024
        );
    }

    #[test]
    fn dss_private_footprints_exceed_aggregate_l2() {
        let q6 = WorkloadSpec::dss_qry6();
        let aggregate_kb = q6.system_config().aggregate_l2_bytes() as u64 / 1024;
        assert!(
            q6.private_footprint_kb_per_core > aggregate_kb,
            "DSS scans must exceed any reasonable L2 capacity (Section 3.3.1)"
        );
    }

    #[test]
    fn instructions_per_ref_is_inverse_of_rate() {
        let spec = WorkloadSpec::oltp_db2();
        let per_ref = spec.instructions_per_l2_ref();
        assert!((per_ref * spec.l2_refs_per_kilo_instr - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_fractions_are_rejected() {
        let mut spec = WorkloadSpec::oltp_db2();
        spec.instr_fraction = 0.9;
        assert!(spec.validate().is_err());
        let mut spec2 = WorkloadSpec::oltp_db2();
        spec2.busy_cpi = 0.0;
        assert!(spec2.validate().is_err());
    }

    #[test]
    fn preset_display() {
        assert_eq!(format!("{}", WorkloadSpec::apache()), "Apache (16-core)");
        assert_eq!(WorkloadSpec::mix().to_string(), "MIX (8-core)");
        let scaled = WorkloadSpec::apache()
            .at_config_point(&ConfigPoint {
                num_cores: Some(64),
                ..ConfigPoint::default()
            })
            .unwrap();
        assert_eq!(scaled.to_string(), "Apache (64-core)");
    }

    #[test]
    fn system_config_override_takes_effect() {
        let base = WorkloadSpec::oltp_db2();
        assert_eq!(base.num_cores(), 16);
        let scaled = base.system_config().with_core_count(64).unwrap();
        let spec = base.clone().with_system_config(scaled);
        assert_eq!(spec.num_cores(), 64);
        assert_eq!(spec.system_config().torus.width, 8);
        spec.validate().expect("overridden spec must stay valid");
        // The original is untouched.
        assert_eq!(base.num_cores(), 16);
    }

    #[test]
    fn at_config_point_applies_overrides_and_rejects_bad_points() {
        let spec = WorkloadSpec::mix();
        let point = ConfigPoint {
            num_cores: Some(32),
            slice_capacity_kb: Some(1024),
            instr_cluster_size: None,
        };
        let scaled = spec.at_config_point(&point).unwrap();
        assert_eq!(scaled.num_cores(), 32);
        assert_eq!(
            scaled.system_config().l2_slice.geometry.capacity_bytes,
            1024 * 1024
        );
        let bad = ConfigPoint {
            num_cores: Some(7),
            ..ConfigPoint::default()
        };
        assert!(spec.at_config_point(&bad).is_err());
        // The baseline point is the identity.
        let same = spec.at_config_point(&ConfigPoint::baseline()).unwrap();
        assert_eq!(same.system_config(), spec.system_config());
    }
}
