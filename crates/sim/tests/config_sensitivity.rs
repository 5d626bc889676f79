//! Every value of a [`SystemConfig`] moves a simulated result.
//!
//! A configuration field no result is computed from is vocabulary, not
//! model: it costs a fingerprint input and a line of every preset, and it
//! tells a reader the model honours a parameter it ignores. This test
//! destructures `SystemConfig` exhaustively, so a new field is a compile
//! error here until it gets a variant below (an unused binding fails the
//! workspace's `-D warnings` lint), and then asserts that changing each
//! value on its own changes the private (P) or R-NUCA (R) `MeasuredRun` of
//! a short OLTP run whose small slices evict, and the job's `JobKey`.

use rnuca_sim::{run_single, ExperimentConfig, LlcDesign, MeasuredRun, ScenarioJob};
use rnuca_types::config::{
    CacheGeometry, ConfigPoint, L2SliceConfig, MemoryConfig, NocConfig, SystemConfig,
};
use rnuca_types::latency::Cycles;
use rnuca_workloads::WorkloadSpec;

/// `--quick`-like lengths: long enough that the 64 KB slices evict.
const RUN: ExperimentConfig = ExperimentConfig {
    warmup_refs: 30_000,
    measured_refs: 20_000,
    seed: 42,
    asr_best_of: false,
};

/// The P and R results of OLTP DB2 on `cfg`.
fn results(cfg: SystemConfig) -> [MeasuredRun; 2] {
    cfg.validate()
        .expect("every variant is a valid configuration");
    let spec = WorkloadSpec {
        system: cfg,
        ..WorkloadSpec::oltp_db2()
    };
    [LlcDesign::Private, LlcDesign::rnuca_default()].map(|design| run_single(&spec, design, &RUN))
}

/// The configuration every variant changes one value of: the 16-core
/// preset with 64 KB slices.
fn base() -> SystemConfig {
    SystemConfig::server_16()
        .with_slice_capacity(64 * 1024)
        .expect("64 KB slices are realizable")
}

/// One variant of [`base`] per `SystemConfig` value, named by the value it
/// changes.
fn variants() -> Vec<(&'static str, SystemConfig)> {
    let base = base();
    let SystemConfig {
        num_cores,
        l2_slice:
            L2SliceConfig {
                geometry:
                    CacheGeometry {
                        capacity_bytes,
                        ways,
                        block_bytes,
                    },
                hit_latency,
                victim_entries,
            },
        torus:
            NocConfig {
                width,
                height,
                link_latency,
                router_latency,
                link_bytes,
            },
        memory:
            MemoryConfig {
                page_bytes,
                access_latency,
                cores_per_controller,
            },
    } = base;
    let geometry = |capacity_bytes, ways, block_bytes| {
        CacheGeometry::new(capacity_bytes, ways, block_bytes).expect("a realizable slice")
    };
    let slice = |l2_slice| SystemConfig { l2_slice, ..base };
    let torus = |torus| SystemConfig { torus, ..base };
    let memory = |memory| SystemConfig { memory, ..base };
    // The torus must hold one tile per core, so `num_cores`, `width` and
    // `height` can only change in pairs; each variant names the value it
    // is there for.
    vec![
        (
            "num_cores",
            SystemConfig {
                num_cores: num_cores * 2,
                torus: NocConfig {
                    width: width * 2,
                    ..base.torus
                },
                ..base
            },
        ),
        (
            "l2_slice.geometry.capacity_bytes",
            slice(L2SliceConfig {
                geometry: geometry(capacity_bytes * 2, ways, block_bytes),
                ..base.l2_slice
            }),
        ),
        (
            "l2_slice.geometry.ways",
            slice(L2SliceConfig {
                geometry: geometry(capacity_bytes, ways / 2, block_bytes),
                ..base.l2_slice
            }),
        ),
        (
            "l2_slice.geometry.block_bytes",
            slice(L2SliceConfig {
                geometry: geometry(capacity_bytes, ways, block_bytes * 2),
                ..base.l2_slice
            }),
        ),
        (
            "l2_slice.hit_latency",
            slice(L2SliceConfig {
                hit_latency: hit_latency + Cycles(6),
                ..base.l2_slice
            }),
        ),
        (
            "l2_slice.victim_entries",
            slice(L2SliceConfig {
                victim_entries: victim_entries * 4,
                ..base.l2_slice
            }),
        ),
        (
            "torus.width",
            torus(NocConfig {
                width: width * 2,
                height: height / 2,
                ..base.torus
            }),
        ),
        (
            "torus.height",
            torus(NocConfig {
                width: width / 2,
                height: height * 2,
                ..base.torus
            }),
        ),
        (
            "torus.link_latency",
            torus(NocConfig {
                link_latency: link_latency + Cycles(1),
                ..base.torus
            }),
        ),
        (
            "torus.router_latency",
            torus(NocConfig {
                router_latency: router_latency + Cycles(1),
                ..base.torus
            }),
        ),
        (
            "torus.link_bytes",
            torus(NocConfig {
                link_bytes: link_bytes / 2,
                ..base.torus
            }),
        ),
        (
            "memory.page_bytes",
            memory(MemoryConfig {
                page_bytes: page_bytes / 2,
                ..base.memory
            }),
        ),
        (
            "memory.access_latency",
            memory(MemoryConfig {
                access_latency: access_latency + Cycles(30),
                ..base.memory
            }),
        ),
        (
            "memory.cores_per_controller",
            memory(MemoryConfig {
                cores_per_controller: cores_per_controller / 2,
                ..base.memory
            }),
        ),
    ]
}

#[test]
fn every_system_config_value_moves_a_result() {
    let base = base();
    let base_results = results(base);
    let unmoved: Vec<&str> = variants()
        .into_iter()
        .filter(|(_, cfg)| {
            assert_ne!(*cfg, base);
            results(*cfg) == base_results
        })
        .map(|(field, _)| field)
        .collect();
    assert!(
        unmoved.is_empty(),
        "changing these SystemConfig values moves no P or R result: {unmoved:?}"
    );
}

/// Every value a result is computed from is part of the job's identity, so
/// a stored result is never reused under a different configuration.
#[test]
fn every_system_config_value_moves_the_job_key() {
    let key = |cfg: SystemConfig| {
        ScenarioJob {
            workload: WorkloadSpec {
                system: cfg,
                ..WorkloadSpec::oltp_db2()
            },
            design: LlcDesign::rnuca_default(),
            point: ConfigPoint::baseline(),
        }
        .key(&RUN)
    };
    let base_key = key(base());
    let unmoved: Vec<&str> = variants()
        .into_iter()
        .filter(|(_, cfg)| key(*cfg) == base_key)
        .map(|(field, _)| field)
        .collect();
    assert!(
        unmoved.is_empty(),
        "changing these SystemConfig values leaves the JobKey unchanged: {unmoved:?}"
    );
}
