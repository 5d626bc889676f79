//! Microbench: the rotational-interleaving lookup itself plus an ablation of
//! rotational vs standard (chip-wide) interleaving for instruction placement.
//!
//! The paper's claim is that rotational interleaving matches the speed of
//! address-interleaved lookup (it is a table-free boolean computation) while
//! keeping instruction blocks within one hop. The ablation prints the average
//! hop distance of instruction requests under both schemes.

use criterion::{criterion_group, criterion_main, Criterion};
use rnuca::placement::{PlacementConfig, PlacementEngine};
use rnuca_noc::Network;
use rnuca_types::addr::BlockAddr;
use rnuca_types::config::SystemConfig;
use rnuca_types::ids::CoreId;

fn bench_lookup(c: &mut Criterion) {
    let cfg = SystemConfig::server_16();
    let engine = PlacementEngine::new(PlacementConfig::from_system(&cfg));
    let blocks: Vec<BlockAddr> = (0..4096u64)
        .map(|i| BlockAddr::from_block_number(i << 10))
        .collect();

    c.bench_function("rotational_instruction_lookup", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for (i, &blk) in blocks.iter().enumerate() {
                let core = CoreId::new(i % cfg.num_tiles());
                acc += engine.instruction_home(blk, core).index();
            }
            acc
        })
    });

    c.bench_function("standard_shared_lookup", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for &blk in &blocks {
                acc += engine.shared_home(blk).index();
            }
            acc
        })
    });

    // Ablation: average hop distance of instruction requests, rotational
    // (size-4 cluster) vs standard chip-wide interleaving.
    let net = Network::new(cfg.torus);
    let mut rotational_hops = 0u64;
    let mut standard_hops = 0u64;
    // Average over every (core, block) pair: tying the requesting core to the
    // block index would correlate it with the interleaving bits and make
    // chip-wide interleaving look free.
    let num_cores = cfg.num_tiles();
    for &blk in &blocks {
        let shared_home = engine.shared_home(blk);
        for core_idx in 0..num_cores {
            let core = CoreId::new(core_idx);
            rotational_hops += u64::from(net.hops(core.tile(), engine.instruction_home(blk, core)));
            standard_hops += u64::from(net.hops(core.tile(), shared_home));
        }
    }
    let pairs = (blocks.len() * num_cores) as f64;
    println!(
        "[ablation] average instruction hops: rotational size-4 = {:.2}, chip-wide interleaving = {:.2}",
        rotational_hops as f64 / pairs,
        standard_hops as f64 / pairs,
    );
}

criterion_group!(benches, bench_lookup);
criterion_main!(benches);
