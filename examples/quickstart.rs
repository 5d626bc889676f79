//! Quickstart: place blocks with R-NUCA and run a tiny design comparison.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use rnuca::placement::{PlacementConfig, PlacementEngine};
use rnuca_os::PageClass;
use rnuca_sim::{CmpSimulator, LlcDesign};
use rnuca_types::addr::BlockAddr;
use rnuca_types::config::SystemConfig;
use rnuca_types::ids::CoreId;
use rnuca_workloads::{TraceGenerator, WorkloadSpec};

fn main() {
    // 1. The 16-core tiled CMP of Table 1.
    let cfg = SystemConfig::server_16();
    println!(
        "System: {} cores, {} KB L2 slice per tile ({}-cycle hit), {}x{} folded torus",
        cfg.num_cores,
        cfg.l2_slice.geometry.capacity_bytes / 1024,
        cfg.l2_slice.hit_latency.value(),
        cfg.torus.width,
        cfg.torus.height
    );

    // 2. Ask the placement engine where each access class lands.
    let engine = PlacementEngine::new(PlacementConfig::from_system(&cfg));
    let core = CoreId::new(5);
    let block = BlockAddr::from_block_number(0xBEEF << 10);
    println!("\nPlacement decisions for core {core} and block {block}:");
    println!(
        "  private data  -> {}",
        engine.place(PageClass::Private, block, core)
    );
    println!(
        "  instructions  -> {}",
        engine.place(PageClass::Instruction, block, core)
    );
    println!(
        "  shared data   -> {}",
        engine.place(PageClass::Shared, block, core)
    );
    let members: Vec<String> = engine
        .instruction_cluster(core)
        .iter()
        .map(ToString::to_string)
        .collect();
    println!(
        "  instruction cluster of {core}: {{{}}}",
        members.join(", ")
    );

    // 3. Run a short OLTP trace under the shared design and under R-NUCA.
    let spec = WorkloadSpec::oltp_db2();
    println!(
        "\nSimulating {} ({} L2 refs warm-up + measure)...",
        spec.name,
        2 * 60_000
    );
    for design in [LlcDesign::Shared, LlcDesign::rnuca_default()] {
        let mut gen = TraceGenerator::new(&spec, 1);
        let mut sim = CmpSimulator::new(design, &spec);
        sim.run_warmup(&mut gen, 60_000);
        let run = sim.run_measured(&mut gen, 60_000);
        println!(
            "  {design:<45} total CPI {:.3} (L2 {:.3}, off-chip {:.3}, L1-to-L1 {:.3})",
            run.total_cpi(),
            run.cpi.breakdown.l2,
            run.cpi.breakdown.off_chip,
            run.cpi.breakdown.l1_to_l1
        );
    }
}
