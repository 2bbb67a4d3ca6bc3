//! Generate a systolic matrix-multiply array (paper §6.1), compile it both
//! latency-insensitively and latency-sensitively, and compare cycle counts
//! — the §7.1 experiment in miniature.
//!
//! ```sh
//! cargo run --example systolic_matmul
//! ```

use calyx::backend::area;
use calyx::core::passes::PassManager;
use calyx::sim::rtl::Simulator;
use calyx::systolic::{generate, matmul_operands, SystolicConfig};

/// Lower an n×n array with the pass alias `pipeline`, simulate it, and
/// return its cycles and LUTs.
fn run(n: usize, pipeline: &str) -> Result<(u64, u64), Box<dyn std::error::Error>> {
    let cfg = SystolicConfig::square(n);
    let mut ctx = generate(&cfg);
    PassManager::from_names(&[pipeline])?.run(&mut ctx)?;

    let (image, expected) = matmul_operands(n);
    let mut sim = Simulator::new(&ctx, "main")?;
    for (name, data) in &image {
        sim.set_memory(name, data)?;
    }
    let stats = sim.run(1_000_000)?;

    // Verify against the reference matrix multiply.
    assert_eq!(sim.memory("out")?, expected, "systolic result is exact");

    let luts = area::estimate(&ctx, "main")?.luts;
    Ok((stats.cycles, luts))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("| size | dynamic cycles | static cycles | speedup | LUTs (static) |");
    println!("|------|---------------:|--------------:|--------:|--------------:|");
    for n in [2usize, 4, 6] {
        let (dyn_cycles, _) = run(n, "lower")?;
        let (static_cycles, luts) = run(n, "lower-static")?;
        println!(
            "| {n}x{n} | {dyn_cycles} | {static_cycles} | {:.2}x | {luts} |",
            dyn_cycles as f64 / static_cycles as f64
        );
    }
    println!("\nAll results verified against the reference matrix multiply.");
    Ok(())
}
