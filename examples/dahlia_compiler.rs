//! Compile a Dahlia program to Calyx (paper §6.2), inspect the generated
//! IL, lower it, simulate it, and emit SystemVerilog — the full
//! DSL-to-RTL journey on a dot-product-with-sqrt kernel that mixes
//! statically-timed multiplies with the data-dependent square root.
//!
//! ```sh
//! cargo run --example dahlia_compiler
//! ```

use calyx::backend::verilog;
use calyx::core::ir::Printer;
use calyx::core::passes::PassManager;
use calyx::sim::rtl::Simulator;

const SRC: &str = "
    decl a: ubit<32>[8];
    decl b: ubit<32>[8];
    decl out: ubit<32>[1];
    let acc: ubit<32> = 0;
    ---
    for (let i: ubit<4> = 0..8) {
      let t: ubit<32> = a[i] * b[i];
      ---
      acc := acc + t;
    }
    ---
    out[0] := sqrt(acc);
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Front end: parse, check, lower, emit Calyx.
    let mut ctx = calyx::dahlia::compile(SRC)?;
    let main = ctx.component("main").expect("main exists");
    println!(
        "generated {} cells and {} groups; control:",
        main.cells.len(),
        main.groups.len()
    );
    print!("{}", Printer::print_control(&main.control));

    // The multiply group carries a static latency; the sqrt group does not
    // (data-dependent), demonstrating mixed latency-(in)sensitive code.
    let statics: Vec<String> = main
        .groups
        .iter()
        .map(|g| match g.static_latency() {
            Some(l) => format!("{}<static={l}>", g.name),
            None => format!("{}<dynamic>", g.name),
        })
        .collect();
    println!("\ngroup latencies: {}", statics.join(", "));

    // Lower with the full optimizing pipeline and simulate.
    PassManager::from_names(&["opt"])?.run(&mut ctx)?;
    let mut sim = Simulator::new(&ctx, "main")?;
    let a: Vec<u64> = (1..=8).collect();
    let b: Vec<u64> = (0..8).map(|i| (i % 3) + 1).collect();
    sim.set_memory("a", &a)?;
    sim.set_memory("b", &b)?;
    let stats = sim.run(100_000)?;

    let dot: u64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
    let expected = (dot as f64).sqrt() as u64;
    let got = sim.memory("out")?[0];
    println!(
        "\nsqrt(a . b) = sqrt({dot}) = {got} in {} cycles",
        stats.cycles
    );
    assert_eq!(got, expected);

    // Back end: SystemVerilog.
    let sv = verilog::emit(&ctx)?;
    println!(
        "emitted {} lines of SystemVerilog",
        verilog::line_count(&sv)
    );
    Ok(())
}
