//! Quickstart: build a Calyx program with the builder API, lower it to
//! structural RTL, simulate it, and emit SystemVerilog.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use calyx::backend::{area, verilog, Backend, BackendOpts, VerilogBackend};
use calyx::core::ir::{Builder, Context, Control, Printer};
use calyx::core::passes::PassManager;
use calyx::sim::rtl::Simulator;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A component that sums the four elements of a memory into a register.
    let mut ctx = Context::new();
    let mut comp = ctx.new_component("main");
    {
        let mut b = Builder::new(&mut comp, &ctx);
        let mem = b.add_primitive("m", "std_mem_d1", &[32, 4, 2]);
        b.set_cell_attribute(mem, calyx::core::ir::attr::EXTERNAL, 1);
        let idx = b.add_primitive("idx", "std_reg", &[3]);
        let acc = b.add_primitive("acc", "std_reg", &[32]);
        let lt = b.add_primitive("lt", "std_lt", &[3]);
        let add_idx = b.add_primitive("add_idx", "std_add", &[3]);
        let add_acc = b.add_primitive("add_acc", "std_add", &[32]);
        let slice = b.add_primitive("slice", "std_slice", &[3, 2]);

        // cond: idx < 4 (combinational condition group).
        let cond = b.add_group("cond");
        b.asgn(cond, (lt, "left"), (idx, "out"));
        b.asgn_const(cond, (lt, "right"), 4, 3);
        b.group_done_const(cond, 1);

        // accum: acc += m[idx]
        let accum = b.add_group("accum");
        b.asgn(accum, (slice, "in"), (idx, "out"));
        b.asgn(accum, (mem, "addr0"), (slice, "out"));
        b.asgn(accum, (add_acc, "left"), (acc, "out"));
        b.asgn(accum, (add_acc, "right"), (mem, "read_data"));
        b.asgn(accum, (acc, "in"), (add_acc, "out"));
        b.asgn_const(accum, (acc, "write_en"), 1, 1);
        b.group_done(accum, (acc, "done"));

        // incr: idx += 1
        let incr = b.add_group("incr");
        b.asgn(incr, (add_idx, "left"), (idx, "out"));
        b.asgn_const(incr, (add_idx, "right"), 1, 3);
        b.asgn(incr, (idx, "in"), (add_idx, "out"));
        b.asgn_const(incr, (idx, "write_en"), 1, 1);
        b.group_done(incr, (idx, "done"));

        b.set_control(Control::while_(
            calyx::core::ir::PortRef::cell(lt, "out"),
            Some(cond),
            Control::seq(vec![Control::enable(accum), Control::enable(incr)]),
        ));
    }
    ctx.add_component(comp);

    println!("=== Calyx source ===\n{}", Printer::print_context(&ctx));

    // Lower: control becomes latency-insensitive FSMs, groups are erased.
    PassManager::from_names(&["lower"])?.run(&mut ctx)?;

    // Simulate the lowered RTL.
    let mut sim = Simulator::new(&ctx, "main")?;
    sim.set_memory("m", &[10, 20, 30, 40])?;
    let stats = sim.run(10_000)?;
    println!(
        "sum(m) = {} in {} cycles",
        sim.register_value("acc")?,
        stats.cycles
    );
    assert_eq!(sim.register_value("acc")?, 100);

    // Estimate FPGA resources and emit SystemVerilog through the Backend
    // trait — the same streaming path `futil -b verilog -o file.sv` uses.
    let a = area::estimate(&ctx, "main")?;
    println!("estimated area: {a:?}");
    let backend = VerilogBackend::from_opts(&BackendOpts::default());
    backend.validate(&ctx)?;
    let mut sv = Vec::new();
    backend.emit(&ctx, &mut sv)?;
    let sv = String::from_utf8(sv)?;
    println!(
        "emitted {} lines of SystemVerilog (showing the module header):",
        verilog::line_count(&sv)
    );
    for line in sv.lines().filter(|l| l.starts_with("module")).take(5) {
        println!("  {line}");
    }
    Ok(())
}
