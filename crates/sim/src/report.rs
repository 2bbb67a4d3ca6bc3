//! Final-state reports shared by the simulation backends.
//!
//! Both engines — the cycle-accurate [`Simulator`]
//! and the reference [`Interpreter`] — keep architectural state (memories
//! and registers) in one [`FlatProgram`], addressed by hierarchical path,
//! so a single [`write_state_report`] over it produces the
//! `futil -b sim` / `futil -b interp` output format:
//!
//! ```text
//! done in 23 cycles
//! i = 5
//! acc = 10
//! ```
//!
//! One line per stateful cell of the inspected component, memories first
//! preference (a cell is reported as a memory when it is one, otherwise as
//! a register; combinational cells and component instances are skipped).
//!
//! [`Simulator`]: crate::rtl::Simulator
//! [`Interpreter`]: crate::interp::Interpreter

use crate::flatten::{FlatProgram, RunStats};
use calyx_core::ir::Component;
use std::io::{self, Write};

/// Write the cycle count and the final architectural state of `comp`'s
/// stateful cells, as `state` holds it, best-effort: cells that are not
/// state (adders, comparators, instances, …) are silently skipped.
///
/// # Errors
///
/// Propagates write failures from `out`.
pub fn write_state_report(
    state: &FlatProgram,
    comp: &Component,
    stats: RunStats,
    out: &mut dyn Write,
) -> io::Result<()> {
    writeln!(out, "done in {} cycles", stats.cycles)?;
    for cell in comp.cells.iter() {
        let name = cell.name.as_str();
        if let Ok(mem) = state.memory(name) {
            writeln!(out, "{name} = {mem:?}")?;
        } else if let Ok(v) = state.register_value(name) {
            writeln!(out, "{name} = {v}")?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interpreter;
    use crate::rtl::Simulator;
    use calyx_core::ir::parse_context;
    use calyx_core::passes::PassManager;

    const COUNTER: &str = r#"
        component main() -> () {
          cells { r = std_reg(8); }
          wires { group g { r.in = 8'd7; r.write_en = 1'd1; g[done] = r.done; } }
          control { g; }
        }
    "#;

    #[test]
    fn rtl_and_interp_reports_share_one_format() {
        // Interpreter over the control tree.
        let ctx = parse_context(COUNTER).unwrap();
        let mut interp = Interpreter::new(&ctx, "main").unwrap();
        let istats = interp.run(1000).unwrap();
        let mut ibuf = Vec::new();
        write_state_report(interp.state(), ctx.entry().unwrap(), istats, &mut ibuf).unwrap();
        let ireport = String::from_utf8(ibuf).unwrap();
        assert!(ireport.starts_with("done in "), "{ireport}");
        assert!(ireport.contains("r = 7"), "{ireport}");

        // RTL simulator over the lowered design.
        let mut lowered = parse_context(COUNTER).unwrap();
        let mut pipeline = PassManager::from_names(&["lower"]).unwrap();
        pipeline.run(&mut lowered).unwrap();
        let mut sim = Simulator::new(&lowered, "main").unwrap();
        let sstats = sim.run(1000).unwrap();
        let mut sbuf = Vec::new();
        write_state_report(sim.state(), lowered.entry().unwrap(), sstats, &mut sbuf).unwrap();
        let sreport = String::from_utf8(sbuf).unwrap();
        assert!(sreport.contains("r = 7"), "{sreport}");
    }
}
