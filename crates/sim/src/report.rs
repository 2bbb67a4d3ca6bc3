//! Final-state reports shared by the simulation backends.
//!
//! Both engines — the cycle-accurate [`Simulator`]
//! and the reference [`Interpreter`] — expose
//! architectural state (memories and registers) through engine-specific
//! accessors. [`StateSource`] unifies them behind one read-only view so
//! that a single [`write_state_report`] produces the `futil -b sim` /
//! `futil -b interp` output format:
//!
//! ```text
//! done in 23 cycles
//! i = 5
//! acc = 10
//! ```
//!
//! One line per stateful cell of the inspected component, memories first
//! preference (a cell is reported as a memory when the engine knows it as
//! one, otherwise as a register; combinational cells are skipped).

use crate::error::SimResult;
use crate::flatten::RunStats;
use crate::interp::Interpreter;
use crate::rtl::Simulator;
use calyx_core::ir::Component;
use std::io::{self, Write};

/// Read-only architectural state of a finished simulation, keyed by cell
/// name within the inspected component.
pub trait StateSource {
    /// The full contents of memory cell `cell`.
    ///
    /// # Errors
    ///
    /// Returns the engine's lookup error when `cell` is not a memory.
    fn memory(&self, cell: &str) -> SimResult<Vec<u64>>;

    /// The value held by register cell `cell`.
    ///
    /// # Errors
    ///
    /// Returns the engine's lookup error when `cell` is not a register.
    fn register(&self, cell: &str) -> SimResult<u64>;
}

impl StateSource for Simulator {
    fn memory(&self, cell: &str) -> SimResult<Vec<u64>> {
        Simulator::memory(self, &[cell])
    }

    fn register(&self, cell: &str) -> SimResult<u64> {
        Simulator::register_value(self, &[cell])
    }
}

impl StateSource for Interpreter {
    fn memory(&self, cell: &str) -> SimResult<Vec<u64>> {
        Interpreter::memory(self, cell)
    }

    fn register(&self, cell: &str) -> SimResult<u64> {
        Interpreter::register_value(self, cell)
    }
}

/// Write the cycle count and the final architectural state of `comp`'s
/// stateful cells, best-effort: cells the engine does not model as state
/// (adders, comparators, …) are silently skipped.
///
/// # Errors
///
/// Propagates write failures from `out`.
pub fn write_state_report(
    src: &dyn StateSource,
    comp: &Component,
    stats: RunStats,
    out: &mut dyn Write,
) -> io::Result<()> {
    writeln!(out, "done in {} cycles", stats.cycles)?;
    for cell in comp.cells.iter() {
        let name = cell.name.as_str();
        if let Ok(mem) = src.memory(name) {
            writeln!(out, "{name} = {mem:?}")?;
        } else if let Ok(v) = src.register(name) {
            writeln!(out, "{name} = {v}")?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
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
        write_state_report(&interp, ctx.entry().unwrap(), istats, &mut ibuf).unwrap();
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
        write_state_report(&sim, lowered.entry().unwrap(), sstats, &mut sbuf).unwrap();
        let sreport = String::from_utf8(sbuf).unwrap();
        assert!(sreport.contains("r = 7"), "{sreport}");
    }
}
