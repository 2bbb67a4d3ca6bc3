//! `dead-cell` (C0201): cells no assignment or control statement touches.

use super::diagnostic::{Diagnostic, Severity};
use super::registry::Lint;
use super::sink::DiagnosticSink;
use crate::analysis::{AnalysisCache, BoundaryCells, PortUses};
use crate::ir::{attr, Context};

/// Flags cells that nothing references: no assignment reads or writes any
/// of their ports and no control condition observes them. Mirrors what the
/// `dead-cell-removal` pass deletes during compilation, surfaced as a
/// warning so the source gets cleaned up instead of silently shrunk.
/// `@external` cells are exempt — they exist for the outside world.
#[derive(Default)]
pub struct DeadCell;

impl Lint for DeadCell {
    const NAME: &'static str = "dead-cell";
    const CODE: &'static str = "C0201";
    const DESCRIPTION: &'static str = "cells never referenced by any assignment or condition";
    const SEVERITY: Severity = Severity::Warning;
    const EXPLANATION: &'static str = "\
A cell no assignment reads or writes and no control condition observes
is dead weight: it synthesizes to hardware (or is silently deleted by
the `dead-cell-removal` pass) without affecting the program.

Fix it by deleting the cell declaration, or wiring it up if it was
meant to be used. Cells marked `@external` are exempt — they exist for
the outside world (memory-mapped interfaces, testbench probes) even
when the schedule never touches them.";

    fn check(&self, ctx: &Context, cache: &mut AnalysisCache, sink: &mut DiagnosticSink) {
        for comp in ctx.components.iter() {
            let uses = cache.get::<PortUses>(comp);
            let boundary = cache.get::<BoundaryCells>(comp);
            for cell in comp.cells.iter() {
                if uses.referenced_cells().contains(&cell.name)
                    || boundary.cells().contains(&cell.name)
                    || cell.attributes.has(attr::EXTERNAL)
                {
                    continue;
                }
                sink.push(
                    Diagnostic::new(
                        Self::SEVERITY,
                        Self::CODE,
                        Self::NAME,
                        format!("cell `{}` is never referenced", cell.name),
                    )
                    .at(ctx.sources.cell(comp.name, cell.name))
                    .note("the dead-cell-removal pass will delete it during compilation"),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::parse_context;

    fn check(src: &str) -> DiagnosticSink {
        let ctx = parse_context(src).unwrap();
        let mut sink = DiagnosticSink::new();
        DeadCell.check(&ctx, &mut AnalysisCache::new(), &mut sink);
        sink
    }

    #[test]
    fn unreferenced_cell_warns() {
        let sink = check(
            r#"component main() -> () {
                cells { r = std_reg(8); unused = std_add(8); }
                wires { group g { r.in = 8'd1; r.write_en = 1'd1; g[done] = r.done; } }
                control { g; }
            }"#,
        );
        assert_eq!(sink.warnings(), 1, "{:?}", sink.diagnostics());
        assert!(
            sink.diagnostics()[0].message.contains("`unused`"),
            "{}",
            sink.diagnostics()[0].message
        );
        assert!(sink.diagnostics()[0].loc.is_some());
    }

    #[test]
    fn external_cells_are_exempt() {
        let sink = check(
            r#"component main() -> () {
                cells { @external mem = std_mem_d1(8, 4, 2); r = std_reg(8); }
                wires { group g { r.in = 8'd1; r.write_en = 1'd1; g[done] = r.done; } }
                control { g; }
            }"#,
        );
        assert!(sink.is_empty(), "{:?}", sink.diagnostics());
    }

    #[test]
    fn condition_only_cells_are_live() {
        let sink = check(
            r#"component main() -> () {
                cells { cnd = std_wire(1); r = std_reg(8); }
                wires { group g { r.in = 8'd1; r.write_en = 1'd1; g[done] = r.done; } }
                control { if cnd.out { g; } }
            }"#,
        );
        assert!(sink.is_empty(), "{:?}", sink.diagnostics());
    }
}
