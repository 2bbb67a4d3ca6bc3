//! Remove completely unreferenced cells.

use super::pass_ctx::PassCtx;
use super::visitor::{Action, Visitor};
use crate::analysis::{BoundaryCells, PortUses};
use crate::errors::CalyxResult;
use crate::ir::{attr, Component};

/// Deletes cells that no assignment or control statement references at all.
///
/// The sharing passes (§5.1–5.2) rewrite groups to use representative
/// cells, leaving the donated cells completely unreferenced — this pass is
/// what turns those rewrites into actual area savings. Cells marked
/// `@external` are always kept: their state is the component's observable
/// interface (e.g. result memories).
///
/// The references come from two cached analyses instead of a walk of its
/// own: [`PortUses`] for every assignment, [`BoundaryCells`] for the
/// `if`/`while` condition ports.
///
/// Stateless, but not a unit struct: every caller constructs it with
/// `DeadCellRemoval::default()`, which clippy rejects on a unit struct.
#[derive(Debug, Clone, Default)]
pub struct DeadCellRemoval {}

impl Visitor for DeadCellRemoval {
    fn name(&self) -> &'static str {
        "dead-cell-removal"
    }

    fn description(&self) -> &'static str {
        "remove cells with no references"
    }

    fn start_component(&mut self, comp: &mut Component, ctx: &mut PassCtx) -> CalyxResult<Action> {
        let uses = ctx.get::<PortUses>(comp);
        let boundary = ctx.get::<BoundaryCells>(comp);
        let before = comp.cells.len();
        comp.cells.retain(|c| {
            uses.referenced_cells().contains(&c.name)
                || boundary.cells().contains(&c.name)
                || c.attributes.has(attr::external())
        });
        if comp.cells.len() != before {
            ctx.set_dirty();
        }
        Ok(Action::SkipChildren)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{parse_context, Id};
    use crate::passes::Pass;

    #[test]
    fn removes_unreferenced_cells() {
        let mut ctx = parse_context(
            r#"component main() -> () {
                cells {
                  used = std_reg(8);
                  dead = std_add(8);
                  @external kept = std_mem_d1(8, 4, 2);
                }
                wires {
                  group g { used.in = 8'd1; used.write_en = 1'd1; g[done] = used.done; }
                }
                control { g; }
            }"#,
        )
        .unwrap();
        DeadCellRemoval::default().run(&mut ctx).unwrap();
        let main = ctx.component("main").unwrap();
        assert!(main.cells.contains(Id::new("used")));
        assert!(!main.cells.contains(Id::new("dead")));
        assert!(
            main.cells.contains(Id::new("kept")),
            "@external cells survive"
        );
    }

    #[test]
    fn keeps_cells_only_read_by_guards() {
        let mut ctx = parse_context(
            r#"component main() -> () {
                cells { flag = std_reg(1); r = std_reg(8); }
                wires {
                  group g {
                    r.in = flag.out ? 8'd1;
                    r.write_en = 1'd1;
                    g[done] = r.done;
                  }
                }
                control { g; }
            }"#,
        )
        .unwrap();
        DeadCellRemoval::default().run(&mut ctx).unwrap();
        assert!(ctx
            .component("main")
            .unwrap()
            .cells
            .contains(Id::new("flag")));
    }

    #[test]
    fn keeps_condition_port_cells() {
        let mut ctx = parse_context(
            r#"component main() -> () {
                cells { lt = std_lt(8); r = std_reg(8); }
                wires {
                  group cond { cond[done] = 1'd1; }
                  group body { r.in = 8'd1; r.write_en = 1'd1; body[done] = r.done; }
                }
                control { while lt.out with cond { body; } }
            }"#,
        )
        .unwrap();
        DeadCellRemoval::default().run(&mut ctx).unwrap();
        assert!(ctx.component("main").unwrap().cells.contains(Id::new("lt")));
    }
}
