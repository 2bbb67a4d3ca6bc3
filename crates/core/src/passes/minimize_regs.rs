//! Register sharing via live-range analysis (paper §5.2).
//!
//! Group-local reasoning cannot share registers — their values escape the
//! writing group — so this pass runs a live-range analysis over the
//! parallel control-flow graph: a register whose last read has passed can
//! be reused by later groups. The steps:
//!
//! 1. query the [`BoundaryRegs`] and [`Interference`] analyses through the
//!    pass context — the interference graph transitively pulls the pCFG,
//!    read/write sets, and liveness from the same cache, so prerequisites
//!    computed for other passes are reused;
//! 2. greedily color the graph with registers of identical width as colors;
//! 3. rewrite *all* groups through the resulting renaming (unlike resource
//!    sharing, the substitution is global, since register names appear in
//!    many groups).

use super::pass_ctx::PassCtx;
use super::visitor::{Action, Visitor};
use crate::analysis::liveness::{BoundaryRegs, Interference};
use crate::errors::CalyxResult;
use crate::ir::{Component, Id, Rewriter};
use rustc_hash::FxHashMap;
use std::collections::BTreeMap;

/// Merge registers with non-overlapping live ranges.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinimizeRegs;

impl Visitor for MinimizeRegs {
    fn name(&self) -> &'static str {
        "minimize-regs"
    }

    fn description(&self) -> &'static str {
        "share registers whose live ranges do not overlap"
    }

    fn start_component(&mut self, comp: &mut Component, ctx: &mut PassCtx) -> CalyxResult<Action> {
        // Registers observable outside the schedule stay live forever:
        // anything touched by continuous assignments or referenced directly
        // as an `if`/`while` condition port ([`BoundaryRegs`]).
        let boundary = ctx.get::<BoundaryRegs>(comp);
        let boundary = boundary.registers();
        let interference = ctx.get::<Interference>(comp);

        // Registers in deterministic order, grouped by width.
        let registers: Vec<(Id, u64)> = comp
            .cells
            .iter()
            .filter(|c| c.is_register())
            .map(|c| {
                let width = c.primitive_params().expect("std_reg is a primitive")[0];
                (c.name, width)
            })
            .collect();

        // Greedy coloring: colors are representative registers.
        let mut color_of: FxHashMap<Id, Id> = FxHashMap::default();
        let mut members: BTreeMap<Id, Vec<Id>> = BTreeMap::new(); // color -> regs
        let mut colors_by_width: BTreeMap<u64, Vec<Id>> = BTreeMap::new();
        for &(reg, width) in &registers {
            if boundary.contains(&reg) {
                // Pinned: gets (and keeps) its own color.
                color_of.insert(reg, reg);
                members.entry(reg).or_default().push(reg);
                colors_by_width.entry(width).or_default().push(reg);
                continue;
            }
            let mut chosen = None;
            for &color in colors_by_width.entry(width).or_default().iter() {
                if boundary.contains(&color) {
                    continue; // never merge into a pinned register
                }
                let clash = members[&color]
                    .iter()
                    .any(|&other| interference.conflict(reg, other));
                if !clash {
                    chosen = Some(color);
                    break;
                }
            }
            let color = chosen.unwrap_or(reg);
            if color == reg {
                colors_by_width.entry(width).or_default().push(reg);
            }
            color_of.insert(reg, color);
            members.entry(color).or_default().push(reg);
        }

        // Build and apply the global renaming.
        let cell_map: FxHashMap<Id, Id> = color_of
            .iter()
            .filter(|(reg, color)| reg != color)
            .map(|(reg, color)| (*reg, *color))
            .collect();
        if cell_map.is_empty() {
            return Ok(Action::SkipChildren);
        }
        ctx.set_dirty();
        let rewriter = Rewriter::from_cells(cell_map);
        let (assignments, guards) = comp.wires_mut();
        rewriter.assignments(assignments, guards);
        comp.compact_guards();
        let mut control = std::mem::take(&mut comp.control);
        rewriter.control(&mut control);
        comp.control = control;
        // The rewrite already visited the control tree through the
        // analyses; no per-statement work remains.
        Ok(Action::SkipChildren)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{parse_context, PortRef};
    use crate::passes::Pass;

    /// Two temporaries with back-to-back disjoint lifetimes collapse into
    /// one register.
    #[test]
    fn merges_disjoint_lifetimes() {
        let src = r#"
            component main() -> () {
              cells {
                t0 = std_reg(8); t1 = std_reg(8);
                @external m = std_mem_d1(8, 2, 1);
              }
              wires {
                group w0 { t0.in = 8'd5; t0.write_en = 1'd1; w0[done] = t0.done; }
                group s0 {
                  m.addr0 = 1'd0; m.write_data = t0.out; m.write_en = 1'd1;
                  s0[done] = m.done;
                }
                group w1 { t1.in = 8'd7; t1.write_en = 1'd1; w1[done] = t1.done; }
                group s1 {
                  m.addr0 = 1'd1; m.write_data = t1.out; m.write_en = 1'd1;
                  s1[done] = m.done;
                }
              }
              control { seq { w0; s0; w1; s1; } }
            }
        "#;
        let mut ctx = parse_context(src).unwrap();
        MinimizeRegs.run(&mut ctx).unwrap();
        super::super::DeadCellRemoval.run(&mut ctx).unwrap();
        let main = ctx.component("main").unwrap();
        let regs = main.cells.iter().filter(|c| c.is_register()).count();
        assert_eq!(regs, 1, "t0 and t1 should share one register");
        // The rewrite is global: w1/s1 now reference t0.
        let w1 = main.groups.get(Id::new("w1")).unwrap();
        assert!(w1
            .assignments
            .iter()
            .any(|a| a.dst == PortRef::cell("t0", "in")));
    }

    #[test]
    fn keeps_overlapping_registers_apart() {
        let src = r#"
            component main() -> () {
              cells {
                a = std_reg(8); b = std_reg(8); add = std_add(8);
                @external m = std_mem_d1(8, 2, 1);
              }
              wires {
                group wa { a.in = 8'd1; a.write_en = 1'd1; wa[done] = a.done; }
                group wb { b.in = 8'd2; b.write_en = 1'd1; wb[done] = b.done; }
                group sum {
                  add.left = a.out; add.right = b.out;
                  m.addr0 = 1'd0; m.write_data = add.out; m.write_en = 1'd1;
                  sum[done] = m.done;
                }
              }
              control { seq { wa; wb; sum; } }
            }
        "#;
        let mut ctx = parse_context(src).unwrap();
        MinimizeRegs.run(&mut ctx).unwrap();
        let main = ctx.component("main").unwrap();
        let regs = main.cells.iter().filter(|c| c.is_register()).count();
        assert_eq!(regs, 2, "overlapping registers must not merge");
    }

    #[test]
    fn parallel_registers_do_not_merge() {
        let src = r#"
            component main() -> () {
              cells { a = std_reg(8); b = std_reg(8); }
              wires {
                group wa { a.in = 8'd1; a.write_en = 1'd1; wa[done] = a.done; }
                group wb { b.in = 8'd2; b.write_en = 1'd1; wb[done] = b.done; }
              }
              control { par { wa; wb; } }
            }
        "#;
        let mut ctx = parse_context(src).unwrap();
        MinimizeRegs.run(&mut ctx).unwrap();
        let main = ctx.component("main").unwrap();
        assert_eq!(main.cells.iter().filter(|c| c.is_register()).count(), 2);
    }

    #[test]
    fn widths_partition_colors() {
        let src = r#"
            component main() -> () {
              cells { t0 = std_reg(8); t1 = std_reg(16); }
              wires {
                group w0 { t0.in = 8'd5; t0.write_en = 1'd1; w0[done] = t0.done; }
                group w1 { t1.in = 16'd7; t1.write_en = 1'd1; w1[done] = t1.done; }
              }
              control { seq { w0; w1; } }
            }
        "#;
        let mut ctx = parse_context(src).unwrap();
        MinimizeRegs.run(&mut ctx).unwrap();
        let main = ctx.component("main").unwrap();
        assert_eq!(main.cells.iter().filter(|c| c.is_register()).count(), 2);
    }

    #[test]
    fn loop_carried_register_not_clobbered() {
        // `i` is live across iterations; the temporary `t` must not merge
        // into it even though their group-local uses look disjoint.
        let src = r#"
            component main() -> () {
              cells {
                i = std_reg(8); t = std_reg(8);
                lt = std_lt(8); add = std_add(8);
              }
              wires {
                group cond { lt.left = i.out; lt.right = 8'd3; cond[done] = 1'd1; }
                group tmp { t.in = 8'd9; t.write_en = 1'd1; tmp[done] = t.done; }
                group incr {
                  add.left = i.out; add.right = 8'd1;
                  i.in = add.out; i.write_en = 1'd1;
                  incr[done] = i.done;
                }
              }
              control { while lt.out with cond { seq { tmp; incr; } } }
            }
        "#;
        let mut ctx = parse_context(src).unwrap();
        MinimizeRegs.run(&mut ctx).unwrap();
        let main = ctx.component("main").unwrap();
        assert_eq!(
            main.cells.iter().filter(|c| c.is_register()).count(),
            2,
            "loop-carried register must keep its own storage"
        );
    }
}
