//! Resource sharing (paper §5.1).
//!
//! Reuses combinational/shareable cells across groups that can never
//! execute in parallel. The pass proceeds exactly as the paper describes:
//!
//! 1. **Conflict graph** — groups conflict when some `par` block may run
//!    them simultaneously ([`ParConflicts`]).
//! 2. **Greedy coloring** — walk groups in control order; for each
//!    shareable cell a group uses, allocate the first *representative* cell
//!    of identical prototype not already claimed by a conflicting group.
//! 3. **Group rewriting** — apply the per-group renaming locally; the
//!    encapsulation property of groups guarantees nothing outside the group
//!    needs to change.
//!
//! Donated cells become unreferenced and are reclaimed by
//! [`DeadCellRemoval`](super::DeadCellRemoval). The multiplexers the paper
//! discusses (which can make sharing a net *loss* in LUTs, Fig. 9a) appear
//! after lowering as multiple guarded drivers on the shared cell's input
//! ports.

use super::pass_ctx::PassCtx;
use super::visitor::{Action, Visitor};
use crate::analysis::conflict::ParConflicts;
use crate::analysis::{BoundaryCells, PortUses};
use crate::errors::CalyxResult;
use crate::ir::{attr, CellType, Component, Control, Id, Rewriter};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Share `@share`-annotated cells between temporally disjoint groups.
#[derive(Debug, Clone, Copy, Default)]
pub struct ResourceSharing;

impl Visitor for ResourceSharing {
    fn name(&self) -> &'static str {
        "resource-sharing"
    }

    fn description(&self) -> &'static str {
        "share combinational cells between groups that never run in parallel"
    }

    fn start_component(&mut self, comp: &mut Component, ctx: &mut PassCtx) -> CalyxResult<Action> {
        let conflicts = ctx.get::<ParConflicts>(comp);
        let uses = ctx.get::<PortUses>(comp);

        // Cells eligible for sharing: prototype is marked shareable and
        // the cell is not referenced outside of groups — exactly the
        // boundary-cell set (continuous-assignment references plus
        // `if`/`while` condition ports).
        let pinned = ctx.get::<BoundaryCells>(comp);
        let pinned = pinned.cells();

        let shareable: BTreeSet<Id> = comp
            .cells
            .iter()
            .filter(|c| !pinned.contains(&c.name))
            .filter(|c| match &c.prototype {
                CellType::Primitive { name, .. } => {
                    ctx.lib.get(*name).is_some_and(|def| def.is_shareable())
                }
                CellType::Component { name } => ctx
                    .components
                    .get(*name)
                    .is_some_and(|c| c.attributes.has(attr::share())),
            })
            .map(|c| c.name)
            .collect();

        // Usage map: which groups use each shareable cell (from the cached
        // `PortUses` digest, in group definition order). Cells used by
        // several groups were already shared by the frontend; leave them
        // alone but record their claims so we never double-book them.
        let users: BTreeMap<Id, Vec<Id>> = uses
            .cells_with_users()
            .filter(|(cell, _)| shareable.contains(cell))
            .map(|(cell, groups)| (cell, groups.to_vec()))
            .collect();

        // Claims: representative cell -> groups using it.
        let mut claims: HashMap<Id, Vec<Id>> = HashMap::new();
        for (cell, groups) in &users {
            if groups.len() > 1 {
                claims.insert(*cell, groups.clone());
            }
        }

        // Representative pool per prototype, in allocation order.
        let mut pool: HashMap<CellType, Vec<Id>> = HashMap::new();
        let prototype = |comp: &crate::ir::Component, cell: Id| {
            comp.cells
                .get(cell)
                .expect("used cells exist")
                .prototype
                .clone()
        };
        // Seed the pool with frontend-shared (multi-group) cells so the
        // allocator can reuse them too.
        for cell in claims.keys() {
            pool.entry(prototype(comp, *cell)).or_default().push(*cell);
        }

        // Greedy allocation in control order.
        let mut rewrites: BTreeMap<Id, HashMap<Id, Id>> = BTreeMap::new();
        for group in control_order(&comp.control) {
            let Some(cells) = group_cells(&users, group) else {
                continue;
            };
            for cell in cells {
                if claims.contains_key(&cell) && users[&cell].len() > 1 {
                    continue; // frontend-shared; left in place
                }
                let proto = prototype(comp, cell);
                let candidates = pool.entry(proto).or_default();
                let mut chosen = None;
                for &rep in candidates.iter() {
                    let conflicts_with_rep = claims.get(&rep).is_some_and(|gs| {
                        gs.iter()
                            .any(|&g| g == group || conflicts.conflict(g, group))
                    });
                    // A representative already claimed by this same group
                    // holds a *different* value concurrently; skip it.
                    if !conflicts_with_rep {
                        chosen = Some(rep);
                        break;
                    }
                }
                let rep = match chosen {
                    Some(rep) => rep,
                    None => {
                        candidates.push(cell);
                        cell
                    }
                };
                claims.entry(rep).or_default().push(group);
                if rep != cell {
                    rewrites.entry(group).or_default().insert(cell, rep);
                }
            }
        }

        // Local group rewriting: only combinational cells are renamed.
        if !rewrites.is_empty() {
            ctx.set_dirty();
        }
        for (group, map) in rewrites {
            let rw = Rewriter::from_cells(map);
            if let Some(g) = comp.groups.get_mut(group) {
                rw.group(g);
            }
        }
        // The rewrite already visited the control tree through the
        // conflict analysis; no per-statement work remains.
        Ok(Action::SkipChildren)
    }
}

/// Groups in a deterministic control order (first appearance).
fn control_order(control: &Control) -> Vec<Id> {
    let mut order = Vec::new();
    let mut seen = BTreeSet::new();
    control.for_each_group(&mut |g| {
        if seen.insert(g) {
            order.push(g);
        }
    });
    order
}

fn group_cells(users: &BTreeMap<Id, Vec<Id>>, group: Id) -> Option<Vec<Id>> {
    let cells: Vec<Id> = users
        .iter()
        .filter(|(_, gs)| gs.contains(&group))
        .map(|(c, _)| *c)
        .collect();
    if cells.is_empty() {
        None
    } else {
        Some(cells)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{parse_context, PortRef};
    use crate::passes::Pass;

    /// The paper's Fig. 3 example: incr_r0 and incr_r1 never run in
    /// parallel, so their adders merge; the parallel lets do not interact
    /// with adders at all.
    const FIG3: &str = r#"
        component main() -> () {
          cells {
            r0 = std_reg(8); r1 = std_reg(8);
            a0 = std_add(8); a1 = std_add(8);
          }
          wires {
            group let_r0 { r0.in = 8'd0; r0.write_en = 1'd1; let_r0[done] = r0.done; }
            group let_r1 { r1.in = 8'd0; r1.write_en = 1'd1; let_r1[done] = r1.done; }
            group incr_r0 {
              a0.left = r0.out; a0.right = 8'd1;
              r0.in = a0.out; r0.write_en = 1'd1;
              incr_r0[done] = r0.done;
            }
            group incr_r1 {
              a1.left = r1.out; a1.right = 8'd1;
              r1.in = a1.out; r1.write_en = 1'd1;
              incr_r1[done] = r1.done;
            }
          }
          control {
            seq {
              par { let_r0; let_r1; }
              incr_r0;
              incr_r1;
            }
          }
        }
    "#;

    #[test]
    fn merges_sequential_adders() {
        let mut ctx = parse_context(FIG3).unwrap();
        ResourceSharing.run(&mut ctx).unwrap();
        let main = ctx.component("main").unwrap();
        // incr_r1 now uses a0 (the paper's mapping a1 -> a0).
        let incr_r1 = main.groups.get(Id::new("incr_r1")).unwrap();
        let uses_a0 = incr_r1
            .assignments
            .iter()
            .any(|a| a.dst == PortRef::cell("a0", "left"));
        assert!(uses_a0, "incr_r1 should be rewritten to use a0:\n{incr_r1}");
        // After dead-cell removal, a1 disappears.
        super::super::DeadCellRemoval::default()
            .run(&mut ctx)
            .unwrap();
        assert!(!ctx.component("main").unwrap().cells.contains(Id::new("a1")));
    }

    /// A rewrite is reported: the component's generation moves, and the
    /// recomputed `PortUses` reflect the merge.
    #[test]
    fn rewrite_signals_dirty() {
        use crate::analysis::{AnalysisCache, PortUses};
        let mut ctx = parse_context(FIG3).unwrap();
        let mut cache = AnalysisCache::new();
        ResourceSharing.run_with(&mut ctx, &mut cache).unwrap();
        assert_eq!(cache.generation(Id::new("main")), 1);
        let main = ctx.component("main").unwrap();
        let uses = cache.get::<PortUses>(main);
        assert!(uses.cell_users(Id::new("a1")).is_empty());
    }

    #[test]
    fn parallel_groups_keep_their_cells() {
        let src = r#"
            component main() -> () {
              cells {
                r0 = std_reg(8); r1 = std_reg(8);
                a0 = std_add(8); a1 = std_add(8);
              }
              wires {
                group i0 {
                  a0.left = r0.out; a0.right = 8'd1;
                  r0.in = a0.out; r0.write_en = 1'd1; i0[done] = r0.done;
                }
                group i1 {
                  a1.left = r1.out; a1.right = 8'd1;
                  r1.in = a1.out; r1.write_en = 1'd1; i1[done] = r1.done;
                }
              }
              control { par { i0; i1; } }
            }
        "#;
        let mut ctx = parse_context(src).unwrap();
        ResourceSharing.run(&mut ctx).unwrap();
        let main = ctx.component("main").unwrap();
        let i1 = main.groups.get(Id::new("i1")).unwrap();
        let still_a1 = i1
            .assignments
            .iter()
            .any(|a| a.dst == PortRef::cell("a1", "left"));
        assert!(still_a1, "parallel groups must not share adders");
    }

    #[test]
    fn registers_are_not_shared_by_this_pass() {
        let mut ctx = parse_context(FIG3).unwrap();
        ResourceSharing.run(&mut ctx).unwrap();
        let main = ctx.component("main").unwrap();
        // Registers are stateful; §5.1's pass must leave them alone.
        assert!(main.cells.contains(Id::new("r0")));
        assert!(main.cells.contains(Id::new("r1")));
        let incr_r1 = main.groups.get(Id::new("incr_r1")).unwrap();
        assert!(incr_r1
            .assignments
            .iter()
            .any(|a| a.dst == PortRef::cell("r1", "in")));
    }

    #[test]
    fn different_widths_never_merge() {
        let src = r#"
            component main() -> () {
              cells { r = std_reg(8); s = std_reg(16); a0 = std_add(8); a1 = std_add(16); }
              wires {
                group g0 {
                  a0.left = r.out; a0.right = 8'd1;
                  r.in = a0.out; r.write_en = 1'd1; g0[done] = r.done;
                }
                group g1 {
                  a1.left = s.out; a1.right = 16'd1;
                  s.in = a1.out; s.write_en = 1'd1; g1[done] = s.done;
                }
              }
              control { seq { g0; g1; } }
            }
        "#;
        let mut ctx = parse_context(src).unwrap();
        ResourceSharing.run(&mut ctx).unwrap();
        super::super::DeadCellRemoval::default()
            .run(&mut ctx)
            .unwrap();
        let main = ctx.component("main").unwrap();
        assert!(main.cells.contains(Id::new("a0")));
        assert!(main.cells.contains(Id::new("a1")));
    }

    #[test]
    fn cells_in_continuous_assignments_are_pinned() {
        let src = r#"
            component main() -> (o: 8) {
              cells { r = std_reg(8); a0 = std_add(8); a1 = std_add(8); }
              wires {
                o = a1.out;
                a1.left = r.out;
                a1.right = 8'd2;
                group g0 {
                  a0.left = r.out; a0.right = 8'd1;
                  r.in = a0.out; r.write_en = 1'd1; g0[done] = r.done;
                }
              }
              control { g0; }
            }
        "#;
        let mut ctx = parse_context(src).unwrap();
        ResourceSharing.run(&mut ctx).unwrap();
        super::super::DeadCellRemoval::default()
            .run(&mut ctx)
            .unwrap();
        let main = ctx.component("main").unwrap();
        assert!(main.cells.contains(Id::new("a1")), "pinned cell survives");
    }
}
