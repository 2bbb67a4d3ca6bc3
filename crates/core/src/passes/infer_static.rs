//! Latency inference (paper §5.3).
//!
//! Conservatively infers `"static"` latency attributes for groups so that
//! [`StaticTiming`](super::StaticTiming) can compile programs whose
//! frontends never wrote a latency annotation — the paper's systolic array
//! generator relies entirely on this pass.
//!
//! The paper's rule: *"if a group's done signal is equal to a component's
//! done signal, and if the component's go signal is set to 1 within the
//! group, the latency of the group is inferred to be the same as the
//! component."* We implement that rule for every cell with a known latency
//! (primitives carrying a `"static"` attribute, registers and memories via
//! their `write_en`, and instances of components whose latency was derived
//! bottom-up), plus one chained form for the ubiquitous
//! "run a unit, then register its output" idiom:
//!
//! - **Rule A** — `g[done] = c.done` and `c.go = 1`: latency(g) = L(c).
//! - **Rule B** — `g[done] = r.done` and `r.write_en = 1` for a register or
//!   memory: latency(g) = 1.
//! - **Rule C** — `g[done] = r.done`, `r.write_en = c.done`, `c.go = 1`:
//!   latency(g) = L(c) + 1.
//!
//! Groups activating more than one stateful cell are skipped (conservative).
//! After group inference, the pass derives component-level latencies from
//! the control tree (shared with `StaticTiming`) in dependency order, so a
//! systolic array whose PE declares a latency becomes fully static.

use super::pass_ctx::PassCtx;
use super::static_timing::stmt_latency;
use super::visitor::{Action, Order, Visitor};
use crate::errors::CalyxResult;
use crate::ir::{
    attr, Atom, Cell, CellType, Component, Context, Group, GuardId, GuardNode, GuardPool, Id,
    PortRef,
};

/// Infer `"static"` latencies for groups and components.
///
/// A [`Visitor`] with [`Order::Topological`] component order: instantiated
/// components are inferred before their instantiators, so component-level
/// latencies compose bottom-up across the design.
#[derive(Debug, Clone, Copy, Default)]
pub struct InferStaticTiming;

impl Visitor for InferStaticTiming {
    fn name(&self) -> &'static str {
        "infer-static-timing"
    }

    fn description(&self) -> &'static str {
        "conservatively infer static latencies of groups and components"
    }

    fn component_order(&self) -> Order {
        Order::Topological
    }

    fn start_component(&mut self, comp: &mut Component, ctx: &mut PassCtx) -> CalyxResult<Action> {
        // This pass only *adds attributes*, which no registered analysis
        // reads, so it never reports dirty and the cache stays warm (the
        // sanctioned exception in the invalidation contract — see
        // `crate::analysis::cache`).
        let group_names: Vec<Id> = comp.groups.names().collect();
        for name in group_names {
            let group = comp.groups.get(name).expect("stable names");
            if group.static_latency().is_some() {
                continue;
            }
            if let Some(latency) = infer_group(comp, ctx, group) {
                comp.groups
                    .get_mut(name)
                    .expect("stable names")
                    .attributes
                    .insert(attr::STATIC, latency);
            }
        }
        // Component-level latency from the (possibly annotated) control
        // tree. Like the paper's Sensitive pass, this is only meaningful
        // when StaticTiming subsequently compiles the schedule; the two
        // passes are always registered together.
        if comp.static_latency().is_none() && !comp.control.is_empty() {
            let control = comp.control.clone();
            if let Some(latency) = stmt_latency(comp, &control) {
                if latency > 0 {
                    comp.attributes.insert(attr::STATIC, latency);
                }
            }
        }
        // Inference reads groups and the control tree as data; there is
        // nothing to do per control statement.
        Ok(Action::SkipChildren)
    }
}

/// Latency of a cell's go→done (or write_en→done) interface, if known.
fn cell_latency(ctx: &Context, cell: &Cell) -> Option<u64> {
    match &cell.prototype {
        CellType::Primitive { name, .. } => ctx.lib.get(*name)?.static_latency(),
        CellType::Component { name } => ctx.components.get(*name)?.static_latency(),
    }
}

/// The activation port for a cell: `write_en` for storage, `go` otherwise.
fn activation_port(cell: &Cell) -> Id {
    if cell.is_register() || cell.is_memory() {
        Id::WRITE_EN
    } else {
        Id::GO
    }
}

/// Is this cell stateful (has an activation interface)?
fn is_stateful(ctx: &Context, cell: &Cell) -> bool {
    match &cell.prototype {
        CellType::Primitive { name, .. } => ctx.lib.get(*name).is_some_and(|d| !d.is_comb()),
        CellType::Component { .. } => true,
    }
}

/// Accepted activation guards: unconditional, or the standard restart
/// protection `!cell.done`.
fn activation_guard_ok(guards: &GuardPool, guard: GuardId, cell: Id) -> bool {
    if guard.is_true() {
        return true;
    }
    matches!(guards[guard], GuardNode::Not(inner)
        if guards[inner] == GuardNode::Port(PortRef::cell(cell, Id::DONE)))
}

fn infer_group(comp: &Component, ctx: &Context, group: &Group) -> Option<u64> {
    // Exactly one unconditional done write reading some cell's done port.
    let mut done_writes = group.done_writes();
    let done = done_writes.next()?;
    if done_writes.next().is_some() || !done.guard.is_true() {
        return None;
    }
    let Atom::Port(done_src) = done.src else {
        return None;
    };
    if done_src.port != Id::DONE {
        return None;
    }
    let done_cell = done_src.cell_parent()?;

    // Collect every activation of a stateful cell in the group.
    struct Activation {
        cell: Id,
        src: Atom,
        guard: GuardId,
    }
    let mut activations: Vec<Activation> = Vec::new();
    for asgn in &group.assignments {
        let Some(cell_name) = asgn.dst.cell_parent() else {
            continue;
        };
        let cell = comp.cells.get(cell_name)?;
        if !is_stateful(ctx, cell) {
            continue;
        }
        if asgn.dst.port == activation_port(cell) {
            // `write_en = 0` / `go = 0` is not an activation.
            if matches!(asgn.src, Atom::Const { val: 0, .. }) {
                continue;
            }
            activations.push(Activation {
                cell: cell_name,
                src: asgn.src,
                guard: asgn.guard,
            });
        }
    }

    let find = |cell: Id| activations.iter().find(|a| a.cell == cell);
    match activations.len() {
        // Rules A and B: the done cell is the only activated cell.
        1 => {
            let act = find(done_cell)?;
            if !activation_guard_ok(&comp.guards, act.guard, done_cell)
                || !matches!(act.src, Atom::Const { val: 1, .. })
            {
                return None;
            }
            cell_latency(ctx, comp.cells.get(done_cell)?)
        }
        // Rule C: register latched from a unit's done.
        2 => {
            let reg = comp.cells.get(done_cell)?;
            if !(reg.is_register() || reg.is_memory()) {
                return None;
            }
            let reg_act = find(done_cell)?;
            // The register's write_en must be the unit's done pulse, in
            // either spelling: `r.write_en = c.done` or
            // `r.write_en = c.done ? 1`.
            let en_src = match (reg_act.src, comp.guards[reg_act.guard]) {
                (Atom::Port(p), GuardNode::True) => p,
                (Atom::Const { val: 1, .. }, GuardNode::Port(p)) => p,
                _ => return None,
            };
            if en_src.port != Id::DONE {
                return None;
            }
            let unit = en_src.cell_parent()?;
            let unit_act = find(unit)?;
            if !activation_guard_ok(&comp.guards, unit_act.guard, unit)
                || !matches!(unit_act.src, Atom::Const { val: 1, .. })
            {
                return None;
            }
            let unit_latency = cell_latency(ctx, comp.cells.get(unit)?)?;
            Some(unit_latency + 1)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::parse_context;
    use crate::passes::Pass;

    fn latency_of(src: &str, group: &str) -> Option<u64> {
        let mut ctx = parse_context(src).unwrap();
        InferStaticTiming.run(&mut ctx).unwrap();
        ctx.component("main")
            .unwrap()
            .groups
            .get(Id::new(group))
            .unwrap()
            .static_latency()
    }

    #[test]
    fn infers_register_writes_as_one_cycle() {
        let src = r#"
            component main() -> () {
              cells { r = std_reg(8); }
              wires { group g { r.in = 8'd1; r.write_en = 1'd1; g[done] = r.done; } }
              control { g; }
            }
        "#;
        assert_eq!(latency_of(src, "g"), Some(1));
    }

    #[test]
    fn infers_multiplier_activation() {
        let src = r#"
            component main() -> () {
              cells { m = std_mult_pipe(8); r = std_reg(8); }
              wires {
                group mul {
                  m.left = 8'd3; m.right = 8'd4;
                  m.go = !m.done ? 1'd1;
                  r.in = m.out; r.write_en = m.done ? 1'd1;
                  mul[done] = r.done;
                }
              }
              control { mul; }
            }
        "#;
        // Rule C: 4-cycle multiplier + 1-cycle register = 5.
        assert_eq!(latency_of(src, "mul"), Some(5));
    }

    #[test]
    fn paper_rule_for_component_instances() {
        // §5.3's exact example: foo has static=1; incr activates it.
        let src = r#"
            component foo<"static"=2>() -> () {
              cells { r = std_reg(8); }
              wires { group g { r.in = 8'd0; r.write_en = 1'd1; g[done] = r.done; } }
              control { g; }
            }
            component main() -> () {
              cells { f = foo(); }
              wires {
                group incr {
                  f.go = 1'd1;
                  incr[done] = f.done;
                }
              }
              control { incr; }
            }
        "#;
        assert_eq!(latency_of(src, "incr"), Some(2));
    }

    #[test]
    fn sqrt_stays_dynamic() {
        let src = r#"
            component main() -> () {
              cells { s = std_sqrt(8); r = std_reg(8); }
              wires {
                group g {
                  s.in = 8'd9; s.go = !s.done ? 1'd1;
                  r.in = s.out; r.write_en = s.done ? 1'd1;
                  g[done] = r.done;
                }
              }
              control { g; }
            }
        "#;
        // std_sqrt has data-dependent latency; no inference possible.
        assert_eq!(latency_of(src, "g"), None);
    }

    #[test]
    fn multiple_stateful_activations_refused() {
        let src = r#"
            component main() -> () {
              cells { a = std_reg(8); c = std_reg(8); }
              wires {
                group g {
                  a.in = 8'd1; a.write_en = 1'd1;
                  c.in = 8'd2; c.write_en = 1'd1;
                  g[done] = c.done;
                }
              }
              control { g; }
            }
        "#;
        // Two registers written: conservative refusal (the group *is*
        // 1-cycle, but the simple rules do not see that).
        assert_eq!(latency_of(src, "g"), None);
    }

    #[test]
    fn component_latency_derived_from_control() {
        let src = r#"
            component main() -> () {
              cells { r = std_reg(8); s = std_reg(8); }
              wires {
                group a { r.in = 8'd1; r.write_en = 1'd1; a[done] = r.done; }
                group c { s.in = 8'd2; s.write_en = 1'd1; c[done] = s.done; }
              }
              control { seq { a; c; } }
            }
        "#;
        let mut ctx = parse_context(src).unwrap();
        InferStaticTiming.run(&mut ctx).unwrap();
        // a and c each infer latency 1; the seq is 2.
        assert_eq!(ctx.component("main").unwrap().static_latency(), Some(2));
    }

    #[test]
    fn existing_annotations_respected() {
        let src = r#"
            component main() -> () {
              cells { r = std_reg(8); }
              wires {
                group g<"static"=7> { r.in = 8'd1; r.write_en = 1'd1; g[done] = r.done; }
              }
              control { g; }
            }
        "#;
        assert_eq!(latency_of(src, "g"), Some(7));
    }
}
