//! Remove groups not reachable from the control program.

use super::pass_ctx::PassCtx;
use super::visitor::{Action, Visitor};
use crate::errors::CalyxResult;
use crate::ir::Component;

/// Deletes groups that the control program never enables (directly or as a
/// `with` condition group). Dead groups otherwise survive into lowering and
/// cost area for no behavior.
///
/// The live set is [`Control::used_groups`](crate::ir::Control::used_groups)
/// of the component's control; `start_component` sweeps the rest.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeadGroupRemoval;

impl Visitor for DeadGroupRemoval {
    fn name(&self) -> &'static str {
        "dead-group-removal"
    }

    fn description(&self) -> &'static str {
        "remove groups unused by the control program"
    }

    fn start_component(&mut self, comp: &mut Component, ctx: &mut PassCtx) -> CalyxResult<Action> {
        let used = comp.control.used_groups();
        let before = comp.groups.len();
        comp.groups.retain(|g| used.contains(&g.name));
        if comp.groups.len() != before {
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
    fn removes_unreferenced_groups() {
        let mut ctx = parse_context(
            r#"component main() -> () {
                cells { r = std_reg(8); }
                wires {
                  group live { r.in = 8'd1; r.write_en = 1'd1; live[done] = r.done; }
                  group dead { r.in = 8'd2; r.write_en = 1'd1; dead[done] = r.done; }
                }
                control { live; }
            }"#,
        )
        .unwrap();
        DeadGroupRemoval.run(&mut ctx).unwrap();
        let main = ctx.component("main").unwrap();
        assert!(main.groups.contains(Id::new("live")));
        assert!(!main.groups.contains(Id::new("dead")));
    }

    #[test]
    fn keeps_condition_groups() {
        let mut ctx = parse_context(
            r#"component main() -> () {
                cells { lt = std_lt(8); r = std_reg(8); }
                wires {
                  group cond { lt.left = r.out; lt.right = 8'd10; cond[done] = 1'd1; }
                  group body { r.in = 8'd1; r.write_en = 1'd1; body[done] = r.done; }
                }
                control { while lt.out with cond { body; } }
            }"#,
        )
        .unwrap();
        DeadGroupRemoval.run(&mut ctx).unwrap();
        assert_eq!(ctx.component("main").unwrap().groups.len(), 2);
    }

    /// The live set must reset between components, or component B would
    /// keep groups only used by component A (or drop ones A doesn't use).
    #[test]
    fn live_set_is_per_component() {
        let mut ctx = parse_context(
            r#"component helper() -> () {
                cells { r = std_reg(8); }
                wires {
                  group g { r.in = 8'd1; r.write_en = 1'd1; g[done] = r.done; }
                }
                control { g; }
            }
            component main() -> () {
                cells { r = std_reg(8); }
                wires {
                  group g { r.in = 8'd2; r.write_en = 1'd1; g[done] = r.done; }
                  group dead { r.in = 8'd3; r.write_en = 1'd1; dead[done] = r.done; }
                }
                control { g; }
            }"#,
        )
        .unwrap();
        DeadGroupRemoval.run(&mut ctx).unwrap();
        assert_eq!(ctx.component("helper").unwrap().groups.len(), 1);
        let main = ctx.component("main").unwrap();
        assert!(main.groups.contains(Id::new("g")));
        assert!(!main.groups.contains(Id::new("dead")));
    }
}
