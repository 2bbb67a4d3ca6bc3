//! The `GoInsertion` pass (paper §4.2, Fig. 2b).

use super::pass_ctx::PassCtx;
use super::visitor::{Action, Visitor};
use crate::errors::CalyxResult;
use crate::ir::{Component, Id, PortRef};

/// Guards every assignment inside a group with the group's `go` interface
/// signal.
///
/// Calyx's semantics activate a group's assignments only while the group
/// executes; after groups are erased ([`RemoveGroups`](super::RemoveGroups))
/// these inserted guards are what keeps the right assignments active at the
/// right time. Writes to the group's *own* `done` hole are left unguarded —
/// the paper's Fig. 2b shows `one[done] = x.done` surviving unchanged — since
/// `done` is only consulted while the group is running. Such a write is
/// told by its destination alone, so the pass asks no analysis.
#[derive(Debug, Clone, Copy, Default)]
pub struct GoInsertion;

impl Visitor for GoInsertion {
    fn name(&self) -> &'static str {
        "go-insertion"
    }

    fn description(&self) -> &'static str {
        "guard group assignments with the group's go signal"
    }

    fn start_component(&mut self, comp: &mut Component, ctx: &mut PassCtx) -> CalyxResult<Action> {
        let mut mutated = false;
        let guards = &mut comp.guards;
        for group in comp.groups.iter_mut() {
            let go = guards.port(PortRef::hole(group.name, Id::GO));
            // This group's writes to its own done hole keep their guards.
            let done = PortRef::hole(group.name, Id::DONE);
            for asgn in &mut group.assignments {
                if asgn.dst != done {
                    asgn.guard = guards.and(go, asgn.guard);
                    mutated = true;
                }
            }
        }
        if mutated {
            ctx.set_dirty();
        }
        // A structural pass over wires only: the control tree is untouched.
        Ok(Action::SkipChildren)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{parse_context, GuardNode};
    use crate::passes::Pass;

    #[test]
    fn guards_assignments_with_go() {
        let mut ctx = parse_context(
            r#"component main() -> () {
                cells { x = std_reg(32); }
                wires {
                  group one {
                    x.in = 32'd1;
                    x.write_en = 1'd1;
                    one[done] = x.done;
                  }
                }
                control { one; }
            }"#,
        )
        .unwrap();
        GoInsertion.run(&mut ctx).unwrap();
        let main = ctx.component("main").unwrap();
        let one = main.groups.get(Id::new("one")).unwrap();
        let go = GuardNode::Port(PortRef::hole("one", "go"));
        // Data assignments gain the go guard...
        assert_eq!(main.guards[one.assignments[0].guard], go);
        assert_eq!(main.guards[one.assignments[1].guard], go);
        // ...while the done write stays unguarded (paper Fig. 2b).
        assert!(one.assignments[2].guard.is_true());
    }

    #[test]
    fn preserves_existing_guards_conjunctively() {
        let mut ctx = parse_context(
            r#"component main() -> () {
                cells { x = std_reg(32); cmp = std_lt(32); }
                wires {
                  group g {
                    x.in = cmp.out ? 32'd1;
                    x.write_en = 1'd1;
                    g[done] = x.done;
                  }
                }
                control { g; }
            }"#,
        )
        .unwrap();
        GoInsertion.run(&mut ctx).unwrap();
        let main = ctx.component("main").unwrap();
        let g = main.groups.get(Id::new("g")).unwrap();
        // Equal guards are one id in a pool.
        let mut pool = main.guards.clone();
        let go = pool.port(PortRef::hole("g", "go"));
        let cmp = pool.port(PortRef::cell("cmp", "out"));
        assert_eq!(g.assignments[0].guard, pool.and(go, cmp));
    }
}
