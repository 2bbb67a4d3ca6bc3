//! The `RemoveGroups` pass: interface-signal inlining (paper §4.2, Fig. 2d).
//!
//! After `CompileControl` + `GoInsertion`, every hole (`g[go]`, `g[done]`)
//! appears in exactly two roles: as the *destination* of writes that define
//! it, and as a 1-bit atom *read inside guards*. This pass:
//!
//! 1. wires the single top-level group enable to the component's `go`/`done`
//!    interface ports,
//! 2. collects all hole writes and replaces every hole read with the
//!    disjunction of its writers (`guard & src` per write); `go`
//!    substitutions mention parent holes, so each hole is resolved once,
//!    in dependency order, into one node that every reader then shares
//!    (see [`Guard`] on sharing),
//! 3. moves all group assignments into the top-level `wires` section and
//!    deletes the groups.
//!
//! The result is a control-free component: a flat list of guarded
//! assignments ready for RTL code generation.

use super::pass_ctx::PassCtx;
use super::visitor::{Action, Visitor};
use crate::errors::{CalyxResult, Error};
use crate::ir::{Assignment, Atom, Component, Control, Guard, GuardMemo, PortRef};
use std::collections::HashMap;
use std::sync::Arc;

/// Inlines `go`/`done` interface signals and erases all groups.
#[derive(Debug, Clone, Copy, Default)]
pub struct RemoveGroups;

impl Visitor for RemoveGroups {
    fn name(&self) -> &'static str {
        "remove-groups"
    }

    fn description(&self) -> &'static str {
        "inline interface signals and erase group boundaries"
    }

    fn start_component(&mut self, comp: &mut Component, ctx: &mut PassCtx) -> CalyxResult<Action> {
        // Group erasure rewrites the whole wires section and empties the
        // control program: unconditionally stale for every analysis.
        ctx.set_dirty();
        let top = match std::mem::take(&mut comp.control) {
            Control::Empty => None,
            Control::Enable { group, .. } => Some(group),
            other => {
                return Err(Error::pass(
                    "remove-groups",
                    format!("expected compiled control (a single enable), found:\n{other}"),
                ))
            }
        };

        // Does the top group need `!done` re-execution protection? A
        // group whose done is a registered pulse (`reg.done`/`mem.done`)
        // would fire again during its done cycle if `go` stayed high —
        // inner enables get this term from their parent FSM
        // (compile-control), but the top-level enable has no parent, so
        // the component's own go wiring must supply it.
        let top_needs_protection = top
            .and_then(|t| comp.groups.get(t))
            .map(|g| {
                g.done_writes().any(|asgn| match &asgn.src {
                    Atom::Port(p) if p.port.as_str() == "done" => p
                        .cell_parent()
                        .and_then(|c| comp.cells.get(c))
                        .is_some_and(|cell| cell.is_register() || cell.is_memory()),
                    _ => false,
                })
            })
            .unwrap_or(false);

        // Gather hole definitions, moving the guards out of the defining
        // assignments, which are dropped.
        let mut holes = Holes::default();
        for group in comp.groups.iter_mut() {
            holes.take_definitions(&mut group.assignments);
        }
        holes.take_definitions(&mut comp.continuous);

        // The top group is started by the component's own go port (with
        // re-execution protection when its done is a registered pulse).
        if let Some(top) = top {
            let mut go_guard = Guard::Port(PortRef::this("go"));
            if top_needs_protection {
                go_guard = go_guard.and(Guard::Port(PortRef::hole(top, "done")).not());
            }
            holes.set(PortRef::hole(top, "go"), go_guard);
        }

        // Resolve hole reads inside the definitions, each hole once. The
        // dependency structure follows the control tree (a child's go
        // mentions its parent's go and sibling dones).
        holes.resolve_all()?;

        // Inline hole reads in every remaining assignment.
        let mut flattened: Vec<Assignment> = Vec::new();
        for group in comp.groups.iter_mut() {
            for mut asgn in std::mem::take(&mut group.assignments) {
                if matches!(asgn.src, Atom::Port(p) if p.is_hole()) {
                    return Err(Error::pass(
                        "remove-groups",
                        format!("hole used as assignment source in `{}`", asgn.dst),
                    ));
                }
                holes.inline_into(&mut asgn.guard)?;
                flattened.push(asgn);
            }
        }
        comp.groups = Default::default();
        for asgn in &mut comp.continuous {
            holes.inline_into(&mut asgn.guard)?;
        }
        comp.continuous.extend(flattened);

        // Wire the component's done port.
        let done_guard = match top {
            Some(top) => holes.take(PortRef::hole(top, "done")).ok_or_else(|| {
                Error::pass(
                    "remove-groups",
                    format!("top-level group `{top}` never writes its done hole"),
                )
            })?,
            // An empty component finishes as soon as it is started.
            None => Guard::Port(PortRef::this("go")),
        };
        comp.continuous.push(Assignment::guarded(
            PortRef::this("done"),
            Atom::constant(1, 1),
            done_guard,
        ));
        // Groups are erased and control is empty; nothing to traverse.
        Ok(Action::SkipChildren)
    }
}

/// What a hole stands for while its reads are being inlined.
enum Slot {
    /// OR over the hole's writes of `guard & src`, as written: it may read
    /// other holes. `None` while every write so far drives constant 0.
    Defined(Option<Guard>),
    /// On the depth-first walk's stack: reading it again is a cycle.
    Open,
    /// Hole-free, and the one node every read of the hole becomes.
    Resolved(Arc<Guard>),
}

/// Every hole's definition, resolved at most once each.
#[derive(Default)]
struct Holes {
    slots: HashMap<PortRef, Slot>,
    /// The holes in the order their first write appears, so that what an
    /// ill-formed program is told does not depend on hash order.
    order: Vec<PortRef>,
    /// The `Open` holes, outermost first.
    stack: Vec<PortRef>,
    /// The hole-free form of every shared node inlined so far. An entry
    /// stands for good: the holes beneath its node were resolved to make
    /// it, and a resolved hole never changes.
    inlined: GuardMemo<Arc<Guard>>,
}

impl Holes {
    /// Drop the assignments of `asgns` that write holes, folding each
    /// one's `guard & src` into the disjunction that defines its hole.
    fn take_definitions(&mut self, asgns: &mut Vec<Assignment>) {
        asgns.retain_mut(|asgn| {
            if !asgn.dst.is_hole() {
                return true;
            }
            let guard = std::mem::replace(&mut asgn.guard, Guard::True);
            let contribution = match asgn.src {
                Atom::Const { val: 0, .. } => None,
                Atom::Const { .. } => Some(guard),
                Atom::Port(p) => Some(guard.and(Guard::Port(p))),
            };
            let slot = self.slots.entry(asgn.dst).or_insert_with(|| {
                self.order.push(asgn.dst);
                Slot::Defined(None)
            });
            if let (Slot::Defined(acc), Some(contribution)) = (slot, contribution) {
                *acc = Some(match acc.take() {
                    Some(acc) => acc.or(contribution),
                    None => contribution,
                });
            }
            false
        });
    }

    /// Define `hole` as `guard`, whatever wrote it.
    fn set(&mut self, hole: PortRef, guard: Guard) {
        if self
            .slots
            .insert(hole, Slot::Defined(Some(guard)))
            .is_none()
        {
            self.order.push(hole);
        }
    }

    /// Resolve every hole, in definition order.
    fn resolve_all(&mut self) -> CalyxResult<()> {
        for i in 0..self.order.len() {
            self.resolved(self.order[i])?;
        }
        Ok(())
    }

    /// The hole-free guard `hole` stands for, computed on first request
    /// by inlining the holes its definition reads.
    fn resolved(&mut self, hole: PortRef) -> CalyxResult<&Arc<Guard>> {
        let slot = self.slots.get_mut(&hole).ok_or_else(|| {
            Error::pass(
                "remove-groups",
                format!("hole `{hole}` is read but never written"),
            )
        })?;
        match slot {
            Slot::Resolved(_) => {}
            Slot::Open => {
                let first = self.stack.iter().position(|open| *open == hole);
                let cycle: Vec<String> = self.stack[first.expect("open holes are on the stack")..]
                    .iter()
                    .chain([&hole])
                    .map(PortRef::to_string)
                    .collect();
                return Err(Error::pass(
                    "remove-groups",
                    format!(
                        "interface-signal substitution did not converge (cyclic holes?): {}",
                        cycle.join(" -> ")
                    ),
                ));
            }
            Slot::Defined(guard) => {
                // A hole that is never written (or only written 0) is
                // never high.
                let mut guard = guard.take().unwrap_or_else(|| Guard::True.not());
                *slot = Slot::Open;
                self.stack.push(hole);
                self.inline_into(&mut guard)?;
                self.stack.pop();
                self.slots.insert(hole, Slot::Resolved(Arc::new(guard)));
            }
        }
        match &self.slots[&hole] {
            Slot::Resolved(guard) => Ok(guard),
            _ => unreachable!("the hole was resolved above"),
        }
    }

    /// Replace every hole read in an assignment's `guard` by the hole's
    /// resolved guard.
    fn inline_into(&mut self, guard: &mut Guard) -> CalyxResult<()> {
        if let Some(inlined) = self.inline(guard)? {
            *guard = inlined;
        }
        Ok(())
    }

    /// `guard` with every hole read replaced by the hole's resolved guard;
    /// `None` when it reads no hole. Only the nodes above a hole read are
    /// built anew: the read itself becomes the hole's one resolved node.
    fn inline(&mut self, guard: &Guard) -> CalyxResult<Option<Guard>> {
        Ok(match guard {
            Guard::True => None,
            Guard::Port(p) if p.is_hole() => Some(Guard::clone(self.resolved(*p)?)),
            Guard::Port(_) => None,
            Guard::Not(inner) => {
                let inlined = self.inline_child(inner)?;
                (!Arc::ptr_eq(&inlined, inner)).then_some(Guard::Not(inlined))
            }
            Guard::And(a, b) | Guard::Or(a, b) => {
                let (ia, ib) = (self.inline_child(a)?, self.inline_child(b)?);
                if Arc::ptr_eq(&ia, a) && Arc::ptr_eq(&ib, b) {
                    None
                } else if matches!(guard, Guard::And(..)) {
                    Some(Guard::And(ia, ib))
                } else {
                    Some(Guard::Or(ia, ib))
                }
            }
            // Holes are 1-bit signals read as bare ports; one inside a
            // comparison has no guard to stand for it.
            Guard::Comp(_, l, r) => match [l, r].into_iter().find_map(|atom| match atom {
                Atom::Port(p) if p.is_hole() => Some(*p),
                _ => None,
            }) {
                Some(hole) => {
                    return Err(Error::pass(
                        "remove-groups",
                        format!("hole `{hole}` is read inside a comparison"),
                    ))
                }
                None => None,
            },
        })
    }

    /// [`inline`](Self::inline) for a child: `node` itself when it reads
    /// no hole, and the same node for every owner of `node`.
    fn inline_child(&mut self, node: &Arc<Guard>) -> CalyxResult<Arc<Guard>> {
        if let Guard::Port(p) = &**node {
            if p.is_hole() {
                return self.resolved(*p).cloned();
            }
        }
        if let Some(done) = self.inlined.get(node) {
            return Ok(Arc::clone(done));
        }
        let inlined = match self.inline(node)? {
            Some(guard) => Arc::new(guard),
            None => Arc::clone(node),
        };
        self.inlined.insert(node, Arc::clone(&inlined));
        Ok(inlined)
    }

    /// Move `hole`'s resolved guard out.
    fn take(&mut self, hole: PortRef) -> Option<Guard> {
        match self.slots.remove(&hole)? {
            Slot::Resolved(guard) => Some(Arc::unwrap_or_clone(guard)),
            _ => unreachable!("`resolve_all` resolved every hole"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{CompileControl, GoInsertion};
    use super::*;
    use crate::ir::parse_context;
    use crate::passes::Pass;

    fn lower(src: &str) -> crate::ir::Context {
        let mut ctx = parse_context(src).unwrap();
        CompileControl.run(&mut ctx).unwrap();
        GoInsertion.run(&mut ctx).unwrap();
        RemoveGroups.run(&mut ctx).unwrap();
        ctx
    }

    const FIG2: &str = r#"
        component main() -> () {
          cells { x = std_reg(32); }
          wires {
            group one { x.in = 32'd1; x.write_en = 1'd1; one[done] = x.done; }
            group two { x.in = 32'd2; x.write_en = 1'd1; two[done] = x.done; }
          }
          control { seq { one; two; } }
        }
    "#;

    #[test]
    fn produces_flat_control_free_program() {
        let ctx = lower(FIG2);
        let main = ctx.component("main").unwrap();
        assert!(main.groups.is_empty(), "all groups erased");
        assert!(main.control.is_empty(), "control emptied");
        assert!(!main.continuous.is_empty());
        // No holes anywhere.
        for asgn in &main.continuous {
            assert!(!asgn.dst.is_hole(), "hole dst survives: {}", asgn.dst);
            for p in asgn.reads() {
                assert!(!p.is_hole(), "hole read survives: {p}");
            }
        }
    }

    #[test]
    fn wires_component_done() {
        let ctx = lower(FIG2);
        let main = ctx.component("main").unwrap();
        let done_writes: Vec<_> = main
            .continuous
            .iter()
            .filter(|a| a.dst == PortRef::this("done"))
            .collect();
        assert_eq!(done_writes.len(), 1);
        // The done condition mentions the FSM's final state.
        let guard = format!("{}", done_writes[0].guard);
        assert!(guard.contains("fsm.out == 2'd2"), "done guard: {guard}");
    }

    #[test]
    fn assignments_are_gated_by_component_go() {
        let ctx = lower(FIG2);
        let main = ctx.component("main").unwrap();
        // The write `x.in = 1` must (transitively) require the component go
        // and the FSM state.
        let x_writes: Vec<_> = main
            .continuous
            .iter()
            .filter(|a| a.dst == PortRef::cell("x", "in"))
            .collect();
        assert_eq!(x_writes.len(), 2);
        for w in x_writes {
            let guard = format!("{}", w.guard);
            assert!(guard.contains("go"), "guard must mention go: {guard}");
            assert!(
                guard.contains("fsm.out =="),
                "guard must mention fsm: {guard}"
            );
        }
    }

    #[test]
    fn empty_control_component_is_immediately_done() {
        let ctx = lower("component main() -> () { cells {} wires {} control {} }");
        let main = ctx.component("main").unwrap();
        let done = main
            .continuous
            .iter()
            .find(|a| a.dst == PortRef::this("done"))
            .unwrap();
        assert_eq!(done.guard, Guard::Port(PortRef::this("go")));
    }

    /// A `seq` / `if` / `while` nest `depth` levels deep around group `a`,
    /// with `b` as the sibling at every level.
    fn nest(depth: usize) -> String {
        let mut control = "a;".to_string();
        for level in 0..depth {
            control = match level % 3 {
                0 => format!("seq {{ b; {control} }}"),
                1 => format!("if lt.out with cond {{ {control} }} else {{ b; }}"),
                _ => format!("while lt.out with cond {{ {control} }}"),
            };
        }
        format!(
            r#"component main() -> () {{
              cells {{ x = std_reg(8); y = std_reg(8); lt = std_lt(8); }}
              wires {{
                group a {{ x.in = 8'd1; x.write_en = 1'd1; a[done] = x.done; }}
                group b {{ y.in = 8'd2; y.write_en = 1'd1; b[done] = y.done; }}
                group cond {{ lt.left = x.out; lt.right = y.out; cond[done] = 1'd1; }}
              }}
              control {{ {control} }}
            }}"#
        )
    }

    /// Inlining is structural: every hole read becomes the hole's resolved
    /// guard, nothing is simplified. The sum below was recorded from the
    /// fixpoint implementation this pass replaced, which copied the guard
    /// into every read: counted as trees, the guards are the same size.
    #[test]
    fn deep_nest_lowers_to_the_same_guard_sizes() {
        let ctx = lower(&nest(32));
        let main = ctx.component("main").unwrap();
        let total: usize = main.continuous.iter().map(|a| a.guard.size()).sum();
        assert_eq!((main.continuous.len(), total), (219, 17_718));
    }

    /// What `remove-groups` alone says about `main` with these groups,
    /// `a` being the compiled control.
    fn rejection(groups: &str) -> String {
        let src = format!(
            "component main() -> () {{
               cells {{ x = std_reg(8); }}
               wires {{ {groups} }}
               control {{ a; }}
             }}"
        );
        let mut ctx = parse_context(&src).unwrap();
        RemoveGroups.run(&mut ctx).unwrap_err().to_string()
    }

    #[test]
    fn cyclic_holes_fail_at_once_and_name_the_cycle() {
        let err = rejection(
            "group a { x.in = 8'd1; a[done] = b[done]; }
             group b { b[done] = c[done]; }
             group c { c[done] = b[done]; }",
        );
        assert!(
            err.ends_with(
                "interface-signal substitution did not converge (cyclic holes?): \
                 b[done] -> c[done] -> b[done]"
            ),
            "{err}"
        );
    }

    #[test]
    fn rejections_keep_their_texts() {
        let err = rejection("group a { x.in = c[done] ? 8'd1; a[done] = x.done; }");
        assert!(
            err.ends_with("hole `c[done]` is read but never written"),
            "{err}"
        );
        let err = rejection(
            "group a { x.write_en = b[done]; a[done] = x.done; }
             group b { b[done] = x.done; }",
        );
        assert!(
            err.ends_with("hole used as assignment source in `x.write_en`"),
            "{err}"
        );
        let err = rejection("group a { x.in = 8'd1; }");
        assert!(
            err.ends_with("top-level group `a` never writes its done hole"),
            "{err}"
        );
    }

    /// Holes are substituted as 1-bit guard leaves; the fixpoint this pass
    /// used to run never terminated on one inside a comparison.
    #[test]
    fn rejects_a_hole_inside_a_comparison() {
        let err = rejection("group a { x.in = a[go] == 1'd1 ? 8'd1; a[done] = x.done; }");
        assert!(
            err.ends_with("hole `a[go]` is read inside a comparison"),
            "{err}"
        );
    }

    /// [`rejection`] of `main` whose group `a` reads `shared` — one node —
    /// in the guards of two assignments and in the definition of
    /// `a[done]`, each time after `memoized`, which the definition reads
    /// twice: the second read is answered from the memo.
    fn rejection_of_shared(memoized: Option<&Arc<Guard>>, shared: Guard, groups: &str) -> String {
        let src = format!(
            "component main() -> () {{
               cells {{ x = std_reg(8); }}
               wires {{
                 group a {{ x.in = 8'd1; x.in = 8'd2; x.write_en = 1'd1; a[done] = x.done; }}
                 {groups}
               }}
               control {{ a; }}
             }}"
        );
        let mut ctx = parse_context(&src).unwrap();
        let shared = Arc::new(shared);
        let beside = memoized.unwrap_or(&shared);
        let asgns = &mut ctx.component_mut("main").unwrap().groups;
        let asgns = &mut asgns.get_mut("a".into()).unwrap().assignments;
        asgns[0].guard = Guard::Not(Arc::clone(beside));
        asgns[1].guard = Guard::And(Arc::clone(beside), Arc::clone(&shared));
        asgns[2].guard = Guard::Or(Arc::clone(&shared), Arc::clone(beside));
        let twice = Guard::Or(Arc::clone(beside), Arc::clone(beside));
        asgns[3].guard = Guard::And(Arc::new(twice), Arc::new(Guard::Not(shared)));
        RemoveGroups.run(&mut ctx).unwrap_err().to_string()
    }

    /// The three rejections that come out of a guard say the same when the
    /// node they come out of has several owners, and when it sits beside
    /// a node the walk has inlined already.
    #[test]
    fn rejections_keep_their_texts_on_shared_nodes() {
        let hole = |group: &str, port: &str| Guard::Port(PortRef::hole(group, port));
        let fine = Arc::new(hole("b", "done").not());
        let b = "group b { b[done] = x.done; }";
        for memoized in [None, Some(&fine)] {
            let comparison = Guard::Comp(
                crate::ir::CompOp::Eq,
                Atom::Port(PortRef::hole("a", "go")),
                Atom::constant(1, 1),
            );
            let err = rejection_of_shared(memoized, comparison, b);
            assert!(
                err.ends_with("hole `a[go]` is read inside a comparison"),
                "{err}"
            );
            let err = rejection_of_shared(memoized, hole("c", "done").not(), b);
            assert!(
                err.ends_with("hole `c[done]` is read but never written"),
                "{err}"
            );
            let err = rejection_of_shared(memoized, hole("a", "done").not(), b);
            assert!(
                err.ends_with(
                    "interface-signal substitution did not converge (cyclic holes?): \
                     a[done] -> a[done]"
                ),
                "{err}"
            );
        }
    }

    /// Every reader of a hole gets the hole's one resolved node: the two
    /// assignments of group `one` read `one[go]`, and nothing else.
    #[test]
    fn readers_of_a_hole_share_its_node() {
        let ctx = lower(FIG2);
        let [x_in, x_write_en, ..] = &ctx.component("main").unwrap().continuous[..] else {
            panic!("group `one` has two assignments");
        };
        assert_eq!(x_in.guard, x_write_en.guard);
        let (Guard::And(a, a_not_done), Guard::And(b, b_not_done)) =
            (&x_in.guard, &x_write_en.guard)
        else {
            panic!("`{}` is a conjunction", x_in.guard);
        };
        assert!(Arc::ptr_eq(a, b) && Arc::ptr_eq(a_not_done, b_not_done));
    }

    #[test]
    fn rejects_uncompiled_control() {
        let mut ctx = parse_context(FIG2).unwrap();
        let err = RemoveGroups.run(&mut ctx).unwrap_err();
        assert!(err.to_string().contains("single enable"), "{err}");
    }
}
