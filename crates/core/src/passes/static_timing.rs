//! Latency-sensitive compilation — the paper's `Sensitive` pass (§4.4).
//!
//! When every group nested under a control statement carries a `"static"`
//! latency attribute, the statement can be realized with a *counter* FSM
//! that enables each child for exactly its declared window and ignores
//! `done` handshakes entirely, eliminating the latency-insensitive
//! interface's extra cycles and hardware. The pass is best-effort: any
//! statement with a dynamic child is left for
//! [`CompileControl`](super::CompileControl) — mixing the two styles is the
//! paper's headline compilation feature.
//!
//! ## Static group contract
//!
//! A group with `"static" = L`:
//! - performs its work in exactly `L` cycles once its `go` is held high,
//! - asserts `done` *combinationally during cycle `L-1`* (for `L == 1`,
//!   `done` is constant-true while enabled),
//! - resets any internal counter on its final cycle so it can re-execute.
//!
//! Dynamic parents compiled by `CompileControl` understand this contract
//! (they omit the `!done` re-execution protection for static children), so
//! static islands compose with dynamic surroundings.

use super::pass_ctx::PassCtx;
use super::visitor::{Action, Visitor};
use crate::errors::CalyxResult;
use crate::ir::{
    attr, Atom, Attributes, Builder, CompOp, Component, Context, Control, Group, GuardId, Id,
    PortRef,
};
use crate::utils::bits_needed;

/// Opportunistically compile control with latency-sensitive counter FSMs.
///
/// A bottom-up [`Visitor`]: the post hooks see already-compiled children,
/// so a statement whose children all became static enables can itself fold
/// into a single counter-FSM group.
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticTiming;

impl Visitor for StaticTiming {
    fn name(&self) -> &'static str {
        "static-timing"
    }

    fn description(&self) -> &'static str {
        "compile statically-timed control with counter FSMs (the paper's Sensitive pass)"
    }

    fn enable(
        &mut self,
        group: &mut Id,
        attributes: &mut Attributes,
        comp: &mut Component,
        _ctx: &mut PassCtx,
    ) -> CalyxResult<Action> {
        // Mirror the group's (possibly inferred) latency onto the enable so
        // parents and later passes can read it off the control tree.
        if let Some(l) = comp.groups.get(*group).and_then(Group::static_latency) {
            attributes.insert(attr::STATIC, l);
        }
        Ok(Action::Continue)
    }

    fn finish_seq(
        &mut self,
        stmts: &mut Vec<Control>,
        _attributes: &mut Attributes,
        comp: &mut Component,
        ctx: &mut PassCtx,
    ) -> CalyxResult<Action> {
        Ok(compile_block(comp, ctx, stmts, BlockKind::Seq))
    }

    fn finish_par(
        &mut self,
        stmts: &mut Vec<Control>,
        _attributes: &mut Attributes,
        comp: &mut Component,
        ctx: &mut PassCtx,
    ) -> CalyxResult<Action> {
        Ok(compile_block(comp, ctx, stmts, BlockKind::Par))
    }

    #[allow(clippy::too_many_arguments)]
    fn finish_if(
        &mut self,
        port: &mut PortRef,
        cond: &mut Option<Id>,
        tbranch: &mut Control,
        fbranch: &mut Control,
        _attributes: &mut Attributes,
        comp: &mut Component,
        ctx: &mut PassCtx,
    ) -> CalyxResult<Action> {
        let cond_lat = cond_latency(comp, cond);
        let t = as_static_enable(comp, tbranch);
        let f = as_static_enable(comp, fbranch);
        match (cond_lat, t, f) {
            // Static `if` runs for the *worst-case* branch latency, so it
            // only pays off when the branches are balanced; predicated
            // triangular loops (a frequent PolyBench shape, with an empty
            // else) would otherwise spend the full taken-branch time on
            // every untaken iteration. Unbalanced ifs keep the dynamic
            // FSM, which finishes an untaken branch in two cycles.
            (Some(lc), Some(t), Some(f)) if t.1 == f.1 => {
                let mut b = Builder::new(comp, ctx);
                let (group, total) = build_static_if(&mut b, *port, *cond, lc, t, f);
                Ok(Action::Change(static_enable(group, total)))
            }
            _ => Ok(Action::Continue),
        }
    }

    fn finish_component(&mut self, comp: &mut Component, _ctx: &mut PassCtx) -> CalyxResult<()> {
        // A fully static component gets a component-level latency so
        // instantiating groups can be inferred in turn (§6.1's systolic
        // arrays rely on this composition).
        if let Control::Enable { group, .. } = &comp.control {
            if let Some(l) = comp.groups.get(*group).and_then(Group::static_latency) {
                comp.attributes.insert(attr::STATIC, l);
            }
        }
        Ok(())
    }
}

#[derive(Clone, Copy)]
enum BlockKind {
    Seq,
    Par,
}

/// Shared post hook for `seq`/`par`: when every (already-compiled) child is
/// a static activity and at least one is live, fold the block into a single
/// counter-FSM group.
fn compile_block(
    comp: &mut Component,
    ctx: &Context,
    stmts: &[Control],
    kind: BlockKind,
) -> Action {
    let children: Option<Vec<(Option<Id>, u64)>> =
        stmts.iter().map(|s| as_static_enable(comp, s)).collect();
    match children {
        Some(children) if children.iter().any(|(g, _)| g.is_some()) => {
            let live: Vec<(Id, u64)> = children
                .into_iter()
                .filter_map(|(g, l)| g.map(|g| (g, l)))
                .collect();
            if live.len() == 1 {
                return Action::Change(static_enable(live[0].0, live[0].1));
            }
            let mut b = Builder::new(comp, ctx);
            let (group, total) = match kind {
                BlockKind::Seq => build_static_seq(&mut b, &live),
                BlockKind::Par => build_static_par(&mut b, &live),
            };
            Action::Change(static_enable(group, total))
        }
        _ => Action::Continue,
    }
}

/// Latency of a control statement when every nested group is static.
/// `while` is never static (data-dependent trip count).
pub(crate) fn stmt_latency(comp: &Component, stmt: &Control) -> Option<u64> {
    match stmt {
        Control::Empty => Some(0),
        Control::Enable { group, .. } => comp
            .groups
            .get(*group)
            .and_then(Group::static_latency)
            .filter(|l| *l > 0),
        Control::Seq { stmts, .. } => stmts
            .iter()
            .map(|s| stmt_latency(comp, s))
            .sum::<Option<u64>>(),
        Control::Par { stmts, .. } => stmts
            .iter()
            .map(|s| stmt_latency(comp, s))
            .collect::<Option<Vec<_>>>()
            .map(|ls| ls.into_iter().max().unwrap_or(0)),
        Control::If {
            cond,
            tbranch,
            fbranch,
            ..
        } => {
            let lc = cond_latency(comp, cond)?;
            let lt = stmt_latency(comp, tbranch)?;
            let lf = stmt_latency(comp, fbranch)?;
            // Mirrors the transformation: only balanced ifs compile
            // statically (see `transform`), so only they have a latency.
            (lt == lf).then_some(lc + lt)
        }
        Control::While { .. } => None,
    }
}

/// Latency of the condition-evaluation phase of an `if`.
///
/// Combinational condition groups (constant-true `done`) and absent `with`
/// groups still need one cycle to latch the condition value.
pub(crate) fn cond_latency(comp: &Component, cond: &Option<Id>) -> Option<u64> {
    match cond {
        None => Some(1),
        Some(cg) => {
            let group = comp.groups.get(*cg)?;
            if let Some(l) = group.static_latency() {
                if l > 0 {
                    return Some(l);
                }
            }
            if is_comb_group(group) {
                Some(1)
            } else {
                None
            }
        }
    }
}

/// A group whose `done` is the constant 1 — it computes combinationally.
pub(crate) fn is_comb_group(group: &Group) -> bool {
    group
        .done_writes()
        .any(|a| a.guard.is_true() && matches!(a.src, Atom::Const { val: 1, .. }))
}

/// A statement that is already a single static activity: `Empty` (latency
/// 0) or an enable of a static group.
fn as_static_enable(comp: &Component, stmt: &Control) -> Option<(Option<Id>, u64)> {
    match stmt {
        Control::Empty => Some((None, 0)),
        Control::Enable { group, .. } => {
            let l = comp.groups.get(*group)?.static_latency()?;
            (l > 0).then_some((Some(*group), l))
        }
        _ => None,
    }
}

fn static_enable(group: Id, latency: u64) -> Control {
    let mut e = Control::enable(group);
    if let Some(a) = e.attributes_mut() {
        a.insert(attr::STATIC, latency);
    }
    e
}

/// `lo <= fsm < hi` within a schedule of `total` cycles, with the redundant
/// bound checks dropped; `TRUE` when there is no counter.
fn window_guard(b: &mut Builder, counter: Counter, lo: u64, hi: u64, total: u64) -> GuardId {
    let Some((fsm_out, width)) = counter else {
        return GuardId::TRUE;
    };
    let guards = b.guards();
    let lower = if lo > 0 {
        guards.comp(CompOp::Geq, fsm_out, lo, width)
    } else {
        GuardId::TRUE
    };
    let upper = if hi < total {
        guards.comp(CompOp::Lt, fsm_out, hi, width)
    } else {
        GuardId::TRUE
    };
    guards.and(lower, upper)
}

/// A counter's FSM output port and width, or `None` for a one-cycle
/// schedule, which needs no counter.
type Counter = Option<(PortRef, u32)>;

/// Shared counter scaffolding: an incrementing FSM that counts `0..total`,
/// resets on its last cycle, and drives the group's combinational `done`.
/// Returns the FSM output port (or `None` when `total == 1` and no counter
/// is needed).
fn build_counter(b: &mut Builder, g: Id, total: u64) -> Counter {
    if total <= 1 {
        b.asgn_const(g, PortRef::hole(g, Id::DONE), 1, 1);
        return None;
    }
    let width = bits_needed(total - 1);
    let fsm = b.add_primitive("fsm", Id::STD_REG, &[u64::from(width)]);
    b.set_cell_attribute(fsm, attr::FSM, 1);
    let add = b.add_primitive("incr", Id::STD_ADD, &[u64::from(width)]);
    b.set_cell_attribute(add, attr::FSM, 1);
    let fsm_out = PortRef::cell(fsm, Id::OUT);

    b.asgn(g, (add, Id::LEFT), fsm_out);
    b.asgn_const(g, (add, Id::RIGHT), 1, width);
    let not_last = b.guards().comp(CompOp::Lt, fsm_out, total - 1, width);
    b.asgn_guarded(g, (fsm, Id::IN), (add, Id::OUT), not_last);
    b.asgn_const_guarded(g, (fsm, Id::WRITE_EN), 1, 1, not_last);
    let last = b.guards().comp(CompOp::Eq, fsm_out, total - 1, width);
    b.asgn_const_guarded(g, (fsm, Id::IN), 0, width, last);
    b.asgn_const_guarded(g, (fsm, Id::WRITE_EN), 1, 1, last);
    b.asgn_const_guarded(g, PortRef::hole(g, Id::DONE), 1, 1, last);
    Some((fsm_out, width))
}

/// The paper's `static_seq` example: children enabled back-to-back in
/// `[offset, offset + latency)` windows.
fn build_static_seq(b: &mut Builder, children: &[(Id, u64)]) -> (Id, u64) {
    let total: u64 = children.iter().map(|(_, l)| l).sum();
    let g = b.add_static_group("static_seq", total);
    b.set_group_attribute(g, attr::GENERATED, 1);
    let counter = build_counter(b, g, total);
    let mut offset = 0;
    for &(child, latency) in children {
        let guard = window_guard(b, counter, offset, offset + latency, total);
        b.asgn_const_guarded(g, PortRef::hole(child, Id::GO), 1, 1, guard);
        offset += latency;
    }
    (g, total)
}

/// Static `par`: all children start at cycle 0; each runs for its own
/// latency; the block takes the maximum.
fn build_static_par(b: &mut Builder, children: &[(Id, u64)]) -> (Id, u64) {
    let total: u64 = children.iter().map(|(_, l)| *l).max().unwrap_or(1);
    let g = b.add_static_group("static_par", total);
    b.set_group_attribute(g, attr::GENERATED, 1);
    let counter = build_counter(b, g, total);
    for &(child, latency) in children {
        let guard = window_guard(b, counter, 0, latency, total);
        b.asgn_const_guarded(g, PortRef::hole(child, Id::GO), 1, 1, guard);
    }
    (g, total)
}

/// Static `if`: evaluate the condition for `cond_lat` cycles, latch the
/// condition port into `cs` on the last condition cycle, then run the
/// selected branch; the whole statement takes the worst-case branch time.
fn build_static_if(
    b: &mut Builder,
    port: PortRef,
    cond: Option<Id>,
    cond_lat: u64,
    tbranch: (Option<Id>, u64),
    fbranch: (Option<Id>, u64),
) -> (Id, u64) {
    let branch_lat = tbranch.1.max(fbranch.1);
    let total = cond_lat + branch_lat;
    let g = b.add_static_group("static_if", total);
    b.set_group_attribute(g, attr::GENERATED, 1);
    let counter = build_counter(b, g, total);

    if let Some(cg) = cond {
        let window = window_guard(b, counter, 0, cond_lat, total);
        b.asgn_const_guarded(g, PortRef::hole(cg, Id::GO), 1, 1, window);
    }

    if branch_lat > 0 {
        let cs = b.add_primitive("cs", Id::STD_REG, &[1]);
        b.set_cell_attribute(cs, attr::FSM, 1);
        // Latch the condition on the final condition cycle.
        let latch = match counter {
            Some((fsm_out, width)) => b.guards().comp(CompOp::Eq, fsm_out, cond_lat - 1, width),
            None => GuardId::TRUE,
        };
        b.asgn_guarded(g, (cs, Id::IN), port, latch);
        b.asgn_const_guarded(g, (cs, Id::WRITE_EN), 1, 1, latch);
        for (branch, taken) in [(tbranch, true), (fbranch, false)] {
            let (Some(child), latency) = branch else {
                continue;
            };
            let window = window_guard(b, counter, cond_lat, cond_lat + latency, total);
            let mut active = b.guards().port(PortRef::cell(cs, Id::OUT));
            if !taken {
                active = b.guards().not(active);
            }
            let guard = b.guards().and(window, active);
            b.asgn_const_guarded(g, PortRef::hole(child, Id::GO), 1, 1, guard);
        }
    }
    (g, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::parse_context;
    use crate::passes::Pass;

    /// The paper's §4.4 example: two static groups in sequence compile to a
    /// single static group of latency 3 with window guards.
    const PAPER_SEQ: &str = r#"
        component main() -> () {
          cells { x = std_reg(8); y = std_reg(8); }
          wires {
            group one<"static"=1> { x.in = 8'd1; x.write_en = 1'd1; one[done] = 1'd1; }
            group two<"static"=2> { y.in = 8'd2; y.write_en = 1'd1; two[done] = 1'd1; }
          }
          control { seq { one; two; } }
        }
    "#;

    #[test]
    fn compiles_static_seq_with_counter() {
        let mut ctx = parse_context(PAPER_SEQ).unwrap();
        StaticTiming.run(&mut ctx).unwrap();
        let main = ctx.component("main").unwrap();
        // Control is a single enable of a static group with latency 3.
        match &main.control {
            Control::Enable { group, attributes } => {
                assert!(group.as_str().starts_with("static_seq"));
                assert_eq!(attributes.get(attr::STATIC), Some(3));
            }
            other => panic!("expected static enable, got {other:?}"),
        }
        // Window guards like the paper's `fsm.out >= 1 && fsm.out < 3`.
        let sg = main
            .groups
            .iter()
            .find(|g| g.name.as_str().starts_with("static_seq"))
            .unwrap();
        let text = crate::ir::Printer::print_group(sg, &main.guards);
        assert!(text.contains("one[go]"), "{text}");
        assert!(text.contains("two[go]"), "{text}");
        assert!(text.contains("fsm.out >= 2'd1"), "{text}");
        // Component latency is recorded for cross-component inference.
        assert_eq!(main.static_latency(), Some(3));
    }

    #[test]
    fn static_par_takes_max_latency() {
        let mut ctx = parse_context(
            r#"component main() -> () {
              cells { x = std_reg(8); y = std_reg(8); }
              wires {
                group a<"static"=1> { x.in = 8'd1; x.write_en = 1'd1; a[done] = 1'd1; }
                group c<"static"=4> { y.in = 8'd3; y.write_en = 1'd1; c[done] = 1'd1; }
              }
              control { par { a; c; } }
            }"#,
        )
        .unwrap();
        StaticTiming.run(&mut ctx).unwrap();
        let main = ctx.component("main").unwrap();
        assert_eq!(main.control.static_latency(), Some(4));
    }

    #[test]
    fn dynamic_children_fall_back() {
        let mut ctx = parse_context(
            r#"component main() -> () {
              cells { x = std_reg(8); y = std_reg(8); }
              wires {
                group s<"static"=1> { x.in = 8'd1; x.write_en = 1'd1; s[done] = 1'd1; }
                group d { y.in = 8'd2; y.write_en = 1'd1; d[done] = y.done; }
              }
              control { seq { s; d; } }
            }"#,
        )
        .unwrap();
        StaticTiming.run(&mut ctx).unwrap();
        let main = ctx.component("main").unwrap();
        // Mixed latency: the seq stays dynamic.
        assert!(matches!(main.control, Control::Seq { .. }));
        assert!(main.static_latency().is_none());
    }

    #[test]
    fn while_bodies_are_compiled_but_loop_stays_dynamic() {
        let mut ctx = parse_context(
            r#"component main() -> () {
              cells { x = std_reg(8); y = std_reg(8); lt = std_lt(8); }
              wires {
                group cond { lt.left = x.out; lt.right = 8'd3; cond[done] = 1'd1; }
                group a<"static"=1> { x.in = 8'd1; x.write_en = 1'd1; a[done] = 1'd1; }
                group c<"static"=1> { y.in = 8'd2; y.write_en = 1'd1; c[done] = 1'd1; }
              }
              control { while lt.out with cond { seq { a; c; } } }
            }"#,
        )
        .unwrap();
        StaticTiming.run(&mut ctx).unwrap();
        let main = ctx.component("main").unwrap();
        match &main.control {
            Control::While { body, .. } => match body.as_ref() {
                Control::Enable { group, attributes } => {
                    assert!(group.as_str().starts_with("static_seq"));
                    assert_eq!(attributes.get(attr::STATIC), Some(2));
                }
                other => panic!("body should be a static enable, got {other:?}"),
            },
            other => panic!("expected while, got {other:?}"),
        }
    }

    #[test]
    fn static_if_latches_condition() {
        let mut ctx = parse_context(
            r#"component main() -> () {
              cells { x = std_reg(8); lt = std_lt(8); }
              wires {
                group cond { lt.left = x.out; lt.right = 8'd3; cond[done] = 1'd1; }
                group t<"static"=2> { x.in = 8'd1; x.write_en = 1'd1; t[done] = 1'd1; }
                group f<"static"=2> { x.in = 8'd2; x.write_en = 1'd1; f[done] = 1'd1; }
              }
              control { if lt.out with cond { t; } else { f; } }
            }"#,
        )
        .unwrap();
        StaticTiming.run(&mut ctx).unwrap();
        let main = ctx.component("main").unwrap();
        // 1 (comb cond latch) + 2 (balanced branches).
        assert_eq!(main.control.static_latency(), Some(3));
        let cs = main
            .cells
            .iter()
            .find(|c| c.name.as_str().starts_with("cs"));
        assert!(cs.is_some(), "condition-save register allocated");
    }

    #[test]
    fn unbalanced_if_stays_dynamic() {
        let mut ctx = parse_context(
            r#"component main() -> () {
              cells { x = std_reg(8); lt = std_lt(8); }
              wires {
                group cond { lt.left = x.out; lt.right = 8'd3; cond[done] = 1'd1; }
                group t<"static"=5> { x.in = 8'd1; x.write_en = 1'd1; t[done] = 1'd1; }
              }
              control { if lt.out with cond { t; } }
            }"#,
        )
        .unwrap();
        StaticTiming.run(&mut ctx).unwrap();
        let main = ctx.component("main").unwrap();
        // A predicated (empty-else) if would waste the full taken-branch
        // latency on untaken executions; it keeps the dynamic FSM.
        assert!(matches!(main.control, Control::If { .. }));
        assert!(main.static_latency().is_none());
    }

    #[test]
    fn stmt_latency_computes_compositionally() {
        let ctx = parse_context(PAPER_SEQ).unwrap();
        let comp = ctx.component("main").unwrap();
        assert_eq!(stmt_latency(comp, &comp.control), Some(3));
        assert_eq!(stmt_latency(comp, &Control::Empty), Some(0));
        let w = Control::while_(PortRef::cell("x", "out"), None, Control::enable("one"));
        assert_eq!(stmt_latency(comp, &w), None);
    }
}
