//! The `CompileControl` pass: latency-insensitive FSM generation
//! (paper §4.2–§4.3, Fig. 2c).
//!
//! The pass walks the control program bottom-up. For every control
//! statement it instantiates a *compilation group* containing the structure
//! that realizes the statement — a state register for `seq`, per-child done
//! savers for `par`, condition-computed/condition-saved registers for
//! `if`/`while` — wires the children's `go`/`done` interface signals, and
//! replaces the statement with an enable of the compilation group. After the
//! pass, each component's control program is a single group enable.
//!
//! Compilation groups reset their internal state when they raise `done`, so
//! they operate correctly when re-entered inside loops.
//!
//! ## Interaction with static groups
//!
//! Dynamic (registered-`done`) groups are enabled with a `!child[done]`
//! term in their `go` guard so a group that finishes is not re-executed
//! during its done pulse. Groups compiled by
//! [`StaticTiming`](super::StaticTiming) instead assert `done`
//! *combinationally during their final cycle* and must stay enabled through
//! it, so the `!done` term is omitted for children carrying a `"static"`
//! attribute.

use super::pass_ctx::PassCtx;
use super::visitor::{Action, Visitor};
use crate::errors::{CalyxResult, Error};
use crate::ir::{attr, Attributes, Builder, Component, Control, Guard, Id, PortRef};
use crate::utils::bits_needed;

/// Compiles `seq`/`par`/`if`/`while` into latency-insensitive FSMs.
///
/// A bottom-up [`Visitor`]: every post hook sees children that earlier
/// hooks have already folded into single group enables (or `Empty`), builds
/// the compilation group realizing this statement, and replaces the
/// statement with an enable of it. After the pass, each component's control
/// program is a single group enable.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileControl;

impl Visitor for CompileControl {
    fn name(&self) -> &'static str {
        "compile-control"
    }

    fn description(&self) -> &'static str {
        "structurally realize control statements with latency-insensitive FSMs"
    }

    fn enable(
        &mut self,
        group: &mut Id,
        _attributes: &mut Attributes,
        comp: &mut Component,
        _ctx: &mut PassCtx,
    ) -> CalyxResult<Action> {
        if !comp.groups.contains(*group) {
            return Err(Error::pass(
                "compile-control",
                format!("control enables undefined group `{group}`"),
            ));
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
        let children = child_groups(stmts);
        Ok(match children.len() {
            0 => Action::Change(Control::Empty),
            1 => Action::Change(Control::enable(children[0])),
            _ => {
                let mut b = Builder::new(comp, ctx);
                Action::Change(Control::enable(compile_seq(&mut b, &children)))
            }
        })
    }

    fn finish_par(
        &mut self,
        stmts: &mut Vec<Control>,
        _attributes: &mut Attributes,
        comp: &mut Component,
        ctx: &mut PassCtx,
    ) -> CalyxResult<Action> {
        let children = child_groups(stmts);
        Ok(match children.len() {
            0 => Action::Change(Control::Empty),
            1 => Action::Change(Control::enable(children[0])),
            _ => {
                let mut b = Builder::new(comp, ctx);
                Action::Change(Control::enable(compile_par(&mut b, &children)))
            }
        })
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
        let t = compiled_child(tbranch);
        let f = compiled_child(fbranch);
        let mut b = Builder::new(comp, ctx);
        let g = compile_if(&mut b, *port, *cond, t, f);
        Ok(Action::Change(Control::enable(g)))
    }

    #[allow(clippy::too_many_arguments)]
    fn finish_while(
        &mut self,
        port: &mut PortRef,
        cond: &mut Option<Id>,
        body: &mut Control,
        _attributes: &mut Attributes,
        comp: &mut Component,
        ctx: &mut PassCtx,
    ) -> CalyxResult<Action> {
        let body = compiled_child(body);
        let mut b = Builder::new(comp, ctx);
        let g = compile_while(&mut b, *port, *cond, body);
        Ok(Action::Change(Control::enable(g)))
    }
}

/// The single group an already-compiled child statement reduces to (`None`
/// for empty control).
fn compiled_child(stmt: &Control) -> Option<Id> {
    match stmt {
        Control::Enable { group, .. } => Some(*group),
        _ => None,
    }
}

/// The groups of a block's already-compiled children, empties dropped.
fn child_groups(stmts: &[Control]) -> Vec<Id> {
    stmts.iter().filter_map(compiled_child).collect()
}

/// `group[done]` as a guard.
fn done(group: Id) -> Guard {
    Guard::Port(PortRef::hole(group, "done"))
}

/// Does enabling this group require `!done` re-execution protection?
///
/// A group whose `done` comes from a *registered* source (`reg.done`,
/// `mem.done`) keeps signaling for one cycle after its work committed; if
/// its `go` stayed high through that pulse, its assignments would fire
/// again (double-incrementing `i.in = i.out + 1`-style groups). Such groups
/// get a `!child[done]` term in their enable guard.
///
/// Every other kind of group must instead stay enabled through its done
/// cycle:
/// - static groups assert done combinationally on their final cycle (§4.4);
/// - generated compilation groups' done is an FSM-state predicate, and
///   their *reset* assignments fire during the done cycle;
/// - groups completing on a subcomponent's `done` must hold the
///   subcomponent's `go` through that cycle so *its* internal FSMs reset;
/// - groups completing on a pipelined unit's done pulse are safe either way
///   (the `go = !done ? 1` idiom stops the unit restarting).
fn needs_done_protection(b: &mut Builder, group: Id) -> bool {
    let comp = b.component();
    let Some(g) = comp.groups.get(group) else {
        return true;
    };
    // The decision depends only on the done *source*: a `"static"`
    // attribute does not imply a combinational done (frontend-annotated
    // groups signal through registered `reg.done` pulses and still need
    // protection when dynamically scheduled), while the generated
    // compilation groups and constant-done groups never have registered
    // pulses.
    g.done_writes().any(|asgn| match &asgn.src {
        crate::ir::Atom::Port(p) if p.port.as_str() == "done" => p
            .cell_parent()
            .and_then(|c| comp.cells.get(c))
            .is_some_and(|cell| cell.is_register() || cell.is_memory()),
        _ => false,
    })
}

/// The `go` guard for enabling `child` under `base`; see
/// [`needs_done_protection`].
fn enable_guard(b: &mut Builder, child: Id, base: Guard) -> Guard {
    if needs_done_protection(b, child) {
        base.and(done(child).not())
    } else {
        base
    }
}

/// Is `child` a *static island*: a group scheduled by
/// [`StaticTiming`](super::StaticTiming) (or honoring its contract) whose
/// `done` rises combinationally in the very cycle its final writes commit?
fn is_static_island(b: &mut Builder, child: Id) -> bool {
    let is_static = b
        .component()
        .groups
        .get(child)
        .and_then(crate::ir::Group::static_latency)
        .is_some();
    is_static && !needs_done_protection(b, child)
}

/// Wire `child`'s `go` under `base` into compilation group `g` and return
/// the guard the parent FSM must treat as the child's completion.
///
/// Dynamic children hand back their `done` hole directly: their registered
/// done *pulses* one cycle after their final write commits, so the parent
/// consumes the pulse cycle and the next sibling starts with all done
/// signals quiescent. A static island instead asserts `done`
/// combinationally *during* its commit cycle; advancing on it directly
/// would start the next sibling exactly when the island's `reg.done` /
/// `mem.done` pulses land, and a sibling sharing a done source would
/// mistake the stale pulse for its own completion and be skipped entirely.
/// A 1-bit saver (`sd_*`, the sequential analogue of `compile_par`'s
/// `pd_*` savers) registers the island's completion, delaying the parent's
/// view by the one cycle that lets the stale pulse pass.
fn wire_child(b: &mut Builder, g: Id, child: Id, base: Guard) -> Guard {
    if !is_static_island(b, child) {
        let en = enable_guard(b, child, base);
        b.asgn_const_guarded(g, PortRef::hole(child, "go"), 1, 1, en);
        return done(child);
    }
    let sd = b.add_primitive(&format!("sd_{child}"), "std_reg", &[1]);
    b.set_cell_attribute(sd, attr::fsm(), 1);
    let sd_out = Guard::Port(PortRef::cell(sd, "out"));
    // Run the island until its completion is recorded (also protects it
    // from re-executing during the handoff cycle).
    let en = base.clone().and(sd_out.clone().not());
    b.asgn_const_guarded(g, PortRef::hole(child, "go"), 1, 1, en);
    // Record the combinational done on the commit cycle (`!sd` keeps this
    // disjoint from the consume write for constant-done islands)...
    let record = base.clone().and(done(child)).and(sd_out.clone().not());
    b.asgn_const_guarded(g, (sd, "in"), 1, 1, record.clone());
    b.asgn_const_guarded(g, (sd, "write_en"), 1, 1, record);
    // ...and consume it the cycle after, when the parent advances, so the
    // saver is clear if the statement re-executes inside a loop.
    let consume = base.and(sd_out.clone());
    b.asgn_const_guarded(g, (sd, "in"), 0, 1, consume.clone());
    b.asgn_const_guarded(g, (sd, "write_en"), 1, 1, consume);
    sd_out
}

/// Paper Fig. 2c: one state per child plus a final state; each child's
/// `done` advances the FSM; the compilation group is done in the final
/// state, which also resets the FSM.
fn compile_seq(b: &mut Builder, children: &[Id]) -> Id {
    let n = children.len() as u64;
    let width = bits_needed(n);
    let fsm = b.add_primitive("fsm", "std_reg", &[u64::from(width)]);
    b.set_cell_attribute(fsm, attr::fsm(), 1);
    let g = b.add_group("seq");
    b.set_group_attribute(g, attr::generated(), 1);
    let fsm_out = PortRef::cell(fsm, "out");

    for (i, &child) in children.iter().enumerate() {
        let state = Guard::port_eq(fsm_out, i as u64, width);
        // Enable the child while in its state; advance when it completes.
        let finished = wire_child(b, g, child, state.clone());
        let tick = state.and(finished);
        b.asgn_const_guarded(g, (fsm, "in"), i as u64 + 1, width, tick.clone());
        b.asgn_const_guarded(g, (fsm, "write_en"), 1, 1, tick);
    }

    // Final state: signal done and reset the FSM for re-entry.
    let final_state = Guard::port_eq(fsm_out, n, width);
    b.asgn_const_guarded(g, PortRef::hole(g, "done"), 1, 1, final_state.clone());
    b.asgn_const_guarded(g, (fsm, "in"), 0, width, final_state.clone());
    b.asgn_const_guarded(g, (fsm, "write_en"), 1, 1, final_state);
    g
}

/// Paper §4.3 (par): a 1-bit saver register per child records its `done`
/// pulse; the block is done when all savers read 1, which also resets them.
fn compile_par(b: &mut Builder, children: &[Id]) -> Id {
    let g = b.add_group("par");
    b.set_group_attribute(g, attr::generated(), 1);

    let savers: Vec<Id> = children
        .iter()
        .map(|child| {
            let pd = b.add_primitive(&format!("pd_{child}"), "std_reg", &[1]);
            b.set_cell_attribute(pd, attr::fsm(), 1);
            pd
        })
        .collect();

    let all_done = savers
        .iter()
        .map(|pd| Guard::Port(PortRef::cell(*pd, "out")))
        .reduce(Guard::and)
        .expect("par blocks have at least one child");

    for (child, pd) in children.iter().zip(&savers) {
        // Run the child until its saver records completion.
        let not_finished = Guard::Port(PortRef::cell(*pd, "out")).not();
        let en = enable_guard(b, *child, not_finished);
        b.asgn_const_guarded(g, PortRef::hole(*child, "go"), 1, 1, en);
        // Record the done pulse (masked during the reset cycle so the two
        // saver writes cannot conflict when a child's done is level-high).
        let record = done(*child).and(all_done.clone().not());
        b.asgn_const_guarded(g, (*pd, "in"), 1, 1, record.clone());
        b.asgn_const_guarded(g, (*pd, "write_en"), 1, 1, record);
        // Reset for re-entry.
        b.asgn_const_guarded(g, (*pd, "in"), 0, 1, all_done.clone());
        b.asgn_const_guarded(g, (*pd, "write_en"), 1, 1, all_done.clone());
    }

    b.asgn_const_guarded(g, PortRef::hole(g, "done"), 1, 1, all_done);
    g
}

/// Shared structure of `if`/`while` condition evaluation: run the `with`
/// group (when present) until it reports done, then latch the condition
/// port into `cs` and set `cc` (paper §4.3).
struct CondRegs {
    /// 1-bit "condition computed" register.
    cc: Id,
    /// 1-bit "condition saved" register.
    cs: Id,
}

fn build_cond(b: &mut Builder, g: Id, port: PortRef, cond: Option<Id>) -> CondRegs {
    let cc = b.add_primitive("cc", "std_reg", &[1]);
    let cs = b.add_primitive("cs", "std_reg", &[1]);
    b.set_cell_attribute(cc, attr::fsm(), 1);
    b.set_cell_attribute(cs, attr::fsm(), 1);
    let computing = Guard::Port(PortRef::cell(cc, "out")).not();

    // Condition groups are enabled for the whole evaluation phase. They are
    // expected to be combinational or idempotent (both frontends generate
    // combinational condition groups).
    let cond_done = match cond {
        Some(cg) => {
            b.asgn_const_guarded(g, PortRef::hole(cg, "go"), 1, 1, computing.clone());
            done(cg)
        }
        None => Guard::True,
    };

    let latch = computing.and(cond_done);
    b.asgn_const_guarded(g, (cc, "in"), 1, 1, latch.clone());
    b.asgn_const_guarded(g, (cc, "write_en"), 1, 1, latch.clone());
    b.asgn_guarded(g, (cs, "in"), port, latch.clone());
    b.asgn_const_guarded(g, (cs, "write_en"), 1, 1, latch);
    CondRegs { cc, cs }
}

fn compile_if(
    b: &mut Builder,
    port: PortRef,
    cond: Option<Id>,
    tbranch: Option<Id>,
    fbranch: Option<Id>,
) -> Id {
    let g = b.add_group("if");
    b.set_group_attribute(g, attr::generated(), 1);
    let CondRegs { cc, cs } = build_cond(b, g, port, cond);
    let computed = Guard::Port(PortRef::cell(cc, "out"));
    let taken = Guard::Port(PortRef::cell(cs, "out"));

    // done(g) = computed & (taken ? t_done : f_done); empty branches finish
    // immediately.
    let mut done_guard: Option<Guard> = None;
    for (branch, active) in [(tbranch, taken.clone()), (fbranch, taken.clone().not())] {
        let selected = computed.clone().and(active);
        let finished = match branch {
            Some(child) => {
                let complete = wire_child(b, g, child, selected.clone());
                selected.and(complete)
            }
            None => selected,
        };
        done_guard = Some(match done_guard {
            Some(acc) => acc.or(finished),
            None => finished,
        });
    }
    let done_guard = done_guard.expect("both branches contribute a done condition");

    b.asgn_const_guarded(g, PortRef::hole(g, "done"), 1, 1, done_guard.clone());
    // Reset the condition registers when finishing so the statement can
    // re-execute inside loops.
    b.asgn_const_guarded(g, (cc, "in"), 0, 1, done_guard.clone());
    b.asgn_const_guarded(g, (cc, "write_en"), 1, 1, done_guard);
    g
}

fn compile_while(b: &mut Builder, port: PortRef, cond: Option<Id>, body: Option<Id>) -> Id {
    let g = b.add_group("while");
    b.set_group_attribute(g, attr::generated(), 1);
    let CondRegs { cc, cs } = build_cond(b, g, port, cond);
    let computed = Guard::Port(PortRef::cell(cc, "out"));
    let looping = computed.clone().and(Guard::Port(PortRef::cell(cs, "out")));

    // Body iteration: run the body, then clear `cc` to re-evaluate the
    // condition.
    let iter_end = match body {
        Some(child) => {
            let en = enable_guard(b, child, looping.clone());
            b.asgn_const_guarded(g, PortRef::hole(child, "go"), 1, 1, en);
            looping.and(done(child))
        }
        // An empty body completes instantly; the condition is re-evaluated
        // every other cycle.
        None => looping,
    };
    b.asgn_const_guarded(g, (cc, "in"), 0, 1, iter_end.clone());
    b.asgn_const_guarded(g, (cc, "write_en"), 1, 1, iter_end);

    // Exit when the condition was computed false; also reset `cc`.
    let exit = computed.and(Guard::Port(PortRef::cell(cs, "out")).not());
    b.asgn_const_guarded(g, PortRef::hole(g, "done"), 1, 1, exit.clone());
    b.asgn_const_guarded(g, (cc, "in"), 0, 1, exit.clone());
    b.asgn_const_guarded(g, (cc, "write_en"), 1, 1, exit);
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{parse_context, validate, Atom};
    use crate::passes::Pass;

    fn compile_src(src: &str) -> crate::ir::Context {
        let mut ctx = parse_context(src).unwrap();
        CompileControl.run(&mut ctx).unwrap();
        super::super::GoInsertion.run(&mut ctx).unwrap();
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
    fn seq_generates_fsm_group() {
        let ctx = compile_src(FIG2);
        let main = ctx.component("main").unwrap();
        // Control reduced to a single enable of the compilation group.
        match &main.control {
            Control::Enable { group, .. } => assert!(group.as_str().starts_with("seq")),
            other => panic!("expected single enable, got {other:?}"),
        }
        // An FSM register was created.
        assert!(main.cells.iter().any(|c| c.attributes.has(attr::fsm())));
        // The compilation group writes the children's go holes.
        let seq_group = main
            .groups
            .iter()
            .find(|g| g.attributes.has(attr::generated()))
            .unwrap();
        let writes_go = |child: &str| {
            seq_group
                .assignments
                .iter()
                .any(|a| a.dst == PortRef::hole(child, "go"))
        };
        assert!(writes_go("one"));
        assert!(writes_go("two"));
        // Result is still structurally valid.
        validate::validate_context(&ctx).unwrap();
    }

    #[test]
    fn seq_resets_fsm_in_final_state() {
        let ctx = compile_src(FIG2);
        let main = ctx.component("main").unwrap();
        let seq_group = main
            .groups
            .iter()
            .find(|g| g.attributes.has(attr::generated()))
            .unwrap();
        // Find the reset write: fsm.in = (fsm.out == 2) ? 0.
        let reset = seq_group.assignments.iter().any(|a| {
            a.dst.port.as_str() == "in" && a.src == Atom::constant(0, 2) && !a.guard.is_true()
        });
        assert!(reset, "seq compilation group must reset its FSM");
    }

    #[test]
    fn par_generates_saver_registers() {
        let ctx = compile_src(
            r#"component main() -> () {
              cells { x = std_reg(32); y = std_reg(32); }
              wires {
                group a { x.in = 32'd1; x.write_en = 1'd1; a[done] = x.done; }
                group b { y.in = 32'd2; y.write_en = 1'd1; b[done] = y.done; }
              }
              control { par { a; b; } }
            }"#,
        );
        let main = ctx.component("main").unwrap();
        let savers = main
            .cells
            .iter()
            .filter(|c| c.attributes.has(attr::fsm()))
            .count();
        assert_eq!(savers, 2, "one done-saver register per par child");
        validate::validate_context(&ctx).unwrap();
    }

    #[test]
    fn if_and_while_generate_cond_registers() {
        let ctx = compile_src(
            r#"component main() -> () {
              cells { lt = std_lt(8); r = std_reg(8); }
              wires {
                group cond { lt.left = r.out; lt.right = 8'd5; cond[done] = 1'd1; }
                group body { r.in = 8'd1; r.write_en = 1'd1; body[done] = r.done; }
                group t { r.in = 8'd2; r.write_en = 1'd1; t[done] = r.done; }
              }
              control { seq { while lt.out with cond { body; } if lt.out with cond { t; } } }
            }"#,
        );
        let main = ctx.component("main").unwrap();
        // while + if each allocate cc/cs.
        let cc_count = main
            .cells
            .names()
            .filter(|n| n.as_str().starts_with("cc"))
            .count();
        assert_eq!(cc_count, 2);
        validate::validate_context(&ctx).unwrap();
    }

    #[test]
    fn nested_control_compiles_bottom_up() {
        let ctx = compile_src(
            r#"component main() -> () {
              cells { x = std_reg(8); y = std_reg(8); z = std_reg(8); }
              wires {
                group a { x.in = 8'd1; x.write_en = 1'd1; a[done] = x.done; }
                group b { y.in = 8'd2; y.write_en = 1'd1; b[done] = y.done; }
                group c { z.in = 8'd3; z.write_en = 1'd1; c[done] = z.done; }
              }
              control { par { seq { a; b; } c; } }
            }"#,
        );
        let main = ctx.component("main").unwrap();
        // Inner seq and outer par each produced a compilation group.
        let generated = main
            .groups
            .iter()
            .filter(|g| g.attributes.has(attr::generated()))
            .count();
        assert_eq!(generated, 2);
        match &main.control {
            Control::Enable { group, .. } => assert!(group.as_str().starts_with("par")),
            other => panic!("expected single enable, got {other:?}"),
        }
    }

    #[test]
    fn empty_control_stays_empty() {
        let ctx = compile_src(r#"component main() -> () { cells {} wires {} control {} }"#);
        assert!(ctx.component("main").unwrap().control.is_empty());
    }

    /// Regression test: a *static island* (combinational done, asserted in
    /// its commit cycle) under a dynamic seq must have its completion
    /// registered through an `sd_*` saver. Advancing on the island's raw
    /// done would start the next sibling exactly when the island's
    /// registered write pulses (`mem.done`/`reg.done`) land; a sibling
    /// whose done comes from the same source would then treat the stale
    /// pulse as its own completion and be skipped without ever running
    /// (observed as the static-timing differential divergence).
    #[test]
    fn static_island_completion_is_registered() {
        let mut ctx = parse_context(
            r#"component main() -> () {
              cells { @external mem = std_mem_d1(8, 2, 1); }
              wires {
                group island<"static"=1> {
                  mem.addr0 = 1'd0; mem.write_data = 8'd7; mem.write_en = 1'd1;
                  island[done] = 1'd1;
                }
                group wr {
                  mem.addr0 = 1'd1; mem.write_data = 8'd42; mem.write_en = 1'd1;
                  wr[done] = mem.done;
                }
              }
              control { seq { island; wr; } }
            }"#,
        )
        .unwrap();
        CompileControl.run(&mut ctx).unwrap();
        let main = ctx.component("main").unwrap();
        assert!(
            main.cells.names().any(|n| n.as_str() == "sd_island"),
            "a completion saver must be allocated for the static island"
        );
        let seq_group = main
            .groups
            .iter()
            .find(|g| g.attributes.has(attr::generated()))
            .unwrap();
        let island_go = seq_group
            .assignments
            .iter()
            .find(|a| a.dst == PortRef::hole("island", "go"))
            .expect("island is enabled");
        assert!(
            format!("{}", island_go.guard).contains("!sd_island.out"),
            "island must not re-execute during the handoff cycle: {}",
            island_go.guard
        );
        // Every FSM advance out of the island's state must consult the
        // saver, not the island's same-cycle combinational done.
        let advance = seq_group
            .assignments
            .iter()
            .filter(|a| {
                a.dst.cell_parent().is_some_and(|c| c.as_str() == "fsm")
                    && a.dst.port.as_str() == "in"
                    && a.src == Atom::constant(1, 2)
            })
            .collect::<Vec<_>>();
        assert!(!advance.is_empty(), "seq FSM advances past the island");
        for asgn in advance {
            assert!(
                format!("{}", asgn.guard).contains("sd_island.out"),
                "advance must wait for the registered completion: {}",
                asgn.guard
            );
        }
    }

    #[test]
    fn static_children_skip_done_protection() {
        let mut ctx = parse_context(
            r#"component main() -> () {
              cells { x = std_reg(8); }
              wires {
                group a<"static"=1> { x.in = 8'd1; x.write_en = 1'd1; a[done] = 1'd1; }
                group b { x.in = 8'd2; x.write_en = 1'd1; b[done] = x.done; }
              }
              control { seq { a; b; } }
            }"#,
        )
        .unwrap();
        CompileControl.run(&mut ctx).unwrap();
        let main = ctx.component("main").unwrap();
        let seq_group = main
            .groups
            .iter()
            .find(|g| g.attributes.has(attr::generated()))
            .unwrap();
        let go_guard = |child: &str| {
            seq_group
                .assignments
                .iter()
                .find(|a| a.dst == PortRef::hole(child, "go"))
                .unwrap()
                .guard
                .clone()
        };
        // Static child: plain state guard. Dynamic child: state & !done.
        let a_guard = format!("{}", go_guard("a"));
        let b_guard = format!("{}", go_guard("b"));
        assert!(
            !a_guard.contains("a[done]"),
            "static child guard: {a_guard}"
        );
        assert!(
            b_guard.contains("!b[done]"),
            "dynamic child guard: {b_guard}"
        );
    }
}
