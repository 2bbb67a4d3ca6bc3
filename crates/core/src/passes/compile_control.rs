//! The `CompileControl` pass: latency-insensitive FSM generation
//! (paper §4.2–§4.3, Fig. 2c).
//!
//! The pass walks the control program bottom-up. For every control
//! statement it instantiates a *compilation group* containing the structure
//! that realizes the statement — a state register for `seq`, per-child done
//! savers for `par`, condition registers for `if`/`while` — wires the
//! children's `go`/`done` interface signals, and replaces the statement
//! with an enable of the compilation group. After the pass, each
//! component's control program is a single group enable.
//!
//! Compilation groups reset their internal state when they raise `done`, so
//! they operate correctly when re-entered inside loops.
//!
//! ## Conditions
//!
//! An `if`/`while` decides in the cycle its condition settles when the
//! condition is combinational (its `with` group has a constant `done`, or
//! there is none) and no group under the statement drives a port the
//! condition reads or drives, nor reads one it drives
//! ([`decides_in_its_cycle`]): the condition group and the chosen child
//! then run in the same cycle. A `while` keeps one `busy` register for a
//! running body; an `if` latches its decision into `cs` while starting the
//! taken branch, and `cc` marks the decision made. Every other condition
//! falls back to the paper's §4.3 registers ([`build_cond`]): `cc`/`cs`
//! latch the condition a cycle before the statement acts on it. The choice
//! follows from the program alone.
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
use super::static_timing::is_comb_group;
use super::visitor::{Action, Visitor};
use crate::errors::{CalyxResult, Error};
use crate::ir::{
    attr, Attributes, Builder, CompOp, Component, Control, GuardId, Id, PortParent, PortRef,
    PrimKind,
};
use crate::utils::bits_needed;
use rustc_hash::FxHashSet;

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
fn done(b: &mut Builder, group: Id) -> GuardId {
    b.guards().port(PortRef::hole(group, Id::DONE))
}

/// `cell.out` as a guard.
fn out(b: &mut Builder, cell: Id) -> GuardId {
    b.guards().port(PortRef::cell(cell, Id::OUT))
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
        crate::ir::Atom::Port(p) if p.port == Id::DONE => p
            .cell_parent()
            .and_then(|c| comp.cells.get(c))
            .is_some_and(|cell| cell.is_register() || cell.is_memory()),
        _ => false,
    })
}

/// The `go` guard for enabling `child` under `base`; see
/// [`needs_done_protection`].
fn enable_guard(b: &mut Builder, child: Id, base: GuardId) -> GuardId {
    if needs_done_protection(b, child) {
        let done = done(b, child);
        let not_done = b.guards().not(done);
        b.guards().and(base, not_done)
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
fn wire_child(b: &mut Builder, g: Id, child: Id, base: GuardId) -> GuardId {
    if !is_static_island(b, child) {
        let en = enable_guard(b, child, base);
        b.asgn_const_guarded(g, PortRef::hole(child, Id::GO), 1, 1, en);
        return done(b, child);
    }
    let sd = b.add_primitive(&format!("sd_{child}"), Id::STD_REG, &[1]);
    b.set_cell_attribute(sd, attr::FSM, 1);
    let sd_out = out(b, sd);
    let not_recorded = b.guards().not(sd_out);
    // Run the island until its completion is recorded (also protects it
    // from re-executing during the handoff cycle).
    let en = b.guards().and(base, not_recorded);
    b.asgn_const_guarded(g, PortRef::hole(child, Id::GO), 1, 1, en);
    // Record the combinational done on the commit cycle (`!sd` keeps this
    // disjoint from the consume write for constant-done islands)...
    let done = done(b, child);
    let finishing = b.guards().and(base, done);
    let record = b.guards().and(finishing, not_recorded);
    b.asgn_const_guarded(g, (sd, Id::IN), 1, 1, record);
    b.asgn_const_guarded(g, (sd, Id::WRITE_EN), 1, 1, record);
    // ...and consume it the cycle after, when the parent advances, so the
    // saver is clear if the statement re-executes inside a loop.
    let consume = b.guards().and(base, sd_out);
    b.asgn_const_guarded(g, (sd, Id::IN), 0, 1, consume);
    b.asgn_const_guarded(g, (sd, Id::WRITE_EN), 1, 1, consume);
    sd_out
}

/// Paper Fig. 2c: one state per child plus a final state; each child's
/// `done` advances the FSM; the compilation group is done in the final
/// state, which also resets the FSM.
fn compile_seq(b: &mut Builder, children: &[Id]) -> Id {
    let n = children.len() as u64;
    let width = bits_needed(n);
    let fsm = b.add_primitive("fsm", Id::STD_REG, &[u64::from(width)]);
    b.set_cell_attribute(fsm, attr::FSM, 1);
    let g = b.add_group("seq");
    b.set_group_attribute(g, attr::GENERATED, 1);
    let fsm_out = PortRef::cell(fsm, Id::OUT);

    for (i, &child) in children.iter().enumerate() {
        let state = b.guards().comp(CompOp::Eq, fsm_out, i as u64, width);
        // Enable the child while in its state; advance when it completes.
        let finished = wire_child(b, g, child, state);
        let tick = b.guards().and(state, finished);
        b.asgn_const_guarded(g, (fsm, Id::IN), i as u64 + 1, width, tick);
        b.asgn_const_guarded(g, (fsm, Id::WRITE_EN), 1, 1, tick);
    }

    // Final state: signal done and reset the FSM for re-entry.
    let final_state = b.guards().comp(CompOp::Eq, fsm_out, n, width);
    b.asgn_const_guarded(g, PortRef::hole(g, Id::DONE), 1, 1, final_state);
    b.asgn_const_guarded(g, (fsm, Id::IN), 0, width, final_state);
    b.asgn_const_guarded(g, (fsm, Id::WRITE_EN), 1, 1, final_state);
    g
}

/// Paper §4.3 (par): a 1-bit saver register per child records its `done`
/// pulse; the block is done when all savers read 1, which also resets them.
fn compile_par(b: &mut Builder, children: &[Id]) -> Id {
    let g = b.add_group("par");
    b.set_group_attribute(g, attr::GENERATED, 1);

    let savers: Vec<Id> = children
        .iter()
        .map(|child| {
            let pd = b.add_primitive(&format!("pd_{child}"), Id::STD_REG, &[1]);
            b.set_cell_attribute(pd, attr::FSM, 1);
            pd
        })
        .collect();

    let recorded: Vec<GuardId> = savers.iter().map(|pd| out(b, *pd)).collect();
    let all_done = recorded
        .iter()
        .copied()
        .reduce(|all, one| b.guards().and(all, one))
        .expect("par blocks have at least one child");
    let resetting = b.guards().not(all_done);

    for ((child, pd), recorded) in children.iter().zip(&savers).zip(recorded) {
        // Run the child until its saver records completion.
        let not_finished = b.guards().not(recorded);
        let en = enable_guard(b, *child, not_finished);
        b.asgn_const_guarded(g, PortRef::hole(*child, Id::GO), 1, 1, en);
        // Record the done pulse (masked during the reset cycle so the two
        // saver writes cannot conflict when a child's done is level-high).
        let done = done(b, *child);
        let record = b.guards().and(done, resetting);
        b.asgn_const_guarded(g, (*pd, Id::IN), 1, 1, record);
        b.asgn_const_guarded(g, (*pd, Id::WRITE_EN), 1, 1, record);
        // Reset for re-entry.
        b.asgn_const_guarded(g, (*pd, Id::IN), 0, 1, all_done);
        b.asgn_const_guarded(g, (*pd, Id::WRITE_EN), 1, 1, all_done);
    }

    b.asgn_const_guarded(g, PortRef::hole(g, Id::DONE), 1, 1, all_done);
    g
}

/// The condition registers of an `if`, and of a `while` that cannot decide
/// in the cycle its condition settles (see [`decides_in_its_cycle`]).
struct CondRegs {
    /// 1-bit "condition computed" register.
    cc: Id,
    /// 1-bit "condition saved" register.
    cs: Id,
}

impl CondRegs {
    fn new(b: &mut Builder) -> Self {
        let cc = b.add_primitive("cc", Id::STD_REG, &[1]);
        let cs = b.add_primitive("cs", Id::STD_REG, &[1]);
        b.set_cell_attribute(cc, attr::FSM, 1);
        b.set_cell_attribute(cs, attr::FSM, 1);
        CondRegs { cc, cs }
    }
}

/// The §4.3 fallback: run the `with` group (when present) until it
/// reports done, then latch the condition port into `cs` and set `cc`; the
/// statement decides on `cs` one cycle after the condition settled.
/// Statements whose condition settles undisturbed within its cycle decide
/// on the port itself instead ([`decides_in_its_cycle`]).
fn build_cond(b: &mut Builder, g: Id, port: PortRef, cond: Option<Id>) -> CondRegs {
    let CondRegs { cc, cs } = CondRegs::new(b);
    let computed = out(b, cc);
    let computing = b.guards().not(computed);

    // Condition groups are enabled for the whole evaluation phase; a
    // multi-cycle one must be idempotent.
    let cond_done = match cond {
        Some(cg) => {
            b.asgn_const_guarded(g, PortRef::hole(cg, Id::GO), 1, 1, computing);
            done(b, cg)
        }
        None => GuardId::TRUE,
    };

    let latch = b.guards().and(computing, cond_done);
    b.asgn_const_guarded(g, (cc, Id::IN), 1, 1, latch);
    b.asgn_const_guarded(g, (cc, Id::WRITE_EN), 1, 1, latch);
    b.asgn_guarded(g, (cs, Id::IN), port, latch);
    b.asgn_const_guarded(g, (cs, Id::WRITE_EN), 1, 1, latch);
    CondRegs { cc, cs }
}

/// `Some(g)` enables condition group `g` under `guard` inside `group`.
fn enable_cond(b: &mut Builder, group: Id, cond: Option<Id>, guard: GuardId) {
    if let Some(cg) = cond {
        b.asgn_const_guarded(group, PortRef::hole(cg, Id::GO), 1, 1, guard);
    }
}

/// The registers of an `if` that decides now: `cs` latches the port in the
/// decision cycle, while `cc` reads 0; `cc` is written by the caller.
fn decide_now(b: &mut Builder, g: Id, port: PortRef, cond: Option<Id>) -> CondRegs {
    let CondRegs { cc, cs } = CondRegs::new(b);
    let decided = out(b, cc);
    let deciding = b.guards().not(decided);
    enable_cond(b, g, cond, deciding);
    b.asgn_guarded(g, (cs, Id::IN), port, deciding);
    b.asgn_const_guarded(g, (cs, Id::WRITE_EN), 1, 1, deciding);
    CondRegs { cc, cs }
}

/// An `if` decides in its first cycle when [`decides_in_its_cycle`]
/// allows: it latches the port into `cs` and starts the taken branch in
/// that cycle, and `cc` records that the decision is made. Otherwise the
/// §4.3 registers decide a cycle later.
fn compile_if(
    b: &mut Builder,
    port: PortRef,
    cond: Option<Id>,
    tbranch: Option<Id>,
    fbranch: Option<Id>,
) -> Id {
    let g = b.add_group("if");
    b.set_group_attribute(g, attr::GENERATED, 1);
    let children: Vec<Id> = tbranch.into_iter().chain(fbranch).collect();
    let now = decides_in_its_cycle(b.component(), port, cond, &children);
    let CondRegs { cc, cs } = if now {
        decide_now(b, g, port, cond)
    } else {
        build_cond(b, g, port, cond)
    };
    let computed = out(b, cc);
    let taken = out(b, cs);
    // The branch selectors. Deciding now, the port itself selects in the
    // decision cycle, so the selectors are each other's negation.
    let selectors = if now {
        let deciding = b.guards().not(computed);
        let settled = b.guards().port(port);
        let first = b.guards().and(deciding, settled);
        let saved = b.guards().and(computed, taken);
        let t = b.guards().or(saved, first);
        [t, b.guards().not(t)]
    } else {
        let not_taken = b.guards().not(taken);
        let t = b.guards().and(computed, taken);
        [t, b.guards().and(computed, not_taken)]
    };

    // done(g) = the selected branch's completion; empty branches finish
    // immediately.
    let mut done_guard: Option<GuardId> = None;
    for (branch, selected) in [tbranch, fbranch].into_iter().zip(selectors) {
        let finished = match branch {
            Some(child) => {
                let complete = wire_child(b, g, child, selected);
                b.guards().and(selected, complete)
            }
            None => selected,
        };
        done_guard = Some(match done_guard {
            Some(acc) => b.guards().or(acc, finished),
            None => finished,
        });
    }
    let done_guard = done_guard.expect("both branches contribute a done condition");

    b.asgn_const_guarded(g, PortRef::hole(g, Id::DONE), 1, 1, done_guard);
    if now {
        // `cc` holds 1 from the decision to the cycle before `done`, which
        // may be the decision cycle itself.
        let running = b.guards().not(done_guard);
        b.asgn_const_guarded(g, (cc, Id::IN), 1, 1, running);
        b.asgn_const(g, (cc, Id::WRITE_EN), 1, 1);
    } else {
        // Reset the condition registers when finishing so the statement
        // can re-execute inside loops.
        b.asgn_const_guarded(g, (cc, Id::IN), 0, 1, done_guard);
        b.asgn_const_guarded(g, (cc, Id::WRITE_EN), 1, 1, done_guard);
    }
    g
}

/// A `while` decides each iteration in the cycle its condition settles
/// when [`decides_in_its_cycle`] allows; otherwise through the §4.3
/// registers, a cycle later.
fn compile_while(b: &mut Builder, port: PortRef, cond: Option<Id>, body: Option<Id>) -> Id {
    let g = b.add_group("while");
    b.set_group_attribute(g, attr::GENERATED, 1);
    let body_groups: Vec<Id> = body.into_iter().collect();
    if decides_in_its_cycle(b.component(), port, cond, &body_groups) {
        comb_while(b, g, port, cond, body);
    } else {
        latched_while(b, g, port, cond, body);
    }
    g
}

/// One 1-bit `busy` register marks a running body. While it reads 0 the
/// condition group runs and the body starts in the same cycle if the port
/// reads 1; `busy` holds until the body completes, and the loop is done in
/// a cycle that neither runs the body nor starts it.
fn comb_while(b: &mut Builder, g: Id, port: PortRef, cond: Option<Id>, body: Option<Id>) {
    let settled = b.guards().port(port);
    let run = match body {
        // An empty body: decide again every cycle.
        None => {
            enable_cond(b, g, cond, GuardId::TRUE);
            settled
        }
        Some(child) => {
            let busy = b.add_primitive("busy", Id::STD_REG, &[1]);
            b.set_cell_attribute(busy, attr::FSM, 1);
            let busy_out = out(b, busy);
            let deciding = b.guards().not(busy_out);
            enable_cond(b, g, cond, deciding);
            let run = b.guards().or(busy_out, settled);
            let en = enable_guard(b, child, run);
            b.asgn_const_guarded(g, PortRef::hole(child, Id::GO), 1, 1, en);
            let complete = done(b, child);
            let running = b.guards().not(complete);
            b.asgn_const_guarded(g, (busy, Id::IN), 1, 1, running);
            b.asgn_const_guarded(g, (busy, Id::WRITE_EN), 1, 1, run);
            run
        }
    };
    let idle = b.guards().not(run);
    b.asgn_const_guarded(g, PortRef::hole(g, Id::DONE), 1, 1, idle);
}

/// The §4.3 `while`: latch the condition, run the body if it held, then
/// clear `cc` to evaluate it again.
fn latched_while(b: &mut Builder, g: Id, port: PortRef, cond: Option<Id>, body: Option<Id>) {
    let CondRegs { cc, cs } = build_cond(b, g, port, cond);
    let computed = out(b, cc);
    let taken = out(b, cs);
    let looping = b.guards().and(computed, taken);

    // Body iteration: run the body, then clear `cc` to re-evaluate the
    // condition.
    let iter_end = match body {
        Some(child) => {
            let en = enable_guard(b, child, looping);
            b.asgn_const_guarded(g, PortRef::hole(child, Id::GO), 1, 1, en);
            let done = done(b, child);
            b.guards().and(looping, done)
        }
        // An empty body completes instantly; the condition is re-evaluated
        // every other cycle.
        None => looping,
    };
    b.asgn_const_guarded(g, (cc, Id::IN), 0, 1, iter_end);
    b.asgn_const_guarded(g, (cc, Id::WRITE_EN), 1, 1, iter_end);

    // Exit when the condition was computed false; also reset `cc`.
    let not_taken = b.guards().not(taken);
    let exit = b.guards().and(computed, not_taken);
    b.asgn_const_guarded(g, PortRef::hole(g, Id::DONE), 1, 1, exit);
    b.asgn_const_guarded(g, (cc, Id::IN), 0, 1, exit);
    b.asgn_const_guarded(g, (cc, Id::WRITE_EN), 1, 1, exit);
}

/// Can an `if`/`while` decide in the cycle its condition settles, without
/// latching it first?
///
/// It can when the condition is combinational (its `with` group has a
/// constant `done`, or there is none) and nothing the statement runs can
/// disturb it: the condition group then runs in the same cycle as the
/// first group of the chosen child, so no group under the statement may
/// drive a port the condition reads or drives, nor read a port the
/// condition group drives. Ports are followed through combinational cells,
/// memories and continuous assignments (a register or pipelined unit shows
/// only what it latched, so a body may freely write what the condition
/// reads there). Every other condition keeps the §4.3 registers of
/// [`build_cond`].
fn decides_in_its_cycle(
    comp: &Component,
    port: PortRef,
    cond: Option<Id>,
    children: &[Id],
) -> bool {
    let cond = match cond {
        None => None,
        Some(cg) => match comp.groups.get(cg) {
            Some(group) if is_comb_group(group) => Some(group),
            _ => return false,
        },
    };
    let cond_asgns = cond.map_or(&[][..], |c| &c.assignments[..]);
    let cond_reads = cond_asgns.iter().flat_map(|a| a.reads_iter(&comp.guards));
    let reads = comb_closure(comp, cond_reads.chain([port]), Flow::Upstream);
    let drives = comb_closure(comp, cond_asgns.iter().map(|a| a.dst), Flow::Downstream);
    let mut under = groups_under(comp, children);
    if let Some(c) = cond {
        // Whoever enables the condition group, it drives the same values.
        under.remove(&c.name);
    }
    let mut assignments = under
        .iter()
        .filter_map(|g| comp.groups.get(*g))
        .flat_map(|g| &g.assignments);
    assignments.all(|a| {
        !reads.contains(&a.dst)
            && !drives.contains(&a.dst)
            && !a.src.port().is_some_and(|p| drives.contains(p))
            && !comp.guards.ports(a.guard).any(|p| drives.contains(&p))
    })
}

/// The groups a compiled statement runs: `roots` and, transitively, every
/// group whose `go` hole one of them drives.
fn groups_under(comp: &Component, roots: &[Id]) -> FxHashSet<Id> {
    let mut seen: FxHashSet<Id> = roots.iter().copied().collect();
    let mut work = roots.to_vec();
    while let Some(g) = work.pop() {
        let Some(group) = comp.groups.get(g) else {
            continue;
        };
        for a in &group.assignments {
            if let PortParent::Group(child) = a.dst.parent {
                if a.dst.port == Id::GO && seen.insert(child) {
                    work.push(child);
                }
            }
        }
    }
    seen
}

/// Which way [`comb_closure`] crosses a continuous assignment.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Flow {
    /// From the port it drives to the ports it reads.
    Upstream,
    /// From a port it reads to the port it drives.
    Downstream,
}

/// `roots` and every port joined to them within one cycle: all ports of a
/// combinational cell or memory one of them belongs to (a register or a
/// pipelined unit shows only what it latched), and the other end of each
/// continuous assignment in the direction of `flow`.
fn comb_closure(
    comp: &Component,
    roots: impl IntoIterator<Item = PortRef>,
    flow: Flow,
) -> FxHashSet<PortRef> {
    let mut seen = FxHashSet::default();
    let mut work: Vec<PortRef> = roots.into_iter().collect();
    while let Some(p) = work.pop() {
        if !seen.insert(p) {
            continue;
        }
        if let Some(cell) = p.cell_parent().and_then(|c| comp.cells.get(c)) {
            if !matches!(cell.kind(), Some(PrimKind::Reg | PrimKind::Unit(_))) {
                work.extend(cell.ports.iter().map(|d| PortRef::cell(cell.name, d.name)));
            }
        }
        for a in &comp.continuous {
            match flow {
                Flow::Upstream if a.dst == p => work.extend(a.reads_iter(&comp.guards)),
                Flow::Downstream if a.reads_iter(&comp.guards).any(|r| r == p) => {
                    work.push(a.dst);
                }
                _ => {}
            }
        }
    }
    seen
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
        assert!(main.cells.iter().any(|c| c.attributes.has(attr::FSM)));
        // The compilation group writes the children's go holes.
        let seq_group = main
            .groups
            .iter()
            .find(|g| g.attributes.has(attr::GENERATED))
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
            .find(|g| g.attributes.has(attr::GENERATED))
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
            .filter(|c| c.attributes.has(attr::FSM))
            .count();
        assert_eq!(savers, 2, "one done-saver register per par child");
        validate::validate_context(&ctx).unwrap();
    }

    /// Cells of `main` whose name starts with `prefix`.
    fn cells_named(ctx: &crate::ir::Context, prefix: &str) -> usize {
        let main = ctx.component("main").unwrap();
        main.cells
            .names()
            .filter(|n| n.as_str().starts_with(prefix))
            .count()
    }

    #[test]
    fn if_and_while_generate_cond_registers() {
        // Combinational conditions on a register the bodies write: the
        // `while` keeps one `busy` register, the `if` its `cc`/`cs` pair.
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
        let counts = ["busy", "cc", "cs"].map(|p| cells_named(&ctx, p));
        assert_eq!(counts, [1, 1, 1]);
        validate::validate_context(&ctx).unwrap();

        // A body driving the condition's comparator, and a condition group
        // with a registered `done`: both `while`s keep the §4.3 `cc`/`cs`.
        let ctx = compile_src(
            r#"component main() -> () {
              cells { lt = std_lt(8); r = std_reg(8); x = std_reg(1); }
              wires {
                group cond { lt.left = r.out; lt.right = 8'd5; cond[done] = 1'd1; }
                group body { lt.left = 8'd1; r.in = 8'd1; r.write_en = 1'd1; body[done] = r.done; }
                group slow { lt.left = r.out; lt.right = 8'd5; x.in = lt.out; x.write_en = 1'd1; slow[done] = x.done; }
                group step { r.in = 8'd6; r.write_en = 1'd1; step[done] = r.done; }
              }
              control { seq { while lt.out with cond { body; } while x.out with slow { step; } } }
            }"#,
        );
        let counts = ["busy", "cc", "cs"].map(|p| cells_named(&ctx, p));
        assert_eq!(counts, [0, 2, 2]);
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
            .filter(|g| g.attributes.has(attr::GENERATED))
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
            .find(|g| g.attributes.has(attr::GENERATED))
            .unwrap();
        let island_go = seq_group
            .assignments
            .iter()
            .find(|a| a.dst == PortRef::hole("island", "go"))
            .expect("island is enabled");
        let text = |g| main.guards.display(g).to_string();
        assert!(
            text(island_go.guard).contains("!sd_island.out"),
            "island must not re-execute during the handoff cycle: {}",
            text(island_go.guard)
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
                text(asgn.guard).contains("sd_island.out"),
                "advance must wait for the registered completion: {}",
                text(asgn.guard)
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
            .find(|g| g.attributes.has(attr::GENERATED))
            .unwrap();
        let go_guard = |child: &str| {
            let asgn = seq_group
                .assignments
                .iter()
                .find(|a| a.dst == PortRef::hole(child, "go"))
                .unwrap();
            main.guards.display(asgn.guard).to_string()
        };
        // Static child: plain state guard. Dynamic child: state & !done.
        let a_guard = go_guard("a");
        let b_guard = go_guard("b");
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
