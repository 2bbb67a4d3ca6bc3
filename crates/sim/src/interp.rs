//! A reference interpreter for *un-lowered* Calyx programs.
//!
//! Executes the control tree directly, the way the language definition
//! reads (paper §3.3–§3.4): an `enable` activates a group's assignments
//! until the group signals `done`; `seq` runs children in order; `par`
//! runs them concurrently; `if`/`while` evaluate their `with` group, sample
//! the condition port, and proceed.
//!
//! Combinational settling within a cycle is the change-driven scan of
//! [`Wires`], the one the RTL engine runs on. [`crate::flatten`] gives
//! every group a `go` port and gates the group's assignments with it (the
//! paper's own lowering, §4, applied at flatten time), so all assignments
//! of the program form one sorted graph. Port and guard values persist
//! from cycle to cycle. The control walk only decides which `go` ports
//! are high; a cycle then re-evaluates what hangs off the groups that
//! switched and the state that ticked, and a port whose group went quiet
//! settles to zero like any other port nothing drives.
//!
//! The walk itself runs on events, not on every cycle. Flattening
//! records each control node's parent ([`FlatDesign::ctrl_parent`]), and
//! the interpreter keeps the *candidates*: the `enable` nodes and the
//! `if`/`while` nodes in their condition phase that the running trees
//! wait on. A candidate fires when its group finished, or, for a
//! condition without a `with` group, whenever it is waited on (it samples
//! its port at the end of the cycle). A node that fired walks *up* from
//! itself: a `seq` starts its next child, a `par` counts one more child
//! finished, a `while` enters its condition again, a root ends its
//! instance — and what starts is entered *down* from that child. The
//! candidates change only on such an event or when an instance starts,
//! and the raised `go` ports only then or while the done-observation rule
//! holds a finished enable back; a cycle with none of these touches
//! neither. After the settle, a candidate's done condition reads the
//! stored value of its done guard, which is a settled node like every
//! interned guard. The walk from the roots it replaced survives as the
//! oracle in `tests/control_walk.rs`: a whole interpreter built on it
//! runs beside this one, cycle by cycle, on random programs, the
//! PolyBench kernels, the systolic arrays and the hand-written control
//! programs of the tests below, and the candidates must agree before
//! every cycle.
//!
//! The harness around the walk — the cycle loop, its budget and cancel
//! flag, loading and reading state — is [`Harness`], the one the RTL
//! engine runs in. What is this engine's own ([`Interp`]): its refusal of
//! a sub-component that drives its own `done`, the control walk
//! (`Trees`) and its cycle ([`Engine::step`]), counted from
//! construction, so a second run goes on where the first stopped and a
//! finished tree runs no further cycle.
//!
//! Two things of the settle are the interpreter's own. Its driver rule
//! (`Agree`): two active drivers of one port conflict only when their
//! values differ. And its graph may be cyclic: groups that are never
//! active together may wire the same cells in opposite orders
//! (`resource-sharing` produces this), so what the sort could not place
//! is swept until it is stable, and only a loop that is *active* and does
//! not converge is an error.
//!
//! The observable semantics — cycle counts, final state, error cases —
//! are those of the tree-walking interpreter this one replaced, pinned by
//! outcome: the tests below assert exact cycles, values and error texts,
//! and `sim_state_pinned` holds the cycles and final state of every
//! PolyBench kernel, recorded from that engine. Three differences are
//! deliberate. Its fixpoint tested a guard against ports that were not
//! final yet, so a guard only transiently true could raise a spurious
//! conflict or leave its value on a port; here a guard is tested on final
//! inputs only. Since values persist, an active loop that converges —
//! a latch, which the `comb-cycle` lint reports and the RTL engine
//! rejects — holds its value from cycle to cycle while its group stays
//! active, where that fixpoint re-derived it from zero each cycle. And it
//! held back any enable whose done already held, so a group whose done is
//! a constant never ran, nor did one whose done read the pulse of an
//! earlier group's write; here only an enable that has run is held back
//! in its done-observation cycle.
//!
//! This is the semantic oracle for the compiler: after lowering, the RTL
//! simulation must leave the same architectural state (registers and
//! memories) as this interpreter, even though cycle counts differ. The
//! differential tests in `tests/` rely on exactly that.
//!
//! **Component instances.** [`crate::flatten`] elaborates the hierarchy
//! the RTL engine runs, keeping every instance's groups and control tree,
//! and the interpreter runs every instance's tree. The top component's
//! `go` is held high from construction, and the run ends when its tree
//! finishes. A sub-instance is started and finished through its `go` and
//! `done` ports (paper §3):
//!
//! - it is idle until a cycle ends with its `go` port at 1; its tree then
//!   starts, and its groups are candidates from the next cycle;
//! - when its tree finishes (an empty tree finishes when it starts), its
//!   `done` reads 1 from the next cycle until a cycle ends with `go` at 0;
//!   then `done` falls and the instance is idle again, so a later `go`
//!   restarts it;
//! - only the interpreter drives an instance's `done`, and it holds for
//!   the whole cycle, so a group's done condition over it is known from
//!   state alone ([`crate::flatten::FlatGroup::done_from_state`]). A
//!   sub-component whose wires also drive its own `done` is refused.
//!
//! A design without instances does no per-cycle instance work. The cycles
//! of a hierarchy need not equal those of its lowered form; its final
//! state must.

use crate::error::{SimError, SimResult};
use crate::flatten::{
    eval_atom, eval_guard, CtrlIdx, CtrlNode, DriverRule, FlatDesign, FlatIdx, FlatInstance,
    GroupIdx, Wires,
};
use crate::harness::{Engine, Harness};
use calyx_core::ir::{Assignment, Context, Id, PortRef};

/// Per-node runtime state of the flattened control tree. Indexed by
/// [`CtrlIdx`]; each field is meaningful only for the node kind that uses
/// it (the running child's position for `seq`, the count of children
/// still running for `par`).
#[derive(Debug)]
struct CtrlRuntime {
    seq_pos: Vec<u32>,
    pending: Vec<u32>,
}

impl CtrlRuntime {
    fn new(n: usize) -> Self {
        CtrlRuntime {
            seq_pos: vec![0; n],
            pending: vec![0; n],
        }
    }
}

/// What the control trees ask of a cycle, in no particular order: the
/// groups they enable, the `with` groups of the conditions they evaluate,
/// and whether an `if`/`while` without a `with` group samples its port at
/// the end of the cycle (whether or not any group finished).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Waiting {
    /// Enabled groups.
    pub enables: Vec<GroupIdx>,
    /// The `with` groups of the conditions being evaluated.
    pub conds: Vec<GroupIdx>,
    /// A condition without a `with` group is in its condition phase.
    pub samples: bool,
}

impl Waiting {
    /// The same, with both lists sorted: equal for equal multisets.
    fn sorted(mut self) -> Self {
        self.enables.sort_unstable();
        self.conds.sort_unstable();
        self
    }
}

/// One node a control tree waits on: an `enable`, or an `if`/`while` in
/// its condition phase.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    node: CtrlIdx,
    /// The group the node activates: the enabled group, or the
    /// condition's `with` group; `None` for a condition without one.
    group: Option<GroupIdx>,
    /// An enable, held to the done-observation rule once it has run; a
    /// condition's group is not.
    enable: bool,
    /// The node's group has run in an earlier cycle since the node was
    /// entered.
    ran: bool,
}

impl Candidate {
    /// An enable whose done condition does not read state alone
    /// ([`crate::flatten::FlatGroup::done_from_state`]).
    fn unstated(&self, flat: &FlatDesign) -> bool {
        self.enable && self.group.is_some_and(|g| !flat.groups[g].done_from_state)
    }
}

/// Marks a control node that is not a candidate in [`Candidates::at`].
const NOT_WAITING: u32 = u32::MAX;

/// The candidates of every running tree, kept as the trees move.
struct Candidates {
    list: Vec<Candidate>,
    /// Each control node's position in `list`, or [`NOT_WAITING`].
    at: Vec<u32>,
    /// How many candidates are [`Candidate::unstated`].
    unstated: usize,
}

impl Candidates {
    fn add(&mut self, flat: &FlatDesign, node: CtrlIdx, group: Option<GroupIdx>, enable: bool) {
        debug_assert_eq!(self.at[node.index()], NOT_WAITING);
        self.at[node.index()] = self.list.len() as u32;
        let c = Candidate {
            node,
            group,
            enable,
            ran: false,
        };
        self.unstated += usize::from(c.unstated(flat));
        self.list.push(c);
    }

    fn remove(&mut self, flat: &FlatDesign, node: CtrlIdx) {
        let i = std::mem::replace(&mut self.at[node.index()], NOT_WAITING) as usize;
        let c = self.list.swap_remove(i);
        if let Some(moved) = self.list.get(i) {
            self.at[moved.node.index()] = i as u32;
        }
        self.unstated -= usize::from(c.unstated(flat));
    }

    fn waiting(&self) -> Waiting {
        let mut w = Waiting::default();
        for c in &self.list {
            match (c.group, c.enable) {
                (Some(g), true) => w.enables.push(g),
                (Some(g), false) => w.conds.push(g),
                (None, _) => w.samples = true,
            }
        }
        w.sorted()
    }
}

/// Where an instance is in its `go`/`done` handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Waiting for a cycle that ends with its `go` high.
    Idle,
    /// Its control tree is running.
    Running,
    /// Its tree finished: its `done` reads 1 until a cycle ends with its
    /// `go` low.
    Done,
}

/// The control trees of every instance, their runtime state and what
/// they wait on. Every change to the runtime state starts at an event —
/// a candidate that fired, or an instance that started — and goes down
/// from a node with [`Trees::start`] or up from it with
/// [`Trees::finish`].
struct Trees {
    rt: CtrlRuntime,
    cands: Candidates,
    /// Each instance's phase, by position in
    /// [`FlatProgram::instances`](crate::flatten::FlatProgram::instances).
    /// The run is over when the top's is `Done`.
    phases: Vec<Phase>,
    /// For each root control node, the instance it belongs to.
    root_of: Vec<u32>,
}

impl Trees {
    /// (Re-)enter node `n`, adding what it waits on to the candidates.
    /// Returns true when the node is immediately done.
    fn start(&mut self, flat: &FlatDesign, n: CtrlIdx) -> bool {
        match &flat.ctrl[n] {
            CtrlNode::Empty => true,
            CtrlNode::Enable { group } => {
                self.cands.add(flat, n, Some(*group), true);
                false
            }
            CtrlNode::Seq { children } => {
                for (i, &c) in children.iter().enumerate() {
                    if !self.start(flat, c) {
                        self.rt.seq_pos[n.index()] = i as u32;
                        return false;
                    }
                }
                true
            }
            CtrlNode::Par { children } => {
                let mut running = 0;
                for &c in children {
                    running += u32::from(!self.start(flat, c));
                }
                self.rt.pending[n.index()] = running;
                running == 0
            }
            CtrlNode::If { cond, .. } | CtrlNode::While { cond, .. } => {
                self.cands.add(flat, n, *cond, false);
                false
            }
        }
    }

    /// Candidate `n` fired: its group finished, or it is a condition whose
    /// port is sampled now, reading `values`.
    fn fire(&mut self, flat: &FlatDesign, n: CtrlIdx, values: &[u64]) {
        match &flat.ctrl[n] {
            CtrlNode::Enable { .. } => {
                self.cands.remove(flat, n);
                self.finish(flat, n);
            }
            CtrlNode::If {
                port,
                tbranch,
                fbranch,
                ..
            } => {
                self.cands.remove(flat, n);
                let branch = if values[port.index()] != 0 {
                    *tbranch
                } else {
                    *fbranch
                };
                if self.start(flat, branch) {
                    self.finish(flat, n);
                }
            }
            CtrlNode::While { port, body, .. } => {
                if values[port.index()] == 0 {
                    self.cands.remove(flat, n);
                    self.finish(flat, n);
                } else if !self.start(flat, *body) {
                    self.cands.remove(flat, n);
                }
                // An empty body: the condition is evaluated again next
                // cycle, and the loop stays a candidate.
            }
            CtrlNode::Empty | CtrlNode::Seq { .. } | CtrlNode::Par { .. } => {
                unreachable!("only enables and conditions wait")
            }
        }
    }

    /// Node `n` finished: walk up from it until an ancestor has more to
    /// do, starting what comes next, or a root finishes.
    fn finish(&mut self, flat: &FlatDesign, mut n: CtrlIdx) {
        loop {
            let Some(p) = flat.ctrl_parent[n] else {
                self.phases[self.root_of[n.index()] as usize] = Phase::Done;
                return;
            };
            match &flat.ctrl[p] {
                CtrlNode::Seq { children } => {
                    let pos = self.rt.seq_pos[p.index()] as usize;
                    debug_assert_eq!(children[pos], n);
                    for (i, &c) in children.iter().enumerate().skip(pos + 1) {
                        if !self.start(flat, c) {
                            self.rt.seq_pos[p.index()] = i as u32;
                            return;
                        }
                    }
                }
                CtrlNode::Par { .. } => {
                    self.rt.pending[p.index()] -= 1;
                    if self.rt.pending[p.index()] > 0 {
                        return;
                    }
                }
                // The branch taken finished, and so did the `if`.
                CtrlNode::If { .. } => {}
                CtrlNode::While { cond, .. } => {
                    self.cands.add(flat, p, *cond, false);
                    return;
                }
                CtrlNode::Empty | CtrlNode::Enable { .. } => unreachable!("a leaf has no children"),
            }
            n = p;
        }
    }
}

/// The reference interpreter: the harness run by [`Interp`].
pub type Interpreter = Harness<Interp>;

/// The engine of a component hierarchy: the control walk over every
/// instance's tree.
pub struct Interp {
    trees: Trees,
    /// The cycles run since construction.
    cycles: u64,
    /// The groups whose `go` port is high.
    active: Vec<GroupIdx>,
    /// Whether `active` is every candidate's group: set by an activation
    /// that held no enable back, cleared when the candidates change.
    all_active: bool,
    /// Scratch: the groups to run this cycle.
    survivors: Vec<GroupIdx>,
    /// Scratch of [`Interp::activate`], all false between calls.
    wanted: Vec<bool>,
    /// Scratch: the candidates that fired this cycle.
    fired: Vec<CtrlIdx>,
}

/// Whether component `name`'s own wires drive its `done` port, which the
/// interpreter drives for a sub-instance: `Some` with where the source
/// map places the first such assignment (` at line:col`, or nothing).
fn drives_own_done(ctx: &Context, name: Id) -> Option<String> {
    let comp = ctx.component(name)?;
    let done = PortRef::this(Id::DONE);
    let find = |asgns: &[Assignment]| asgns.iter().position(|a| a.dst == done);
    let continuous = find(&comp.continuous).map(|i| (None, i));
    let mut groups = comp.groups.iter();
    let (group, index) = continuous
        .or_else(|| groups.find_map(|g| find(&g.assignments).map(|i| (Some(g.name), i))))?;
    let loc = ctx.sources.assignment(name, group, index);
    Some(loc.map_or(String::new(), |l| format!(" at {}:{}", l.line, l.col)))
}

/// The driver rule of the language definition: drivers that agree are one
/// driver, and a value is not cut to its port's width.
struct Agree;

impl DriverRule for Agree {
    #[inline]
    fn conflict(held: u64, next: u64) -> bool {
        held != next
    }

    #[inline]
    fn shown(value: u64, _width: u32) -> u64 {
        value
    }
}

impl Engine for Interp {
    /// # Errors
    ///
    /// [`SimError::Elaboration`] when a sub-component's wires drive its
    /// own `done`.
    fn new(ctx: &Context, flat: &FlatDesign) -> SimResult<Self> {
        for inst in &flat.prog.instances[1..] {
            if let Some(at) = drives_own_done(ctx, inst.component) {
                return Err(SimError::Elaboration(format!(
                    "instance `{}` of `{}` drives its own `done`{at}, which the interpreter \
                     raises when its control finishes",
                    inst.prefix.trim_end_matches('.'),
                    inst.component
                )));
            }
        }
        let n_ctrl = flat.ctrl.len();
        let mut root_of = vec![u32::MAX; n_ctrl];
        for (i, inst) in flat.prog.instances.iter().enumerate() {
            root_of[inst.root.index()] = i as u32;
        }
        let mut trees = Trees {
            rt: CtrlRuntime::new(n_ctrl),
            cands: Candidates {
                list: Vec::new(),
                at: vec![NOT_WAITING; n_ctrl],
                unstated: 0,
            },
            phases: vec![Phase::Idle; flat.prog.instances.len()],
            root_of,
        };
        // The top's `go` is held high for the whole run: its tree starts
        // now.
        trees.phases[0] = if trees.start(flat, flat.prog.instances[0].root) {
            Phase::Done
        } else {
            Phase::Running
        };
        Ok(Interp {
            trees,
            cycles: 0,
            active: Vec::new(),
            all_active: false,
            survivors: Vec::new(),
            wanted: vec![false; flat.groups.len()],
            fired: Vec::new(),
        })
    }

    /// A run goes on from the cycles already run, and is over once the
    /// top's control tree has finished.
    fn begin(&self) -> (u64, bool) {
        (self.cycles, self.trees.phases[0] == Phase::Done)
    }

    /// Settle, tick state, and move the control trees on what finished.
    fn step(&mut self, flat: &mut FlatDesign, wires: &mut Wires, cycle: u64) -> SimResult<bool> {
        // 1. Candidate groups this cycle: enabled groups plus the `with`
        //    condition groups currently being evaluated, as the trees
        //    last moved.
        wires.publish(&flat.prog, &flat.graph);

        // 2. An enabled group that has run and whose done signal is
        //    already observable with no group active (a registered done
        //    from last cycle's write) must not execute again during its
        //    done-observation cycle — this mirrors the `!done` protection
        //    in the compiled FSMs. A group runs at least its first cycle,
        //    whatever its done reads then: a constant done, or the pulse
        //    of a write that an earlier group made. Condition groups are
        //    exempt: they are combinational and stay active for the whole
        //    evaluation phase. When every candidate's done condition reads
        //    state alone, it is known without settling the wires under no
        //    group first.
        if self.trees.cands.unstated > 0 {
            self.activate(flat, wires, &[]);
            self.all_active = false;
            wires.settle::<Agree>(&flat.prog, &flat.graph, cycle)?;
        }
        let mut survivors = std::mem::take(&mut self.survivors);
        survivors.clear();
        let mut held_back = false;
        // Whether a candidate may fire at the end of the cycle: an enable
        // that has run and whose done condition reads state alone is done
        // after the settle exactly when it is now, so only a held-back
        // one can.
        let mut may_fire = self.trees.cands.unstated > 0;
        for c in &mut self.trees.cands.list {
            let held = c.enable && c.ran;
            match c.group {
                Some(g) if held && group_done(flat, wires.values(), g) => held_back = true,
                Some(g) => survivors.push(g),
                None => {}
            }
            may_fire |= !held;
            c.ran = true;
        }
        may_fire |= held_back;

        // 3. Settle combinational values with the surviving groups. The
        //    `go` ports already raised are these unless an enable was
        //    held back or the candidates changed.
        if held_back || !self.all_active {
            self.activate(flat, wires, &survivors);
            self.all_active = !held_back;
        }
        self.survivors = survivors;
        wires.settle::<Agree>(&flat.prog, &flat.graph, cycle)?;

        // 4. Synchronous update.
        wires.tick(&mut flat.prog, &flat.graph)?;

        // 5. Move the control trees and the sub-instances' handshakes on
        //    this cycle's observations.
        self.advance(flat, wires, may_fire);
        self.cycles = cycle + 1;
        Ok(self.trees.phases[0] == Phase::Done)
    }
}

impl Harness<Interp> {
    /// What the control trees ask of the next cycle, each list sorted.
    pub fn waiting(&self) -> Waiting {
        self.engine.trees.cands.waiting()
    }

    /// Whether the top's control tree has finished.
    pub fn finished(&self) -> bool {
        self.engine.trees.phases[0] == Phase::Done
    }

    /// The cycles run so far.
    pub fn cycles(&self) -> u64 {
        self.engine.cycles
    }

    /// Execute one cycle: [`Harness::run`] is this until the top's tree
    /// finishes.
    ///
    /// # Errors
    ///
    /// Those of [`Engine::step`].
    pub fn step(&mut self) -> SimResult<()> {
        let cycle = self.engine.cycles;
        self.engine.step(&mut self.flat, &mut self.wires, cycle)?;
        Ok(())
    }
}

impl Interp {
    /// The end of a cycle for the control trees. Each candidate whose
    /// group finished, and each condition without a `with` group, fires;
    /// the walk goes up from it. None is looked at unless one `may_fire`.
    /// A sub-instance's `done` shows its phase from the next cycle on.
    fn advance(&mut self, flat: &FlatDesign, wires: &mut Wires, may_fire: bool) {
        let Interp { trees, fired, .. } = self;
        let instances = &flat.prog.instances;
        let go = |wires: &Wires, inst: &FlatInstance| wires.values()[inst.go.index()] != 0;
        // Before any tree moves: a `done` raised by a tree finishing now is
        // seen for at least the next cycle, whatever `go` did in this one.
        for (inst, phase) in instances.iter().zip(trees.phases.iter_mut()).skip(1) {
            if *phase == Phase::Done && !go(wires, inst) {
                *phase = Phase::Idle;
            }
        }
        // Which candidates finished: each done condition reads the stored
        // value of its guard, which this cycle's settle left final.
        fired.clear();
        if may_fire {
            for c in &trees.cands.list {
                if c.group.is_none_or(|g| group_settled_done(flat, wires, g)) {
                    fired.push(c.node);
                }
            }
        }
        for &n in fired.iter() {
            trees.fire(flat, n, wires.values());
        }
        let mut started = false;
        for (i, inst) in instances.iter().enumerate().skip(1) {
            if trees.phases[i] == Phase::Idle && go(wires, inst) {
                started = true;
                trees.phases[i] = if trees.start(flat, inst.root) {
                    Phase::Done
                } else {
                    Phase::Running
                };
            }
            wires.set(
                &flat.graph,
                inst.done,
                u64::from(trees.phases[i] == Phase::Done),
            );
        }
        if started || !fired.is_empty() {
            self.all_active = false;
        }
    }

    /// Make `want` the active groups: lower the `go` of every other
    /// group, raise theirs.
    #[inline]
    fn activate(&mut self, flat: &FlatDesign, wires: &mut Wires, want: &[GroupIdx]) {
        for &g in want {
            self.wanted[g.index()] = true;
        }
        for &g in self.active.iter().filter(|g| !self.wanted[g.index()]) {
            wires.set(&flat.graph, flat.groups[g].go, 0);
        }
        for &g in want {
            self.wanted[g.index()] = false;
            wires.set(&flat.graph, flat.groups[g].go, 1);
        }
        self.active.clear();
        self.active.extend_from_slice(want);
    }
}

/// Group `g`'s done condition, each guard walked over `values`: before a
/// settle, when the stored guard values are not yet this cycle's.
#[inline]
fn group_done(flat: &FlatDesign, values: &[u64], g: GroupIdx) -> bool {
    let guards = &flat.prog.guards;
    let mut writes = flat.groups[g].done_writes.iter();
    writes.any(|&(guard, src)| eval_guard(guards, guard, values) && eval_atom(src, values) != 0)
}

/// Group `g`'s done condition after a settle: every interned guard is a
/// node of the graph, so its stored value is final.
#[inline]
fn group_settled_done(flat: &FlatDesign, wires: &Wires, g: GroupIdx) -> bool {
    let values = wires.values();
    let mut writes = flat.groups[g].done_writes.iter();
    writes.any(|&(guard, src)| wires.guard(&flat.graph, guard) && eval_atom(src, values) != 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flatten::flatten;
    use calyx_core::ir::parse_context;

    fn interp(src: &str) -> Interpreter {
        let ctx = parse_context(src).unwrap();
        Interpreter::new(&ctx, "main").unwrap()
    }

    #[test]
    fn seq_of_register_writes() {
        let mut i = interp(
            r#"component main() -> () {
              cells { x = std_reg(32); }
              wires {
                group one { x.in = 32'd1; x.write_en = 1'd1; one[done] = x.done; }
                group two { x.in = 32'd2; x.write_en = 1'd1; two[done] = x.done; }
              }
              control { seq { one; two; } }
            }"#,
        );
        let stats = i.run(100).unwrap();
        assert_eq!(i.register_value("x").unwrap(), 2);
        // Each group: 1 write cycle + 1 done-observation cycle.
        assert_eq!(stats.cycles, 4);
    }

    #[test]
    fn while_loop_semantics() {
        let mut i = interp(
            r#"component main() -> () {
              cells { i = std_reg(8); lt = std_lt(8); add = std_add(8); }
              wires {
                group cond { lt.left = i.out; lt.right = 8'd7; cond[done] = 1'd1; }
                group incr {
                  add.left = i.out; add.right = 8'd1;
                  i.in = add.out; i.write_en = 1'd1;
                  incr[done] = i.done;
                }
              }
              control { while lt.out with cond { incr; } }
            }"#,
        );
        i.run(1000).unwrap();
        assert_eq!(i.register_value("i").unwrap(), 7);
    }

    #[test]
    fn par_and_if_semantics() {
        let mut i = interp(
            r#"component main() -> () {
              cells {
                a = std_reg(8); b = std_reg(8); r = std_reg(8);
                gt = std_gt(8);
              }
              wires {
                group wa { a.in = 8'd11; a.write_en = 1'd1; wa[done] = a.done; }
                group wb { b.in = 8'd4; b.write_en = 1'd1; wb[done] = b.done; }
                group cmp {
                  gt.left = a.out; gt.right = b.out;
                  cmp[done] = 1'd1;
                }
                group t { r.in = a.out; r.write_en = 1'd1; t[done] = r.done; }
                group f { r.in = b.out; r.write_en = 1'd1; f[done] = r.done; }
              }
              control {
                seq {
                  par { wa; wb; }
                  if gt.out with cmp { t; } else { f; }
                }
              }
            }"#,
        );
        i.run(100).unwrap();
        assert_eq!(i.register_value("r").unwrap(), 11, "max(11, 4)");
    }

    #[test]
    fn multiplier_latency_respected() {
        let mut i = interp(
            r#"component main() -> () {
              cells { mul = std_mult_pipe(16); r = std_reg(16); }
              wires {
                group m {
                  mul.left = 16'd9; mul.right = 16'd5;
                  mul.go = !mul.done ? 1'd1;
                  r.in = mul.out; r.write_en = mul.done ? 1'd1;
                  m[done] = r.done;
                }
              }
              control { m; }
            }"#,
        );
        let stats = i.run(100).unwrap();
        assert_eq!(i.register_value("r").unwrap(), 45);
        assert!(stats.cycles >= 5);
    }

    #[test]
    fn memory_initialization_and_readback() {
        let mut i = interp(
            r#"component main() -> () {
              cells { m = std_mem_d1(8, 4, 2); r = std_reg(8); }
              wires {
                group rd {
                  m.addr0 = 2'd3;
                  r.in = m.read_data; r.write_en = 1'd1;
                  rd[done] = r.done;
                }
                group wr {
                  m.addr0 = 2'd0; m.write_data = r.out; m.write_en = 1'd1;
                  wr[done] = m.done;
                }
              }
              control { seq { rd; wr; } }
            }"#,
        );
        i.set_memory("m", &[0, 0, 0, 77]).unwrap();
        i.run(100).unwrap();
        assert_eq!(i.memory("m").unwrap(), vec![77, 0, 0, 77]);
    }

    /// What a sequence of steps leaves behind: how the last run ended
    /// (its cycle count or its error's text), then the registers and the
    /// memories asked for.
    type Outcome = (Result<u64, String>, Vec<u64>, Vec<Vec<u64>>);

    enum Step {
        Run(u64),
        Memory(&'static str, &'static [u64]),
    }

    /// This engine's outcome on `src`: apply `steps` in order.
    fn flat_outcome(src: &str, regs: &[&str], mems: &[&str], steps: &[Step]) -> Outcome {
        let mut interp = interp(src);
        let mut last = Ok(0);
        for step in steps {
            match *step {
                Step::Run(budget) => {
                    last = interp
                        .run(budget)
                        .map(|s| s.cycles)
                        .map_err(|e| e.to_string())
                }
                Step::Memory(m, data) => interp.set_memory(m, data).unwrap(),
            }
        }
        let regs = regs.iter().map(|&r| interp.register_value(r).unwrap());
        let mems = mems.iter().map(|&m| interp.memory(m).unwrap());
        (last, regs.collect(), mems.collect())
    }

    /// One run to completion, registers only.
    fn run_outcome(src: &str, regs: &[&str]) -> (Result<u64, String>, Vec<u64>) {
        let (last, regs, _) = flat_outcome(src, regs, &[], &[Step::Run(100)]);
        (last, regs)
    }

    fn conflict(port: &str, cycle: u64) -> String {
        let port = port.to_string();
        SimError::DriverConflict { port, cycle }.to_string()
    }

    #[test]
    fn groups_may_wire_shared_cells_in_opposite_orders() {
        // `g1` feeds `a` into `b`, `g2` feeds `b` into `a`: the graph over
        // all groups is cyclic, no set of active groups is. The RTL
        // engine rejects the same wiring (`combinational_loops_rejected`).
        let src = r#"component main() -> () {
              cells { a = std_add(8); b = std_add(8); x = std_reg(8); y = std_reg(8); }
              wires {
                group g1 {
                  a.left = 8'd1; a.right = 8'd2; b.left = a.out; b.right = 8'd3;
                  x.in = b.out; x.write_en = 1'd1; g1[done] = x.done;
                }
                group g2 {
                  b.left = 8'd4; b.right = 8'd5; a.left = b.out; a.right = 8'd6;
                  y.in = a.out; y.write_en = 1'd1; g2[done] = y.done;
                }
              }
              control { seq { g1; g2; } }
            }"#;
        assert_eq!(run_outcome(src, &["x", "y"]), (Ok(4), vec![6, 15]));
        let flat = flatten(&parse_context(src).unwrap(), "main").unwrap();
        assert!(flat.graph.tail_start < flat.graph.nodes.len());
    }

    #[test]
    fn a_port_the_last_group_drove_reads_zero() {
        // `second` reads `add.out` and drives only `add.right`: `add.left`,
        // which `first` drove with 5, is back at zero.
        let src = r#"component main() -> () {
              cells { add = std_add(8); x = std_reg(8); y = std_reg(8); }
              wires {
                group first {
                  add.left = 8'd5; add.right = 8'd1;
                  x.in = add.out; x.write_en = 1'd1; first[done] = x.done;
                }
                group second {
                  add.right = 8'd2;
                  y.in = add.out; y.write_en = 1'd1; second[done] = y.done;
                }
              }
              control { seq { first; second; } }
            }"#;
        assert_eq!(run_outcome(src, &["x", "y"]), (Ok(4), vec![6, 2]));
    }

    #[test]
    fn an_active_loop_that_oscillates_does_not_converge() {
        // `spin` closes `n.in = n.out` through an inverter, two cycles
        // after `first` started: `x` is written, `y` never.
        let src = r#"component main() -> () {
              cells { n = std_not(1); x = std_reg(8); y = std_reg(1); }
              wires {
                group first { x.in = 8'd7; x.write_en = 1'd1; first[done] = x.done; }
                group spin {
                  n.in = n.out;
                  y.in = n.out; y.write_en = 1'd1; spin[done] = y.done;
                }
              }
              control { seq { first; spin; } }
            }"#;
        let diverged = "combinational loop through: fixpoint did not converge in component `main`";
        assert_eq!(
            run_outcome(src, &["x", "y"]),
            (Err(diverged.to_string()), vec![7, 0])
        );
    }

    #[test]
    fn an_active_loop_that_converges_latches() {
        // `o` feeds its own output back: set in cycle 0 through `o.right`,
        // it holds 1 after the set falls, while `hold` stays active. `x`
        // samples it in cycle 2.
        let src = r#"component main() -> () {
              cells { o = std_or(1); c = std_reg(2); add = std_add(2); x = std_reg(1); }
              wires {
                group hold {
                  o.left = o.out; o.right = c.out == 2'd0 ? 1'd1;
                  add.left = c.out; add.right = 2'd1; c.in = add.out; c.write_en = 1'd1;
                  x.in = o.out; x.write_en = c.out == 2'd2 ? 1'd1; hold[done] = x.done;
                }
              }
              control { hold; }
            }"#;
        assert_eq!(run_outcome(src, &["x", "c"]), (Ok(4), vec![1, 3]));
        // The RTL engine (`-b sim`) rejects the same loop once lowered.
        let mut lowered = parse_context(src).unwrap();
        let mut pipeline = calyx_core::passes::PassManager::from_names(&["lower"]).unwrap();
        pipeline.run(&mut lowered).unwrap();
        let err = crate::rtl::Simulator::new(&lowered, "main").unwrap_err();
        let msg = err.to_string();
        assert!(msg.starts_with("combinational loop through: "), "{msg}");
    }

    #[test]
    fn active_drivers_may_agree_but_not_differ() {
        let program = |second: u64| {
            format!(
                r#"component main() -> () {{
                  cells {{ x = std_reg(8); y = std_reg(8); w = std_wire(8); }}
                  wires {{
                    group first {{ y.in = 8'd1; y.write_en = 1'd1; first[done] = y.done; }}
                    group a {{ w.in = 8'd3; x.in = w.out; x.write_en = 1'd1; a[done] = x.done; }}
                    group b {{ w.in = 8'd{second}; y.in = 8'd2; y.write_en = 1'd1; b[done] = y.done; }}
                  }}
                  control {{ seq {{ first; par {{ a; b; }} }} }}
                }}"#
            )
        };
        assert_eq!(run_outcome(&program(3), &["x", "y"]), (Ok(4), vec![3, 2]));
        let differ = program(4);
        let clash = conflict("w.in", 2);
        assert_eq!(
            run_outcome(&differ, &["x", "y"]),
            (Err(clash.clone()), vec![0, 1])
        );
        // The conflicting node stays dirty: asking again reports it again
        // rather than a stale value.
        let steps = [Step::Run(100), Step::Run(100)];
        let (last, ..) = flat_outcome(&differ, &[], &[], &steps);
        assert_eq!(last, Err(clash));
    }

    #[test]
    fn drivers_in_a_cyclic_region_are_compared_once_it_is_stable() {
        // `g1` and `g2` both drive `w.in`, with 3 + 4 and !248: equal.
        // `g3` and `g4` wire `a` and `n` into a structural cycle, so
        // `w.in` sits in the graph's tail, ahead of both cells. When the
        // `par` starts it is evaluated against what the cells showed with
        // every group off, 0 and !0, before they are; that must not count
        // as a conflict.
        let src = r#"component main() -> () {
              cells { a = std_add(8); n = std_not(8); w = std_wire(8); x = std_reg(8); y = std_reg(8); }
              wires {
                group g1 {
                  w.in = a.out; a.left = 8'd3; a.right = 8'd4;
                  x.in = w.out; x.write_en = 1'd1; g1[done] = x.done;
                }
                group g2 { w.in = n.out; n.in = 8'd248; y.in = 8'd1; y.write_en = 1'd1; g2[done] = y.done; }
                group g3 { a.left = n.out; y.in = a.out; y.write_en = 1'd1; g3[done] = y.done; }
                group g4 { n.in = a.out; y.in = n.out; y.write_en = 1'd1; g4[done] = y.done; }
              }
              control { seq { g3; par { g1; g2; } g4; } }
            }"#;
        let flat = flatten(&parse_context(src).unwrap(), "main").unwrap();
        assert!(flat.graph.tail_start < flat.graph.nodes.len());
        assert_eq!(run_outcome(src, &["x", "y"]), (Ok(6), vec![7, 255]));
    }

    #[test]
    fn two_conflicts_in_one_cycle_name_the_first_in_node_order() {
        // `v.in` and `w.in` are both doubly driven in cycle 0. Which is
        // named depends on the sorted order alone: `v.in`. The fixpoint
        // named the port whose second driver came first in assignment
        // order, `w.in` (this engine at commit a1a6131, probed once).
        let src = r#"component main() -> () {
              cells { v = std_wire(8); w = std_wire(8); x = std_reg(8); }
              wires {
                group a { w.in = 8'd1; v.in = 8'd1; x.in = 8'd1; x.write_en = 1'd1; a[done] = x.done; }
                group b { w.in = 8'd2; v.in = 8'd2; b[done] = x.done; }
              }
              control { par { a; b; } }
            }"#;
        let (last, ..) = flat_outcome(src, &[], &[], &[Step::Run(100)]);
        assert_eq!(last, Err(conflict("v.in", 0)));
    }

    #[test]
    fn done_over_a_wire_the_group_drives_is_seen_with_the_group_off() {
        // `wired`'s done condition reads `w.out`, which only `wired`
        // itself drives: with no group active it is low whatever `x.done`
        // says, so `wired` runs a second cycle (`n` = 2) and is done in
        // it. `registered`'s reads state alone, is observed with no group
        // active the cycle after the write, and does not run then (`n` =
        // 1). One group on each side of `FlatGroup::done_from_state`.
        let program = |done: &str| {
            format!(
                r#"component main() -> () {{
                  cells {{ x = std_reg(8); w = std_wire(1); n = std_reg(8); inc = std_add(8); }}
                  wires {{
                    group g {{
                      inc.left = n.out; inc.right = 8'd1; n.in = inc.out; n.write_en = 1'd1;
                      x.in = 8'd9; x.write_en = 1'd1; w.in = x.done;
                      g[done] = {done};
                    }}
                  }}
                  control {{ g; }}
                }}"#
            )
        };
        let flat = |src: &str| flatten(&parse_context(src).unwrap(), "main").unwrap();
        let registered = program("x.done");
        assert!(flat(&registered).groups.iter().all(|g| g.done_from_state));
        assert_eq!(run_outcome(&registered, &["x", "n"]), (Ok(2), vec![9, 1]));
        let wired = program("w.out");
        assert!(flat(&wired).groups.iter().all(|g| !g.done_from_state));
        assert_eq!(run_outcome(&wired, &["x", "n"]), (Ok(2), vec![9, 2]));
    }

    /// A group runs at least its first cycle whatever its done reads
    /// then: one whose done is a constant, enabled twice, runs twice, one
    /// cycle each, as its lowered design does.
    #[test]
    fn a_constant_done_group_runs_one_cycle_each_time_it_is_enabled() {
        let src = r#"component main() -> () {
              cells { i = std_reg(8); add = std_add(8); }
              wires {
                group incr {
                  add.left = i.out; add.right = 8'd1; i.in = add.out; i.write_en = 1'd1;
                  incr[done] = 1'd1;
                }
              }
              control { seq { incr; incr; } }
            }"#;
        assert_eq!(run_outcome(src, &["i"]), (Ok(2), vec![2]));
    }

    #[test]
    fn par_children_finish_on_different_cycles() {
        let src = r#"component main() -> () {
              cells { mul = std_mult_pipe(8); p = std_reg(8); q = std_reg(8); r = std_reg(8); }
              wires {
                group slow {
                  mul.left = 8'd6; mul.right = 8'd7; mul.go = !mul.done ? 1'd1;
                  p.in = mul.out; p.write_en = mul.done ? 1'd1; slow[done] = p.done;
                }
                group fast { q.in = 8'd1; q.write_en = 1'd1; fast[done] = q.done; }
                group after { r.in = q.out; r.write_en = 1'd1; after[done] = r.done; }
              }
              control { seq { par { slow; seq { fast; after; } } } }
            }"#;
        let (last, regs) = run_outcome(src, &["p", "q", "r"]);
        assert_eq!(regs, vec![42, 1, 1]);
        assert_eq!(last, Ok(6));
    }

    #[test]
    fn a_new_image_between_runs_is_read_under_an_unchanged_address() {
        // `copy` holds `m.addr0` at 0 from the first cycle on; the first
        // run stops at its budget, so only `set_memory` itself can wake
        // the read port before the second.
        let src = r#"component main() -> () {
              cells { m = std_mem_d1(8, 1, 1); r = std_reg(8); c = std_reg(2); add = std_add(2); lt = std_lt(2); }
              wires {
                group cond { lt.left = c.out; lt.right = 2'd3; cond[done] = 1'd1; }
                group copy {
                  m.addr0 = 1'd0; r.in = m.read_data; r.write_en = 1'd1;
                  add.left = c.out; add.right = 2'd1; c.in = add.out; c.write_en = 1'd1;
                  copy[done] = r.done;
                }
              }
              control { while lt.out with cond { copy; } }
            }"#;
        let steps = [
            Step::Memory("m", &[5]),
            Step::Run(2),
            Step::Memory("m", &[9]),
            Step::Run(100),
        ];
        let (last, regs, mems) = flat_outcome(src, &["r"], &["m"], &steps);
        assert_eq!((last, regs, mems), (Ok(10), vec![9], vec![vec![9]]));
    }

    #[test]
    fn a_guard_is_tested_on_final_inputs_only() {
        // `!c.out` and `d.out` are exclusive once settled, but `d.out`
        // rises before `c.out` (which sits behind `c0`): a fixpoint that
        // tested guards on inputs not yet final would see both drivers of
        // `x.in` active and report a conflict that no settled valuation
        // contains.
        let src = r#"component main() -> () {
              cells { c0 = std_wire(1); c = std_wire(1); d = std_wire(1); x = std_reg(8); }
              wires {
                group g {
                  c0.in = 1'd1; c.in = c0.out; d.in = 1'd1;
                  x.in = !c.out ? 8'd1; x.in = d.out ? 8'd2;
                  x.write_en = 1'd1; g[done] = x.done;
                }
              }
              control { g; }
            }"#;
        let steps = [Step::Run(100)];
        let (last, regs, _) = flat_outcome(src, &["x"], &[], &steps);
        assert_eq!((last, regs), (Ok(2), vec![2]));
    }

    /// The cycles `src` takes on this engine and, lowered, on the RTL
    /// engine, with the registers `regs` it leaves, which must be the same
    /// on both.
    fn on_both_engines(src: &str, regs: &[&str]) -> ((u64, u64), Vec<u64>) {
        fn on<E: Engine>(ctx: &Context, regs: &[&str]) -> (u64, Vec<u64>) {
            let mut harness = Harness::<E>::new(ctx, "main").unwrap();
            let cycles = harness.run(1000).unwrap().cycles;
            let left = regs.iter().map(|&r| harness.register_value(r).unwrap());
            (cycles, left.collect())
        }
        let (cycles, left) = on::<Interp>(&parse_context(src).unwrap(), regs);
        let mut lowered = parse_context(src).unwrap();
        let mut pipeline = calyx_core::passes::PassManager::from_names(&["lower"]).unwrap();
        pipeline.run(&mut lowered).unwrap();
        let (rtl_cycles, rtl_left) = on::<crate::rtl::Rtl>(&lowered, regs);
        assert_eq!(rtl_left, left, "the lowered design leaves other registers");
        ((cycles, rtl_cycles), left)
    }

    #[test]
    fn a_while_without_a_with_group_samples_a_register_each_time_round() {
        // `more` is the loop condition itself, rewritten by `check` at the
        // end of each iteration: no group computes it while the loop is in
        // its condition phase, which lasts one cycle per test.
        let src = r#"component main() -> () {
              cells { more = std_reg(1); n = std_reg(4); add = std_add(4); lt = std_lt(4); }
              wires {
                group init { more.in = 1'd1; more.write_en = 1'd1; init[done] = more.done; }
                group incr {
                  add.left = n.out; add.right = 4'd1; n.in = add.out; n.write_en = 1'd1;
                  incr[done] = n.done;
                }
                group check {
                  lt.left = n.out; lt.right = 4'd3; more.in = lt.out; more.write_en = 1'd1;
                  check[done] = more.done;
                }
              }
              control { seq { init; while more.out { seq { incr; check; } } } }
            }"#;
        // `init` 2 cycles, three rounds of 1 + 2 + 2, the exit test 1.
        assert_eq!(on_both_engines(src, &["more", "n"]), ((18, 19), vec![0, 3]));
    }

    #[test]
    fn an_if_without_a_with_group_samples_a_continuously_driven_comparison() {
        // `gt` is driven outside every group, so it follows `a.out` on
        // every cycle, the one the `if` samples in among them.
        let program = |a: u8| {
            format!(
                r#"component main() -> () {{
                  cells {{ a = std_reg(8); gt = std_gt(8); r = std_reg(8); }}
                  wires {{
                    gt.left = a.out; gt.right = 8'd5;
                    group wa {{ a.in = 8'd{a}; a.write_en = 1'd1; wa[done] = a.done; }}
                    group t {{ r.in = 8'd1; r.write_en = 1'd1; t[done] = r.done; }}
                    group f {{ r.in = 8'd2; r.write_en = 1'd1; f[done] = r.done; }}
                  }}
                  control {{ seq {{ wa; if gt.out {{ t; }} else {{ f; }} }} }}
                }}"#
            )
        };
        // `wa` 2 cycles, the test 1, the branch 2.
        assert_eq!(on_both_engines(&program(9), &["r"]), ((5, 5), vec![1]));
        assert_eq!(on_both_engines(&program(3), &["r"]), ((5, 5), vec![2]));
    }

    /// `main` runs `control` over `invoke`, which starts instance `c` of
    /// `child` and is done when `c` is.
    fn calling(child: &str, control: &str) -> String {
        format!(
            r#"component child() -> () {{ {child} }}
            component main() -> () {{
              cells {{ c = child(); flag = std_reg(8); }}
              wires {{
                group invoke {{ c.go = 1'd1; invoke[done] = c.done; }}
                group after {{ flag.in = 8'd1; flag.write_en = 1'd1; after[done] = flag.done; }}
              }}
              control {{ {control} }}
            }}"#
        )
    }

    #[test]
    fn an_empty_child_is_done_the_cycle_after_its_go() {
        // Cycle 0 ends with `c.go` high: the empty tree starts and
        // finishes. Cycle 1 sees `c.done`, so `invoke` is done.
        let src = calling("cells {} wires {} control {}", "invoke;");
        assert_eq!(run_outcome(&src, &["flag"]), (Ok(2), vec![0]));
    }

    #[test]
    fn a_child_runs_its_control_between_go_and_done() {
        // `invoke` 1 cycle to start `c`, `w` 2, `c.done` seen 1; `after` 2.
        let child = r#"cells { r = std_reg(8); }
              wires { group w { r.in = 8'd9; r.write_en = 1'd1; w[done] = r.done; } }
              control { w; }"#;
        let src = calling(child, "seq { invoke; after; }");
        assert_eq!(
            on_both_engines(&src, &["c.r", "flag"]),
            ((6, 5), vec![9, 1])
        );
        let flat = flatten(&parse_context(&src).unwrap(), "main").unwrap();
        let named = |g: GroupIdx| flat.prog.port_name(flat.groups[g].go);
        let names: Vec<String> = flat.groups.keys().map(named).collect();
        assert_eq!(names, ["c.w[go]", "invoke[go]", "after[go]"]);
    }

    #[test]
    fn a_later_go_restarts_a_finished_child() {
        // `c.done` falls once a cycle ends with `c.go` low, which the
        // done-observation cycle of the first `invoke` is: the second
        // `invoke` starts `c` again.
        let child = r#"cells { r = std_reg(8); add = std_add(8); }
              wires {
                group incr {
                  add.left = r.out; add.right = 8'd1; r.in = add.out; r.write_en = 1'd1;
                  incr[done] = r.done;
                }
              }
              control { incr; }"#;
        let src = calling(child, "seq { invoke; invoke; }");
        assert_eq!(on_both_engines(&src, &["c.r"]), ((8, 5), vec![2]));
    }

    #[test]
    fn a_child_that_drives_its_own_done_is_refused() {
        let child = r#"cells { r = std_reg(1); }
              wires { r.in = 1'd1; r.write_en = 1'd1; done = r.done ? 1'd1; }
              control {}"#;
        let ctx = parse_context(&calling(child, "invoke;")).unwrap();
        let err = Interpreter::new(&ctx, "main").err().unwrap().to_string();
        assert_eq!(
            err,
            "elaboration failed: instance `c` of `child` drives its own `done` at 2:55, \
             which the interpreter raises when its control finishes"
        );
    }

    #[test]
    fn a_finished_tree_runs_no_further_cycle() {
        // The count goes on from construction: a second run of a finished
        // tree reports the first run's cycles and changes nothing.
        let mut i = interp(
            r#"component main() -> () {
              cells { x = std_reg(8); add = std_add(8); }
              wires {
                group incr {
                  add.left = x.out; add.right = 8'd1; x.in = add.out; x.write_en = 1'd1;
                  incr[done] = x.done;
                }
              }
              control { incr; }
            }"#,
        );
        assert_eq!(i.run(100).map(|s| s.cycles), Ok(2));
        assert_eq!(i.run(100).map(|s| s.cycles), Ok(2));
        assert_eq!((i.cycles(), i.register_value("x")), (2, Ok(1)));
    }

    #[test]
    fn empty_control_finishes_immediately() {
        let mut i = interp("component main() -> () { cells {} wires {} control {} }");
        let stats = i.run(10).unwrap();
        assert_eq!(stats.cycles, 0);
    }

    #[test]
    fn register_lookup_rejects_combinational_cells() {
        let i = interp(
            r#"component main() -> () {
              cells { add = std_add(8); }
              wires {}
              control {}
            }"#,
        );
        let text = |e: SimError| e.to_string();
        assert_eq!(
            i.register_value("add").map_err(text),
            Err("cell `add` is not a register".to_string())
        );
        assert_eq!(
            i.register_value("nope").map_err(text),
            Err("no such cell: `nope`".to_string())
        );
    }

    #[test]
    fn a_lookup_of_the_wrong_kind_names_the_cell_and_the_kind() {
        let mut i = interp(
            r#"component main() -> () {
              cells { add = std_add(8); r = std_reg(8); m = std_mem_d1(8, 1, 1); }
              wires {}
              control {}
            }"#,
        );
        let text = |e: SimError| e.to_string();
        assert_eq!(
            i.register_value("m").map_err(text),
            Err("cell `m` is not a register".to_string())
        );
        assert_eq!(
            i.memory("r").map_err(text),
            Err("cell `r` is not a memory".to_string())
        );
        assert_eq!(
            i.set_memory("add", &[1]).map_err(text),
            Err("cell `add` is not a memory".to_string())
        );
    }
}
