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
//! Two things are the interpreter's own. Its driver rule (`Agree`): two
//! active drivers of one port conflict only when their values differ. And
//! its graph may be cyclic: groups that are never active together may
//! wire the same cells in opposite orders (`resource-sharing` produces
//! this), so what the sort could not place is swept until it is stable,
//! and only a loop that is *active* and does not converge is an error.
//!
//! The observable semantics — cycle counts, final state, error cases —
//! are those of the tree-walking interpreter this one replaced, pinned by
//! outcome: the tests below assert exact cycles, values and error texts,
//! and `sim_state_pinned` holds the cycles and final state of every
//! PolyBench kernel, recorded from that engine. Two differences are
//! deliberate. Its fixpoint tested a guard against ports that were not
//! final yet, so a guard only transiently true could raise a spurious
//! conflict or leave its value on a port; here a guard is tested on final
//! inputs only. And since values persist, an active loop that converges —
//! a latch, which the `comb-cycle` lint reports and the RTL engine
//! rejects — holds its value from cycle to cycle while its group stays
//! active, where that fixpoint re-derived it from zero each cycle.
//!
//! This is the semantic oracle for the compiler: after lowering, the RTL
//! simulation must leave the same architectural state (registers and
//! memories) as this interpreter, even though cycle counts differ. The
//! differential tests in `tests/` rely on exactly that.
//!
//! Limitations (by design — the RTL engine covers the rest): programs must
//! be single-component (no component-typed cells).

use crate::error::{SimError, SimResult};
use crate::flatten::{
    eval_atom, eval_guard, flatten_control, CellIdx, CtrlIdx, CtrlNode, DriverRule, FlatControl,
    FlatIdx, GroupIdx, IndexedMap, RunStats, Wires,
};
use calyx_core::ir::{Context, Id};

/// Per-node runtime state of the flattened control tree. Indexed by
/// [`CtrlIdx`]; each field is meaningful only for the node kinds that use
/// it (sequence position for `seq`, condition phase and branch choice for
/// `if`/`while`, completion flags for `par` children).
struct CtrlRuntime {
    seq_pos: Vec<u32>,
    in_cond: Vec<bool>,
    taken: Vec<bool>,
    finished: Vec<bool>,
}

impl CtrlRuntime {
    fn new(n: usize) -> Self {
        CtrlRuntime {
            seq_pos: vec![0; n],
            in_cond: vec![false; n],
            taken: vec![false; n],
            finished: vec![false; n],
        }
    }
}

/// (Re-)enter a node. Returns true when the node is immediately done —
/// the flat equivalent of the tree interpreter's `init` producing `Done`.
fn ctrl_start(ctrl: &IndexedMap<CtrlIdx, CtrlNode>, rt: &mut CtrlRuntime, n: CtrlIdx) -> bool {
    match &ctrl[n] {
        CtrlNode::Empty => true,
        CtrlNode::Enable { .. } => false,
        CtrlNode::Seq { children } => {
            for (i, &c) in children.iter().enumerate() {
                if !ctrl_start(ctrl, rt, c) {
                    rt.seq_pos[n.index()] = i as u32;
                    return false;
                }
            }
            true
        }
        CtrlNode::Par { children } => {
            let mut all = true;
            for &c in children {
                let done = ctrl_start(ctrl, rt, c);
                rt.finished[c.index()] = done;
                all &= done;
            }
            all
        }
        CtrlNode::If { .. } | CtrlNode::While { .. } => {
            rt.in_cond[n.index()] = true;
            false
        }
    }
}

/// Groups active during the cycle for this node, split into ordinary
/// enables and `with` condition groups.
fn ctrl_collect(
    ctrl: &IndexedMap<CtrlIdx, CtrlNode>,
    rt: &CtrlRuntime,
    n: CtrlIdx,
    enables: &mut Vec<GroupIdx>,
    conds: &mut Vec<GroupIdx>,
) {
    match &ctrl[n] {
        CtrlNode::Empty => {}
        CtrlNode::Enable { group } => enables.push(*group),
        CtrlNode::Seq { children } => {
            ctrl_collect(
                ctrl,
                rt,
                children[rt.seq_pos[n.index()] as usize],
                enables,
                conds,
            );
        }
        CtrlNode::Par { children } => {
            for &c in children {
                if !rt.finished[c.index()] {
                    ctrl_collect(ctrl, rt, c, enables, conds);
                }
            }
        }
        CtrlNode::If {
            cond,
            tbranch,
            fbranch,
            ..
        } => {
            if rt.in_cond[n.index()] {
                if let Some(c) = cond {
                    conds.push(*c);
                }
            } else {
                let branch = if rt.taken[n.index()] {
                    *tbranch
                } else {
                    *fbranch
                };
                ctrl_collect(ctrl, rt, branch, enables, conds);
            }
        }
        CtrlNode::While { cond, body, .. } => {
            if rt.in_cond[n.index()] {
                if let Some(c) = cond {
                    conds.push(*c);
                }
            } else {
                ctrl_collect(ctrl, rt, *body, enables, conds);
            }
        }
    }
}

/// Advance a node by one cycle given this cycle's observations. Returns
/// true when the node finished.
fn ctrl_advance(
    ctrl: &IndexedMap<CtrlIdx, CtrlNode>,
    rt: &mut CtrlRuntime,
    n: CtrlIdx,
    done_groups: &[bool],
    values: &[u64],
) -> bool {
    match &ctrl[n] {
        CtrlNode::Empty => true,
        CtrlNode::Enable { group } => done_groups[group.index()],
        CtrlNode::Seq { children } => {
            let pos = rt.seq_pos[n.index()] as usize;
            if !ctrl_advance(ctrl, rt, children[pos], done_groups, values) {
                return false;
            }
            for (i, &c) in children.iter().enumerate().skip(pos + 1) {
                if !ctrl_start(ctrl, rt, c) {
                    rt.seq_pos[n.index()] = i as u32;
                    return false;
                }
            }
            true
        }
        CtrlNode::Par { children } => {
            let mut all = true;
            for &c in children {
                if rt.finished[c.index()] {
                    continue;
                }
                if ctrl_advance(ctrl, rt, c, done_groups, values) {
                    rt.finished[c.index()] = true;
                } else {
                    all = false;
                }
            }
            all
        }
        CtrlNode::If {
            port,
            cond,
            tbranch,
            fbranch,
        } => {
            if rt.in_cond[n.index()] {
                let cond_finished = match cond {
                    Some(c) => done_groups[c.index()],
                    None => true,
                };
                if !cond_finished {
                    return false;
                }
                let taken = values[port.index()] != 0;
                rt.taken[n.index()] = taken;
                let branch = if taken { *tbranch } else { *fbranch };
                if ctrl_start(ctrl, rt, branch) {
                    true
                } else {
                    rt.in_cond[n.index()] = false;
                    false
                }
            } else {
                let branch = if rt.taken[n.index()] {
                    *tbranch
                } else {
                    *fbranch
                };
                ctrl_advance(ctrl, rt, branch, done_groups, values)
            }
        }
        CtrlNode::While { port, cond, body } => {
            if rt.in_cond[n.index()] {
                let cond_finished = match cond {
                    Some(c) => done_groups[c.index()],
                    None => true,
                };
                if !cond_finished {
                    return false;
                }
                if values[port.index()] != 0 {
                    // Empty body: immediately re-evaluate next cycle.
                    if !ctrl_start(ctrl, rt, *body) {
                        rt.in_cond[n.index()] = false;
                    }
                    false
                } else {
                    true
                }
            } else if ctrl_advance(ctrl, rt, *body, done_groups, values) {
                rt.in_cond[n.index()] = true;
                false
            } else {
                false
            }
        }
    }
}

/// The interpreter for one component.
pub struct Interpreter {
    flat: FlatControl,
    wires: Wires,
    rt: CtrlRuntime,
    root_done: bool,
    cycles: u64,
    enables: Vec<GroupIdx>,
    conds: Vec<GroupIdx>,
    /// The groups whose `go` port is high.
    active: Vec<GroupIdx>,
    /// Scratch: the groups to run this cycle.
    survivors: Vec<GroupIdx>,
    /// Scratch of [`Interpreter::activate`], all false between calls.
    wanted: Vec<bool>,
    done_flags: Vec<bool>,
}

/// The driver rule of the language definition: drivers that agree are one
/// driver, and a value is not cut to its port's width (an undeclared port
/// has none).
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

impl Interpreter {
    /// Build an interpreter for component `top` of `ctx`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Elaboration`] when the component instantiates
    /// other components or uses unmodeled primitives.
    pub fn new(ctx: &Context, top: &str) -> SimResult<Self> {
        let flat = flatten_control(ctx, top)?;
        let n_groups = flat.groups.len();
        let mut rt = CtrlRuntime::new(flat.ctrl.len());
        let root_done = ctrl_start(&flat.ctrl, &mut rt, flat.root);
        let mut wires = Wires::new(&flat.prog, &flat.graph);
        // `go` is held high for the whole run.
        wires.set(&flat.graph, flat.go, 1);
        Ok(Interpreter {
            wires,
            rt,
            root_done,
            cycles: 0,
            enables: Vec::new(),
            conds: Vec::new(),
            active: Vec::new(),
            survivors: Vec::new(),
            wanted: vec![false; n_groups],
            done_flags: vec![false; n_groups],
            flat,
        })
    }

    fn cell(&self, cell: &str) -> SimResult<CellIdx> {
        self.flat
            .cell_index
            .get(&Id::new(cell))
            .copied()
            .ok_or_else(|| unknown(cell))
    }

    /// Initialize a memory's contents.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownCell`] when `cell` is not a memory and
    /// [`SimError::OutOfBounds`] when `data` is longer than the memory.
    pub fn set_memory(&mut self, cell: &str, data: &[u64]) -> SimResult<()> {
        let ci = self.cell(cell)?;
        // A read port may show a new word under an unchanged address.
        self.wires.mark_all(&self.flat.graph);
        self.flat
            .prog
            .set_memory(ci, data)
            .unwrap_or_else(|| Err(unknown(cell)))
    }

    /// Read a memory's contents.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownCell`] when `cell` is not a memory.
    pub fn memory(&self, cell: &str) -> SimResult<Vec<u64>> {
        let data = self.flat.prog.memory(self.cell(cell)?);
        data.map(<[u64]>::to_vec).ok_or_else(|| unknown(cell))
    }

    /// Read a register.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownCell`] when `cell` is not a register.
    pub fn register_value(&self, cell: &str) -> SimResult<u64> {
        let val = self.flat.prog.register_value(self.cell(cell)?);
        val.ok_or_else(|| unknown(cell))
    }

    /// Run the control program to completion.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Timeout`] past the cycle budget, driver-conflict
    /// and convergence errors from settling.
    pub fn run(&mut self, max_cycles: u64) -> SimResult<RunStats> {
        while !self.root_done {
            if self.cycles >= max_cycles {
                return Err(SimError::Timeout { max_cycles });
            }
            self.step()?;
        }
        Ok(RunStats {
            cycles: self.cycles,
        })
    }

    /// Execute one cycle: settle, advance the control tree, tick state.
    fn step(&mut self) -> SimResult<()> {
        // 1. Candidate groups this cycle: enabled groups plus the `with`
        //    condition groups currently being evaluated.
        let mut enables = std::mem::take(&mut self.enables);
        let mut conds = std::mem::take(&mut self.conds);
        enables.clear();
        conds.clear();
        ctrl_collect(
            &self.flat.ctrl,
            &self.rt,
            self.flat.root,
            &mut enables,
            &mut conds,
        );
        self.wires.publish(&self.flat.prog, &self.flat.graph);

        // 2. An enabled group whose done signal is already observable with
        //    no group active (a registered done from last cycle's write)
        //    must not execute again during its done-observation cycle —
        //    this mirrors the `!done` protection in the compiled FSMs.
        //    Condition groups are exempt: they are combinational and stay
        //    active for the whole evaluation phase. When every candidate's
        //    done condition reads state alone, it is known without
        //    settling the wires under no group first.
        if !enables.iter().all(|&g| self.flat.groups[g].done_from_state) {
            self.activate(&[]);
            self.wires
                .settle::<Agree>(&self.flat.prog, &self.flat.graph, self.cycles)?;
        }
        let mut survivors = std::mem::take(&mut self.survivors);
        survivors.clear();
        survivors.extend(enables.iter().filter(|&&g| !self.group_done(g)));
        survivors.extend_from_slice(&conds);

        // 3. Settle combinational values with the surviving groups.
        self.activate(&survivors);
        self.wires
            .settle::<Agree>(&self.flat.prog, &self.flat.graph, self.cycles)?;

        // 4. Which candidate groups finished this cycle?
        self.done_flags.fill(false);
        for &g in enables.iter().chain(conds.iter()) {
            if self.group_done(g) {
                self.done_flags[g.index()] = true;
            }
        }

        // 5. Synchronous update.
        self.wires.tick(&mut self.flat.prog, &self.flat.graph)?;

        // 6. Advance the control tree using this cycle's observations.
        self.root_done = ctrl_advance(
            &self.flat.ctrl,
            &mut self.rt,
            self.flat.root,
            &self.done_flags,
            self.wires.values(),
        );
        self.cycles += 1;

        self.enables = enables;
        self.conds = conds;
        self.survivors = survivors;
        Ok(())
    }

    /// Does group `g`'s done condition hold under the current values? Its
    /// atoms must be final: stateful outputs once published, anything
    /// else once settled.
    fn group_done(&self, g: GroupIdx) -> bool {
        let guards = &self.flat.prog.guards;
        let values = self.wires.values();
        let mut writes = self.flat.groups[g].done_writes.iter();
        writes.any(|&(guard, src)| eval_guard(guards, guard, values) && eval_atom(src, values) != 0)
    }

    /// Make `want` the active groups: lower the `go` of every other
    /// group, raise theirs.
    fn activate(&mut self, want: &[GroupIdx]) {
        let Interpreter {
            flat,
            wires,
            active,
            wanted,
            ..
        } = self;
        for &g in want {
            wanted[g.index()] = true;
        }
        for &g in active.iter().filter(|g| !wanted[g.index()]) {
            wires.set(&flat.graph, flat.groups[g].go, 0);
        }
        for &g in want {
            wanted[g.index()] = false;
            wires.set(&flat.graph, flat.groups[g].go, 1);
        }
        active.clear();
        active.extend_from_slice(want);
    }
}

/// The lookup error for a name that is no cell, or no cell of the kind
/// asked for.
fn unknown(cell: &str) -> SimError {
    SimError::UnknownCell(cell.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let regs = regs.iter().map(|r| interp.register_value(r).unwrap());
        let mems = mems.iter().map(|m| interp.memory(m).unwrap());
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
        let flat = flatten_control(&parse_context(src).unwrap(), "main").unwrap();
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
        calyx_core::passes::lower_pipeline()
            .run(&mut lowered)
            .unwrap();
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
        let flat = flatten_control(&parse_context(src).unwrap(), "main").unwrap();
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
        let flat = |src: &str| flatten_control(&parse_context(src).unwrap(), "main").unwrap();
        let registered = program("x.done");
        assert!(flat(&registered).groups.iter().all(|g| g.done_from_state));
        assert_eq!(run_outcome(&registered, &["x", "n"]), (Ok(2), vec![9, 1]));
        let wired = program("w.out");
        assert!(flat(&wired).groups.iter().all(|g| !g.done_from_state));
        assert_eq!(run_outcome(&wired, &["x", "n"]), (Ok(2), vec![9, 2]));
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

    #[test]
    fn rejects_component_instances() {
        let ctx = parse_context(
            r#"
            component child() -> () { cells {} wires {} control {} }
            component main() -> () {
              cells { c = child(); }
              wires {}
              control {}
            }"#,
        )
        .unwrap();
        assert!(matches!(
            Interpreter::new(&ctx, "main"),
            Err(SimError::Elaboration(_))
        ));
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
        assert!(matches!(
            i.register_value("add"),
            Err(SimError::UnknownCell(_))
        ));
    }
}
