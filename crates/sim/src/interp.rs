//! A reference interpreter for *un-lowered* Calyx programs.
//!
//! Executes the control tree directly, the way the language definition
//! reads (paper §3.3–§3.4): an `enable` activates a group's assignments
//! until the group signals `done`; `seq` runs children in order; `par`
//! runs them concurrently; `if`/`while` evaluate their `with` group, sample
//! the condition port, and proceed. Combinational settling within a cycle
//! uses fixpoint iteration over the active assignments.
//!
//! Since the flat-IR rewrite the interpreter runs over the dense arenas of
//! [`crate::flatten`]: port valuations are a `Vec<u64>` indexed by
//! [`PortIdx`] (no `HashMap` re-hashing per read), the active assignment
//! set is a handful of contiguous ranges, and the control tree advances by
//! updating small per-node state arrays instead of cloning `Control`
//! subtrees. The observable semantics — cycle counts, final state, error
//! cases — are identical to the pre-flatten engine, which survives as
//! [`crate::legacy::interp`] and is held to byte-identical output by the
//! differential tests.
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
    eval_atom, eval_guard, flatten_control, AssignIdx, CellIdx, CtrlIdx, CtrlNode, FlatControl,
    FlatIdx, GroupIdx, IndexedMap, PortIdx, RunStats,
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
    rt: CtrlRuntime,
    root_done: bool,
    cycles: u64,
    /// Dense port valuation, reused across cycles.
    values: Vec<u64>,
    /// Per-pass unique-driver tracking: the value driven onto each port
    /// this pass, valid when the epoch matches.
    driven_val: Vec<u64>,
    driven_epoch: Vec<u64>,
    epoch: u64,
    /// Ports driven in the current pass.
    touched: Vec<PortIdx>,
    /// Scratch: the flattened active-assignment list for one settle.
    asgn_scratch: Vec<AssignIdx>,
    enables: Vec<GroupIdx>,
    conds: Vec<GroupIdx>,
    active: Vec<GroupIdx>,
    done_flags: Vec<bool>,
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
        let n_ports = flat.prog.ports.len();
        let n_groups = flat.groups.len();
        let mut rt = CtrlRuntime::new(flat.ctrl.len());
        let root_done = ctrl_start(&flat.ctrl, &mut rt, flat.root);
        Ok(Interpreter {
            rt,
            root_done,
            cycles: 0,
            values: vec![0; n_ports],
            driven_val: vec![0; n_ports],
            driven_epoch: vec![0; n_ports],
            epoch: 0,
            touched: Vec::new(),
            asgn_scratch: Vec::new(),
            enables: Vec::new(),
            conds: Vec::new(),
            active: Vec::new(),
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
        // 1. Active groups this cycle: enabled groups plus the `with`
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

        // 2. An enabled group whose done signal is already observable from
        //    state alone (a registered done from last cycle's write) must
        //    not execute again during its done-observation cycle — this
        //    mirrors the `!done` protection in the compiled FSMs. Condition
        //    groups are exempt: they are combinational and stay active for
        //    the whole evaluation phase.
        self.settle(&[])?;
        let mut active = std::mem::take(&mut self.active);
        active.clear();
        for &g in &enables {
            if !self.group_done(g) {
                active.push(g);
            }
        }
        active.extend_from_slice(&conds);

        // 3. Settle combinational values with the surviving groups.
        self.settle(&active)?;

        // 4. Which candidate groups finished this cycle?
        self.done_flags.fill(false);
        for &g in enables.iter().chain(conds.iter()) {
            if self.group_done(g) {
                self.done_flags[g.index()] = true;
            }
        }

        // 5. Synchronous update.
        self.flat.prog.tick(&self.values, |_| {})?;

        // 6. Advance the control tree using this cycle's observations.
        self.root_done = ctrl_advance(
            &self.flat.ctrl,
            &mut self.rt,
            self.flat.root,
            &self.done_flags,
            &self.values,
        );
        self.cycles += 1;

        self.enables = enables;
        self.conds = conds;
        self.active = active;
        Ok(())
    }

    /// Does group `g`'s done hole evaluate high under the settled values?
    fn group_done(&self, g: GroupIdx) -> bool {
        let prog = &self.flat.prog;
        self.flat.groups[g].done_writes.iter().any(|&ai| {
            let a = &prog.assigns[ai];
            eval_guard(&prog.guards, a.guard, &self.values) && eval_atom(a.src, &self.values) != 0
        })
    }

    /// Fixpoint settling over the active assignments, into `self.values`.
    fn settle(&mut self, active: &[GroupIdx]) -> SimResult<()> {
        // Materialize the active assignment list once per settle.
        let mut asgns = std::mem::take(&mut self.asgn_scratch);
        asgns.clear();
        asgns.extend(self.flat.continuous.iter());
        for &g in active {
            asgns.extend(self.flat.groups[g].assigns.iter());
        }

        let prog = &self.flat.prog;
        let values = &mut self.values;
        values.fill(0);

        // Stateful outputs are fixed for the cycle.
        prog.publish(values, |_| {});
        values[self.flat.go.index()] = 1;

        // Iterate until stable. The bound is generous: each pass fixes at
        // least one more port in a loop-free design.
        let budget = asgns.len() + prog.cells.len() + 8;
        let mut converged = false;
        'passes: for _ in 0..budget {
            let mut changed = false;

            // Assignments (with dynamic unique-driver checking). The
            // epoch counter replaces the per-pass `driven` map: a slot's
            // entry is valid only when its epoch matches the current pass.
            self.epoch += 1;
            self.touched.clear();
            for &ai in &asgns {
                let a = &prog.assigns[ai];
                if eval_guard(&prog.guards, a.guard, values) {
                    let v = eval_atom(a.src, values);
                    let d = a.dst.index();
                    if self.driven_epoch[d] == self.epoch {
                        if self.driven_val[d] != v {
                            self.asgn_scratch = asgns;
                            return Err(SimError::DriverConflict {
                                port: prog.ports[a.dst].path.clone(),
                                cycle: self.cycles,
                            });
                        }
                    } else {
                        self.driven_epoch[d] = self.epoch;
                        self.driven_val[d] = v;
                        self.touched.push(a.dst);
                    }
                }
            }
            for &p in &self.touched {
                let d = p.index();
                if values[d] != self.driven_val[d] {
                    values[d] = self.driven_val[d];
                    changed = true;
                }
            }

            // Combinational primitives and memory reads.
            for (cell, state) in prog.cells.iter().zip(prog.states.iter()) {
                if let Some((out, o)) = cell.comb_output(state, values) {
                    if values[out.index()] != o {
                        values[out.index()] = o;
                        changed = true;
                    }
                }
            }

            if !changed {
                converged = true;
                break 'passes;
            }
        }
        self.asgn_scratch = asgns;
        if converged {
            Ok(())
        } else {
            Err(SimError::CombinationalLoop(vec![format!(
                "fixpoint did not converge in component `{}`",
                self.flat.comp
            )]))
        }
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
