//! Cycle-accurate simulation of lowered Calyx programs.
//!
//! The engine flattens a lowered [`Context`] — every component a flat
//! list of guarded assignments — through [`crate::flatten`] into dense
//! arenas and an evaluation graph:
//!
//! - subcomponent instances are elaborated *in place*: a cell's ports and
//!   the inner component's `this` ports are the same arena slots, so
//!   hierarchy costs nothing at simulation time;
//! - all assignments driving the same port form one *driver node*;
//!   combinational primitives and memory read functions form the others;
//! - nodes are topologically sorted once; each simulated cycle is a single
//!   sweep over the sorted nodes followed by a synchronous primitive tick.
//!
//! Unique-driver violations (two active guards on one port) and
//! combinational loops are detected and reported as errors, mirroring what
//! Verilator would flag in the emitted SystemVerilog. The pre-flatten
//! implementation survives as [`crate::legacy::rtl`] and is held to
//! byte-identical output by the differential tests.

use crate::error::{SimError, SimResult};
pub use crate::flatten::RunStats;
use crate::flatten::{
    eval_atom, flatten_design, CellIdx, FlatDesign, FlatGuard, FlatIdx, GuardIdx, IndexedMap, Node,
    PortIdx,
};
use crate::prim::mask;
use calyx_core::ir::Context;
use std::collections::HashMap;

/// A cycle-accurate simulator instance.
///
/// See the crate docs for an end-to-end example; typical use is
/// `Simulator::new(&lowered_ctx, "main")`, optional [`Simulator::set_memory`]
/// calls, [`Simulator::run`], then state inspection.
#[derive(Debug)]
pub struct Simulator {
    flat: FlatDesign,
    values: Vec<u64>,
    /// Extra top-level input values to drive each cycle.
    inputs: HashMap<PortIdx, u64>,
    /// Per-guard memo: the settle epoch each guard was last evaluated in.
    /// Guards are hash-consed at flatten time, so the FSM-state comparisons
    /// lowering stamps onto every assignment of a state share one node and
    /// cost one evaluation per cycle instead of one per assignment. Sound
    /// because the topo order includes guard reads: every port a guard
    /// reads is final before any node evaluates it.
    guard_epoch: Vec<u64>,
    /// Memoized guard values, valid when the epoch matches.
    guard_val: Vec<bool>,
}

impl Simulator {
    /// Elaborate the lowered program rooted at component `top`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Elaboration`] for un-lowered input, undefined
    /// names, or unmodeled primitives; [`SimError::CombinationalLoop`] when
    /// the assignment graph is cyclic.
    pub fn new(ctx: &Context, top: &str) -> SimResult<Self> {
        let flat = flatten_design(ctx, top)?;
        let n_ports = flat.prog.ports.len();
        let n_guards = flat.prog.guards.len();
        Ok(Simulator {
            flat,
            values: vec![0; n_ports],
            inputs: HashMap::new(),
            guard_epoch: vec![0; n_guards],
            guard_val: vec![false; n_guards],
        })
    }

    /// Drive a top-level input port to `value` on every subsequent cycle.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownCell`] if `top` has no such input.
    pub fn set_input(&mut self, port: &str, value: u64) -> SimResult<()> {
        let idx = *self
            .flat
            .top_inputs
            .get(port)
            .ok_or_else(|| SimError::UnknownCell(format!("top-level input `{port}`")))?;
        self.inputs.insert(idx, value);
        Ok(())
    }

    fn prim_idx(&self, path: &[&str]) -> SimResult<CellIdx> {
        let key = path.join(".");
        self.flat
            .cell_index
            .get(&key)
            .copied()
            .ok_or(SimError::UnknownCell(key))
    }

    /// Initialize a memory cell's contents (row-major for multi-dim).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownCell`] when `path` does not name a memory
    /// and [`SimError::OutOfBounds`] when `data` is longer than the memory.
    pub fn set_memory(&mut self, path: &[&str], data: &[u64]) -> SimResult<()> {
        let idx = self.prim_idx(path)?;
        self.flat
            .prog
            .set_memory(idx, data)
            .unwrap_or_else(|| Err(not_a("memory", path)))
    }

    /// Read back a memory cell's contents.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownCell`] when `path` does not name a memory.
    pub fn memory(&self, path: &[&str]) -> SimResult<Vec<u64>> {
        let idx = self.prim_idx(path)?;
        let data = self.flat.prog.memory(idx);
        data.map(<[u64]>::to_vec)
            .ok_or_else(|| not_a("memory", path))
    }

    /// Read a register's current value.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownCell`] when `path` does not name a
    /// register.
    pub fn register_value(&self, path: &[&str]) -> SimResult<u64> {
        let idx = self.prim_idx(path)?;
        let val = self.flat.prog.register_value(idx);
        val.ok_or_else(|| not_a("register", path))
    }

    /// Number of primitive instances (used by compilation statistics).
    pub fn primitive_count(&self) -> usize {
        self.flat.prog.cells.len()
    }

    /// One combinational settling pass. Returns the `done` port's value.
    fn settle(&mut self, go: bool, cycle: u64) -> SimResult<bool> {
        let flat = &self.flat;
        let prog = &flat.prog;
        let values = &mut self.values;
        let guard_epoch = &mut self.guard_epoch;
        let guard_val = &mut self.guard_val;
        // Epochs start at 0, so `cycle + 1` invalidates the whole memo
        // without an O(guards) clear per cycle.
        let epoch = cycle + 1;
        values.fill(0);
        // Stateful outputs become visible first.
        prog.publish(values);
        values[flat.top_go.index()] = u64::from(go);
        for (&idx, &v) in &self.inputs {
            values[idx.index()] = mask(v, prog.ports[idx].width);
        }

        for node in &flat.nodes {
            match node {
                Node::Drivers { dst, asgns } => {
                    let mut driven = false;
                    let mut value = 0;
                    for a in prog.assigns.range(*asgns) {
                        if eval_guard_memo(
                            &prog.guards,
                            a.guard,
                            values,
                            epoch,
                            guard_epoch,
                            guard_val,
                        ) {
                            if driven {
                                return Err(SimError::DriverConflict {
                                    port: prog.ports[*dst].path.clone(),
                                    cycle,
                                });
                            }
                            driven = true;
                            value = eval_atom(a.src, values);
                        }
                    }
                    values[dst.index()] = mask(value, prog.ports[*dst].width);
                }
                Node::Comb(ci) | Node::MemRead(ci) => {
                    if let Some((out, v)) = prog.cells[*ci].comb_output(&prog.states[*ci], values) {
                        values[out.index()] = v;
                    }
                }
            }
        }
        Ok(values[flat.top_done.index()] != 0)
    }

    /// Run the design: assert `go`, clock until `done`, report the cycle
    /// count (the cycle in which `done` rose counts).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Timeout`] if `done` does not rise within
    /// `max_cycles`, or any settling/tick error.
    pub fn run(&mut self, max_cycles: u64) -> SimResult<RunStats> {
        for cycle in 0..max_cycles {
            let done = self.settle(true, cycle)?;
            self.flat.prog.tick(&self.values)?;
            if done {
                return Ok(RunStats { cycles: cycle + 1 });
            }
        }
        Err(SimError::Timeout { max_cycles })
    }
}

/// The lookup error for a cell that exists but is not a `what`.
fn not_a(what: &str, path: &[&str]) -> SimError {
    SimError::UnknownCell(format!("`{}` is not a {what}", path.join(".")))
}

/// Evaluate a hash-consed guard with per-settle memoization: a node whose
/// epoch stamp matches the current settle returns its cached value. Under
/// short-circuiting, untaken operands simply stay unstamped. The memo is
/// sound only because settle is a single topologically ordered sweep in
/// which every port a guard reads is final before the guard is evaluated —
/// the fixpoint interpreter must NOT reuse this.
fn eval_guard_memo(
    guards: &IndexedMap<GuardIdx, FlatGuard>,
    g: GuardIdx,
    values: &[u64],
    epoch: u64,
    guard_epoch: &mut [u64],
    guard_val: &mut [bool],
) -> bool {
    let i = g.index();
    if guard_epoch[i] == epoch {
        return guard_val[i];
    }
    let v = match guards[g] {
        FlatGuard::True => true,
        FlatGuard::Port(p) => values[p.index()] != 0,
        FlatGuard::Not(x) => !eval_guard_memo(guards, x, values, epoch, guard_epoch, guard_val),
        FlatGuard::And(a, b) => {
            eval_guard_memo(guards, a, values, epoch, guard_epoch, guard_val)
                && eval_guard_memo(guards, b, values, epoch, guard_epoch, guard_val)
        }
        FlatGuard::Or(a, b) => {
            eval_guard_memo(guards, a, values, epoch, guard_epoch, guard_val)
                || eval_guard_memo(guards, b, values, epoch, guard_epoch, guard_val)
        }
        FlatGuard::Comp(op, l, r) => op.eval(eval_atom(l, values), eval_atom(r, values)),
    };
    guard_epoch[i] = epoch;
    guard_val[i] = v;
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use calyx_core::ir::parse_context;
    use calyx_core::passes;

    fn lower_and_sim(src: &str) -> Simulator {
        let mut ctx = parse_context(src).unwrap();
        passes::lower_pipeline().run(&mut ctx).unwrap();
        Simulator::new(&ctx, "main").unwrap()
    }

    #[test]
    fn figure_2_writes_one_then_two() {
        let mut sim = lower_and_sim(
            r#"component main() -> () {
              cells { x = std_reg(32); }
              wires {
                group one { x.in = 32'd1; x.write_en = 1'd1; one[done] = x.done; }
                group two { x.in = 32'd2; x.write_en = 1'd1; two[done] = x.done; }
              }
              control { seq { one; two; } }
            }"#,
        );
        let stats = sim.run(100).unwrap();
        assert_eq!(sim.register_value(&["x"]).unwrap(), 2);
        // Two 1-cycle groups under a dynamic seq: each costs the write plus
        // the handshake, plus the final done state.
        assert!(stats.cycles >= 4 && stats.cycles <= 8, "{}", stats.cycles);
    }

    #[test]
    fn while_loop_counts_to_five() {
        let mut sim = lower_and_sim(
            r#"component main() -> () {
              cells { i = std_reg(8); lt = std_lt(8); add = std_add(8); }
              wires {
                group cond { lt.left = i.out; lt.right = 8'd5; cond[done] = 1'd1; }
                group incr {
                  add.left = i.out; add.right = 8'd1;
                  i.in = add.out; i.write_en = 1'd1;
                  incr[done] = i.done;
                }
              }
              control { while lt.out with cond { incr; } }
            }"#,
        );
        sim.run(1000).unwrap();
        assert_eq!(sim.register_value(&["i"]).unwrap(), 5);
    }

    #[test]
    fn par_runs_both_groups() {
        let mut sim = lower_and_sim(
            r#"component main() -> () {
              cells { x = std_reg(8); y = std_reg(8); }
              wires {
                group a { x.in = 8'd3; x.write_en = 1'd1; a[done] = x.done; }
                group c { y.in = 8'd4; y.write_en = 1'd1; c[done] = y.done; }
              }
              control { par { a; c; } }
            }"#,
        );
        sim.run(100).unwrap();
        assert_eq!(sim.register_value(&["x"]).unwrap(), 3);
        assert_eq!(sim.register_value(&["y"]).unwrap(), 4);
    }

    #[test]
    fn if_selects_branch_on_memory_value() {
        let src = r#"component main() -> () {
              cells {
                @external m = std_mem_d1(8, 2, 1);
                gt = std_gt(8);
                r = std_reg(8);
              }
              wires {
                group cond {
                  m.addr0 = 1'd0;
                  gt.left = m.read_data; gt.right = 8'd10;
                  cond[done] = 1'd1;
                }
                group t { r.in = 8'd1; r.write_en = 1'd1; t[done] = r.done; }
                group f { r.in = 8'd2; r.write_en = 1'd1; f[done] = r.done; }
              }
              control { if gt.out with cond { t; } else { f; } }
            }"#;
        // Taken branch.
        let mut sim = lower_and_sim(src);
        sim.set_memory(&["m"], &[20, 0]).unwrap();
        sim.run(100).unwrap();
        assert_eq!(sim.register_value(&["r"]).unwrap(), 1);
        // Untaken branch.
        let mut sim = lower_and_sim(src);
        sim.set_memory(&["m"], &[5, 0]).unwrap();
        sim.run(100).unwrap();
        assert_eq!(sim.register_value(&["r"]).unwrap(), 2);
    }

    #[test]
    fn memory_accumulation_loop() {
        // sum m[0..4] into r.
        let mut sim = lower_and_sim(
            r#"component main() -> () {
              cells {
                @external m = std_mem_d1(16, 4, 2);
                i = std_reg(2); iw = std_reg(3);
                acc = std_reg(16);
                lt = std_lt(3); addi = std_add(3); adda = std_add(16);
                sl = std_slice(3, 2);
              }
              wires {
                group cond { lt.left = iw.out; lt.right = 3'd4; cond[done] = 1'd1; }
                group load_idx {
                  sl.in = iw.out;
                  i.in = sl.out; i.write_en = 1'd1;
                  load_idx[done] = i.done;
                }
                group accum {
                  m.addr0 = i.out;
                  adda.left = acc.out; adda.right = m.read_data;
                  acc.in = adda.out; acc.write_en = 1'd1;
                  accum[done] = acc.done;
                }
                group incr {
                  addi.left = iw.out; addi.right = 3'd1;
                  iw.in = addi.out; iw.write_en = 1'd1;
                  incr[done] = iw.done;
                }
              }
              control {
                while lt.out with cond { seq { load_idx; accum; incr; } }
              }
            }"#,
        );
        sim.set_memory(&["m"], &[10, 20, 30, 40]).unwrap();
        sim.run(10_000).unwrap();
        assert_eq!(sim.register_value(&["acc"]).unwrap(), 100);
    }

    #[test]
    fn multiplier_through_control() {
        let mut sim = lower_and_sim(
            r#"component main() -> () {
              cells { mul = std_mult_pipe(16); r = std_reg(16); }
              wires {
                group do_mul {
                  mul.left = 16'd6; mul.right = 16'd7;
                  mul.go = !mul.done ? 1'd1;
                  r.in = mul.out; r.write_en = mul.done ? 1'd1;
                  do_mul[done] = r.done;
                }
              }
              control { do_mul; }
            }"#,
        );
        let stats = sim.run(100).unwrap();
        assert_eq!(sim.register_value(&["r"]).unwrap(), 42);
        assert!(stats.cycles >= 5, "multiply takes at least 5 cycles");
    }

    #[test]
    fn subcomponents_execute_via_go_done() {
        let mut sim = lower_and_sim(
            r#"
            component child() -> () {
              cells { r = std_reg(8); }
              wires {
                group w { r.in = 8'd9; r.write_en = 1'd1; w[done] = r.done; }
              }
              control { w; }
            }
            component main() -> () {
              cells { c = child(); flag = std_reg(8); }
              wires {
                group invoke {
                  c.go = 1'd1;
                  invoke[done] = c.done;
                }
                group after { flag.in = 8'd1; flag.write_en = 1'd1; after[done] = flag.done; }
              }
              control { seq { invoke; after; } }
            }"#,
        );
        sim.run(100).unwrap();
        assert_eq!(sim.register_value(&["c", "r"]).unwrap(), 9);
        assert_eq!(sim.register_value(&["flag"]).unwrap(), 1);
    }

    #[test]
    fn empty_component_finishes_immediately() {
        let mut sim = lower_and_sim("component main() -> () { cells {} wires {} control {} }");
        let stats = sim.run(10).unwrap();
        assert_eq!(stats.cycles, 1);
    }

    #[test]
    fn unlowered_program_is_rejected() {
        let ctx = parse_context(
            r#"component main() -> () {
              cells { r = std_reg(8); }
              wires { group g { r.in = 8'd1; r.write_en = 1'd1; g[done] = r.done; } }
              control { g; }
            }"#,
        )
        .unwrap();
        let err = Simulator::new(&ctx, "main").unwrap_err();
        assert!(matches!(err, SimError::Elaboration(_)));
    }

    #[test]
    fn driver_conflicts_detected() {
        let ctx = parse_context(
            r#"component main() -> () {
              cells { w = std_wire(8); }
              wires {
                w.in = 8'd1;
                w.in = 8'd2;
                done = go ? 1'd1;
              }
              control {}
            }"#,
        )
        .unwrap();
        // Two unconditional drivers would be rejected by validation, but the
        // simulator's dynamic check also catches them.
        let mut sim = Simulator::new(&ctx, "main").unwrap();
        let err = sim.run(10).unwrap_err();
        assert!(matches!(err, SimError::DriverConflict { .. }), "{err:?}");
    }

    #[test]
    fn combinational_loops_rejected() {
        let ctx = parse_context(
            r#"component main() -> () {
              cells { a = std_add(8); b = std_add(8); }
              wires {
                a.left = b.out;
                b.left = a.out;
                done = go ? 1'd1;
              }
              control {}
            }"#,
        )
        .unwrap();
        let err = Simulator::new(&ctx, "main").unwrap_err();
        assert!(matches!(err, SimError::CombinationalLoop(_)));
    }

    #[test]
    fn static_pipeline_gives_same_results_fewer_cycles() {
        let src = r#"component main() -> () {
              cells { x = std_reg(32); y = std_reg(32); }
              wires {
                group one { x.in = 32'd1; x.write_en = 1'd1; one[done] = x.done; }
                group two { y.in = 32'd2; y.write_en = 1'd1; two[done] = y.done; }
              }
              control { seq { one; two; } }
            }"#;
        let mut dynamic = parse_context(src).unwrap();
        passes::lower_pipeline().run(&mut dynamic).unwrap();
        let mut dsim = Simulator::new(&dynamic, "main").unwrap();
        let dstats = dsim.run(100).unwrap();

        let mut static_ = parse_context(src).unwrap();
        passes::lower_pipeline_static().run(&mut static_).unwrap();
        let mut ssim = Simulator::new(&static_, "main").unwrap();
        let sstats = ssim.run(100).unwrap();

        assert_eq!(dsim.register_value(&["x"]).unwrap(), 1);
        assert_eq!(ssim.register_value(&["x"]).unwrap(), 1);
        assert_eq!(dsim.register_value(&["y"]).unwrap(), 2);
        assert_eq!(ssim.register_value(&["y"]).unwrap(), 2);
        assert!(
            sstats.cycles < dstats.cycles,
            "static ({}) should beat dynamic ({})",
            sstats.cycles,
            dstats.cycles
        );
    }
}
