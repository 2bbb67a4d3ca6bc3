//! Cycle-accurate simulation of lowered Calyx programs.
//!
//! The engine flattens a lowered [`Context`] — every component a flat
//! list of guarded assignments — through [`crate::flatten`] into dense
//! arenas and an evaluation graph:
//!
//! - subcomponent instances are elaborated *in place*: a cell's ports and
//!   the inner component's `this` ports are the same arena slots, so
//!   hierarchy costs nothing at simulation time;
//! - all assignments driving the same port form one *driver node*; every
//!   interned guard, every combinational primitive and every memory read
//!   function is a node of its own;
//! - nodes are topologically sorted once, and the graph that was sorted
//!   is kept: for each port, guard and memory, the nodes that read it.
//!
//! A simulated cycle evaluates **only what changed**. Port values and
//! guard values persist from cycle to cycle. A cycle starts by publishing
//! the outputs of the stateful primitives the last tick touched; each one
//! that differs from last cycle marks its readers dirty, as does each
//! memory the last tick wrote. The settle then visits the dirty nodes in
//! sorted order, and a node marks its own readers only when its output
//! differs from the stored one. Readers sit later in the order than what
//! they read, so one ascending scan of the dirty set reaches a fixpoint,
//! and a node runs at most once per cycle. Lowering stamps `fsm.out == k`
//! on every assignment of FSM state `k`; those comparisons are
//! re-evaluated when `fsm.out` moves, but only the two that flip wake the
//! assignments behind them. A synchronous tick ends the cycle: it looks at
//! the stateful primitives only (never a combinational cell) and latches
//! only the *armed* ones — a register whose `write_en` is high, a `done`
//! pulse that must fall, a unit that is started or counting — which it
//! queues for the next publish.
//!
//! Keeping values is sound because every port has one writer: IR
//! validation admits assignments only to a cell's inputs and the
//! component's outputs, so a stateful output is written by `publish`
//! alone, a combinational output by its cell's node alone, and anything
//! else by its one driver node.
//!
//! Unique-driver violations (two active guards on one port) and
//! combinational loops are detected and reported as errors, mirroring what
//! Verilator would flag in the emitted SystemVerilog. A conflict can only
//! appear at a node one of whose guards just changed, which is a dirty
//! node. In builds with debug assertions (the test profile among them)
//! every settle is followed by a full publish and a full re-evaluation
//! that must change nothing, so each simulation test also checks the
//! dirty set and the queue of touched cells.
//! What the engine computes is pinned by outcome: the tests below assert
//! exact cycles, values and error texts, and `sim_state_pinned` holds the
//! cycles and state of every PolyBench kernel under `lower`,
//! `lower-static` and `opt`, recorded from the engine this one replaced.
//!
//! The valuation and the scan are [`Wires`], which the interpreter runs
//! on too. What is this engine's own: it takes a lowered design, rejects
//! a cyclic graph when it is built, drives `go` and watches `done`, and
//! holds that two active drivers of one port conflict whatever they drive
//! (`Strict`).

use crate::error::{SimError, SimResult};
use crate::flatten::{flatten_design, CellIdx, DriverRule, FlatDesign, FlatIdx, RunStats, Wires};
use calyx_core::ir::Context;
use calyx_core::prim::mask;

/// A cycle-accurate simulator instance.
///
/// See the crate docs for an end-to-end example; typical use is
/// `Simulator::new(&lowered_ctx, "main")`, optional [`Simulator::set_memory`]
/// calls, [`Simulator::run`], then state inspection.
#[derive(Debug)]
pub struct Simulator {
    flat: FlatDesign,
    wires: Wires,
}

/// The driver rule of synthesizable hardware: one active driver per port,
/// and a port shows as many bits as it has.
struct Strict;

impl DriverRule for Strict {
    #[inline]
    fn conflict(_held: u64, _next: u64) -> bool {
        true
    }

    #[inline]
    fn shown(value: u64, width: u32) -> u64 {
        mask(value, width)
    }
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
        let mut wires = Wires::new(&flat.prog, &flat.graph);
        // `go` is held high for the whole run.
        wires.set(&flat.graph, flat.top_go, 1);
        Ok(Simulator { flat, wires })
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
        let value = mask(value, self.flat.prog.ports[idx].width);
        self.wires.set(&self.flat.graph, idx, value);
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
    /// Returns [`SimError::UnknownCell`] when `path` names no cell,
    /// [`SimError::WrongKind`] when it names one that is not a memory, and
    /// [`SimError::OutOfBounds`] when `data` is longer than the memory.
    pub fn set_memory(&mut self, path: &[&str], data: &[u64]) -> SimResult<()> {
        let idx = self.prim_idx(path)?;
        // A read port may show a new word under an unchanged address.
        self.wires.mark_all(&self.flat.graph);
        self.flat
            .prog
            .set_memory(idx, data)
            .unwrap_or_else(|| Err(not_a("memory", path)))
    }

    /// Read back a memory cell's contents.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownCell`] when `path` names no cell and
    /// [`SimError::WrongKind`] when it names one that is not a memory.
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
    /// Returns [`SimError::UnknownCell`] when `path` names no cell and
    /// [`SimError::WrongKind`] when it names one that is not a register.
    pub fn register_value(&self, path: &[&str]) -> SimResult<u64> {
        let idx = self.prim_idx(path)?;
        let val = self.flat.prog.register_value(idx);
        val.ok_or_else(|| not_a("register", path))
    }

    /// Number of primitive instances (used by compilation statistics).
    pub fn primitive_count(&self) -> usize {
        self.flat.prog.cells.len()
    }

    /// Settle one cycle: publish the stateful outputs, then visit what
    /// they woke. Returns the `done` port's value.
    fn settle(&mut self, cycle: u64) -> SimResult<bool> {
        let Simulator { flat, wires } = self;
        wires.publish(&flat.prog, &flat.graph);
        wires.settle::<Strict>(&flat.prog, &flat.graph, cycle)?;
        Ok(wires.values()[flat.top_done.index()] != 0)
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
            let done = self.settle(cycle)?;
            self.wires.tick(&mut self.flat.prog, &self.flat.graph)?;
            if done {
                return Ok(RunStats { cycles: cycle + 1 });
            }
        }
        Err(SimError::Timeout { max_cycles })
    }
}

/// The lookup error for a cell that exists but is not a `what`.
fn not_a(what: &'static str, path: &[&str]) -> SimError {
    SimError::WrongKind {
        cell: path.join("."),
        expected: what,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calyx_core::ir::parse_context;
    use calyx_core::passes::PassManager;

    fn lower_and_sim(src: &str) -> Simulator {
        let mut ctx = parse_context(src).unwrap();
        let mut pipeline = PassManager::from_names(&["lower"]).unwrap();
        pipeline.run(&mut ctx).unwrap();
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
        assert_eq!(
            err.to_string(),
            "multiple drivers active on `w.in` at cycle 0"
        );
    }

    /// What a run leaves behind, or its error's text.
    type Outcome = Result<(u64, Vec<u64>), String>;

    /// This engine's outcome on the flat (already lowered) `src`: apply
    /// `steps` in order, then the cycles of the last run and the values
    /// of `regs`.
    fn flat_outcome(src: &str, regs: &[&str], steps: &[Step]) -> Outcome {
        let mut sim = Simulator::new(&parse_context(src).unwrap(), "main").unwrap();
        let mut cycles = Ok(0);
        for step in steps {
            match *step {
                Step::Run => cycles = sim.run(100).map(|s| s.cycles),
                Step::Memory(m, data) => sim.set_memory(&[m], data).unwrap(),
                Step::Input(p, v) => sim.set_input(p, v).unwrap(),
            }
        }
        let regs = regs.iter().map(|r| sim.register_value(&[r]).unwrap());
        let regs: Vec<u64> = regs.collect();
        cycles.map_err(|e| e.to_string()).map(|c| (c, regs))
    }

    enum Step {
        Run,
        Memory(&'static str, &'static [u64]),
        Input(&'static str, u64),
    }

    /// A free-running 2-bit cycle counter `c`, for guards that pick a cycle.
    const CLOCK: &str = "add.left = c.out; add.right = 2'd1; c.in = add.out; c.write_en = 1'd1;";

    #[test]
    fn overwritten_word_under_a_fixed_address_is_read_next_cycle() {
        // Cycle 0 stores 7 at address 0; cycle 1 latches `read_data`.
        // `addr0` never moves, so only the tick's report of the write can
        // wake the read port.
        let src = format!(
            r#"component main() -> () {{
              cells {{ c = std_reg(2); add = std_add(2); m = std_mem_d1(8, 2, 1); r = std_reg(8); }}
              wires {{
                {CLOCK}
                m.addr0 = 1'd0; m.write_data = 8'd7;
                m.write_en = c.out == 2'd0 ? 1'd1;
                r.in = m.read_data; r.write_en = c.out == 2'd1 ? 1'd1;
                done = c.out == 2'd2 ? 1'd1;
              }}
              control {{}}
            }}"#
        );
        assert_eq!(flat_outcome(&src, &["r"], &[Step::Run]), Ok((3, vec![7])));
    }

    #[test]
    fn conflict_that_arises_late_is_reported_at_its_cycle() {
        // Both drivers of `w.in` wake only once `c` reaches 2, one through
        // a comparison guard and one through a combinational cell.
        let src = format!(
            r#"component main() -> () {{
              cells {{ c = std_reg(2); add = std_add(2); ge = std_ge(2); w = std_wire(8); }}
              wires {{
                {CLOCK}
                ge.left = c.out; ge.right = 2'd2;
                w.in = c.out == 2'd2 ? 8'd1;
                w.in = ge.out ? 8'd2;
                done = c.out == 2'd3 ? 1'd1;
              }}
              control {{}}
            }}"#
        );
        let conflict = SimError::DriverConflict {
            port: "w.in".to_string(),
            cycle: 2,
        };
        assert_eq!(
            flat_outcome(&src, &[], &[Step::Run]),
            Err(conflict.to_string())
        );
        // The conflicting node stays dirty: asking again reports it again
        // (as cycle 0 of the new run) rather than a stale value.
        let mut sim = Simulator::new(&parse_context(&src).unwrap(), "main").unwrap();
        assert_eq!(sim.run(100), Err(conflict));
        assert!(matches!(
            sim.run(100),
            Err(SimError::DriverConflict { cycle: 0, .. })
        ));
    }

    #[test]
    fn two_conflicts_in_one_cycle_name_the_same_port_as_before() {
        // `a.in` and `b.in` both become doubly driven in cycle 1. Which
        // is named depends on the sorted order alone. `b.in` is what the
        // engine named before guards were nodes (probed once, at commit
        // 23f839f).
        let src = format!(
            r#"component main() -> () {{
              cells {{ c = std_reg(2); add = std_add(2); a = std_wire(8); b = std_wire(8); }}
              wires {{
                {CLOCK}
                a.in = c.out == 2'd1 ? 8'd1;
                a.in = c.out != 2'd0 ? 8'd2;
                b.in = c.out == 2'd1 ? 8'd3;
                b.in = c.out != 2'd0 ? 8'd4;
                done = c.out == 2'd3 ? 1'd1;
              }}
              control {{}}
            }}"#
        );
        let conflict = SimError::DriverConflict {
            port: "b.in".to_string(),
            cycle: 1,
        };
        assert_eq!(
            flat_outcome(&src, &[], &[Step::Run]),
            Err(conflict.to_string())
        );
    }

    #[test]
    fn second_run_sees_a_new_image_and_a_new_input() {
        // Neither `m.addr0` nor any register moves between the two runs:
        // only `set_memory` and `set_input` themselves can wake `r.in`
        // and `s.in`.
        let src = r#"component main(x: 8) -> () {
              cells { m = std_mem_d1(8, 1, 1); r = std_reg(8); s = std_reg(8); }
              wires {
                m.addr0 = 1'd0;
                r.in = m.read_data; r.write_en = !r.done ? 1'd1;
                s.in = x; s.write_en = 1'd1;
                done = r.done ? 1'd1;
              }
              control {}
            }"#;
        let first = [Step::Memory("m", &[5]), Step::Input("x", 3), Step::Run];
        assert_eq!(flat_outcome(src, &["r", "s"], &first), Ok((2, vec![5, 3])));
        let both = [
            Step::Memory("m", &[5]),
            Step::Input("x", 3),
            Step::Run,
            Step::Memory("m", &[9]),
            Step::Input("x", 4),
            Step::Run,
        ];
        assert_eq!(flat_outcome(src, &["r", "s"], &both), Ok((2, vec![9, 4])));
    }

    #[test]
    fn unit_done_pulse_falls_back_to_zero() {
        // `mul.go` is high in cycle 0 only; `n` counts the cycles in
        // which `mul.done` is seen high. A stored 1 that nothing
        // overwrites would keep it counting.
        let src = r#"component main() -> () {
              cells {
                mul = std_mult_pipe(8); st = std_reg(1);
                n = std_reg(4); inc = std_add(4);
                t = std_reg(4); tick = std_add(4);
              }
              wires {
                mul.left = 8'd6; mul.right = 8'd7;
                mul.go = !st.out ? 1'd1;
                st.in = 1'd1; st.write_en = 1'd1;
                inc.left = n.out; inc.right = 4'd1;
                n.in = inc.out; n.write_en = mul.done ? 1'd1;
                tick.left = t.out; tick.right = 4'd1;
                t.in = tick.out; t.write_en = 1'd1;
                done = t.out == 4'd10 ? 1'd1;
              }
              control {}
            }"#;
        assert_eq!(flat_outcome(src, &["n"], &[Step::Run]), Ok((11, vec![1])));
    }

    #[test]
    fn a_settled_cycle_leaves_nothing_dirty() {
        let mut sim = lower_and_sim(
            r#"component main() -> () {
              cells { x = std_reg(8); }
              wires { group g { x.in = 8'd1; x.write_en = 1'd1; g[done] = x.done; } }
              control { g; }
            }"#,
        );
        // Before the first cycle every node is dirty, and only nodes.
        assert_eq!(sim.wires.dirty_count(), sim.flat.graph.nodes.len());
        sim.settle(0).unwrap();
        assert_eq!(sim.wires.dirty_count(), 0);
    }

    #[test]
    fn a_quiescent_cycle_queues_nothing_to_publish() {
        // `r` and `st` are written in cycle 0 only, and their `done`
        // pulses fall in cycle 1; from then on nothing is armed.
        let src = r#"component main() -> () {
              cells { r = std_reg(8); st = std_reg(1); add = std_add(8); }
              wires {
                r.in = 8'd7; r.write_en = !st.out ? 1'd1;
                st.in = 1'd1; st.write_en = !st.out ? 1'd1;
                add.left = r.out; add.right = 8'd1;
                done = st.out ? 1'd1;
              }
              control {}
            }"#;
        let mut sim = Simulator::new(&parse_context(src).unwrap(), "main").unwrap();
        // Before the first cycle every stateful cell is queued, and only
        // those.
        assert_eq!(sim.wires.moved_count(), 2);
        let mut queued = Vec::new();
        for cycle in 0..4 {
            sim.settle(cycle).unwrap();
            sim.wires.tick(&mut sim.flat.prog, &sim.flat.graph).unwrap();
            queued.push(sim.wires.moved_count());
        }
        assert_eq!(queued, [2, 2, 0, 0]);
        assert_eq!(sim.register_value(&["r"]), Ok(7));
    }

    #[test]
    fn a_lookup_of_the_wrong_kind_names_the_cell_and_the_kind() {
        let src = r#"component main() -> () {
              cells { add = std_add(8); r = std_reg(8); m = std_mem_d1(8, 1, 1); }
              wires { r.in = 8'd1; r.write_en = 1'd1; done = r.done ? 1'd1; }
              control {}
            }"#;
        let mut sim = Simulator::new(&parse_context(src).unwrap(), "main").unwrap();
        let text = |r: SimResult<()>| r.unwrap_err().to_string();
        assert_eq!(
            text(sim.register_value(&["add"]).map(drop)),
            "cell `add` is not a register"
        );
        assert_eq!(
            text(sim.register_value(&["m"]).map(drop)),
            "cell `m` is not a register"
        );
        assert_eq!(
            text(sim.memory(&["r"]).map(drop)),
            "cell `r` is not a memory"
        );
        assert_eq!(
            text(sim.set_memory(&["add"], &[1])),
            "cell `add` is not a memory"
        );
        assert_eq!(
            text(sim.register_value(&["nope"]).map(drop)),
            "no such cell: `nope`"
        );
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
        let mut pipeline = PassManager::from_names(&["lower"]).unwrap();
        pipeline.run(&mut dynamic).unwrap();
        let mut dsim = Simulator::new(&dynamic, "main").unwrap();
        let dstats = dsim.run(100).unwrap();

        let mut static_ = parse_context(src).unwrap();
        let mut pipeline = PassManager::from_names(&["lower-static"]).unwrap();
        pipeline.run(&mut static_).unwrap();
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
