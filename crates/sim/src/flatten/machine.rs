//! The cycle machine: the half of a simulated cycle that does not depend
//! on which engine is running it.
//!
//! Whatever evaluates the wires, a clock cycle over a [`FlatProgram`]
//! starts and ends the same way, and the harness around it reads and
//! writes state the same way:
//!
//! 1. [`FlatProgram::publish_cell`] — each stateful primitive the last
//!    tick touched shows its outputs, and the caller hears which of them
//!    changed;
//! 2. the engine settles every other port ([`super::Wires::settle`]),
//!    calling [`FlatCell::comb_output`] for each combinational cell and
//!    memory read port whose inputs changed;
//! 3. [`FlatProgram::tick`] — every *armed* stateful primitive latches
//!    from the settled valuation, and the caller hears which cells it
//!    touched and which memories stored a word.
//!
//! Both ends skip what cannot have changed. A cell that is not armed would
//! latch to exactly the state it holds (the rule is on
//! [`FlatProgram::tick`]), so it is skipped, and a cell that was not
//! touched shows what it showed last cycle, so it need not be published
//! again. The caller keeps the list of stateful cells
//! ([`FlatProgram::stateful_cells`]) and the list of touched ones; the
//! full walk [`FlatProgram::publish`] survives only as the oracle a debug
//! build checks every settle against.
//!
//! [`FlatProgram::set_memory`], [`FlatProgram::memory`] and
//! [`FlatProgram::register_value`] are the harness's view of the same
//! state, addressed by [`CellIdx`]; each engine keeps only its own name →
//! index lookup and the wording of its lookup error.
//!
//! The functions on the per-cycle path are `#[inline]`: each is called
//! from inside an engine's per-cycle loop, which should compile with the
//! body in place rather than around a call.

use super::{CellIdx, FlatCell, FlatCellKind, FlatIdx, FlatProgram, PortIdx};
use crate::error::{SimError, SimResult};
use crate::prim::PrimState;
use calyx_core::prim::mask;

/// Result of a completed simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunStats {
    /// Clock cycles from `go` to (and including) the cycle `done` was
    /// asserted — the metric the paper reports from Verilator.
    pub cycles: u64,
}

/// The values on a memory's address ports (one per dimension, at most
/// three); only the first `addrs.len()` entries are meaningful.
#[inline]
fn address(addrs: &[PortIdx], values: &[u64]) -> [u64; 3] {
    let mut av = [0u64; 3];
    for (k, &a) in addrs.iter().enumerate() {
        av[k] = values[a.index()];
    }
    av
}

impl FlatCell {
    /// What this cell drives combinationally under `values`, given its
    /// `state`: the output port and value of a combinational operator, or
    /// a memory's `read_data` at the addressed word. `None` for registers
    /// and units, whose outputs change only on [`FlatProgram::tick`].
    #[inline]
    pub fn comb_output(&self, state: &PrimState, values: &[u64]) -> Option<(PortIdx, u64)> {
        match &self.kind {
            FlatCellKind::Comb {
                op,
                left,
                right,
                out,
                in_width,
                out_width,
            } => {
                let l = values[left.index()];
                let r = right.map(|p| values[p.index()]).unwrap_or(0);
                Some((*out, op.eval(l, r, *in_width, *out_width)))
            }
            FlatCellKind::Mem {
                addrs, read_data, ..
            } => {
                let av = address(addrs, values);
                Some((*read_data, state.mem_read(&av[..addrs.len()])))
            }
            FlatCellKind::Reg { .. } | FlatCellKind::Unit { .. } => None,
        }
    }
}

impl FlatProgram {
    /// The stateful primitives — registers, memories and units — in cell
    /// order: the only cells [`FlatProgram::tick`] and
    /// [`FlatProgram::publish_cell`] have anything to do for.
    pub fn stateful_cells(&self) -> Vec<CellIdx> {
        let comb = |ci: &CellIdx| matches!(self.cells[*ci].kind, FlatCellKind::Comb { .. });
        self.cells.keys().filter(|ci| !comb(ci)).collect()
    }

    /// Write stateful cell `ci`'s outputs (register value, unit results,
    /// the registered `done` flag) into `values`, and call `changed` with
    /// each port whose value that replaced a different one. These are
    /// fixed for the cycle; nothing the engine settles afterwards may
    /// overwrite them. Nothing to do for a combinational cell.
    ///
    /// A caller whose `values` persist from the last cycle calls this for
    /// the cells the last tick touched, and learns from `changed` what
    /// that tick altered.
    #[inline]
    pub fn publish_cell(&self, ci: CellIdx, values: &mut [u64], mut changed: impl FnMut(PortIdx)) {
        let mut show = |port: PortIdx, v: u64| {
            if std::mem::replace(&mut values[port.index()], v) != v {
                changed(port);
            }
        };
        match (&self.cells[ci].kind, &self.states[ci]) {
            (FlatCellKind::Reg { out, done, .. }, PrimState::Reg { val, done: d, .. }) => {
                show(*out, *val);
                show(*done, u64::from(*d));
            }
            (FlatCellKind::Mem { done, .. }, PrimState::Mem { done: d, .. }) => {
                show(*done, u64::from(*d));
            }
            (
                FlatCellKind::Unit {
                    out, out2, done, ..
                },
                PrimState::Unit {
                    out: o,
                    out2: o2,
                    done: d,
                    ..
                },
            ) => {
                show(*out, *o);
                if let Some(p2) = out2 {
                    show(*p2, *o2);
                }
                show(*done, u64::from(*d));
            }
            _ => {}
        }
    }

    /// [`FlatProgram::publish_cell`] for every cell: the full walk, kept
    /// as the oracle a debug build checks the change-driven publish
    /// against (once the wires settled, it must change nothing).
    #[cfg(any(test, debug_assertions))]
    pub fn publish(&self, values: &mut [u64], mut changed: impl FnMut(PortIdx)) {
        for ci in self.cells.keys() {
            self.publish_cell(ci, values, &mut changed);
        }
    }

    /// End a cycle: each *armed* cell of `stateful` latches from the
    /// settled `values` (the synchronous update). A cell is armed when
    /// latching can change its state:
    ///
    /// - a register or memory when its `write_en` is high, or its `done`
    ///   is up (the pulse must fall);
    /// - a unit when its `go` is high, it is counting down, or its `done`
    ///   is up.
    ///
    /// Any other cell latches to exactly the state it holds — no write, a
    /// `done` that stays low, an idle unit that stays idle — so it is not
    /// touched. `ticked` is called with each armed cell (its outputs may
    /// show new values next cycle), and `wrote` with each memory that
    /// stored a word: its read port may show a new value next cycle
    /// although no address port moved.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`], naming the cell's path, when a
    /// memory is written past its end. The cells before it in `stateful`
    /// have latched, and were reported to `ticked`.
    #[inline]
    pub fn tick(
        &mut self,
        stateful: &[CellIdx],
        values: &[u64],
        mut ticked: impl FnMut(CellIdx),
        mut wrote: impl FnMut(CellIdx),
    ) -> SimResult<()> {
        let FlatProgram { cells, states, .. } = self;
        for &ci in stateful {
            let state = &mut states[ci];
            match &cells[ci].kind {
                FlatCellKind::Reg {
                    input, write_en, ..
                } => {
                    let we = values[write_en.index()] != 0;
                    if !we && !state.busy() {
                        continue;
                    }
                    state.tick_reg(values[input.index()], we);
                }
                FlatCellKind::Mem {
                    addrs,
                    write_data,
                    write_en,
                    ..
                } => {
                    let we = values[write_en.index()] != 0;
                    if !we && !state.busy() {
                        continue;
                    }
                    let av = address(addrs, values);
                    let wd = values[write_data.index()];
                    state.tick_mem(&av[..addrs.len()], wd, we, &cells[ci].path)?;
                    if we {
                        wrote(ci);
                    }
                }
                FlatCellKind::Unit {
                    left, right, go, ..
                } => {
                    let g = values[go.index()] != 0;
                    if !g && !state.busy() {
                        continue;
                    }
                    state.tick_unit(values[left.index()], values[right.index()], g);
                }
                FlatCellKind::Comb { .. } => continue,
            }
            ticked(ci);
        }
        Ok(())
    }

    /// Load `data` into memory `ci` from address 0 (row-major for
    /// multi-dimensional memories), masking each word to the element
    /// width; a shorter image leaves the tail as it was. `None` when
    /// `ci` is not a memory.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] when `data` is longer than the
    /// memory.
    pub fn set_memory(&mut self, ci: CellIdx, data: &[u64]) -> Option<SimResult<()>> {
        let PrimState::Mem {
            data: storage,
            width,
            ..
        } = &mut self.states[ci]
        else {
            return None;
        };
        if data.len() > storage.len() {
            return Some(Err(SimError::OutOfBounds {
                memory: self.cells[ci].path.clone(),
                address: data.len() as u64,
                size: storage.len() as u64,
            }));
        }
        for (slot, v) in storage.iter_mut().zip(data) {
            *slot = mask(*v, *width);
        }
        Some(Ok(()))
    }

    /// The contents of memory `ci`; `None` when `ci` is not a memory.
    pub fn memory(&self, ci: CellIdx) -> Option<&[u64]> {
        match &self.states[ci] {
            PrimState::Mem { data, .. } => Some(data),
            _ => None,
        }
    }

    /// The value held by register `ci`; `None` when `ci` is not a
    /// register (combinational cells carry a placeholder register state,
    /// so the cell kind is checked too).
    pub fn register_value(&self, ci: CellIdx) -> Option<u64> {
        let is_reg = matches!(self.cells[ci].kind, FlatCellKind::Reg { .. });
        match &self.states[ci] {
            PrimState::Reg { val, .. } if is_reg => Some(*val),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flatten::flatten_control;
    use calyx_core::ir::parse_context;

    /// The machine of a component holding just `cells`, with the index of
    /// its first cell.
    fn machine(cells: &str) -> (FlatProgram, CellIdx) {
        let src =
            format!("component main() -> () {{ cells {{ {cells} }} wires {{}} control {{}} }}");
        let ctx = parse_context(&src).unwrap();
        let prog = flatten_control(&ctx, "main").unwrap().prog;
        (prog, CellIdx::new(0))
    }

    fn comb_output(prog: &FlatProgram, ci: CellIdx, values: &[u64]) -> Option<(PortIdx, u64)> {
        prog.cells[ci].comb_output(&prog.states[ci], values)
    }

    /// One clock cycle with `inputs` driven; returns what the next cycle
    /// starts from (all zero but the published state) and the cells the
    /// tick touched.
    fn ticking(
        prog: &mut FlatProgram,
        inputs: &[(PortIdx, u64)],
    ) -> SimResult<(Vec<u64>, Vec<CellIdx>)> {
        let mut values = vec![0; prog.ports.len()];
        prog.publish(&mut values, |_| {});
        for &(p, v) in inputs {
            values[p.index()] = v;
        }
        let mut touched = Vec::new();
        let stateful = prog.stateful_cells();
        prog.tick(&stateful, &values, |ci| touched.push(ci), |_| {})?;
        values.fill(0);
        prog.publish(&mut values, |_| {});
        Ok((values, touched))
    }

    /// [`ticking`], without the touched cells.
    fn cycle(prog: &mut FlatProgram, inputs: &[(PortIdx, u64)]) -> SimResult<Vec<u64>> {
        ticking(prog, inputs).map(|(values, _)| values)
    }

    #[test]
    fn register_latches_masked_and_pulses_done() {
        let (mut prog, r) = machine("r = std_reg(8);");
        let FlatCellKind::Reg {
            input,
            write_en,
            out,
            done,
        } = prog.cells[r].kind.clone()
        else {
            panic!("not a register");
        };
        let seen = cycle(&mut prog, &[(input, 0x1ff), (write_en, 1)]).unwrap();
        assert_eq!((seen[out.index()], seen[done.index()]), (0xff, 1));
        assert_eq!(prog.register_value(r), Some(0xff));
        // No write: the value holds and `done` was a one-cycle pulse.
        let seen = cycle(&mut prog, &[(input, 3)]).unwrap();
        assert_eq!((seen[out.index()], seen[done.index()]), (0xff, 0));
        assert_eq!(comb_output(&prog, r, &seen), None);
    }

    #[test]
    fn a_register_written_once_is_touched_until_its_done_falls() {
        let (mut prog, r) = machine("r = std_reg(8); add = std_add(8);");
        assert_eq!(prog.stateful_cells(), vec![r]);
        let FlatCellKind::Reg {
            input,
            write_en,
            out,
            done,
        } = prog.cells[r].kind.clone()
        else {
            panic!("not a register");
        };
        let shown = |seen: &[u64]| (seen[out.index()], seen[done.index()]);
        let (seen, touched) = ticking(&mut prog, &[(input, 5), (write_en, 1)]).unwrap();
        assert_eq!((shown(&seen), touched), ((5, 1), vec![r]));
        // `write_en` is low, but the `done` pulse is up and must fall.
        let (seen, touched) = ticking(&mut prog, &[(input, 9)]).unwrap();
        assert_eq!((shown(&seen), touched), ((5, 0), vec![r]));
        // Unarmed: latching would change nothing, so nothing is touched.
        for _ in 0..3 {
            let (seen, touched) = ticking(&mut prog, &[(input, 9)]).unwrap();
            assert_eq!((shown(&seen), touched), ((5, 0), vec![]));
        }
    }

    #[test]
    fn a_unit_whose_go_falls_after_the_first_cycle_still_finishes() {
        let (mut prog, mul) = machine("mul = std_mult_pipe(8);");
        let FlatCellKind::Unit {
            left,
            right,
            go,
            out,
            done,
            ..
        } = prog.cells[mul].kind.clone()
        else {
            panic!("not a unit");
        };
        let shown = |seen: &[u64]| (seen[out.index()], seen[done.index()]);
        let (seen, touched) = ticking(&mut prog, &[(left, 3), (right, 5), (go, 1)]).unwrap();
        assert_eq!((shown(&seen), touched), ((0, 0), vec![mul]));
        // `go` is low from here on: counting down keeps the unit armed.
        let mut trace = Vec::new();
        for _ in 0..5 {
            let (seen, touched) = ticking(&mut prog, &[]).unwrap();
            trace.push((shown(&seen), touched.len()));
        }
        let expected = [
            ((0, 0), 1),
            ((0, 0), 1),
            ((15, 1), 1),
            // The `done` pulse falls; then the unit is idle and untouched.
            ((15, 0), 1),
            ((15, 0), 0),
        ];
        assert_eq!(trace, expected);
    }

    #[test]
    fn memory_writes_reads_and_reports_out_of_range_by_path() {
        let (mut prog, m) = machine("m = std_mem_d2(8, 2, 3, 1, 2);");
        let FlatCellKind::Mem {
            addrs,
            write_data,
            write_en,
            read_data,
            done,
        } = prog.cells[m].kind.clone()
        else {
            panic!("not a memory");
        };
        let at = |row, col| [(addrs[0], row), (addrs[1], col)];
        let mut write = at(1, 2).to_vec();
        write.extend([(write_data, 0x1ab), (write_en, 1)]);
        let mut seen = cycle(&mut prog, &write).unwrap();
        assert_eq!(seen[done.index()], 1);
        assert_eq!(prog.memory(m), Some(&[0, 0, 0, 0, 0, 0xab][..]));
        // The read port is combinational: it follows the address ports.
        for (p, v) in at(1, 2) {
            seen[p.index()] = v;
        }
        assert_eq!(comb_output(&prog, m, &seen), Some((read_data, 0xab)));
        // An unaddressed (out-of-range) read is a harmless zero ...
        seen[addrs[0].index()] = 7;
        assert_eq!(comb_output(&prog, m, &seen), Some((read_data, 0)));
        // ... but a write there is an error naming the cell.
        let mut write = at(2, 0).to_vec();
        write.push((write_en, 1));
        assert_eq!(
            cycle(&mut prog, &write),
            Err(SimError::OutOfBounds {
                memory: "m".to_string(),
                address: 6,
                size: 6,
            })
        );
    }

    /// Cycles from the one `go` is driven in until `done` is published.
    fn latency(prog: &mut FlatProgram, start: &[(PortIdx, u64)], done: PortIdx) -> u32 {
        let mut seen = cycle(prog, start).unwrap();
        let mut n = 1;
        while seen[done.index()] == 0 {
            seen = cycle(prog, &[]).unwrap();
            n += 1;
            assert!(n < 100, "unit never finished");
        }
        n
    }

    #[test]
    fn multiplier_finishes_four_cycles_after_go() {
        let (mut prog, mul) = machine("mul = std_mult_pipe(8);");
        let FlatCellKind::Unit {
            left,
            right,
            go,
            out,
            out2,
            done,
        } = prog.cells[mul].kind.clone()
        else {
            panic!("not a unit");
        };
        assert_eq!(out2, None);
        assert_eq!(
            latency(&mut prog, &[(left, 20), (right, 13), (go, 1)], done),
            4
        );
        let mut values = vec![0; prog.ports.len()];
        prog.publish(&mut values, |_| {});
        assert_eq!(values[out.index()], (20 * 13) & 0xff);
        // `done` is a pulse; the product is held.
        let seen = cycle(&mut prog, &[]).unwrap();
        assert_eq!((seen[out.index()], seen[done.index()]), (4, 0));
    }

    #[test]
    fn divider_publishes_quotient_and_remainder() {
        let (mut prog, div) = machine("div = std_div_pipe(8);");
        let FlatCellKind::Unit {
            left,
            right,
            go,
            out,
            out2: Some(rem),
            done,
        } = prog.cells[div].kind.clone()
        else {
            panic!("not a divider");
        };
        assert_eq!(
            latency(&mut prog, &[(left, 23), (right, 5), (go, 1)], done),
            4
        );
        let mut values = vec![0; prog.ports.len()];
        prog.publish(&mut values, |_| {});
        assert_eq!((values[out.index()], values[rem.index()]), (4, 3));
    }

    #[test]
    fn combinational_cells_evaluate_without_state() {
        let (prog, add) = machine("add = std_add(4);");
        let FlatCellKind::Comb {
            left, right, out, ..
        } = prog.cells[add].kind.clone()
        else {
            panic!("not combinational");
        };
        let mut values = vec![0; prog.ports.len()];
        values[left.index()] = 9;
        values[right.unwrap().index()] = 9;
        assert_eq!(comb_output(&prog, add, &values), Some((out, 2)));
        // Its placeholder state is not a register, nor a memory.
        assert_eq!(prog.register_value(add), None);
        assert_eq!(prog.memory(add), None);
    }

    #[test]
    fn memory_images_are_masked_and_bounds_checked() {
        let (mut prog, m) = machine("m = std_mem_d1(4, 3, 2); r = std_reg(4);");
        assert_eq!(prog.set_memory(m, &[0x1f, 2]), Some(Ok(())));
        assert_eq!(prog.memory(m), Some(&[0xf, 2, 0][..]));
        assert_eq!(
            prog.set_memory(m, &[1, 2, 3, 4]),
            Some(Err(SimError::OutOfBounds {
                memory: "m".to_string(),
                address: 4,
                size: 3,
            }))
        );
        // A rejected image writes nothing.
        assert_eq!(prog.memory(m), Some(&[0xf, 2, 0][..]));
        assert_eq!(prog.set_memory(CellIdx::new(1), &[1]), None);
    }

    /// Both engines load images through [`FlatProgram::set_memory`], so an
    /// image longer than the memory is the same error from either; neither
    /// may drop the tail silently.
    #[test]
    fn both_engines_reject_an_over_long_image_alike() {
        let src = r#"component main() -> () {
              cells { m = std_mem_d1(8, 2, 1); }
              wires { group g { m.addr0 = 1'd0; m.write_data = 8'd1; m.write_en = 1'd1; g[done] = m.done; } }
              control { g; }
            }"#;
        let ctx = parse_context(src).unwrap();
        let mut interp = crate::interp::Interpreter::new(&ctx, "main").unwrap();
        let mut lowered = parse_context(src).unwrap();
        let mut pipeline = calyx_core::passes::PassManager::from_names(&["lower"]).unwrap();
        pipeline.run(&mut lowered).unwrap();
        let mut sim = crate::rtl::Simulator::new(&lowered, "main").unwrap();

        let expected = SimError::OutOfBounds {
            memory: "m".to_string(),
            address: 3,
            size: 2,
        };
        assert_eq!(interp.set_memory("m", &[7, 8, 9]), Err(expected.clone()));
        assert_eq!(sim.set_memory(&["m"], &[7, 8, 9]), Err(expected));
        // Neither engine kept any of the rejected image.
        assert_eq!(interp.memory("m").unwrap(), vec![0, 0]);
        assert_eq!(sim.memory(&["m"]).unwrap(), vec![0, 0]);
        // An image that fits is still accepted by both.
        interp.set_memory("m", &[7]).unwrap();
        sim.set_memory(&["m"], &[7]).unwrap();
        assert_eq!(interp.memory("m").unwrap(), sim.memory(&["m"]).unwrap());
    }
}
