//! The cycle machine: the half of a simulated cycle that does not depend
//! on which engine is running it.
//!
//! Whatever evaluates the wires, a clock cycle over a [`FlatProgram`]
//! starts and ends the same way, and the harness around it reads and
//! writes state the same way:
//!
//! 1. [`FlatProgram::publish`] — stateful primitives show their outputs,
//!    and the caller hears which of them changed;
//! 2. the engine settles every other port ([`super::Wires::settle`]),
//!    calling [`FlatCell::comb_output`] for each combinational cell and
//!    memory read port whose inputs changed;
//! 3. [`FlatProgram::tick`] — every stateful primitive latches from the
//!    settled valuation, and the caller hears which memories stored a
//!    word.
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
use crate::prim::{mask, PrimState};

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
    /// Start a cycle: write every stateful primitive's outputs (register
    /// value, unit results, the registered `done` flags) into `values`,
    /// and call `changed` with each port whose value that replaced a
    /// different one. These are fixed for the cycle; nothing the engine
    /// settles afterwards may overwrite them.
    ///
    /// A caller whose `values` persist from the last cycle learns from
    /// `changed` what the last tick altered.
    #[inline]
    pub fn publish(&self, values: &mut [u64], mut changed: impl FnMut(PortIdx)) {
        let mut show = |port: PortIdx, v: u64| {
            if std::mem::replace(&mut values[port.index()], v) != v {
                changed(port);
            }
        };
        for (ci, cell) in self.cells.enumerate() {
            match (&cell.kind, &self.states[ci]) {
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
    }

    /// End a cycle: every stateful primitive latches from the settled
    /// `values` (the synchronous update). `wrote` is called with each
    /// memory that stored a word: its read port may show a new value next
    /// cycle although no address port moved.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`], naming the cell's path, when a
    /// memory is written past its end.
    #[inline]
    pub fn tick(&mut self, values: &[u64], mut wrote: impl FnMut(CellIdx)) -> SimResult<()> {
        let FlatProgram { cells, states, .. } = self;
        for (ci, cell) in cells.enumerate() {
            match &cell.kind {
                FlatCellKind::Reg {
                    input, write_en, ..
                } => {
                    let inp = values[input.index()];
                    let we = values[write_en.index()] != 0;
                    states[ci].tick_reg(inp, we);
                }
                FlatCellKind::Mem {
                    addrs,
                    write_data,
                    write_en,
                    ..
                } => {
                    let av = address(addrs, values);
                    let wd = values[write_data.index()];
                    let we = values[write_en.index()] != 0;
                    states[ci].tick_mem(&av[..addrs.len()], wd, we, &cell.path)?;
                    if we {
                        wrote(ci);
                    }
                }
                FlatCellKind::Unit {
                    left, right, go, ..
                } => {
                    let l = values[left.index()];
                    let r = values[right.index()];
                    let g = values[go.index()] != 0;
                    states[ci].tick_unit(l, r, g);
                }
                FlatCellKind::Comb { .. } => {}
            }
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
    /// `std_reg` (combinational cells carry a placeholder register state,
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
    /// starts from (all zero but the published state).
    fn cycle(prog: &mut FlatProgram, inputs: &[(PortIdx, u64)]) -> SimResult<Vec<u64>> {
        let mut values = vec![0; prog.ports.len()];
        prog.publish(&mut values, |_| {});
        for &(p, v) in inputs {
            values[p.index()] = v;
        }
        prog.tick(&values, |_| {})?;
        values.fill(0);
        prog.publish(&mut values, |_| {});
        Ok(values)
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
        calyx_core::passes::lower_pipeline()
            .run(&mut lowered)
            .unwrap();
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
