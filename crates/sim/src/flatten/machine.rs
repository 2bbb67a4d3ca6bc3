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
//! again. The caller keeps the [`TickTable`] and the list of touched
//! cells; the full walk [`FlatProgram::publish`] survives only as the
//! oracle a debug build checks every settle against.
//!
//! **The tick rule.** The table lists each stateful cell once, in cell
//! order, as the port that arms it (`write_en`, or a unit's `go`), with one
//! busy bit per cell: set while a `done` is up or a unit counts down. A
//! tick reads the enables of 64 cells into one word of bits, ORs in their
//! busy bits, and latches only the cells whose bit is set, through the
//! full model; their busy bits are then read back from the model. Nothing
//! in the settle tracks which cells are armed, so the settle pays nothing
//! for it, and an idle cell costs the tick one port read.
//!
//! [`FlatProgram::set_memory`], [`FlatProgram::memory`] and
//! [`FlatProgram::register_value`] are the harness's view of the same
//! state ([`crate::harness::Harness`]), addressed by hierarchical path
//! (`pe_0_0.acc`) for both engines, with one wording for each lookup
//! error.
//!
//! The functions on the per-cycle path are `#[inline]`: each is called
//! from inside an engine's per-cycle loop, which should compile with the
//! body in place rather than around a call.

use super::{CellIdx, FlatCell, FlatCellKind, FlatIdx, FlatProgram, PortIdx};
use crate::error::{SimError, SimResult};
use crate::prim::PrimState;
use calyx_core::prim::mask;

/// The stateful cells in cell order, each with the port that arms it
/// (`write_en`, or a unit's `go`), and one bit per cell that is set while
/// its state is busy: a `done` up, a unit counting. A tick keeps the bits
/// ([`FlatProgram::tick`]); nothing else changes whether a cell is busy.
#[derive(Debug, Clone)]
pub struct TickTable {
    enables: Vec<PortIdx>,
    cells: Vec<CellIdx>,
    busy: Vec<u64>,
}

impl TickTable {
    /// The cells, in cell order.
    pub fn cells(&self) -> impl Iterator<Item = CellIdx> + '_ {
        self.cells.iter().copied()
    }

    /// Whether the table's busy bit for each cell is its state's, as it
    /// must be between ticks.
    #[cfg(debug_assertions)]
    pub(crate) fn agrees_with(&self, prog: &FlatProgram) -> bool {
        let bit = |i: usize| self.busy[i / 64] >> (i % 64) & 1 == 1;
        self.cells()
            .enumerate()
            .all(|(i, ci)| bit(i) == prog.states[ci].busy())
    }
}

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
    /// Write stateful cell `ci`'s outputs (register value, unit results,
    /// the registered `done` flag) into `values`, and call `changed` with
    /// each port whose value that replaced a different one. These are
    /// fixed for the cycle; nothing the engine settles afterwards may
    /// overwrite them. Nothing to do for a combinational cell.
    ///
    /// A caller whose `values` persist from the last cycle calls this for
    /// the cells the last tick touched, and learns from `changed` what
    /// that tick altered: the port, its old value and its new one.
    #[inline]
    pub fn publish_cell(
        &self,
        ci: CellIdx,
        values: &mut [u64],
        mut changed: impl FnMut(PortIdx, u64, u64),
    ) {
        let mut show = |port: PortIdx, v: u64| {
            let old = std::mem::replace(&mut values[port.index()], v);
            if old != v {
                changed(port, old, v);
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
    pub fn publish(&self, values: &mut [u64], mut changed: impl FnMut(PortIdx, u64, u64)) {
        for ci in self.cells.keys() {
            self.publish_cell(ci, values, &mut changed);
        }
    }

    /// The stateful cells as [`FlatProgram::tick`] scans them.
    pub fn tick_table(&self) -> TickTable {
        let mut table = TickTable {
            enables: Vec::new(),
            cells: Vec::new(),
            busy: Vec::new(),
        };
        for (ci, cell) in self.cells.enumerate() {
            let enable = match &cell.kind {
                FlatCellKind::Reg { write_en, .. } | FlatCellKind::Mem { write_en, .. } => write_en,
                FlatCellKind::Unit { go, .. } => go,
                FlatCellKind::Comb { .. } => continue,
            };
            let i = table.cells.len();
            if i.is_multiple_of(64) {
                table.busy.push(0);
            }
            table.busy[i / 64] |= u64::from(self.states[ci].busy()) << (i % 64);
            table.enables.push(*enable);
            table.cells.push(ci);
        }
        table
    }

    /// End a cycle: each *armed* cell of `table` latches from the settled
    /// `values` (the synchronous update). A cell is armed when latching
    /// can change its state:
    ///
    /// - a register or memory when its `write_en` is high, or its `done`
    ///   is up (the pulse must fall);
    /// - a unit when its `go` is high, it is counting down, or its `done`
    ///   is up.
    ///
    /// Any other cell latches to exactly the state it holds — no write, a
    /// `done` that stays low, an idle unit that stays idle — so it is not
    /// touched. The scan reads one enable port and one busy bit per cell
    /// and looks at a cell's model only when either is set. `ticked` is
    /// called with each armed cell (its outputs may show new values next
    /// cycle), and `wrote` with each memory that stored a word: its read
    /// port may show a new value next cycle although no address port
    /// moved.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`], naming the cell's path, when a
    /// memory is written past its end. The cells before it in `table` have
    /// latched, and were reported to `ticked`.
    #[inline]
    pub fn tick(
        &mut self,
        table: &mut TickTable,
        values: &[u64],
        mut ticked: impl FnMut(CellIdx),
        mut wrote: impl FnMut(CellIdx),
    ) -> SimResult<()> {
        let FlatProgram {
            cells,
            states,
            instances,
            ..
        } = self;
        let words = table.enables.chunks(64).zip(table.cells.chunks(64));
        for ((enables, chunk), busy) in words.zip(&mut table.busy) {
            // The armed cells of this word: a high enable or a busy bit.
            let mut armed = *busy;
            for (bit, enable) in enables.iter().enumerate() {
                armed |= u64::from(values[enable.index()] != 0) << bit;
            }
            while armed != 0 {
                let bit = armed.trailing_zeros();
                armed &= armed - 1;
                let (enable, ci) = (enables[bit as usize], chunk[bit as usize]);
                let enabled = values[enable.index()] != 0;
                let state = &mut states[ci];
                match &cells[ci].kind {
                    FlatCellKind::Reg { input, .. } => {
                        state.tick_reg(values[input.index()], enabled)
                    }
                    FlatCellKind::Mem {
                        addrs, write_data, ..
                    } => {
                        let av = address(addrs, values);
                        let wd = values[write_data.index()];
                        let path = || cells[ci].path(instances);
                        state.tick_mem(&av[..addrs.len()], wd, enabled, path)?;
                        if enabled {
                            wrote(ci);
                        }
                    }
                    FlatCellKind::Unit { left, right, .. } => {
                        state.tick_unit(values[left.index()], values[right.index()], enabled)
                    }
                    FlatCellKind::Comb { .. } => unreachable!("a tick table lists stateful cells"),
                }
                *busy = *busy & !(1 << bit) | u64::from(state.busy()) << bit;
                ticked(ci);
            }
        }
        Ok(())
    }

    /// The primitive at hierarchical path `path` (`acc`, `pe_0_0.acc`):
    /// the instance whose prefix is all of `path` up to its last `.`, and
    /// the cell of that name in it.
    fn cell(&self, path: &str) -> SimResult<CellIdx> {
        let index = self.cell_index.get_or_init(|| {
            let names = self.cells.enumerate();
            names
                .map(|(ci, c)| ((c.instance, c.name.as_str()), ci))
                .collect()
        });
        let (prefix, name) = match path.rfind('.') {
            Some(dot) => path.split_at(dot + 1),
            None => ("", path),
        };
        let instance = self.instances.iter().position(|i| i.prefix == prefix);
        let ci = instance.and_then(|i| index.get(&(i as u32, name)).copied());
        ci.ok_or_else(|| SimError::UnknownCell(path.to_string()))
    }

    /// Load `data` into the memory at `path` from address 0 (row-major for
    /// multi-dimensional memories), masking each word to the element
    /// width; a shorter image leaves the tail as it was.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownCell`] when `path` names no cell,
    /// [`SimError::WrongKind`] when it names one that is not a memory, and
    /// [`SimError::OutOfBounds`] when `data` is longer than the memory.
    pub fn set_memory(&mut self, path: &str, data: &[u64]) -> SimResult<()> {
        let ci = self.cell(path)?;
        let PrimState::Mem {
            data: storage,
            width,
            ..
        } = &mut self.states[ci]
        else {
            return Err(not_a("memory", path));
        };
        if data.len() > storage.len() {
            return Err(SimError::OutOfBounds {
                memory: path.to_string(),
                address: data.len() as u64,
                size: storage.len() as u64,
            });
        }
        for (slot, v) in storage.iter_mut().zip(data) {
            *slot = mask(*v, *width);
        }
        Ok(())
    }

    /// The contents of the memory at `path`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownCell`] when `path` names no cell and
    /// [`SimError::WrongKind`] when it names one that is not a memory.
    pub fn memory(&self, path: &str) -> SimResult<&[u64]> {
        match &self.states[self.cell(path)?] {
            PrimState::Mem { data, .. } => Ok(data),
            _ => Err(not_a("memory", path)),
        }
    }

    /// The value held by the register at `path`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownCell`] when `path` names no cell and
    /// [`SimError::WrongKind`] when it names one that is not a register
    /// (combinational cells carry a placeholder register state, so the
    /// cell kind is checked too).
    pub fn register_value(&self, path: &str) -> SimResult<u64> {
        let ci = self.cell(path)?;
        match (&self.cells[ci].kind, &self.states[ci]) {
            (FlatCellKind::Reg { .. }, PrimState::Reg { val, .. }) => Ok(*val),
            _ => Err(not_a("register", path)),
        }
    }
}

/// The lookup error for a cell that exists but is not a `what`.
fn not_a(what: &'static str, path: &str) -> SimError {
    SimError::WrongKind {
        cell: path.to_string(),
        expected: what,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flatten::flatten;
    use calyx_core::ir::parse_context;

    /// The machine of a component holding just `cells`, with the index of
    /// its first cell.
    fn machine(cells: &str) -> (FlatProgram, CellIdx) {
        let src =
            format!("component main() -> () {{ cells {{ {cells} }} wires {{}} control {{}} }}");
        let ctx = parse_context(&src).unwrap();
        let prog = flatten(&ctx, "main").unwrap().prog;
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
        prog.publish(&mut values, |_, _, _| {});
        for &(p, v) in inputs {
            values[p.index()] = v;
        }
        let mut touched = Vec::new();
        let mut table = prog.tick_table();
        prog.tick(&mut table, &values, |ci| touched.push(ci), |_| {})?;
        values.fill(0);
        prog.publish(&mut values, |_, _, _| {});
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
        assert_eq!(prog.register_value("r"), Ok(0xff));
        // No write: the value holds and `done` was a one-cycle pulse.
        let seen = cycle(&mut prog, &[(input, 3)]).unwrap();
        assert_eq!((seen[out.index()], seen[done.index()]), (0xff, 0));
        assert_eq!(comb_output(&prog, r, &seen), None);
    }

    #[test]
    fn a_register_written_once_is_touched_until_its_done_falls() {
        let (mut prog, r) = machine("r = std_reg(8); add = std_add(8);");
        assert_eq!(prog.tick_table().cells().collect::<Vec<_>>(), vec![r]);
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
        assert_eq!(prog.memory("m"), Ok(&[0, 0, 0, 0, 0, 0xab][..]));
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
        prog.publish(&mut values, |_, _, _| {});
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
        prog.publish(&mut values, |_, _, _| {});
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
        let not_a = |expected| SimError::WrongKind {
            cell: "add".to_string(),
            expected,
        };
        assert_eq!(prog.register_value("add"), Err(not_a("register")));
        assert_eq!(prog.memory("add"), Err(not_a("memory")));
    }

    #[test]
    fn memory_images_are_masked_and_bounds_checked() {
        let (mut prog, _) = machine("m = std_mem_d1(4, 3, 2); r = std_reg(4);");
        assert_eq!(prog.set_memory("m", &[0x1f, 2]), Ok(()));
        assert_eq!(prog.memory("m"), Ok(&[0xf, 2, 0][..]));
        assert_eq!(
            prog.set_memory("m", &[1, 2, 3, 4]),
            Err(SimError::OutOfBounds {
                memory: "m".to_string(),
                address: 4,
                size: 3,
            })
        );
        // A rejected image writes nothing.
        assert_eq!(prog.memory("m"), Ok(&[0xf, 2, 0][..]));
        assert!(matches!(
            prog.set_memory("r", &[1]),
            Err(SimError::WrongKind { .. })
        ));
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
        assert_eq!(sim.set_memory("m", &[7, 8, 9]), Err(expected));
        // Neither engine kept any of the rejected image.
        assert_eq!(interp.memory("m").unwrap(), vec![0, 0]);
        assert_eq!(sim.memory("m").unwrap(), vec![0, 0]);
        // An image that fits is still accepted by both.
        interp.set_memory("m", &[7]).unwrap();
        sim.set_memory("m", &[7]).unwrap();
        assert_eq!(interp.memory("m").unwrap(), sim.memory("m").unwrap());
    }
}
