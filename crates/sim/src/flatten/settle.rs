//! The change-driven settle: how the wires of a [`FlatProgram`] reach
//! their values for a cycle, whichever engine is asking.
//!
//! [`Wires`] holds what persists from cycle to cycle — one slot array of
//! every port's value, then every guard's (0 or 1), then the constants
//! the program reads; one dirty bit per node of the [`Graph`]; the
//! [`TickTable`] of stateful cells and the list of those the last tick
//! touched. A cycle is [`Wires::publish`] (the touched cells' outputs;
//! each that moved wakes its readers), whatever the engine itself writes
//! with [`Wires::set`], [`Wires::settle`] and [`Wires::tick`] (the armed
//! cells latch and are listed for the next publish; each memory written
//! wakes its read port). The settle visits the dirty nodes in sorted
//! order, and a node wakes its own readers only when its output differs
//! from the stored one. Readers sit later in the order than what they
//! read, so one ascending pass reaches the fixpoint and a node runs at
//! most once. So every phase of a cycle costs what changed in it, not the
//! size of the design: the tick reads one enable port and one busy bit per
//! stateful cell ([`FlatProgram::tick`] states the rule), while publish
//! and settle see only what moved.
//!
//! **The tape.** The sorted graph is lowered once, when it is built, into
//! a [`Tape`]: one instruction per node, reading and writing slots by
//! number. A guard node is one step over its children's slots, a driver
//! node walks `(guard slot, source slot)` pairs (a port with one driver,
//! the common case, is one step), a combinational cell reads its operand
//! slots, and a literal is a slot like a port, so evaluating a node is one
//! `match` and no walk through the guard and atom arenas. Two kinds of
//! node compute nothing and are never woken: a guard that reads one port,
//! which shares that port's slot (its readers wake with the port), and the
//! one driver of a group's hole (`g[done]`) that no node and no engine
//! reads; the interpreter takes a group's done condition from its `done`
//! writes, so the hole's value was never used.
//!
//! **Comparisons with a constant.** A guard `p op k` is not in `p`'s
//! fan-out row. Each port keeps its comparisons with a constant sorted by
//! `k`, and when `p` moves from `a` to `b` only those with `k` between `a`
//! and `b` are woken: any other `k` lies on the same side of both values,
//! so its comparison cannot flip. Lowering stamps `fsm.out == k` on every
//! assignment of FSM state `k`; a step of the FSM from state `a` to
//! `a + 1` wakes the two comparisons that flip, not one per state.
//!
//! Keeping values is sound because every port has one writer: a stateful
//! output is written by `publish` alone, a combinational output by its
//! cell's node alone, an engine-owned input by `set` alone, and anything
//! else by its one driver node — which also means a port whose drivers
//! all went quiet is written too, with zero. A build with debug assertions
//! checks every settle: publishing every cell again and evaluating every
//! node the way the graph describes it (through the guard and atom
//! arenas, not the tape) must change no stored value.
//!
//! Only the graph's tail ([`Graph::tail_start`]) breaks the order: there
//! a node may wake a reader at a lower position. The settle notes the
//! lowest such reader and sweeps again from it once the pass is over,
//! until a pass wakes nothing behind itself or the budget runs out. Inside
//! the tail a driver conflict may be an artefact of a value that is not
//! final yet, so it is held back until the pass that settles everything
//! else still sees it.

use super::machine::TickTable;
use super::{
    CellIdx, FanOut, FlatAtom, FlatCellKind, FlatGuard, FlatIdx, FlatProgram, Graph, GuardIdx,
    Node, PortIdx,
};
use crate::error::{SimError, SimResult};
use calyx_core::ir::CompOp;
use calyx_core::prim::CombOp;
use rustc_hash::FxHashMap;

/// What an engine makes of the active drivers of one port. The one
/// difference between how the two engines evaluate a node.
pub trait DriverRule {
    /// Whether a second active driver offering `next` is an error, given
    /// that an earlier one offered `held`.
    fn conflict(held: u64, next: u64) -> bool;

    /// What a port `width` bits wide shows of the driven `value`.
    fn shown(value: u64, width: u32) -> u64;
}

/// What one node computes, over slot numbers.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// The guard that always holds.
    True,
    /// A port read as a guard, whose slot the guard shares, or the one
    /// driver of a group's hole that nothing reads: nothing to compute, and
    /// nothing wakes it.
    Alias,
    Not(u32),
    And(u32, u32),
    Or(u32, u32),
    Eq(u32, u32),
    Neq(u32, u32),
    Lt(u32, u32),
    Gt(u32, u32),
    Leq(u32, u32),
    Geq(u32, u32),
    /// A port with one driver: its source while its guard holds, else 0.
    Drive1 {
        guard: u32,
        src: u32,
        width: u32,
    },
    /// A port with several drivers, `Tape::drivers[start..end]`.
    Drive {
        start: u32,
        end: u32,
        width: u32,
    },
    /// A combinational primitive (a unary one reads a zero as `b`).
    Comb {
        op: CombOp,
        a: u32,
        b: u32,
        in_width: u32,
        out_width: u32,
    },
    /// A memory's read port.
    Read(CellIdx),
}

/// One node of the sorted graph: what it computes, the slot it writes,
/// and where the readers of that slot are listed: its fan-out row and, for
/// a port, its comparisons with a constant (each a `start..end` range).
#[derive(Debug, Clone, Copy)]
struct Instr {
    op: Op,
    out: u32,
    readers: [u32; 2],
    cmps: [u32; 2],
}

/// The sorted graph lowered for the settle: [`Graph::nodes`] as
/// instructions over one slot array (ports, then guards, then constants),
/// and each port's comparisons with a constant.
#[derive(Debug, Clone, Default)]
pub struct Tape {
    /// One per node, at the node's position.
    instrs: Vec<Instr>,
    /// `(guard slot, source slot)` of each driver of a [`Op::Drive`].
    drivers: Vec<(u32, u32)>,
    n_ports: usize,
    n_guards: usize,
    /// Each guard's slot: the port's own for a port read as a guard,
    /// else its place after the ports.
    guard_slots: Vec<u32>,
    /// The constants, in slot order after the guards.
    consts: Vec<u64>,
    /// Port `p`'s comparisons with a constant, `(constant, position)`
    /// sorted by the constant: `cmps[cmp_starts[p]..cmp_starts[p + 1]]`
    /// (`cmp_starts` is empty when there are none).
    cmp_starts: Vec<u32>,
    cmps: Vec<(u64, u32)>,
}

/// Slot numbers while a tape is lowered.
struct Slots {
    n_ports: usize,
    n_guards: usize,
    guard_slots: Vec<u32>,
    consts: Vec<u64>,
    index: FxHashMap<u64, u32>,
}

impl Slots {
    fn port(&self, p: PortIdx) -> u32 {
        p.index() as u32
    }

    fn guard(&self, g: GuardIdx) -> u32 {
        self.guard_slots[g.index()]
    }

    fn konst(&mut self, k: u64) -> u32 {
        let next = (self.n_ports + self.n_guards + self.consts.len()) as u32;
        *self.index.entry(k).or_insert_with(|| {
            self.consts.push(k);
            next
        })
    }

    fn atom(&mut self, atom: FlatAtom) -> u32 {
        match atom {
            FlatAtom::Port(p) => self.port(p),
            FlatAtom::Const(k) => self.konst(k),
        }
    }
}

impl Tape {
    /// Lower `graph`, whose assignments are `prog`'s, and reroute its
    /// fan-out for the settle: a comparison with a constant leaves its
    /// port's row for the port's comparison row, and a port read as a
    /// guard shares the port's slot, so the guard's readers join the
    /// port's row and the guard's own node leaves it.
    ///
    /// A group's hole (`g[done]`) with one driver that no node reads and
    /// the engine does not read either (`observed`) is never computed: the
    /// interpreter takes a group's done condition from its `done` writes,
    /// not from the hole. With one driver it cannot conflict, so no error
    /// is lost.
    pub(super) fn lower(prog: &FlatProgram, graph: &mut Graph, observed: &[bool]) -> Tape {
        let n_ports = prog.ports.len();
        // The guard each port is read as, if any (one: guards are
        // hash-consed).
        let mut alias = vec![u32::MAX; n_ports];
        let guard_slots = prog
            .guards
            .enumerate()
            .map(|(g, guard)| match *guard {
                FlatGuard::Port(p) => {
                    alias[p.index()] = g.index() as u32;
                    p.index() as u32
                }
                _ => (n_ports + g.index()) as u32,
            })
            .collect();
        let mut slots = Slots {
            n_ports,
            n_guards: prog.guards.len(),
            guard_slots,
            consts: Vec::new(),
            index: FxHashMap::default(),
        };
        // The nodes no row lists: comparisons with a constant (their
        // port's comparison row does), ports read as guards and unread
        // holes.
        let mut rerouted = vec![false; graph.nodes.len()];
        let unread = |dst: PortIdx| {
            prog.ports[dst].port.is_hole()
                && !observed[dst.index()]
                && graph.fanout.of_port(dst).is_empty()
        };
        let mut drivers = Vec::new();
        // `(port, constant, position)` of each comparison with a constant.
        let mut cmps = Vec::new();
        let mut instrs = Vec::with_capacity(graph.nodes.len());
        for (pos, &node) in graph.nodes.iter().enumerate() {
            let (op, out) = match node {
                Node::Guard(g) => {
                    let op = match prog.guards[g] {
                        FlatGuard::True => Op::True,
                        FlatGuard::Port(_) => {
                            rerouted[pos] = true;
                            Op::Alias
                        }
                        FlatGuard::Not(a) => Op::Not(slots.guard(a)),
                        FlatGuard::And(a, b) => Op::And(slots.guard(a), slots.guard(b)),
                        FlatGuard::Or(a, b) => Op::Or(slots.guard(a), slots.guard(b)),
                        FlatGuard::Comp(op, l, r) => {
                            if let (FlatAtom::Port(p), FlatAtom::Const(k))
                            | (FlatAtom::Const(k), FlatAtom::Port(p)) = (l, r)
                            {
                                cmps.push((p.index() as u32, k, pos as u32));
                                rerouted[pos] = true;
                            }
                            let (l, r) = (slots.atom(l), slots.atom(r));
                            match op {
                                CompOp::Eq => Op::Eq(l, r),
                                CompOp::Neq => Op::Neq(l, r),
                                CompOp::Lt => Op::Lt(l, r),
                                CompOp::Gt => Op::Gt(l, r),
                                CompOp::Leq => Op::Leq(l, r),
                                CompOp::Geq => Op::Geq(l, r),
                            }
                        }
                    };
                    (op, slots.guard(g))
                }
                Node::Drivers { dst, asgns } => {
                    let width = prog.ports[dst].width;
                    let op = match prog.assigns.range(asgns) {
                        [_] if unread(dst) => {
                            rerouted[pos] = true;
                            Op::Alias
                        }
                        [one] => Op::Drive1 {
                            guard: slots.guard(one.guard),
                            src: slots.atom(one.src),
                            width,
                        },
                        many => {
                            let start = drivers.len() as u32;
                            for a in many {
                                drivers.push((slots.guard(a.guard), slots.atom(a.src)));
                            }
                            Op::Drive {
                                start,
                                end: drivers.len() as u32,
                                width,
                            }
                        }
                    };
                    (op, slots.port(dst))
                }
                Node::Cell(c) => match prog.cells[c].kind {
                    FlatCellKind::Comb {
                        op,
                        left,
                        right,
                        out,
                        in_width,
                        out_width,
                    } => {
                        let b = match right {
                            Some(r) => slots.port(r),
                            None => slots.konst(0),
                        };
                        let op = Op::Comb {
                            op,
                            a: slots.port(left),
                            b,
                            in_width,
                            out_width,
                        };
                        (op, slots.port(out))
                    }
                    FlatCellKind::Mem { read_data, .. } => (Op::Read(c), slots.port(read_data)),
                    FlatCellKind::Reg { .. } | FlatCellKind::Unit { .. } => {
                        unreachable!("a stateful cell is not a node")
                    }
                },
            };
            instrs.push(Instr {
                op,
                out,
                readers: [0; 2],
                cmps: [0; 2],
            });
        }

        // The comparison rows, by port and then constant; the fan-out
        // keeps every other reader.
        cmps.sort_unstable();
        let mut cmp_starts = Vec::new();
        if !cmps.is_empty() {
            cmp_starts = vec![0u32; n_ports + 1];
            for &(p, _, _) in &cmps {
                cmp_starts[p as usize + 1] += 1;
            }
            for p in 0..n_ports {
                cmp_starts[p + 1] += cmp_starts[p];
            }
        }
        graph.fanout.reroute(|pos| rerouted[pos as usize], &alias);
        let mut tape = Tape {
            instrs: Vec::new(),
            drivers,
            n_ports,
            n_guards: slots.n_guards,
            guard_slots: slots.guard_slots,
            consts: slots.consts,
            cmp_starts,
            cmps: cmps.into_iter().map(|(_, k, pos)| (k, pos)).collect(),
        };
        for instr in &mut instrs {
            (instr.readers, instr.cmps) = tape.rows(&graph.fanout, instr.out as usize);
        }
        tape.instrs = instrs;
        tape
    }

    /// The fan-out and comparison rows of slot `slot`.
    #[inline]
    fn rows(&self, fanout: &FanOut, slot: usize) -> ([u32; 2], [u32; 2]) {
        let readers = [fanout.starts[slot], fanout.starts[slot + 1]];
        let cmps = match self.cmp_starts.get(slot..slot + 2) {
            Some(&[start, end]) => [start, end],
            _ => [0; 2],
        };
        (readers, cmps)
    }

    /// Port `p`'s comparisons with a constant, sorted by the constant.
    #[cfg(test)]
    pub(super) fn comparisons(&self, fanout: &FanOut, p: PortIdx) -> &[(u64, u32)] {
        let (_, [start, end]) = self.rows(fanout, p.index());
        &self.cmps[start as usize..end as usize]
    }

    /// Call `wake` with the position of each node that reads slot `slot`
    /// and may change now that it moved from `old` to `new`.
    #[inline]
    fn readers(&self, fanout: &FanOut, slot: usize, old: u64, new: u64, wake: impl FnMut(u32)) {
        let (readers, cmps) = self.rows(fanout, slot);
        wake_rows(fanout, &self.cmps, readers, cmps, old, new, wake);
    }

    /// Evaluate `instr` over `slots`: the value of the slot it writes, or
    /// the port whose drivers conflict.
    #[inline(always)]
    fn exec<R: DriverRule>(
        &self,
        prog: &FlatProgram,
        slots: &[u64],
        instr: &Instr,
    ) -> Result<u64, PortIdx> {
        let Instr { op, out, .. } = *instr;
        let s = |slot: u32| slots[slot as usize];
        let b = |cond: bool| u64::from(cond);
        let value = match op {
            Op::True => 1,
            Op::Alias => s(out),
            Op::Not(a) => b(s(a) == 0),
            Op::And(x, y) => b((s(x) != 0) & (s(y) != 0)),
            Op::Or(x, y) => b((s(x) != 0) | (s(y) != 0)),
            Op::Eq(x, y) => b(s(x) == s(y)),
            Op::Neq(x, y) => b(s(x) != s(y)),
            Op::Lt(x, y) => b(s(x) < s(y)),
            Op::Gt(x, y) => b(s(x) > s(y)),
            Op::Leq(x, y) => b(s(x) <= s(y)),
            Op::Geq(x, y) => b(s(x) >= s(y)),
            Op::Drive1 { guard, src, width } => {
                R::shown(if s(guard) != 0 { s(src) } else { 0 }, width)
            }
            Op::Drive { start, end, width } => {
                let mut held = None;
                for &(guard, src) in &self.drivers[start as usize..end as usize] {
                    if s(guard) != 0 {
                        let v = s(src);
                        if held.is_some_and(|h| R::conflict(h, v)) {
                            return Err(PortIdx::new(out as usize));
                        }
                        held = Some(v);
                    }
                }
                R::shown(held.unwrap_or(0), width)
            }
            Op::Comb {
                op,
                a,
                b,
                in_width,
                out_width,
            } => op.eval(s(a), s(b), in_width, out_width),
            Op::Read(c) => {
                let values = &slots[..self.n_ports];
                let read = prog.cells[c].comb_output(&prog.states[c], values);
                read.map_or(0, |(_, v)| v)
            }
        };
        Ok(value)
    }
}

/// Call `wake` with each reader in fan-out row `readers` and each
/// comparison in row `cmps` whose constant lies between `old` and `new`.
#[inline(always)]
fn wake_rows(
    fanout: &FanOut,
    all_cmps: &[(u64, u32)],
    readers: [u32; 2],
    cmps: [u32; 2],
    old: u64,
    new: u64,
    mut wake: impl FnMut(u32),
) {
    for &r in &fanout.readers[readers[0] as usize..readers[1] as usize] {
        wake(r);
    }
    if cmps[0] != cmps[1] {
        let row = &all_cmps[cmps[0] as usize..cmps[1] as usize];
        let (lo, hi) = if old < new { (old, new) } else { (new, old) };
        let from = row.partition_point(|&(k, _)| k < lo);
        for &(k, pos) in &row[from..] {
            if k > hi {
                break;
            }
            wake(pos);
        }
    }
}

/// The valuation of a flat program's wires, kept across cycles.
#[derive(Debug, Clone)]
pub struct Wires {
    /// Port values, then guard values (0 or 1), then the constants: the
    /// slots of the [`Tape`]. A guard's is valid when its node is not
    /// dirty.
    slots: Vec<u64>,
    n_ports: usize,
    /// One bit per position in [`Graph::nodes`]: the nodes an input of
    /// which changed since they last ran.
    dirty: Vec<u64>,
    /// The stateful cells, the only ones a tick looks at.
    table: TickTable,
    /// The cells the last tick touched (before the first cycle, every
    /// stateful cell): the only ones whose outputs the next publish shows.
    moved: Vec<CellIdx>,
}

/// Mark the node at `pos` for re-evaluation.
#[inline]
fn mark(dirty: &mut [u64], pos: u32) {
    dirty[pos as usize / 64] |= 1 << (pos % 64);
}

/// The first dirty position at or after `from`.
#[inline]
fn next_dirty(dirty: &[u64], from: usize) -> Option<usize> {
    let mut word = from / 64;
    let mut bits = *dirty.get(word)? & (u64::MAX << (from % 64));
    while bits == 0 {
        word += 1;
        bits = *dirty.get(word)?;
    }
    Some(word * 64 + bits.trailing_zeros() as usize)
}

impl Wires {
    /// All ports at zero, every node dirty and every stateful cell queued
    /// for the first publish.
    pub fn new(prog: &FlatProgram, graph: &Graph) -> Self {
        let tape = &graph.tape;
        let mut slots = vec![0; tape.n_ports + tape.n_guards];
        slots.extend_from_slice(&tape.consts);
        let table = prog.tick_table();
        let mut wires = Wires {
            slots,
            n_ports: tape.n_ports,
            dirty: vec![0; graph.nodes.len().div_ceil(64)],
            moved: table.cells().collect(),
            table,
        };
        wires.mark_all(graph);
        wires
    }

    /// The settled (or, before the first settle, initial) port values. A
    /// group's hole that nothing reads is not computed and reads 0.
    #[inline]
    pub fn values(&self) -> &[u64] {
        &self.slots[..self.n_ports]
    }

    /// The stored value of guard `g` of `graph`: final once a settle
    /// returned.
    #[inline]
    pub fn guard(&self, graph: &Graph, g: GuardIdx) -> bool {
        self.slots[graph.tape.guard_slots[g.index()] as usize] != 0
    }

    /// Mark every node dirty: nothing stored can be trusted, as before
    /// the first cycle or once the harness changed a memory.
    pub fn mark_all(&mut self, graph: &Graph) {
        self.dirty.fill(u64::MAX);
        if let Some(last) = self.dirty.last_mut() {
            *last >>= (64 - graph.nodes.len() % 64) % 64;
        }
    }

    /// Write `value` to a port no node of the graph produces (a top-level
    /// input, a group's `go`). It stays until the next call.
    #[inline]
    pub fn set(&mut self, graph: &Graph, port: PortIdx, value: u64) {
        let old = std::mem::replace(&mut self.slots[port.index()], value);
        if old != value {
            let dirty = &mut self.dirty;
            graph
                .tape
                .readers(&graph.fanout, port.index(), old, value, |r| mark(dirty, r));
        }
    }

    /// Start a cycle: show the outputs of the cells the last tick touched.
    /// Every other cell shows what it showed last cycle.
    #[inline]
    pub fn publish(&mut self, prog: &FlatProgram, graph: &Graph) {
        let Wires {
            slots,
            n_ports,
            dirty,
            moved,
            ..
        } = self;
        for ci in moved.drain(..) {
            prog.publish_cell(ci, &mut slots[..*n_ports], |port, old, new| {
                graph
                    .tape
                    .readers(&graph.fanout, port.index(), old, new, |r| mark(dirty, r))
            });
        }
    }

    /// End a cycle: latch the armed stateful primitives from the settled
    /// values, and queue each for the next publish.
    ///
    /// # Errors
    ///
    /// Those of [`FlatProgram::tick`].
    #[inline]
    pub fn tick(&mut self, prog: &mut FlatProgram, graph: &Graph) -> SimResult<()> {
        let Wires {
            slots,
            n_ports,
            dirty,
            table,
            moved,
        } = self;
        prog.tick(
            table,
            &slots[..*n_ports],
            |ci| moved.push(ci),
            |mem| {
                for &r in graph.fanout.of_memory(mem) {
                    mark(dirty, r);
                }
            },
        )
    }

    /// Evaluate the dirty nodes in sorted order, each waking its readers
    /// when its output changed, and sweep the graph's tail until it is
    /// stable. `cycle` is the one errors are reported at.
    ///
    /// # Errors
    ///
    /// [`SimError::DriverConflict`] when two active drivers of a port
    /// conflict under `R`; the node stays dirty, so the next settle
    /// reports it again instead of trusting a stale value.
    /// [`SimError::CombinationalLoop`] when the tail is still changing
    /// after as many sweeps as it could need if no active loop ran
    /// through it.
    pub fn settle<R: DriverRule>(
        &mut self,
        prog: &FlatProgram,
        graph: &Graph,
        cycle: u64,
    ) -> SimResult<()> {
        let Wires { slots, dirty, .. } = self;
        let (tape, fanout) = (&graph.tape, &graph.fanout);
        let conflict = |port: PortIdx| SimError::DriverConflict {
            port: prog.port_name(port),
            cycle,
        };
        let tail = graph.tail_start;
        // Words of sorted nodes only (all of them when there is no tail):
        // readers sit at higher positions, in this word or a later one.
        let sorted_words = if tail == graph.nodes.len() {
            dirty.len()
        } else {
            tail / 64
        };
        for word in 0..sorted_words {
            while dirty[word] != 0 {
                let pos = word * 64 + dirty[word].trailing_zeros() as usize;
                let instr = &tape.instrs[pos];
                let v = tape.exec::<R>(prog, slots, instr).map_err(conflict)?;
                dirty[word] &= dirty[word] - 1;
                let old = std::mem::replace(&mut slots[instr.out as usize], v);
                if old != v {
                    let (readers, cmps) = (instr.readers, instr.cmps);
                    wake_rows(fanout, &tape.cmps, readers, cmps, old, v, |r| {
                        mark(dirty, r)
                    });
                }
            }
        }
        // The rest, in sweeps. One makes at least one more tail node final
        // when the active part of the tail is loop-free.
        let mut sweeps = graph.nodes.len() - tail + 8;
        let mut from = sorted_words * 64;
        loop {
            // The lowest position this sweep woke behind itself, and the
            // first tail conflict it met.
            let mut reopen = usize::MAX;
            let mut held_back = None;
            while let Some(pos) = next_dirty(dirty, from) {
                from = pos + 1;
                let instr = &tape.instrs[pos];
                match tape.exec::<R>(prog, slots, instr) {
                    Ok(v) => {
                        dirty[pos / 64] &= !(1 << (pos % 64));
                        let old = std::mem::replace(&mut slots[instr.out as usize], v);
                        if old != v {
                            let (readers, cmps) = (instr.readers, instr.cmps);
                            wake_rows(fanout, &tape.cmps, readers, cmps, old, v, |r| {
                                mark(dirty, r);
                                if pos >= tail && r as usize <= pos {
                                    reopen = reopen.min(r as usize);
                                }
                            });
                        }
                    }
                    Err(port) if pos < tail => return Err(conflict(port)),
                    Err(port) => {
                        held_back.get_or_insert((pos, port));
                    }
                }
            }
            // A sweep that woke nothing behind itself saw final inputs
            // at every node, so a conflict it met is real.
            if reopen == usize::MAX {
                if let Some((_, port)) = held_back {
                    return Err(conflict(port));
                }
                break;
            }
            if sweeps == 0 {
                return Err(SimError::CombinationalLoop(vec![format!(
                    "fixpoint did not converge in component `{}`",
                    prog.instances[0].component
                )]));
            }
            sweeps -= 1;
            from = held_back.map_or(reopen, |(pos, _)| reopen.min(pos));
        }
        #[cfg(debug_assertions)]
        self.assert_settled::<R>(prog, graph, cycle);
        Ok(())
    }

    /// The self-check behind every settle in a build with debug
    /// assertions: publishing every cell again must change no port, every
    /// node evaluated the way the graph describes it must find the value
    /// stored, with no conflict (a hole nothing reads excepted), and every
    /// busy bit of the tick table must be its cell's. A failure means a tick touched a cell it did not
    /// queue for publishing, a node was not woken when one of its inputs
    /// changed, or the tape computes something else than the graph.
    #[cfg(debug_assertions)]
    fn assert_settled<R: DriverRule>(&mut self, prog: &FlatProgram, graph: &Graph, cycle: u64) {
        let n_ports = self.n_ports;
        prog.publish(&mut self.slots[..n_ports], |port, _, _| {
            panic!("cycle {cycle}: `{}` changed", prog.port_name(port))
        });
        assert!(
            self.table.agrees_with(prog),
            "cycle {cycle}: a busy bit of the tick table is stale"
        );
        let values = &self.slots[..n_ports];
        let guard_slots = &graph.tape.guard_slots;
        let guard_on: Vec<bool> = guard_slots
            .iter()
            .map(|&slot| self.slots[slot as usize] != 0)
            .collect();
        for (pos, &node) in graph.nodes.iter().enumerate() {
            let unread = matches!(node, Node::Drivers { .. })
                && matches!(graph.tape.instrs[pos].op, Op::Alias);
            if unread {
                continue;
            }
            let fresh = reference::<R>(prog, node, values, &guard_on);
            let stored = match (node, fresh) {
                // A guard's value is its slot's truth: a port read as a
                // guard shares the port's.
                (Node::Guard(g), _) => Some(u64::from(guard_on[g.index()])),
                (_, fresh) => fresh.map(|(slot, _)| self.slots[slot]),
            };
            assert!(
                fresh.is_some_and(|(_, v)| Some(v) == stored),
                "cycle {cycle}: the settle missed {node:?} at {pos}: stored {stored:?}, \
                 evaluated {fresh:?}"
            );
        }
    }

    /// The number of dirty nodes.
    #[cfg(test)]
    pub(crate) fn dirty_count(&self) -> usize {
        self.dirty.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The number of cells queued for the next publish.
    #[cfg(test)]
    pub(crate) fn moved_count(&self) -> usize {
        self.moved.len()
    }
}

/// What `node` computes under `values` and the guard values `guard_on`,
/// walked through the program's arenas: the slot it writes and the value,
/// or `None` when its drivers conflict. The oracle the tape is held to.
#[cfg(debug_assertions)]
fn reference<R: DriverRule>(
    prog: &FlatProgram,
    node: Node,
    values: &[u64],
    guard_on: &[bool],
) -> Option<(usize, u64)> {
    use super::{eval_atom, eval_guard_node};
    match node {
        Node::Guard(g) => {
            let on = eval_guard_node(prog.guards[g], values, guard_on);
            Some((values.len() + g.index(), u64::from(on)))
        }
        Node::Drivers { dst, asgns } => {
            let mut held = None;
            for a in prog.assigns.range(asgns) {
                if guard_on[a.guard.index()] {
                    let v = eval_atom(a.src, values);
                    if held.is_some_and(|h| R::conflict(h, v)) {
                        return None;
                    }
                    held = Some(v);
                }
            }
            let shown = R::shown(held.unwrap_or(0), prog.ports[dst].width);
            Some((dst.index(), shown))
        }
        Node::Cell(c) => {
            let (port, v) = prog.cells[c].comb_output(&prog.states[c], values)?;
            Some((port.index(), v))
        }
    }
}
