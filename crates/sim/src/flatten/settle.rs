//! The change-driven settle: how the wires of a [`FlatProgram`] reach
//! their values for a cycle, whichever engine is asking.
//!
//! [`Wires`] holds what persists from cycle to cycle — every port's value,
//! every guard's, and one dirty bit per node of the [`Graph`]. A cycle is
//! [`Wires::publish`] (stateful outputs; each that moved marks its
//! readers), whatever the engine itself writes with [`Wires::set`],
//! [`Wires::settle`] and [`Wires::tick`] (each memory written marks its
//! read port). The settle visits the dirty nodes in sorted order, and a node
//! marks its own readers only when its output differs from the stored
//! one. Readers sit later in the order than what they read, so one
//! ascending pass reaches the fixpoint and a node runs at most once.
//!
//! Keeping values is sound because every port has one writer: a stateful
//! output is written by `publish` alone, a combinational output by its
//! cell's node alone, an engine-owned input by `set` alone, and anything
//! else by its one driver node — which also means a port whose drivers
//! all went quiet is written too, with zero.
//!
//! Only the graph's tail ([`Graph::tail_start`]) breaks the order: there
//! a node may wake a reader at a lower position. The settle notes the
//! lowest such reader and sweeps again from it once the pass is over,
//! until a pass wakes nothing behind itself or the budget runs out. Inside
//! the tail a driver conflict may be an artefact of a value that is not
//! final yet, so it is held back until the pass that settles everything
//! else still sees it.

use super::{
    eval_atom, eval_guard_node, CellIdx, FlatAssign, FlatIdx, FlatProgram, Graph, Node, PortIdx,
};
use crate::error::{SimError, SimResult};

/// What an engine makes of the active drivers of one port. The one
/// difference between how the two engines evaluate a node.
pub trait DriverRule {
    /// Whether a second active driver offering `next` is an error, given
    /// that an earlier one offered `held`.
    fn conflict(held: u64, next: u64) -> bool;

    /// What a port `width` bits wide shows of the driven `value`.
    fn shown(value: u64, width: u32) -> u64;
}

/// The valuation of a flat program's wires, kept across cycles.
#[derive(Debug, Clone)]
pub struct Wires {
    /// Port values.
    values: Vec<u64>,
    /// The value of every interned guard. Valid for a guard whose node is
    /// not dirty.
    guard_on: Vec<bool>,
    /// One bit per position in [`Graph::nodes`]: the nodes an input of
    /// which changed since they last ran.
    dirty: Vec<u64>,
}

/// Mark the nodes at `positions` for re-evaluation.
#[inline]
fn mark(dirty: &mut [u64], positions: &[u32]) {
    for &pos in positions {
        dirty[pos as usize / 64] |= 1 << (pos % 64);
    }
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

/// The value the active drivers among `asgns` put on their port, or
/// `None` when two of them conflict.
#[inline]
fn driven<R: DriverRule>(asgns: &[FlatAssign], values: &[u64], guard_on: &[bool]) -> Option<u64> {
    let mut held = None;
    for a in asgns {
        if guard_on[a.guard.index()] {
            let v = eval_atom(a.src, values);
            if held.is_some_and(|h| R::conflict(h, v)) {
                return None;
            }
            held = Some(v);
        }
    }
    Some(held.unwrap_or(0))
}

/// Evaluate the node at `pos` and store its output. Returns the readers
/// of that output when it differs from the stored one, and the port when
/// its drivers conflict.
#[inline]
fn eval_node<'a, R: DriverRule>(
    prog: &FlatProgram,
    graph: &'a Graph,
    values: &mut [u64],
    guard_on: &mut [bool],
    pos: usize,
) -> Result<Option<&'a [u32]>, PortIdx> {
    let (port, value) = match graph.nodes[pos] {
        Node::Guard(g) => {
            let v = eval_guard_node(prog.guards[g], values, guard_on);
            let changed = std::mem::replace(&mut guard_on[g.index()], v) != v;
            return Ok(changed.then(|| graph.fanout.of_guard(g)));
        }
        Node::Drivers { dst, asgns } => {
            let value = driven::<R>(prog.assigns.range(asgns), values, guard_on).ok_or(dst)?;
            (dst, R::shown(value, prog.ports[dst].width))
        }
        Node::Cell(ci) => match prog.cells[ci].comb_output(&prog.states[ci], values) {
            Some(output) => output,
            None => return Ok(None),
        },
    };
    let changed = std::mem::replace(&mut values[port.index()], value) != value;
    Ok(changed.then(|| graph.fanout.of_port(port)))
}

impl Wires {
    /// All ports at zero and every node dirty.
    pub fn new(prog: &FlatProgram, graph: &Graph) -> Self {
        let mut wires = Wires {
            values: vec![0; prog.ports.len()],
            guard_on: vec![false; prog.guards.len()],
            dirty: vec![0; graph.nodes.len().div_ceil(64)],
        };
        wires.mark_all(graph);
        wires
    }

    /// The settled (or, before the first settle, initial) port values.
    #[inline]
    pub fn values(&self) -> &[u64] {
        &self.values
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
        if std::mem::replace(&mut self.values[port.index()], value) != value {
            mark(&mut self.dirty, graph.fanout.of_port(port));
        }
    }

    /// Start a cycle: show the stateful primitives' outputs.
    #[inline]
    pub fn publish(&mut self, prog: &FlatProgram, graph: &Graph) {
        let Wires { values, dirty, .. } = self;
        prog.publish(values, |port| mark(dirty, graph.fanout.of_port(port)));
    }

    /// End a cycle: latch the stateful primitives from the settled values.
    ///
    /// # Errors
    ///
    /// Those of [`FlatProgram::tick`].
    #[inline]
    pub fn tick(&mut self, prog: &mut FlatProgram, graph: &Graph) -> SimResult<()> {
        let Wires { values, dirty, .. } = self;
        prog.tick(values, |mem: CellIdx| {
            mark(dirty, graph.fanout.of_memory(mem))
        })
    }

    /// Evaluate the dirty nodes in sorted order, each marking its readers
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
        let Wires {
            values,
            guard_on,
            dirty,
        } = self;
        let conflict = |port: PortIdx| SimError::DriverConflict {
            port: prog.ports[port].path.clone(),
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
                let readers = eval_node::<R>(prog, graph, values, guard_on, pos);
                let readers = readers.map_err(conflict)?;
                dirty[word] &= dirty[word] - 1;
                mark(dirty, readers.unwrap_or_default());
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
                match eval_node::<R>(prog, graph, values, guard_on, pos) {
                    Ok(readers) => {
                        dirty[pos / 64] &= !(1 << (pos % 64));
                        let readers = readers.unwrap_or_default();
                        mark(dirty, readers);
                        if pos >= tail {
                            let behind = readers.iter().filter(|&&r| r as usize <= pos);
                            reopen = behind.fold(reopen, |low, &r| low.min(r as usize));
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
                    prog.name
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
    /// assertions: publishing again and re-evaluating every node in order
    /// must change no stored value and raise no conflict. A failure means
    /// a node was not marked dirty when one of its inputs changed.
    #[cfg(debug_assertions)]
    fn assert_settled<R: DriverRule>(&mut self, prog: &FlatProgram, graph: &Graph, cycle: u64) {
        prog.publish(&mut self.values, |port| {
            panic!("cycle {cycle}: `{}` changed", prog.ports[port].path)
        });
        for pos in 0..graph.nodes.len() {
            let changed = eval_node::<R>(prog, graph, &mut self.values, &mut self.guard_on, pos);
            assert!(
                matches!(changed, Ok(None)),
                "cycle {cycle}: the settle missed {:?}: {changed:?}",
                graph.nodes[pos]
            );
        }
    }

    /// The number of dirty nodes.
    #[cfg(test)]
    pub(crate) fn dirty_count(&self) -> usize {
        self.dirty.iter().map(|w| w.count_ones() as usize).sum()
    }
}
