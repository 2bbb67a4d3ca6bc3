//! Flat, arena-indexed simulation IR.
//!
//! Both simulation engines used to walk the tree-shaped
//! [`calyx_core::ir`] structures directly: the interpreter kept port
//! valuations in a `HashMap<PortRef, u64>` (re-hashing every port read)
//! and the RTL engine grew its own ad-hoc `usize` arena with `Box`ed guard
//! trees. This module is the shared replacement: a one-time lowering of a
//! [`Context`](calyx_core::ir::Context) into dense arenas, after which
//! every simulated cycle is pure array indexing.
//!
//! The building blocks (see [`index`]):
//!
//! - **Typed indices** — [`PortIdx`], [`CellIdx`], [`GroupIdx`],
//!   [`AssignIdx`], [`CtrlIdx`], [`GuardIdx`] are 32-bit newtypes into
//!   per-entity arenas, so mixing them up is a type error and a port read
//!   is `values[p.index()]` instead of a hash lookup.
//! - **Interned guards** — guard expressions live in one arena of
//!   [`FlatGuard`] nodes referring to children by [`GuardIdx`]; no `Box`
//!   chains. Both entry points build it through one hash-consing
//!   interner, so structurally equal subtrees are one node.
//! - **Assignment tables** — assignments are stored contiguously grouped
//!   by owner: the continuous block first, then each group's block, so
//!   "the active assignment set" is a handful of [`IndexRange`]s.
//! - **Flat control** — [`CtrlNode`]s in an arena with child indices
//!   replace the interpreter's recursive `StmtState` clone-on-advance
//!   machinery.
//!
//! Two entry points produce engine-specific views over the same arenas:
//! [`flatten_control`] keeps groups and the control tree for the
//! reference interpreter, while [`flatten_design`] elaborates a lowered
//! hierarchy in place (a cell's ports and the child component's `this`
//! ports are the same arena slots) and topologically sorts the resulting
//! driver/primitive nodes for the single-sweep RTL engine.
//!
//! # What the machine owns, and what an engine owns
//!
//! A [`FlatProgram`] is more than storage: it is the **cycle machine**
//! both engines run on (`machine.rs`). It owns every decision that does
//! not depend on how wires are evaluated:
//!
//! - what a stateful primitive shows at the start of a cycle
//!   ([`FlatProgram::publish`]) and how it latches at the end
//!   ([`FlatProgram::tick`]);
//! - what a combinational cell or a memory's read port computes from a
//!   valuation ([`FlatCell::comb_output`]);
//! - how the harness loads and reads state by [`CellIdx`]
//!   ([`FlatProgram::set_memory`], [`FlatProgram::memory`],
//!   [`FlatProgram::register_value`]), including the rule that an image
//!   longer than its memory is an error;
//! - how an `ir::Guard` becomes [`FlatGuard`] nodes (one hash-consing
//!   interner in `build.rs`), and what a finished run reports
//!   ([`RunStats`]).
//!
//! An engine owns only *how it settles a cycle* between `publish` and
//! `tick`, and the driver rule that goes with it:
//!
//! - [`crate::rtl`]: one sweep over the topologically sorted [`Node`]s,
//!   a per-cycle memo of guard values, and the strict rule that two
//!   active drivers of one port are a conflict whatever they drive;
//! - [`crate::interp`]: the control walk that picks the active groups, a
//!   budgeted fixpoint over their assignments with the plain
//!   [`eval_guard`], and the rule that two active drivers conflict only
//!   when their values differ.
//!
//! The guard memo must stay on the RTL side of that line. It caches a
//! node's value for the rest of the cycle, which is sound only because
//! the sweep evaluates a guard after every port it reads is final. In the
//! interpreter's fixpoint a port can still change on a later pass, so a
//! value cached on an early pass would be stale; it re-evaluates every
//! guard on every pass. Hash-consing is safe for both: a shared node is
//! still a pure function of the valuation it is evaluated against.

mod build;
pub mod index;
mod machine;

pub use build::{flatten_control, flatten_design};
pub use index::{
    AssignIdx, CellIdx, CtrlIdx, FlatIdx, GroupIdx, GuardIdx, IndexRange, IndexedMap, PortIdx,
};
pub use machine::RunStats;

use crate::error::{SimError, SimResult};
use crate::prim::{CombOp, PrimState};
use calyx_core::ir::{CompOp, Id};
use std::collections::HashMap;

/// A flattened atom: a port slot or a literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlatAtom {
    /// Read the port's settled value.
    Port(PortIdx),
    /// A constant.
    Const(u64),
}

/// One interned guard node; children are arena indices, not boxes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlatGuard {
    /// Always true.
    True,
    /// True when the port is non-zero.
    Port(PortIdx),
    /// Negation.
    Not(GuardIdx),
    /// Conjunction.
    And(GuardIdx, GuardIdx),
    /// Disjunction.
    Or(GuardIdx, GuardIdx),
    /// An arithmetic comparison between two atoms.
    Comp(CompOp, FlatAtom, FlatAtom),
}

/// A guarded assignment `dst = guard ? src`.
#[derive(Debug, Clone, Copy)]
pub struct FlatAssign {
    /// Destination port slot.
    pub dst: PortIdx,
    /// Value source.
    pub src: FlatAtom,
    /// Activation guard.
    pub guard: GuardIdx,
}

/// Static description of one port slot.
#[derive(Debug, Clone)]
pub struct PortData {
    /// Bit width (used for masking in the RTL engine).
    pub width: u32,
    /// Diagnostic name: `cell.port`, `group[done]`, or a hierarchical
    /// `parent.child.port` path depending on the flattening mode.
    pub path: String,
}

/// How a primitive instance connects to the port arena.
#[derive(Debug, Clone)]
pub enum FlatCellKind {
    /// A combinational operator.
    Comb {
        /// The operation.
        op: CombOp,
        /// Left (or sole) input.
        left: PortIdx,
        /// Right input for binary operators.
        right: Option<PortIdx>,
        /// Output.
        out: PortIdx,
        /// Declared input width.
        in_width: u32,
        /// Declared output width.
        out_width: u32,
    },
    /// A `std_reg`.
    Reg {
        /// Data input.
        input: PortIdx,
        /// Write enable.
        write_en: PortIdx,
        /// Registered output.
        out: PortIdx,
        /// One-cycle done pulse.
        done: PortIdx,
    },
    /// A `std_mem_d1`/`d2`/`d3`.
    Mem {
        /// Address ports, one per dimension.
        addrs: Vec<PortIdx>,
        /// Write data.
        write_data: PortIdx,
        /// Write enable.
        write_en: PortIdx,
        /// Combinational read port.
        read_data: PortIdx,
        /// One-cycle done pulse.
        done: PortIdx,
    },
    /// A latency-sensitive unit (`std_mult_pipe`, `std_div_pipe`,
    /// `std_sqrt`).
    Unit {
        /// Left operand (aliases the sole input for `std_sqrt`).
        left: PortIdx,
        /// Right operand (aliases the sole input for `std_sqrt`).
        right: PortIdx,
        /// Start signal.
        go: PortIdx,
        /// Primary output.
        out: PortIdx,
        /// Secondary output (`out_remainder` for division).
        out2: Option<PortIdx>,
        /// Completion signal.
        done: PortIdx,
    },
}

/// One primitive instance in the flat design.
#[derive(Debug, Clone)]
pub struct FlatCell {
    /// Diagnostic path (`cell` or hierarchical `parent.child`).
    pub path: String,
    /// Port connections and behavior.
    pub kind: FlatCellKind,
}

/// A group flattened to its assignment range.
#[derive(Debug, Clone)]
pub struct FlatGroup {
    /// Group name (diagnostics only).
    pub name: Id,
    /// The group's assignments, contiguous in the assignment arena.
    pub assigns: IndexRange<AssignIdx>,
    /// The subset of `assigns` writing the group's `done` hole.
    pub done_writes: Vec<AssignIdx>,
}

/// A flattened control-tree node. Children are arena indices; the
/// per-node *runtime* state (sequence position, condition phase, …) lives
/// in the interpreter, keeping this description immutable and shareable.
#[derive(Debug, Clone)]
pub enum CtrlNode {
    /// No work.
    Empty,
    /// Run one group until its `done` hole rises.
    Enable {
        /// The enabled group.
        group: GroupIdx,
    },
    /// Run children in order.
    Seq {
        /// Child nodes.
        children: Vec<CtrlIdx>,
    },
    /// Run children concurrently.
    Par {
        /// Child nodes.
        children: Vec<CtrlIdx>,
    },
    /// Evaluate `cond`, sample `port`, run one branch.
    If {
        /// The sampled condition port.
        port: PortIdx,
        /// The `with` group evaluated during the condition phase.
        cond: Option<GroupIdx>,
        /// Taken when `port` is non-zero.
        tbranch: CtrlIdx,
        /// Taken when `port` is zero.
        fbranch: CtrlIdx,
    },
    /// Evaluate `cond`, sample `port`, loop the body while non-zero.
    While {
        /// The sampled condition port.
        port: PortIdx,
        /// The `with` group evaluated during the condition phase.
        cond: Option<GroupIdx>,
        /// Loop body.
        body: CtrlIdx,
    },
}

/// The arenas shared by both engines.
#[derive(Debug, Clone)]
pub struct FlatProgram {
    /// All port slots.
    pub ports: IndexedMap<PortIdx, PortData>,
    /// Interned guard nodes. Index 0 is always [`FlatGuard::True`].
    pub guards: IndexedMap<GuardIdx, FlatGuard>,
    /// All assignments, grouped contiguously by owner.
    pub assigns: IndexedMap<AssignIdx, FlatAssign>,
    /// All primitive instances.
    pub cells: IndexedMap<CellIdx, FlatCell>,
    /// Initial behavioral state, aligned with `cells` (combinational
    /// cells carry a zero-width placeholder).
    pub states: IndexedMap<CellIdx, PrimState>,
}

impl FlatProgram {
    fn new() -> Self {
        let mut guards = IndexedMap::new();
        let t = guards.push(FlatGuard::True);
        debug_assert_eq!(t, GuardIdx::new(0));
        FlatProgram {
            ports: IndexedMap::new(),
            guards,
            assigns: IndexedMap::new(),
            cells: IndexedMap::new(),
            states: IndexedMap::new(),
        }
    }

    /// The interned [`FlatGuard::True`] node.
    pub fn true_guard(&self) -> GuardIdx {
        GuardIdx::new(0)
    }
}

/// Flat view for the reference interpreter: shared arenas plus groups and
/// the flattened control tree of a single component.
#[derive(Debug, Clone)]
pub struct FlatControl {
    /// Shared arenas.
    pub prog: FlatProgram,
    /// The component's name (diagnostics).
    pub comp: Id,
    /// The component's `go` port slot.
    pub go: PortIdx,
    /// The continuous-assignment block.
    pub continuous: IndexRange<AssignIdx>,
    /// All groups.
    pub groups: IndexedMap<GroupIdx, FlatGroup>,
    /// The flattened control tree.
    pub ctrl: IndexedMap<CtrlIdx, CtrlNode>,
    /// Root control node.
    pub root: CtrlIdx,
    /// Cell-name lookup for state inspection.
    pub cell_index: HashMap<Id, CellIdx>,
}

/// One evaluation step of the RTL engine's single combinational sweep.
#[derive(Debug, Clone)]
pub enum Node {
    /// All assignments driving one port.
    Drivers {
        /// The driven port.
        dst: PortIdx,
        /// Its drivers, contiguous in the assignment arena.
        asgns: IndexRange<AssignIdx>,
    },
    /// A combinational primitive's output function.
    Comb(CellIdx),
    /// A memory's combinational read port.
    MemRead(CellIdx),
}

/// Flat view for the RTL engine: shared arenas plus the topologically
/// sorted evaluation nodes of an elaborated (lowered) hierarchy.
#[derive(Debug, Clone)]
pub struct FlatDesign {
    /// Shared arenas.
    pub prog: FlatProgram,
    /// Evaluation nodes in topological order.
    pub nodes: Vec<Node>,
    /// The top component's `go` port.
    pub top_go: PortIdx,
    /// The top component's `done` port.
    pub top_done: PortIdx,
    /// Top-level input ports by name.
    pub top_inputs: HashMap<String, PortIdx>,
    /// Hierarchical-path lookup for state inspection.
    pub cell_index: HashMap<String, CellIdx>,
}

/// Evaluate an atom against the dense valuation.
#[inline]
pub fn eval_atom(atom: FlatAtom, values: &[u64]) -> u64 {
    match atom {
        FlatAtom::Port(p) => values[p.index()],
        FlatAtom::Const(c) => c,
    }
}

/// Evaluate an interned guard against the dense valuation.
#[inline]
pub fn eval_guard(guards: &IndexedMap<GuardIdx, FlatGuard>, g: GuardIdx, values: &[u64]) -> bool {
    match guards[g] {
        FlatGuard::True => true,
        FlatGuard::Port(p) => values[p.index()] != 0,
        FlatGuard::Not(g) => !eval_guard(guards, g, values),
        FlatGuard::And(a, b) => eval_guard(guards, a, values) && eval_guard(guards, b, values),
        FlatGuard::Or(a, b) => eval_guard(guards, a, values) || eval_guard(guards, b, values),
        FlatGuard::Comp(op, l, r) => op.eval(eval_atom(l, values), eval_atom(r, values)),
    }
}

/// Collect every port an interned guard reads.
pub fn guard_reads(guards: &IndexedMap<GuardIdx, FlatGuard>, g: GuardIdx, out: &mut Vec<PortIdx>) {
    match guards[g] {
        FlatGuard::True => {}
        FlatGuard::Port(p) => out.push(p),
        FlatGuard::Not(g) => guard_reads(guards, g, out),
        FlatGuard::And(a, b) | FlatGuard::Or(a, b) => {
            guard_reads(guards, a, out);
            guard_reads(guards, b, out);
        }
        FlatGuard::Comp(_, l, r) => {
            for a in [l, r] {
                if let FlatAtom::Port(p) = a {
                    out.push(p);
                }
            }
        }
    }
}

/// Kahn's algorithm over evaluation nodes; reports a combinational loop
/// by listing (up to eight of) the paths still unresolved.
pub fn topo_sort(nodes: &[Node], prog: &FlatProgram) -> SimResult<Vec<usize>> {
    // Which node produces each port?
    let mut producer: Vec<Option<u32>> = vec![None; prog.ports.len()];
    for (i, node) in nodes.iter().enumerate() {
        let out = match node {
            Node::Drivers { dst, .. } => Some(*dst),
            Node::Comb(c) => match &prog.cells[*c].kind {
                FlatCellKind::Comb { out, .. } => Some(*out),
                _ => None,
            },
            Node::MemRead(c) => match &prog.cells[*c].kind {
                FlatCellKind::Mem { read_data, .. } => Some(*read_data),
                _ => None,
            },
        };
        if let Some(p) = out {
            producer[p.index()] = Some(i as u32);
        }
    }

    let reads_of = |node: &Node, reads: &mut Vec<PortIdx>| match node {
        Node::Drivers { asgns, .. } => {
            for ai in asgns.iter() {
                let a = &prog.assigns[ai];
                if let FlatAtom::Port(p) = a.src {
                    reads.push(p);
                }
                guard_reads(&prog.guards, a.guard, reads);
            }
        }
        Node::Comb(c) => {
            if let FlatCellKind::Comb { left, right, .. } = &prog.cells[*c].kind {
                reads.push(*left);
                if let Some(r) = right {
                    reads.push(*r);
                }
            }
        }
        Node::MemRead(c) => {
            if let FlatCellKind::Mem { addrs, .. } = &prog.cells[*c].kind {
                reads.extend(addrs.iter().copied());
            }
        }
    };

    let mut in_degree = vec![0usize; nodes.len()];
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    let mut reads = Vec::new();
    for (i, node) in nodes.iter().enumerate() {
        reads.clear();
        reads_of(node, &mut reads);
        for &port in &reads {
            if let Some(dep) = producer[port.index()] {
                dependents[dep as usize].push(i);
                in_degree[i] += 1;
            }
        }
    }

    let mut queue: Vec<usize> = (0..nodes.len()).filter(|&i| in_degree[i] == 0).collect();
    let mut order = Vec::with_capacity(nodes.len());
    while let Some(i) = queue.pop() {
        order.push(i);
        for &d in &dependents[i] {
            in_degree[d] -= 1;
            if in_degree[d] == 0 {
                queue.push(d);
            }
        }
    }
    if order.len() != nodes.len() {
        let stuck: Vec<String> = nodes
            .iter()
            .enumerate()
            .filter(|(i, _)| in_degree[*i] > 0)
            .map(|(_, n)| match n {
                Node::Drivers { dst, .. } => prog.ports[*dst].path.clone(),
                Node::Comb(c) | Node::MemRead(c) => prog.cells[*c].path.clone(),
            })
            .take(8)
            .collect();
        return Err(SimError::CombinationalLoop(stuck));
    }
    Ok(order)
}
