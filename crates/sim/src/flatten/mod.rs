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
//!   chains. The elaborator builds it through one hash-consing interner,
//!   so structurally equal subtrees are one node.
//! - **Assignment tables** — assignments are stored contiguously grouped
//!   by the port they drive, so "the drivers of a port" is one
//!   [`IndexRange`].
//! - **Flat control** — [`CtrlNode`]s in an arena with child indices
//!   replace the interpreter's recursive `StmtState` clone-on-advance
//!   machinery.
//!
//! One entry point, [`flatten`], elaborates the component hierarchy for
//! both engines. An instance is elaborated in place (a cell's ports and
//! the child component's `this` ports are the same arena slots), and every
//! instance keeps its groups and its control tree, one root per
//! [`FlatInstance`]; a lowered design simply has none. It ends with the
//! guard/driver/cell [`Node`]s sorted once, the graph that was sorted
//! kept as the [`FanOut`] table the change-driven settle follows, and the
//! sorted nodes lowered into the settle's flat instruction tape
//! ([`Graph`]).
//!
//! # What the machine owns, and what an engine owns
//!
//! A [`FlatProgram`] is more than storage: it is the **cycle machine**
//! both engines run on (`machine.rs`, `settle.rs`). It owns every
//! decision that does not depend on which program form is simulated:
//!
//! - what a stateful primitive shows at the start of a cycle
//!   ([`FlatProgram::publish_cell`], which also tells its caller which
//!   ports changed) and how it latches at the end ([`FlatProgram::tick`],
//!   which latches only the *armed* primitives and tells its caller which
//!   it touched and which memories were written) — the rule that lets a
//!   cycle skip every primitive that would latch to the state it holds;
//! - what a combinational cell or a memory's read port computes from a
//!   valuation ([`FlatCell::comb_output`]);
//! - how the harness loads and reads state by hierarchical cell path
//!   (`pe_0_0.acc`; [`FlatProgram::set_memory`], [`FlatProgram::memory`],
//!   [`FlatProgram::register_value`]), including the rule that an image
//!   longer than its memory is an error;
//! - how a component's pooled guards become [`FlatGuard`] nodes (one
//!   hash-consing interner in `build.rs`, numbering nodes in
//!   first-encounter order from the assignments) and what a finished run
//!   reports
//!   ([`RunStats`]);
//! - how the wires settle in between ([`Wires`]): port and guard values
//!   that persist from cycle to cycle in one slot array, and one scan of
//!   the dirty nodes in sorted order over the tape, each waking its
//!   readers only when its output changed; `Wires` also keeps the
//!   [`TickTable`] a tick scans and the list of cells it touched, which
//!   are all the next publish shows.
//!
//! The cycle loop and the lookups around the machine are one
//! [`Harness`](crate::harness::Harness). An engine owns what drives the
//! machine, and its [`DriverRule`]:
//!
//! - [`crate::rtl`]: a lowered design (it refuses groups, control and a
//!   cyclic graph), the top-level `go`/`done` handshake, and the strict
//!   rule that two active drivers of one port are a conflict whatever they
//!   drive;
//! - [`crate::interp`]: the control walk that picks the active groups and
//!   raises their `go` ports (walked up from a node only when its group
//!   finished or it is a condition without a `with` group, sampled; each
//!   node's parent is [`FlatDesign::ctrl_parent`]), each sub-instance's
//!   `go`/`done` handshake, the done-observation cycle, and the rule that
//!   two active drivers conflict only when their values differ.
//!
//! **Guards are nodes.** Every interned guard is one [`Node::Guard`] of
//! the sorted graph, placed after the producers of the ports it reads and
//! after its child guards, and before every [`Node::Drivers`] that uses
//! it. Its value is stored, so evaluating it is one step over its
//! children's stored values and a `Drivers` node tests a guard by reading
//! one slot (a guard that reads one port is that port's slot). The stored
//! value is right because the sorted order makes every input final before
//! the node runs, and it is kept from cycle to cycle because the node is
//! re-run whenever one of its inputs changes.
//!
//! **Group activity is a port.** The interpreter's view applies the
//! paper's own lowering (§4) at flatten time: each group gets a `go` port
//! ([`FlatGroup::go`]) and each of its assignments the guard `go & guard`,
//! so that all assignments to a port, whatever group owns them, form one
//! `Drivers` node. The control walk activates a group by writing 1 to
//! that port, which wakes the group's assignments through the ordinary
//! port rows of the fan-out table; switching it off wakes them again, and
//! a port nothing drives any more settles to zero.
//!
//! **The interpreter's graph may be cyclic.** Two groups may wire the
//! same combinational cells in opposite orders, which is legal as long as
//! they are never active together. The sort therefore always finishes:
//! what Kahn's algorithm cannot place becomes the graph's *tail*
//! ([`Graph::tail_start`]), which the scan sweeps repeatedly, under a
//! budget, until nothing in it changes. The RTL engine refuses a graph
//! with a tail ([`Graph::cycle`] says why), so its scan is a single pass.

mod build;
pub mod index;
mod machine;
mod settle;

pub use build::flatten;
pub use index::{
    AssignIdx, CellIdx, CtrlIdx, FlatIdx, GroupIdx, GuardIdx, IndexRange, IndexedMap, PortIdx,
};
pub use machine::{RunStats, TickTable};
pub use settle::{DriverRule, Wires};

use crate::prim::PrimState;
use calyx_core::ir::{CompOp, Id, PortRef};
use calyx_core::prim::CombOp;
use rustc_hash::FxHashMap;
use std::sync::OnceLock;

/// A flattened atom: a port slot or a literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlatAtom {
    /// Read the port's settled value.
    Port(PortIdx),
    /// A constant.
    Const(u64),
}

impl FlatAtom {
    /// The port this atom reads, if it is not a literal.
    pub fn port(self) -> Option<PortIdx> {
        match self {
            FlatAtom::Port(p) => Some(p),
            FlatAtom::Const(_) => None,
        }
    }
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

/// Static description of one port slot. It carries no name:
/// [`FlatProgram::port_name`] renders one when an error asks.
#[derive(Debug, Clone, Copy)]
pub struct PortData {
    /// Bit width (used for masking in the RTL engine).
    pub width: u32,
    /// The instance the port belongs to, by position in
    /// [`FlatProgram::instances`].
    pub instance: u32,
    /// The port as that instance's component names it.
    pub port: PortRef,
}

/// How a primitive instance connects to the port arena.
#[derive(Debug, Clone)]
pub enum FlatCellKind {
    /// A [`PrimKind::Comb`](calyx_core::ir::PrimKind::Comb) operator.
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
    /// A [`PrimKind::Reg`](calyx_core::ir::PrimKind::Reg).
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
    /// A [`PrimKind::Mem`](calyx_core::ir::PrimKind::Mem).
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
    /// A [`PrimKind::Unit`](calyx_core::ir::PrimKind::Unit).
    Unit {
        /// Left operand (aliases a one-operand unit's sole input).
        left: PortIdx,
        /// Right operand (aliases a one-operand unit's sole input).
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
    /// The instance it belongs to, by position in
    /// [`FlatProgram::instances`].
    pub instance: u32,
    /// Its name in that instance's component. [`FlatProgram::cell_path`]
    /// renders its path.
    pub name: Id,
    /// Port connections and behavior.
    pub kind: FlatCellKind,
}

impl FlatCell {
    /// Its hierarchical path (`acc`, `pe_0_0.acc`), under `instances`.
    fn path(&self, instances: &[FlatInstance]) -> String {
        format!("{}{}", instances[self.instance as usize].prefix, self.name)
    }
}

/// A group, flattened to the port that activates it and its done
/// condition. Its assignments sit in the [`Node::Drivers`] of the ports
/// they drive, each guarded by `go`.
#[derive(Debug, Clone)]
pub struct FlatGroup {
    /// Group name (diagnostics only).
    pub name: Id,
    /// High while the group is active. Nothing in the program drives it:
    /// the interpreter's control walk writes it.
    pub go: PortIdx,
    /// Guard and source of each write to the group's `done` hole, without
    /// the `go` gate: whether the group would be done does not depend on
    /// its being active.
    pub done_writes: Vec<(GuardIdx, FlatAtom)>,
    /// True when every `done_writes` guard and source reads only
    /// constants and stateful primitives' outputs, which hold for the
    /// whole cycle whichever groups are active.
    pub done_from_state: bool,
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

impl CtrlNode {
    /// Call `f` with each child, in order.
    pub fn for_each_child(&self, mut f: impl FnMut(CtrlIdx)) {
        match self {
            CtrlNode::Empty | CtrlNode::Enable { .. } => {}
            CtrlNode::Seq { children } | CtrlNode::Par { children } => {
                children.iter().copied().for_each(f)
            }
            CtrlNode::If {
                tbranch, fbranch, ..
            } => {
                f(*tbranch);
                f(*fbranch);
            }
            CtrlNode::While { body, .. } => f(*body),
        }
    }
}

/// One elaborated component instance.
#[derive(Debug, Clone)]
pub struct FlatInstance {
    /// Its hierarchical path, as the prefix of its cells' and ports'
    /// names: empty for the top, `pe_0_0.` for its cell `pe_0_0`.
    pub prefix: String,
    /// The component it instantiates.
    pub component: Id,
    /// Its `go` port: the top's is held high for a whole run, a
    /// sub-instance's is the slot its parent drives as `cell.go`.
    pub go: PortIdx,
    /// Its `done` port.
    pub done: PortIdx,
    /// The root of its control tree ([`CtrlNode::Empty`] when lowered).
    pub root: CtrlIdx,
}

/// The arenas shared by both engines.
#[derive(Debug, Clone)]
pub struct FlatProgram {
    /// All port slots.
    pub ports: IndexedMap<PortIdx, PortData>,
    /// Interned guard nodes. Index 0 is always [`FlatGuard::True`].
    pub guards: IndexedMap<GuardIdx, FlatGuard>,
    /// All assignments, grouped contiguously by the port they drive.
    pub assigns: IndexedMap<AssignIdx, FlatAssign>,
    /// All primitive instances.
    pub cells: IndexedMap<CellIdx, FlatCell>,
    /// Initial behavioral state, aligned with `cells` (combinational
    /// cells carry a zero-width placeholder).
    pub states: IndexedMap<CellIdx, PrimState>,
    /// Every elaborated component instance, parents before children: the
    /// top is the first.
    pub instances: Vec<FlatInstance>,
    /// The primitives by instance and name: how the harness's paths
    /// (`acc`, `pe_0_0.acc`) find state. Built when it first asks for a
    /// cell.
    #[allow(clippy::disallowed_types)] // looked up by input text: keep SipHash
    pub(crate) cell_index: OnceLock<std::collections::HashMap<(u32, &'static str), CellIdx>>,
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
            instances: Vec::new(),
            cell_index: Default::default(),
        }
    }

    /// The interned [`FlatGuard::True`] node.
    pub fn true_guard(&self) -> GuardIdx {
        GuardIdx::new(0)
    }

    /// The hierarchical path of cell `ci` (`acc`, `pe_0_0.acc`): its
    /// instance's prefix, then its name.
    pub fn cell_path(&self, ci: CellIdx) -> String {
        self.cells[ci].path(&self.instances)
    }

    /// The name an error gives port `p`: its instance's prefix, then the
    /// port as that instance's component names it (`w.in`, `g[go]`,
    /// `pe_0_0.mul.left`).
    pub fn port_name(&self, p: PortIdx) -> String {
        let PortData { instance, port, .. } = self.ports[p];
        format!("{}{port}", self.instances[instance as usize].prefix)
    }
}

/// One evaluation step of the sorted graph. Every node has
/// at most one output — a guard's value or a port's — and is a pure
/// function of what it reads, so a node whose inputs did not change need
/// not run again.
#[derive(Debug, Clone, Copy)]
pub enum Node {
    /// One interned guard node: a single step over the ports it reads and
    /// its child guards' stored values ([`eval_guard_node`]).
    Guard(GuardIdx),
    /// All assignments driving one port.
    Drivers {
        /// The driven port.
        dst: PortIdx,
        /// Its drivers, contiguous in the assignment arena.
        asgns: IndexRange<AssignIdx>,
    },
    /// A combinational primitive's output function, or a memory's
    /// combinational read port ([`FlatCell::comb_output`]).
    Cell(CellIdx),
}

impl Node {
    /// Call `read` with the [`FanOut`] row of everything this node reads,
    /// once per read.
    fn for_each_read(self, prog: &FlatProgram, rows: Rows, mut read: impl FnMut(usize)) {
        let port = |atom: FlatAtom| atom.port().map(|p| rows.port_row(p));
        match self {
            Node::Guard(g) => match prog.guards[g] {
                FlatGuard::True => {}
                FlatGuard::Port(p) => read(rows.port_row(p)),
                FlatGuard::Not(a) => read(rows.guard_row(a)),
                FlatGuard::And(a, b) | FlatGuard::Or(a, b) => {
                    read(rows.guard_row(a));
                    read(rows.guard_row(b));
                }
                FlatGuard::Comp(_, l, r) => [l, r].into_iter().filter_map(port).for_each(read),
            },
            Node::Drivers { asgns, .. } => {
                for a in prog.assigns.range(asgns) {
                    port(a.src).into_iter().for_each(&mut read);
                    read(rows.guard_row(a.guard));
                }
            }
            Node::Cell(c) => match &prog.cells[c].kind {
                FlatCellKind::Comb { left, right, .. } => {
                    read(rows.port_row(*left));
                    right.iter().for_each(|r| read(rows.port_row(*r)));
                }
                // A read port follows its address and the addressed word.
                FlatCellKind::Mem { addrs, .. } => {
                    addrs.iter().for_each(|a| read(rows.port_row(*a)));
                    read(rows.memory_row(c));
                }
                FlatCellKind::Reg { .. } | FlatCellKind::Unit { .. } => {}
            },
        }
    }

    /// The [`FanOut`] row of what this node produces.
    fn output(self, prog: &FlatProgram, rows: Rows) -> Option<usize> {
        match self {
            Node::Guard(g) => Some(rows.guard_row(g)),
            Node::Drivers { dst, .. } => Some(rows.port_row(dst)),
            Node::Cell(c) => match prog.cells[c].kind {
                FlatCellKind::Comb { out, .. } => Some(rows.port_row(out)),
                FlatCellKind::Mem { read_data, .. } => Some(rows.port_row(read_data)),
                FlatCellKind::Reg { .. } | FlatCellKind::Unit { .. } => None,
            },
        }
    }
}

/// How [`FanOut`] numbers its rows: ports first, then guards, then cells
/// (only a memory's row is ever non-empty).
#[derive(Debug, Clone, Copy)]
struct Rows {
    n_ports: usize,
    n_guards: usize,
}

impl Rows {
    fn port_row(self, p: PortIdx) -> usize {
        p.index()
    }

    fn guard_row(self, g: GuardIdx) -> usize {
        self.n_ports + g.index()
    }

    fn memory_row(self, c: CellIdx) -> usize {
        self.n_ports + self.n_guards + c.index()
    }
}

/// Who reads what: for each port, each guard and each memory's contents,
/// the positions in [`Graph::nodes`] of the nodes that read it. This
/// is the graph the topological sort runs on, kept in compressed sparse
/// rows: row `r` is `readers[starts[r]..starts[r + 1]]`. A node that
/// reads the same thing twice is listed twice.
///
/// Once sorted, the rows are rerouted for the settle: a port read as a
/// guard shares the port's slot, so the guard's readers sit in the
/// port's row and the guard's own node in none, and a comparison of a
/// port with a constant sits in the port's comparison row, which the
/// settle's tape keeps in order of the constant, instead of the port's
/// row.
#[derive(Debug, Clone)]
pub struct FanOut {
    rows: Rows,
    starts: Vec<u32>,
    readers: Vec<u32>,
}

impl FanOut {
    #[inline]
    fn row(&self, r: usize) -> &[u32] {
        &self.readers[self.starts[r] as usize..self.starts[r + 1] as usize]
    }

    /// The nodes that read port `p`.
    #[inline]
    pub fn of_port(&self, p: PortIdx) -> &[u32] {
        self.row(self.rows.port_row(p))
    }

    /// The nodes that read guard `g`'s value.
    #[inline]
    pub fn of_guard(&self, g: GuardIdx) -> &[u32] {
        self.row(self.rows.guard_row(g))
    }

    /// The nodes that read the contents of memory `c`.
    #[inline]
    pub fn of_memory(&self, c: CellIdx) -> &[u32] {
        self.row(self.rows.memory_row(c))
    }

    /// Rewrite the rows for the settle: take every reader at a position
    /// `drop` picks out of every row, and give each port `p` the readers of
    /// the guard `alias[p]` names (`u32::MAX` for none), whose own row is
    /// emptied.
    fn reroute(&mut self, drop: impl Fn(u32) -> bool, alias: &[u32]) {
        let n_ports = self.rows.n_ports;
        let mut emptied = vec![false; self.rows.n_guards];
        for &g in alias.iter().filter(|&&g| g != u32::MAX) {
            emptied[g as usize] = true;
        }
        let mut starts = Vec::with_capacity(self.starts.len());
        let mut readers = Vec::with_capacity(self.readers.len());
        starts.push(0);
        for r in 0..self.starts.len() - 1 {
            let mut keep = |row: &[u32]| readers.extend(row.iter().filter(|&&pos| !drop(pos)));
            if r < n_ports {
                keep(self.row(r));
                if let Some(&g) = alias.get(r).filter(|&&g| g != u32::MAX) {
                    keep(self.row(n_ports + g as usize));
                }
            } else if !emptied.get(r - n_ports).copied().unwrap_or(false) {
                keep(self.row(r));
            }
            starts.push(readers.len() as u32);
        }
        self.starts = starts;
        self.readers = readers;
    }
}

/// The evaluation nodes of a flat program in the order a settle visits
/// them, with the graph that order was derived from.
#[derive(Debug, Clone)]
pub struct Graph {
    /// Evaluation nodes. Up to `tail_start` they are in topological
    /// order.
    pub nodes: Vec<Node>,
    /// The readers of every port, guard and memory, as positions in
    /// `nodes`. A reader of what a node before `tail_start` produces sits
    /// after that node.
    pub fanout: FanOut,
    /// Where the tail begins: the nodes on a structural cycle and
    /// everything downstream of one, which no order makes final in one
    /// pass. `nodes.len()` for an acyclic graph.
    pub tail_start: usize,
    /// What the sort could not place when it first stalled: up to eight
    /// of the ports and cells on or behind a structural cycle, in node
    /// order. Empty exactly when the tail is.
    pub cycle: Vec<String>,
    /// The nodes lowered for the settle.
    tape: settle::Tape,
}

/// A design flattened for either engine: the shared arenas, the sorted
/// graph over every assignment of every instance, and every instance's
/// groups and control tree.
#[derive(Debug, Clone)]
pub struct FlatDesign {
    /// Shared arenas.
    pub prog: FlatProgram,
    /// The evaluation graph over the continuous assignments and every
    /// group's; possibly cyclic.
    pub graph: Graph,
    /// Every instance's groups.
    pub groups: IndexedMap<GroupIdx, FlatGroup>,
    /// Every instance's control tree, each rooted at its
    /// [`FlatInstance::root`].
    pub ctrl: IndexedMap<CtrlIdx, CtrlNode>,
    /// Each control node's parent; `None` for a root.
    pub ctrl_parent: IndexedMap<CtrlIdx, Option<CtrlIdx>>,
    /// The top component's input ports.
    pub top_inputs: FxHashMap<Id, PortIdx>,
}

/// Evaluate an atom against the dense valuation.
#[inline]
pub fn eval_atom(atom: FlatAtom, values: &[u64]) -> u64 {
    match atom {
        FlatAtom::Port(p) => values[p.index()],
        FlatAtom::Const(c) => c,
    }
}

/// Evaluate an interned guard, children included, against the dense
/// valuation. This is how the interpreter asks whether a group's done
/// condition holds: right after `publish`, when the stored guard values
/// are not yet those of this cycle.
///
/// The walk recurses at most `EVAL_DEPTH` (256) nodes deep. Below that
/// it evaluates every guard up to the one it reached in index order,
/// which puts children first (the interner adds a node after its
/// children), so a guard as deep as the input can spell cannot overflow
/// the stack.
#[inline]
pub fn eval_guard(guards: &IndexedMap<GuardIdx, FlatGuard>, g: GuardIdx, values: &[u64]) -> bool {
    match guards[g] {
        FlatGuard::Not(_) | FlatGuard::And(..) | FlatGuard::Or(..) => {
            eval_guard_within(guards, g, values, EVAL_DEPTH)
        }
        leaf => eval_guard_node(leaf, values, &[]),
    }
}

/// How deep [`eval_guard`] recurses before it evaluates in index order.
const EVAL_DEPTH: u32 = 256;

fn eval_guard_within(
    guards: &IndexedMap<GuardIdx, FlatGuard>,
    g: GuardIdx,
    values: &[u64],
    depth: u32,
) -> bool {
    if depth == 0 {
        let mut on = Vec::with_capacity(g.index() + 1);
        for &node in guards.iter().take(g.index() + 1) {
            let value = eval_guard_node(node, values, &on);
            on.push(value);
        }
        return on[g.index()];
    }
    let eval = |g| eval_guard_within(guards, g, values, depth - 1);
    match guards[g] {
        FlatGuard::True => true,
        FlatGuard::Port(p) => values[p.index()] != 0,
        FlatGuard::Not(g) => !eval(g),
        FlatGuard::And(a, b) => eval(a) && eval(b),
        FlatGuard::Or(a, b) => eval(a) || eval(b),
        FlatGuard::Comp(op, l, r) => op.eval(eval_atom(l, values), eval_atom(r, values)),
    }
}

/// Evaluate one guard node against the dense valuation and the stored
/// values of its child guards: the single, non-recursive step a settle
/// takes at a [`Node::Guard`], whose children sit earlier in the sorted
/// order.
#[inline]
pub fn eval_guard_node(node: FlatGuard, values: &[u64], guard_on: &[bool]) -> bool {
    match node {
        FlatGuard::True => true,
        FlatGuard::Port(p) => values[p.index()] != 0,
        FlatGuard::Not(g) => !guard_on[g.index()],
        FlatGuard::And(a, b) => guard_on[a.index()] && guard_on[b.index()],
        FlatGuard::Or(a, b) => guard_on[a.index()] || guard_on[b.index()],
        FlatGuard::Comp(op, l, r) => op.eval(eval_atom(l, values), eval_atom(r, values)),
    }
}

/// Kahn's algorithm over evaluation nodes. Returns them in topological
/// order together with the graph it sorted, re-expressed in sorted
/// positions.
///
/// When the graph is cyclic, the first stall lists (up to eight of) the
/// ports and cells still unplaced as [`Graph::cycle`]; then the sort goes
/// on from the first unplaced node, as often as it stalls, and everything
/// placed from the first stall on is the graph's tail.
///
/// The graph is built once, by counting: one pass sizes every row, a
/// second fills them, and the sort walks the rows of what each finished
/// node produces.
pub(super) fn sort_nodes(nodes: &[Node], prog: &FlatProgram) -> Graph {
    let rows = Rows {
        n_ports: prog.ports.len(),
        n_guards: prog.guards.len(),
    };
    let n_rows = rows.memory_row(prog.cells.next_idx());

    // Row sizes, then row starts.
    let mut starts = vec![0u32; n_rows + 1];
    for node in nodes {
        node.for_each_read(prog, rows, |r| starts[r + 1] += 1);
    }
    for r in 0..n_rows {
        starts[r + 1] += starts[r];
    }

    let mut next = starts.clone();
    let mut readers = vec![0u32; starts[n_rows] as usize];
    for (i, node) in nodes.iter().enumerate() {
        node.for_each_read(prog, rows, |r| {
            readers[next[r] as usize] = i as u32;
            next[r] += 1;
        });
    }
    let mut fanout = FanOut {
        rows,
        starts,
        readers,
    };

    // A node waits for the producer of each thing it reads. A read of
    // what no node produces (a stateful output, a top-level input, a
    // group's `go`, a memory's contents) orders nothing.
    let mut in_degree = vec![0u32; nodes.len()];
    let readers_of = |node: Node| node.output(prog, rows).map_or(&[][..], |r| fanout.row(r));
    for &node in nodes {
        for &d in readers_of(node) {
            in_degree[d as usize] += 1;
        }
    }

    let mut ready: Vec<u32> = (0..nodes.len() as u32)
        .filter(|&i| in_degree[i as usize] == 0)
        .collect();
    let mut sorted = Vec::with_capacity(nodes.len());
    // Where each node landed, to re-express the rows afterwards.
    let mut position = vec![0u32; nodes.len()];
    let mut tail_start = nodes.len();
    let mut cycle = Vec::new();
    // Nodes before this one are placed or ready.
    let mut unplaced = 0;
    loop {
        while let Some(i) = ready.pop() {
            let node = nodes[i as usize];
            position[i as usize] = sorted.len() as u32;
            sorted.push(node);
            for &d in readers_of(node) {
                // A node the sort was forced to go on from waits no more.
                if in_degree[d as usize] > 0 {
                    in_degree[d as usize] -= 1;
                    if in_degree[d as usize] == 0 {
                        ready.push(d);
                    }
                }
            }
        }
        if sorted.len() == nodes.len() {
            break;
        }
        if cycle.is_empty() {
            cycle = nodes
                .iter()
                .zip(&in_degree)
                .filter(|(_, &d)| d > 0)
                .filter_map(|(n, _)| match *n {
                    Node::Drivers { dst, .. } => Some(prog.port_name(dst)),
                    Node::Cell(c) => Some(prog.cell_path(c)),
                    // A guard is stuck only behind a port that is listed.
                    Node::Guard(_) => None,
                })
                .take(8)
                .collect();
        }
        tail_start = tail_start.min(sorted.len());
        while in_degree[unplaced] == 0 {
            unplaced += 1;
        }
        in_degree[unplaced] = 0;
        ready.push(unplaced as u32);
    }
    for reader in &mut fanout.readers {
        *reader = position[*reader as usize];
    }
    Graph {
        nodes: sorted,
        fanout,
        tail_start,
        cycle,
        tape: settle::Tape::default(),
    }
}
