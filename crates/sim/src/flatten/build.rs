//! Construction of the flat IR from a [`Context`].
//!
//! Two flattening modes share one primitive-instantiation path:
//!
//! - [`flatten_control`] lowers a *single* component for the reference
//!   interpreter, keeping groups (each a `go` port that gates its
//!   assignments, and a done condition) and the control tree (as a
//!   [`CtrlNode`] arena). Port slots are created on demand for every
//!   `PortRef` the program mentions — including group holes — which
//!   reproduces the interpreter's historical "unknown ports read as zero"
//!   semantics exactly.
//! - [`flatten_design`] elaborates a *lowered* hierarchy for the RTL
//!   engine. Subcomponent instances are elaborated in place: a cell's
//!   ports and the child component's `this` ports are the same arena
//!   slots, so hierarchy costs nothing at simulation time.
//!
//! Both end in [`build_graph`]: all drivers of one port are grouped into
//! a contiguous assignment range; those driver nodes, the interned guards
//! and the combinational cells are sorted once, and the graph that was
//! sorted is kept as the fan-out table.

use super::index::{
    CellIdx, CtrlIdx, FlatIdx, GroupIdx, GuardIdx, IndexRange, IndexedMap, PortIdx,
};
use super::{
    sort_nodes, CtrlNode, FlatAssign, FlatAtom, FlatCell, FlatCellKind, FlatControl, FlatDesign,
    FlatGroup, FlatGuard, FlatProgram, Graph, Node, PortData,
};
use crate::error::{SimError, SimResult};
use crate::prim::{CombOp, PrimState, UnitOp};
use calyx_core::ir::{
    Atom, CellType, Context, Control, Direction, Guard, GuardMemo, Id, PortParent, PortRef,
};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// How a flattening mode turns a primitive's port names into arena slots.
trait PortResolver {
    /// The slot for port `name` of the cell being instantiated.
    fn port(&mut self, name: &str) -> SimResult<PortIdx>;
    /// The declared width of an already-resolved slot.
    fn width(&self, port: PortIdx) -> u32;
}

/// Build the behavioral model of one primitive instance. Shared between
/// both flattening modes; only port-name resolution differs.
fn instantiate_primitive<R: PortResolver>(
    prim: &str,
    params: &[u64],
    r: &mut R,
) -> SimResult<(FlatCellKind, PrimState)> {
    let width = params.first().copied().unwrap_or(1) as u32;
    if let Some(op) = CombOp::from_name(prim) {
        let (left, right) = if op.is_binary() {
            (r.port("left")?, Some(r.port("right")?))
        } else {
            (r.port("in")?, None)
        };
        let out = r.port("out")?;
        let out_width = r.width(out);
        // Combinational primitives carry no state; a zero-width register
        // placeholder keeps the state arena index-aligned with cells.
        return Ok((
            FlatCellKind::Comb {
                op,
                left,
                right,
                out,
                in_width: width,
                out_width,
            },
            PrimState::Reg {
                val: 0,
                done: false,
                width: 0,
            },
        ));
    }
    match prim {
        "std_reg" => Ok((
            FlatCellKind::Reg {
                input: r.port("in")?,
                write_en: r.port("write_en")?,
                out: r.port("out")?,
                done: r.port("done")?,
            },
            PrimState::Reg {
                val: 0,
                done: false,
                width,
            },
        )),
        "std_mem_d1" | "std_mem_d2" | "std_mem_d3" => {
            let ndims = match prim {
                "std_mem_d1" => 1,
                "std_mem_d2" => 2,
                _ => 3,
            };
            let dims: Vec<u64> = params[1..=ndims].to_vec();
            let size: u64 = dims.iter().product();
            let addrs = (0..ndims)
                .map(|i| r.port(&format!("addr{i}")))
                .collect::<SimResult<Vec<_>>>()?;
            Ok((
                FlatCellKind::Mem {
                    addrs,
                    write_data: r.port("write_data")?,
                    write_en: r.port("write_en")?,
                    read_data: r.port("read_data")?,
                    done: r.port("done")?,
                },
                PrimState::Mem {
                    data: vec![0; size as usize],
                    dims,
                    done: false,
                    width,
                },
            ))
        }
        "std_mult_pipe" | "std_div_pipe" | "std_sqrt" => {
            let (op, left, right, out, out2) = match prim {
                "std_mult_pipe" => (
                    UnitOp::Mult,
                    r.port("left")?,
                    r.port("right")?,
                    r.port("out")?,
                    None,
                ),
                "std_div_pipe" => (
                    UnitOp::Div,
                    r.port("left")?,
                    r.port("right")?,
                    r.port("out_quotient")?,
                    Some(r.port("out_remainder")?),
                ),
                _ => {
                    let input = r.port("in")?;
                    (UnitOp::Sqrt, input, input, r.port("out")?, None)
                }
            };
            Ok((
                FlatCellKind::Unit {
                    left,
                    right,
                    go: r.port("go")?,
                    out,
                    out2,
                    done: r.port("done")?,
                },
                PrimState::Unit {
                    op,
                    operands: (0, 0),
                    remaining: None,
                    out: 0,
                    out2: 0,
                    done: false,
                    width,
                },
            ))
        }
        other => Err(SimError::Elaboration(format!(
            "primitive `{other}` has no behavioral model"
        ))),
    }
}

/// Flatten an atom, resolving a port through `resolve`.
fn flat_atom(
    atom: &Atom,
    resolve: &mut impl FnMut(&PortRef) -> SimResult<PortIdx>,
) -> SimResult<FlatAtom> {
    Ok(match atom {
        Atom::Port(p) => FlatAtom::Port(resolve(p)?),
        Atom::Const { val, .. } => FlatAtom::Const(*val),
    })
}

/// Interns [`ir::Guard`](Guard)s into a program's guard arena — the one
/// place a guard becomes [`FlatGuard`] nodes; only port resolution
/// differs between the flattening modes.
///
/// Nodes are hash-consed through `cons`: children are interned before
/// parents, so equal subtrees hit the same child indices and dedup
/// structurally. The FSM-state comparisons lowering stamps onto every
/// assignment of a state thus share one node, which is one node of the
/// RTL engine's sorted graph: evaluated once when `fsm.out` changes,
/// whatever the number of assignments that test it. Sharing cannot change
/// a value: a node is a pure function of the port valuation.
///
/// Lowering already shares most of those subtrees as one `ir` node, and
/// `done` keeps the index of every shared node interned so far: a second
/// owner finds it by identity, before any port is resolved or node hashed.
/// An index stands for a node *under one port numbering*, so `done` is
/// one per elaborated component instance.
struct GuardInterner<'a> {
    guards: &'a mut IndexedMap<GuardIdx, FlatGuard>,
    cons: &'a mut HashMap<FlatGuard, GuardIdx>,
    done: &'a mut GuardMemo<GuardIdx>,
}

impl GuardInterner<'_> {
    fn intern(
        &mut self,
        guard: &Guard,
        resolve: &mut impl FnMut(&PortRef) -> SimResult<PortIdx>,
    ) -> SimResult<GuardIdx> {
        let node = match guard {
            // `FlatProgram::new` seeds index 0 with the one `True` node.
            Guard::True => return Ok(GuardIdx::new(0)),
            Guard::Port(p) => FlatGuard::Port(resolve(p)?),
            Guard::Not(g) => FlatGuard::Not(self.child(g, resolve)?),
            Guard::And(a, b) => FlatGuard::And(self.child(a, resolve)?, self.child(b, resolve)?),
            Guard::Or(a, b) => FlatGuard::Or(self.child(a, resolve)?, self.child(b, resolve)?),
            Guard::Comp(op, l, r) => {
                FlatGuard::Comp(*op, flat_atom(l, resolve)?, flat_atom(r, resolve)?)
            }
        };
        Ok(cons_guard(self.guards, self.cons, node))
    }

    fn child(
        &mut self,
        node: &Arc<Guard>,
        resolve: &mut impl FnMut(&PortRef) -> SimResult<PortIdx>,
    ) -> SimResult<GuardIdx> {
        if let Some(idx) = self.done.get(node) {
            return Ok(*idx);
        }
        let idx = self.intern(node, resolve)?;
        self.done.insert(node, idx);
        Ok(idx)
    }
}

/// The index of `node`, which is pushed unless an equal node exists.
fn cons_guard(
    guards: &mut IndexedMap<GuardIdx, FlatGuard>,
    cons: &mut HashMap<FlatGuard, GuardIdx>,
    node: FlatGuard,
) -> GuardIdx {
    *cons.entry(node).or_insert_with(|| guards.push(node))
}

/// The assignments seen so far, by the port they drive.
#[derive(Default)]
struct Drivers {
    /// Pending drivers per destination, in push order.
    of: HashMap<PortIdx, Vec<(FlatAtom, GuardIdx)>>,
    /// Destinations in first-seen order, for deterministic node layout.
    order: Vec<PortIdx>,
}

impl Drivers {
    fn push(&mut self, dst: PortIdx, src: FlatAtom, guard: GuardIdx) {
        let entry = self.of.entry(dst).or_default();
        if entry.is_empty() {
            self.order.push(dst);
        }
        entry.push((src, guard));
    }
}

/// Build the evaluation graph of `prog`, whose assignments are `drivers`
/// (the assignment arena is filled here): one node per driven port, per
/// combinational cell or memory read port, and per interned guard,
/// sorted. A structural cycle is an error unless `cyclic`.
fn build_graph(prog: &mut FlatProgram, mut drivers: Drivers, cyclic: bool) -> SimResult<Graph> {
    // Pack each destination's drivers into a contiguous assignment range.
    let mut nodes = Vec::new();
    for dst in drivers.order {
        let asgns = drivers.of.remove(&dst).expect("ordered driver exists");
        let start = prog.assigns.next_idx();
        for (src, guard) in asgns {
            prog.assigns.push(FlatAssign { dst, src, guard });
        }
        nodes.push(Node::Drivers {
            dst,
            asgns: IndexRange::new(start, prog.assigns.next_idx()),
        });
    }
    for (ci, cell) in prog.cells.enumerate() {
        if matches!(
            cell.kind,
            FlatCellKind::Comb { .. } | FlatCellKind::Mem { .. }
        ) {
            nodes.push(Node::Cell(ci));
        }
    }
    // Guards go last, so that the paths a combinational loop is reported
    // by (the stuck nodes, in this order) stay the ports and cells.
    nodes.extend(prog.guards.keys().map(Node::Guard));

    let mut graph = sort_nodes(&nodes, prog, cyclic)?;

    // Repack assignments into *evaluation* order. The packing above is
    // destination-discovery order; a settle visits nodes in sorted order,
    // so after repacking it reads the assignments it needs front to back.
    // Guards stay in interning order: hash-consing shares subtrees across
    // assignments, and each is one node of the graph whatever its index.
    let mut assigns = IndexedMap::new();
    for node in &mut graph.nodes {
        if let Node::Drivers { asgns, .. } = node {
            let start = assigns.next_idx();
            for ai in asgns.iter() {
                assigns.push(prog.assigns[ai]);
            }
            *asgns = IndexRange::new(start, assigns.next_idx());
        }
    }
    prog.assigns = assigns;
    Ok(graph)
}

// ---------------------------------------------------------------------------
// Single-component flattening for the interpreter.
// ---------------------------------------------------------------------------

struct ControlFlattener {
    prog: FlatProgram,
    port_map: HashMap<PortRef, PortIdx>,
    /// Hash-consing table of [`GuardInterner`].
    cons: HashMap<FlatGuard, GuardIdx>,
    /// The shared guards interned so far.
    interned: GuardMemo<GuardIdx>,
    drivers: Drivers,
    /// The stateful primitives' outputs, which hold for a whole cycle.
    held: HashSet<PortIdx>,
    groups: super::IndexedMap<GroupIdx, FlatGroup>,
    group_map: HashMap<Id, GroupIdx>,
    ctrl: super::IndexedMap<CtrlIdx, CtrlNode>,
    cell_index: HashMap<Id, CellIdx>,
}

/// The slot for `port`, allocating one with `width` on first mention.
/// Takes the two tables apart from the flattener so that guard interning
/// can allocate slots while it holds the guard arena.
fn slot_of(
    ports: &mut IndexedMap<PortIdx, PortData>,
    port_map: &mut HashMap<PortRef, PortIdx>,
    port: PortRef,
    width: u32,
) -> PortIdx {
    *port_map.entry(port).or_insert_with(|| {
        ports.push(PortData {
            width,
            path: port.to_string(),
        })
    })
}

impl ControlFlattener {
    fn port_of(&mut self, port: PortRef, width: u32) -> PortIdx {
        slot_of(&mut self.prog.ports, &mut self.port_map, port, width)
    }

    /// Flatten `asgn`, which is active while `go` is: a group's `go`
    /// guard, or the `True` node for a continuous assignment. Returns the
    /// assignment's own guard and its source.
    fn assign_of(
        &mut self,
        asgn: &calyx_core::ir::Assignment,
        go: GuardIdx,
    ) -> SimResult<(GuardIdx, FlatAtom)> {
        let dst = self.port_of(asgn.dst, 1);
        let Self {
            prog,
            port_map,
            cons,
            interned,
            ..
        } = self;
        // Ports the program never declared still get a (1-bit) slot.
        let mut resolve = |p: &PortRef| Ok(slot_of(&mut prog.ports, port_map, *p, 1));
        let src = flat_atom(&asgn.src, &mut resolve)?;
        let guard = GuardInterner {
            guards: &mut prog.guards,
            cons,
            done: interned,
        }
        .intern(&asgn.guard, &mut resolve)?;
        let t = prog.true_guard();
        let gated = match (go == t, guard == t) {
            (true, _) => guard,
            (false, true) => go,
            (false, false) => cons_guard(&mut prog.guards, cons, FlatGuard::And(go, guard)),
        };
        self.drivers.push(dst, src, gated);
        Ok((guard, src))
    }

    /// Add group `name`, active while `go` is high.
    fn add_group(
        &mut self,
        name: Id,
        go: PortIdx,
        done_writes: Vec<(GuardIdx, FlatAtom)>,
    ) -> GroupIdx {
        let held = |atom: FlatAtom| atom.port().is_none_or(|p| self.held.contains(&p));
        let done_from_state = done_writes
            .iter()
            .all(|&(guard, src)| held(src) && guard_reads_only(&self.prog.guards, guard, &held));
        let g = self.groups.push(FlatGroup {
            name,
            go,
            done_writes,
            done_from_state,
        });
        self.group_map.insert(name, g);
        g
    }

    /// A fresh `go` port for group `name`. A slot of its own: whatever
    /// the program does with the hole `name[go]`, only the interpreter
    /// writes this one.
    fn go_port(&mut self, name: Id) -> PortIdx {
        self.prog.ports.push(PortData {
            width: 1,
            path: PortRef::hole(name, "go").to_string(),
        })
    }

    /// The group's index; unknown names get an empty placeholder, which
    /// (like the tree-walking interpreter) never signals done.
    fn group_of(&mut self, name: Id) -> GroupIdx {
        match self.group_map.get(&name) {
            Some(&g) => g,
            None => {
                let go = self.go_port(name);
                self.add_group(name, go, Vec::new())
            }
        }
    }

    fn ctrl_of(&mut self, stmt: &Control) -> CtrlIdx {
        let node = match stmt {
            Control::Empty => CtrlNode::Empty,
            Control::Enable { group, .. } => CtrlNode::Enable {
                group: self.group_of(*group),
            },
            Control::Seq { stmts, .. } => CtrlNode::Seq {
                children: stmts.iter().map(|s| self.ctrl_of(s)).collect(),
            },
            Control::Par { stmts, .. } => CtrlNode::Par {
                children: stmts.iter().map(|s| self.ctrl_of(s)).collect(),
            },
            Control::If {
                port,
                cond,
                tbranch,
                fbranch,
                ..
            } => {
                let port = self.port_of(*port, 1);
                let cond = cond.map(|c| self.group_of(c));
                let tbranch = self.ctrl_of(tbranch);
                let fbranch = self.ctrl_of(fbranch);
                CtrlNode::If {
                    port,
                    cond,
                    tbranch,
                    fbranch,
                }
            }
            Control::While {
                port, cond, body, ..
            } => {
                let port = self.port_of(*port, 1);
                let cond = cond.map(|c| self.group_of(c));
                let body = self.ctrl_of(body);
                CtrlNode::While { port, cond, body }
            }
        };
        self.ctrl.push(node)
    }
}

struct CellPortResolver<'a> {
    f: &'a mut ControlFlattener,
    cell: Id,
    width: u32,
}

impl PortResolver for CellPortResolver<'_> {
    fn port(&mut self, name: &str) -> SimResult<PortIdx> {
        // Ports missing from the cell's declaration are allocated with the
        // primitive's data width — the interpreter never errors on them.
        Ok(self.f.port_of(PortRef::cell(self.cell, name), self.width))
    }

    fn width(&self, port: PortIdx) -> u32 {
        self.f.prog.ports[port].width
    }
}

/// Flatten component `top` of `ctx` for the reference interpreter.
///
/// # Errors
///
/// Returns [`SimError::Elaboration`] when the component does not exist,
/// instantiates other components, or uses unmodeled primitives.
pub fn flatten_control(ctx: &Context, top: &str) -> SimResult<FlatControl> {
    let comp = ctx
        .components
        .get(Id::new(top))
        .ok_or_else(|| SimError::Elaboration(format!("no component `{top}`")))?;

    let mut f = ControlFlattener {
        prog: FlatProgram::new(comp.name),
        port_map: HashMap::new(),
        cons: HashMap::new(),
        interned: GuardMemo::default(),
        drivers: Drivers::default(),
        held: HashSet::new(),
        groups: super::IndexedMap::new(),
        group_map: HashMap::new(),
        ctrl: super::IndexedMap::new(),
        cell_index: HashMap::new(),
    };

    // Interface ports.
    for pd in &comp.signature {
        f.port_of(PortRef::this(pd.name), pd.width);
    }
    let go = f.port_of(PortRef::this("go"), 1);

    // Cells: allocate declared ports at their declared widths, then wire
    // up the behavioral model.
    for cell in comp.cells.iter() {
        match &cell.prototype {
            CellType::Component { name } => {
                return Err(SimError::Elaboration(format!(
                    "interpreter does not support component instances (`{}` of `{name}`); \
                     lower and use the RTL simulator",
                    cell.name
                )))
            }
            CellType::Primitive { name, params } => {
                for pd in &cell.ports {
                    f.port_of(PortRef::cell(cell.name, pd.name), pd.width);
                }
                let width = params.first().copied().unwrap_or(1) as u32;
                let (kind, state) = {
                    let mut r = CellPortResolver {
                        f: &mut f,
                        cell: cell.name,
                        width,
                    };
                    instantiate_primitive(name.as_str(), params, &mut r)?
                };
                f.held.extend(held_outputs(&kind).into_iter().flatten());
                let ci = f.prog.cells.push(FlatCell {
                    path: cell.name.to_string(),
                    kind,
                });
                f.prog.states.push(state);
                f.cell_index.insert(cell.name, ci);
            }
        }
    }

    let always = f.prog.true_guard();
    for asgn in &comp.continuous {
        f.assign_of(asgn, always)?;
    }
    for group in comp.groups.iter() {
        let go = f.go_port(group.name);
        let go_guard = cons_guard(&mut f.prog.guards, &mut f.cons, FlatGuard::Port(go));
        let done_hole = group.done_hole();
        let mut done_writes = Vec::new();
        for asgn in &group.assignments {
            let own = f.assign_of(asgn, go_guard)?;
            if asgn.dst == done_hole {
                done_writes.push(own);
            }
        }
        f.add_group(group.name, go, done_writes);
    }

    let root = f.ctrl_of(&comp.control);

    let graph = build_graph(&mut f.prog, f.drivers, true)?;

    Ok(FlatControl {
        prog: f.prog,
        graph,
        go,
        groups: f.groups,
        ctrl: f.ctrl,
        root,
        cell_index: f.cell_index,
    })
}

/// The outputs of a stateful primitive: what `publish` writes, and
/// nothing else does until the next cycle.
fn held_outputs(kind: &FlatCellKind) -> [Option<PortIdx>; 3] {
    match kind {
        FlatCellKind::Reg { out, done, .. } => [Some(*out), Some(*done), None],
        FlatCellKind::Mem { done, .. } => [Some(*done), None, None],
        FlatCellKind::Unit {
            out, out2, done, ..
        } => [Some(*out), *out2, Some(*done)],
        FlatCellKind::Comb { .. } => [None; 3],
    }
}

/// Whether every atom guard `g` reads satisfies `ok`.
fn guard_reads_only(
    guards: &IndexedMap<GuardIdx, FlatGuard>,
    g: GuardIdx,
    ok: &impl Fn(FlatAtom) -> bool,
) -> bool {
    match guards[g] {
        FlatGuard::True => true,
        FlatGuard::Port(p) => ok(FlatAtom::Port(p)),
        FlatGuard::Not(a) => guard_reads_only(guards, a, ok),
        FlatGuard::And(a, b) | FlatGuard::Or(a, b) => {
            guard_reads_only(guards, a, ok) && guard_reads_only(guards, b, ok)
        }
        FlatGuard::Comp(_, l, r) => ok(l) && ok(r),
    }
}

// ---------------------------------------------------------------------------
// Hierarchy elaboration for the RTL engine.
// ---------------------------------------------------------------------------

struct DesignFlattener<'a> {
    ctx: &'a Context,
    prog: FlatProgram,
    cell_index: HashMap<String, CellIdx>,
    drivers: Drivers,
    /// Hash-consing table of [`GuardInterner`].
    cons: HashMap<FlatGuard, GuardIdx>,
}

struct DeclaredPortResolver<'a> {
    ports: &'a super::IndexedMap<PortIdx, PortData>,
    map: &'a HashMap<Id, PortIdx>,
    prim: &'a str,
}

impl PortResolver for DeclaredPortResolver<'_> {
    fn port(&mut self, name: &str) -> SimResult<PortIdx> {
        self.map.get(&Id::new(name)).copied().ok_or_else(|| {
            SimError::Elaboration(format!("primitive `{}` missing port `{name}`", self.prim))
        })
    }

    fn width(&self, port: PortIdx) -> u32 {
        self.ports[port].width
    }
}

fn resolve_port(
    port: &PortRef,
    cell_ports: &HashMap<Id, HashMap<Id, PortIdx>>,
    this_ports: &HashMap<Id, PortIdx>,
    name: Id,
) -> SimResult<PortIdx> {
    match port.parent {
        PortParent::Cell(c) => cell_ports
            .get(&c)
            .and_then(|m| m.get(&port.port))
            .copied()
            .ok_or_else(|| SimError::Elaboration(format!("unresolved port `{port}` in `{name}`"))),
        PortParent::This => this_ports.get(&port.port).copied().ok_or_else(|| {
            SimError::Elaboration(format!("unresolved this-port `{port}` in `{name}`"))
        }),
        PortParent::Group(_) => Err(SimError::Elaboration(format!(
            "hole `{port}` survives in lowered component `{name}`"
        ))),
    }
}

impl DesignFlattener<'_> {
    fn alloc(&mut self, width: u32, path: String) -> PortIdx {
        self.prog.ports.push(PortData { width, path })
    }

    fn elaborate_component(
        &mut self,
        name: Id,
        this_ports: &HashMap<Id, PortIdx>,
        prefix: &str,
    ) -> SimResult<()> {
        let comp = self
            .ctx
            .components
            .get(name)
            .ok_or_else(|| SimError::Elaboration(format!("undefined component `{name}`")))?;
        if !comp.groups.is_empty() || !comp.control.is_empty() {
            return Err(SimError::Elaboration(format!(
                "component `{name}` still has groups/control; run the lowering \
                 pipeline first (or use the interpreter)"
            )));
        }

        // Allocate cell ports; recurse into subcomponents, whose `this`
        // ports alias the cell's slots.
        let mut cell_ports: HashMap<Id, HashMap<Id, PortIdx>> = HashMap::new();
        for cell in comp.cells.iter() {
            let mut map = HashMap::new();
            for pd in &cell.ports {
                let idx = self.alloc(pd.width, format!("{prefix}{}.{}", cell.name, pd.name));
                map.insert(pd.name, idx);
            }
            match &cell.prototype {
                CellType::Primitive {
                    name: prim_name,
                    params,
                } => {
                    let path = format!("{prefix}{}", cell.name);
                    let (kind, state) = {
                        let mut r = DeclaredPortResolver {
                            ports: &self.prog.ports,
                            map: &map,
                            prim: prim_name.as_str(),
                        };
                        instantiate_primitive(prim_name.as_str(), params, &mut r)?
                    };
                    let ci = self.prog.cells.push(FlatCell {
                        path: path.clone(),
                        kind,
                    });
                    self.prog.states.push(state);
                    self.cell_index.insert(path, ci);
                }
                CellType::Component { name: child } => {
                    let child_prefix = format!("{prefix}{}.", cell.name);
                    self.elaborate_component(*child, &map, &child_prefix)?;
                }
            }
            cell_ports.insert(cell.name, map);
        }

        // Resolve assignments into pending driver lists.
        let mut resolve = |p: &PortRef| resolve_port(p, &cell_ports, this_ports, name);
        let mut interner = GuardInterner {
            guards: &mut self.prog.guards,
            cons: &mut self.cons,
            done: &mut GuardMemo::default(),
        };
        for asgn in &comp.continuous {
            let dst = resolve(&asgn.dst)?;
            let src = flat_atom(&asgn.src, &mut resolve)?;
            let guard = interner.intern(&asgn.guard, &mut resolve)?;
            self.drivers.push(dst, src, guard);
        }
        Ok(())
    }
}

/// Elaborate the lowered hierarchy rooted at component `top` into a flat
/// design with topologically sorted evaluation nodes and their fan-out.
///
/// # Errors
///
/// Returns [`SimError::Elaboration`] for un-lowered input, cyclic
/// instantiation, undefined names, or unmodeled primitives;
/// [`SimError::CombinationalLoop`] when the assignment graph is cyclic.
pub fn flatten_design(ctx: &Context, top: &str) -> SimResult<FlatDesign> {
    // Elaboration recurses into instances, so a cycle must be refused
    // before it starts.
    ctx.topological_order()
        .map_err(|e| SimError::Elaboration(e.to_string()))?;
    let top_id = Id::new(top);
    let top_comp = ctx
        .components
        .get(top_id)
        .ok_or_else(|| SimError::Elaboration(format!("no component `{top}`")))?;

    let mut f = DesignFlattener {
        ctx,
        prog: FlatProgram::new(top_id),
        cell_index: HashMap::new(),
        drivers: Drivers::default(),
        cons: HashMap::new(),
    };

    // Top-level interface ports.
    let mut this_ports = HashMap::new();
    let mut top_inputs = HashMap::new();
    for pd in &top_comp.signature {
        let idx = f.alloc(pd.width, format!("{top}.{}", pd.name));
        this_ports.insert(pd.name, idx);
        if pd.direction == Direction::Input {
            top_inputs.insert(pd.name.to_string(), idx);
        }
    }
    let top_go = this_ports[&Id::new("go")];
    let top_done = this_ports[&Id::new("done")];

    f.elaborate_component(top_id, &this_ports, "")?;

    let graph = build_graph(&mut f.prog, f.drivers, false)?;

    Ok(FlatDesign {
        prog: f.prog,
        graph,
        top_go,
        top_done,
        top_inputs,
        cell_index: f.cell_index,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use calyx_core::ir::parse_context;
    use calyx_core::passes;

    const COUNTER: &str = r#"component main() -> () {
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
        }"#;

    #[test]
    fn control_flattening_builds_dense_arenas() {
        let ctx = parse_context(COUNTER).unwrap();
        let flat = flatten_control(&ctx, "main").unwrap();
        assert_eq!(flat.prog.cells.len(), 3);
        assert_eq!(flat.groups.len(), 2);
        assert_eq!(flat.prog.assigns.len(), 8);
        // Each group records exactly one done write, over state alone,
        // and gates every assignment it owns with its `go` port.
        for g in flat.groups.iter() {
            assert_eq!(g.done_writes.len(), 1);
            assert!(g.done_from_state);
            assert_eq!(flat.prog.ports[g.go].path, format!("{}[go]", g.name));
        }
        let go_guards = flat.groups.iter().map(|g| FlatGuard::Port(g.go));
        let go_guards: Vec<FlatGuard> = go_guards.collect();
        for a in flat.prog.assigns.iter() {
            assert!(go_guards.contains(&flat.prog.guards[a.guard]));
        }
        // Nothing here is cyclic: the whole graph is sorted.
        assert_eq!(flat.graph.tail_start, flat.graph.nodes.len());
        // The control tree flattened to while(enable).
        assert!(matches!(flat.ctrl[flat.root], CtrlNode::While { .. }));
    }

    #[test]
    fn design_flattening_topo_sorts_nodes() {
        let mut ctx = parse_context(COUNTER).unwrap();
        passes::lower_pipeline().run(&mut ctx).unwrap();
        let flat = flatten_design(&ctx, "main").unwrap();
        // Every driven port appears in exactly one Drivers node, and the
        // order respects combinational dependencies: a node reading port p
        // runs after the node producing p.
        let mut produced_at = vec![usize::MAX; flat.prog.ports.len()];
        for (i, node) in flat.graph.nodes.iter().enumerate() {
            if let Node::Drivers { dst, .. } = node {
                assert_eq!(
                    produced_at[dst.index()],
                    usize::MAX,
                    "duplicate driver node"
                );
                produced_at[dst.index()] = i;
            }
            if let Node::Cell(c) = node {
                if let FlatCellKind::Comb { out, .. } = flat.prog.cells[*c].kind {
                    produced_at[out.index()] = i;
                }
            }
        }
        for (i, node) in flat.graph.nodes.iter().enumerate() {
            if let Node::Drivers { asgns, .. } = node {
                for ai in asgns.iter() {
                    if let FlatAtom::Port(p) = flat.prog.assigns[ai].src {
                        let at = produced_at[p.index()];
                        if at != usize::MAX {
                            assert!(at < i, "value read before production");
                        }
                    }
                }
            }
        }
    }

    /// The lowered gemm kernel: guards of every shape, memories, units.
    fn lowered_gemm() -> FlatDesign {
        let gemm = calyx_polybench::kernel("gemm").unwrap();
        let (_, mut ctx) = calyx_polybench::compile_kernel(gemm, 4, 1).unwrap();
        passes::lower_pipeline().run(&mut ctx).unwrap();
        flatten_design(&ctx, "main").unwrap()
    }

    #[test]
    fn fan_out_lists_every_reader_and_only_later_positions() {
        let flat = lowered_gemm();
        let prog = &flat.prog;
        let Graph { nodes, fanout, .. } = &flat.graph;
        let mut guard_nodes = 0;
        for (pos, node) in nodes.iter().enumerate() {
            let pos = pos as u32;
            // Whatever the node produces is read only further on, so one
            // ascending scan of the dirty set settles a cycle.
            let readers = match *node {
                Node::Guard(g) => fanout.of_guard(g),
                Node::Drivers { dst, .. } => fanout.of_port(dst),
                Node::Cell(c) => match prog.cells[c].kind {
                    FlatCellKind::Comb { out, .. } => fanout.of_port(out),
                    FlatCellKind::Mem { read_data, .. } => fanout.of_port(read_data),
                    _ => panic!("stateful cell as a node"),
                },
            };
            assert!(readers.iter().all(|&r| r > pos), "{node:?} at {pos}");

            // And the node is listed by everything it reads (worked out
            // here from the arenas, not from the graph's own walk).
            let mut ports = Vec::new();
            let mut guards = Vec::new();
            match *node {
                Node::Guard(g) => {
                    guard_nodes += 1;
                    match prog.guards[g] {
                        FlatGuard::True => {}
                        FlatGuard::Port(p) => ports.push(p),
                        FlatGuard::Not(a) => guards.push(a),
                        FlatGuard::And(a, b) | FlatGuard::Or(a, b) => guards.extend([a, b]),
                        FlatGuard::Comp(_, l, r) => {
                            ports.extend([l, r].into_iter().filter_map(FlatAtom::port))
                        }
                    }
                }
                Node::Drivers { asgns, .. } => {
                    for a in prog.assigns.range(asgns) {
                        ports.extend(a.src.port());
                        guards.push(a.guard);
                    }
                }
                Node::Cell(c) => match &prog.cells[c].kind {
                    FlatCellKind::Comb { left, right, .. } => {
                        ports.push(*left);
                        ports.extend(*right);
                    }
                    FlatCellKind::Mem { addrs, .. } => {
                        ports.extend(addrs);
                        assert_eq!(fanout.of_memory(c), [pos]);
                    }
                    _ => unreachable!(),
                },
            }
            for p in ports {
                assert!(fanout.of_port(p).contains(&pos), "{node:?} reads {p:?}");
            }
            for g in guards {
                assert!(fanout.of_guard(g).contains(&pos), "{node:?} reads {g:?}");
            }
        }
        // Every interned guard is a node, once.
        assert_eq!(guard_nodes, prog.guards.len());
    }

    #[test]
    fn shared_guard_is_one_node_feeding_both_drivers() {
        // `r.in` and `r.write_en` test the same comparison: hash-consing
        // makes it one guard, so it is one node with one dirty bit, run
        // once when `c.out` changes however many assignments wait on it.
        let ctx = parse_context(
            r#"component main() -> () {
              cells { c = std_reg(2); r = std_reg(8); }
              wires {
                r.in = c.out == 2'd1 ? 8'd5;
                r.write_en = c.out == 2'd1 ? 1'd1;
                done = r.done ? 1'd1;
              }
              control {}
            }"#,
        )
        .unwrap();
        let flat = flatten_design(&ctx, "main").unwrap();
        // The position of the one node `wanted` picks.
        fn position(flat: &FlatDesign, wanted: impl Fn(&Node) -> bool) -> u32 {
            let mut hits = (0u32..).zip(&flat.graph.nodes).filter(|(_, n)| wanted(n));
            let (pos, _) = hits.next().expect("node exists");
            assert!(hits.next().is_none(), "node appears twice");
            pos
        }
        let driver = |path: &str| {
            let mut asgns = flat.prog.assigns.iter();
            asgns.find(|a| flat.prog.ports[a.dst].path == path).unwrap()
        };
        let shared = driver("r.in").guard;
        assert_eq!(driver("r.write_en").guard, shared);
        assert!(matches!(flat.prog.guards[shared], FlatGuard::Comp(..)));
        position(&flat, |n| matches!(n, Node::Guard(g) if *g == shared));
        let drives = |path: &str| {
            position(
                &flat,
                |n| matches!(n, Node::Drivers { dst, .. } if flat.prog.ports[*dst].path == path),
            )
        };
        let mut readers = flat.graph.fanout.of_guard(shared).to_vec();
        readers.sort_unstable();
        let mut expected = vec![drives("r.in"), drives("r.write_en")];
        expected.sort_unstable();
        assert_eq!(readers, expected);
    }

    #[test]
    fn unknown_ports_get_slots_instead_of_errors() {
        // The interpreter's historical behavior: reads of never-driven,
        // never-declared ports yield zero rather than an elaboration error.
        let ctx = parse_context(
            r#"component main() -> () {
              cells { r = std_reg(8); }
              wires { group g { r.in = 8'd1; r.write_en = 1'd1; g[done] = r.done; } }
              control { g; }
            }"#,
        )
        .unwrap();
        let flat = flatten_control(&ctx, "main").unwrap();
        // go + signature + r's declared ports + the group hole all have slots.
        assert!(flat.prog.ports.len() >= 5);
        assert_eq!(flat.groups[GroupIdx::new(0)].done_writes.len(), 1);
    }

    #[test]
    fn control_guards_are_hash_consed() {
        // Three assignments under structurally equal guards, one under a
        // guard that shares a subtree with them, one unguarded.
        let ctx = parse_context(
            r#"component main() -> () {
              cells { r = std_reg(8); s = std_reg(8); lt = std_lt(8); }
              wires {
                group g {
                  r.in = lt.out & !r.done ? 8'd1;
                  r.write_en = lt.out & !r.done ? 1'd1;
                  s.in = lt.out & !r.done ? 8'd2;
                  s.write_en = !r.done ? 1'd1;
                  g[done] = r.done;
                }
              }
              control { g; }
            }"#,
        )
        .unwrap();
        let flat = flatten_control(&ctx, "main").unwrap();
        let guards = &flat.prog.guards;
        // The guard of the assignment to `path`, under its group's `go`.
        let guard = |path: &str| {
            let mut asgns = flat.prog.assigns.iter();
            let a = asgns.find(|a| flat.prog.ports[a.dst].path == path).unwrap();
            let FlatGuard::And(go, own) = guards[a.guard] else {
                panic!("`{path}` is not gated: {:?}", guards[a.guard]);
            };
            assert_eq!(
                guards[go],
                FlatGuard::Port(flat.groups[GroupIdx::new(0)].go)
            );
            own
        };
        assert_eq!(guard("r.in"), guard("r.write_en"));
        assert_eq!(guard("r.in"), guard("s.in"));
        // `!r.done` is the conjunction's right child, not a second copy.
        let not = guard("s.write_en");
        assert!(matches!(guards[guard("r.in")], FlatGuard::And(_, right) if right == not));
        // An unguarded assignment is guarded by `go` itself, and its own
        // guard, `Guard::True`, is the arena's seeded first node.
        let (done_guard, _) = flat.groups[GroupIdx::new(0)].done_writes[0];
        assert_eq!(done_guard, flat.prog.true_guard());
        assert_eq!(done_guard.index(), 0);
        // True, lt.out, r.done, !r.done and the conjunction; `go`, and
        // `go` with each of the two distinct guards: nothing else.
        assert_eq!(guards.len(), 8);
    }

    #[test]
    fn design_guard_arena_is_unchanged_on_lowered_gemm() {
        // The shared interner must cons exactly what `flatten_design`'s
        // own did: 118 is the arena length measured before the two merged.
        assert_eq!(lowered_gemm().prog.guards.len(), 118);
    }
}
