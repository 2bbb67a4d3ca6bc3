//! Construction of the flat IR from a [`Context`]: one elaborator for both
//! engines.
//!
//! [`flatten`] walks the instance tree from the top component. A
//! component-typed cell is elaborated in place: the cell's ports *are* the
//! child's `this` ports (the same arena slots), so hierarchy costs nothing
//! at simulation time, and the child's cells are named by their instance
//! path (`pe_0_0.acc`). Every instance keeps its groups — each a `go` port
//! that gates its assignments, its hole slots and a done condition — and
//! its control tree, one root per instance in the shared [`CtrlNode`]
//! arena. A lowered design simply has none; which forms an engine runs is
//! the engine's to decide.
//!
//! A port resolves only to a declared port or a group hole; anything else
//! is an elaboration error (`well-formed` rejects such a program first).
//! Nothing is looked up by `PortRef`: a cell's ports take consecutive
//! slots from a base slot, in declaration order, and a group's two holes
//! and its `go` port three from its own, so a port resolves by the cell's
//! or group's position in its component and the port's position on the
//! cell. No port or cell is named at set-up: [`FlatProgram::port_name`]
//! and [`FlatProgram::cell_path`] render one from the instance prefix when
//! an error asks, and the index of cells by path is built when the
//! harness first asks for a cell by path.
//!
//! Guards come from each component's pool: one interner per instance
//! turns the pool nodes its assignments reach into [`FlatGuard`] nodes,
//! numbered in the order the assignments first reach them.
//!
//! It ends in [`build_graph`]: all drivers of one port are grouped into
//! a contiguous assignment range by counting (one pass sizes every port's
//! range, one places each driver, with no list per port); those driver
//! nodes, the interned guards and the combinational cells are sorted once,
//! the graph that was sorted is kept as the fan-out table, and the sorted
//! nodes are lowered into the settle's tape (`settle.rs`).

use super::index::{
    AssignIdx, CtrlIdx, FlatIdx, GroupIdx, GuardIdx, IndexRange, IndexedMap, PortIdx,
};
use super::settle::Tape;
use super::{
    sort_nodes, CtrlNode, FlatAssign, FlatAtom, FlatCell, FlatCellKind, FlatDesign, FlatGroup,
    FlatGuard, FlatInstance, FlatProgram, Graph, Node, PortData,
};
use crate::error::{SimError, SimResult};
use crate::prim::PrimState;
use calyx_core::ir::{
    Assignment, Atom, CellType, Component, Context, Control, Direction, GuardId, GuardNode,
    GuardPool, Id, PortDef, PortParent, PortRef, PostOrder, PrimKind,
};
use calyx_core::prim::UnitOp;
use rustc_hash::FxHashMap;

/// The most memory words a design may hold, over all its instances: 2^24
/// words, 128 MiB of simulator state. Real designs hold far fewer — the 19
/// PolyBench kernels at n = 8 at most 584 (`doitgen`), the 8×8 systolic
/// array 192 — and a larger declaration is refused before anything is
/// allocated.
const MAX_MEMORY_WORDS: u64 = 1 << 24;

/// Refuse a design whose memories, over every instance of the component
/// hierarchy under `top`, hold more than [`MAX_MEMORY_WORDS`] words.
/// `order` lists children before the components that instantiate them.
fn check_memory_words(ctx: &Context, order: &[Id], top: Id) -> SimResult<()> {
    let mut words: FxHashMap<Id, u64> = FxHashMap::default();
    for &name in order {
        let Some(comp) = ctx.components.get(name) else {
            continue;
        };
        let total = comp.cells.iter().fold(0u64, |total, cell| {
            let cell_words = match &cell.prototype {
                CellType::Primitive { name, params } => match PrimKind::of(*name) {
                    Some(PrimKind::Mem { dims }) => params
                        .iter()
                        .skip(1)
                        .take(dims)
                        .fold(1u64, |n, &size| n.saturating_mul(size)),
                    _ => 0,
                },
                CellType::Component { name } => words.get(name).copied().unwrap_or(0),
            };
            total.saturating_add(cell_words)
        });
        words.insert(name, total);
    }
    let total = words.get(&top).copied().unwrap_or(0);
    if total > MAX_MEMORY_WORDS {
        return Err(SimError::Elaboration(format!(
            "the design's memories hold {total} words, more than the {MAX_MEMORY_WORDS} \
             a simulation may allocate"
        )));
    }
    Ok(())
}

/// Build the behavioral model of one primitive instance, finding each of
/// its ports by name through `port`.
fn instantiate_primitive(
    prim: Id,
    params: &[u64],
    ports: &IndexedMap<PortIdx, PortData>,
    port: impl Fn(Id) -> SimResult<PortIdx>,
) -> SimResult<(FlatCellKind, PrimState)> {
    let Some(kind) = PrimKind::of(prim) else {
        return Err(SimError::Elaboration(format!(
            "primitive `{prim}` has no behavioral model"
        )));
    };
    let width = params.first().copied().unwrap_or(1) as u32;
    Ok(match kind {
        PrimKind::Comb(op) => {
            let (left, right) = if op.is_binary() {
                (port(Id::LEFT)?, Some(port(Id::RIGHT)?))
            } else {
                (port(Id::IN)?, None)
            };
            let out = port(Id::OUT)?;
            // Combinational primitives carry no state; a zero-width register
            // placeholder keeps the state arena index-aligned with cells.
            (
                FlatCellKind::Comb {
                    op,
                    left,
                    right,
                    out,
                    in_width: width,
                    out_width: ports[out].width,
                },
                PrimState::Reg {
                    val: 0,
                    done: false,
                    width: 0,
                },
            )
        }
        PrimKind::Reg => (
            FlatCellKind::Reg {
                input: port(Id::IN)?,
                write_en: port(Id::WRITE_EN)?,
                out: port(Id::OUT)?,
                done: port(Id::DONE)?,
            },
            PrimState::Reg {
                val: 0,
                done: false,
                width,
            },
        ),
        PrimKind::Mem { dims } => {
            let sizes: Vec<u64> = params[1..=dims].to_vec();
            let size: u64 = sizes.iter().product();
            let addrs = Id::ADDRS[..dims]
                .iter()
                .map(|&addr| port(addr))
                .collect::<SimResult<Vec<_>>>()?;
            (
                FlatCellKind::Mem {
                    addrs,
                    write_data: port(Id::WRITE_DATA)?,
                    write_en: port(Id::WRITE_EN)?,
                    read_data: port(Id::READ_DATA)?,
                    done: port(Id::DONE)?,
                },
                PrimState::Mem {
                    data: vec![0; size as usize],
                    dims: sizes,
                    done: false,
                    width,
                },
            )
        }
        PrimKind::Unit(op) => {
            let (left, right, out, out2) = match op {
                UnitOp::Mult => (port(Id::LEFT)?, port(Id::RIGHT)?, port(Id::OUT)?, None),
                UnitOp::Div => (
                    port(Id::LEFT)?,
                    port(Id::RIGHT)?,
                    port(Id::OUT_QUOTIENT)?,
                    Some(port(Id::OUT_REMAINDER)?),
                ),
                UnitOp::Sqrt => {
                    let input = port(Id::IN)?;
                    (input, input, port(Id::OUT)?, None)
                }
            };
            (
                FlatCellKind::Unit {
                    left,
                    right,
                    go: port(Id::GO)?,
                    out,
                    out2,
                    done: port(Id::DONE)?,
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
            )
        }
    })
}

/// What one instance's assignments and control may name: its declared
/// ports (its own `this` ports, its cells') and its groups' holes, and its
/// groups. Nothing is looked up by port: a cell's ports are numbered from
/// its base slot in declaration order, and a group's holes from its own.
struct Scope<'c> {
    comp: &'c Component,
    /// The instance's `this` ports and their slots.
    this: &'c [(Id, PortIdx)],
    /// Per cell, by position in the component: the slot of its first port,
    /// and its ports.
    cells: Vec<(usize, &'c [PortDef])>,
    /// The slot of the first group's `go` hole. Group `i`'s `go` hole,
    /// `done` hole and own `go` port are the three slots from
    /// `holes + 3 * i` on.
    holes: usize,
    /// The index of the instance's first group; the others follow in the
    /// component's order.
    first_group: usize,
}

impl Scope<'_> {
    fn port(&self, port: &PortRef) -> SimResult<PortIdx> {
        let slot = match port.parent {
            PortParent::This => self.this.iter().find(|(n, _)| *n == port.port).map(|p| p.1),
            PortParent::Cell(cell) => self.comp.cells.position(cell).and_then(|i| {
                let (base, ports) = self.cells[i];
                let at = ports.iter().position(|pd| pd.name == port.port)?;
                Some(PortIdx::new(base + at))
            }),
            PortParent::Group(group) => self.comp.groups.position(group).and_then(|i| {
                let base = self.holes + 3 * i;
                let hole = [Id::GO, Id::DONE].iter().position(|&h| h == port.port)?;
                Some(PortIdx::new(base + hole))
            }),
        };
        slot.ok_or_else(|| {
            let component = self.comp.name;
            SimError::Elaboration(format!("unresolved port `{port}` in `{component}`"))
        })
    }

    fn group(&self, group: Id) -> SimResult<GroupIdx> {
        let at = self.comp.groups.position(group);
        at.map(|i| GroupIdx::new(self.first_group + i))
            .ok_or_else(|| {
                let component = self.comp.name;
                SimError::Elaboration(format!("undefined group `{group}` in `{component}`"))
            })
    }

    fn atom(&self, atom: &Atom) -> SimResult<FlatAtom> {
        Ok(match atom {
            Atom::Port(p) => FlatAtom::Port(self.port(p)?),
            Atom::Const { val, .. } => FlatAtom::Const(*val),
        })
    }
}

/// Interns one component instance's pooled guards into a program's
/// guard arena — the one place a guard becomes [`FlatGuard`] nodes.
///
/// Nodes are hash-consed through the program's `cons` table: children
/// are interned before parents, so equal subtrees hit the same child
/// indices and dedup structurally, across instances too. The FSM-state
/// comparisons lowering stamps onto every assignment of a state thus
/// share one node, which is one node of the RTL engine's sorted graph:
/// evaluated once when `fsm.out` changes, whatever the number of
/// assignments that test it. Sharing cannot change a value: a node is a
/// pure function of the port valuation.
///
/// New nodes are numbered in the order a recursive walk from each
/// assignment's guard would finish them ([`PostOrder`]), not in pool id
/// order: the arena's order is the graph's tie-break, and with it which
/// port a driver conflict names. `done` keeps the index of every pool
/// node interned so far, by id; an index stands for a node *under one
/// port numbering*, so an interner is one per elaborated instance.
struct GuardInterner<'p> {
    pool: &'p GuardPool,
    done: Vec<Option<GuardIdx>>,
    walk: PostOrder,
}

impl<'p> GuardInterner<'p> {
    fn new(pool: &'p GuardPool) -> Self {
        let mut done = vec![None; pool.len()];
        // `FlatProgram::new` seeds index 0 with the one `True` node.
        if let Some(t) = done.get_mut(GuardId::TRUE.index()) {
            *t = Some(GuardIdx::new(0));
        }
        GuardInterner {
            pool,
            done,
            walk: PostOrder::default(),
        }
    }

    fn intern(
        &mut self,
        guard: GuardId,
        scope: &Scope,
        guards: &mut IndexedMap<GuardIdx, FlatGuard>,
        cons: &mut FxHashMap<FlatGuard, GuardIdx>,
    ) -> SimResult<GuardIdx> {
        if let Some(done) = self.done[guard.index()] {
            return Ok(done);
        }
        self.walk.push(guard);
        while let Some(id) = self
            .walk
            .next(self.pool, |id| self.done[id.index()].is_some())
        {
            let child = |c: GuardId| self.done[c.index()].expect("children first");
            let node = match self.pool[id] {
                // `FlatProgram::new` seeds index 0 with the one `True` node.
                GuardNode::True => None,
                GuardNode::Port(p) => Some(FlatGuard::Port(scope.port(&p)?)),
                GuardNode::Not(a) => Some(FlatGuard::Not(child(a))),
                GuardNode::And(a, b) => Some(FlatGuard::And(child(a), child(b))),
                GuardNode::Or(a, b) => Some(FlatGuard::Or(child(a), child(b))),
                GuardNode::Comp(op, l, r) => {
                    Some(FlatGuard::Comp(op, scope.atom(&l)?, scope.atom(&r)?))
                }
            };
            self.done[id.index()] = Some(match node {
                Some(node) => cons_guard(guards, cons, node),
                None => GuardIdx::new(0),
            });
        }
        Ok(self.done[guard.index()].expect("the walk interned the root"))
    }
}

/// The index of `node`, which is pushed unless an equal node exists.
fn cons_guard(
    guards: &mut IndexedMap<GuardIdx, FlatGuard>,
    cons: &mut FxHashMap<FlatGuard, GuardIdx>,
    node: FlatGuard,
) -> GuardIdx {
    *cons.entry(node).or_insert_with(|| guards.push(node))
}

/// Build the evaluation graph of `prog`, whose assignments are `pushed`
/// in the order the elaborator met them (the assignment arena is filled
/// here): one node per driven port, per combinational cell or memory read
/// port, and per interned guard, sorted. An engine reads the ports
/// `observed` marks outside the graph.
fn build_graph(prog: &mut FlatProgram, pushed: Vec<FlatAssign>, observed: &[bool]) -> Graph {
    // Pack each destination's drivers into a contiguous assignment range,
    // by counting: one pass sizes every port's range and notes the
    // destinations in first-seen order, which is the order of their
    // nodes; a second places each driver, keeping push order within a
    // port.
    let mut starts = vec![0u32; prog.ports.len() + 1];
    let mut order = Vec::new();
    for a in &pushed {
        let count = &mut starts[a.dst.index() + 1];
        if *count == 0 {
            order.push(a.dst);
        }
        *count += 1;
    }
    for p in 0..prog.ports.len() {
        starts[p + 1] += starts[p];
    }
    let mut next = starts.clone();
    let mut placed = pushed.clone();
    for a in pushed {
        placed[next[a.dst.index()] as usize] = a;
        next[a.dst.index()] += 1;
    }
    prog.assigns = IndexedMap::from_vec(placed);
    let range = |dst: PortIdx| {
        let (start, end) = (starts[dst.index()], starts[dst.index() + 1]);
        IndexRange::new(AssignIdx::new(start as usize), AssignIdx::new(end as usize))
    };
    let mut nodes: Vec<Node> = order
        .into_iter()
        .map(|dst| Node::Drivers {
            dst,
            asgns: range(dst),
        })
        .collect();
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

    let mut graph = sort_nodes(&nodes, prog);
    // The settle reads drivers from the tape, which lists them in the
    // sorted order; the arena keeps them by port.
    graph.tape = Tape::lower(prog, &mut graph, observed);
    graph
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

/// Whether every atom guard `g` reads satisfies `ok`. The walk keeps its
/// own stack: a guard may be as deep as its input.
fn guard_reads_only(
    guards: &IndexedMap<GuardIdx, FlatGuard>,
    g: GuardIdx,
    ok: &impl Fn(FlatAtom) -> bool,
) -> bool {
    let mut stack = vec![g];
    while let Some(g) = stack.pop() {
        let reads_ok = match guards[g] {
            FlatGuard::True => true,
            FlatGuard::Port(p) => ok(FlatAtom::Port(p)),
            FlatGuard::Not(a) => {
                stack.push(a);
                true
            }
            FlatGuard::And(a, b) | FlatGuard::Or(a, b) => {
                stack.extend([b, a]);
                true
            }
            FlatGuard::Comp(_, l, r) => ok(l) && ok(r),
        };
        if !reads_ok {
            return false;
        }
    }
    true
}

/// The arenas being filled, and what waits for the graph to be built.
struct Flattener<'a> {
    ctx: &'a Context,
    prog: FlatProgram,
    /// Every assignment, in the order it was met.
    drivers: Vec<FlatAssign>,
    /// Hash-consing table of the program's guard arena.
    cons: FxHashMap<FlatGuard, GuardIdx>,
    /// Per port: whether it is an output that holds for a whole cycle —
    /// the stateful primitives', and each sub-instance's `done`, which
    /// only the interpreter drives.
    held: Vec<bool>,
    groups: IndexedMap<GroupIdx, FlatGroup>,
    ctrl: IndexedMap<CtrlIdx, CtrlNode>,
    ctrl_parent: IndexedMap<CtrlIdx, Option<CtrlIdx>>,
}

impl Flattener<'_> {
    /// A new port slot, with its `held` flag.
    fn alloc(&mut self, instance: u32, width: u32, port: PortRef) -> PortIdx {
        self.held.push(false);
        self.prog.ports.push(PortData {
            width,
            instance,
            port,
        })
    }

    /// Elaborate an instance of component `name` at path `prefix`, whose
    /// `this` ports are the slots `this`.
    fn elaborate(&mut self, name: Id, prefix: String, this: &[(Id, PortIdx)]) -> SimResult<()> {
        let ctx = self.ctx;
        let comp = ctx
            .components
            .get(name)
            .ok_or_else(|| SimError::Elaboration(format!("undefined component `{name}`")))?;
        let inst = self.prog.instances.len() as u32;
        let mut scope = Scope {
            comp,
            this,
            cells: Vec::with_capacity(comp.cells.len()),
            holes: 0,
            first_group: 0,
        };
        let interface = |port: Id| scope.port(&PortRef::this(port));
        let (go, done) = (interface(Id::GO)?, interface(Id::DONE)?);
        self.prog.instances.push(FlatInstance {
            prefix,
            component: name,
            go,
            done,
            // Set once the control tree is flattened.
            root: CtrlIdx::new(0),
        });

        // Cells: declared ports at their declared widths, then the
        // primitive's model, or the child instance on the same slots.
        for cell in comp.cells.iter() {
            let base = self.prog.ports.len();
            for pd in &cell.ports {
                self.alloc(inst, pd.width, PortRef::cell(cell.name, pd.name));
            }
            scope.cells.push((base, &cell.ports));
            match &cell.prototype {
                CellType::Primitive { name: prim, params } => {
                    let port = |port: Id| match cell.ports.iter().position(|pd| pd.name == port) {
                        Some(at) => Ok(PortIdx::new(base + at)),
                        None => scope.port(&PortRef::cell(cell.name, port)),
                    };
                    let (kind, state) =
                        instantiate_primitive(*prim, params, &self.prog.ports, port)?;
                    for p in held_outputs(&kind).into_iter().flatten() {
                        self.held[p.index()] = true;
                    }
                    self.prog.cells.push(FlatCell {
                        instance: inst,
                        name: cell.name,
                        kind,
                    });
                    self.prog.states.push(state);
                }
                CellType::Component { name: child } => {
                    let prefix = &self.prog.instances[inst as usize].prefix;
                    let prefix = format!("{prefix}{}.", cell.name);
                    let slot = |(at, pd): (usize, &PortDef)| (pd.name, PortIdx::new(base + at));
                    let child_this: Vec<(Id, PortIdx)> =
                        cell.ports.iter().enumerate().map(slot).collect();
                    self.elaborate(*child, prefix, &child_this)?;
                    let done = scope.port(&PortRef::cell(cell.name, Id::DONE))?;
                    self.held[done.index()] = true;
                }
            }
        }

        // Every group gets a `go` port of its own, which only the
        // interpreter writes (whatever the program does with the hole
        // `g[go]`), after slots for its two holes.
        scope.holes = self.prog.ports.len();
        scope.first_group = self.groups.len();
        let mut gos = Vec::with_capacity(comp.groups.len());
        for group in comp.groups.iter() {
            for hole in [Id::GO, Id::DONE] {
                self.alloc(inst, 1, PortRef::hole(group.name, hole));
            }
            gos.push(self.alloc(inst, 1, PortRef::hole(group.name, Id::GO)));
        }

        // One interner per instance: an index is a node under this
        // instance's port numbering.
        let mut interned = GuardInterner::new(&comp.guards);
        let always = self.prog.true_guard();
        for asgn in &comp.continuous {
            self.assign(asgn, always, &scope, &mut interned)?;
        }
        for (group, go) in comp.groups.iter().zip(gos) {
            let go_guard = cons_guard(&mut self.prog.guards, &mut self.cons, FlatGuard::Port(go));
            let done_hole = group.done_hole();
            let mut done_writes = Vec::new();
            for asgn in &group.assignments {
                let own = self.assign(asgn, go_guard, &scope, &mut interned)?;
                if asgn.dst == done_hole {
                    done_writes.push(own);
                }
            }
            self.add_group(group.name, go, done_writes);
        }

        self.prog.instances[inst as usize].root = self.ctrl_of(&comp.control, &scope)?;
        Ok(())
    }

    /// Flatten `asgn`, which is active while `go` is: a group's `go`
    /// guard, or the `True` node for a continuous assignment. Returns the
    /// assignment's own guard and its source.
    fn assign(
        &mut self,
        asgn: &Assignment,
        go: GuardIdx,
        scope: &Scope,
        interned: &mut GuardInterner,
    ) -> SimResult<(GuardIdx, FlatAtom)> {
        let dst = scope.port(&asgn.dst)?;
        let src = scope.atom(&asgn.src)?;
        let guard = interned.intern(asgn.guard, scope, &mut self.prog.guards, &mut self.cons)?;
        let t = self.prog.true_guard();
        let gated = match (go == t, guard == t) {
            (true, _) => guard,
            (false, true) => go,
            (false, false) => cons_guard(
                &mut self.prog.guards,
                &mut self.cons,
                FlatGuard::And(go, guard),
            ),
        };
        self.drivers.push(FlatAssign {
            dst,
            src,
            guard: gated,
        });
        Ok((guard, src))
    }

    /// Add group `name`, active while `go` is high.
    fn add_group(&mut self, name: Id, go: PortIdx, done_writes: Vec<(GuardIdx, FlatAtom)>) {
        let held = |atom: FlatAtom| atom.port().is_none_or(|p| self.held[p.index()]);
        let done_from_state = done_writes
            .iter()
            .all(|&(guard, src)| held(src) && guard_reads_only(&self.prog.guards, guard, &held));
        self.groups.push(FlatGroup {
            name,
            go,
            done_writes,
            done_from_state,
        });
    }

    fn ctrl_of(&mut self, stmt: &Control, scope: &Scope) -> SimResult<CtrlIdx> {
        let mut children = |stmts: &[Control]| -> SimResult<Vec<CtrlIdx>> {
            stmts.iter().map(|s| self.ctrl_of(s, scope)).collect()
        };
        let node = match stmt {
            Control::Empty => CtrlNode::Empty,
            Control::Enable { group, .. } => CtrlNode::Enable {
                group: scope.group(*group)?,
            },
            Control::Seq { stmts, .. } => CtrlNode::Seq {
                children: children(stmts)?,
            },
            Control::Par { stmts, .. } => CtrlNode::Par {
                children: children(stmts)?,
            },
            Control::If {
                port,
                cond,
                tbranch,
                fbranch,
                ..
            } => CtrlNode::If {
                port: scope.port(port)?,
                cond: cond.map(|c| scope.group(c)).transpose()?,
                tbranch: self.ctrl_of(tbranch, scope)?,
                fbranch: self.ctrl_of(fbranch, scope)?,
            },
            Control::While {
                port, cond, body, ..
            } => CtrlNode::While {
                port: scope.port(port)?,
                cond: cond.map(|c| scope.group(c)).transpose()?,
                body: self.ctrl_of(body, scope)?,
            },
        };
        let n = self.ctrl.push(node);
        self.ctrl_parent.push(None);
        self.ctrl[n].for_each_child(|c| self.ctrl_parent[c] = Some(n));
        Ok(n)
    }
}

/// Elaborate the component hierarchy rooted at `top` into one flat design
/// for either engine: every instance's cells, assignments, groups and
/// control tree, and the sorted evaluation graph with its fan-out.
///
/// # Errors
///
/// Returns [`SimError::Elaboration`] for cyclic instantiation, undefined
/// names, a port that is neither declared nor a group hole, an unmodeled
/// primitive, or memories of more than 2^24 words.
pub fn flatten(ctx: &Context, top: &str) -> SimResult<FlatDesign> {
    // Elaboration recurses into instances, so a cycle must be refused
    // before it starts, and so must a memory too large to allocate.
    let order = ctx
        .topological_order()
        .map_err(|e| SimError::Elaboration(e.to_string()))?;
    let top = Id::new(top);
    let comp = ctx
        .components
        .get(top)
        .ok_or_else(|| SimError::Elaboration(format!("no component `{top}`")))?;
    check_memory_words(ctx, &order, top)?;

    let mut f = Flattener {
        ctx,
        prog: FlatProgram::new(),
        drivers: Vec::new(),
        cons: FxHashMap::default(),
        held: Vec::new(),
        groups: IndexedMap::new(),
        ctrl: IndexedMap::new(),
        ctrl_parent: IndexedMap::new(),
    };
    // The top's interface ports are its own, instance 0's.
    let this: Vec<(Id, PortIdx)> = comp
        .signature
        .iter()
        .map(|pd| (pd.name, f.alloc(0, pd.width, PortRef::this(pd.name))))
        .collect();
    let inputs = comp.signature.iter().zip(&this);
    let top_inputs = inputs
        .filter(|(pd, _)| pd.direction == Direction::Input)
        .map(|(_, &slot)| slot)
        .collect();
    f.elaborate(top, String::new(), &this)?;

    // What the interpreter reads outside the graph: the ports its
    // conditions sample, the sources of done conditions, and each
    // instance's `go` and `done`.
    let mut observed = vec![false; f.prog.ports.len()];
    let ctrl_ports = f.ctrl.iter().filter_map(|n| match n {
        CtrlNode::If { port, .. } | CtrlNode::While { port, .. } => Some(*port),
        _ => None,
    });
    let done_sources = f.groups.iter().flat_map(|g| g.done_writes.iter());
    let done_sources = done_sources.filter_map(|(_, src)| src.port());
    let interfaces = f.prog.instances.iter().flat_map(|i| [i.go, i.done]);
    for p in ctrl_ports.chain(done_sources).chain(interfaces) {
        observed[p.index()] = true;
    }
    let graph = build_graph(&mut f.prog, f.drivers, &observed);
    Ok(FlatDesign {
        prog: f.prog,
        graph,
        groups: f.groups,
        ctrl: f.ctrl,
        ctrl_parent: f.ctrl_parent,
        top_inputs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use calyx_core::ir::parse_context;
    use calyx_core::passes::PassManager;

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

    /// Memories past [`MAX_MEMORY_WORDS`] are refused before anything is
    /// allocated: one huge declaration, or a child's memory counted once
    /// per instance.
    #[test]
    fn memories_past_the_bound_are_an_elaboration_error() {
        let huge = "component main() -> () {
              cells { @external m = std_mem_d1(32, 1099511627776, 40); }
              wires {} control {}
            }";
        let half = MAX_MEMORY_WORDS / 2;
        let instanced = format!(
            "component child() -> () {{
               cells {{ m = std_mem_d1(32, {half}, 24); }}
               wires {{}} control {{}}
             }}
             component main() -> () {{
               cells {{ a = child(); b = child(); c = child(); }}
               wires {{}} control {{}}
             }}"
        );
        for (src, words) in [(huge.to_string(), 1 << 40), (instanced, 3 * half)] {
            let ctx = parse_context(&src).unwrap();
            let Err(SimError::Elaboration(msg)) = flatten(&ctx, "main") else {
                panic!("{src} elaborated");
            };
            assert!(msg.contains(&format!("hold {words} words")), "{msg}");
        }
    }

    #[test]
    fn control_flattening_builds_dense_arenas() {
        let ctx = parse_context(COUNTER).unwrap();
        let flat = flatten(&ctx, "main").unwrap();
        assert_eq!(flat.prog.cells.len(), 3);
        assert_eq!(flat.groups.len(), 2);
        assert_eq!(flat.prog.assigns.len(), 8);
        // Each group records exactly one done write, over state alone,
        // and gates every assignment it owns with its `go` port.
        for g in flat.groups.iter() {
            assert_eq!(g.done_writes.len(), 1);
            assert!(g.done_from_state);
            assert_eq!(flat.prog.port_name(g.go), format!("{}[go]", g.name));
        }
        let go_guards = flat.groups.iter().map(|g| FlatGuard::Port(g.go));
        let go_guards: Vec<FlatGuard> = go_guards.collect();
        for a in flat.prog.assigns.iter() {
            assert!(go_guards.contains(&flat.prog.guards[a.guard]));
        }
        // Nothing here is cyclic: the whole graph is sorted.
        assert_eq!(flat.graph.tail_start, flat.graph.nodes.len());
        assert!(flat.graph.cycle.is_empty());
        // The control tree flattened to while(enable).
        let root = flat.prog.instances[0].root;
        assert!(matches!(flat.ctrl[root], CtrlNode::While { .. }));
    }

    #[test]
    fn design_flattening_topo_sorts_nodes() {
        let mut ctx = parse_context(COUNTER).unwrap();
        let mut pipeline = PassManager::from_names(&["lower"]).unwrap();
        pipeline.run(&mut ctx).unwrap();
        let flat = flatten(&ctx, "main").unwrap();
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

    #[test]
    fn an_instance_is_elaborated_on_its_cells_slots() {
        let ctx = parse_context(
            r#"component child(x: 8) -> (y: 8) {
              cells { r = std_reg(8); }
              wires { group w { r.in = x; r.write_en = 1'd1; w[done] = r.done; } y = r.out; }
              control { w; }
            }
            component main() -> () {
              cells { c = child(); }
              wires { group g { c.x = 8'd3; c.go = 1'd1; g[done] = c.done; } }
              control { g; }
            }"#,
        )
        .unwrap();
        let flat = flatten(&ctx, "main").unwrap();
        let prefixes: Vec<&str> = flat
            .prog
            .instances
            .iter()
            .map(|i| i.prefix.as_str())
            .collect();
        assert_eq!(prefixes, ["", "c."]);
        // The child's `this` ports are its parent's `c.*` slots.
        let child = &flat.prog.instances[1];
        assert_eq!(flat.prog.port_name(child.go), "c.go");
        assert_eq!(flat.prog.port_name(child.done), "c.done");
        let driven = flat.prog.assigns.iter().map(|a| flat.prog.port_name(a.dst));
        let mut driven: Vec<String> = driven.collect();
        driven.sort();
        assert_eq!(
            driven,
            [
                "c.go",
                "c.r.in",
                "c.r.write_en",
                "c.w[done]",
                "c.x",
                "c.y",
                "g[done]"
            ]
        );
        // Cells are named by their path; the parent's group waits on a
        // `done` only the interpreter drives, which holds for the cycle.
        let paths = flat.prog.cells.keys().map(|ci| flat.prog.cell_path(ci));
        assert_eq!(paths.collect::<Vec<_>>(), ["c.r"]);
        assert!(flat.groups.iter().all(|g| g.done_from_state));
        assert!(matches!(flat.ctrl[child.root], CtrlNode::Enable { .. }));
    }

    /// The lowered gemm kernel: guards of every shape, memories, units.
    fn lowered_gemm() -> FlatDesign {
        let gemm = calyx_polybench::kernel("gemm").unwrap();
        let (_, mut ctx) = calyx_polybench::compile_kernel(gemm, 4, 1).unwrap();
        let mut pipeline = PassManager::from_names(&["lower"]).unwrap();
        pipeline.run(&mut ctx).unwrap();
        flatten(&ctx, "main").unwrap()
    }

    #[test]
    fn fan_out_lists_every_reader_and_only_later_positions() {
        let flat = lowered_gemm();
        let prog = &flat.prog;
        let Graph { nodes, fanout, .. } = &flat.graph;
        let mut guard_nodes = 0;
        let mut comparisons = 0;
        // A port read as a guard shares the port's slot: the readers of
        // the guard are the port's.
        let guard_readers = |g: GuardIdx| match prog.guards[g] {
            FlatGuard::Port(p) => fanout.of_port(p),
            _ => fanout.of_guard(g),
        };
        for (pos, node) in nodes.iter().enumerate() {
            let pos = pos as u32;
            // Whatever the node produces is read only further on, so one
            // ascending scan of the dirty set settles a cycle.
            let readers = match *node {
                Node::Guard(g) => guard_readers(g),
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
                        // Nothing to evaluate, so nothing wakes it.
                        FlatGuard::Port(p) => assert!(!fanout.of_port(p).contains(&pos)),
                        FlatGuard::Not(a) => guards.push(a),
                        FlatGuard::And(a, b) | FlatGuard::Or(a, b) => guards.extend([a, b]),
                        // A comparison with a constant sits in its port's
                        // comparison row, in order of the constant.
                        FlatGuard::Comp(_, FlatAtom::Port(p), FlatAtom::Const(k))
                        | FlatGuard::Comp(_, FlatAtom::Const(k), FlatAtom::Port(p)) => {
                            let row = flat.graph.tape.comparisons(fanout, p);
                            assert!(row.contains(&(k, pos)), "{node:?} reads {p:?}");
                            assert!(row.windows(2).all(|w| w[0].0 <= w[1].0));
                            assert!(!fanout.of_port(p).contains(&pos));
                            comparisons += 1;
                        }
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
                assert!(guard_readers(g).contains(&pos), "{node:?} reads {g:?}");
            }
        }
        // Every interned guard is a node, once; lowering's FSM state tests
        // are comparisons with a constant.
        assert_eq!(guard_nodes, prog.guards.len());
        assert!(comparisons > 0);
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
        let flat = flatten(&ctx, "main").unwrap();
        // The position of the one node `wanted` picks.
        fn position(flat: &FlatDesign, wanted: impl Fn(&Node) -> bool) -> u32 {
            let mut hits = (0u32..).zip(&flat.graph.nodes).filter(|(_, n)| wanted(n));
            let (pos, _) = hits.next().expect("node exists");
            assert!(hits.next().is_none(), "node appears twice");
            pos
        }
        let driver = |path: &str| {
            let mut asgns = flat.prog.assigns.iter();
            asgns.find(|a| flat.prog.port_name(a.dst) == path).unwrap()
        };
        let shared = driver("r.in").guard;
        assert_eq!(driver("r.write_en").guard, shared);
        assert!(matches!(flat.prog.guards[shared], FlatGuard::Comp(..)));
        position(&flat, |n| matches!(n, Node::Guard(g) if *g == shared));
        let drives = |path: &str| {
            position(
                &flat,
                |n| matches!(n, Node::Drivers { dst, .. } if flat.prog.port_name(*dst) == path),
            )
        };
        let mut readers = flat.graph.fanout.of_guard(shared).to_vec();
        readers.sort_unstable();
        let mut expected = vec![drives("r.in"), drives("r.write_en")];
        expected.sort_unstable();
        assert_eq!(readers, expected);
    }

    #[test]
    fn undeclared_ports_are_elaboration_errors() {
        // `well-formed` rejects both first; the elaborator allocates no
        // slot for a port nothing declares.
        let program = |wires: &str, control: &str| {
            let src = format!(
                "component main() -> () {{ cells {{ r = std_reg(8); }} wires {{ {wires} }} control {{ {control} }} }}"
            );
            let ctx = parse_context(&src).unwrap();
            flatten(&ctx, "main").err().map(|e| e.to_string())
        };
        let group = "group g { r.in = 8'd1; r.write_en = 1'd1; g[done] = r.done; }";
        assert_eq!(program(group, "g;"), None);
        assert_eq!(
            program("group g { r.in = r.bogus; g[done] = r.done; }", "g;"),
            Some("elaboration failed: unresolved port `r.bogus` in `main`".to_string())
        );
        assert_eq!(
            program(group, "h;"),
            Some("elaboration failed: undefined group `h` in `main`".to_string())
        );
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
        let flat = flatten(&ctx, "main").unwrap();
        let guards = &flat.prog.guards;
        // The guard of the assignment to `path`, under its group's `go`.
        let guard = |path: &str| {
            let mut asgns = flat.prog.assigns.iter();
            let a = asgns.find(|a| flat.prog.port_name(a.dst) == path).unwrap();
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
        // guard, `GuardId::TRUE`, is the arena's seeded first node.
        let (done_guard, _) = flat.groups[GroupIdx::new(0)].done_writes[0];
        assert_eq!(done_guard, flat.prog.true_guard());
        assert_eq!(done_guard.index(), 0);
        // True, lt.out, r.done, !r.done and the conjunction; `go`, and
        // `go` with each of the two distinct guards: nothing else.
        assert_eq!(guards.len(), 8);
    }

    #[test]
    fn design_guard_arena_is_unchanged_on_lowered_gemm() {
        // The one elaborator must cons exactly what the RTL engine's own
        // did: 118 is the arena length measured before the interners, and
        // then the elaborators, merged.
        assert_eq!(lowered_gemm().prog.guards.len(), 118);
    }
}
