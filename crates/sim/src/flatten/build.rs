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
//! No port is named at set-up: [`FlatProgram::port_name`] renders one
//! from the instance prefix and the `PortRef` when an error asks.
//!
//! It ends in [`build_graph`]: all drivers of one port are grouped into
//! a contiguous assignment range; those driver nodes, the interned guards
//! and the combinational cells are sorted once, and the graph that was
//! sorted is kept as the fan-out table.

use super::index::{CtrlIdx, FlatIdx, GroupIdx, GuardIdx, IndexRange, IndexedMap, PortIdx};
use super::{
    sort_nodes, CtrlNode, FlatAssign, FlatAtom, FlatCell, FlatCellKind, FlatDesign, FlatGroup,
    FlatGuard, FlatInstance, FlatProgram, Graph, Node, PortData,
};
use crate::error::{SimError, SimResult};
use crate::prim::PrimState;
use calyx_core::ir::{
    Assignment, Atom, CellType, Context, Control, Direction, Guard, GuardMemo, Id, PortDef,
    PortRef, PrimKind,
};
use calyx_core::prim::UnitOp;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Build the behavioral model of one primitive instance, finding each of
/// its ports by name through `port`.
fn instantiate_primitive(
    prim: Id,
    params: &[u64],
    ports: &IndexedMap<PortIdx, PortData>,
    port: impl Fn(&str) -> SimResult<PortIdx>,
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
                (port("left")?, Some(port("right")?))
            } else {
                (port("in")?, None)
            };
            let out = port("out")?;
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
                input: port("in")?,
                write_en: port("write_en")?,
                out: port("out")?,
                done: port("done")?,
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
            let addrs = (0..dims)
                .map(|i| port(&format!("addr{i}")))
                .collect::<SimResult<Vec<_>>>()?;
            (
                FlatCellKind::Mem {
                    addrs,
                    write_data: port("write_data")?,
                    write_en: port("write_en")?,
                    read_data: port("read_data")?,
                    done: port("done")?,
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
                UnitOp::Mult => (port("left")?, port("right")?, port("out")?, None),
                UnitOp::Div => (
                    port("left")?,
                    port("right")?,
                    port("out_quotient")?,
                    Some(port("out_remainder")?),
                ),
                UnitOp::Sqrt => {
                    let input = port("in")?;
                    (input, input, port("out")?, None)
                }
            };
            (
                FlatCellKind::Unit {
                    left,
                    right,
                    go: port("go")?,
                    out,
                    out2,
                    done: port("done")?,
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
/// groups.
struct Scope {
    component: Id,
    ports: HashMap<PortRef, PortIdx>,
    groups: HashMap<Id, GroupIdx>,
}

impl Scope {
    fn port(&self, port: &PortRef) -> SimResult<PortIdx> {
        self.ports.get(port).copied().ok_or_else(|| {
            SimError::Elaboration(format!("unresolved port `{port}` in `{}`", self.component))
        })
    }

    fn group(&self, group: Id) -> SimResult<GroupIdx> {
        self.groups.get(&group).copied().ok_or_else(|| {
            SimError::Elaboration(format!("undefined group `{group}` in `{}`", self.component))
        })
    }

    fn atom(&self, atom: &Atom) -> SimResult<FlatAtom> {
        Ok(match atom {
            Atom::Port(p) => FlatAtom::Port(self.port(p)?),
            Atom::Const { val, .. } => FlatAtom::Const(*val),
        })
    }
}

/// Interns [`ir::Guard`](Guard)s into a program's guard arena — the one
/// place a guard becomes [`FlatGuard`] nodes.
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
    fn intern(&mut self, guard: &Guard, scope: &Scope) -> SimResult<GuardIdx> {
        let node = match guard {
            // `FlatProgram::new` seeds index 0 with the one `True` node.
            Guard::True => return Ok(GuardIdx::new(0)),
            Guard::Port(p) => FlatGuard::Port(scope.port(p)?),
            Guard::Not(g) => FlatGuard::Not(self.child(g, scope)?),
            Guard::And(a, b) => FlatGuard::And(self.child(a, scope)?, self.child(b, scope)?),
            Guard::Or(a, b) => FlatGuard::Or(self.child(a, scope)?, self.child(b, scope)?),
            Guard::Comp(op, l, r) => FlatGuard::Comp(*op, scope.atom(l)?, scope.atom(r)?),
        };
        Ok(cons_guard(self.guards, self.cons, node))
    }

    fn child(&mut self, node: &Arc<Guard>, scope: &Scope) -> SimResult<GuardIdx> {
        if let Some(idx) = self.done.get(node) {
            return Ok(*idx);
        }
        let idx = self.intern(node, scope)?;
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
/// sorted.
fn build_graph(prog: &mut FlatProgram, mut drivers: Drivers) -> Graph {
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

    let mut graph = sort_nodes(&nodes, prog);

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

/// The arenas being filled, and what waits for the graph to be built.
struct Flattener<'a> {
    ctx: &'a Context,
    prog: FlatProgram,
    drivers: Drivers,
    /// Hash-consing table of [`GuardInterner`].
    cons: HashMap<FlatGuard, GuardIdx>,
    /// The outputs that hold for a whole cycle: the stateful primitives',
    /// and each sub-instance's `done`, which only the interpreter drives.
    held: HashSet<PortIdx>,
    groups: IndexedMap<GroupIdx, FlatGroup>,
    ctrl: IndexedMap<CtrlIdx, CtrlNode>,
}

impl Flattener<'_> {
    fn alloc(&mut self, instance: u32, width: u32, port: PortRef) -> PortIdx {
        self.prog.ports.push(PortData {
            width,
            instance,
            port,
        })
    }

    /// Elaborate an instance of component `name` at path `prefix`, whose
    /// `this` ports are the slots `this`.
    fn elaborate(&mut self, name: Id, prefix: String, this: &[(Id, PortIdx)]) -> SimResult<()> {
        let comp = self
            .ctx
            .components
            .get(name)
            .ok_or_else(|| SimError::Elaboration(format!("undefined component `{name}`")))?;
        let inst = self.prog.instances.len() as u32;
        let mut scope = Scope {
            component: name,
            ports: this.iter().map(|&(n, p)| (PortRef::this(n), p)).collect(),
            groups: HashMap::new(),
        };
        let interface = |port: &str| scope.port(&PortRef::this(port));
        let (go, done) = (interface("go")?, interface("done")?);
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
            for pd in &cell.ports {
                let port = PortRef::cell(cell.name, pd.name);
                let slot = self.alloc(inst, pd.width, port);
                scope.ports.insert(port, slot);
            }
            let prefix = &self.prog.instances[inst as usize].prefix;
            match &cell.prototype {
                CellType::Primitive { name: prim, params } => {
                    let port = |port: &str| scope.port(&PortRef::cell(cell.name, port));
                    let (kind, state) =
                        instantiate_primitive(*prim, params, &self.prog.ports, port)?;
                    let path = format!("{prefix}{}", cell.name);
                    self.held.extend(held_outputs(&kind).into_iter().flatten());
                    let ci = self.prog.cells.push(FlatCell {
                        path: path.clone(),
                        kind,
                    });
                    self.prog.states.push(state);
                    self.prog.cell_index.insert(path, ci);
                }
                CellType::Component { name: child } => {
                    let prefix = format!("{prefix}{}.", cell.name);
                    let slot =
                        |pd: &PortDef| (pd.name, scope.ports[&PortRef::cell(cell.name, pd.name)]);
                    let child_this: Vec<(Id, PortIdx)> = cell.ports.iter().map(slot).collect();
                    self.elaborate(*child, prefix, &child_this)?;
                    self.held
                        .insert(scope.ports[&PortRef::cell(cell.name, "done")]);
                }
            }
        }

        // Every group gets a `go` port of its own, which only the
        // interpreter writes (whatever the program does with the hole
        // `g[go]`), and slots for its two holes.
        let mut gos = Vec::with_capacity(comp.groups.len());
        for group in comp.groups.iter() {
            for hole in ["go", "done"] {
                let port = PortRef::hole(group.name, hole);
                let slot = self.alloc(inst, 1, port);
                scope.ports.insert(port, slot);
            }
            gos.push(self.alloc(inst, 1, PortRef::hole(group.name, "go")));
        }

        // One memo per instance: an index is a node under this instance's
        // port numbering.
        let mut interned = GuardMemo::default();
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
            let g = self.add_group(group.name, go, done_writes);
            scope.groups.insert(group.name, g);
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
        interned: &mut GuardMemo<GuardIdx>,
    ) -> SimResult<(GuardIdx, FlatAtom)> {
        let dst = scope.port(&asgn.dst)?;
        let src = scope.atom(&asgn.src)?;
        let guard = GuardInterner {
            guards: &mut self.prog.guards,
            cons: &mut self.cons,
            done: interned,
        }
        .intern(&asgn.guard, scope)?;
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
        self.groups.push(FlatGroup {
            name,
            go,
            done_writes,
            done_from_state,
        })
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
        Ok(self.ctrl.push(node))
    }
}

/// Elaborate the component hierarchy rooted at `top` into one flat design
/// for either engine: every instance's cells, assignments, groups and
/// control tree, and the sorted evaluation graph with its fan-out.
///
/// # Errors
///
/// Returns [`SimError::Elaboration`] for cyclic instantiation, undefined
/// names, a port that is neither declared nor a group hole, or an
/// unmodeled primitive.
pub fn flatten(ctx: &Context, top: &str) -> SimResult<FlatDesign> {
    // Elaboration recurses into instances, so a cycle must be refused
    // before it starts.
    ctx.topological_order()
        .map_err(|e| SimError::Elaboration(e.to_string()))?;
    let top = Id::new(top);
    let comp = ctx
        .components
        .get(top)
        .ok_or_else(|| SimError::Elaboration(format!("no component `{top}`")))?;

    let mut f = Flattener {
        ctx,
        prog: FlatProgram::new(),
        drivers: Drivers::default(),
        cons: HashMap::new(),
        held: HashSet::new(),
        groups: IndexedMap::new(),
        ctrl: IndexedMap::new(),
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

    let graph = build_graph(&mut f.prog, f.drivers);
    Ok(FlatDesign {
        prog: f.prog,
        graph,
        groups: f.groups,
        ctrl: f.ctrl,
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
        assert_eq!(flat.prog.cell_index.keys().collect::<Vec<_>>(), ["c.r"]);
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
        // The one elaborator must cons exactly what the RTL engine's own
        // did: 118 is the arena length measured before the interners, and
        // then the elaborators, merged.
        assert_eq!(lowered_gemm().prog.guards.len(), 118);
    }
}
