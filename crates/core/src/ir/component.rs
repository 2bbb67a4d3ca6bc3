//! Components and the top-level compilation context (paper §3.1).

use super::cell::Group;
use super::{
    attr, Assignment, Attributes, Cell, CellType, Control, Direction, Id, Library, PortDef,
    PortParent, PortRef,
};
use crate::errors::{CalyxResult, Error};
use crate::utils::{Named, OrderedMap};

/// A Calyx component: cells, wires, and a control program.
///
/// Every component implicitly carries 1-bit `go` (input) and `done` (output)
/// interface ports; they define the calling convention (paper §4.1) that
/// lowering uses to wire a component's control FSM to its instantiators.
#[derive(Debug, Clone)]
pub struct Component {
    /// Component name, unique within the context.
    pub name: Id,
    /// Input/output ports, including the implicit `go`/`done` pair.
    pub signature: Vec<PortDef>,
    /// Subcomponent instances.
    pub cells: OrderedMap<Cell>,
    /// Named groups of assignments.
    pub groups: OrderedMap<Group>,
    /// Assignments that are always active (the top-level `wires` content).
    pub continuous: Vec<Assignment>,
    /// The execution schedule.
    pub control: Control,
    /// Component attributes (e.g. inferred `"static"` latency).
    pub attributes: Attributes,
    /// Per-prefix probe hints for [`Component::fresh_cell_name`] /
    /// [`Component::fresh_group_name`]: the last suffix returned for a
    /// prefix, so repeated fresh-name requests do not restart the
    /// `{prefix}{i}` collision scan from 0 (which made heavy FSM-generating
    /// passes quadratic in the number of generated names).
    fresh_hints: FreshHints,
}

/// Suffix hints for fresh cell/group names; cells and groups are separate
/// namespaces, so each keeps its own map.
#[derive(Debug, Clone, Default)]
struct FreshHints {
    cells: std::collections::HashMap<String, u64>,
    groups: std::collections::HashMap<String, u64>,
}

impl Component {
    /// Create a component with the given explicit ports.
    ///
    /// `go` and `done` interface ports are appended automatically unless the
    /// caller already declared them.
    pub fn new(name: impl Into<Id>, ports: Vec<PortDef>) -> Self {
        let mut signature = ports;
        let go = Id::new("go");
        let done = Id::new("done");
        if !signature.iter().any(|p| p.name == go) {
            let mut p = PortDef::new(go, 1, Direction::Input);
            p.attributes.insert(attr::interface(), 1);
            signature.push(p);
        }
        if !signature.iter().any(|p| p.name == done) {
            let mut p = PortDef::new(done, 1, Direction::Output);
            p.attributes.insert(attr::interface(), 1);
            signature.push(p);
        }
        Component {
            name: name.into(),
            signature,
            cells: OrderedMap::new(),
            groups: OrderedMap::new(),
            continuous: Vec::new(),
            control: Control::Empty,
            attributes: Attributes::new(),
            fresh_hints: FreshHints::default(),
        }
    }

    /// The signature port named `port`, if any.
    pub fn signature_port(&self, port: Id) -> Option<&PortDef> {
        self.signature.iter().find(|p| p.name == port)
    }

    /// Resolve the width of any port reference within this component.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Undefined`] if the referenced cell, group, or port
    /// does not exist.
    pub fn port_width(&self, port: &PortRef) -> CalyxResult<u32> {
        match port.parent {
            PortParent::This => self
                .signature_port(port.port)
                .map(|p| p.width)
                .ok_or_else(|| {
                    Error::undefined(format!("port `{}` on component `{}`", port.port, self.name))
                }),
            PortParent::Cell(cell) => {
                let cell = self
                    .cells
                    .get(cell)
                    .ok_or_else(|| Error::undefined(format!("cell `{cell}` in `{}`", self.name)))?;
                cell.port_width(port.port).ok_or_else(|| {
                    Error::undefined(format!("port `{}` on cell `{}`", port.port, cell.name))
                })
            }
            PortParent::Group(group) => {
                if !self.groups.contains(group) {
                    return Err(Error::undefined(format!(
                        "group `{group}` in `{}`",
                        self.name
                    )));
                }
                let p = port.port.as_str();
                if p == "go" || p == "done" {
                    Ok(1)
                } else {
                    Err(Error::undefined(format!(
                        "hole `{group}[{p}]`: only `go` and `done` holes exist"
                    )))
                }
            }
        }
    }

    /// The component's `"static"` latency attribute, if annotated/inferred.
    pub fn static_latency(&self) -> Option<u64> {
        self.attributes.get(attr::static_())
    }

    /// A cell name based on `prefix` that is not yet taken.
    ///
    /// Probing starts from the last suffix handed out for this prefix
    /// (rather than restarting at 0, which made generating *n* names with
    /// one prefix quadratic). The returned name is not registered: repeated
    /// calls without inserting a cell return the same name.
    pub fn fresh_cell_name(&mut self, prefix: &str) -> Id {
        let direct = Id::new(prefix);
        if !self.cells.contains(direct) {
            return direct;
        }
        let start = self
            .fresh_hints
            .cells
            .get(prefix)
            .copied()
            .unwrap_or_default();
        let mut i = start;
        loop {
            let candidate = Id::new(format!("{prefix}{i}"));
            if !self.cells.contains(candidate) {
                self.fresh_hints.cells.insert(prefix.to_string(), i);
                return candidate;
            }
            i += 1;
        }
    }

    /// A group name based on `prefix` that is not yet taken. Same probing
    /// and hint behavior as [`Component::fresh_cell_name`]; cells and
    /// groups are independent namespaces.
    pub fn fresh_group_name(&mut self, prefix: &str) -> Id {
        let direct = Id::new(prefix);
        if !self.groups.contains(direct) {
            return direct;
        }
        let start = self
            .fresh_hints
            .groups
            .get(prefix)
            .copied()
            .unwrap_or_default();
        let mut i = start;
        loop {
            let candidate = Id::new(format!("{prefix}{i}"));
            if !self.groups.contains(candidate) {
                self.fresh_hints.groups.insert(prefix.to_string(), i);
                return candidate;
            }
            i += 1;
        }
    }

    /// Iterate over every assignment in the component: all groups'
    /// assignments followed by the continuous assignments.
    pub fn all_assignments(&self) -> impl Iterator<Item = &Assignment> {
        self.groups
            .iter()
            .flat_map(|g| g.assignments.iter())
            .chain(self.continuous.iter())
    }
}

impl Named for Component {
    fn name(&self) -> Id {
        self.name
    }
}

/// A complete Calyx program: components plus the primitive library.
#[derive(Debug, Clone)]
pub struct Context {
    /// The program's components in definition order.
    pub components: OrderedMap<Component>,
    /// Known primitives (standard library plus `extern` declarations).
    pub lib: Library,
    /// The entry-point component (defaults to `main`).
    pub entrypoint: Id,
    /// Source locations recorded by the parser (empty for generated
    /// programs); consumed by diagnostics, ignored by compilation.
    pub sources: super::SourceMap,
}

impl Default for Context {
    fn default() -> Self {
        Self::new()
    }
}

impl Context {
    /// An empty program with the standard primitive library.
    pub fn new() -> Self {
        Context {
            components: OrderedMap::new(),
            lib: Library::std(),
            entrypoint: Id::new("main"),
            sources: super::SourceMap::default(),
        }
    }

    /// Create (but do not register) a component with only the implicit
    /// interface ports. Register it with [`Context::add_component`].
    pub fn new_component(&self, name: impl Into<Id>) -> Component {
        Component::new(name, Vec::new())
    }

    /// Register a component.
    ///
    /// Replaces any previous component with the same name (mirroring
    /// [`OrderedMap::insert`] semantics) and returns it.
    pub fn add_component(&mut self, comp: Component) -> Option<Component> {
        self.components.insert(comp)
    }

    /// Look up a component by name.
    pub fn component(&self, name: impl Into<Id>) -> Option<&Component> {
        self.components.get(name.into())
    }

    /// Look up a component mutably by name.
    pub fn component_mut(&mut self, name: impl Into<Id>) -> Option<&mut Component> {
        self.components.get_mut(name.into())
    }

    /// The entry-point component.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Undefined`] when the entrypoint has not been added.
    pub fn entry(&self) -> CalyxResult<&Component> {
        self.components
            .get(self.entrypoint)
            .ok_or_else(|| Error::undefined(format!("entrypoint component `{}`", self.entrypoint)))
    }

    /// Resolve the port list for a cell of the given type.
    ///
    /// Like primitive ports, the directions are from the *instantiated*
    /// entity's own perspective: a component's `go` input stays `Input`,
    /// meaning the instantiating component drives it (the validator treats
    /// cell `Input` ports as writable).
    ///
    /// # Errors
    ///
    /// Returns an error when the primitive/component does not exist or
    /// parameters fail to resolve.
    pub fn resolve_cell_ports(&self, prototype: &CellType) -> CalyxResult<Vec<PortDef>> {
        match prototype {
            CellType::Primitive { name, params } => self.lib.expect(*name)?.resolve(params),
            CellType::Component { name } => {
                let comp = self
                    .components
                    .get(*name)
                    .ok_or_else(|| Error::undefined(format!("component `{name}`")))?;
                Ok(comp.signature.clone())
            }
        }
    }

    /// Construct a fully resolved [`Cell`].
    ///
    /// # Errors
    ///
    /// Propagates resolution failures from [`Context::resolve_cell_ports`].
    pub fn make_cell(&self, name: impl Into<Id>, prototype: CellType) -> CalyxResult<Cell> {
        let ports = self.resolve_cell_ports(&prototype)?;
        Ok(Cell {
            name: name.into(),
            prototype,
            ports,
            attributes: Attributes::new(),
        })
    }

    /// Components in dependency order: every component appears after the
    /// components it instantiates. The paper's bottom-up passes (latency
    /// inference across components) rely on this order.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Malformed`] if instantiation is cyclic.
    pub fn topological_order(&self) -> CalyxResult<Vec<Id>> {
        let mut order = Vec::new();
        let mut state: std::collections::HashMap<Id, u8> = std::collections::HashMap::new();
        fn visit(
            ctx: &Context,
            name: Id,
            state: &mut std::collections::HashMap<Id, u8>,
            order: &mut Vec<Id>,
        ) -> CalyxResult<()> {
            match state.get(&name) {
                Some(2) => return Ok(()),
                Some(1) => {
                    return Err(Error::malformed(format!(
                        "cyclic component instantiation through `{name}`"
                    )))
                }
                _ => {}
            }
            state.insert(name, 1);
            if let Some(comp) = ctx.components.get(name) {
                for cell in comp.cells.iter() {
                    if let CellType::Component { name: child } = cell.prototype {
                        visit(ctx, child, state, order)?;
                    }
                }
            }
            state.insert(name, 2);
            order.push(name);
            Ok(())
        }
        for name in self.components.names().collect::<Vec<_>>() {
            visit(self, name, &mut state, &mut order)?;
        }
        Ok(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    /// Compile-time pin: the service's parse cache shares parsed
    /// programs between worker threads, so the IR may hold no `Rc` or
    /// `RefCell`.
    #[test]
    fn context_is_send_and_sync() {
        assert_send_sync::<Context>();
    }

    #[test]
    fn implicit_interface_ports() {
        let comp = Component::new("main", vec![PortDef::new("x", 8, Direction::Input)]);
        assert_eq!(comp.signature.len(), 3);
        let go = comp.signature_port(Id::new("go")).unwrap();
        assert_eq!(go.width, 1);
        assert_eq!(go.direction, Direction::Input);
        assert!(go.attributes.has(attr::interface()));
        let done = comp.signature_port(Id::new("done")).unwrap();
        assert_eq!(done.direction, Direction::Output);
    }

    #[test]
    fn explicit_go_not_duplicated() {
        let comp = Component::new("main", vec![PortDef::new("go", 1, Direction::Input)]);
        assert_eq!(
            comp.signature
                .iter()
                .filter(|p| p.name.as_str() == "go")
                .count(),
            1
        );
    }

    #[test]
    fn port_width_resolution() {
        let ctx = Context::new();
        let mut comp = ctx.new_component("main");
        let cell = ctx
            .make_cell(
                "r",
                CellType::Primitive {
                    name: Id::new("std_reg"),
                    params: vec![16],
                },
            )
            .unwrap();
        comp.cells.insert(cell);
        comp.groups.insert(Group::new("g"));
        assert_eq!(comp.port_width(&PortRef::cell("r", "in")).unwrap(), 16);
        assert_eq!(comp.port_width(&PortRef::hole("g", "done")).unwrap(), 1);
        assert_eq!(comp.port_width(&PortRef::this("go")).unwrap(), 1);
        assert!(comp.port_width(&PortRef::cell("nope", "in")).is_err());
        assert!(comp.port_width(&PortRef::hole("g", "bogus")).is_err());
    }

    #[test]
    fn component_cells_keep_inner_perspective() {
        let mut ctx = Context::new();
        let inner = ctx.new_component("inner");
        ctx.add_component(inner);
        let ports = ctx
            .resolve_cell_ports(&CellType::Component {
                name: Id::new("inner"),
            })
            .unwrap();
        let go = ports.iter().find(|p| p.name.as_str() == "go").unwrap();
        // `go` is an input of `inner`; the instantiator drives it, which the
        // validator models as cell ports with direction `Input` being
        // writable.
        assert_eq!(go.direction, Direction::Input);
        let done = ports.iter().find(|p| p.name.as_str() == "done").unwrap();
        assert_eq!(done.direction, Direction::Output);
    }

    #[test]
    fn fresh_names_avoid_collisions() {
        let ctx = Context::new();
        let mut comp = ctx.new_component("main");
        let r = ctx
            .make_cell(
                "fsm",
                CellType::Primitive {
                    name: Id::new("std_reg"),
                    params: vec![1],
                },
            )
            .unwrap();
        comp.cells.insert(r);
        assert_eq!(comp.fresh_cell_name("fsm").as_str(), "fsm0");
        assert_eq!(comp.fresh_cell_name("other").as_str(), "other");
        // Without inserting the returned name, the probe is repeatable.
        assert_eq!(comp.fresh_cell_name("fsm").as_str(), "fsm0");
    }

    /// Generating many names with one prefix must not rescan `{prefix}0..`
    /// per call: with the per-prefix hint the whole sequence is linear.
    #[test]
    fn fresh_names_scale_linearly_and_stay_unique() {
        let ctx = Context::new();
        let mut comp = ctx.new_component("main");
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..3000 {
            let cell = ctx
                .make_cell(
                    comp.fresh_cell_name("fsm"),
                    CellType::Primitive {
                        name: Id::new("std_reg"),
                        params: vec![1],
                    },
                )
                .unwrap();
            assert!(seen.insert(cell.name), "duplicate fresh name {}", cell.name);
            comp.cells.insert(cell);
            // Interleave a second prefix to check hints are per-prefix.
            if i % 7 == 0 {
                let g = comp.fresh_group_name("seq");
                assert!(!comp.groups.contains(g));
                comp.groups.insert(Group::new(g));
            }
        }
        // 1 direct `fsm` + 2999 numbered suffixes, ending at fsm2998.
        assert_eq!(comp.cells.len(), 3000);
        assert!(comp.cells.contains(Id::new("fsm2998")));
        // A hand-inserted name in the middle of the sequence is skipped.
        let mut comp2 = ctx.new_component("two");
        for name in ["g", "g0", "g2"] {
            comp2.groups.insert(Group::new(name));
        }
        assert_eq!(comp2.fresh_group_name("g").as_str(), "g1");
        comp2.groups.insert(Group::new("g1"));
        assert_eq!(comp2.fresh_group_name("g").as_str(), "g3");
    }

    #[test]
    fn topological_order_children_first() {
        let mut ctx = Context::new();
        let pe = ctx.new_component("pe");
        ctx.add_component(pe);
        let mut main = ctx.new_component("main");
        let cell = ctx
            .make_cell(
                "pe0",
                CellType::Component {
                    name: Id::new("pe"),
                },
            )
            .unwrap();
        main.cells.insert(cell);
        ctx.add_component(main);
        let order = ctx.topological_order().unwrap();
        let pos = |n: &str| order.iter().position(|i| i.as_str() == n).unwrap();
        assert!(pos("pe") < pos("main"));
    }
}
