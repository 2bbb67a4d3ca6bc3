//! Cells, ports, and guarded assignments (paper §3.2).

use super::{Attributes, Guard, Id};
use crate::utils::Named;

/// Direction of a port from the perspective of its owner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Data flows into the owner.
    Input,
    /// Data flows out of the owner.
    Output,
}

impl Direction {
    /// The opposite direction; instantiating a component flips its
    /// signature's directions from the instantiator's perspective.
    pub fn reverse(self) -> Self {
        match self {
            Direction::Input => Direction::Output,
            Direction::Output => Direction::Input,
        }
    }
}

/// A named, sized port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortDef {
    /// Port name, unique within its owner.
    pub name: Id,
    /// Bit width. Calyx ports are untyped but sized (paper §3.1).
    pub width: u32,
    /// Direction from the owner's perspective.
    pub direction: Direction,
    /// Port-level attributes (e.g. `interface` on `go`/`done`).
    pub attributes: Attributes,
}

impl PortDef {
    /// Construct a port definition with no attributes.
    pub fn new(name: impl Into<Id>, width: u32, direction: Direction) -> Self {
        PortDef {
            name: name.into(),
            width,
            direction,
            attributes: Attributes::new(),
        }
    }
}

/// What a [`PortRef`] is anchored on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PortParent {
    /// A port on a cell: `adder.left`.
    Cell(Id),
    /// A *hole* on a group: `incr[go]` or `incr[done]` (paper §3.3).
    Group(Id),
    /// A port on the enclosing component's own signature.
    This,
}

/// A reference to a port.
///
/// References are by-name rather than by-pointer: passes rewrite programs by
/// substituting names (see [`Rewriter`](super::Rewriter)), and equality/
/// hashing of references is structural.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortRef {
    /// The entity owning the port.
    pub parent: PortParent,
    /// The port's name on that entity.
    pub port: Id,
}

impl PortRef {
    /// Reference to `cell.port`.
    pub fn cell(cell: impl Into<Id>, port: impl Into<Id>) -> Self {
        PortRef {
            parent: PortParent::Cell(cell.into()),
            port: port.into(),
        }
    }

    /// Reference to a hole `group[port]` where `port` is `go` or `done`.
    pub fn hole(group: impl Into<Id>, port: impl Into<Id>) -> Self {
        PortRef {
            parent: PortParent::Group(group.into()),
            port: port.into(),
        }
    }

    /// Reference to a port on the enclosing component.
    pub fn this(port: impl Into<Id>) -> Self {
        PortRef {
            parent: PortParent::This,
            port: port.into(),
        }
    }

    /// True when this reference points at a group hole.
    pub fn is_hole(&self) -> bool {
        matches!(self.parent, PortParent::Group(_))
    }

    /// The cell this port belongs to, if its parent is a cell.
    pub fn cell_parent(&self) -> Option<Id> {
        match self.parent {
            PortParent::Cell(c) => Some(c),
            _ => None,
        }
    }
}

impl std::fmt::Display for PortRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.parent {
            PortParent::Cell(c) => write!(f, "{}.{}", c, self.port),
            PortParent::Group(g) => write!(f, "{}[{}]", g, self.port),
            PortParent::This => write!(f, "{}", self.port),
        }
    }
}

/// How a cell is implemented.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CellType {
    /// An instance of a library primitive, e.g. `std_reg(32)`.
    Primitive {
        /// Primitive name in the [`Library`](super::Library).
        name: Id,
        /// Parameter bindings in declaration order (e.g. `WIDTH`).
        params: Vec<u64>,
    },
    /// An instance of another component in the same [`Context`](super::Context).
    Component {
        /// Name of the instantiated component.
        name: Id,
    },
}

/// A hardware instance inside a component (paper §3.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// Instance name, unique within the component.
    pub name: Id,
    /// What this cell instantiates.
    pub prototype: CellType,
    /// Resolved ports, from the instantiator's perspective.
    pub ports: Vec<PortDef>,
    /// Cell-level attributes (e.g. `external` on top-level memories).
    pub attributes: Attributes,
}

impl Cell {
    /// The definition of port `name`, if the cell has one.
    pub fn port(&self, name: Id) -> Option<&PortDef> {
        self.ports.iter().find(|p| p.name == name)
    }

    /// Width of port `name`, if the cell has one.
    pub fn port_width(&self, name: Id) -> Option<u32> {
        self.port(name).map(|p| p.width)
    }

    /// True when this cell instantiates primitive `prim`.
    pub fn is_primitive(&self, prim: &str) -> bool {
        matches!(&self.prototype, CellType::Primitive { name, .. } if name.as_str() == prim)
    }

    /// The primitive's parameters, if this is a primitive instance.
    pub fn primitive_params(&self) -> Option<&[u64]> {
        match &self.prototype {
            CellType::Primitive { params, .. } => Some(params),
            CellType::Component { .. } => None,
        }
    }

    /// True for `std_reg` instances — the cells tracked by register sharing.
    pub fn is_register(&self) -> bool {
        self.is_primitive("std_reg")
    }

    /// True for memory primitives of any dimensionality.
    pub fn is_memory(&self) -> bool {
        matches!(&self.prototype, CellType::Primitive { name, .. }
            if name.as_str().starts_with("std_mem_d"))
    }
}

impl Named for Cell {
    fn name(&self) -> Id {
        self.name
    }
}

/// The right-hand side of an assignment: a port or a sized literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Atom {
    /// Read the named port.
    Port(PortRef),
    /// A constant, printed as `width'dval` (e.g. `32'd1`).
    Const {
        /// The constant's value, already truncated to `width` bits.
        val: u64,
        /// The constant's bit width.
        width: u32,
    },
}

impl Atom {
    /// A sized constant. Values wider than `width` are truncated, matching
    /// hardware semantics.
    pub fn constant(val: u64, width: u32) -> Self {
        let masked = if width >= 64 {
            val
        } else {
            val & ((1u64 << width) - 1)
        };
        Atom::Const { val: masked, width }
    }

    /// The port read by this atom, if it is not a constant.
    pub fn port(&self) -> Option<&PortRef> {
        match self {
            Atom::Port(p) => Some(p),
            Atom::Const { .. } => None,
        }
    }
}

impl From<PortRef> for Atom {
    fn from(p: PortRef) -> Self {
        Atom::Port(p)
    }
}

impl std::fmt::Display for Atom {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Atom::Port(p) => write!(f, "{p}"),
            Atom::Const { val, width } => write!(f, "{width}'d{val}"),
        }
    }
}

/// A guarded, non-blocking connection: `dst = guard ? src` (paper §3.2).
///
/// When the guard is [`Guard::True`] the assignment is unconditional and
/// prints without the `guard ?` prefix. Calyx requires a unique active
/// driver per port per cycle; the simulator enforces this dynamically and
/// [`validate`](super::validate) catches syntactic duplicates.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// The driven port.
    pub dst: PortRef,
    /// The driving port or constant.
    pub src: Atom,
    /// Activation condition.
    pub guard: Guard,
}

impl Assignment {
    /// An unconditional assignment.
    pub fn new(dst: PortRef, src: impl Into<Atom>) -> Self {
        Assignment {
            dst,
            src: src.into(),
            guard: Guard::True,
        }
    }

    /// A guarded assignment.
    pub fn guarded(dst: PortRef, src: impl Into<Atom>, guard: Guard) -> Self {
        Assignment {
            dst,
            src: src.into(),
            guard,
        }
    }

    /// All ports read by this assignment: the source (if a port) plus every
    /// port in the guard.
    ///
    /// Allocates a fresh `Vec` on every call; inside analysis loops that
    /// visit every assignment, prefer the non-collecting
    /// [`reads_iter`](Assignment::reads_iter).
    pub fn reads(&self) -> Vec<PortRef> {
        self.reads_iter().collect()
    }

    /// Iterate over the ports read by this assignment without allocating a
    /// vector: the source port (if any) followed by the guard's ports in
    /// [`Guard::ports_into`](super::Guard::ports_into) order.
    ///
    /// For unguarded assignments (guard [`Guard::True`](super::Guard::True))
    /// this performs no heap allocation at all.
    pub fn reads_iter(&self) -> impl Iterator<Item = PortRef> + '_ {
        self.src
            .port()
            .copied()
            .into_iter()
            .chain(self.guard.ports_iter())
    }
}

/// A named collection of assignments implementing one action (paper §3.3).
#[derive(Debug, Clone, PartialEq)]
pub struct Group {
    /// Group name, unique within the component.
    pub name: Id,
    /// The encapsulated assignments.
    pub assignments: Vec<Assignment>,
    /// Group attributes, notably `"static"` latency.
    pub attributes: Attributes,
}

impl Group {
    /// An empty group named `name`.
    pub fn new(name: impl Into<Id>) -> Self {
        Group {
            name: name.into(),
            assignments: Vec::new(),
            attributes: Attributes::new(),
        }
    }

    /// The group's `"static"` latency attribute, if annotated.
    pub fn static_latency(&self) -> Option<u64> {
        self.attributes.get(super::attr::static_())
    }

    /// Reference to this group's `done` hole.
    pub fn done_hole(&self) -> PortRef {
        PortRef::hole(self.name, "done")
    }

    /// Assignments that write this group's `done` hole.
    pub fn done_writes(&self) -> impl Iterator<Item = &Assignment> {
        let done = self.done_hole();
        self.assignments.iter().filter(move |a| a.dst == done)
    }

    /// Names of all cells referenced (read or written) by the group.
    pub fn used_cells(&self) -> std::collections::BTreeSet<Id> {
        let mut cells = std::collections::BTreeSet::new();
        for asgn in &self.assignments {
            if let Some(c) = asgn.dst.cell_parent() {
                cells.insert(c);
            }
            for p in asgn.reads_iter() {
                if let Some(c) = p.cell_parent() {
                    cells.insert(c);
                }
            }
        }
        cells
    }
}

impl Named for Group {
    fn name(&self) -> Id {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atom_constants_truncate() {
        assert_eq!(
            Atom::constant(0x1ff, 8),
            Atom::Const {
                val: 0xff,
                width: 8
            }
        );
        assert_eq!(Atom::constant(5, 32), Atom::Const { val: 5, width: 32 });
        assert_eq!(
            Atom::constant(u64::MAX, 64),
            Atom::Const {
                val: u64::MAX,
                width: 64
            }
        );
    }

    #[test]
    fn port_ref_display() {
        assert_eq!(PortRef::cell("a", "out").to_string(), "a.out");
        assert_eq!(PortRef::hole("incr", "done").to_string(), "incr[done]");
        assert_eq!(PortRef::this("go").to_string(), "go");
    }

    #[test]
    fn assignment_reads_include_guard_ports() {
        let asgn = Assignment::guarded(
            PortRef::cell("r", "in"),
            PortRef::cell("a", "out"),
            Guard::port(PortRef::cell("cmp", "out")),
        );
        let reads = asgn.reads();
        assert!(reads.contains(&PortRef::cell("a", "out")));
        assert!(reads.contains(&PortRef::cell("cmp", "out")));
    }

    #[test]
    fn reads_iter_matches_reads() {
        let asgns = [
            Assignment::new(PortRef::cell("r", "in"), Atom::constant(1, 8)),
            Assignment::new(PortRef::cell("r", "in"), PortRef::cell("a", "out")),
            Assignment::guarded(
                PortRef::cell("r", "in"),
                PortRef::cell("a", "out"),
                Guard::port(PortRef::cell("cmp", "out"))
                    .and(Guard::port(PortRef::cell("b", "out"))),
            ),
        ];
        for asgn in &asgns {
            let iterated: Vec<_> = asgn.reads_iter().collect();
            assert_eq!(iterated, asgn.reads());
        }
    }

    #[test]
    fn group_used_cells() {
        let mut g = Group::new("g");
        g.assignments.push(Assignment::new(
            PortRef::cell("r", "in"),
            PortRef::cell("add", "out"),
        ));
        g.assignments
            .push(Assignment::new(g.done_hole(), PortRef::cell("r", "done")));
        let cells: Vec<_> = g.used_cells().into_iter().map(|c| c.as_str()).collect();
        assert_eq!(cells, vec!["add", "r"]);
    }

    #[test]
    fn direction_reverse() {
        assert_eq!(Direction::Input.reverse(), Direction::Output);
        assert_eq!(Direction::Output.reverse(), Direction::Input);
    }
}
