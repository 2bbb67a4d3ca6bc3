//! Name-based rewriting of IR fragments.
//!
//! The sharing optimizations (paper §5.1–5.2) work by *renaming*: once the
//! coloring decides that group `incr_r1` should use adder `a0` instead of
//! `a1`, the rewrite is a local substitution inside the group — the
//! encapsulation property of groups guarantees nothing outside the group
//! needs to change.

use super::cell::Group;
use super::{Assignment, Atom, Control, Id, PortParent, PortRef};
use rustc_hash::FxHashMap;

/// A substitution over cell names and (optionally) exact port references.
#[derive(Debug, Clone, Default)]
pub struct Rewriter {
    /// Cell-level renames: every `old.port` becomes `new.port`.
    pub cell_map: FxHashMap<Id, Id>,
    /// Exact port-reference renames, applied before `cell_map`.
    pub port_map: FxHashMap<PortRef, PortRef>,
}

impl Rewriter {
    /// A rewriter renaming cells according to `cell_map`.
    pub fn from_cells(cell_map: FxHashMap<Id, Id>) -> Self {
        Rewriter {
            cell_map,
            port_map: FxHashMap::default(),
        }
    }

    /// Rewrite a single port reference.
    pub fn port(&self, p: PortRef) -> PortRef {
        if let Some(new) = self.port_map.get(&p) {
            return *new;
        }
        match p.parent {
            PortParent::Cell(c) => match self.cell_map.get(&c) {
                Some(new) => PortRef::cell(*new, p.port),
                None => p,
            },
            _ => p,
        }
    }

    /// Rewrite an assignment in place.
    pub fn assignment(&self, asgn: &mut Assignment) {
        asgn.dst = self.port(asgn.dst);
        if let Atom::Port(p) = &mut asgn.src {
            *p = self.port(*p);
        }
        asgn.guard.map_ports(&mut |p| self.port(p));
    }

    /// Rewrite every assignment in a group.
    pub fn group(&self, group: &mut Group) {
        for asgn in &mut group.assignments {
            self.assignment(asgn);
        }
    }

    /// Rewrite the port references inside a control program (`if`/`while`
    /// condition ports).
    pub fn control(&self, control: &mut Control) {
        match control {
            Control::Empty | Control::Enable { .. } => {}
            Control::Seq { stmts, .. } | Control::Par { stmts, .. } => {
                for s in stmts {
                    self.control(s);
                }
            }
            Control::If {
                port,
                tbranch,
                fbranch,
                ..
            } => {
                *port = self.port(*port);
                self.control(tbranch);
                self.control(fbranch);
            }
            Control::While { port, body, .. } => {
                *port = self.port(*port);
                self.control(body);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Guard;

    #[test]
    fn renames_cells_everywhere_in_assignment() {
        let rw = Rewriter::from_cells([(Id::new("a1"), Id::new("a0"))].into_iter().collect());
        let mut asgn = Assignment::guarded(
            PortRef::cell("a1", "left"),
            PortRef::cell("a1", "out"),
            Guard::port(PortRef::cell("a1", "done")).and(Guard::port(PortRef::cell("b", "out"))),
        );
        rw.assignment(&mut asgn);
        assert_eq!(asgn.dst, PortRef::cell("a0", "left"));
        assert_eq!(asgn.src, Atom::Port(PortRef::cell("a0", "out")));
        let ports = asgn.guard.ports();
        assert!(ports.contains(&PortRef::cell("a0", "done")));
        assert!(ports.contains(&PortRef::cell("b", "out")));
    }

    #[test]
    fn exact_port_map_wins() {
        let mut rw = Rewriter::from_cells([(Id::new("a"), Id::new("b"))].into_iter().collect());
        rw.port_map
            .insert(PortRef::cell("a", "out"), PortRef::cell("c", "out"));
        assert_eq!(
            rw.port(PortRef::cell("a", "out")),
            PortRef::cell("c", "out")
        );
        assert_eq!(rw.port(PortRef::cell("a", "in")), PortRef::cell("b", "in"));
    }

    #[test]
    fn holes_and_this_ports_untouched_by_cell_map() {
        let rw = Rewriter::from_cells([(Id::new("g"), Id::new("h"))].into_iter().collect());
        assert_eq!(rw.port(PortRef::hole("g", "go")), PortRef::hole("g", "go"));
        assert_eq!(rw.port(PortRef::this("done")), PortRef::this("done"));
    }

    #[test]
    fn rewrites_control_condition_ports() {
        let rw = Rewriter::from_cells([(Id::new("lt1"), Id::new("lt0"))].into_iter().collect());
        let mut c = Control::while_(
            PortRef::cell("lt1", "out"),
            Some(Id::new("cond")),
            Control::enable("body"),
        );
        rw.control(&mut c);
        match c {
            Control::While { port, .. } => assert_eq!(port, PortRef::cell("lt0", "out")),
            _ => unreachable!(),
        }
    }
}
