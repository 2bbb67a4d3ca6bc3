//! Name-based rewriting of IR fragments.
//!
//! The sharing optimizations (paper §5.1–5.2) work by *renaming*: once the
//! coloring decides that group `incr_r1` should use adder `a0` instead of
//! `a1`, the rewrite is a local substitution inside the group — the
//! encapsulation property of groups guarantees nothing outside the group
//! needs to change.
//!
//! A guard is renamed node by node into its component's pool: a node
//! whose ports do not change is interned back as itself, and a node two
//! rewritten assignments share is renamed once.

use super::cell::Group;
use super::{
    Assignment, Atom, Control, GuardId, GuardNode, GuardPool, Id, PortParent, PortRef, PostOrder,
};
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

    fn atom(&self, atom: Atom) -> Atom {
        match atom {
            Atom::Port(p) => Atom::Port(self.port(p)),
            constant => constant,
        }
    }

    /// Rewrite assignments in place; their guards are in `guards`, where
    /// the renamed guards go.
    pub fn assignments<'a>(
        &self,
        asgns: impl IntoIterator<Item = &'a mut Assignment>,
        guards: &mut GuardPool,
    ) {
        // By id, up to the highest root so far: a root's nodes are below it.
        let mut renamed: Vec<Option<GuardId>> = Vec::new();
        let mut walk = PostOrder::default();
        for asgn in asgns {
            asgn.dst = self.port(asgn.dst);
            asgn.src = self.atom(asgn.src);
            if renamed.len() <= asgn.guard.index() {
                renamed.resize(asgn.guard.index() + 1, None);
            }
            walk.push(asgn.guard);
            while let Some(id) = walk.next(guards, |id| renamed[id.index()].is_some()) {
                let node = match guards[id] {
                    GuardNode::Port(p) => GuardNode::Port(self.port(p)),
                    GuardNode::Comp(op, l, r) => GuardNode::Comp(op, self.atom(l), self.atom(r)),
                    node => node.map_children(|c| renamed[c.index()].expect("children first")),
                };
                renamed[id.index()] = Some(guards.add(node));
            }
            asgn.guard = renamed[asgn.guard.index()].expect("the walk renamed the root");
        }
    }

    /// Rewrite every assignment in a group whose guards are in `guards`.
    pub fn group(&self, group: &mut Group, guards: &mut GuardPool) {
        self.assignments(&mut group.assignments, guards);
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

    #[test]
    fn renames_cells_everywhere_in_assignment() {
        let rw = Rewriter::from_cells([(Id::new("a1"), Id::new("a0"))].into_iter().collect());
        let mut guards = GuardPool::default();
        let (done, b) = (
            guards.port(PortRef::cell("a1", "done")),
            guards.port(PortRef::cell("b", "out")),
        );
        let guard = guards.and(done, b);
        let mut asgn = Assignment::guarded(
            PortRef::cell("a1", "left"),
            PortRef::cell("a1", "out"),
            guard,
        );
        rw.assignments([&mut asgn], &mut guards);
        assert_eq!(asgn.dst, PortRef::cell("a0", "left"));
        assert_eq!(asgn.src, Atom::Port(PortRef::cell("a0", "out")));
        assert_eq!(
            guards.ports(asgn.guard).collect::<Vec<_>>(),
            [PortRef::cell("a0", "done"), PortRef::cell("b", "out")]
        );
    }

    /// A node two assignments share is renamed once, into one node; the
    /// node it was stays for whatever else reads it.
    #[test]
    fn a_shared_node_is_renamed_once() {
        let rw = Rewriter::from_cells([(Id::new("a"), Id::new("z"))].into_iter().collect());
        let mut guards = GuardPool::default();
        let [a, b, c] = ["a", "b", "c"].map(|n| guards.port(PortRef::cell(n, "out")));
        let shared = guards.and(a, b);
        let x = guards.not(shared);
        let y = guards.or(shared, c);
        let dst = PortRef::cell("r", "in");
        let mut asgns = [x, y].map(|g| Assignment::guarded(dst, Atom::constant(1, 1), g));
        rw.assignments(&mut asgns, &mut guards);
        let text = |g| guards.display(g).to_string();
        assert_eq!(text(asgns[0].guard), "!(z.out & b.out)");
        assert_eq!(text(asgns[1].guard), "z.out & b.out | c.out");
        assert_eq!(text(shared), "a.out & b.out");
        let (GuardNode::Not(renamed), GuardNode::Or(also, _)) =
            (guards[asgns[0].guard], guards[asgns[1].guard])
        else {
            panic!("the roots keep their connectives");
        };
        assert_eq!(renamed, also);
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
