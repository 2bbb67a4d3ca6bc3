//! Guard expressions (paper §3.2).
//!
//! Guards condition assignments: `add.left = cmp.out ? a_reg.out`. They are
//! boolean expressions over 1-bit ports plus integer comparisons between
//! ports and constants — the comparison forms are exactly what the FSM
//! compilation passes emit (`fsm.out == 0`, `fsm.out < 3`; paper Fig. 2c
//! and §4.4).
//!
//! # Sharing
//!
//! The children of `Not`/`And`/`Or` are `Arc<Guard>`: a guard is a DAG
//! whose sub-guards may have several owners. Cloning a guard copies its
//! root and shares everything beneath it, and interface-signal inlining
//! ([`RemoveGroups`](crate::passes::RemoveGroups)) hands every reader of a
//! hole the same node, so a lowered component carries each FSM condition
//! once however many assignments test it. Nothing observable depends on
//! who shares what: [`PartialEq`] and [`Hash`] are structural, the printer
//! and the Verilog emitter write a shared node out once per use, and
//! [`Guard::map_ports`] copies a shared node before it renames inside it,
//! so a rewrite through one owner never shows through another.
//!
//! # Walking a shared guard once
//!
//! A walk that recurses through the children visits a node once per path
//! to it — after lowering, an order of magnitude more visits than there
//! are nodes. [`GuardMemo`] keeps a walk's result per node, keyed on the
//! node's address ([`Arc::as_ptr`]), so the walk enters a shared node
//! once. An address identifies a node only while the node is alive, so
//! the memo holds an `Arc` of every node it has an entry for: a key can
//! never be freed and reused under it, even by a walk that replaces the
//! guards it came from (`guard-simplify`, `remove-groups`). What the memo
//! cannot see is a node *changed in place*; a memo is for one walk over
//! guards nobody mutates meanwhile, and `map_ports` — the one in-place
//! mutation — copies a node the memo holds instead of writing to it.
//! Identity is only ever a shortcut to a result that depends on the node's
//! structure alone (or on structure and a context fixed for the memo's
//! life, such as one component instance's port numbering), which is why
//! equality stays structural: two equal guards built apart must still
//! compare equal.

use super::cell::{Atom, PortRef};
use std::collections::hash_map::{Entry, HashMap};
use std::sync::Arc;

/// Comparison operators usable inside guards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompOp {
    /// `==`
    Eq,
    /// `!=`
    Neq,
    /// `>`
    Gt,
    /// `<`
    Lt,
    /// `>=`
    Geq,
    /// `<=`
    Leq,
}

impl CompOp {
    /// Evaluate the comparison on unsigned values.
    pub fn eval(self, l: u64, r: u64) -> bool {
        match self {
            CompOp::Eq => l == r,
            CompOp::Neq => l != r,
            CompOp::Gt => l > r,
            CompOp::Lt => l < r,
            CompOp::Geq => l >= r,
            CompOp::Leq => l <= r,
        }
    }

    /// The textual operator.
    pub fn as_str(self) -> &'static str {
        match self {
            CompOp::Eq => "==",
            CompOp::Neq => "!=",
            CompOp::Gt => ">",
            CompOp::Lt => "<",
            CompOp::Geq => ">=",
            CompOp::Leq => "<=",
        }
    }
}

/// A boolean guard expression.
///
/// The children of a connective are shared: cloning a guard copies its
/// root only, and several guards may own one sub-guard. Equality and
/// hashing are structural, and [`map_ports`](Guard::map_ports) copies a
/// shared node before it writes to it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Guard {
    /// Always active; unconditional assignments carry this guard.
    True,
    /// The value of a 1-bit port.
    Port(PortRef),
    /// Logical negation.
    Not(Arc<Guard>),
    /// Logical conjunction.
    And(Arc<Guard>, Arc<Guard>),
    /// Logical disjunction.
    Or(Arc<Guard>, Arc<Guard>),
    /// Integer comparison between two atoms of equal width.
    Comp(CompOp, Atom, Atom),
}

impl Guard {
    /// Guard reading a 1-bit port.
    pub fn port(p: PortRef) -> Self {
        Guard::Port(p)
    }

    /// `port == val` against a sized constant.
    pub fn port_eq(p: PortRef, val: u64, width: u32) -> Self {
        Guard::Comp(CompOp::Eq, Atom::Port(p), Atom::constant(val, width))
    }

    /// `port < val` against a sized constant.
    pub fn port_lt(p: PortRef, val: u64, width: u32) -> Self {
        Guard::Comp(CompOp::Lt, Atom::Port(p), Atom::constant(val, width))
    }

    /// `port >= val` against a sized constant.
    pub fn port_geq(p: PortRef, val: u64, width: u32) -> Self {
        Guard::Comp(CompOp::Geq, Atom::Port(p), Atom::constant(val, width))
    }

    /// Conjunction with [`Guard::True`] identities folded away.
    pub fn and(self, other: Guard) -> Guard {
        match (self, other) {
            (Guard::True, g) | (g, Guard::True) => g,
            (a, b) => Guard::And(Arc::new(a), Arc::new(b)),
        }
    }

    /// Disjunction with `True` short-circuiting.
    pub fn or(self, other: Guard) -> Guard {
        match (self, other) {
            (Guard::True, _) | (_, Guard::True) => Guard::True,
            (a, b) => Guard::Or(Arc::new(a), Arc::new(b)),
        }
    }

    /// Negation with double negations folded away.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Guard {
        match self {
            Guard::Not(inner) => Arc::unwrap_or_clone(inner),
            g => Guard::Not(Arc::new(g)),
        }
    }

    /// How tightly the guard's top operator binds when printed:
    /// `!` > comparison > `&` > `|`.
    fn precedence(&self) -> u8 {
        match self {
            Guard::Or(..) => 1,
            Guard::And(..) => 2,
            Guard::Comp(..) => 3,
            _ => 4,
        }
    }

    /// Does this guard print in parentheses as an operand of `parent`? A
    /// child that binds looser than its parent does, and everything that is
    /// not a leaf or a `!` does under `!`.
    pub fn needs_parens_under(&self, parent: &Guard) -> bool {
        let needed = match parent {
            Guard::Not(_) => 4,
            _ => parent.precedence(),
        };
        self.precedence() < needed
    }

    /// True when the guard is the constant [`Guard::True`].
    pub fn is_true(&self) -> bool {
        matches!(self, Guard::True)
    }

    /// Collect every port read by the guard into `out`.
    pub fn ports_into(&self, out: &mut Vec<PortRef>) {
        match self {
            Guard::True => {}
            Guard::Port(p) => out.push(*p),
            Guard::Not(g) => g.ports_into(out),
            Guard::And(a, b) | Guard::Or(a, b) => {
                a.ports_into(out);
                b.ports_into(out);
            }
            Guard::Comp(_, l, r) => {
                if let Atom::Port(p) = l {
                    out.push(*p);
                }
                if let Atom::Port(p) = r {
                    out.push(*p);
                }
            }
        }
    }

    /// Every port read by the guard.
    pub fn ports(&self) -> Vec<PortRef> {
        let mut v = Vec::new();
        self.ports_into(&mut v);
        v
    }

    /// Iterate over every port read by the guard without collecting them.
    ///
    /// The iterator keeps an explicit worklist instead of materializing a
    /// `Vec<PortRef>`; for the common [`Guard::True`] case it performs no
    /// allocation at all, which matters in the analysis loops that scan
    /// every assignment of a component (see
    /// [`Assignment::reads_iter`](super::Assignment::reads_iter)).
    pub fn ports_iter(&self) -> GuardPorts<'_> {
        let mut it = GuardPorts {
            stack: Vec::new(),
            pending: None,
        };
        if !self.is_true() {
            it.stack.push(self);
        }
        it
    }

    /// Rewrite every port reference through `f`. A node with another
    /// owner is copied first, so the rename stays in this guard.
    pub fn map_ports(&mut self, f: &mut impl FnMut(PortRef) -> PortRef) {
        match self {
            Guard::True => {}
            Guard::Port(p) => *p = f(*p),
            Guard::Not(g) => Arc::make_mut(g).map_ports(f),
            Guard::And(a, b) | Guard::Or(a, b) => {
                Arc::make_mut(a).map_ports(f);
                Arc::make_mut(b).map_ports(f);
            }
            Guard::Comp(_, l, r) => {
                for atom in [l, r] {
                    if let Atom::Port(p) = atom {
                        *p = f(*p);
                    }
                }
            }
        }
    }

    /// Call `f` on this guard and on every node beneath it, parents first,
    /// passing over a shared node that `seen` has been through already.
    /// With one `seen` for a whole component each node is entered once,
    /// however many assignments reach it.
    pub fn visit_once<'a>(&'a self, seen: &mut GuardMemo<()>, f: &mut impl FnMut(&'a Guard)) {
        f(self);
        let mut child = |g: &'a Arc<Guard>| {
            if seen.enter(g) {
                g.visit_once(seen, f);
            }
        };
        match self {
            Guard::True | Guard::Port(_) | Guard::Comp(..) => {}
            Guard::Not(g) => child(g),
            Guard::And(a, b) | Guard::Or(a, b) => {
                child(a);
                child(b);
            }
        }
    }

    /// Number of nodes in the guard counted as a tree, a shared node once
    /// per use: the size of what the printer and the Verilog emitter write.
    pub fn size(&self) -> usize {
        match self {
            Guard::True => 0,
            Guard::Port(_) => 1,
            Guard::Not(g) => 1 + g.size(),
            Guard::And(a, b) | Guard::Or(a, b) => 1 + a.size() + b.size(),
            Guard::Comp(..) => 1,
        }
    }
}

/// What one walk computed for each shared node it has been through, keyed
/// on the node's address. The memo holds every node it has an entry for,
/// so an address stays that node's for the memo's life; what it cannot see
/// is a node changed in place. Make one per walk over guards nobody mutates
/// meanwhile — and per context the results depend on besides the node's
/// structure — and drop it with the walk.
#[derive(Debug)]
pub struct GuardMemo<T> {
    /// The node is kept beside its result so that its address stays its own.
    by_node: HashMap<*const Guard, (Arc<Guard>, T)>,
}

impl<T> Default for GuardMemo<T> {
    fn default() -> Self {
        GuardMemo {
            by_node: HashMap::new(),
        }
    }
}

impl<T> GuardMemo<T> {
    /// What was recorded for `node`, if the walk has been through it.
    pub fn get(&self, node: &Arc<Guard>) -> Option<&T> {
        // An entry holds the node, so a node with one owner has none.
        if Arc::strong_count(node) == 1 {
            return None;
        }
        self.by_node.get(&Arc::as_ptr(node)).map(|(_, value)| value)
    }

    /// Record `value` for `node`. A node with a single owner is reached
    /// through that owner alone — once, if the owner is — so nothing is
    /// kept for it and an unshared guard costs the walk no table at all.
    pub fn insert(&mut self, node: &Arc<Guard>, value: T) {
        if Arc::strong_count(node) > 1 {
            self.by_node
                .insert(Arc::as_ptr(node), (Arc::clone(node), value));
        }
    }

    /// Forget every node, keeping the table's storage for the next walk.
    pub fn clear(&mut self) {
        self.by_node.clear();
    }
}

impl GuardMemo<()> {
    /// Record `node`; false when it was recorded already.
    fn enter(&mut self, node: &Arc<Guard>) -> bool {
        if Arc::strong_count(node) == 1 {
            return true;
        }
        match self.by_node.entry(Arc::as_ptr(node)) {
            Entry::Occupied(_) => false,
            Entry::Vacant(slot) => {
                slot.insert((Arc::clone(node), ()));
                true
            }
        }
    }
}

/// Lazy depth-first iterator over the ports of a [`Guard`], created by
/// [`Guard::ports_iter`]. Yields ports in the same order as
/// [`Guard::ports_into`].
pub struct GuardPorts<'a> {
    stack: Vec<&'a Guard>,
    /// Second port of a comparison whose first port was just yielded.
    pending: Option<PortRef>,
}

impl Iterator for GuardPorts<'_> {
    type Item = PortRef;

    fn next(&mut self) -> Option<PortRef> {
        if let Some(p) = self.pending.take() {
            return Some(p);
        }
        while let Some(g) = self.stack.pop() {
            match g {
                Guard::True => {}
                Guard::Port(p) => return Some(*p),
                Guard::Not(inner) => self.stack.push(inner),
                // Left child visited first: push right below left.
                Guard::And(a, b) | Guard::Or(a, b) => {
                    self.stack.push(b);
                    self.stack.push(a);
                }
                Guard::Comp(_, l, r) => match (l.port(), r.port()) {
                    (Some(l), Some(r)) => {
                        self.pending = Some(*r);
                        return Some(*l);
                    }
                    (Some(p), None) | (None, Some(p)) => return Some(*p),
                    (None, None) => {}
                },
            }
        }
        None
    }
}

impl From<PortRef> for Guard {
    fn from(p: PortRef) -> Self {
        Guard::Port(p)
    }
}

impl std::fmt::Display for Guard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Precedence: ! > comparison > & > |. Parenthesize children with
        // looser binding (matching the parser's grammar, so `!(x == 1)`
        // keeps its parentheses while `x == 1 & y` does not need any).
        fn fmt_under(
            g: &Guard,
            parent: Option<&Guard>,
            f: &mut std::fmt::Formatter<'_>,
        ) -> std::fmt::Result {
            let need_parens = parent.is_some_and(|parent| g.needs_parens_under(parent));
            if need_parens {
                write!(f, "(")?;
            }
            match g {
                Guard::True => write!(f, "1'd1")?,
                Guard::Port(p) => write!(f, "{p}")?,
                Guard::Not(inner) => {
                    write!(f, "!")?;
                    fmt_under(inner, Some(g), f)?;
                }
                Guard::And(a, b) => {
                    fmt_under(a, Some(g), f)?;
                    write!(f, " & ")?;
                    fmt_under(b, Some(g), f)?;
                }
                Guard::Or(a, b) => {
                    fmt_under(a, Some(g), f)?;
                    write!(f, " | ")?;
                    fmt_under(b, Some(g), f)?;
                }
                Guard::Comp(op, l, r) => write!(f, "{l} {} {r}", op.as_str())?,
            }
            if need_parens {
                write!(f, ")")?;
            }
            Ok(())
        }
        fmt_under(self, None, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(name: &str) -> PortRef {
        PortRef::cell(name, "out")
    }

    #[test]
    fn comp_op_eval() {
        assert!(CompOp::Eq.eval(3, 3));
        assert!(CompOp::Neq.eval(3, 4));
        assert!(CompOp::Lt.eval(3, 4));
        assert!(CompOp::Geq.eval(4, 4));
        assert!(!CompOp::Gt.eval(4, 4));
        assert!(CompOp::Leq.eval(4, 4));
    }

    #[test]
    fn and_folds_true() {
        let g = Guard::True.and(Guard::port(p("a")));
        assert_eq!(g, Guard::port(p("a")));
        let g = Guard::port(p("a")).and(Guard::True);
        assert_eq!(g, Guard::port(p("a")));
    }

    #[test]
    fn or_short_circuits_true() {
        assert!(Guard::True.or(Guard::port(p("a"))).is_true());
    }

    #[test]
    fn not_folds_double_negation() {
        let g = Guard::port(p("a")).not().not();
        assert_eq!(g, Guard::port(p("a")));
    }

    #[test]
    fn collects_ports_from_comparisons() {
        let g = Guard::port_eq(p("fsm"), 2, 4).and(Guard::port(p("done")));
        let mut ports = g.ports();
        ports.sort();
        assert_eq!(ports, vec![p("done"), p("fsm")]);
    }

    #[test]
    fn display_respects_precedence() {
        let g = Guard::port(p("a")).or(Guard::port(p("b")).and(Guard::port(p("c"))));
        assert_eq!(g.to_string(), "a.out | b.out & c.out");
        let g2 = Guard::port(p("a"))
            .or(Guard::port(p("b")))
            .and(Guard::port(p("c")));
        assert_eq!(g2.to_string(), "(a.out | b.out) & c.out");
        let g3 = Guard::port(p("a")).and(Guard::port(p("b"))).not();
        assert_eq!(g3.to_string(), "!(a.out & b.out)");
    }

    #[test]
    fn ports_iter_matches_ports_into() {
        let guards = [
            Guard::True,
            Guard::port(p("a")),
            Guard::port(p("a")).not(),
            Guard::port(p("a")).and(Guard::port(p("b")).or(Guard::port(p("c")))),
            Guard::port_eq(p("fsm"), 2, 4).and(Guard::port(p("done"))),
            Guard::Comp(CompOp::Lt, Atom::Port(p("x")), Atom::Port(p("y"))),
            Guard::Comp(CompOp::Eq, Atom::constant(1, 2), Atom::constant(1, 2)),
        ];
        for g in guards {
            let collected: Vec<_> = g.ports_iter().collect();
            assert_eq!(collected, g.ports(), "order/content mismatch for {g}");
        }
    }

    /// A rename through a node that two guards share copies the node: the
    /// other owner keeps reading the old port.
    #[test]
    fn map_ports_through_a_shared_node_leaves_the_other_owner() {
        let shared = Arc::new(Guard::port(p("a")).and(Guard::port(p("b"))));
        let mut renamed = Guard::Not(Arc::clone(&shared));
        let other = Guard::Or(Arc::clone(&shared), Arc::new(Guard::port(p("c"))));
        renamed.map_ports(&mut |port| if port == p("a") { p("z") } else { port });
        assert_eq!(renamed.to_string(), "!(z.out & b.out)");
        assert_eq!(other.to_string(), "a.out & b.out | c.out");
        assert_eq!(shared.to_string(), "a.out & b.out");
    }

    #[test]
    fn visit_once_enters_a_shared_node_once() {
        let shared = Arc::new(Guard::port(p("a")).and(Guard::port(p("b"))));
        let guards = [
            Guard::Not(Arc::clone(&shared)),
            Guard::Or(Arc::clone(&shared), Arc::clone(&shared)),
        ];
        let mut seen = GuardMemo::default();
        let mut entered = Vec::new();
        for g in &guards {
            g.visit_once(&mut seen, &mut |node| entered.push(node.to_string()));
        }
        // The two roots, the shared conjunction and its two ports.
        assert_eq!(entered.len(), 5, "{entered:?}");
        assert_eq!(guards[1].size(), 7, "as a tree it is still seven nodes");
    }

    #[test]
    fn size_counts_nodes() {
        assert_eq!(Guard::True.size(), 0);
        let g = Guard::port(p("a")).and(Guard::port_eq(p("b"), 1, 2));
        assert_eq!(g.size(), 3);
    }
}
