//! Guard expressions (paper §3.2).
//!
//! Guards condition assignments: `add.left = cmp.out ? a_reg.out`. They are
//! boolean expressions over 1-bit ports plus integer comparisons between
//! ports and constants — the comparison forms are exactly what the FSM
//! compilation passes emit (`fsm.out == 0`, `fsm.out < 3`; paper Fig. 2c
//! and §4.4).
//!
//! # One pool per component
//!
//! A component stores its guards in one hash-consed [`GuardPool`], and an
//! [`Assignment`](super::Assignment) holds a [`GuardId`] into it. A node's
//! children are ids, structurally equal guards are one id, and a child's
//! id is always lower than its parent's, so ascending id order is a
//! topological order. [`GuardId::TRUE`] is id 0 in every pool, which is
//! why an assignment can tell that it is unconditional without the pool.
//!
//! Every walk over a component's guards is a loop over ids with a `Vec`
//! memo: a pass that rewrites every reachable node goes through them in
//! ascending order, a walk that must keep first-encounter order from the
//! assignment roots uses [`PostOrder`]'s explicit stack, and the printers
//! keep one of their own. None of them recurse, so a guard as deep as the
//! input can spell is as cheap as a wide one. A node nobody can see being
//! shared is shared anyway: what reads a pool depends on structure alone,
//! and hash-consing keeps structure. A pass that rewrites guards leaves
//! the nodes it replaced behind; [`Component::compact_guards`] drops them,
//! keeping the order.
//!
//! [`Component::compact_guards`]: super::Component::compact_guards
//!
//! The pool is the only form a guard takes. The parser, the frontends and
//! the passes build guards with the pool's constructors — through
//! [`Builder::guards`] when they build a component — so one folding policy
//! holds everywhere: [`and`](GuardPool::and), [`or`](GuardPool::or) and
//! [`not`](GuardPool::not) fold the `TRUE` identity, `TRUE` absorption and
//! double negation, and [`add`](GuardPool::add) folds nothing.
//!
//! [`Builder::guards`]: super::Builder::guards

use super::cell::{Atom, PortRef};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Index;

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

/// How tightly an operator binds when printed: `!` > comparison > `&` >
/// `|`. Leaves bind like `!`.
const OR: u8 = 1;
const AND: u8 = 2;
const COMP: u8 = 3;
const UNARY: u8 = 4;

/// Does a child of binding `child` print in parentheses under a parent of
/// binding `parent`? A child that binds looser than its parent does, and
/// everything that is not a leaf or a `!` does under `!`.
fn needs_parens(child: u8, parent: u8) -> bool {
    child < parent
}

/// `l op r`.
fn write_comparison(op: CompOp, l: &Atom, r: &Atom, out: &mut impl fmt::Write) -> fmt::Result {
    l.write_to(out)?;
    out.write_char(' ')?;
    out.write_str(op.as_str())?;
    out.write_char(' ')?;
    r.write_to(out)
}

/// A guard in its component's [`GuardPool`]. Ids are dense, and a node's
/// children have lower ids than the node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GuardId(u32);

impl GuardId {
    /// The constant true guard, id 0 of every pool.
    pub const TRUE: GuardId = GuardId(0);

    /// True for [`GuardId::TRUE`]: the assignment is unconditional.
    pub fn is_true(self) -> bool {
        self == GuardId::TRUE
    }

    /// Position in the pool, for `Vec` memos indexed by id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One node of a [`GuardPool`]: a guard whose children are ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GuardNode {
    /// Always active.
    True,
    /// The value of a 1-bit port.
    Port(PortRef),
    /// Logical negation.
    Not(GuardId),
    /// Logical conjunction.
    And(GuardId, GuardId),
    /// Logical disjunction.
    Or(GuardId, GuardId),
    /// Integer comparison between two atoms of equal width.
    Comp(CompOp, Atom, Atom),
}

impl GuardNode {
    fn binding(&self) -> u8 {
        match self {
            GuardNode::Or(..) => OR,
            GuardNode::And(..) => AND,
            GuardNode::Comp(..) => COMP,
            _ => UNARY,
        }
    }

    /// Does this node print in parentheses as an operand of `parent`?
    /// (See [`GuardPool::write`].)
    pub fn needs_parens_under(&self, parent: &GuardNode) -> bool {
        needs_parens(self.binding(), parent.binding())
    }

    /// The node's children, left first (none for a leaf).
    pub fn children(&self) -> impl Iterator<Item = GuardId> {
        let (a, b) = match *self {
            GuardNode::Not(a) => (Some(a), None),
            GuardNode::And(a, b) | GuardNode::Or(a, b) => (Some(a), Some(b)),
            _ => (None, None),
        };
        a.into_iter().chain(b)
    }

    /// The ports the node itself reads, left to right: a port leaf's, or
    /// a comparison's port operands.
    pub fn ports(&self) -> impl Iterator<Item = PortRef> {
        let (a, b) = match *self {
            GuardNode::Port(p) => (Some(p), None),
            GuardNode::Comp(_, l, r) => (l.port().copied(), r.port().copied()),
            _ => (None, None),
        };
        a.into_iter().chain(b)
    }

    /// The node with each child id replaced through `f`.
    pub fn map_children(self, mut f: impl FnMut(GuardId) -> GuardId) -> GuardNode {
        match self {
            GuardNode::Not(a) => GuardNode::Not(f(a)),
            GuardNode::And(a, b) => GuardNode::And(f(a), f(b)),
            GuardNode::Or(a, b) => GuardNode::Or(f(a), f(b)),
            leaf => leaf,
        }
    }
}

/// A component's guards, hash-consed: a `Vec` of nodes whose children are
/// ids, plus the table that makes two equal nodes one id.
///
/// [`add`](GuardPool::add) interns a node as it is; the
/// [`and`](GuardPool::and), [`or`](GuardPool::or) and
/// [`not`](GuardPool::not) constructors fold the constant `TRUE` and
/// double negations away.
///
/// The table is open addressing over ids: `slots` holds `id + 1` (0 for
/// empty) at the node's hash, probed linearly, and is kept at most half
/// full; each node's hash is kept beside it, so a probe compares whole
/// nodes only on a hash match and growing never hashes a node again. A
/// connective's hash is made of its children's hashes, not their ids, so
/// compacting never hashes a node again either. The hash is the vendored
/// Fx hash, like every map keyed by program-made values here: it is fast,
/// not collision-resistant. A plain `FxHashMap<GuardNode, GuardId>` in
/// its place, which hashes whole nodes and rebuilds on compaction, made
/// the passes that build guards 1.1–1.9× slower (`profile passes lower`).
#[derive(Debug, Clone)]
pub struct GuardPool {
    nodes: Vec<GuardNode>,
    hashes: Vec<u32>,
    slots: Vec<u32>,
}

impl Default for GuardPool {
    fn default() -> Self {
        let mut pool = GuardPool {
            nodes: Vec::new(),
            hashes: Vec::new(),
            slots: vec![0; 16],
        };
        pool.add(GuardNode::True);
        pool
    }
}

impl Index<GuardId> for GuardPool {
    type Output = GuardNode;

    fn index(&self, id: GuardId) -> &GuardNode {
        &self.nodes[id.index()]
    }
}

impl GuardPool {
    /// Number of nodes, [`GuardId::TRUE`] included: the length of a `Vec`
    /// memo over the pool.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// A pool holds at least [`GuardId::TRUE`].
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Every id, ascending: children before parents.
    pub fn ids(&self) -> impl DoubleEndedIterator<Item = GuardId> {
        (0..self.nodes.len() as u32).map(GuardId)
    }

    /// The id of `node`, which is added unless an equal node exists.
    pub fn add(&mut self, node: GuardNode) -> GuardId {
        debug_assert!(
            node.children().all(|c| c.index() < self.nodes.len()),
            "a child is interned before its parent"
        );
        let hash = self.hash_of(&node);
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            match self.slots[slot] {
                0 => break,
                taken => {
                    let id = taken as usize - 1;
                    if self.hashes[id] == hash && self.nodes[id] == node {
                        return GuardId(id as u32);
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
        let filed = u32::try_from(self.nodes.len() + 1).expect("fewer than 2^32 - 1 guard nodes");
        self.nodes.push(node);
        self.hashes.push(hash);
        self.slots[slot] = filed;
        let id = GuardId(filed - 1);
        if 2 * self.nodes.len() > self.slots.len() {
            self.refile(2 * self.slots.len());
        }
        id
    }

    /// The hash `node` is filed under: a leaf's fields, or a connective's
    /// kind and its children's hashes — not their ids, so a node keeps its
    /// hash when [`retain`](GuardPool::retain) renumbers it.
    fn hash_of(&self, node: &GuardNode) -> u32 {
        let mut hasher = rustc_hash::FxHasher::default();
        let hash = |id: GuardId| self.hashes[id.index()];
        match *node {
            GuardNode::Not(a) => (1u8, hash(a)).hash(&mut hasher),
            GuardNode::And(a, b) => (2u8, hash(a), hash(b)).hash(&mut hasher),
            GuardNode::Or(a, b) => (3u8, hash(a), hash(b)).hash(&mut hasher),
            leaf => leaf.hash(&mut hasher),
        }
        hasher.finish() as u32
    }

    /// File every node anew in a table of `len` slots.
    fn refile(&mut self, len: usize) {
        self.slots.clear();
        self.slots.resize(len, 0);
        let mask = len - 1;
        for (id, &hash) in self.hashes.iter().enumerate() {
            let mut slot = hash as usize & mask;
            while self.slots[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = id as u32 + 1;
        }
    }

    /// A guard reading a 1-bit port.
    pub fn port(&mut self, p: PortRef) -> GuardId {
        self.add(GuardNode::Port(p))
    }

    /// Conjunction with [`GuardId::TRUE`] identities folded away.
    pub fn and(&mut self, a: GuardId, b: GuardId) -> GuardId {
        match (a, b) {
            (GuardId::TRUE, g) | (g, GuardId::TRUE) => g,
            (a, b) => self.add(GuardNode::And(a, b)),
        }
    }

    /// Disjunction with `TRUE` short-circuiting.
    pub fn or(&mut self, a: GuardId, b: GuardId) -> GuardId {
        if a.is_true() || b.is_true() {
            GuardId::TRUE
        } else {
            self.add(GuardNode::Or(a, b))
        }
    }

    /// Negation with double negations folded away.
    pub fn not(&mut self, a: GuardId) -> GuardId {
        match self[a] {
            GuardNode::Not(inner) => inner,
            _ => self.add(GuardNode::Not(a)),
        }
    }

    /// `port op width'dval`: a port compared with a sized constant.
    pub fn comp(&mut self, op: CompOp, port: PortRef, val: u64, width: u32) -> GuardId {
        self.add(GuardNode::Comp(
            op,
            Atom::Port(port),
            Atom::constant(val, width),
        ))
    }

    /// The size of every node as a tree — its nodes but `True`, the size
    /// of what the printer and the Verilog emitter write — by id: a node
    /// reached along several paths counts once per path. Saturates.
    pub fn tree_sizes(&self) -> Vec<usize> {
        let mut sizes = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let size = match *node {
                GuardNode::True => 0,
                GuardNode::Port(_) | GuardNode::Comp(..) => 1,
                GuardNode::Not(a) => usize::saturating_add(sizes[a.index()], 1),
                GuardNode::And(a, b) | GuardNode::Or(a, b) => {
                    usize::saturating_add(sizes[a.index()], sizes[b.index()]).saturating_add(1)
                }
            };
            sizes.push(size);
        }
        sizes
    }

    /// Which nodes the `roots` reach, by id; [`GuardId::TRUE`] always.
    pub fn reachable(&self, roots: impl IntoIterator<Item = GuardId>) -> Vec<bool> {
        let mut live = vec![false; self.nodes.len()];
        live[0] = true;
        for root in roots {
            live[root.index()] = true;
        }
        for id in self.ids().rev() {
            if live[id.index()] {
                for child in self[id].children() {
                    live[child.index()] = true;
                }
            }
        }
        live
    }

    /// Keep the nodes `live` marks, in their order, which stays
    /// topological. Returns the new id of every old one (a dead node's is
    /// meaningless), or `None` when every node was live and nothing moved.
    pub fn retain(&mut self, live: &[bool]) -> Option<Vec<GuardId>> {
        if live.iter().all(|&l| l) {
            return None;
        }
        // Live nodes move down in place, children first, so a node's
        // children have their new ids when it moves.
        let mut new_id = Vec::with_capacity(live.len());
        let mut kept = 0;
        for (old, &live) in live.iter().enumerate() {
            if !live {
                new_id.push(GuardId::TRUE);
                continue;
            }
            self.nodes[kept] = self.nodes[old].map_children(|c| new_id[c.index()]);
            self.hashes[kept] = self.hashes[old];
            new_id.push(GuardId(kept as u32));
            kept += 1;
        }
        self.nodes.truncate(kept);
        self.hashes.truncate(kept);
        // Distinct nodes with distinct children stay distinct: no probe
        // needs to compare.
        self.refile((2 * kept).next_power_of_two().max(16));
        Some(new_id)
    }

    /// The ports `id` reads in tree order — depth first, left before
    /// right, a comparison's left operand first — a node reached along
    /// several paths once per path. Allocates nothing until it reaches
    /// an `&` or `|` node.
    pub fn ports(&self, id: GuardId) -> GuardPorts<'_> {
        GuardPorts {
            pool: self,
            next: Some(id),
            stack: Vec::new(),
            pending: None,
        }
    }

    /// Write `id` as Calyx text, with an explicit stack instead of
    /// recursion. Precedence: `!` > comparison > `&` > `|`; a child that
    /// binds looser than its parent is parenthesized (matching the
    /// parser's grammar, so `!(x == 1)` keeps its parentheses while
    /// `x == 1 & y` needs none).
    pub fn write(&self, id: GuardId, out: &mut impl fmt::Write) -> fmt::Result {
        enum Piece {
            Node(GuardId),
            Text(&'static str),
        }
        let operand = |stack: &mut Vec<Piece>, child: GuardId, parent: u8| {
            if needs_parens(self[child].binding(), parent) {
                stack.extend([Piece::Text(")"), Piece::Node(child), Piece::Text("(")]);
            } else {
                stack.push(Piece::Node(child));
            }
        };
        let mut stack = vec![Piece::Node(id)];
        while let Some(piece) = stack.pop() {
            let id = match piece {
                Piece::Text(text) => {
                    out.write_str(text)?;
                    continue;
                }
                Piece::Node(id) => id,
            };
            match &self[id] {
                GuardNode::True => out.write_str("1'd1")?,
                GuardNode::Port(p) => p.write_to(out)?,
                GuardNode::Comp(op, l, r) => write_comparison(*op, l, r, out)?,
                GuardNode::Not(a) => {
                    out.write_char('!')?;
                    operand(&mut stack, *a, UNARY);
                }
                node @ (GuardNode::And(a, b) | GuardNode::Or(a, b)) => {
                    let binding = node.binding();
                    operand(&mut stack, *b, binding);
                    stack.push(Piece::Text(if binding == AND { " & " } else { " | " }));
                    operand(&mut stack, *a, binding);
                }
            }
        }
        Ok(())
    }

    /// `id` as a value whose `Display` is [`GuardPool::write`].
    pub fn display(&self, id: GuardId) -> impl fmt::Display + '_ {
        struct Text<'a>(&'a GuardPool, GuardId);
        impl fmt::Display for Text<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                self.0.write(self.1, f)
            }
        }
        Text(self, id)
    }
}

/// A depth-first walk over the nodes below some roots, children before
/// parents and left before right, on an explicit stack: the order a
/// recursive walk finishes nodes in, without its recursion. `done` tells
/// it which nodes it need not enter (the caller's memo); the caller must
/// record each node [`next`](PostOrder::next) hands it before asking for
/// the next one.
#[derive(Debug, Default)]
pub struct PostOrder {
    /// Nodes to enter, and entered nodes whose children are on top of them.
    stack: Vec<(GuardId, bool)>,
}

impl PostOrder {
    /// Walk `root` next.
    pub fn push(&mut self, root: GuardId) {
        self.stack.push((root, false));
    }

    /// The next node whose children are all `done`, or `None` when the
    /// roots are.
    pub fn next(&mut self, pool: &GuardPool, done: impl Fn(GuardId) -> bool) -> Option<GuardId> {
        while let Some((id, entered)) = self.stack.pop() {
            if entered {
                return Some(id);
            }
            if done(id) {
                continue;
            }
            self.stack.push((id, true));
            match pool[id] {
                GuardNode::Not(a) => self.stack.push((a, false)),
                GuardNode::And(a, b) | GuardNode::Or(a, b) => {
                    self.stack.extend([(b, false), (a, false)]);
                }
                _ => {}
            }
        }
        None
    }
}

/// Lazy depth-first iterator over the ports of a pooled guard, created by
/// [`GuardPool::ports`].
pub struct GuardPorts<'a> {
    pool: &'a GuardPool,
    /// The node to visit before any on `stack`.
    next: Option<GuardId>,
    /// The right children still to visit, innermost last.
    stack: Vec<GuardId>,
    /// Second port of a comparison whose first port was just yielded.
    pending: Option<PortRef>,
}

impl Iterator for GuardPorts<'_> {
    type Item = PortRef;

    fn next(&mut self) -> Option<PortRef> {
        if let Some(p) = self.pending.take() {
            return Some(p);
        }
        while let Some(id) = self.next.take().or_else(|| self.stack.pop()) {
            match self.pool[id] {
                GuardNode::True => {}
                GuardNode::Port(p) => return Some(p),
                GuardNode::Not(inner) => self.next = Some(inner),
                // Left child visited first, the right one after it.
                GuardNode::And(a, b) | GuardNode::Or(a, b) => {
                    self.stack.push(b);
                    self.next = Some(a);
                }
                GuardNode::Comp(_, l, r) => match (l.port(), r.port()) {
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
        let mut pool = GuardPool::default();
        let a = pool.port(p("a"));
        assert_eq!(pool.and(GuardId::TRUE, a), a);
        assert_eq!(pool.and(a, GuardId::TRUE), a);
    }

    #[test]
    fn or_short_circuits_true() {
        let mut pool = GuardPool::default();
        let a = pool.port(p("a"));
        assert!(pool.or(GuardId::TRUE, a).is_true());
    }

    #[test]
    fn not_folds_double_negation() {
        let mut pool = GuardPool::default();
        let a = pool.port(p("a"));
        let not_a = pool.not(a);
        assert_eq!(pool.not(not_a), a);
    }

    #[test]
    fn collects_ports_from_comparisons() {
        let mut pool = GuardPool::default();
        let (fsm, done) = (pool.comp(CompOp::Eq, p("fsm"), 2, 4), pool.port(p("done")));
        let g = pool.and(fsm, done);
        let mut ports: Vec<_> = pool.ports(g).collect();
        ports.sort();
        assert_eq!(ports, vec![p("done"), p("fsm")]);
    }

    #[test]
    fn display_respects_precedence() {
        let mut pool = GuardPool::default();
        let [a, b, c] = ["a", "b", "c"].map(|n| pool.port(p(n)));
        let bc = pool.and(b, c);
        let g = pool.or(a, bc);
        assert_eq!(pool.display(g).to_string(), "a.out | b.out & c.out");
        let ab = pool.or(a, b);
        let g2 = pool.and(ab, c);
        assert_eq!(pool.display(g2).to_string(), "(a.out | b.out) & c.out");
        let ab = pool.and(a, b);
        let g3 = pool.not(ab);
        assert_eq!(pool.display(g3).to_string(), "!(a.out & b.out)");
    }

    #[test]
    fn ports_iter_matches_ports_into() {
        let mut pool = GuardPool::default();
        let [a, b, c, done] = ["a", "b", "c", "done"].map(|n| pool.port(p(n)));
        let not_a = pool.not(a);
        let b_or_c = pool.or(b, c);
        let nested = pool.and(a, b_or_c);
        let fsm = pool.comp(CompOp::Eq, p("fsm"), 2, 4);
        let fsm_done = pool.and(fsm, done);
        let x_lt_y = pool.add(GuardNode::Comp(
            CompOp::Lt,
            Atom::Port(p("x")),
            Atom::Port(p("y")),
        ));
        let one = Atom::constant(1, 2);
        let consts = pool.add(GuardNode::Comp(CompOp::Eq, one, one));
        let a_a = pool.and(a, a);
        let cases: [(GuardId, &[&str]); 8] = [
            (GuardId::TRUE, &[]),
            (a, &["a"]),
            (not_a, &["a"]),
            (nested, &["a", "b", "c"]),
            (fsm_done, &["fsm", "done"]),
            (x_lt_y, &["x", "y"]),
            (consts, &[]),
            (a_a, &["a", "a"]),
        ];
        for (id, names) in cases {
            let collected: Vec<_> = pool.ports(id).collect();
            let expected: Vec<_> = names.iter().map(|n| p(n)).collect();
            assert_eq!(
                collected,
                expected,
                "order/content mismatch for {}",
                pool.display(id)
            );
        }
    }

    #[test]
    fn size_counts_nodes() {
        let mut pool = GuardPool::default();
        let (a, b) = (pool.port(p("a")), pool.comp(CompOp::Eq, p("b"), 1, 2));
        let g = pool.and(a, b);
        let sizes = pool.tree_sizes();
        assert_eq!((sizes[GuardId::TRUE.index()], sizes[g.index()]), (0, 3));
    }

    #[test]
    fn equal_guards_are_one_id_and_children_come_first() {
        let mut pool = GuardPool::default();
        let ab = |pool: &mut GuardPool| {
            let (a, b) = (pool.port(p("a")), pool.port(p("b")));
            pool.and(a, b)
        };
        let first = ab(&mut pool);
        let x = pool.not(first);
        let (left, right) = (ab(&mut pool), ab(&mut pool));
        let y = pool.or(left, right);
        let GuardNode::Not(shared) = pool[x] else {
            panic!("{} is a negation", pool.display(x));
        };
        assert_eq!(pool[y], GuardNode::Or(shared, shared));
        // TRUE, a, b, a & b, the negation, the disjunction.
        assert_eq!(pool.len(), 6);
        for id in pool.ids() {
            assert!(pool[id].children().all(|c| c < id));
        }
        assert_eq!(
            pool.tree_sizes()[y.index()],
            7,
            "as a tree it is seven nodes"
        );
    }

    #[test]
    fn constructors_fold_like_the_tree_ones() {
        let mut pool = GuardPool::default();
        let a = pool.port(p("a"));
        assert_eq!(pool.and(GuardId::TRUE, a), a);
        assert_eq!(pool.or(a, GuardId::TRUE), GuardId::TRUE);
        let not_a = pool.not(a);
        assert_eq!(pool.not(not_a), a);
    }

    #[test]
    fn retain_keeps_the_order_and_renumbers_children() {
        let mut pool = GuardPool::default();
        let [x, y, a, b] = ["x", "y", "a", "b"].map(|n| pool.port(p(n)));
        let dead = pool.and(x, y);
        let a_or_b = pool.or(a, b);
        let kept = pool.not(a_or_b);
        let live = pool.reachable([kept]);
        assert!(!live[dead.index()]);
        let new_id = pool.retain(&live).expect("dead nodes were dropped");
        let kept = new_id[kept.index()];
        assert_eq!(pool.len(), 5);
        assert_eq!(pool.display(kept).to_string(), "!(a.out | b.out)");
        assert_eq!(
            pool.add(GuardNode::Port(p("a"))),
            GuardId(1),
            "the table is rebuilt"
        );
        assert!(pool.retain(&pool.reachable([kept])).is_none());
    }

    /// A left-leaning chain deeper than any thread's stack would take
    /// recursively is written and walked iteratively.
    #[test]
    fn a_deep_chain_is_written_without_recursion() {
        let mut pool = GuardPool::default();
        let (a, b) = (pool.port(p("a")), pool.port(p("b")));
        let mut chain = a;
        for i in 0..200_000 {
            chain = pool.add(GuardNode::And(chain, if i % 2 == 0 { b } else { a }));
        }
        let text = pool.display(chain).to_string();
        assert!(text.starts_with("a.out & b.out & a.out"), "{}", &text[..40]);
        assert_eq!(text.len(), 200_001 * 5 + 200_000 * 3);
        let mut walk = PostOrder::default();
        walk.push(chain);
        let mut done = vec![false; pool.len()];
        let mut visited = 0;
        while let Some(id) = walk.next(&pool, |id| done[id.index()]) {
            done[id.index()] = true;
            visited += 1;
        }
        assert_eq!(visited, pool.len() - 1, "every node but TRUE, once");
    }
}
