//! Property tests for the guard language, against a guard tree kept here
//! as the oracle: a pool gives one id per distinct subtree, folds exactly
//! what its constructors promise, prints a guard as the tree prints, and
//! simplifies it as the tree algorithm does; simplification preserves
//! semantics under every valuation, and printed guards re-parse to
//! semantically identical guards.

use calyx_core::ir::{
    parse_guard, Assignment, Atom, CompOp, Context, GuardId, GuardNode, GuardPool, PortRef,
};
use calyx_core::passes::{GuardSimplify, Pass};
use proptest::prelude::*;
use rustc_hash::FxHashMap;
use std::fmt;

/// A guard as an owned tree: the oracle every pool operation is held to.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Tree {
    True,
    Port(PortRef),
    Not(Box<Tree>),
    And(Box<Tree>, Box<Tree>),
    Or(Box<Tree>, Box<Tree>),
    Comp(CompOp, Atom, Atom),
}

impl Tree {
    fn not(self) -> Tree {
        Tree::Not(Box::new(self))
    }

    fn and(self, other: Tree) -> Tree {
        Tree::And(Box::new(self), Box::new(other))
    }

    fn or(self, other: Tree) -> Tree {
        Tree::Or(Box::new(self), Box::new(other))
    }

    /// `!true`, what simplification folds a false guard to.
    fn is_false(&self) -> bool {
        *self == Tree::True.not()
    }

    /// Add the tree to `pool` node for node, folding nothing.
    fn intern(&self, pool: &mut GuardPool) -> GuardId {
        let node = match self {
            Tree::True => GuardNode::True,
            Tree::Port(p) => GuardNode::Port(*p),
            Tree::Not(a) => GuardNode::Not(a.intern(pool)),
            Tree::And(a, b) => GuardNode::And(a.intern(pool), b.intern(pool)),
            Tree::Or(a, b) => GuardNode::Or(a.intern(pool), b.intern(pool)),
            Tree::Comp(op, l, r) => GuardNode::Comp(*op, *l, *r),
        };
        pool.add(node)
    }

    /// The tree `id` stands for in `pool`.
    fn read(pool: &GuardPool, id: GuardId) -> Tree {
        match pool[id] {
            GuardNode::True => Tree::True,
            GuardNode::Port(p) => Tree::Port(p),
            GuardNode::Not(a) => Tree::read(pool, a).not(),
            GuardNode::And(a, b) => Tree::read(pool, a).and(Tree::read(pool, b)),
            GuardNode::Or(a, b) => Tree::read(pool, a).or(Tree::read(pool, b)),
            GuardNode::Comp(op, l, r) => Tree::Comp(op, l, r),
        }
    }

    /// How tightly the tree's root binds when printed: `!` and leaves >
    /// comparison > `&` > `|`.
    fn binding(&self) -> u8 {
        match self {
            Tree::Or(..) => 1,
            Tree::And(..) => 2,
            Tree::Comp(..) => 3,
            _ => 4,
        }
    }

    /// Print as an operand of a parent of binding `parent`: in
    /// parentheses when the operand binds looser.
    fn write_under(&self, parent: u8, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.binding() < parent {
            write!(f, "({self})")
        } else {
            write!(f, "{self}")
        }
    }
}

/// Calyx guard text, by plain recursion.
impl fmt::Display for Tree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tree::True => f.write_str("1'd1"),
            Tree::Port(p) => write!(f, "{p}"),
            Tree::Not(a) => {
                f.write_str("!")?;
                a.write_under(4, f)
            }
            Tree::And(a, b) | Tree::Or(a, b) => {
                a.write_under(self.binding(), f)?;
                f.write_str(if self.binding() == 2 { " & " } else { " | " })?;
                b.write_under(self.binding(), f)
            }
            Tree::Comp(op, l, r) => write!(f, "{l} {} {r}", op.as_str()),
        }
    }
}

/// A tiny universe of ports: four 1-bit flags and two 4-bit buses.
fn port(i: usize) -> PortRef {
    PortRef::cell(format!("p{i}"), "out")
}

fn bus(i: usize) -> PortRef {
    PortRef::cell(format!("b{i}"), "out")
}

/// Evaluate a guard under a valuation (missing ports read 0).
fn eval(g: &Tree, env: &FxHashMap<PortRef, u64>) -> bool {
    let atom = |a: &Atom| match a {
        Atom::Port(p) => env.get(p).copied().unwrap_or(0),
        Atom::Const { val, .. } => *val,
    };
    match g {
        Tree::True => true,
        Tree::Port(p) => env.get(p).copied().unwrap_or(0) != 0,
        Tree::Not(inner) => !eval(inner, env),
        Tree::And(a, b) => eval(a, env) && eval(b, env),
        Tree::Or(a, b) => eval(a, env) || eval(b, env),
        Tree::Comp(op, l, r) => op.eval(atom(l), atom(r)),
    }
}

fn comp_op() -> impl Strategy<Value = CompOp> {
    prop_oneof![
        Just(CompOp::Eq),
        Just(CompOp::Neq),
        Just(CompOp::Lt),
        Just(CompOp::Gt),
        Just(CompOp::Geq),
        Just(CompOp::Leq),
    ]
}

fn guard_strategy() -> impl Strategy<Value = Tree> {
    let leaf = prop_oneof![
        Just(Tree::True),
        (0..4usize).prop_map(|i| Tree::Port(port(i))),
        (comp_op(), 0..2usize, 0..16u64).prop_map(|(op, i, c)| Tree::Comp(
            op,
            Atom::Port(bus(i)),
            Atom::constant(c, 4)
        )),
        (comp_op(), 0..16u64, 0..16u64)
            .prop_map(|(op, a, b)| { Tree::Comp(op, Atom::constant(a, 4), Atom::constant(b, 4)) }),
    ];
    leaf.prop_recursive(4, 32, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(Tree::not),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner).prop_map(|(a, b)| a.or(b)),
        ]
    })
}

/// What the `guard-simplify` pass makes of `guard`, read back as a tree:
/// the guard is the one guard of a component's one assignment.
fn simplify(guard: &Tree) -> Tree {
    let mut ctx = Context::new();
    let mut comp = ctx.new_component("main");
    let id = guard.intern(&mut comp.guards);
    let dst = PortRef::cell("r", "in");
    comp.continuous
        .push(Assignment::guarded(dst, Atom::constant(1, 1), id));
    ctx.add_component(comp);
    GuardSimplify.run(&mut ctx).unwrap();
    let main = ctx.component("main").unwrap();
    Tree::read(&main.guards, main.continuous[0].guard)
}

/// Simplification on trees, one rebuilt node per input node: the oracle
/// for the pass's walk over a pool's ids.
fn tree_simplify(guard: &Tree) -> Tree {
    match guard {
        Tree::True | Tree::Port(_) => guard.clone(),
        Tree::Not(inner) => match tree_simplify(inner) {
            Tree::Not(g) => *g,
            g => g.not(),
        },
        Tree::And(a, b) => {
            let (a, b) = (tree_simplify(a), tree_simplify(b));
            if a == Tree::True {
                b
            } else if b == Tree::True {
                a
            } else if a.is_false() || b.is_false() {
                Tree::True.not()
            } else if a == b {
                a
            } else {
                a.and(b)
            }
        }
        Tree::Or(a, b) => {
            let (a, b) = (tree_simplify(a), tree_simplify(b));
            if a == Tree::True || b == Tree::True {
                Tree::True
            } else if a.is_false() {
                b
            } else if b.is_false() || a == b {
                a
            } else {
                a.or(b)
            }
        }
        Tree::Comp(op, l, r) => {
            let holds = match (l, r) {
                (Atom::Const { val: l, .. }, Atom::Const { val: r, .. }) => op.eval(*l, *r),
                _ if l == r => matches!(op, CompOp::Eq | CompOp::Leq | CompOp::Geq),
                _ => return guard.clone(),
            };
            if holds {
                Tree::True
            } else {
                Tree::True.not()
            }
        }
    }
}

fn valuation() -> impl Strategy<Value = FxHashMap<PortRef, u64>> {
    (
        prop::collection::vec(0..2u64, 4),
        prop::collection::vec(0..16u64, 2),
    )
        .prop_map(|(flags, buses)| {
            let mut env = FxHashMap::default();
            for (i, v) in flags.into_iter().enumerate() {
                env.insert(port(i), v);
            }
            for (i, v) in buses.into_iter().enumerate() {
                env.insert(bus(i), v);
            }
            env
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    /// Simplification never changes a guard's value.
    #[test]
    fn simplify_preserves_semantics(g in guard_strategy(), env in valuation()) {
        let simplified = simplify(&g);
        prop_assert_eq!(
            eval(&g, &env),
            eval(&simplified, &env),
            "guard {} simplified to {}",
            g,
            simplified
        );
    }

    /// Simplification is idempotent.
    #[test]
    fn simplify_is_idempotent(g in guard_strategy()) {
        let once = simplify(&g);
        let twice = simplify(&once);
        prop_assert_eq!(once, twice);
    }

    /// A guard that repeats subtrees — one id each in the pool —
    /// simplifies through the pool to what the tree algorithm makes of it.
    #[test]
    fn shared_guards_simplify_like_their_unshared_copies(
        a in guard_strategy(),
        b in guard_strategy(),
        c in guard_strategy(),
    ) {
        let ab = a.clone().or(b);
        let g = ab.clone().and(c).and(a.not().or(ab));
        prop_assert_eq!(simplify(&g), tree_simplify(&g), "guard {}", g);
    }

    /// Adding a tree twice gives one id, and the tree read back from it
    /// is the tree that went in.
    #[test]
    fn interning_is_idempotent_and_reads_back(g in guard_strategy()) {
        let mut pool = GuardPool::default();
        let id = g.intern(&mut pool);
        let len = pool.len();
        prop_assert_eq!(g.clone().intern(&mut pool), id);
        prop_assert_eq!(pool.len(), len, "nothing new was added");
        prop_assert_eq!(Tree::read(&pool, id), g);
    }

    /// Two ids of one pool are equal exactly when their trees are.
    #[test]
    fn ids_are_equal_exactly_when_trees_are(a in guard_strategy(), b in guard_strategy()) {
        let mut pool = GuardPool::default();
        let (x, y) = (a.intern(&mut pool), b.intern(&mut pool));
        prop_assert_eq!(x == y, a == b, "{} and {}", a, b);
        for id in pool.ids() {
            prop_assert!(pool[id].children().all(|child| child < id));
        }
    }

    /// `and`, `or` and `not` fold exactly the `TRUE` identity, `TRUE`
    /// absorption and double negation — not `x & x`, not `!true` — and
    /// `add` folds nothing.
    #[test]
    fn constructors_fold_exactly_true_and_double_negation(
        a in guard_strategy(),
        b in guard_strategy(),
    ) {
        let mut pool = GuardPool::default();
        for (l, r) in [(&a, &b), (&a, &a), (&b, &a)] {
            let (x, y) = (l.intern(&mut pool), r.intern(&mut pool));
            let and = pool.and(x, y);
            let expected = match (l, r) {
                (Tree::True, g) | (g, Tree::True) => g.clone(),
                _ => l.clone().and(r.clone()),
            };
            prop_assert_eq!(Tree::read(&pool, and), expected);
            let or = pool.or(x, y);
            let expected = match (l, r) {
                (Tree::True, _) | (_, Tree::True) => Tree::True,
                _ => l.clone().or(r.clone()),
            };
            prop_assert_eq!(Tree::read(&pool, or), expected);
            let not = pool.not(x);
            let expected = match l {
                Tree::Not(inner) => (**inner).clone(),
                _ => l.clone().not(),
            };
            prop_assert_eq!(Tree::read(&pool, not), expected);
            for (node, tree) in [
                (GuardNode::And(x, y), l.clone().and(r.clone())),
                (GuardNode::Or(x, y), l.clone().or(r.clone())),
                (GuardNode::Not(x), l.clone().not()),
            ] {
                let id = pool.add(node);
                prop_assert_eq!(Tree::read(&pool, id), tree);
            }
        }
    }

    /// The pool prints a guard as its tree prints.
    #[test]
    fn printing_through_the_pool_is_printing_the_tree(g in guard_strategy()) {
        let mut pool = GuardPool::default();
        let id = g.intern(&mut pool);
        prop_assert_eq!(pool.display(id).to_string(), g.to_string());
    }

    /// Printing and re-parsing a guard preserves its semantics.
    #[test]
    fn printed_guards_reparse(g in guard_strategy(), env in valuation()) {
        let mut pool = GuardPool::default();
        let id = g.intern(&mut pool);
        let text = pool.display(id).to_string();
        let reparsed = parse_guard(&text, &mut pool)
            .map_err(|e| TestCaseError::fail(format!("`{text}` failed to parse: {e}")))?;
        let reparsed = Tree::read(&pool, reparsed);
        prop_assert_eq!(
            eval(&g, &env),
            eval(&reparsed, &env),
            "`{}` reparsed as `{}`",
            text,
            reparsed
        );
    }
}
