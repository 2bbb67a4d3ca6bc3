//! Property tests for the guard language: a pool interns a tree into one
//! id per distinct subtree and reads the same tree back, prints it as the
//! tree prints, and simplifies it as the tree algorithm does;
//! simplification preserves semantics under every valuation, and printed
//! guards re-parse to semantically identical trees.

use calyx_core::ir::{parse_guard, Atom, CompOp, Guard, GuardPool, PortRef};
use calyx_core::passes::simplify;
use proptest::prelude::*;
use rustc_hash::FxHashMap;

/// A tiny universe of ports: four 1-bit flags and two 4-bit buses.
fn port(i: usize) -> PortRef {
    PortRef::cell(format!("p{i}"), "out")
}

fn bus(i: usize) -> PortRef {
    PortRef::cell(format!("b{i}"), "out")
}

/// Evaluate a guard under a valuation (missing ports read 0).
fn eval(g: &Guard, env: &FxHashMap<PortRef, u64>) -> bool {
    let atom = |a: &Atom| match a {
        Atom::Port(p) => env.get(p).copied().unwrap_or(0),
        Atom::Const { val, .. } => *val,
    };
    match g {
        Guard::True => true,
        Guard::Port(p) => env.get(p).copied().unwrap_or(0) != 0,
        Guard::Not(inner) => !eval(inner, env),
        Guard::And(a, b) => eval(a, env) && eval(b, env),
        Guard::Or(a, b) => eval(a, env) || eval(b, env),
        Guard::Comp(op, l, r) => op.eval(atom(l), atom(r)),
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

fn guard_strategy() -> impl Strategy<Value = Guard> {
    let leaf = prop_oneof![
        Just(Guard::True),
        (0..4usize).prop_map(|i| Guard::Port(port(i))),
        (comp_op(), 0..2usize, 0..16u64).prop_map(|(op, i, c)| Guard::Comp(
            op,
            Atom::Port(bus(i)),
            Atom::constant(c, 4)
        )),
        (comp_op(), 0..16u64, 0..16u64)
            .prop_map(|(op, a, b)| { Guard::Comp(op, Atom::constant(a, 4), Atom::constant(b, 4)) }),
    ];
    leaf.prop_recursive(4, 32, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|g| Guard::Not(Box::new(g))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Guard::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| Guard::Or(Box::new(a), Box::new(b))),
        ]
    })
}

/// `simplify` on trees, one rebuilt node per input node: the oracle for
/// the walk over a pool's ids.
fn tree_simplify(guard: &Guard) -> Guard {
    let is_false = |g: &Guard| matches!(g, Guard::Not(inner) if inner.is_true());
    match guard {
        Guard::True | Guard::Port(_) => guard.clone(),
        Guard::Not(inner) => match tree_simplify(inner) {
            Guard::Not(g) => *g,
            g => Guard::Not(Box::new(g)),
        },
        Guard::And(a, b) => {
            let (a, b) = (tree_simplify(a), tree_simplify(b));
            if a.is_true() {
                b
            } else if b.is_true() {
                a
            } else if is_false(&a) || is_false(&b) {
                Guard::Not(Box::new(Guard::True))
            } else if a == b {
                a
            } else {
                Guard::And(Box::new(a), Box::new(b))
            }
        }
        Guard::Or(a, b) => {
            let (a, b) = (tree_simplify(a), tree_simplify(b));
            if a.is_true() || b.is_true() {
                Guard::True
            } else if is_false(&a) {
                b
            } else if is_false(&b) || a == b {
                a
            } else {
                Guard::Or(Box::new(a), Box::new(b))
            }
        }
        Guard::Comp(op, l, r) => {
            let holds = match (l, r) {
                (Atom::Const { val: l, .. }, Atom::Const { val: r, .. }) => op.eval(*l, *r),
                _ if l == r => matches!(op, CompOp::Eq | CompOp::Leq | CompOp::Geq),
                _ => return guard.clone(),
            };
            if holds {
                Guard::True
            } else {
                Guard::Not(Box::new(Guard::True))
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
        let simplified = simplify(g.clone());
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
        let once = simplify(g);
        let twice = simplify(once.clone());
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
        let g = Guard::And(
            Box::new(Guard::And(Box::new(ab.clone()), Box::new(c))),
            Box::new(Guard::Or(Box::new(Guard::Not(Box::new(a))), Box::new(ab))),
        );
        prop_assert_eq!(simplify(g.clone()), tree_simplify(&g), "guard {}", g);
    }

    /// Interning a tree twice gives one id, and the tree read back from it
    /// is the tree that went in.
    #[test]
    fn interning_is_idempotent_and_reads_back(g in guard_strategy()) {
        let mut pool = GuardPool::default();
        let id = pool.intern(&g);
        let len = pool.len();
        prop_assert_eq!(pool.intern(&g.clone()), id);
        prop_assert_eq!(pool.len(), len, "nothing new was added");
        prop_assert_eq!(pool.tree(id), g);
    }

    /// Two ids of one pool are equal exactly when their trees are.
    #[test]
    fn ids_are_equal_exactly_when_trees_are(a in guard_strategy(), b in guard_strategy()) {
        let mut pool = GuardPool::default();
        let (x, y) = (pool.intern(&a), pool.intern(&b));
        prop_assert_eq!(x == y, a == b, "{} and {}", a, b);
        for id in pool.ids() {
            prop_assert!(pool[id].children().all(|child| child < id));
        }
    }

    /// The pool prints a guard as its tree prints.
    #[test]
    fn printing_through_the_pool_is_printing_the_tree(g in guard_strategy()) {
        let mut pool = GuardPool::default();
        let id = pool.intern(&g);
        prop_assert_eq!(pool.display(id).to_string(), g.to_string());
    }

    /// Printing and re-parsing a guard preserves its semantics.
    #[test]
    fn printed_guards_reparse(g in guard_strategy(), env in valuation()) {
        let text = format!("{g}");
        let reparsed = parse_guard(&text)
            .map_err(|e| TestCaseError::fail(format!("`{text}` failed to parse: {e}")))?;
        prop_assert_eq!(
            eval(&g, &env),
            eval(&reparsed, &env),
            "`{}` reparsed as `{}`",
            text,
            reparsed
        );
    }
}
