//! Property tests for the guard language: simplification preserves
//! semantics under every valuation, gives a guard with shared nodes what
//! the tree algorithm gives its unshared copy, and printed guards
//! re-parse to semantically identical trees.

use calyx_core::ir::{parse_guard, Atom, CompOp, Guard, PortRef};
use calyx_core::passes::simplify;
use proptest::prelude::*;
use rustc_hash::FxHashMap;
use std::sync::Arc;

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
            inner.clone().prop_map(|g| Guard::Not(Arc::new(g))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Guard::And(Arc::new(a), Arc::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| Guard::Or(Arc::new(a), Arc::new(b))),
        ]
    })
}

/// `simplify` as it was on `Box` trees, one rebuilt node per input node:
/// the oracle for the memoized walk over shared nodes.
fn tree_simplify(guard: &Guard) -> Guard {
    let is_false = |g: &Guard| matches!(g, Guard::Not(inner) if inner.is_true());
    match guard {
        Guard::True | Guard::Port(_) => guard.clone(),
        Guard::Not(inner) => match tree_simplify(inner) {
            Guard::Not(g) => Arc::unwrap_or_clone(g),
            g => Guard::Not(Arc::new(g)),
        },
        Guard::And(a, b) => {
            let (a, b) = (tree_simplify(a), tree_simplify(b));
            if a.is_true() {
                b
            } else if b.is_true() {
                a
            } else if is_false(&a) || is_false(&b) {
                Guard::Not(Arc::new(Guard::True))
            } else if a == b {
                a
            } else {
                Guard::And(Arc::new(a), Arc::new(b))
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
                Guard::Or(Arc::new(a), Arc::new(b))
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
                Guard::Not(Arc::new(Guard::True))
            }
        }
    }
}

/// A copy of `guard` in which no two nodes are one allocation.
fn unshared(guard: &Guard) -> Guard {
    let copy = |g: &Arc<Guard>| Arc::new(unshared(g));
    match guard {
        Guard::Not(g) => Guard::Not(copy(g)),
        Guard::And(a, b) => Guard::And(copy(a), copy(b)),
        Guard::Or(a, b) => Guard::Or(copy(a), copy(b)),
        leaf => leaf.clone(),
    }
}

/// Are `a` and `b` the same nodes beneath their roots, not merely equal?
fn same_nodes(a: &Guard, b: &Guard) -> bool {
    let same = |a: &Arc<Guard>, b: &Arc<Guard>| Arc::ptr_eq(a, b);
    match (a, b) {
        (Guard::Not(a), Guard::Not(b)) => same(a, b),
        (Guard::And(a, c), Guard::And(b, d)) | (Guard::Or(a, c), Guard::Or(b, d)) => {
            same(a, b) && same(c, d)
        }
        (a, b) => a == b,
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

    /// A guard whose nodes have several owners simplifies to what the
    /// tree algorithm makes of its unshared copy, and simplifying the
    /// result again — no rule fires — hands back the nodes it was given.
    #[test]
    fn shared_guards_simplify_like_their_unshared_copies(
        a in guard_strategy(),
        b in guard_strategy(),
        c in guard_strategy(),
    ) {
        let a = Arc::new(a);
        let ab = Arc::new(Guard::Or(Arc::clone(&a), Arc::new(b)));
        let g = Guard::And(
            Arc::new(Guard::And(Arc::clone(&ab), Arc::new(c))),
            Arc::new(Guard::Or(Arc::new(Guard::Not(a)), ab)),
        );
        let once = simplify(g.clone());
        prop_assert_eq!(&once, &tree_simplify(&unshared(&g)), "guard {}", g);
        let twice = simplify(once.clone());
        prop_assert!(same_nodes(&once, &twice), "{} was rebuilt", once);
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
