//! Boolean simplification of guards.

use super::pass_ctx::PassCtx;
use super::visitor::{Action, Visitor};
use crate::errors::CalyxResult;
use crate::ir::{Atom, CompOp, Component, Guard, GuardMemo};
use std::sync::Arc;

/// Simplifies guard expressions after interface-signal inlining:
/// double negations, `x & x` / `x | x` idempotence, constant comparisons,
/// and `True`/`!True` identity/annihilator folding.
///
/// Simplification both shrinks the emitted Verilog and makes area
/// estimation (which counts guard nodes) reflect what synthesis would see
/// after its own Boolean minimization. Substitution in
/// [`RemoveGroups`](super::RemoveGroups) shares a hole's guard among its
/// readers; a shared node is simplified once, and a node no rule fires
/// beneath is handed back as it came, so the sharing survives the pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct GuardSimplify;

impl Visitor for GuardSimplify {
    fn name(&self) -> &'static str {
        "guard-simplify"
    }

    fn description(&self) -> &'static str {
        "boolean simplification of assignment guards"
    }

    fn start_component(&mut self, comp: &mut Component, ctx: &mut PassCtx) -> CalyxResult<Action> {
        let mut simplifier = Simplifier::default();
        let groups = comp.groups.iter_mut().map(|group| &mut group.assignments);
        for asgn in groups.chain([&mut comp.continuous]).flatten() {
            if let Some(simpler) = simplifier.root(&asgn.guard) {
                asgn.guard = simpler;
            }
        }
        // Already-minimal guards leave the analysis cache warm.
        if simplifier.changed {
            ctx.set_dirty();
        }
        // Guards live in the wires section; the control tree is untouched.
        Ok(Action::SkipChildren)
    }
}

/// Is this guard the constant false (`!True`)?
fn is_false(g: &Guard) -> bool {
    matches!(g, Guard::Not(inner) if inner.is_true())
}

/// Simplify a guard bottom-up.
pub fn simplify(guard: Guard) -> Guard {
    Simplifier::default().root(&guard).unwrap_or(guard)
}

/// What the rules make of one node, its children simplified.
enum Simpler {
    /// No rule fired on the node or beneath it.
    Unchanged,
    /// The node reduces to this simplified child (or grandchild).
    Node(Arc<Guard>),
    /// The node is rebuilt.
    Built(Guard),
}

/// One simplification walk: every guard of a component, or one guard.
#[derive(Default)]
struct Simplifier {
    /// The simplified form of every shared node met so far.
    memo: GuardMemo<Arc<Guard>>,
    /// Whether any rewrite rule fired — the pass uses this to decide if
    /// the component must be reported dirty to the analysis cache.
    changed: bool,
}

impl Simplifier {
    /// The simplified form of an assignment's guard; `None` when no rule
    /// fired anywhere in it.
    fn root(&mut self, guard: &Guard) -> Option<Guard> {
        match self.rules(guard) {
            Simpler::Unchanged => None,
            Simpler::Node(node) => Some(Guard::clone(&node)),
            Simpler::Built(guard) => Some(guard),
        }
    }

    /// The simplified form of a child: `node` itself when no rule fired
    /// beneath it, and the same result for every owner of `node`.
    fn child(&mut self, node: &Arc<Guard>) -> Arc<Guard> {
        if let Some(done) = self.memo.get(node) {
            return Arc::clone(done);
        }
        let simpler = match self.rules(node) {
            Simpler::Unchanged => Arc::clone(node),
            Simpler::Node(node) => node,
            Simpler::Built(guard) => Arc::new(guard),
        };
        self.memo.insert(node, Arc::clone(&simpler));
        simpler
    }

    /// A rule fired.
    fn fired(&mut self, result: Simpler) -> Simpler {
        self.changed = true;
        result
    }

    fn rules(&mut self, guard: &Guard) -> Simpler {
        match guard {
            Guard::True | Guard::Port(_) => Simpler::Unchanged,
            Guard::Not(inner) => {
                let simple = self.child(inner);
                match &*simple {
                    Guard::Not(g) => self.fired(Simpler::Node(Arc::clone(g))),
                    _ if Arc::ptr_eq(&simple, inner) => Simpler::Unchanged,
                    _ => Simpler::Built(Guard::Not(simple)),
                }
            }
            Guard::And(a, b) => {
                let (sa, sb) = (self.child(a), self.child(b));
                if sa.is_true() {
                    self.fired(Simpler::Node(sb))
                } else if sb.is_true() {
                    self.fired(Simpler::Node(sa))
                } else if is_false(&sa) || is_false(&sb) {
                    self.fired(Simpler::Built(Guard::True.not()))
                } else if sa == sb {
                    self.fired(Simpler::Node(sa))
                } else if Arc::ptr_eq(&sa, a) && Arc::ptr_eq(&sb, b) {
                    Simpler::Unchanged
                } else {
                    Simpler::Built(Guard::And(sa, sb))
                }
            }
            Guard::Or(a, b) => {
                let (sa, sb) = (self.child(a), self.child(b));
                if sa.is_true() || sb.is_true() {
                    self.fired(Simpler::Built(Guard::True))
                } else if is_false(&sa) {
                    self.fired(Simpler::Node(sb))
                } else if is_false(&sb) || sa == sb {
                    self.fired(Simpler::Node(sa))
                } else if Arc::ptr_eq(&sa, a) && Arc::ptr_eq(&sb, b) {
                    Simpler::Unchanged
                } else {
                    Simpler::Built(Guard::Or(sa, sb))
                }
            }
            Guard::Comp(op, l, r) => {
                let holds = match (l, r) {
                    (Atom::Const { val: lv, .. }, Atom::Const { val: rv, .. }) => op.eval(*lv, *rv),
                    // x == x, x <= x, x >= x are tautologies on equal atoms.
                    _ if l == r => matches!(op, CompOp::Eq | CompOp::Leq | CompOp::Geq),
                    _ => return Simpler::Unchanged,
                };
                self.fired(Simpler::Built(if holds {
                    Guard::True
                } else {
                    Guard::True.not()
                }))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::PortRef;

    fn p(name: &str) -> Guard {
        Guard::Port(PortRef::cell(name, "out"))
    }

    #[test]
    fn folds_double_negation() {
        assert_eq!(simplify(p("a").not().not()), p("a"));
    }

    #[test]
    fn idempotence() {
        assert_eq!(simplify(p("a").and(p("a"))), p("a"));
        assert_eq!(simplify(p("a").or(p("a"))), p("a"));
    }

    #[test]
    fn annihilators_and_identities() {
        assert_eq!(simplify(Guard::True.not().and(p("a"))), Guard::True.not());
        assert_eq!(simplify(Guard::True.not().or(p("a"))), p("a"));
        assert_eq!(
            simplify(Guard::And(Arc::new(Guard::True), Arc::new(p("a")))),
            p("a")
        );
    }

    /// A node with two owners is simplified once: both get the one result,
    /// and a node no rule fires beneath is the node that came in.
    #[test]
    fn shared_nodes_stay_shared() {
        let not = |g| Guard::Not(Arc::new(g));
        let shared = Arc::new(not(not(p("a").and(p("b")))));
        let kept = Arc::new(p("c").or(p("d")));
        let owner = |other: &str| {
            let left = Guard::Or(Arc::clone(&shared), Arc::new(p(other)));
            Guard::And(Arc::new(left), Arc::clone(&kept))
        };
        let mut simplifier = Simplifier::default();
        let (x, y) = (owner("x"), owner("y"));
        let x = simplifier.root(&x).expect("`!!` folds");
        let y = simplifier.root(&y).expect("`!!` folds");
        assert!(simplifier.changed);
        assert_eq!(x, p("a").and(p("b")).or(p("x")).and(p("c").or(p("d"))));
        let (Guard::And(x_left, x_kept), Guard::And(y_left, y_kept)) = (&x, &y) else {
            panic!("{x} and {y} are conjunctions");
        };
        assert!(Arc::ptr_eq(x_kept, &kept) && Arc::ptr_eq(y_kept, &kept));
        let (Guard::Or(x_shared, _), Guard::Or(y_shared, _)) = (&**x_left, &**y_left) else {
            panic!("{x_left} and {y_left} are disjunctions");
        };
        assert!(Arc::ptr_eq(x_shared, y_shared));
        assert!(simplifier.root(&x).is_none(), "nothing left to fire");
    }

    #[test]
    fn constant_comparisons_fold() {
        let g = Guard::Comp(CompOp::Eq, Atom::constant(3, 4), Atom::constant(3, 4));
        assert_eq!(simplify(g), Guard::True);
        let g = Guard::Comp(CompOp::Lt, Atom::constant(5, 4), Atom::constant(3, 4));
        assert!(is_false(&simplify(g)));
    }

    #[test]
    fn reflexive_comparisons_fold() {
        let port = Atom::Port(PortRef::cell("fsm", "out"));
        assert_eq!(simplify(Guard::Comp(CompOp::Eq, port, port)), Guard::True);
        assert!(is_false(&simplify(Guard::Comp(CompOp::Neq, port, port))));
    }

    #[test]
    fn simplifies_recursively() {
        // (!!a) & (a & a) => a
        let g = p("a").not().not().and(p("a").and(p("a")));
        assert_eq!(simplify(g), p("a"));
    }
}
