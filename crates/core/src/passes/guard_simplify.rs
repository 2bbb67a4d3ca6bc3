//! Boolean simplification of guards.
//!
//! The rules run over a component's [`GuardPool`] in ascending id order,
//! which is children first: every node the assignments reach is
//! simplified once into a `Vec` memo by id, from its children's entries,
//! and a node no rule fires beneath is its own entry. Since equal guards
//! are one id, `x & x` is told by comparing two ids.

use super::pass_ctx::PassCtx;
use super::visitor::{Action, Visitor};
use crate::errors::CalyxResult;
use crate::ir::{Atom, CompOp, Component, GuardId, GuardNode, GuardPool};

/// Simplifies guard expressions after interface-signal inlining:
/// double negations, `x & x` / `x | x` idempotence, constant comparisons,
/// and `True`/`!True` identity/annihilator folding.
///
/// Simplification both shrinks the emitted Verilog and makes area
/// estimation (which counts guard nodes) reflect what synthesis would see
/// after its own Boolean minimization.
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
        let live = comp
            .guards
            .reachable(comp.all_assignments().map(|a| a.guard));
        let simpler = Simplified::new(&mut comp.guards, live);
        // Already-minimal guards leave the analysis cache warm.
        if simpler.changed {
            for asgn in comp.wires_mut().0 {
                asgn.guard = simpler.of(asgn.guard);
            }
            ctx.set_dirty();
        }
        // Drop what this pass and `remove-groups` before it replaced.
        comp.compact_guards();
        // Guards live in the wires section; the control tree is untouched.
        Ok(Action::SkipChildren)
    }
}

/// The simplified form of every node some roots reach, by id.
struct Simplified {
    by_id: Vec<GuardId>,
    /// Whether any rewrite rule fired — the pass uses this to decide if
    /// the component must be reported dirty to the analysis cache.
    changed: bool,
}

impl Simplified {
    /// Simplify the nodes of `pool` that `live` marks
    /// ([`GuardPool::reachable`] from some roots), adding the nodes the
    /// rules build to `pool`.
    fn new(pool: &mut GuardPool, live: Vec<bool>) -> Self {
        let mut simpler = Simplified {
            by_id: Vec::with_capacity(live.len()),
            changed: false,
        };
        for (id, live) in pool.ids().zip(live) {
            let simple = if live { simpler.rules(pool, id) } else { id };
            simpler.by_id.push(simple);
        }
        simpler
    }

    /// What node `id` simplifies to.
    fn of(&self, id: GuardId) -> GuardId {
        self.by_id[id.index()]
    }

    /// A rule fired.
    fn fired(&mut self, result: GuardId) -> GuardId {
        self.changed = true;
        result
    }

    /// The simplified form of `id`, whose children are simplified.
    fn rules(&mut self, pool: &mut GuardPool, id: GuardId) -> GuardId {
        let is_false = |pool: &GuardPool, g: GuardId| pool[g] == GuardNode::Not(GuardId::TRUE);
        match pool[id] {
            GuardNode::True | GuardNode::Port(_) => id,
            GuardNode::Not(inner) => {
                let simple = self.of(inner);
                match pool[simple] {
                    GuardNode::Not(g) => self.fired(g),
                    _ if simple == inner => id,
                    _ => pool.add(GuardNode::Not(simple)),
                }
            }
            GuardNode::And(a, b) => {
                let (sa, sb) = (self.of(a), self.of(b));
                if sa.is_true() {
                    self.fired(sb)
                } else if sb.is_true() {
                    self.fired(sa)
                } else if is_false(pool, sa) || is_false(pool, sb) {
                    let false_ = pool.add(GuardNode::Not(GuardId::TRUE));
                    self.fired(false_)
                } else if sa == sb {
                    self.fired(sa)
                } else if (sa, sb) == (a, b) {
                    id
                } else {
                    pool.add(GuardNode::And(sa, sb))
                }
            }
            GuardNode::Or(a, b) => {
                let (sa, sb) = (self.of(a), self.of(b));
                if sa.is_true() || sb.is_true() {
                    self.fired(GuardId::TRUE)
                } else if is_false(pool, sa) {
                    self.fired(sb)
                } else if is_false(pool, sb) || sa == sb {
                    self.fired(sa)
                } else if (sa, sb) == (a, b) {
                    id
                } else {
                    pool.add(GuardNode::Or(sa, sb))
                }
            }
            GuardNode::Comp(op, l, r) => {
                let holds = match (l, r) {
                    (Atom::Const { val: lv, .. }, Atom::Const { val: rv, .. }) => op.eval(lv, rv),
                    // x == x, x <= x, x >= x are tautologies on equal atoms.
                    _ if l == r => matches!(op, CompOp::Eq | CompOp::Leq | CompOp::Geq),
                    _ => return id,
                };
                let folded = if holds {
                    GuardId::TRUE
                } else {
                    pool.add(GuardNode::Not(GuardId::TRUE))
                };
                self.fired(folded)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::PortRef;

    fn p(pool: &mut GuardPool, name: &str) -> GuardId {
        pool.port(PortRef::cell(name, "out"))
    }

    fn is_false(pool: &GuardPool, g: GuardId) -> bool {
        pool[g] == GuardNode::Not(GuardId::TRUE)
    }

    /// What the pass makes of `id`.
    fn simplify(pool: &mut GuardPool, id: GuardId) -> GuardId {
        let live = pool.reachable([id]);
        Simplified::new(pool, live).of(id)
    }

    #[test]
    fn folds_double_negation() {
        let mut pool = GuardPool::default();
        let a = p(&mut pool, "a");
        let not_a = pool.not(a);
        let g = pool.not(not_a);
        assert_eq!(simplify(&mut pool, g), a);
        let not_a = pool.add(GuardNode::Not(a));
        let g = pool.add(GuardNode::Not(not_a));
        assert_eq!(simplify(&mut pool, g), a);
    }

    #[test]
    fn idempotence() {
        let mut pool = GuardPool::default();
        let a = p(&mut pool, "a");
        let g = pool.and(a, a);
        assert_eq!(simplify(&mut pool, g), a);
        let g = pool.or(a, a);
        assert_eq!(simplify(&mut pool, g), a);
    }

    #[test]
    fn annihilators_and_identities() {
        let mut pool = GuardPool::default();
        let (a, false_) = (p(&mut pool, "a"), pool.not(GuardId::TRUE));
        let g = pool.and(false_, a);
        assert_eq!(simplify(&mut pool, g), false_);
        let g = pool.or(false_, a);
        assert_eq!(simplify(&mut pool, g), a);
        let g = pool.add(GuardNode::And(GuardId::TRUE, a));
        assert_eq!(simplify(&mut pool, g), a);
    }

    /// A node two guards reach is simplified once, and a node no rule
    /// fires beneath is its own result: the ids survive the pass.
    #[test]
    fn shared_nodes_stay_shared() {
        let mut pool = GuardPool::default();
        let [a, b, c, d] = ["a", "b", "c", "d"].map(|n| p(&mut pool, n));
        let a_and_b = pool.and(a, b);
        let not_ab = pool.add(GuardNode::Not(a_and_b));
        let shared = pool.add(GuardNode::Not(not_ab));
        let kept = pool.or(c, d);
        let mut owner = |other: &str| {
            let other = p(&mut pool, other);
            let left = pool.or(shared, other);
            pool.and(left, kept)
        };
        let (x, y) = (owner("x"), owner("y"));
        let live = pool.reachable([x, y]);
        let simpler = Simplified::new(&mut pool, live);
        assert!(simpler.changed);
        let (x, y) = (simpler.of(x), simpler.of(y));
        let x_port = p(&mut pool, "x");
        let left = pool.or(a_and_b, x_port);
        assert_eq!(x, pool.and(left, kept));
        let (GuardNode::And(x_left, x_kept), GuardNode::And(y_left, y_kept)) = (pool[x], pool[y])
        else {
            panic!("both are conjunctions");
        };
        assert_eq!((x_kept, y_kept), (kept, kept));
        let (GuardNode::Or(x_shared, _), GuardNode::Or(y_shared, _)) = (pool[x_left], pool[y_left])
        else {
            panic!("both left operands are disjunctions");
        };
        assert_eq!(x_shared, y_shared);
        let live = pool.reachable([x, y]);
        let again = Simplified::new(&mut pool, live);
        assert!(!again.changed, "nothing left to fire");
        assert_eq!((again.of(x), again.of(y)), (x, y));
    }

    #[test]
    fn constant_comparisons_fold() {
        let mut pool = GuardPool::default();
        let g = pool.add(GuardNode::Comp(
            CompOp::Eq,
            Atom::constant(3, 4),
            Atom::constant(3, 4),
        ));
        assert_eq!(simplify(&mut pool, g), GuardId::TRUE);
        let g = pool.add(GuardNode::Comp(
            CompOp::Lt,
            Atom::constant(5, 4),
            Atom::constant(3, 4),
        ));
        let simple = simplify(&mut pool, g);
        assert!(is_false(&pool, simple));
    }

    #[test]
    fn reflexive_comparisons_fold() {
        let mut pool = GuardPool::default();
        let port = Atom::Port(PortRef::cell("fsm", "out"));
        let g = pool.add(GuardNode::Comp(CompOp::Eq, port, port));
        assert_eq!(simplify(&mut pool, g), GuardId::TRUE);
        let g = pool.add(GuardNode::Comp(CompOp::Neq, port, port));
        let simple = simplify(&mut pool, g);
        assert!(is_false(&pool, simple));
    }

    #[test]
    fn simplifies_recursively() {
        // (!!a) & (a & a) => a
        let mut pool = GuardPool::default();
        let a = p(&mut pool, "a");
        let not_a = pool.not(a);
        let not_not_a = pool.not(not_a);
        let a_and_a = pool.and(a, a);
        let g = pool.and(not_not_a, a_and_a);
        assert_eq!(simplify(&mut pool, g), a);
    }
}
