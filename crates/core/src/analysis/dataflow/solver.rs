//! The generic worklist fixpoint engine over [`Pcfg`]s.
//!
//! A dataflow analysis is a [`Lattice`] of facts plus a [`Transfer`]
//! function describing how each node transforms a fact in its
//! [`Direction`]. [`solve`] then computes the least fixpoint of the flow
//! equations with a classic worklist: recompute a node's fact from its
//! neighbors, and re-queue the neighbors on the other side whenever the
//! result changed. The worklist starts in flow order (exit first for a
//! backward analysis), so on an acyclic graph every node is applied once.
//!
//! P-nodes are where the pCFG earns its name, and [`solve`] is the only
//! code that recurses into one. All children of a `par` execute, so each
//! child sub-pCFG is solved with the p-node's own near-side fact as its
//! boundary (the paper's §5.2 treatment of liveness, generalized here to
//! any lattice), and [`Transfer::par`] only *combines* the solved
//! children into the p-node's far-side fact. The children's final
//! solutions are kept in [`Solution::children`], so the result is a
//! solution *tree* mirroring the pCFG's nesting; [`Solution::walk`] is
//! the traversal consumers read it through, parents first (a consumer
//! that needs a p-node's children first descends
//! [`Solution::children`] itself).

use crate::analysis::pcfg::{Pcfg, PcfgNode};
use crate::ir::Id;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A join-semilattice of dataflow facts.
///
/// Facts only ever grow (in the `leq` order) during solving, so `join`
/// combined with monotone transfer functions guarantees termination on
/// finite lattices.
pub trait Lattice: Clone + PartialEq {
    /// The least element: "nothing known yet" / unreached.
    fn bottom() -> Self;
    /// Join `other` into `self`; returns `true` when `self` changed.
    fn join(&mut self, other: &Self) -> bool;
    /// The partial order: is `self ⊑ other`?
    fn leq(&self, other: &Self) -> bool;
}

/// Any ordered set is a union lattice (used by reaching definitions;
/// liveness uses the bitset [`RegSet`](crate::analysis::RegSet)).
impl<T: Clone + Ord> Lattice for BTreeSet<T> {
    fn bottom() -> Self {
        BTreeSet::new()
    }

    fn join(&mut self, other: &Self) -> bool {
        let before = self.len();
        self.extend(other.iter().cloned());
        self.len() != before
    }

    fn leq(&self, other: &Self) -> bool {
        self.is_subset(other)
    }
}

/// Which way facts flow through the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow entry → exit; a node's input joins its predecessors'
    /// outputs.
    Forward,
    /// Facts flow exit → entry; a node's output joins its successors'
    /// inputs.
    Backward,
}

/// The transfer function of one analysis: how each pCFG node transforms
/// a fact. Implementations must be *monotone* in the [`Lattice`] order —
/// the solver debug-asserts this while iterating.
pub trait Transfer: Sized {
    /// The fact lattice.
    type Fact: Lattice;
    /// The flow direction.
    const DIRECTION: Direction;

    /// Apply a group node's effect to `fact` (the node-entry fact for
    /// forward analyses, the node-exit fact for backward ones).
    fn group(&self, group: Id, fact: &Self::Fact) -> Self::Fact;

    /// Combine a p-node's solved children into its far-side fact.
    /// [`solve`] has already solved `children[i]` into `solved[i]` with
    /// `fact` (the p-node's near-side fact) as its boundary. All children
    /// of a `par` execute, so the default joins their far-side facts;
    /// analyses that can be more precise (liveness kills, single-writer
    /// constants) override this.
    fn par(
        &self,
        children: &[Pcfg],
        solved: &[Solution<Self::Fact>],
        _fact: &Self::Fact,
    ) -> Self::Fact {
        let mut out = Self::Fact::bottom();
        for (child, solved) in children.iter().zip(solved) {
            out.join(match Self::DIRECTION {
                Direction::Forward => &solved.output[child.exit],
                Direction::Backward => &solved.input[child.entry],
            });
        }
        out
    }
}

/// Per-node facts of a solved analysis. `input[n]` is the fact at node
/// `n`'s entry (program order) and `output[n]` the fact at its exit —
/// for backward analyses these are the live-in/live-out convention.
/// `children[n]` makes it a tree: the solutions of p-node `n`'s child
/// sub-pCFGs, in child order.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution<F> {
    /// Fact at each node's entry.
    pub input: Vec<F>,
    /// Fact at each node's exit.
    pub output: Vec<F>,
    /// Solutions of each node's p-node children, solved with the node's
    /// near-side fact (`input[n]` forward, `output[n]` backward) as their
    /// boundary; empty for group and no-op nodes.
    pub children: Vec<Vec<Solution<F>>>,
}

impl<F> Solution<F> {
    /// Depth-first walk over the solution tree of `pcfg`: `visit` sees
    /// `pcfg` with this solution, then every nested p-node child
    /// sub-pCFG with its own, so each node of each sub-pCFG is presented
    /// exactly once alongside its facts.
    pub fn walk<'a>(&'a self, pcfg: &'a Pcfg, visit: &mut impl FnMut(&'a Pcfg, &'a Solution<F>)) {
        visit(pcfg, self);
        for (node, solved) in pcfg.nodes.iter().zip(&self.children) {
            for (child, solved) in node.children().iter().zip(solved) {
                solved.walk(child, visit);
            }
        }
    }
}

/// Solve `transfer` over `pcfg` to the least fixpoint, with `boundary`
/// as the fact at the flow source (the entry node's input for forward
/// analyses, the exit node's output for backward ones). P-node children
/// are solved recursively and returned in [`Solution::children`].
pub fn solve<T: Transfer>(pcfg: &Pcfg, transfer: &T, boundary: T::Fact) -> Solution<T::Fact> {
    let n = pcfg.len();
    let mut input = vec![T::Fact::bottom(); n];
    let mut output = vec![T::Fact::bottom(); n];
    let mut children = vec![Vec::new(); n];
    // Seed every node once, in flow order: on an acyclic graph a node's
    // near-side neighbours are then final before it is applied, so each
    // node is applied once and each p-node's children solved once. Loops
    // re-queue through the edges.
    let mut work: VecDeque<usize> = match T::DIRECTION {
        Direction::Forward => postorder(pcfg).into_iter().rev().collect(),
        Direction::Backward => postorder(pcfg).into(),
    };
    let mut queued = vec![true; n];
    while let Some(node) = work.pop_front() {
        queued[node] = false;
        match T::DIRECTION {
            Direction::Forward => {
                let mut inn = if node == pcfg.entry {
                    boundary.clone()
                } else {
                    T::Fact::bottom()
                };
                for &p in &pcfg.preds[node] {
                    inn.join(&output[p]);
                }
                let out = apply(transfer, &pcfg.nodes[node], &inn, &mut children[node]);
                debug_assert!(output[node].leq(&out), "non-monotone forward transfer");
                input[node] = inn;
                if out != output[node] {
                    output[node] = out;
                    for &s in &pcfg.succs[node] {
                        if !queued[s] {
                            queued[s] = true;
                            work.push_back(s);
                        }
                    }
                }
            }
            Direction::Backward => {
                let mut out = if node == pcfg.exit {
                    boundary.clone()
                } else {
                    T::Fact::bottom()
                };
                for &s in &pcfg.succs[node] {
                    out.join(&input[s]);
                }
                let inn = apply(transfer, &pcfg.nodes[node], &out, &mut children[node]);
                debug_assert!(input[node].leq(&inn), "non-monotone backward transfer");
                output[node] = out;
                if inn != input[node] {
                    input[node] = inn;
                    for &p in &pcfg.preds[node] {
                        if !queued[p] {
                            queued[p] = true;
                            work.push_back(p);
                        }
                    }
                }
            }
        }
    }
    Solution {
        input,
        output,
        children,
    }
}

/// Every node of `pcfg` in depth-first postorder from the entry (nodes
/// the entry does not reach after it): a node follows all its successors
/// but those it reaches only through a back edge, so the order runs exit
/// first and its reverse entry first.
fn postorder(pcfg: &Pcfg) -> Vec<usize> {
    let mut order = Vec::with_capacity(pcfg.len());
    let mut seen = vec![false; pcfg.len()];
    // (node, index of its next successor to visit)
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for root in std::iter::once(pcfg.entry).chain(0..pcfg.len()) {
        if seen[root] {
            continue;
        }
        seen[root] = true;
        stack.push((root, 0));
        while let Some((node, next)) = stack.last_mut() {
            match pcfg.succs[*node].get(*next) {
                Some(&succ) => {
                    *next += 1;
                    if !seen[succ] {
                        seen[succ] = true;
                        stack.push((succ, 0));
                    }
                }
                None => {
                    order.push(*node);
                    stack.pop();
                }
            }
        }
    }
    order
}

/// Apply `node` to its near-side `fact`. A p-node's children are solved
/// here, with `fact` as their boundary, and left in `solved`: a node is
/// re-applied whenever its near-side fact changes, so at the fixpoint
/// `solved` holds the children's solutions under the final fact.
fn apply<T: Transfer>(
    transfer: &T,
    node: &PcfgNode,
    fact: &T::Fact,
    solved: &mut Vec<Solution<T::Fact>>,
) -> T::Fact {
    match node {
        PcfgNode::Nop => fact.clone(),
        PcfgNode::Group(g) => transfer.group(*g, fact),
        PcfgNode::Par(children) => {
            *solved = children
                .iter()
                .map(|child| solve(child, transfer, fact.clone()))
                .collect();
            transfer.par(children, solved, fact)
        }
    }
}

/// A flat (three-level) constant lattice value: a register either holds
/// one known constant or is "not a constant" ([`ConstVal::Nac`]); the
/// implicit bottom is absence from the fact map (unreached / untracked).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstVal {
    /// Provably this constant on every path.
    Const(u64),
    /// Not a constant (conflicting or unknowable values).
    Nac,
}

impl ConstVal {
    /// The lattice join of two flat values.
    pub fn join(self, other: ConstVal) -> ConstVal {
        match (self, other) {
            (ConstVal::Const(a), ConstVal::Const(b)) if a == b => self,
            _ => ConstVal::Nac,
        }
    }

    /// The known constant, if any.
    pub fn as_const(self) -> Option<u64> {
        match self {
            ConstVal::Const(v) => Some(v),
            ConstVal::Nac => None,
        }
    }
}

/// Maps from cells to flat constants form a lattice: pointwise join, with
/// missing keys as bottom.
impl Lattice for BTreeMap<Id, ConstVal> {
    fn bottom() -> Self {
        BTreeMap::new()
    }

    fn join(&mut self, other: &Self) -> bool {
        let mut changed = false;
        for (&k, &v) in other {
            match self.get_mut(&k) {
                None => {
                    self.insert(k, v);
                    changed = true;
                }
                Some(cur) => {
                    let joined = cur.join(v);
                    if joined != *cur {
                        *cur = joined;
                        changed = true;
                    }
                }
            }
        }
        changed
    }

    fn leq(&self, other: &Self) -> bool {
        self.iter().all(|(k, v)| match (v, other.get(k)) {
            (_, Some(ConstVal::Nac)) => true,
            (a, Some(b)) => a == b,
            (_, None) => false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Control;
    use std::cell::{Cell, RefCell};

    /// A toy forward analysis: collect every group name seen on some path.
    struct SeenGroups;

    impl Transfer for SeenGroups {
        type Fact = BTreeSet<Id>;
        const DIRECTION: Direction = Direction::Forward;

        fn group(&self, group: Id, fact: &Self::Fact) -> Self::Fact {
            let mut f = fact.clone();
            f.insert(group);
            f
        }
    }

    #[test]
    fn forward_solve_reaches_fixpoint_through_loops() {
        // while c { body }; tail — the back edge must not diverge, and
        // `body` must be seen at the exit.
        let c = Control::seq(vec![
            Control::while_(
                crate::ir::PortRef::cell("w", "out"),
                Some(Id::new("c")),
                Control::enable("body"),
            ),
            Control::enable("tail"),
        ]);
        let pcfg = Pcfg::from_control(&c);
        let sol = solve(&pcfg, &SeenGroups, BTreeSet::new());
        let exit_fact = &sol.output[pcfg.exit];
        for g in ["c", "body", "tail"] {
            assert!(
                exit_fact.contains(&Id::new(g)),
                "missing {g}: {exit_fact:?}"
            );
        }
    }

    #[test]
    fn default_par_transfer_joins_all_children() {
        let c = Control::par(vec![Control::enable("a"), Control::enable("b")]);
        let pcfg = Pcfg::from_control(&c);
        let sol = solve(&pcfg, &SeenGroups, BTreeSet::new());
        let exit_fact = &sol.output[pcfg.exit];
        assert!(exit_fact.contains(&Id::new("a")));
        assert!(exit_fact.contains(&Id::new("b")));
    }

    #[test]
    fn nested_pars_yield_a_solution_tree_the_walk_covers_once() {
        // seq { a; par { seq { b; par { c; d; } } e; } }
        let c = Control::seq(vec![
            Control::enable("a"),
            Control::par(vec![
                Control::seq(vec![
                    Control::enable("b"),
                    Control::par(vec![Control::enable("c"), Control::enable("d")]),
                ]),
                Control::enable("e"),
            ]),
        ]);
        let pcfg = Pcfg::from_control(&c);
        let sol = solve(&pcfg, &SeenGroups, BTreeSet::new());

        let outer = pcfg
            .nodes
            .iter()
            .position(|n| !n.children().is_empty())
            .expect("outer p-node");
        let outer_children = pcfg.nodes[outer].children();
        assert_eq!(sol.children[outer].len(), 2);
        let (seq_child, seq_sol) = (&outer_children[0], &sol.children[outer][0]);
        let inner = seq_child
            .nodes
            .iter()
            .position(|n| !n.children().is_empty())
            .expect("inner p-node");
        assert_eq!(seq_sol.children[inner].len(), 2, "children of children");
        // Each child is solved from its p-node's near-side fact.
        assert_eq!(seq_sol.input[seq_child.entry], sol.input[outer]);
        let c_child = &seq_child.nodes[inner].children()[0];
        assert_eq!(
            seq_sol.children[inner][0].input[c_child.entry],
            seq_sol.input[inner]
        );
        let seen: Vec<&str> = seq_sol.input[inner].iter().map(|g| g.as_str()).collect();
        assert_eq!(seen, ["a", "b"]);

        let mut visited = Vec::new();
        let mut graphs = 0;
        sol.walk(&pcfg, &mut |pcfg, sol| {
            graphs += 1;
            assert_eq!(sol.input.len(), pcfg.len());
            assert_eq!(sol.children.len(), pcfg.len());
            visited.extend(pcfg.groups().map(|g| g.to_string()));
        });
        assert_eq!(graphs, 5, "top level, two outer children, two inner");
        visited.sort();
        assert_eq!(visited, ["a", "b", "c", "d", "e"]);
    }

    #[test]
    fn backward_direction_flows_exit_to_entry() {
        /// Backward twin of `SeenGroups`.
        struct SeenBackward;
        impl Transfer for SeenBackward {
            type Fact = BTreeSet<Id>;
            const DIRECTION: Direction = Direction::Backward;
            fn group(&self, group: Id, fact: &Self::Fact) -> Self::Fact {
                let mut f = fact.clone();
                f.insert(group);
                f
            }
        }
        let c = Control::seq(vec![Control::enable("a"), Control::enable("b")]);
        let pcfg = Pcfg::from_control(&c);
        let sol = solve(&pcfg, &SeenBackward, BTreeSet::new());
        let entry_fact = &sol.input[pcfg.entry];
        assert!(entry_fact.contains(&Id::new("a")));
        assert!(entry_fact.contains(&Id::new("b")));
    }

    /// Collects group names like `SeenGroups`, in either direction, and
    /// counts the solver's calls.
    #[derive(Default)]
    struct Counting<const BACKWARD: bool> {
        groups: RefCell<Vec<Id>>,
        pars: Cell<usize>,
    }

    impl<const BACKWARD: bool> Transfer for Counting<BACKWARD> {
        type Fact = BTreeSet<Id>;
        const DIRECTION: Direction = if BACKWARD {
            Direction::Backward
        } else {
            Direction::Forward
        };

        fn group(&self, group: Id, fact: &Self::Fact) -> Self::Fact {
            self.groups.borrow_mut().push(group);
            let mut f = fact.clone();
            f.insert(group);
            f
        }

        fn par(
            &self,
            children: &[Pcfg],
            solved: &[Solution<Self::Fact>],
            _: &Self::Fact,
        ) -> Self::Fact {
            self.pars.set(self.pars.get() + 1);
            let mut out = BTreeSet::new();
            for (child, solved) in children.iter().zip(solved) {
                out.extend(match Self::DIRECTION {
                    Direction::Forward => &solved.output[child.exit],
                    Direction::Backward => &solved.input[child.entry],
                });
            }
            out
        }
    }

    /// On an acyclic pCFG the worklist applies every node once: each
    /// group transfer runs once, and the p-node's children are solved
    /// and combined once — in both directions, from a non-empty boundary
    /// (which a node seeded before its flow-side neighbours would see
    /// arrive late, and be applied again for).
    fn assert_applied_once<const BACKWARD: bool>() {
        // seq { a; par { seq { b; c; } d; } e; }
        let c = Control::seq(vec![
            Control::enable("a"),
            Control::par(vec![
                Control::seq(vec![Control::enable("b"), Control::enable("c")]),
                Control::enable("d"),
            ]),
            Control::enable("e"),
        ]);
        let pcfg = Pcfg::from_control(&c);
        let counting = Counting::<BACKWARD>::default();
        let boundary: BTreeSet<Id> = [Id::new("boundary")].into_iter().collect();
        let sol = solve(&pcfg, &counting, boundary);
        let mut groups: Vec<&str> = counting
            .groups
            .borrow()
            .iter()
            .map(|g| g.as_str())
            .collect();
        groups.sort();
        assert_eq!(groups, ["a", "b", "c", "d", "e"], "backward: {BACKWARD}");
        assert_eq!(counting.pars.get(), 1, "backward: {BACKWARD}");
        let far = match Counting::<BACKWARD>::DIRECTION {
            Direction::Forward => &sol.output[pcfg.exit],
            Direction::Backward => &sol.input[pcfg.entry],
        };
        assert_eq!(far.len(), 6, "every group and the boundary: {far:?}");
    }

    #[test]
    fn acyclic_graphs_apply_each_node_once() {
        assert_applied_once::<true>();
        assert_applied_once::<false>();
    }

    #[test]
    fn set_lattice_laws() {
        let a: BTreeSet<Id> = [Id::new("x")].into_iter().collect();
        let mut b = BTreeSet::bottom();
        assert!(b.leq(&a));
        assert!(b.join(&a), "joining new elements reports a change");
        assert!(!b.join(&a), "re-joining is idempotent");
        assert!(a.leq(&b) && b.leq(&a));
    }

    #[test]
    fn const_lattice_joins_flat() {
        assert_eq!(
            ConstVal::Const(3).join(ConstVal::Const(3)),
            ConstVal::Const(3)
        );
        assert_eq!(ConstVal::Const(3).join(ConstVal::Const(4)), ConstVal::Nac);
        assert_eq!(ConstVal::Nac.join(ConstVal::Const(3)), ConstVal::Nac);

        let mut m: BTreeMap<Id, ConstVal> = BTreeMap::bottom();
        let mut n = BTreeMap::bottom();
        n.insert(Id::new("r"), ConstVal::Const(1));
        assert!(m.leq(&n));
        assert!(m.join(&n));
        assert!(m.leq(&n) && n.leq(&m));
        let mut conflicting = BTreeMap::new();
        conflicting.insert(Id::new("r"), ConstVal::Const(2));
        assert!(m.join(&conflicting));
        assert_eq!(m[&Id::new("r")], ConstVal::Nac);
        assert!(n.leq(&m), "constants are below Nac");
        assert!(!m.leq(&n));
    }
}
