//! Parallel control-flow graphs (paper §5.2, after Srinivasan & Wolfe).
//!
//! Most Calyx control maps onto an ordinary CFG, but `par` needs a special
//! *p-node* that executes **all** of its children: writes inside any child
//! are visible after the block, unlike an `if` where only one branch runs.
//! A p-node therefore recursively contains one sub-pCFG per child.

use super::cache::{Analysis, AnalysisCache};
use crate::ir::{Component, Control, Id, PortRef};

/// A node in the parallel CFG.
#[derive(Debug, Clone)]
pub enum PcfgNode {
    /// A no-op fork/join/entry/exit marker.
    Nop,
    /// Execution of a group (an enable, or a `with` condition evaluation).
    Group(Id),
    /// A `par` block: all children execute; each child is its own pCFG.
    Par(Vec<Pcfg>),
}

impl PcfgNode {
    /// The child sub-pCFGs of a p-node; empty for group and no-op nodes.
    pub fn children(&self) -> &[Pcfg] {
        match self {
            PcfgNode::Par(children) => children,
            PcfgNode::Nop | PcfgNode::Group(_) => &[],
        }
    }
}

/// Which control construct a [`CondSite`] came from, with enough shape
/// information (arm/body emptiness) for lints to phrase their findings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CondKind {
    /// An `if`, recording whether each arm is non-empty.
    If {
        /// The then-arm is non-empty.
        has_then: bool,
        /// The else-arm is non-empty.
        has_else: bool,
    },
    /// A `while`, recording whether the body is non-empty.
    While {
        /// The loop body is non-empty.
        has_body: bool,
    },
}

/// A conditional control site (`if`/`while`) recorded while building the
/// pCFG: the head node where the condition is evaluated, the condition
/// port, and the optional `with` group. Dataflow clients (constant
/// propagation, the `const-loop` lint) use this to ask "what fact holds
/// where this condition is read?" without re-walking the control tree.
#[derive(Debug, Clone)]
pub struct CondSite {
    /// Head node index in *this* pCFG (sites inside `par` children live
    /// in the child's own [`Pcfg::conds`]).
    pub node: usize,
    /// The condition port.
    pub port: PortRef,
    /// The `with` condition group, when present.
    pub cond: Option<Id>,
    /// The construct and its arm/body shape.
    pub kind: CondKind,
}

/// A parallel control-flow graph with unique entry and exit markers.
#[derive(Debug, Clone)]
pub struct Pcfg {
    /// Node payloads, indexed by node id.
    pub nodes: Vec<PcfgNode>,
    /// Forward edges.
    pub succs: Vec<Vec<usize>>,
    /// Backward edges.
    pub preds: Vec<Vec<usize>>,
    /// Entry node (a [`PcfgNode::Nop`]).
    pub entry: usize,
    /// Exit node (a [`PcfgNode::Nop`]).
    pub exit: usize,
    /// `if`/`while` condition sites in this graph (not its p-node
    /// children — each child sub-pCFG records its own).
    pub conds: Vec<CondSite>,
}

impl Analysis for Pcfg {
    type Output = Pcfg;
    const NAME: &'static str = "pcfg";

    fn compute(comp: &Component, _cache: &mut AnalysisCache) -> Pcfg {
        Pcfg::from_control(&comp.control)
    }
}

impl Pcfg {
    /// Build the pCFG of a control program.
    pub fn from_control(control: &Control) -> Self {
        let mut g = Builder::default();
        let entry = g.add(PcfgNode::Nop);
        let exit = g.add(PcfgNode::Nop);
        let (first, last) = g.build(control, entry);
        // `build` returns the subgraph's entry/exit; wire the global exit.
        g.edge(last, exit);
        let _ = first;
        Pcfg {
            nodes: g.nodes,
            succs: g.succs,
            preds: g.preds,
            entry,
            exit,
            conds: g.conds,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph has no nodes (never happens for built graphs).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The groups this graph's own nodes execute, in node order — not
    /// those inside p-node children, which run on their own sub-pCFGs.
    pub fn groups(&self) -> impl Iterator<Item = Id> + '_ {
        self.nodes.iter().filter_map(|node| match node {
            PcfgNode::Group(g) => Some(*g),
            PcfgNode::Nop | PcfgNode::Par(_) => None,
        })
    }

    /// Call `visit` on every group executed anywhere below this graph:
    /// its own [`groups`](Pcfg::groups), then recursively those of every
    /// p-node child sub-pCFG.
    pub fn for_each_group(&self, visit: &mut impl FnMut(Id)) {
        self.groups().for_each(&mut *visit);
        for child in self.nodes.iter().flat_map(PcfgNode::children) {
            child.for_each_group(visit);
        }
    }
}

#[derive(Default)]
struct Builder {
    nodes: Vec<PcfgNode>,
    succs: Vec<Vec<usize>>,
    preds: Vec<Vec<usize>>,
    conds: Vec<CondSite>,
}

impl Builder {
    fn add(&mut self, node: PcfgNode) -> usize {
        self.nodes.push(node);
        self.succs.push(Vec::new());
        self.preds.push(Vec::new());
        self.nodes.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize) {
        self.succs[from].push(to);
        self.preds[to].push(from);
    }

    /// Append the subgraph for `control` after node `pred`; returns the
    /// subgraph's (first, last) node ids.
    fn build(&mut self, control: &Control, pred: usize) -> (usize, usize) {
        match control {
            Control::Empty => {
                let n = self.add(PcfgNode::Nop);
                self.edge(pred, n);
                (n, n)
            }
            Control::Enable { group, .. } => {
                let n = self.add(PcfgNode::Group(*group));
                self.edge(pred, n);
                (n, n)
            }
            Control::Seq { stmts, .. } => {
                let first = self.add(PcfgNode::Nop);
                self.edge(pred, first);
                let mut last = first;
                for stmt in stmts {
                    let (_, stmt_last) = self.build(stmt, last);
                    last = stmt_last;
                }
                (first, last)
            }
            Control::Par { stmts, .. } => {
                let children = stmts.iter().map(Pcfg::from_control).collect();
                let n = self.add(PcfgNode::Par(children));
                self.edge(pred, n);
                (n, n)
            }
            Control::If {
                port,
                cond,
                tbranch,
                fbranch,
                ..
            } => {
                let head = match cond {
                    Some(c) => self.add(PcfgNode::Group(*c)),
                    None => self.add(PcfgNode::Nop),
                };
                self.conds.push(CondSite {
                    node: head,
                    port: *port,
                    cond: *cond,
                    kind: CondKind::If {
                        has_then: !tbranch.is_empty(),
                        has_else: !fbranch.is_empty(),
                    },
                });
                self.edge(pred, head);
                let join = self.add(PcfgNode::Nop);
                let (_, t_last) = self.build(tbranch, head);
                self.edge(t_last, join);
                let (_, f_last) = self.build(fbranch, head);
                self.edge(f_last, join);
                (head, join)
            }
            Control::While {
                port, cond, body, ..
            } => {
                let head = match cond {
                    Some(c) => self.add(PcfgNode::Group(*c)),
                    None => self.add(PcfgNode::Nop),
                };
                self.conds.push(CondSite {
                    node: head,
                    port: *port,
                    cond: *cond,
                    kind: CondKind::While {
                        has_body: !body.is_empty(),
                    },
                });
                self.edge(pred, head);
                let (_, body_last) = self.build(body, head);
                // Back edge: after the body, the condition re-evaluates.
                self.edge(body_last, head);
                let exit = self.add(PcfgNode::Nop);
                self.edge(head, exit);
                (head, exit)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::PortRef;

    fn groups_in(pcfg: &Pcfg) -> Vec<String> {
        let mut out = Vec::new();
        pcfg.for_each_group(&mut |g| out.push(g.to_string()));
        out.sort();
        out
    }

    #[test]
    fn seq_chains_nodes() {
        let c = Control::seq(vec![Control::enable("a"), Control::enable("b")]);
        let g = Pcfg::from_control(&c);
        assert_eq!(groups_in(&g), vec!["a", "b"]);
        // a's successor chain reaches b.
        let a = g
            .nodes
            .iter()
            .position(|n| matches!(n, PcfgNode::Group(id) if id.as_str() == "a"))
            .unwrap();
        let b = g
            .nodes
            .iter()
            .position(|n| matches!(n, PcfgNode::Group(id) if id.as_str() == "b"))
            .unwrap();
        assert!(g.succs[a].contains(&b));
    }

    #[test]
    fn par_becomes_p_node_with_child_graphs() {
        // Paper Fig. 4: the p-node recursively contains its children.
        let c = Control::par(vec![
            Control::seq(vec![Control::enable("x0"), Control::enable("x1")]),
            Control::seq(vec![Control::enable("y0"), Control::enable("y1")]),
        ]);
        let g = Pcfg::from_control(&c);
        let p = g
            .nodes
            .iter()
            .find_map(|n| match n {
                PcfgNode::Par(children) => Some(children),
                _ => None,
            })
            .expect("p-node exists");
        assert_eq!(p.len(), 2);
        assert_eq!(groups_in(&g), vec!["x0", "x1", "y0", "y1"]);
    }

    #[test]
    fn while_has_back_edge() {
        let c = Control::while_(
            PortRef::cell("lt", "out"),
            Some(crate::ir::Id::new("cond")),
            Control::enable("body"),
        );
        let g = Pcfg::from_control(&c);
        let cond = g
            .nodes
            .iter()
            .position(|n| matches!(n, PcfgNode::Group(id) if id.as_str() == "cond"))
            .unwrap();
        let body = g
            .nodes
            .iter()
            .position(|n| matches!(n, PcfgNode::Group(id) if id.as_str() == "body"))
            .unwrap();
        assert!(g.succs[cond].contains(&body));
        assert!(g.succs[body].contains(&cond), "loop back edge");
    }

    #[test]
    fn if_joins_branches() {
        let c = Control::if_(
            PortRef::cell("lt", "out"),
            Some(crate::ir::Id::new("cond")),
            Control::enable("t"),
            Control::enable("f"),
        );
        let g = Pcfg::from_control(&c);
        let cond = g
            .nodes
            .iter()
            .position(|n| matches!(n, PcfgNode::Group(id) if id.as_str() == "cond"))
            .unwrap();
        // Condition node has two successors (the branches).
        assert_eq!(g.succs[cond].len(), 2);
    }
}
