//! Live-range analysis for registers over parallel CFGs (paper §5.2).
//!
//! A standard backward may-liveness dataflow with one twist from the paper:
//! for the children of a p-node, "we set the live sets at the end of each
//! child to be the set of live registers coming out of the p-node", and the
//! p-node's kill set is the union of its children's must-writes (all
//! children execute).
//!
//! The cached [`Liveness`] analysis is the dataflow engine's solution
//! tree (see [`dataflow`](super::dataflow)): the engine solves every
//! p-node child once and keeps it, and [`Interference`] and the
//! `dead-write` lint read nested facts through
//! [`Solution::walk`] rather than solving children again. The hand-rolled
//! [`Liveness::solve`] and [`Interference::build`] in this module are the
//! *reference* implementation: no pass, analysis or lint calls them; the
//! differential tests compare the engine's tree against theirs.

use super::cache::{Analysis, AnalysisCache};
use super::dataflow::{solve_liveness, Solution};
use super::pcfg::{Pcfg, PcfgNode};
use super::port_uses::PortUses;
use super::read_write::ReadWriteSets;
use crate::ir::{Component, Control, Id};
use std::collections::BTreeSet;

/// Cells observable outside the control schedule: cells read or written by
/// continuous assignments, plus cells referenced directly as `if`/`while`
/// condition ports. Resource sharing pins these (their values are consumed
/// outside any group), and [`BoundaryRegs`] filters them down to the
/// registers that live-range analysis must keep live at the exit.
#[derive(Debug, Clone, Default)]
pub struct BoundaryCells {
    cells: BTreeSet<Id>,
}

impl BoundaryCells {
    /// The boundary cell set.
    pub fn cells(&self) -> &BTreeSet<Id> {
        &self.cells
    }
}

impl Analysis for BoundaryCells {
    type Output = BoundaryCells;
    const NAME: &'static str = "boundary-cells";

    fn compute(comp: &Component, cache: &mut AnalysisCache) -> BoundaryCells {
        let uses = cache.get::<PortUses>(comp);
        let mut cells: BTreeSet<Id> = uses.continuous_cells().clone();
        collect_condition_cells(&comp.control, &mut cells);
        BoundaryCells { cells }
    }
}

/// Registers observable outside the control schedule, which therefore stay
/// live at the pCFG's exit (and may never be merged away): the register
/// subset of [`BoundaryCells`].
#[derive(Debug, Clone, Default)]
pub struct BoundaryRegs {
    registers: BTreeSet<Id>,
}

impl BoundaryRegs {
    /// The boundary register set.
    pub fn registers(&self) -> &BTreeSet<Id> {
        &self.registers
    }
}

impl Analysis for BoundaryRegs {
    type Output = BoundaryRegs;
    const NAME: &'static str = "boundary-regs";

    fn compute(comp: &Component, cache: &mut AnalysisCache) -> BoundaryRegs {
        let cells = cache.get::<BoundaryCells>(comp);
        BoundaryRegs {
            registers: cells
                .cells()
                .iter()
                .copied()
                .filter(|c| comp.cells.get(*c).is_some_and(|c| c.is_register()))
                .collect(),
        }
    }
}

/// Cells referenced as `if`/`while` condition ports anywhere in `control`.
fn collect_condition_cells(control: &Control, out: &mut BTreeSet<Id>) {
    match control {
        Control::Empty | Control::Enable { .. } => {}
        Control::Seq { stmts, .. } | Control::Par { stmts, .. } => {
            for s in stmts {
                collect_condition_cells(s, out);
            }
        }
        Control::If {
            port,
            tbranch,
            fbranch,
            ..
        } => {
            out.extend(port.cell_parent());
            collect_condition_cells(tbranch, out);
            collect_condition_cells(fbranch, out);
        }
        Control::While { port, body, .. } => {
            out.extend(port.cell_parent());
            collect_condition_cells(body, out);
        }
    }
}

/// Liveness facts for one pCFG: the dataflow engine's solution tree over
/// register sets. `input[n]` is the set live *into* node `n`, `output[n]`
/// the set live *out of* it, and `children[n]` the liveness of p-node
/// `n`'s child sub-pCFGs, each solved with `output[n]` live at its exit.
pub type Liveness = Solution<BTreeSet<Id>>;

impl Analysis for Liveness {
    type Output = Liveness;
    const NAME: &'static str = "liveness";

    fn compute(comp: &Component, cache: &mut AnalysisCache) -> Liveness {
        let pcfg = cache.get::<Pcfg>(comp);
        let rw = cache.get::<ReadWriteSets>(comp);
        let boundary = cache.get::<BoundaryRegs>(comp);
        solve_liveness(&pcfg, &rw, boundary.registers())
    }
}

impl Liveness {
    /// Solve liveness over `pcfg` with `boundary` live at the graph's
    /// exit — the hand-rolled round-robin *reference* solver. Nothing
    /// outside tests calls it: it exists so the engine-backed
    /// [`solve_liveness`] has an independent implementation of the same
    /// equations to be compared against, tree for tree.
    pub fn solve(pcfg: &Pcfg, rw: &ReadWriteSets, boundary: &BTreeSet<Id>) -> Self {
        let n = pcfg.len();
        let mut live = Liveness {
            input: vec![BTreeSet::new(); n],
            output: vec![BTreeSet::new(); n],
            children: vec![Vec::new(); n],
        };

        // Iterate to fixpoint (loops create cycles). Node count is small —
        // groups per component — so a simple round-robin converges quickly.
        loop {
            let mut changed = false;
            for node in (0..n).rev() {
                // live_out = union of successors' live_in (exit keeps its
                // boundary set).
                let mut out = if node == pcfg.exit {
                    boundary.clone()
                } else {
                    BTreeSet::new()
                };
                for &s in &pcfg.succs[node] {
                    out.extend(live.input[s].iter().copied());
                }
                let (uses, defs, children) = node_use_def(&pcfg.nodes[node], rw, &out);
                let mut inn: BTreeSet<Id> = out.difference(&defs).copied().collect();
                inn.extend(uses);
                if inn != live.input[node] || out != live.output[node] {
                    changed = true;
                    live.input[node] = inn;
                    live.output[node] = out;
                }
                // Solved under `out`, so final once `out` is.
                live.children[node] = children;
            }
            if !changed {
                return live;
            }
        }
    }
}

/// use/def of a node, plus the solutions of its children. For p-nodes
/// this *recursively solves* the children with the current live-out as
/// their boundary, per the paper.
fn node_use_def(
    node: &PcfgNode,
    rw: &ReadWriteSets,
    live_out: &BTreeSet<Id>,
) -> (BTreeSet<Id>, BTreeSet<Id>, Vec<Liveness>) {
    match node {
        PcfgNode::Nop => (BTreeSet::new(), BTreeSet::new(), Vec::new()),
        PcfgNode::Group(g) => (rw.reads(*g).clone(), rw.must_writes(*g).clone(), Vec::new()),
        PcfgNode::Par(children) => {
            let mut uses = BTreeSet::new();
            let mut defs = BTreeSet::new();
            let mut solutions = Vec::new();
            for child in children {
                let solved = Liveness::solve(child, rw, live_out);
                uses.extend(solved.input[child.entry].iter().copied());
                defs.extend(par_defs(child, rw));
                solutions.push(solved);
            }
            // A register used by one child must not be treated as killed by
            // a sibling: uses win over defs at the p-node boundary.
            let defs = defs.difference(&uses).copied().collect();
            (uses, defs, solutions)
        }
    }
}

/// Must-writes of an entire sub-pCFG: only nodes that execute on *every*
/// path kill unconditionally. We conservatively take the union of must-
/// writes of nodes that dominate the exit; a simple safe approximation is
/// nodes with no branching anywhere, so instead we under-approximate with
/// the intersection-free rule: a register is killed by the child if every
/// path from entry to exit must-writes it. For simplicity and safety this
/// implementation only counts *straight-line* children (no branch nodes),
/// and of those only the child's own group nodes, not nested p-nodes;
/// otherwise it reports no kills, which is conservative (registers stay
/// live longer). Shared by the engine transfers and the reference solver
/// so the two can never drift.
pub(crate) fn par_defs(child: &Pcfg, rw: &ReadWriteSets) -> BTreeSet<Id> {
    // Straight-line check: every node has at most one successor.
    let straight = child.succs.iter().all(|s| s.len() <= 1);
    if !straight {
        return BTreeSet::new();
    }
    child
        .groups()
        .flat_map(|g| rw.must_writes(g).iter().copied())
        .collect()
}

/// Build the register interference relation from liveness facts.
///
/// Two registers conflict when they are simultaneously live at some node
/// (pairwise within `live_out ∪ may_def ∪ use` at every group node), or
/// when they are touched by different children of the same p-node (parallel
/// execution).
#[derive(Debug, Clone, Default)]
pub struct Interference {
    edges: BTreeSet<(Id, Id)>,
}

impl Analysis for Interference {
    type Output = Interference;
    const NAME: &'static str = "interference";

    fn compute(comp: &Component, cache: &mut AnalysisCache) -> Interference {
        let pcfg = cache.get::<Pcfg>(comp);
        let rw = cache.get::<ReadWriteSets>(comp);
        let live = cache.get::<Liveness>(comp);
        Interference::build_with(&pcfg, &rw, &live)
    }
}

impl Interference {
    /// Compute interference over `pcfg` from the *reference* liveness
    /// solver — like [`Liveness::solve`], the comparison point for tests;
    /// the cached analysis goes through [`Interference::build_with`].
    pub fn build(pcfg: &Pcfg, rw: &ReadWriteSets, boundary: &BTreeSet<Id>) -> Self {
        let live = Liveness::solve(pcfg, rw, boundary);
        Interference::build_with(pcfg, rw, &live)
    }

    /// Compute interference over `pcfg` from its solved [`Liveness`]
    /// tree, one flat pass over every node of every nested sub-pCFG.
    pub fn build_with(pcfg: &Pcfg, rw: &ReadWriteSets, live: &Liveness) -> Self {
        let mut interference = Interference::default();
        live.walk(pcfg, &mut |pcfg, live| {
            for (node, live_out) in pcfg.nodes.iter().zip(&live.output) {
                match node {
                    PcfgNode::Group(g) => {
                        let mut set = live_out.clone();
                        set.extend(rw.may_writes(*g).iter().copied());
                        set.extend(rw.reads(*g).iter().copied());
                        interference.add_clique(&set);
                    }
                    _ => interference.add_clique(live_out),
                }
                // Registers touched in different children of a p-node
                // interfere.
                let touched: Vec<BTreeSet<Id>> = node
                    .children()
                    .iter()
                    .map(|c| touched_regs(c, rw))
                    .collect();
                for (i, left) in touched.iter().enumerate() {
                    for right in &touched[i + 1..] {
                        interference.add_cross(left, right);
                    }
                }
            }
        });
        interference
    }

    fn add_clique(&mut self, regs: &BTreeSet<Id>) {
        for &a in regs {
            for &b in regs {
                if a < b {
                    self.edges.insert((a, b));
                }
            }
        }
    }

    fn add_cross(&mut self, left: &BTreeSet<Id>, right: &BTreeSet<Id>) {
        for &a in left {
            for &b in right {
                if a != b {
                    let (x, y) = if a < b { (a, b) } else { (b, a) };
                    self.edges.insert((x, y));
                }
            }
        }
    }

    /// Do `a` and `b` interfere?
    pub fn conflict(&self, a: Id, b: Id) -> bool {
        let key = if a < b { (a, b) } else { (b, a) };
        self.edges.contains(&key)
    }
}

/// Registers read or possibly written anywhere below `pcfg`.
fn touched_regs(pcfg: &Pcfg, rw: &ReadWriteSets) -> BTreeSet<Id> {
    let mut out = BTreeSet::new();
    pcfg.for_each_group(&mut |g| {
        out.extend(rw.reads(g).iter().copied());
        out.extend(rw.may_writes(g).iter().copied());
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{parse_context, Control};

    /// Two registers written and read in disjoint phases can share.
    #[test]
    fn sequential_disjoint_lifetimes_do_not_interfere() {
        let ctx = parse_context(
            r#"component main() -> () {
                cells { a = std_reg(8); b = std_reg(8); out = std_reg(8); }
                wires {
                  group wa { a.in = 8'd1; a.write_en = 1'd1; wa[done] = a.done; }
                  group ra { out.in = a.out; out.write_en = 1'd1; ra[done] = out.done; }
                  group wb { b.in = 8'd2; b.write_en = 1'd1; wb[done] = b.done; }
                  group rb { out.in = b.out; out.write_en = 1'd1; rb[done] = out.done; }
                }
                control { seq { wa; ra; wb; rb; } }
            }"#,
        )
        .unwrap();
        let comp = ctx.component("main").unwrap();
        let rw = ReadWriteSets::analyze(comp);
        let pcfg = Pcfg::from_control(&comp.control);
        let interference = Interference::build(&pcfg, &rw, &BTreeSet::new());
        let (a, b) = (Id::new("a"), Id::new("b"));
        assert!(
            !interference.conflict(a, b),
            "a dies before b is written; they can share"
        );
        // But both interfere with `out` while it is being written/read...
        // (out is written while a/b are live).
        assert!(interference.conflict(a, Id::new("out")));
    }

    #[test]
    fn overlapping_lifetimes_interfere() {
        let ctx = parse_context(
            r#"component main() -> () {
                cells { a = std_reg(8); b = std_reg(8); out = std_reg(8); add = std_add(8); }
                wires {
                  group wa { a.in = 8'd1; a.write_en = 1'd1; wa[done] = a.done; }
                  group wb { b.in = 8'd2; b.write_en = 1'd1; wb[done] = b.done; }
                  group sum {
                    add.left = a.out; add.right = b.out;
                    out.in = add.out; out.write_en = 1'd1;
                    sum[done] = out.done;
                  }
                }
                control { seq { wa; wb; sum; } }
            }"#,
        )
        .unwrap();
        let comp = ctx.component("main").unwrap();
        let rw = ReadWriteSets::analyze(comp);
        let pcfg = Pcfg::from_control(&comp.control);
        let interference = Interference::build(&pcfg, &rw, &BTreeSet::new());
        assert!(interference.conflict(Id::new("a"), Id::new("b")));
    }

    #[test]
    fn par_children_interfere() {
        let ctx = parse_context(
            r#"component main() -> () {
                cells { a = std_reg(8); b = std_reg(8); }
                wires {
                  group wa { a.in = 8'd1; a.write_en = 1'd1; wa[done] = a.done; }
                  group wb { b.in = 8'd2; b.write_en = 1'd1; wb[done] = b.done; }
                }
                control { par { wa; wb; } }
            }"#,
        )
        .unwrap();
        let comp = ctx.component("main").unwrap();
        let rw = ReadWriteSets::analyze(comp);
        let pcfg = Pcfg::from_control(&comp.control);
        let interference = Interference::build(&pcfg, &rw, &BTreeSet::new());
        assert!(interference.conflict(Id::new("a"), Id::new("b")));
    }

    #[test]
    fn loop_keeps_loop_carried_register_live() {
        let ctx = parse_context(
            r#"component main() -> () {
                cells { i = std_reg(8); lt = std_lt(8); add = std_add(8); t = std_reg(8); }
                wires {
                  group cond { lt.left = i.out; lt.right = 8'd10; cond[done] = 1'd1; }
                  group incr {
                    add.left = i.out; add.right = 8'd1;
                    i.in = add.out; i.write_en = 1'd1;
                    incr[done] = i.done;
                  }
                  group tmp { t.in = 8'd0; t.write_en = 1'd1; tmp[done] = t.done; }
                }
                control { while lt.out with cond { seq { tmp; incr; } } }
            }"#,
        )
        .unwrap();
        let comp = ctx.component("main").unwrap();
        let rw = ReadWriteSets::analyze(comp);
        let pcfg = Pcfg::from_control(&comp.control);
        let live = Liveness::solve(&pcfg, &rw, &BTreeSet::new());
        // `i` is live around the back edge: at the condition node's entry.
        let cond_idx = pcfg
            .nodes
            .iter()
            .position(|n| matches!(n, PcfgNode::Group(g) if g.as_str() == "cond"))
            .unwrap();
        assert!(live.input[cond_idx].contains(&Id::new("i")));
        // The loop-carried register interferes with the temporary.
        let interference = Interference::build(&pcfg, &rw, &BTreeSet::new());
        assert!(interference.conflict(Id::new("i"), Id::new("t")));
    }

    #[test]
    fn boundary_registers_stay_live() {
        let c = Control::enable("g");
        let ctx = parse_context(
            r#"component main() -> () {
                cells { r = std_reg(8); }
                wires { group g { r.in = 8'd1; r.write_en = 1'd1; g[done] = r.done; } }
                control { g; }
            }"#,
        )
        .unwrap();
        let comp = ctx.component("main").unwrap();
        let rw = ReadWriteSets::analyze(comp);
        let pcfg = Pcfg::from_control(&c);
        let boundary: BTreeSet<Id> = [Id::new("r")].into_iter().collect();
        let live = Liveness::solve(&pcfg, &rw, &boundary);
        assert!(live.output[pcfg.exit].contains(&Id::new("r")));
    }
}
