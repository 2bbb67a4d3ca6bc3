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
//! `dead-write` lint read the nested facts from the tree rather than
//! solving children again. The hand-rolled
//! [`Liveness::solve`] and [`Interference::build`] in this module are the
//! *reference* implementation: no pass, analysis or lint calls them; the
//! differential tests compare the engine's tree against theirs.

use super::cache::{Analysis, AnalysisCache};
use super::dataflow::{solve_liveness, Solution};
use super::pcfg::{Pcfg, PcfgNode};
use super::port_uses::PortUses;
use super::read_write::ReadWriteSets;
use crate::ir::{Component, Control, Id};
use std::collections::{BTreeSet, HashMap};

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

/// The register interference relation, built from liveness facts.
///
/// Two registers conflict when they are simultaneously live at some node
/// (pairwise within `live_out ∪ may_def ∪ use` at every group node, within
/// `live_out` at every other node), or when they are touched — read or
/// possibly written — by different children of the same p-node (parallel
/// execution).
///
/// The relation is dense on par-heavy designs (a clique per node), so it
/// is held as a symmetric bit matrix: the registers the liveness tree
/// mentions are numbered `0..n`, row `i` is `⌈n/64⌉` words, and bit `j` of
/// it says that registers `i` and `j` conflict. A clique or a cross
/// product is one mask per register set, OR-ed into each member's row.
/// The numbering is internal: [`conflict`](Interference::conflict) is the
/// only way to read the relation, so no output can depend on it.
#[derive(Debug, Clone, Default)]
pub struct Interference {
    /// Row (and column) of every register the relation has met.
    index: HashMap<Id, usize>,
    /// Words per row.
    words: usize,
    /// The rows, back to back. The diagonal is never read.
    bits: Vec<u64>,
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
    /// tree: one walk to number the registers, then one bottom-up pass
    /// over every node of every nested sub-pCFG.
    pub fn build_with(pcfg: &Pcfg, rw: &ReadWriteSets, live: &Liveness) -> Self {
        let mut index: HashMap<Id, usize> = HashMap::new();
        live.walk(pcfg, &mut |pcfg, live| {
            let used = pcfg
                .groups()
                .flat_map(|g| rw.may_writes(g).iter().chain(rw.reads(g)));
            for &reg in live.output.iter().flatten().chain(used) {
                let next = index.len();
                index.entry(reg).or_insert(next);
            }
        });
        let words = index.len().div_ceil(64);
        let mut interference = Interference {
            bits: vec![0; index.len() * words],
            index,
            words,
        };
        interference.fill(pcfg, rw, live);
        interference
    }

    /// Add the edges of `pcfg` and everything nested below it; returns
    /// the mask of registers touched there. Each sub-pCFG's mask is
    /// computed once, from its own groups and its children's masks.
    fn fill(&mut self, pcfg: &Pcfg, rw: &ReadWriteSets, live: &Liveness) -> Vec<u64> {
        let mut touched = vec![0; self.words];
        for (node, (live_out, solved)) in pcfg
            .nodes
            .iter()
            .zip(live.output.iter().zip(&live.children))
        {
            let mut set = vec![0; self.words];
            self.mark(&mut set, live_out);
            if let PcfgNode::Group(g) = node {
                let mut used = vec![0; self.words];
                self.mark(&mut used, rw.may_writes(*g));
                self.mark(&mut used, rw.reads(*g));
                or_into(&mut set, &used);
                or_into(&mut touched, &used);
            }
            // Everything live or used here, pairwise: a clique.
            self.or_into_rows(&set, &set);
            let below: Vec<Vec<u64>> = node
                .children()
                .iter()
                .zip(solved)
                .map(|(child, solved)| self.fill(child, rw, solved))
                .collect();
            or_into(&mut touched, &self.cross_siblings(&below));
        }
        touched
    }

    /// Registers touched in different children of a p-node interfere:
    /// cross each child's mask with everything a sibling touches — all
    /// that is touched, less what this child alone touches. Returns all
    /// that is touched.
    fn cross_siblings(&mut self, children: &[Vec<u64>]) -> Vec<u64> {
        let mut any = vec![0; self.words];
        let mut shared = vec![0; self.words]; // touched by two or more
        for child in children {
            for ((shared, any), child) in shared.iter_mut().zip(&mut any).zip(child) {
                *shared |= *any & child;
                *any |= child;
            }
        }
        for child in children {
            let siblings: Vec<u64> = (0..self.words)
                .map(|w| any[w] & (!child[w] | shared[w]))
                .collect();
            self.or_into_rows(child, &siblings);
        }
        any
    }

    /// Set the bits of `regs` in `mask`.
    fn mark(&self, mask: &mut [u64], regs: &BTreeSet<Id>) {
        for reg in regs {
            let i = self.index[reg];
            mask[i / 64] |= 1 << (i % 64);
        }
    }

    /// OR `mask` into the row of every register in `members`.
    fn or_into_rows(&mut self, members: &[u64], mask: &[u64]) {
        for i in (0..self.index.len()).filter(|i| members[i / 64] >> (i % 64) & 1 == 1) {
            or_into(&mut self.bits[i * self.words..][..self.words], mask);
        }
    }

    /// Do `a` and `b` interfere? Never for `a == b`, nor for a register
    /// the liveness tree does not mention.
    pub fn conflict(&self, a: Id, b: Id) -> bool {
        match (self.index.get(&a), self.index.get(&b)) {
            (Some(&i), Some(&j)) if i != j => {
                self.bits[i * self.words + j / 64] >> (j % 64) & 1 == 1
            }
            _ => false,
        }
    }
}

fn or_into(mask: &mut [u64], other: &[u64]) {
    for (word, other) in mask.iter_mut().zip(other) {
        *word |= other;
    }
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

    /// `r` is written by two `par` siblings: it crosses with everything
    /// either touches, in both argument orders, while `u` and `s` — both
    /// only in the first child, never live together — stay compatible.
    #[test]
    fn register_touched_by_two_par_siblings_crosses_with_both() {
        let ctx = parse_context(
            r#"component main() -> () {
                cells { r = std_reg(8); s = std_reg(8); t = std_reg(8); u = std_reg(8); }
                wires {
                  group wu { u.in = 8'd0; u.write_en = 1'd1; wu[done] = u.done; }
                  group wr0 { r.in = 8'd1; r.write_en = 1'd1; wr0[done] = r.done; }
                  group ws { s.in = 8'd2; s.write_en = 1'd1; ws[done] = s.done; }
                  group wr1 { r.in = 8'd3; r.write_en = 1'd1; wr1[done] = r.done; }
                  group wt { t.in = 8'd4; t.write_en = 1'd1; wt[done] = t.done; }
                }
                control { par { seq { wu; wr0; ws; } wr1; wt; } }
            }"#,
        )
        .unwrap();
        let comp = ctx.component("main").unwrap();
        let rw = ReadWriteSets::analyze(comp);
        let pcfg = Pcfg::from_control(&comp.control);
        let interference = Interference::build(&pcfg, &rw, &BTreeSet::new());
        let [r, s, t, u] = ["r", "s", "t", "u"].map(Id::new);
        for (a, b) in [(r, s), (r, t), (r, u), (s, t), (u, t)] {
            assert!(interference.conflict(a, b), "{a} and {b} run in parallel");
            assert!(interference.conflict(b, a), "{b} and {a} run in parallel");
        }
        assert!(!interference.conflict(u, s) && !interference.conflict(s, u));
        assert!(!interference.conflict(r, r));
        assert!(!interference.conflict(r, Id::new("never_declared")));
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
