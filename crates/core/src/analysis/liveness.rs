//! Live-range analysis for registers over parallel CFGs (paper §5.2).
//!
//! A standard backward may-liveness dataflow with one twist from the paper:
//! for the children of a p-node, "we set the live sets at the end of each
//! child to be the set of live registers coming out of the p-node", and the
//! p-node's kill set is the union of its children's must-writes (all
//! children execute).
//!
//! The cached [`Liveness`] analysis is the dataflow engine's solution
//! tree over [`RegSet`]s (see [`dataflow`](super::dataflow)): the engine
//! solves every p-node child once and keeps it, and [`Interference`] and
//! the `dead-write` lint read the nested facts from the tree rather than
//! solving children again. The independent `BTreeSet<Id>` reference
//! solver the differential tests compare it against lives in
//! `tests/dataflow_differential.rs`, not here.

use super::cache::{Analysis, AnalysisCache};
use super::dataflow::{solve_liveness, Lattice, Solution};
use super::pcfg::{Pcfg, PcfgNode};
use super::port_uses::PortUses;
use super::read_write::ReadWriteSets;
use super::regset::{RegIndex, RegSet};
use crate::ir::{Component, Control, Id};
use rustc_hash::FxHashSet;
use std::collections::BTreeSet;

/// Cells observable outside the control schedule: cells read or written by
/// continuous assignments, plus cells referenced directly as `if`/`while`
/// condition ports. Resource sharing pins these (their values are consumed
/// outside any group), and [`BoundaryRegs`] filters them down to the
/// registers that live-range analysis must keep live at the exit.
#[derive(Debug, Clone, Default)]
pub struct BoundaryCells {
    cells: FxHashSet<Id>,
}

impl BoundaryCells {
    /// The boundary cell set.
    pub fn cells(&self) -> &FxHashSet<Id> {
        &self.cells
    }
}

impl Analysis for BoundaryCells {
    type Output = BoundaryCells;
    const NAME: &'static str = "boundary-cells";

    fn compute(comp: &Component, cache: &mut AnalysisCache) -> BoundaryCells {
        let uses = cache.get::<PortUses>(comp);
        let mut cells = uses.continuous_cells().clone();
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
fn collect_condition_cells(control: &Control, out: &mut FxHashSet<Id>) {
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
/// The sets are over the numbering of [`ReadWriteSets::regs`].
pub type Liveness = Solution<RegSet>;

impl Analysis for Liveness {
    type Output = Liveness;
    const NAME: &'static str = "liveness";

    fn compute(comp: &Component, cache: &mut AnalysisCache) -> Liveness {
        let pcfg = cache.get::<Pcfg>(comp);
        let rw = cache.get::<ReadWriteSets>(comp);
        let boundary = cache.get::<BoundaryRegs>(comp);
        let boundary = rw.regs().set(boundary.registers().iter().copied());
        solve_liveness(&pcfg, &rw, &boundary)
    }
}

/// The registers a `par` child certainly overwrites, for the p-node's
/// kill set: when the child is straight-line (no node has two
/// successors, so every node runs), the must-writes of its own group
/// nodes; otherwise nothing. Writes inside the child's nested p-nodes
/// are not counted. Both omissions only under-approximate the kills,
/// which keeps registers live longer and is safe.
pub(crate) fn par_defs(child: &Pcfg, rw: &ReadWriteSets) -> RegSet {
    let mut defs = RegSet::new();
    if child.succs.iter().all(|s| s.len() <= 1) {
        for g in child.groups() {
            defs.join(rw.must_writes(g));
        }
    }
    defs
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
/// is held as a symmetric bit matrix over the component's register
/// numbering ([`RegIndex`]): row `i` is `⌈n/64⌉` words, and bit `j` of it
/// says that registers `i` and `j` conflict. A fact is already a row-wide
/// mask, so a clique or a cross product is that mask OR-ed into each
/// member's row. [`conflict`](Interference::conflict) is the only way to
/// read the relation.
#[derive(Debug, Clone, Default)]
pub struct Interference {
    /// The numbering rows and columns follow.
    regs: RegIndex,
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
    /// Compute interference over `pcfg` from its solved [`Liveness`]
    /// tree: one bottom-up pass over every node of every nested sub-pCFG.
    pub fn build_with(pcfg: &Pcfg, rw: &ReadWriteSets, live: &Liveness) -> Self {
        let regs = rw.regs().clone();
        let words = regs.len().div_ceil(64);
        let mut interference = Interference {
            bits: vec![0; regs.len() * words],
            regs,
            words,
        };
        interference.fill(pcfg, rw, live);
        interference
    }

    /// Add the edges of `pcfg` and everything nested below it; returns
    /// the registers touched there. Each sub-pCFG's touched set is
    /// computed once, from its own groups and its children's sets.
    fn fill(&mut self, pcfg: &Pcfg, rw: &ReadWriteSets, live: &Liveness) -> RegSet {
        let mut touched = RegSet::new();
        for (node, (live_out, solved)) in pcfg
            .nodes
            .iter()
            .zip(live.output.iter().zip(&live.children))
        {
            // Everything live or used here, pairwise: a clique.
            if let PcfgNode::Group(g) = node {
                let mut clique = rw.may_writes(*g).clone();
                clique.join(rw.reads(*g));
                touched.join(&clique);
                clique.join(live_out);
                self.or_into_rows(&clique, &clique);
            } else {
                self.or_into_rows(live_out, live_out);
            }
            let below: Vec<RegSet> = node
                .children()
                .iter()
                .zip(solved)
                .map(|(child, solved)| self.fill(child, rw, solved))
                .collect();
            touched.join(&self.cross_siblings(&below));
        }
        touched
    }

    /// Registers touched in different children of a p-node interfere:
    /// cross each child's set with everything a sibling touches — all
    /// that is touched, less what this child alone touches. Returns all
    /// that is touched.
    fn cross_siblings(&mut self, children: &[RegSet]) -> RegSet {
        let mut any = RegSet::new();
        let mut shared = RegSet::new(); // touched by two or more
        for child in children {
            shared.join(&any.intersection(child));
            any.join(child);
        }
        for child in children {
            let mut alone = child.clone();
            alone.subtract(&shared);
            let mut siblings = any.clone();
            siblings.subtract(&alone);
            self.or_into_rows(child, &siblings);
        }
        any
    }

    /// OR `mask` into the row of every register in `members`.
    fn or_into_rows(&mut self, members: &RegSet, mask: &RegSet) {
        for i in members.iter() {
            let row = &mut self.bits[i * self.words..][..self.words];
            for (word, m) in row.iter_mut().zip(mask.words()) {
                *word |= m;
            }
        }
    }

    /// Do `a` and `b` interfere? Never for `a == b`, nor for a name that
    /// is not a register of the component.
    pub fn conflict(&self, a: Id, b: Id) -> bool {
        match (self.regs.index(a), self.regs.index(b)) {
            (Some(i), Some(j)) if i != j => self.bits[i * self.words + j / 64] >> (j % 64) & 1 == 1,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{parse_context, Context};

    /// The interference relation of `main`, through the cache.
    fn interference(ctx: &Context) -> std::rc::Rc<Interference> {
        AnalysisCache::new().get::<Interference>(ctx.component("main").unwrap())
    }

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
        let interference = interference(&ctx);
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
        let interference = interference(&ctx);
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
        let interference = interference(&ctx);
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
        let interference = interference(&ctx);
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
        let mut cache = AnalysisCache::new();
        let (pcfg, rw) = (cache.get::<Pcfg>(comp), cache.get::<ReadWriteSets>(comp));
        let live = cache.get::<Liveness>(comp);
        // `i` is live around the back edge: at the condition node's entry.
        let cond_idx = pcfg
            .nodes
            .iter()
            .position(|n| matches!(n, PcfgNode::Group(g) if g.as_str() == "cond"))
            .unwrap();
        assert!(rw.regs().contains(&live.input[cond_idx], Id::new("i")));
        // The loop-carried register interferes with the temporary.
        let interference = Interference::build_with(&pcfg, &rw, &live);
        assert!(interference.conflict(Id::new("i"), Id::new("t")));
    }

    #[test]
    fn boundary_registers_stay_live() {
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
        let pcfg = Pcfg::from_control(&comp.control);
        let r = Id::new("r");
        let live = solve_liveness(&pcfg, &rw, &rw.regs().set([r]));
        assert!(rw.regs().contains(&live.output[pcfg.exit], r));
        let live = solve_liveness(&pcfg, &rw, &RegSet::new());
        assert!(!rw.regs().contains(&live.output[pcfg.exit], r));
    }
}
