//! Liveness as a backward instance of the generic dataflow engine — the
//! solver behind the cached [`Liveness`] analysis.
//!
//! The flow equations are the paper's §5.2: `in = (out − must-writes) ∪
//! reads` at a group; at a p-node the engine solves every child with the
//! p-node's live-out as its boundary, and [`LiveTransfer::par`] combines
//! them (uses are the union of child live-ins, kills the union of
//! straight-line child must-writes, uses winning over kills). Facts are
//! [`RegSet`]s, so each equation is a few word operations. The result is
//! the engine's solution tree, so consumers read a nested child's facts
//! from [`Solution::children`](super::Solution::children) instead of
//! solving it again.
//!
//! `tests/dataflow_differential.rs` holds this tree equal, through the
//! `BTreeSet<Id>` view, to an independent round-robin solver on every
//! program the repository can generate.

use super::solver::{solve, Direction, Lattice, Solution, Transfer};
use crate::analysis::liveness::{par_defs, Liveness};
use crate::analysis::pcfg::Pcfg;
use crate::analysis::read_write::ReadWriteSets;
use crate::analysis::regset::RegSet;
use crate::ir::Id;

/// The liveness transfer function: `in = (out − must-writes) ∪ reads`.
pub struct LiveTransfer<'a> {
    rw: &'a ReadWriteSets,
}

impl Transfer for LiveTransfer<'_> {
    type Fact = RegSet;
    const DIRECTION: Direction = Direction::Backward;

    fn group(&self, group: Id, fact: &RegSet) -> RegSet {
        let mut inn = fact.clone();
        inn.subtract(self.rw.must_writes(group));
        inn.join(self.rw.reads(group));
        inn
    }

    fn par(&self, children: &[Pcfg], solved: &[Solution<RegSet>], fact: &RegSet) -> RegSet {
        // Paper §5.2: each child's live-out boundary is the p-node's
        // live-out; the p-node uses are the union of child live-ins and
        // its kills the union of child must-writes, with uses winning
        // (a register one child reads is not killed by a sibling).
        let mut uses = RegSet::new();
        let mut defs = RegSet::new();
        for (child, solved) in children.iter().zip(solved) {
            uses.join(&solved.input[child.entry]);
            defs.join(&par_defs(child, self.rw));
        }
        let mut inn = fact.clone();
        inn.subtract(&defs);
        inn.join(&uses);
        inn
    }
}

/// Solve liveness over `pcfg` with the generic engine, `boundary` live at
/// the exit.
pub fn solve_liveness(pcfg: &Pcfg, rw: &ReadWriteSets, boundary: &RegSet) -> Liveness {
    solve(pcfg, &LiveTransfer { rw }, boundary.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::PcfgNode;
    use crate::ir::parse_context;

    /// Hand-computed facts on a program exercising seq, par, if, and
    /// while, with and without a boundary register.
    #[test]
    fn facts_on_seq_par_if_while() {
        let ctx = parse_context(
            r#"component main() -> () {
                cells {
                  i = std_reg(8); lt = std_lt(8); add = std_add(8);
                  a = std_reg(8); b = std_reg(8); c = std_reg(1);
                }
                wires {
                  group init { i.in = 8'd0; i.write_en = 1'd1; init[done] = i.done; }
                  group cond { lt.left = i.out; lt.right = 8'd10; cond[done] = 1'd1; }
                  group wa { a.in = i.out; a.write_en = 1'd1; wa[done] = a.done; }
                  group wb { b.in = 8'd2; b.write_en = 1'd1; wb[done] = b.done; }
                  group incr {
                    add.left = i.out; add.right = 8'd1;
                    i.in = add.out; i.write_en = 1'd1;
                    incr[done] = i.done;
                  }
                  group rb { a.in = b.out; a.write_en = 1'd1; rb[done] = a.done; }
                }
                control {
                  seq {
                    init;
                    while lt.out with cond {
                      seq { par { wa; wb; } if c.out { rb; } incr; }
                    }
                  }
                }
            }"#,
        )
        .unwrap();
        let comp = ctx.component("main").unwrap();
        let rw = ReadWriteSets::analyze(comp);
        let pcfg = Pcfg::from_control(&comp.control);
        let regs = rw.regs();
        let names = |set: &RegSet| regs.names(set).map(Id::as_str).collect::<Vec<_>>();
        let node = |name: &str| {
            pcfg.nodes
                .iter()
                .position(|n| matches!(n, PcfgNode::Group(g) if g.as_str() == name))
                .unwrap()
        };
        let par = pcfg
            .nodes
            .iter()
            .position(|n| !n.children().is_empty())
            .unwrap();

        let live = solve_liveness(&pcfg, &rw, &RegSet::new());
        // `rb` reads `b`, so `b` is live out of the `par`. Inside, `wb`
        // kills it, but its sibling `wa` passes it through, and a use in
        // one child wins over a kill in another: `b` stays live across
        // the `par`, so around the loop and back to the entry. `i` is
        // live around the loop and killed by `init`; `c` is only ever a
        // condition port, which no group reads.
        let [wa, wb] = &live.children[par][..] else {
            panic!("two children")
        };
        let [wa_graph, wb_graph] = pcfg.nodes[par].children() else {
            panic!("two children")
        };
        assert_eq!(names(&wa.input[wa_graph.entry]), ["b", "i"]);
        assert_eq!(names(&wb.input[wb_graph.entry]), ["i"]);
        assert_eq!(names(&live.output[par]), ["b", "i"]);
        assert_eq!(names(&live.input[par]), ["b", "i"]);
        assert_eq!(names(&live.input[node("rb")]), ["b", "i"]);
        assert_eq!(names(&live.input[node("cond")]), ["b", "i"]);
        assert_eq!(names(&live.input[pcfg.entry]), ["b"]);

        // A boundary register is live at the exit, so `a` — written in
        // the loop — is live around it: `wb`'s child passes it through
        // the `par` that `wa` kills it in.
        let live = solve_liveness(&pcfg, &rw, &regs.set([Id::new("a")]));
        assert_eq!(names(&live.output[pcfg.exit]), ["a"]);
        assert_eq!(names(&live.input[par]), ["a", "b", "i"]);
        assert_eq!(names(&live.input[node("cond")]), ["a", "b", "i"]);
        assert_eq!(names(&live.input[pcfg.entry]), ["a", "b"]);
    }
}
