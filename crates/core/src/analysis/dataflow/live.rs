//! Liveness as a backward instance of the generic dataflow engine — the
//! production solver behind the cached [`Liveness`] analysis.
//!
//! The flow equations are the paper's §5.2: `in = (out − must-writes) ∪
//! reads` at a group; at a p-node the engine solves every child with the
//! p-node's live-out as its boundary, and [`LiveTransfer::par`] combines
//! them (uses are the union of child live-ins, kills the union of
//! straight-line child must-writes, uses winning over kills). The result
//! is the engine's solution tree, so consumers read a nested child's
//! facts from [`Solution::children`](super::Solution::children) instead
//! of solving it again.
//!
//! The hand-rolled solver in [`liveness`](crate::analysis::liveness)
//! computes the least fixpoint of the same monotone equations into the
//! same tree type; it is a test reference only, and
//! `tests/dataflow_differential.rs` pins the two trees equal on every
//! program the repository can generate.

use super::solver::{solve, Direction, Solution, Transfer};
use crate::analysis::liveness::{par_defs, Liveness};
use crate::analysis::pcfg::Pcfg;
use crate::analysis::read_write::ReadWriteSets;
use crate::ir::Id;
use std::collections::BTreeSet;

/// The liveness transfer function: `in = (out − must-writes) ∪ reads`.
pub struct LiveTransfer<'a> {
    rw: &'a ReadWriteSets,
}

impl Transfer for LiveTransfer<'_> {
    type Fact = BTreeSet<Id>;
    const DIRECTION: Direction = Direction::Backward;

    fn group(&self, group: Id, fact: &Self::Fact) -> Self::Fact {
        let mut inn: BTreeSet<Id> = fact
            .difference(self.rw.must_writes(group))
            .copied()
            .collect();
        inn.extend(self.rw.reads(group).iter().copied());
        inn
    }

    fn par(
        &self,
        children: &[Pcfg],
        solved: &[Solution<Self::Fact>],
        fact: &Self::Fact,
    ) -> Self::Fact {
        // Paper §5.2: each child's live-out boundary is the p-node's
        // live-out; the p-node uses are the union of child live-ins and
        // its kills the union of child must-writes, with uses winning
        // (a register one child reads is not killed by a sibling).
        let mut uses = BTreeSet::new();
        let mut defs = BTreeSet::new();
        for (child, solved) in children.iter().zip(solved) {
            uses.extend(solved.input[child.entry].iter().copied());
            defs.extend(par_defs(child, self.rw));
        }
        let defs: BTreeSet<Id> = defs.difference(&uses).copied().collect();
        let mut inn: BTreeSet<Id> = fact.difference(&defs).copied().collect();
        inn.extend(uses);
        inn
    }
}

/// Solve liveness over `pcfg` with the generic engine, `boundary` live at
/// the exit. Produces the same tree as the reference [`Liveness::solve`].
pub fn solve_liveness(pcfg: &Pcfg, rw: &ReadWriteSets, boundary: &BTreeSet<Id>) -> Liveness {
    solve(pcfg, &LiveTransfer { rw }, boundary.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::parse_context;

    /// The engine-backed solver and the hand-rolled reference produce
    /// the same solution tree on a program exercising seq, par, if, and
    /// while.
    #[test]
    fn agrees_with_the_hand_rolled_reference() {
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
        for boundary in [BTreeSet::new(), [Id::new("a")].into_iter().collect()] {
            let reference = Liveness::solve(&pcfg, &rw, &boundary);
            assert_eq!(reference, solve_liveness(&pcfg, &rw, &boundary));
        }
    }
}
