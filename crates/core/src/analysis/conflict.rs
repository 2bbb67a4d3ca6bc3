//! May-run-in-parallel conflict analysis (paper §5.1).
//!
//! Resource sharing needs to know which groups can never execute
//! simultaneously. Following the paper: the analysis "traverses the control
//! program and adds edges between all children of a `par` block. If the
//! children of the `par` block are themselves control programs, the pass
//! adds edges between the groups contained within each child."
//!
//! The relation is a bit matrix over the referenced groups, numbered in
//! name order (`Id`'s `Ord`, as [`RegIndex`](super::RegIndex) numbers
//! registers), so [`ParConflicts::groups`] lists them as a `BTreeSet<Id>`
//! would. One bottom-up walk builds it: a `par` ORs into each group of a
//! child the union of its other children's groups, so no child's groups
//! are collected twice and no pair is visited one at a time.

use super::cache::{Analysis, AnalysisCache};
use crate::ir::{Component, Control, Id};
use rustc_hash::FxHashMap;

/// Symmetric group-level conflict relation: an edge means the two groups may
/// run in parallel.
#[derive(Debug, Clone, Default)]
pub struct ParConflicts {
    /// The groups the control program references, in name order; a
    /// group's bit is its position here.
    groups: Vec<Id>,
    index: FxHashMap<Id, usize>,
    /// Words per row.
    words: usize,
    /// Row `i`, words `i * words..(i + 1) * words`: the groups group `i`
    /// may run in parallel with. Empty when no two groups conflict.
    rows: Vec<u64>,
}

impl Analysis for ParConflicts {
    type Output = ParConflicts;
    const NAME: &'static str = "par-conflicts";

    fn compute(comp: &Component, _cache: &mut AnalysisCache) -> ParConflicts {
        ParConflicts::from_control(&comp.control)
    }
}

impl ParConflicts {
    /// Build the conflict relation for a control program.
    pub fn from_control(control: &Control) -> Self {
        let mut groups = Vec::new();
        control.for_each_group(&mut |g| groups.push(g));
        groups.sort_unstable();
        groups.dedup();
        let index = groups.iter().enumerate().map(|(i, &g)| (g, i)).collect();
        let words = groups.len().div_ceil(64);
        let mut c = ParConflicts {
            rows: vec![0; groups.len() * words],
            groups,
            index,
            words,
        };
        if words > 0 {
            c.walk(control, &mut vec![0; words]);
        }
        // A group shared by two children of one `par` is not its own
        // conflict.
        for i in 0..c.groups.len() {
            c.rows[i * words + i / 64] &= !(1 << (i % 64));
        }
        // Most components have no `par`: answer them without a lookup.
        if c.rows.iter().all(|&w| w == 0) {
            c.rows.clear();
        }
        c
    }

    /// OR the groups under `control` into `under`, adding the edges of
    /// every `par` on the way.
    fn walk(&mut self, control: &Control, under: &mut [u64]) {
        match control {
            Control::Empty => {}
            Control::Enable { group, .. } => self.mark(*group, under),
            Control::Seq { stmts, .. } => {
                for s in stmts {
                    self.walk(s, under);
                }
            }
            Control::Par { stmts, .. } => {
                let words = self.words;
                // Each child's groups, then the union of the children
                // after it.
                let mut child = vec![0; stmts.len() * words];
                for (s, set) in stmts.iter().zip(child.chunks_exact_mut(words)) {
                    self.walk(s, set);
                }
                let mut after = vec![0; (stmts.len() + 1) * words];
                for i in (0..stmts.len()).rev() {
                    for w in 0..words {
                        after[i * words + w] = after[(i + 1) * words + w] | child[i * words + w];
                    }
                }
                // Sweep left to right keeping the union before the child.
                let mut before = vec![0; words];
                let mut others = vec![0; words];
                for i in 0..stmts.len() {
                    let set = &child[i * words..(i + 1) * words];
                    for w in 0..words {
                        others[w] = before[w] | after[(i + 1) * words + w];
                    }
                    for g in bits(set) {
                        let row = &mut self.rows[g * words..(g + 1) * words];
                        for (r, o) in row.iter_mut().zip(&others) {
                            *r |= o;
                        }
                    }
                    for w in 0..words {
                        before[w] |= set[w];
                    }
                }
                for (u, b) in under.iter_mut().zip(&before) {
                    *u |= b;
                }
            }
            Control::If {
                cond,
                tbranch,
                fbranch,
                ..
            } => {
                if let Some(c) = cond {
                    self.mark(*c, under);
                }
                self.walk(tbranch, under);
                self.walk(fbranch, under);
            }
            Control::While { cond, body, .. } => {
                if let Some(c) = cond {
                    self.mark(*c, under);
                }
                self.walk(body, under);
            }
        }
    }

    fn mark(&self, group: Id, set: &mut [u64]) {
        let i = self.index[&group];
        set[i / 64] |= 1 << (i % 64);
    }

    /// May `a` and `b` execute in the same cycle?
    pub fn conflict(&self, a: Id, b: Id) -> bool {
        if self.rows.is_empty() {
            return false;
        }
        match (self.index.get(&a), self.index.get(&b)) {
            (Some(&a), Some(&b)) => self.rows[a * self.words + b / 64] >> (b % 64) & 1 == 1,
            _ => false,
        }
    }

    /// All groups the control program references, in name order.
    pub fn groups(&self) -> impl Iterator<Item = Id> + '_ {
        self.groups.iter().copied()
    }
}

/// The positions of the set bits of `set`, ascending.
fn bits(set: &[u64]) -> impl Iterator<Item = usize> + '_ {
    set.iter().enumerate().flat_map(|(w, &word)| {
        let mut word = word;
        std::iter::from_fn(move || {
            (word != 0).then(|| {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                w * 64 + bit
            })
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(s: &str) -> Id {
        Id::new(s)
    }

    #[test]
    fn par_children_conflict() {
        // par { a; b; }
        let c = Control::par(vec![Control::enable("a"), Control::enable("b")]);
        let conflicts = ParConflicts::from_control(&c);
        assert!(conflicts.conflict(id("a"), id("b")));
        assert!(conflicts.conflict(id("b"), id("a")));
    }

    #[test]
    fn seq_children_do_not_conflict() {
        // The paper's Fig. 3: incr_r0 and incr_r1 in sequence can share.
        let c = Control::seq(vec![
            Control::par(vec![Control::enable("let_r0"), Control::enable("let_r1")]),
            Control::enable("incr_r0"),
            Control::enable("incr_r1"),
        ]);
        let conflicts = ParConflicts::from_control(&c);
        assert!(conflicts.conflict(id("let_r0"), id("let_r1")));
        assert!(!conflicts.conflict(id("incr_r0"), id("incr_r1")));
        assert!(!conflicts.conflict(id("let_r0"), id("incr_r0")));
    }

    #[test]
    fn nested_control_in_par_conflicts_transitively() {
        // par { seq { a; b; }; seq { c; d; } }
        let c = Control::par(vec![
            Control::seq(vec![Control::enable("a"), Control::enable("b")]),
            Control::seq(vec![Control::enable("c"), Control::enable("d")]),
        ]);
        let conflicts = ParConflicts::from_control(&c);
        for x in ["a", "b"] {
            for y in ["c", "d"] {
                assert!(conflicts.conflict(id(x), id(y)), "{x} vs {y}");
            }
        }
        // Within one child the groups are sequenced.
        assert!(!conflicts.conflict(id("a"), id("b")));
    }

    #[test]
    fn while_cond_group_conflicts_across_par() {
        use crate::ir::PortRef;
        let w = Control::while_(
            PortRef::cell("lt", "out"),
            Some(id("cond")),
            Control::enable("body"),
        );
        let c = Control::par(vec![w, Control::enable("other")]);
        let conflicts = ParConflicts::from_control(&c);
        assert!(conflicts.conflict(id("cond"), id("other")));
        assert!(conflicts.conflict(id("body"), id("other")));
        assert!(!conflicts.conflict(id("cond"), id("body")));
    }

    #[test]
    fn if_branches_do_not_conflict() {
        use crate::ir::PortRef;
        let c = Control::if_(
            PortRef::cell("lt", "out"),
            Some(id("cond")),
            Control::enable("t"),
            Control::enable("f"),
        );
        let conflicts = ParConflicts::from_control(&c);
        assert!(!conflicts.conflict(id("t"), id("f")));
    }
}
