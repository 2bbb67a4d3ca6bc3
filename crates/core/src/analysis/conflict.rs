//! May-run-in-parallel conflict analysis (paper §5.1).
//!
//! Resource sharing needs to know which groups can never execute
//! simultaneously. Following the paper: the analysis "traverses the control
//! program and adds edges between all children of a `par` block. If the
//! children of the `par` block are themselves control programs, the pass
//! adds edges between the groups contained within each child."

use super::cache::{Analysis, AnalysisCache};
use crate::ir::{Component, Control, Id};
use std::collections::{BTreeMap, BTreeSet};

/// Symmetric group-level conflict relation: an edge means the two groups may
/// run in parallel.
#[derive(Debug, Clone, Default)]
pub struct ParConflicts {
    edges: BTreeMap<Id, BTreeSet<Id>>,
    groups: BTreeSet<Id>,
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
        let mut c = ParConflicts {
            groups: control.used_groups(),
            ..ParConflicts::default()
        };
        c.visit(control);
        c
    }

    fn add_edge(&mut self, a: Id, b: Id) {
        if a != b {
            self.edges.entry(a).or_default().insert(b);
            self.edges.entry(b).or_default().insert(a);
        }
    }

    fn visit(&mut self, control: &Control) {
        match control {
            Control::Empty | Control::Enable { .. } => {}
            Control::Seq { stmts, .. } => {
                for s in stmts {
                    self.visit(s);
                }
            }
            Control::Par { stmts, .. } => {
                for s in stmts {
                    self.visit(s);
                }
                // All pairs of groups under *different* children conflict.
                let child_groups: Vec<BTreeSet<Id>> =
                    stmts.iter().map(Control::used_groups).collect();
                for i in 0..child_groups.len() {
                    for j in (i + 1)..child_groups.len() {
                        for &a in &child_groups[i] {
                            for &b in &child_groups[j] {
                                self.add_edge(a, b);
                            }
                        }
                    }
                }
            }
            Control::If {
                tbranch, fbranch, ..
            } => {
                self.visit(tbranch);
                self.visit(fbranch);
            }
            Control::While { body, .. } => self.visit(body),
        }
    }

    /// May `a` and `b` execute in the same cycle?
    pub fn conflict(&self, a: Id, b: Id) -> bool {
        self.edges.get(&a).is_some_and(|s| s.contains(&b))
    }

    /// All groups the control program references.
    pub fn groups(&self) -> impl Iterator<Item = Id> + '_ {
        self.groups.iter().copied()
    }
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
