//! Reaching definitions: which writes of a register or memory can still
//! be the source of its value when a group runs.
//!
//! A forward union analysis over def sites. Every register and memory
//! starts with a synthetic [`DefSite::Entry`] definition (its power-on
//! value); a group that must-write a register kills every prior def of
//! it, while guarded register writes and *all* memory writes only add a
//! [`DefSite::Group`] def — a memory write updates one address, so the
//! power-on contents of the others still reach. The `uninit-read` lint
//! asks [`ReachingDefs::entry_reaches`]: a register read while its entry
//! def still reaches may observe an undefined power-on value.

use super::solver::{solve, Direction, Lattice, Solution, Transfer};
use crate::analysis::cache::{Analysis, AnalysisCache};
use crate::analysis::liveness::par_defs;
use crate::analysis::pcfg::{Pcfg, PcfgNode};
use crate::analysis::read_write::ReadWriteSets;
use crate::analysis::regset::RegSet;
use crate::ir::{Atom, Component, Id, PortParent};
use std::collections::{BTreeMap, BTreeSet};

/// Where a cell's value may have been defined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DefSite {
    /// The undefined power-on value from before the schedule started.
    Entry,
    /// A write inside this group.
    Group(Id),
}

/// The reaching-defs fact: the set of `(cell, def site)` pairs alive on
/// some path to a program point.
pub type ReachFacts = BTreeSet<(Id, DefSite)>;

/// Reaching definitions for every group occurrence in a component.
#[derive(Debug, Clone, Default)]
pub struct ReachingDefs {
    reaching_in: BTreeMap<Id, ReachFacts>,
}

impl ReachingDefs {
    /// The defs reaching `group`'s entry, joined over every occurrence of
    /// the group in the schedule. `None` when the group is never enabled
    /// (the `dead-group` lint's territory, not ours).
    pub fn reaching_in(&self, group: Id) -> Option<&ReachFacts> {
        self.reaching_in.get(&group)
    }

    /// Can `cell` still hold its undefined power-on value when `group`
    /// runs? False for groups that never run.
    pub fn entry_reaches(&self, group: Id, cell: Id) -> bool {
        self.reaching_in
            .get(&group)
            .is_some_and(|f| f.contains(&(cell, DefSite::Entry)))
    }

    /// The group-write sites of `cell` that reach `group`'s entry.
    pub fn group_defs_reaching(&self, group: Id, cell: Id) -> Vec<Id> {
        self.reaching_in
            .get(&group)
            .map(|f| {
                f.iter()
                    .filter_map(|&(c, site)| match site {
                        DefSite::Group(g) if c == cell => Some(g),
                        _ => None,
                    })
                    .collect()
            })
            .unwrap_or_default()
    }
}

impl Analysis for ReachingDefs {
    type Output = ReachingDefs;
    const NAME: &'static str = "reaching-defs";

    fn compute(comp: &Component, cache: &mut AnalysisCache) -> ReachingDefs {
        let pcfg = cache.get::<Pcfg>(comp);
        let rw = cache.get::<ReadWriteSets>(comp);
        let transfer = ReachTransfer::new(comp, &rw);
        let boundary: ReachFacts = comp
            .cells
            .iter()
            .filter(|c| c.is_register() || c.is_memory())
            .map(|c| (c.name, DefSite::Entry))
            .collect();
        // Every group occurrence in every nested sub-pCFG, joined per
        // group.
        let mut defs = ReachingDefs::default();
        solve(&pcfg, &transfer, boundary).walk(&pcfg, &mut |pcfg, sol| {
            for (node, input) in pcfg.nodes.iter().zip(&sol.input) {
                if let PcfgNode::Group(g) = node {
                    defs.reaching_in
                        .entry(*g)
                        .or_default()
                        .extend(input.iter().cloned());
                }
            }
        });
        defs
    }
}

struct ReachTransfer<'a> {
    rw: &'a ReadWriteSets,
    /// Memories each group may write (`write_en` driven by anything but
    /// a literal 0) — [`ReadWriteSets`] tracks registers only.
    mem_writes: BTreeMap<Id, BTreeSet<Id>>,
}

impl<'a> ReachTransfer<'a> {
    fn new(comp: &Component, rw: &'a ReadWriteSets) -> Self {
        let memories: BTreeSet<Id> = comp
            .cells
            .iter()
            .filter(|c| c.is_memory())
            .map(|c| c.name)
            .collect();
        let mut mem_writes: BTreeMap<Id, BTreeSet<Id>> = BTreeMap::new();
        for group in comp.groups.iter() {
            let written = group
                .assignments
                .iter()
                .filter(|a| {
                    a.dst.port == Id::WRITE_EN && !matches!(a.src, Atom::Const { val: 0, .. })
                })
                .filter_map(|a| match a.dst.parent {
                    PortParent::Cell(c) if memories.contains(&c) => Some(c),
                    _ => None,
                })
                .collect();
            mem_writes.insert(group.name, written);
        }
        ReachTransfer { rw, mem_writes }
    }
}

impl Transfer for ReachTransfer<'_> {
    type Fact = ReachFacts;
    const DIRECTION: Direction = Direction::Forward;

    fn group(&self, group: Id, fact: &Self::Fact) -> Self::Fact {
        let regs = self.rw.regs();
        let must = self.rw.must_writes(group);
        let mut out: ReachFacts = fact
            .iter()
            .filter(|&&(c, _)| !regs.contains(must, c))
            .cloned()
            .collect();
        for r in regs.names(self.rw.may_writes(group)) {
            out.insert((r, DefSite::Group(group)));
        }
        if let Some(mems) = self.mem_writes.get(&group) {
            // A memory write touches one address: it gens a def but never
            // kills the entry def of the untouched addresses.
            for &m in mems {
                out.insert((m, DefSite::Group(group)));
            }
        }
        out
    }

    fn par(
        &self,
        children: &[Pcfg],
        solved: &[Solution<Self::Fact>],
        _fact: &Self::Fact,
    ) -> Self::Fact {
        // Join the children's exits, then kill the entry defs of any
        // register some child certainly overwrote: after the p-node that
        // register holds a written value no matter how siblings
        // interleaved. Stale group defs from the join are conservative.
        let mut out = ReachFacts::new();
        let mut killed = RegSet::new();
        for (child, solved) in children.iter().zip(solved) {
            out.extend(solved.output[child.exit].iter().cloned());
            killed.join(&par_defs(child, self.rw));
        }
        let regs = self.rw.regs();
        out.retain(|&(c, site)| site != DefSite::Entry || !regs.contains(&killed, c));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::parse_context;

    fn analyze(src: &str) -> ReachingDefs {
        let ctx = parse_context(src).unwrap();
        let comp = ctx.component("main").unwrap();
        let mut cache = AnalysisCache::new();
        ReachingDefs::compute(comp, &mut cache)
    }

    #[test]
    fn must_write_kills_the_entry_def() {
        let defs = analyze(
            r#"component main() -> () {
                cells { r = std_reg(8); t = std_reg(8); }
                wires {
                  group init { r.in = 8'd1; r.write_en = 1'd1; init[done] = r.done; }
                  group read { t.in = r.out; t.write_en = 1'd1; read[done] = t.done; }
                }
                control { seq { init; read; } }
            }"#,
        );
        let (init, read, r) = (Id::new("init"), Id::new("read"), Id::new("r"));
        assert!(defs.entry_reaches(init, r), "nothing written before init");
        assert!(!defs.entry_reaches(read, r), "init killed the entry def");
        assert_eq!(defs.group_defs_reaching(read, r), vec![init]);
    }

    #[test]
    fn skipped_branch_keeps_the_entry_def_reaching() {
        let defs = analyze(
            r#"component main() -> () {
                cells { c = std_reg(1); r = std_reg(8); t = std_reg(8); }
                wires {
                  group init { r.in = 8'd1; r.write_en = 1'd1; init[done] = r.done; }
                  group read { t.in = r.out; t.write_en = 1'd1; read[done] = t.done; }
                }
                control { seq { if c.out { init; } read; } }
            }"#,
        );
        assert!(
            defs.entry_reaches(Id::new("read"), Id::new("r")),
            "the else path skips init"
        );
    }

    #[test]
    fn par_sibling_write_kills_the_entry_def() {
        let defs = analyze(
            r#"component main() -> () {
                cells { r = std_reg(8); s = std_reg(8); t = std_reg(8); }
                wires {
                  group wr { r.in = 8'd1; r.write_en = 1'd1; wr[done] = r.done; }
                  group ws { s.in = 8'd2; s.write_en = 1'd1; ws[done] = s.done; }
                  group read { t.in = r.out; t.write_en = 1'd1; read[done] = t.done; }
                }
                control { seq { par { wr; ws; } read; } }
            }"#,
        );
        assert!(!defs.entry_reaches(Id::new("read"), Id::new("r")));
        assert!(!defs.entry_reaches(Id::new("read"), Id::new("s")));
    }

    #[test]
    fn memory_writes_never_kill_the_entry_def() {
        let defs = analyze(
            r#"component main() -> () {
                cells { m = std_mem_d1(8, 4, 2); r = std_reg(8); }
                wires {
                  group store {
                    m.addr0 = 2'd0; m.write_data = 8'd1; m.write_en = 1'd1;
                    store[done] = m.done;
                  }
                  group load {
                    m.addr0 = 2'd1;
                    r.in = m.read_data; r.write_en = 1'd1;
                    load[done] = r.done;
                  }
                }
                control { seq { store; load; } }
            }"#,
        );
        let (load, m) = (Id::new("load"), Id::new("m"));
        assert!(
            defs.entry_reaches(load, m),
            "store wrote one address; the rest are still power-on"
        );
        assert_eq!(defs.group_defs_reaching(load, m), vec![Id::new("store")]);
    }

    #[test]
    fn loop_body_sees_its_own_defs_around_the_back_edge() {
        let defs = analyze(
            r#"component main() -> () {
                cells { lt = std_lt(8); i = std_reg(8); add = std_add(8); }
                wires {
                  group cond { lt.left = i.out; lt.right = 8'd10; cond[done] = 1'd1; }
                  group incr {
                    add.left = i.out; add.right = 8'd1;
                    i.in = add.out; i.write_en = 1'd1;
                    incr[done] = i.done;
                  }
                }
                control { while lt.out with cond { incr; } }
            }"#,
        );
        let (cond, i) = (Id::new("cond"), Id::new("i"));
        assert!(defs.entry_reaches(cond, i), "first iteration: power-on i");
        assert_eq!(defs.group_defs_reaching(cond, i), vec![Id::new("incr")]);
    }
}
