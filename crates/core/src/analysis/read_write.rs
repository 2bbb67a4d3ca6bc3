//! Conservative register read/write sets per group (paper §5.2).
//!
//! The live-range analysis needs, for every group, which registers it *may
//! read* and which it *must write*. Groups can contain arbitrary logic, so
//! both sets are conservative over-approximations: reads include any
//! appearance of a register output in a source or guard; must-writes
//! require an unconditional data write *and* an unconditional `write_en`,
//! since only then is the old value certainly dead after the group runs.
//!
//! The sets are [`RegSet`]s over the component's one register numbering,
//! which this analysis holds ([`ReadWriteSets::regs`]).

use super::cache::{Analysis, AnalysisCache};
use super::regset::{RegIndex, RegSet};
use crate::ir::{Atom, Component, Group, Id, PortParent, PortRef};
use std::collections::{BTreeMap, HashMap};

/// Read/write sets for every group in a component.
#[derive(Debug, Clone, Default)]
pub struct ReadWriteSets {
    regs: RegIndex,
    groups: HashMap<Id, Access>,
}

/// One group's register accesses.
#[derive(Debug, Clone)]
struct Access {
    reads: RegSet,
    must_writes: RegSet,
    may_writes: RegSet,
}

/// What a group that is not in the component touches: nothing.
static NONE: Access = Access {
    reads: RegSet::new(),
    must_writes: RegSet::new(),
    may_writes: RegSet::new(),
};

impl Analysis for ReadWriteSets {
    type Output = ReadWriteSets;
    const NAME: &'static str = "read-write-sets";

    fn compute(comp: &Component, _cache: &mut AnalysisCache) -> ReadWriteSets {
        ReadWriteSets::analyze(comp)
    }
}

impl ReadWriteSets {
    /// Analyze all groups of `comp`, considering only `std_reg` cells.
    pub fn analyze(comp: &Component) -> Self {
        let regs = RegIndex::new(comp);
        let groups = comp
            .groups
            .iter()
            .map(|group| (group.name, analyze_group(group, &regs)))
            .collect();
        ReadWriteSets { regs, groups }
    }

    /// The component's register numbering, which every set is over.
    pub fn regs(&self) -> &RegIndex {
        &self.regs
    }

    fn access(&self, group: Id) -> &Access {
        self.groups.get(&group).unwrap_or(&NONE)
    }

    /// Registers `group` may read.
    pub fn reads(&self, group: Id) -> &RegSet {
        &self.access(group).reads
    }

    /// Registers `group` certainly overwrites.
    pub fn must_writes(&self, group: Id) -> &RegSet {
        &self.access(group).must_writes
    }

    /// Registers `group` may write (superset of must-writes).
    pub fn may_writes(&self, group: Id) -> &RegSet {
        &self.access(group).may_writes
    }
}

fn reg_of(port: &PortRef, regs: &RegIndex) -> Option<usize> {
    match port.parent {
        PortParent::Cell(c) => regs.index(c),
        _ => None,
    }
}

fn analyze_group(group: &Group, regs: &RegIndex) -> Access {
    let mut reads = RegSet::new();
    let mut data_writes: BTreeMap<usize, bool> = BTreeMap::new(); // reg -> unconditional?
    let mut en_writes: BTreeMap<usize, bool> = BTreeMap::new();
    for asgn in &group.assignments {
        for p in asgn.reads_iter() {
            if let Some(r) = reg_of(&p, regs) {
                // Only `out` observes the register's *value*. Reading `done`
                // observes control state (the write handshake) and would
                // otherwise make every written register self-live-before its
                // write, inflating every live range by one group.
                if p.port.as_str() == "out" {
                    reads.insert(r);
                }
            }
        }
        if let Some(r) = reg_of(&asgn.dst, regs) {
            let unconditional = asgn.guard.is_true();
            match asgn.dst.port.as_str() {
                "in" => {
                    let e = data_writes.entry(r).or_insert(false);
                    *e = *e || unconditional;
                }
                "write_en" => {
                    // `write_en = 0` is not a write at all.
                    let enables = !matches!(asgn.src, Atom::Const { val: 0, .. });
                    if enables {
                        let e = en_writes.entry(r).or_insert(false);
                        *e = *e || unconditional;
                    }
                }
                _ => {}
            }
        }
    }
    let mut must_writes = RegSet::new();
    let mut may_writes = RegSet::new();
    // `write_en` driven without a data write still clobbers the register
    // (it latches whatever the undriven `in` reads as); only both driven
    // unconditionally is a certain overwrite.
    for (&r, &en_uncond) in &en_writes {
        may_writes.insert(r);
        if en_uncond && data_writes.get(&r) == Some(&true) {
            must_writes.insert(r);
        }
    }
    Access {
        reads,
        must_writes,
        may_writes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::parse_context;

    fn analyze(src: &str) -> (ReadWriteSets, crate::ir::Context) {
        let ctx = parse_context(src).unwrap();
        let rw = ReadWriteSets::analyze(ctx.component("main").unwrap());
        (rw, ctx)
    }

    /// The registers of `set`, in name order.
    fn names(rw: &ReadWriteSets, set: &RegSet) -> Vec<&'static str> {
        rw.regs().names(set).map(Id::as_str).collect()
    }

    #[test]
    fn unconditional_write_is_must() {
        let (rw, _) = analyze(
            r#"component main() -> () {
                cells { r = std_reg(8); }
                wires { group g { r.in = 8'd1; r.write_en = 1'd1; g[done] = r.done; } }
                control { g; }
            }"#,
        );
        let g = Id::new("g");
        assert_eq!(names(&rw, rw.must_writes(g)), ["r"]);
        assert_eq!(names(&rw, rw.may_writes(g)), ["r"]);
    }

    #[test]
    fn guarded_write_is_only_may() {
        let (rw, _) = analyze(
            r#"component main() -> () {
                cells { r = std_reg(8); c = std_lt(8); }
                wires {
                  group g {
                    r.in = 8'd1;
                    r.write_en = c.out ? 1'd1;
                    g[done] = r.done;
                  }
                }
                control { g; }
            }"#,
        );
        let g = Id::new("g");
        assert!(names(&rw, rw.must_writes(g)).is_empty());
        assert_eq!(names(&rw, rw.may_writes(g)), ["r"]);
    }

    #[test]
    fn reads_include_guards_and_sources() {
        let (rw, _) = analyze(
            r#"component main() -> () {
                cells { a = std_reg(8); b = std_reg(1); r = std_reg(8); }
                wires {
                  group g {
                    r.in = b.out ? a.out;
                    r.write_en = 1'd1;
                    g[done] = r.done;
                  }
                }
                control { g; }
            }"#,
        );
        assert_eq!(names(&rw, rw.reads(Id::new("g"))), ["a", "b"]);
    }

    #[test]
    fn non_registers_ignored() {
        let (rw, _) = analyze(
            r#"component main() -> () {
                cells { add = std_add(8); r = std_reg(8); }
                wires {
                  group g {
                    add.left = r.out; add.right = 8'd1;
                    r.in = add.out; r.write_en = 1'd1;
                    g[done] = r.done;
                  }
                }
                control { g; }
            }"#,
        );
        assert_eq!(names(&rw, rw.reads(Id::new("g"))), ["r"]);
    }

    #[test]
    fn write_en_zero_is_not_a_write() {
        let (rw, _) = analyze(
            r#"component main() -> () {
                cells { r = std_reg(8); }
                wires { group g { r.in = 8'd1; r.write_en = 1'd0; g[done] = 1'd1; } }
                control { g; }
            }"#,
        );
        assert!(names(&rw, rw.may_writes(Id::new("g"))).is_empty());
    }
}
