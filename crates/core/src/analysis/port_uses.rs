//! Port uses: which ports are written and read, and which cells each
//! group touches.
//!
//! Several passes need "who touches what" facts over the whole wires
//! section — dead-cell removal needs every referenced cell, resource
//! sharing needs which groups use a cell and which cells the continuous
//! assignments pin, the `unused-port` lint needs to know whether anything
//! reads or writes a port. [`PortUses`] answers all of them from one
//! walk, built once per component generation.
//!
//! After lowering, the guards of a component are a DAG that thousands of
//! assignments reach into (see [`Guard`]): every question above is about
//! *which* ports and cells a group or the continuous section mentions,
//! never how often, so the walk enters a shared sub-guard once per owner
//! and the facts stay exact.

use super::cache::{Analysis, AnalysisCache};
use crate::ir::{Atom, Component, Guard, GuardMemo, Id, PortRef};
use rustc_hash::{FxHashMap, FxHashSet};
use std::collections::{BTreeMap, BTreeSet};

/// The ports written and read, plus the cell-level digests passes consume.
#[derive(Debug, Clone, Default)]
pub struct PortUses {
    reads: FxHashSet<PortRef>,
    writes: FxHashSet<PortRef>,
    /// cell -> groups referencing it, in group definition order (first
    /// appearance), deduplicated.
    cell_users: BTreeMap<Id, Vec<Id>>,
    /// Cells referenced (read or written) by continuous assignments.
    continuous_cells: BTreeSet<Id>,
    /// Every cell referenced by any assignment anywhere.
    referenced_cells: BTreeSet<Id>,
}

/// Scan-time accumulator using hash containers (cheap `Id` hashing);
/// converted to deterministic sorted structures once at the end.
#[derive(Default)]
struct Scan {
    reads: FxHashSet<PortRef>,
    writes: FxHashSet<PortRef>,
    cell_users: FxHashMap<Id, Vec<Id>>,
    continuous_cells: FxHashSet<Id>,
    referenced_cells: FxHashSet<Id>,
}

impl Scan {
    /// Record `asgn`, an assignment of `group` (`None` for the continuous
    /// section). `entered` holds the shared sub-guards this owner's earlier
    /// assignments went through.
    fn record(
        &mut self,
        asgn: &crate::ir::Assignment,
        group: Option<Id>,
        entered: &mut GuardMemo<()>,
    ) {
        self.writes.insert(asgn.dst);
        self.touch_cell(asgn.dst, group);
        if let Atom::Port(p) = asgn.src {
            self.read(p, group);
        }
        asgn.guard.visit_once(entered, &mut |node| match node {
            Guard::Port(p) => self.read(*p, group),
            Guard::Comp(_, l, r) => {
                for p in [l, r].into_iter().filter_map(Atom::port) {
                    self.read(*p, group);
                }
            }
            _ => {}
        });
    }

    fn read(&mut self, port: PortRef, group: Option<Id>) {
        self.reads.insert(port);
        self.touch_cell(port, group);
    }

    fn touch_cell(&mut self, port: PortRef, group: Option<Id>) {
        let Some(cell) = port.cell_parent() else {
            return;
        };
        self.referenced_cells.insert(cell);
        match group {
            Some(g) => {
                let users = self.cell_users.entry(cell).or_default();
                // Groups are scanned in definition order, so a repeat can
                // only be the most recent entry.
                if users.last() != Some(&g) {
                    users.push(g);
                }
            }
            None => {
                self.continuous_cells.insert(cell);
            }
        }
    }
}

impl PortUses {
    /// Scan every assignment of `comp`, entering a shared sub-guard once
    /// per group and once for the continuous section.
    pub fn analyze(comp: &Component) -> Self {
        let mut scan = Scan::default();
        let mut entered = GuardMemo::default();
        for group in comp.groups.iter() {
            entered.clear();
            for asgn in &group.assignments {
                scan.record(asgn, Some(group.name), &mut entered);
            }
        }
        entered.clear();
        for asgn in &comp.continuous {
            scan.record(asgn, None, &mut entered);
        }
        PortUses {
            reads: scan.reads,
            writes: scan.writes,
            cell_users: scan.cell_users.into_iter().collect(),
            continuous_cells: scan.continuous_cells.into_iter().collect(),
            referenced_cells: scan.referenced_cells.into_iter().collect(),
        }
    }

    /// Does any assignment read `port`, as its source or in its guard?
    pub fn is_read(&self, port: PortRef) -> bool {
        self.reads.contains(&port)
    }

    /// Does any assignment write `port`?
    pub fn is_written(&self, port: PortRef) -> bool {
        self.writes.contains(&port)
    }

    /// Groups referencing `cell`, in group definition order.
    pub fn cell_users(&self, cell: Id) -> &[Id] {
        self.cell_users.get(&cell).map_or(&[], Vec::as_slice)
    }

    /// All (cell, using groups) pairs, cells in name order.
    pub fn cells_with_users(&self) -> impl Iterator<Item = (Id, &[Id])> + '_ {
        self.cell_users.iter().map(|(c, gs)| (*c, gs.as_slice()))
    }

    /// Cells referenced by continuous assignments (reads or writes).
    pub fn continuous_cells(&self) -> &BTreeSet<Id> {
        &self.continuous_cells
    }

    /// Every cell referenced by any assignment (group or continuous).
    pub fn referenced_cells(&self) -> &BTreeSet<Id> {
        &self.referenced_cells
    }
}

impl Analysis for PortUses {
    type Output = PortUses;
    const NAME: &'static str = "port-uses";

    fn compute(comp: &Component, _cache: &mut AnalysisCache) -> PortUses {
        PortUses::analyze(comp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::parse_context;

    fn analyzed(src: &str) -> PortUses {
        let ctx = parse_context(src).unwrap();
        PortUses::analyze(ctx.component("main").unwrap())
    }

    const SRC: &str = r#"component main() -> (o: 8) {
        cells { r = std_reg(8); a = std_add(8); w = std_wire(8); }
        wires {
          o = w.out;
          w.in = a.out;
          group g0 {
            a.left = r.out; a.right = 8'd1;
            r.in = a.out; r.write_en = 1'd1;
            g0[done] = r.done;
          }
          group g1 { r.in = 8'd0; r.write_en = 1'd1; g1[done] = r.done; }
        }
        control { seq { g0; g1; } }
    }"#;

    #[test]
    fn records_read_and_write_sites() {
        let uses = analyzed(SRC);
        assert!(uses.is_read(PortRef::cell("a", "out")));
        assert!(uses.is_written(PortRef::cell("r", "in")));
        assert!(uses.is_written(PortRef::this(Id::new("o"))));
        assert!(uses.is_written(PortRef::hole("g0", "done")));
        assert!(!uses.is_written(PortRef::hole("g0", "go")));
        assert!(!uses.is_written(PortRef::cell("a", "out")), "read only");
        assert!(!uses.is_read(PortRef::cell("nope", "out")));
        assert!(!uses.is_read(PortRef::cell("r", "in")), "written only");
    }

    #[test]
    fn cell_digests() {
        let uses = analyzed(SRC);
        assert_eq!(
            uses.cell_users(Id::new("r")),
            &[Id::new("g0"), Id::new("g1")]
        );
        assert_eq!(uses.cell_users(Id::new("a")), &[Id::new("g0")]);
        let cont: Vec<_> = uses.continuous_cells().iter().map(|c| c.as_str()).collect();
        assert_eq!(cont, vec!["a", "w"]);
        let all: Vec<_> = uses.referenced_cells().iter().map(|c| c.as_str()).collect();
        assert_eq!(all, vec!["a", "r", "w"]);
    }

    #[test]
    fn guard_reads_are_recorded() {
        let uses = analyzed(
            r#"component main() -> () {
                cells { r = std_reg(8); c = std_lt(8); }
                wires {
                  group g {
                    r.in = c.out ? 8'd1;
                    r.write_en = 1'd1;
                    g[done] = r.done;
                  }
                }
                control { g; }
            }"#,
        );
        assert!(uses.is_read(PortRef::cell("c", "out")));
        assert!(uses.referenced_cells().contains(&Id::new("c")));
    }
}
