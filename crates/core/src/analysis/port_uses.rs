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
//! assignments reach into (see [`GuardPool`]): every question above is
//! about *which* ports and cells a group or the continuous section
//! mentions, never how often, so the walk enters a node once per owner —
//! a `Vec` by id holds the owner that last went through each node — and
//! the facts stay exact.

use super::cache::{Analysis, AnalysisCache};
use crate::ir::{Assignment, Atom, Component, GuardId, GuardPool, Id, PortRef};
use rustc_hash::{FxHashMap, FxHashSet};
use std::collections::BTreeMap;

/// The ports written and read, plus the cell-level digests passes consume.
#[derive(Debug, Clone, Default)]
pub struct PortUses {
    reads: FxHashSet<PortRef>,
    writes: FxHashSet<PortRef>,
    /// cell -> groups referencing it, in group definition order (first
    /// appearance), deduplicated.
    cell_users: BTreeMap<Id, Vec<Id>>,
    /// Cells referenced (read or written) by continuous assignments.
    continuous_cells: FxHashSet<Id>,
    /// Every cell referenced by any assignment anywhere.
    referenced_cells: FxHashSet<Id>,
}

/// Scan-time accumulator using hash containers (cheap `Id` hashing); the
/// cell → groups map is sorted by cell name once at the end, the sets are
/// only ever asked what they contain.
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
    /// section). `entered` holds, per guard node, the last owner whose
    /// walk went through it; this walk is `owner`'s.
    fn record(
        &mut self,
        asgn: &Assignment,
        group: Option<Id>,
        guards: &GuardPool,
        owner: u32,
        entered: &mut [u32],
        stack: &mut Vec<GuardId>,
    ) {
        self.writes.insert(asgn.dst);
        self.touch_cell(asgn.dst, group);
        if let Atom::Port(p) = asgn.src {
            self.read(p, group);
        }
        if asgn.guard.is_true() || entered[asgn.guard.index()] == owner {
            return;
        }
        entered[asgn.guard.index()] = owner;
        stack.push(asgn.guard);
        while let Some(id) = stack.pop() {
            let node = guards[id];
            for p in node.ports() {
                self.read(p, group);
            }
            for child in node.children() {
                if entered[child.index()] != owner {
                    entered[child.index()] = owner;
                    stack.push(child);
                }
            }
        }
    }

    fn read(&mut self, port: PortRef, group: Option<Id>) {
        self.reads.insert(port);
        self.touch_cell(port, group);
    }

    fn touch_cell(&mut self, port: PortRef, group: Option<Id>) {
        let Some(cell) = port.cell_parent() else {
            return;
        };
        let new_to_owner = match group {
            Some(g) => {
                let users = self.cell_users.entry(cell).or_default();
                // Groups are scanned in definition order, so a repeat can
                // only be the most recent entry.
                let new = users.last() != Some(&g);
                if new {
                    users.push(g);
                }
                new
            }
            None => self.continuous_cells.insert(cell),
        };
        // Every owner's first touch of a cell is recorded; the rest add
        // nothing.
        if new_to_owner {
            self.referenced_cells.insert(cell);
        }
    }
}

impl PortUses {
    /// Scan every assignment of `comp`, entering a guard node once per
    /// group and once for the continuous section.
    pub fn analyze(comp: &Component) -> Self {
        let mut scan = Scan::default();
        // Owners are numbered from 1: no walk has entered a node yet.
        let mut entered = vec![0; comp.guards.len()];
        let mut stack = Vec::new();
        let owners = comp
            .groups
            .iter()
            .map(|group| (Some(group.name), group.assignments.as_slice()))
            .chain([(None, comp.continuous.as_slice())]);
        for (owner, (group, asgns)) in (1..).zip(owners) {
            for asgn in asgns {
                scan.record(asgn, group, &comp.guards, owner, &mut entered, &mut stack);
            }
        }
        PortUses {
            reads: scan.reads,
            writes: scan.writes,
            cell_users: scan.cell_users.into_iter().collect(),
            continuous_cells: scan.continuous_cells,
            referenced_cells: scan.referenced_cells,
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
    pub fn continuous_cells(&self) -> &FxHashSet<Id> {
        &self.continuous_cells
    }

    /// Every cell referenced by any assignment (group or continuous).
    pub fn referenced_cells(&self) -> &FxHashSet<Id> {
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
        let mut cont: Vec<_> = uses.continuous_cells().iter().map(|c| c.as_str()).collect();
        cont.sort_unstable();
        assert_eq!(cont, vec!["a", "w"]);
        let mut all: Vec<_> = uses.referenced_cells().iter().map(|c| c.as_str()).collect();
        all.sort_unstable();
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
