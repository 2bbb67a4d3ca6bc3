//! Port uses: which assignments write each port, which ports are read,
//! and which cells each group touches.
//!
//! Several passes need "who touches what" facts over the whole wires
//! section — dead-cell removal needs every referenced cell, resource
//! sharing needs which groups use a cell and which cells the continuous
//! assignments pin, go-insertion needs each group's `done`-hole writers,
//! the `unused-port` lint needs to know whether anything reads a port.
//! [`PortUses`] answers all of them from one walk, built once per
//! component generation.
//!
//! After lowering, the guards of a component are a DAG that thousands of
//! assignments reach into (see [`Guard`]): every question above is about
//! *which* ports and cells a group or the continuous section mentions,
//! never how often, so the walk enters a shared sub-guard once per owner
//! and the facts stay exact. Reads are therefore a set of ports; writes —
//! one per assignment, outside any guard — keep their sites, in a flat
//! vector sorted by raw intern index on the first lookup, which most
//! consumers never make.

use super::cache::{Analysis, AnalysisCache};
use crate::ir::{Atom, Component, Guard, GuardMemo, Id, PortParent, PortRef};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::OnceLock;

/// Where an assignment lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SiteOwner {
    /// Inside the named group.
    Group(Id),
    /// In the component's continuous `wires` section.
    Continuous,
}

/// One assignment site: its owner plus its index in the owner's assignment
/// list (stable until the component is mutated, which invalidates the
/// analysis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct AssignmentSite {
    /// The group (or continuous section) holding the assignment.
    pub owner: SiteOwner,
    /// Index into the owner's assignment vector.
    pub index: usize,
}

/// Process-local sort key for grouping sites by port: raw intern indices,
/// never exposed (lookup tables only — iteration order is not observable).
fn port_key(p: &PortRef) -> (u8, u32, u32) {
    match p.parent {
        PortParent::Cell(c) => (0, c.raw(), p.port.raw()),
        PortParent::Group(g) => (1, g.raw(), p.port.raw()),
        PortParent::This => (2, 0, p.port.raw()),
    }
}

/// A flat multimap from port to sites: recorded in scan order, sorted by
/// [`port_key`] on the first lookup. Most consumers (dead-cell removal,
/// resource sharing) read only the cell digests beside the table.
#[derive(Debug, Clone, Default)]
struct SiteTable {
    scanned: Vec<(PortRef, AssignmentSite)>,
    sorted: OnceLock<Vec<(PortRef, AssignmentSite)>>,
}

impl SiteTable {
    fn get(&self, port: PortRef) -> &[(PortRef, AssignmentSite)] {
        // Stable sort groups equal ports while preserving scan order
        // within each port.
        let sorted = self.sorted.get_or_init(|| {
            let mut sites = self.scanned.clone();
            sites.sort_by_key(|(p, _)| port_key(p));
            sites
        });
        let key = port_key(&port);
        let lo = sorted.partition_point(|(p, _)| port_key(p) < key);
        let hi = sorted.partition_point(|(p, _)| port_key(p) <= key);
        &sorted[lo..hi]
    }
}

/// Write sites per port and the ports read, plus the cell-level digests
/// passes consume.
#[derive(Debug, Clone, Default)]
pub struct PortUses {
    reads: HashSet<PortRef>,
    writes: SiteTable,
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
    reads: HashSet<PortRef>,
    writes: SiteTable,
    cell_users: HashMap<Id, Vec<Id>>,
    continuous_cells: HashSet<Id>,
    referenced_cells: HashSet<Id>,
}

impl Scan {
    /// Record `asgn`, the assignment at `site` of `group` (`None` for the
    /// continuous section). `entered` holds the shared sub-guards this
    /// owner's earlier assignments went through.
    fn record(
        &mut self,
        asgn: &crate::ir::Assignment,
        site: AssignmentSite,
        group: Option<Id>,
        entered: &mut GuardMemo<()>,
    ) {
        self.writes.scanned.push((asgn.dst, site));
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
            let owner = SiteOwner::Group(group.name);
            entered.clear();
            for (index, asgn) in group.assignments.iter().enumerate() {
                let site = AssignmentSite { owner, index };
                scan.record(asgn, site, Some(group.name), &mut entered);
            }
        }
        entered.clear();
        for (index, asgn) in comp.continuous.iter().enumerate() {
            let site = AssignmentSite {
                owner: SiteOwner::Continuous,
                index,
            };
            scan.record(asgn, site, None, &mut entered);
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

    /// Sites writing `port`, in scan order.
    pub fn writes(&self, port: PortRef) -> impl ExactSizeIterator<Item = AssignmentSite> + '_ {
        self.writes.get(port).iter().map(|(_, s)| *s)
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
        let g0 = SiteOwner::Group(Id::new("g0"));
        assert!(uses.is_read(PortRef::cell("a", "out")));
        // `r.in` is written in both groups.
        let owners: Vec<_> = uses
            .writes(PortRef::cell("r", "in"))
            .map(|s| s.owner)
            .collect();
        assert_eq!(
            owners,
            vec![g0, SiteOwner::Group(Id::new("g1"))],
            "sites follow group definition order"
        );
        assert!(!uses.is_read(PortRef::cell("nope", "out")));
        assert!(!uses.is_read(PortRef::cell("r", "in")), "written only");
    }

    #[test]
    fn done_hole_writers_are_indexed() {
        let uses = analyzed(SRC);
        let sites: Vec<_> = uses.writes(PortRef::hole("g0", "done")).collect();
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].owner, SiteOwner::Group(Id::new("g0")));
        assert_eq!(sites[0].index, 4, "done write is g0's fifth assignment");
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
