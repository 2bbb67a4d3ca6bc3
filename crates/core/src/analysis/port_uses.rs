//! Port-use sites: which assignments read and write each port.
//!
//! Several passes need "who touches what" facts over the whole wires
//! section — dead-cell removal needs every referenced cell, resource
//! sharing needs which groups use a cell and which cells the continuous
//! assignments pin, go-insertion needs each group's `done`-hole writers.
//! Before the [cache](super::cache), each pass re-walked every assignment
//! of every group to answer its own variant of the question; [`PortUses`]
//! answers all of them from one walk, built once per component generation.
//!
//! The site tables are stored as *flat sorted vectors* rather than
//! per-port maps: after lowering, a component's guards contain tens of
//! thousands of port reads, and building a `BTreeMap<PortRef, Vec<_>>`
//! (one allocation per port, string-comparing interned ids on every
//! insert) dominated the analysis. A bulk sort on the raw intern indices
//! followed by binary-searched range lookups is several times cheaper,
//! and is put off until the first lookup, which most consumers never make.

use super::cache::{Analysis, AnalysisCache};
use crate::ir::{Component, Id, PortParent, PortRef};
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
/// resource sharing) read only the cell digests beside the tables, and
/// after lowering a sort of every guard read is most of the analysis.
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

/// Read/write sites per port, plus the cell-level digests passes consume.
#[derive(Debug, Clone, Default)]
pub struct PortUses {
    reads: SiteTable,
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
    reads: SiteTable,
    writes: SiteTable,
    cell_users: HashMap<Id, Vec<Id>>,
    continuous_cells: HashSet<Id>,
    referenced_cells: HashSet<Id>,
}

impl Scan {
    fn record(&mut self, asgn: &crate::ir::Assignment, site: AssignmentSite, group: Option<Id>) {
        self.writes.scanned.push((asgn.dst, site));
        self.touch_cell(asgn.dst, group);
        for p in asgn.reads_iter() {
            self.reads.scanned.push((p, site));
            self.touch_cell(p, group);
        }
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
    /// Scan every assignment of `comp` once.
    pub fn analyze(comp: &Component) -> Self {
        let mut scan = Scan::default();
        for group in comp.groups.iter() {
            let owner = SiteOwner::Group(group.name);
            for (index, asgn) in group.assignments.iter().enumerate() {
                scan.record(asgn, AssignmentSite { owner, index }, Some(group.name));
            }
        }
        for (index, asgn) in comp.continuous.iter().enumerate() {
            let site = AssignmentSite {
                owner: SiteOwner::Continuous,
                index,
            };
            scan.record(asgn, site, None);
        }
        PortUses {
            reads: scan.reads,
            writes: scan.writes,
            cell_users: scan.cell_users.into_iter().collect(),
            continuous_cells: scan.continuous_cells.into_iter().collect(),
            referenced_cells: scan.referenced_cells.into_iter().collect(),
        }
    }

    /// Sites reading `port`, in scan order (groups in definition order,
    /// then continuous assignments).
    pub fn reads(&self, port: PortRef) -> impl ExactSizeIterator<Item = AssignmentSite> + '_ {
        self.reads.get(port).iter().map(|(_, s)| *s)
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
        // `a.out` is read once in g0 (r.in = a.out) and once continuously.
        let reads: Vec<_> = uses.reads(PortRef::cell("a", "out")).collect();
        assert_eq!(reads.len(), 2);
        assert!(reads.iter().any(|s| s.owner == g0));
        assert!(reads.iter().any(|s| s.owner == SiteOwner::Continuous));
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
        assert_eq!(uses.reads(PortRef::cell("nope", "out")).len(), 0);
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
        assert_eq!(uses.reads(PortRef::cell("c", "out")).len(), 1);
        assert!(uses.referenced_cells().contains(&Id::new("c")));
    }
}
