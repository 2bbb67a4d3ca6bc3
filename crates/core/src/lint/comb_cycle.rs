//! `comb-cycle` (C0102): combinational feedback loops.
//!
//! A cycle through combinational logic (wires, adders, comparators — any
//! primitive that settles within a cycle) has no stable value: simulators
//! oscillate or X-out and synthesis rejects the netlist. Registers and
//! other sequential cells break cycles, so only paths entirely through
//! combinational primitives are flagged.

use super::diagnostic::{Diagnostic, Severity};
use super::registry::Lint;
use super::sink::DiagnosticSink;
use crate::analysis::AnalysisCache;
use crate::ir::{
    Assignment, Cell, CellType, Component, Context, Direction, GuardPool, Id, PortRef,
};
use std::collections::{BTreeMap, BTreeSet};

/// Finds combinational cycles per *activation scope*: the continuous
/// assignments alone, then the continuous assignments plus each group
/// (a group's wires are only active while it runs, so a cycle can be
/// closed by a group even when the continuous section is acyclic).
#[derive(Default)]
pub struct CombCycle;

impl Lint for CombCycle {
    const NAME: &'static str = "comb-cycle";
    const CODE: &'static str = "C0102";
    const DESCRIPTION: &'static str = "combinational feedback loops (no register on a cycle)";
    const SEVERITY: Severity = Severity::Error;
    const EXPLANATION: &'static str = "\
A combinational cycle is a feedback loop with no register on it: a
port's value depends, through combinational primitives and assignments
alone, on itself. In hardware this is an oscillator or a latch, not a
stable circuit; simulators either refuse it or loop forever.

For example, `a.in = b.out; b.in = a.out;` over two `std_wire`s closes a
two-node cycle.

Fix it by breaking the loop with a register (`std_reg`) so the value
crosses a clock edge, or by restructuring the logic so data flows one
way.";

    fn check(&self, ctx: &Context, _cache: &mut AnalysisCache, sink: &mut DiagnosticSink) {
        for comp in ctx.components.iter() {
            check_component(ctx, comp, sink);
        }
    }
}

/// Port-level dependency edges, restricted to cell ports (component
/// signature ports and group holes cannot close a cycle inside one
/// component).
type Graph = BTreeMap<PortRef, BTreeSet<PortRef>>;

fn is_comb_cell(ctx: &Context, cell: &Cell) -> bool {
    match &cell.prototype {
        CellType::Primitive { name, .. } => ctx.lib.get(*name).is_some_and(|p| p.is_comb()),
        // Component instances have a registered `done` and never settle
        // combinationally; treat them as sequential.
        CellType::Component { .. } => false,
    }
}

/// Input→output edges through combinational primitives — present in every
/// scope, since they are properties of the cell, not of any assignment.
fn through_cell_edges(ctx: &Context, comp: &Component) -> Graph {
    let mut g = Graph::new();
    for cell in comp.cells.iter() {
        if !is_comb_cell(ctx, cell) {
            continue;
        }
        for input in &cell.ports {
            if input.direction != Direction::Input {
                continue;
            }
            for output in &cell.ports {
                if output.direction == Direction::Output {
                    g.entry(PortRef::cell(cell.name, input.name))
                        .or_default()
                        .insert(PortRef::cell(cell.name, output.name));
                }
            }
        }
    }
    g
}

fn add_assignment_edges(g: &mut Graph, asgns: &[Assignment], guards: &GuardPool) {
    for asgn in asgns {
        if asgn.dst.cell_parent().is_none() {
            continue;
        }
        for read in asgn.reads_iter(guards) {
            if read.cell_parent().is_some() {
                g.entry(read).or_default().insert(asgn.dst);
            }
        }
    }
}

/// First cycle reachable in `g`, as the list of ports around the loop
/// (rotated so the smallest port leads, giving a canonical form for
/// deduplication across scopes).
fn find_cycle(g: &Graph) -> Option<Vec<PortRef>> {
    // 3-color DFS: 0 unvisited, 1 on the current path, 2 done.
    let mut color: BTreeMap<PortRef, u8> = BTreeMap::new();
    let mut path: Vec<PortRef> = Vec::new();
    fn dfs(
        g: &Graph,
        node: PortRef,
        color: &mut BTreeMap<PortRef, u8>,
        path: &mut Vec<PortRef>,
    ) -> Option<Vec<PortRef>> {
        color.insert(node, 1);
        path.push(node);
        for &next in g.get(&node).into_iter().flatten() {
            match color.get(&next).copied().unwrap_or(0) {
                0 => {
                    if let Some(c) = dfs(g, next, color, path) {
                        return Some(c);
                    }
                }
                1 => {
                    let start = path.iter().position(|&p| p == next).expect("on path");
                    let mut cycle = path[start..].to_vec();
                    let min = (0..cycle.len())
                        .min_by_key(|&i| cycle[i])
                        .expect("nonempty");
                    cycle.rotate_left(min);
                    return Some(cycle);
                }
                _ => {}
            }
        }
        path.pop();
        color.insert(node, 2);
        None
    }
    for &node in g.keys() {
        if color.get(&node).copied().unwrap_or(0) == 0 {
            if let Some(c) = dfs(g, node, &mut color, &mut path) {
                return Some(c);
            }
        }
    }
    None
}

fn check_component(ctx: &Context, comp: &Component, sink: &mut DiagnosticSink) {
    let base = {
        let mut g = through_cell_edges(ctx, comp);
        add_assignment_edges(&mut g, &comp.continuous, &comp.guards);
        g
    };
    let mut seen: BTreeSet<Vec<PortRef>> = BTreeSet::new();
    let mut scopes: Vec<(Option<Id>, Graph)> = vec![(None, base.clone())];
    for group in comp.groups.iter() {
        let mut g = base.clone();
        add_assignment_edges(&mut g, &group.assignments, &comp.guards);
        scopes.push((Some(group.name), g));
    }
    for (scope, graph) in scopes {
        let Some(cycle) = find_cycle(&graph) else {
            continue;
        };
        // A continuous-section cycle shows up again in every group scope;
        // the canonical rotation dedups it to one report.
        if !seen.insert(cycle.clone()) {
            continue;
        }
        let mut around: Vec<String> = cycle.iter().map(|p| format!("`{p}`")).collect();
        around.push(around[0].clone());
        let where_ = match scope {
            None => "in the continuous assignments".to_string(),
            Some(g) => format!("while group `{g}` is active"),
        };
        let loc = cycle
            .first()
            .and_then(|p| p.cell_parent())
            .and_then(|c| ctx.sources.cell(comp.name, c));
        sink.push(
            Diagnostic::new(
                CombCycle::SEVERITY,
                CombCycle::CODE,
                CombCycle::NAME,
                format!("combinational cycle {where_}: {}", around.join(" -> ")),
            )
            .at(loc)
            .note("every feedback loop needs a register or other sequential cell to break it"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::parse_context;

    fn check(src: &str) -> DiagnosticSink {
        let ctx = parse_context(src).unwrap();
        let mut sink = DiagnosticSink::new();
        CombCycle.check(&ctx, &mut AnalysisCache::new(), &mut sink);
        sink
    }

    #[test]
    fn continuous_wire_loop_is_reported_once() {
        let sink = check(
            r#"component main() -> () {
                cells { w1 = std_wire(8); w2 = std_wire(8); r = std_reg(8); }
                wires {
                  w1.in = w2.out;
                  w2.in = w1.out;
                  group g { r.in = w1.out; r.write_en = 1'd1; g[done] = r.done; }
                }
                control { g; }
            }"#,
        );
        assert_eq!(sink.errors(), 1, "{:?}", sink.diagnostics());
        let d = &sink.diagnostics()[0];
        assert!(d.message.contains("continuous"), "{}", d.message);
        assert!(d.message.contains("`w1.in`"), "{}", d.message);
        assert!(d.message.contains("`w2.out`"), "{}", d.message);
    }

    #[test]
    fn group_can_close_a_cycle() {
        let sink = check(
            r#"component main() -> () {
                cells { a = std_add(8); w = std_wire(8); }
                wires {
                  w.in = a.out;
                  group g { a.left = w.out; a.right = 8'd1; g[done] = 1'd1; }
                }
                control { g; }
            }"#,
        );
        assert_eq!(sink.errors(), 1, "{:?}", sink.diagnostics());
        assert!(
            sink.diagnostics()[0]
                .message
                .contains("while group `g` is active"),
            "{}",
            sink.diagnostics()[0].message
        );
    }

    #[test]
    fn register_breaks_the_cycle() {
        let sink = check(
            r#"component main() -> () {
                cells { a = std_add(8); r = std_reg(8); }
                wires {
                  a.left = r.out;
                  a.right = 8'd1;
                  group g { r.in = a.out; r.write_en = 1'd1; g[done] = r.done; }
                }
                control { g; }
            }"#,
        );
        assert!(sink.is_empty(), "{:?}", sink.diagnostics());
    }

    #[test]
    fn self_loop_on_one_port() {
        let sink = check(
            r#"component main() -> () {
                cells { w = std_wire(8); }
                wires { w.in = w.out; }
                control { }
            }"#,
        );
        assert_eq!(sink.errors(), 1, "{:?}", sink.diagnostics());
    }
}
