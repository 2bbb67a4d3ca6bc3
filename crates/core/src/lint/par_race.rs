//! `par-race` (C0101): state written by groups that may run in parallel.
//!
//! The paper leaves simultaneous writes to one state element *undefined*:
//! `par` promises nothing about relative timing, so two arms touching the
//! same register or memory can interleave differently across backends (and
//! across optimization levels of the same backend). This is the flagship
//! check — the class of bug that motivated building `futil check`.

use super::diagnostic::{Diagnostic, Severity};
use super::registry::Lint;
use super::sink::DiagnosticSink;
use crate::analysis::{AnalysisCache, ParConflicts, ReadWriteSets};
use crate::ir::{Atom, Component, Context, Id};
use std::collections::{BTreeMap, BTreeSet};

/// Flags registers and memories touched by two groups a `par` may run
/// simultaneously: write/write races always, and write/read races (the
/// reader observes before-or-after nondeterministically).
#[derive(Default)]
pub struct ParRace;

impl Lint for ParRace {
    const NAME: &'static str = "par-race";
    const CODE: &'static str = "C0101";
    const DESCRIPTION: &'static str =
        "registers or memories touched by two groups that may run in parallel";
    const SEVERITY: Severity = Severity::Error;
    const EXPLANATION: &'static str = "\
Children of a `par` block execute concurrently with no ordering
guarantees. When two groups that may run in parallel touch the same
register or memory — and at least one of them writes it — the result
depends on scheduling: the value read, or even the final value stored,
differs between legal executions.

For example, `par { wa; wb; }` where both groups write register `r`
leaves `r` holding whichever write committed last.

Fix it by sequencing the conflicting groups (`seq`), splitting the
shared state into per-branch cells, or restricting each branch to
disjoint memory regions.";

    fn check(&self, ctx: &Context, cache: &mut AnalysisCache, sink: &mut DiagnosticSink) {
        for comp in ctx.components.iter() {
            check_component(ctx, comp, cache, sink);
        }
    }
}

/// Per-group memory accesses; [`ReadWriteSets`] only tracks `std_reg`, so
/// memories get their own (cheap) scan.
fn memory_accesses(comp: &Component) -> BTreeMap<Id, (BTreeSet<Id>, BTreeSet<Id>)> {
    let memories: BTreeSet<Id> = comp
        .cells
        .iter()
        .filter(|c| c.is_memory())
        .map(|c| c.name)
        .collect();
    let mut out = BTreeMap::new();
    for group in comp.groups.iter() {
        let mut reads = BTreeSet::new();
        let mut writes = BTreeSet::new();
        for asgn in &group.assignments {
            if let Some(c) = asgn.dst.cell_parent() {
                // `write_en = 0` disables the write and is not an access.
                let disabled =
                    asgn.dst.port == Id::WRITE_EN && matches!(asgn.src, Atom::Const { val: 0, .. });
                if memories.contains(&c) && asgn.dst.port == Id::WRITE_EN && !disabled {
                    writes.insert(c);
                }
            }
            for p in asgn.reads_iter(&comp.guards) {
                if let Some(c) = p.cell_parent() {
                    if memories.contains(&c) && p.port == Id::READ_DATA {
                        reads.insert(c);
                    }
                }
            }
        }
        out.insert(group.name, (reads, writes));
    }
    out
}

fn check_component(
    ctx: &Context,
    comp: &Component,
    cache: &mut AnalysisCache,
    sink: &mut DiagnosticSink,
) {
    let conflicts = cache.get::<ParConflicts>(comp);
    let rw = cache.get::<ReadWriteSets>(comp);
    let mems = memory_accesses(comp);
    let empty = (BTreeSet::new(), BTreeSet::new());
    let groups: Vec<Id> = conflicts.groups().collect();
    for (i, &a) in groups.iter().enumerate() {
        for &b in &groups[i + 1..] {
            if !conflicts.conflict(a, b) {
                continue;
            }
            let (_, a_mem_writes) = mems.get(&a).unwrap_or(&empty);
            let (_, b_mem_writes) = mems.get(&b).unwrap_or(&empty);
            // Write/write races, registers then memories.
            let regs = rw.regs();
            let ww: Vec<(Id, &str)> = regs
                .names(&rw.may_writes(a).intersection(rw.may_writes(b)))
                .map(|r| (r, "register"))
                .chain(
                    a_mem_writes
                        .intersection(b_mem_writes)
                        .map(|&m| (m, "memory")),
                )
                .collect();
            for &(cell, kind) in &ww {
                report(ctx, comp, sink, a, b, format!(
                    "groups `{a}` and `{b}` may run in the same `par` and both write {kind} `{cell}`"
                ));
            }
            // Write/read races (either direction), skipping cells already
            // reported as write/write.
            let raced: BTreeSet<Id> = ww.iter().map(|&(c, _)| c).collect();
            let mut wr = |writer: Id, reader: Id| {
                let (reader_mem_reads, _) = mems.get(&reader).unwrap_or(&empty);
                let cells: Vec<(Id, &str)> = regs
                    .names(&rw.may_writes(writer).intersection(rw.reads(reader)))
                    .map(|r| (r, "register"))
                    .chain(
                        if writer == a {
                            a_mem_writes
                        } else {
                            b_mem_writes
                        }
                        .intersection(reader_mem_reads)
                        .map(|&m| (m, "memory")),
                    )
                    .filter(|(c, _)| !raced.contains(c))
                    .collect();
                for (cell, kind) in cells {
                    report(
                        ctx,
                        comp,
                        sink,
                        a,
                        b,
                        format!(
                        "groups `{writer}` and `{reader}` may run in the same `par`; `{writer}` \
                         writes {kind} `{cell}` while `{reader}` reads it"
                    ),
                    );
                }
            };
            wr(a, b);
            wr(b, a);
        }
    }
}

fn report(ctx: &Context, comp: &Component, sink: &mut DiagnosticSink, a: Id, b: Id, msg: String) {
    let mut d = Diagnostic::new(ParRace::SEVERITY, ParRace::CODE, ParRace::NAME, msg)
        .at(ctx.sources.group(comp.name, a))
        .note("simultaneous accesses to one state element have undefined order in Calyx");
    if let Some(loc) = ctx.sources.group(comp.name, b) {
        d = d.note(format!("`{b}` is declared at line {}", loc.line));
    }
    sink.push(d);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::parse_context;

    fn check(src: &str) -> DiagnosticSink {
        let ctx = parse_context(src).unwrap();
        let mut sink = DiagnosticSink::new();
        ParRace.check(&ctx, &mut AnalysisCache::new(), &mut sink);
        sink
    }

    #[test]
    fn parallel_register_writes_race() {
        let sink = check(
            r#"component main() -> () {
                cells { r = std_reg(8); }
                wires {
                  group wa { r.in = 8'd1; r.write_en = 1'd1; wa[done] = r.done; }
                  group wb { r.in = 8'd2; r.write_en = 1'd1; wb[done] = r.done; }
                }
                control { par { wa; wb; } }
            }"#,
        );
        assert_eq!(sink.errors(), 1, "{:?}", sink.diagnostics());
        let d = &sink.diagnostics()[0];
        assert!(
            d.message.contains("both write register `r`"),
            "{}",
            d.message
        );
        assert!(d.loc.is_some(), "race carries the group's source position");
        assert!(d.notes.iter().any(|n| n.contains("undefined")));
    }

    #[test]
    fn write_read_races_too() {
        let sink = check(
            r#"component main() -> () {
                cells { r = std_reg(8); s = std_reg(8); }
                wires {
                  group wr { r.in = 8'd1; r.write_en = 1'd1; wr[done] = r.done; }
                  group rd { s.in = r.out; s.write_en = 1'd1; rd[done] = s.done; }
                }
                control { par { wr; rd; } }
            }"#,
        );
        assert_eq!(sink.errors(), 1, "{:?}", sink.diagnostics());
        assert!(
            sink.diagnostics()[0]
                .message
                .contains("while `rd` reads it"),
            "{}",
            sink.diagnostics()[0].message
        );
    }

    #[test]
    fn memory_writes_race() {
        let sink = check(
            r#"component main() -> () {
                cells { m = std_mem_d1(8, 4, 2); }
                wires {
                  group wa { m.addr0 = 2'd0; m.write_data = 8'd1; m.write_en = 1'd1; wa[done] = m.done; }
                  group wb { m.addr0 = 2'd1; m.write_data = 8'd2; m.write_en = 1'd1; wb[done] = m.done; }
                }
                control { par { wa; wb; } }
            }"#,
        );
        assert_eq!(sink.errors(), 1, "{:?}", sink.diagnostics());
        assert!(
            sink.diagnostics()[0].message.contains("memory `m`"),
            "{}",
            sink.diagnostics()[0].message
        );
    }

    #[test]
    fn sequenced_groups_do_not_race() {
        let sink = check(
            r#"component main() -> () {
                cells { r = std_reg(8); }
                wires {
                  group wa { r.in = 8'd1; r.write_en = 1'd1; wa[done] = r.done; }
                  group wb { r.in = 8'd2; r.write_en = 1'd1; wb[done] = r.done; }
                }
                control { seq { wa; wb; } }
            }"#,
        );
        assert!(sink.is_empty(), "{:?}", sink.diagnostics());
    }

    #[test]
    fn parallel_reads_are_fine() {
        let sink = check(
            r#"component main() -> () {
                cells { r = std_reg(8); a = std_reg(8); b = std_reg(8); }
                wires {
                  group ra { a.in = r.out; a.write_en = 1'd1; ra[done] = a.done; }
                  group rb { b.in = r.out; b.write_en = 1'd1; rb[done] = b.done; }
                }
                control { par { ra; rb; } }
            }"#,
        );
        assert!(sink.is_empty(), "{:?}", sink.diagnostics());
    }
}
