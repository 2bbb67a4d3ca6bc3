//! `uninit-read` (C0105): register reads only the power-on value reaches.
//!
//! Backed by the [`ReachingDefs`] dataflow analysis: every register gets a
//! synthetic *entry* definition (its undefined power-on value) and every
//! write gens a def site. A group that reads a register whose *only*
//! reaching definition is the entry def observes garbage on every path —
//! no write, conditional or not, can have happened first.
//!
//! This is deliberately a *must* lint. Reporting the may-variant ("some
//! path avoids every write") flags the bread-and-butter accumulator
//! idiom — a register first written inside the loop that reads it —
//! because path-insensitive dataflow cannot see that a loop body runs at
//! least once. An error-severity lint reports only what is certainly
//! wrong. Memories are exempt either way: reading memory contents the
//! schedule never wrote is how external input arrives.

use super::diagnostic::{Diagnostic, Severity};
use super::registry::Lint;
use super::sink::DiagnosticSink;
use crate::analysis::{AnalysisCache, ReachingDefs, ReadWriteSets};
use crate::ir::{Component, Context, Id, PortParent};

/// Flags register reads that always observe the undefined power-on value.
#[derive(Default)]
pub struct UninitRead;

impl Lint for UninitRead {
    const NAME: &'static str = "uninit-read";
    const CODE: &'static str = "C0105";
    const DESCRIPTION: &'static str =
        "register reads that always observe the undefined power-on value";
    const SEVERITY: Severity = Severity::Error;
    const EXPLANATION: &'static str = "\
A register's value before its first write is undefined: hardware powers
on with arbitrary bits. This lint runs a reaching-definitions dataflow
over the parallel control-flow graph, seeding every register with a
synthetic \"entry\" definition that writes kill or shadow. A group is
flagged when it reads a register whose only reaching definition is that
entry def — no write, on any path, can have executed first — so the
read observes garbage in every execution.

For example, `seq { read; init; }` flags the read in `read`: `init`
writes the register only after it was already read.

Fix it by writing the register before the first read, typically with an
unconditional init group at the start of the schedule.

The lint is deliberately conservative: a read is not flagged when any
write — even one behind a condition or inside the loop being
controlled — can reach it, so accumulator idioms stay clean. Memories
are exempt entirely: reading addresses the schedule never wrote is how
external input reaches a kernel.";

    fn check(&self, ctx: &Context, cache: &mut AnalysisCache, sink: &mut DiagnosticSink) {
        for comp in ctx.components.iter() {
            let defs = cache.get::<ReachingDefs>(comp);
            let rw = cache.get::<ReadWriteSets>(comp);
            for group in comp.groups.iter() {
                // Never-enabled groups have no reaching facts; they are
                // the `dead-group` lint's finding, not ours.
                if defs.reaching_in(group.name).is_none() {
                    continue;
                }
                for r in rw.regs().names(rw.reads(group.name)) {
                    if defs.entry_reaches(group.name, r)
                        && defs.group_defs_reaching(group.name, r).is_empty()
                    {
                        report(ctx, comp, sink, group.name, r);
                    }
                }
            }
        }
    }
}

fn report(ctx: &Context, comp: &Component, sink: &mut DiagnosticSink, group: Id, reg: Id) {
    let read_site = comp.groups.get(group).and_then(|g| {
        g.assignments.iter().position(|a| {
            a.reads_iter(&comp.guards)
                .any(|p| p.parent == PortParent::Cell(reg) && p.port == Id::OUT)
        })
    });
    let loc = read_site
        .and_then(|idx| ctx.sources.assignment(comp.name, Some(group), idx))
        .or_else(|| ctx.sources.group(comp.name, group));
    sink.push(
        Diagnostic::new(
            UninitRead::SEVERITY,
            UninitRead::CODE,
            UninitRead::NAME,
            format!("group `{group}` reads `{reg}` before any write can reach it"),
        )
        .at(loc)
        .note(format!(
            "`{reg}` powers on with an undefined value; every path reads it unwritten here"
        )),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::parse_context;

    fn check(src: &str) -> DiagnosticSink {
        let ctx = parse_context(src).unwrap();
        let mut sink = DiagnosticSink::new();
        UninitRead.check(&ctx, &mut AnalysisCache::new(), &mut sink);
        sink
    }

    const CELLS: &str = "c = std_reg(1); r = std_reg(8); t = std_reg(8);";
    const GROUPS: &str = r#"
        group init { r.in = 8'd1; r.write_en = 1'd1; init[done] = r.done; }
        group read { t.in = r.out; t.write_en = 1'd1; read[done] = t.done; }
    "#;

    #[test]
    fn read_before_any_write_errors() {
        let sink = check(&format!(
            r#"component main() -> () {{
                cells {{ {CELLS} }}
                wires {{ {GROUPS} }}
                control {{ seq {{ read; init; }} }}
            }}"#
        ));
        assert_eq!(sink.errors(), 1, "{:?}", sink.diagnostics());
        let d = &sink.diagnostics()[0];
        assert!(d.message.contains("`read` reads `r`"), "{}", d.message);
    }

    #[test]
    fn never_written_register_errors() {
        let sink = check(&format!(
            r#"component main() -> () {{
                cells {{ {CELLS} }}
                wires {{
                  group read {{ t.in = r.out; t.write_en = 1'd1; read[done] = t.done; }}
                }}
                control {{ read; }}
            }}"#
        ));
        assert_eq!(sink.errors(), 1, "{:?}", sink.diagnostics());
    }

    #[test]
    fn unconditional_init_is_clean() {
        let sink = check(&format!(
            r#"component main() -> () {{
                cells {{ {CELLS} }}
                wires {{ {GROUPS} }}
                control {{ seq {{ init; read; }} }}
            }}"#
        ));
        assert!(sink.is_empty(), "{:?}", sink.diagnostics());
    }

    #[test]
    fn conditional_init_is_accepted() {
        // The else path reads garbage, but one path is initialized — the
        // must-style lint stays quiet rather than flag real accumulator
        // and loop-init idioms it cannot distinguish from this.
        let sink = check(&format!(
            r#"component main() -> () {{
                cells {{ {CELLS} }}
                wires {{ {GROUPS} }}
                control {{ seq {{ init; if c.out {{ init; }} read; }} }}
            }}"#
        ));
        assert!(sink.is_empty(), "{:?}", sink.diagnostics());
    }

    #[test]
    fn loop_accumulator_is_clean() {
        // `accum` reads and writes `acc`: its own def flows around the
        // back edge, so the read is not *definitely* uninitialized.
        let sink = check(
            r#"component main() -> () {
                cells { lt = std_lt(8); acc = std_reg(8); add = std_add(8); }
                wires {
                  group cond { lt.left = acc.out; lt.right = 8'd10; cond[done] = 1'd1; }
                  group accum {
                    add.left = acc.out; add.right = 8'd1;
                    acc.in = add.out; acc.write_en = 1'd1;
                    accum[done] = acc.done;
                  }
                }
                control { while lt.out with cond { accum; } }
            }"#,
        );
        assert!(sink.is_empty(), "{:?}", sink.diagnostics());
    }

    #[test]
    fn par_sibling_init_is_clean() {
        let sink = check(&format!(
            r#"component main() -> () {{
                cells {{ {CELLS} }}
                wires {{ {GROUPS} }}
                control {{ seq {{ par {{ init; }} read; }} }}
            }}"#
        ));
        assert!(sink.is_empty(), "{:?}", sink.diagnostics());
    }

    #[test]
    fn memory_reads_are_exempt() {
        let sink = check(
            r#"component main() -> () {
                cells { m = std_mem_d1(8, 4, 2); t = std_reg(8); }
                wires {
                  group load {
                    m.addr0 = 2'd0;
                    t.in = m.read_data; t.write_en = 1'd1;
                    load[done] = t.done;
                  }
                }
                control { load; }
            }"#,
        );
        assert!(sink.is_empty(), "{:?}", sink.diagnostics());
    }
}
