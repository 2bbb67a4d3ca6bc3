//! `dead-write` (C0205): register writes no later read can observe.
//!
//! Backed by the liveness instance of the dataflow engine: a group's
//! write to a register is dead when the register is not live-out at *any*
//! occurrence of the group in the schedule — every path onward either
//! overwrites the value or reaches the end without reading it (registers
//! observable outside the schedule are live at exit, so writes feeding
//! the outside world are never flagged).
//!
//! Dead writes of *literal constants* are exempt: `acc := 0` ahead of a
//! loop whose first iteration overwrites it is the defensive
//! initialization idiom frontends emit routinely (the Dahlia-compiled
//! PolyBench kernels are full of it). Only dead writes of computed
//! values — actual lost work — are reported.

use super::diagnostic::{Diagnostic, Severity};
use super::registry::Lint;
use super::sink::DiagnosticSink;
use crate::analysis::pcfg::{Pcfg, PcfgNode};
use crate::analysis::{AnalysisCache, Liveness, ReadWriteSets};
use crate::ir::{Atom, Component, Context, Id, PortParent};
use std::collections::BTreeMap;

/// Flags register writes whose value is overwritten or never read.
#[derive(Default)]
pub struct DeadWrite;

impl Lint for DeadWrite {
    const NAME: &'static str = "dead-write";
    const CODE: &'static str = "C0205";
    const DESCRIPTION: &'static str =
        "register writes that are overwritten or never read afterwards";
    const SEVERITY: Severity = Severity::Warning;
    const EXPLANATION: &'static str = "\
A register write is dead when no execution can observe the value: on
every path from the write, the register is either overwritten before the
next read or the schedule ends without reading it. This lint solves the
backward liveness dataflow over the parallel control-flow graph and
reports groups writing a register that is live-out at none of the
group's occurrences in the schedule.

For example, in `seq { first; second; store; }` where both `first` and
`second` write `r` and only `store` reads it, the write in `first` is
dead: `second` always clobbers it.

Fix it by deleting the write (and the group, if that empties it) or by
reordering the schedule so the intended reader runs before the
overwrite. Registers observable outside the schedule — feeding
continuous assignments or control conditions — are live at exit and
never flagged.

Dead writes of literal constants are exempt: initializing `acc := 0`
ahead of a loop whose first iteration overwrites it is a defensive
idiom frontends emit routinely, and flagging it buries the signal. A
dead write of a *computed* value, by contrast, means real work was
spent producing a value no execution observes.";

    fn check(&self, ctx: &Context, cache: &mut AnalysisCache, sink: &mut DiagnosticSink) {
        for comp in ctx.components.iter() {
            let pcfg = cache.get::<Pcfg>(comp);
            let rw = cache.get::<ReadWriteSets>(comp);
            let live = cache.get::<Liveness>(comp);
            // (group, register) → dead at every occurrence so far, over
            // the group nodes of every nested sub-pCFG.
            let mut dead: BTreeMap<(Id, Id), bool> = BTreeMap::new();
            live.walk(&pcfg, &mut |pcfg, live| {
                for (node, live_out) in pcfg.nodes.iter().zip(&live.output) {
                    let PcfgNode::Group(g) = node else { continue };
                    for r in rw.may_writes(*g).iter() {
                        let dead_here = !live_out.contains(r);
                        dead.entry((*g, rw.regs().name(r)))
                            .and_modify(|d| *d = *d && dead_here)
                            .or_insert(dead_here);
                    }
                }
            });
            for ((group, reg), all_dead) in dead {
                if all_dead && !is_const_init(comp, group, reg) {
                    report(ctx, comp, sink, group, reg);
                }
            }
        }
    }
}

/// The defensive-initialization exemption: every in-group driver of
/// `reg.in` is a literal constant.
fn is_const_init(comp: &Component, group: Id, reg: Id) -> bool {
    let Some(g) = comp.groups.get(group) else {
        return false;
    };
    let mut any = false;
    for a in &g.assignments {
        if a.dst.parent == PortParent::Cell(reg) && a.dst.port.as_str() == "in" {
            any = true;
            if !matches!(a.src, Atom::Const { .. }) {
                return false;
            }
        }
    }
    any
}

fn report(ctx: &Context, comp: &Component, sink: &mut DiagnosticSink, group: Id, reg: Id) {
    let write_site = comp.groups.get(group).and_then(|g| {
        g.assignments
            .iter()
            .position(|a| a.dst.parent == PortParent::Cell(reg) && a.dst.port.as_str() == "in")
    });
    let loc = write_site
        .and_then(|idx| ctx.sources.assignment(comp.name, Some(group), idx))
        .or_else(|| ctx.sources.group(comp.name, group));
    sink.push(
        Diagnostic::new(
            DeadWrite::SEVERITY,
            DeadWrite::CODE,
            DeadWrite::NAME,
            format!("group `{group}` writes `{reg}` but nothing ever reads that value"),
        )
        .at(loc)
        .note(format!(
            "on every path from here `{reg}` is overwritten or the schedule ends without reading it"
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
        DeadWrite.check(&ctx, &mut AnalysisCache::new(), &mut sink);
        sink
    }

    const CELLS: &str = "r = std_reg(8); t = std_reg(8); add = std_add(8);";
    const OVERWRITE: &str = r#"
        group first {
            add.left = 8'd1; add.right = 8'd2;
            r.in = add.out; r.write_en = 1'd1; first[done] = r.done;
        }
        group second { r.in = 8'd2; r.write_en = 1'd1; second[done] = r.done; }
        group store { t.in = r.out; t.write_en = 1'd1; store[done] = t.done; }
    "#;

    #[test]
    fn overwritten_before_any_read_warns() {
        let sink = check(&format!(
            r#"component main() -> () {{
                cells {{ {CELLS} }}
                wires {{ {OVERWRITE} }}
                control {{ seq {{ first; second; store; }} }}
            }}"#
        ));
        // `first`'s write dies at `second`; `store`'s write of `t` dies at
        // the exit (nothing observes `t`).
        assert_eq!(sink.warnings(), 2, "{:?}", sink.diagnostics());
        assert!(
            sink.diagnostics()
                .iter()
                .any(|d| d.message.contains("`first` writes `r`")),
            "{:?}",
            sink.diagnostics()
        );
    }

    #[test]
    fn constant_initialization_is_exempt() {
        // `second`'s constant write of `r` dies at the exit, but writing a
        // literal is the defensive-init idiom — only computed values warn.
        let sink = check(&format!(
            r#"component main() -> () {{
                cells {{ {CELLS} }}
                wires {{ {OVERWRITE} }}
                control {{ seq {{ first; store; second; }} }}
            }}"#
        ));
        assert!(
            !sink
                .diagnostics()
                .iter()
                .any(|d| d.message.contains("`second`")),
            "{:?}",
            sink.diagnostics()
        );
    }

    #[test]
    fn read_between_writes_is_clean() {
        let sink = check(&format!(
            r#"component main() -> () {{
                cells {{ {CELLS} }}
                wires {{ {OVERWRITE} }}
                control {{ seq {{ first; store; second; store; }} }}
            }}"#
        ));
        assert!(
            !sink
                .diagnostics()
                .iter()
                .any(|d| d.message.contains("`first`")),
            "{:?}",
            sink.diagnostics()
        );
    }

    #[test]
    fn one_live_occurrence_saves_the_write() {
        // `first` occurs twice; the second occurrence's value is read.
        let sink = check(&format!(
            r#"component main() -> () {{
                cells {{ {CELLS} }}
                wires {{ {OVERWRITE} }}
                control {{ seq {{ first; second; first; store; }} }}
            }}"#
        ));
        assert!(
            !sink
                .diagnostics()
                .iter()
                .any(|d| d.message.contains("`first`")),
            "{:?}",
            sink.diagnostics()
        );
    }

    #[test]
    fn par_sibling_reads_keep_the_write_live() {
        let sink = check(&format!(
            r#"component main() -> () {{
                cells {{ {CELLS} }}
                wires {{ {OVERWRITE} }}
                control {{ seq {{ first; par {{ store; second; }} store; }} }}
            }}"#
        ));
        assert!(
            !sink
                .diagnostics()
                .iter()
                .any(|d| d.message.contains("`first`")),
            "a par sibling may read before the overwrite: {:?}",
            sink.diagnostics()
        );
    }

    #[test]
    fn boundary_registers_are_live_at_exit() {
        // `r` feeds a continuous assignment, so the outside world observes
        // its final value: the last write is not dead.
        let sink = check(
            r#"component main() -> (out: 8) {
                cells { r = std_reg(8); w = std_wire(8); }
                wires {
                  group set { r.in = 8'd1; r.write_en = 1'd1; set[done] = r.done; }
                  w.in = r.out;
                }
                control { set; }
            }"#,
        );
        assert!(sink.is_empty(), "{:?}", sink.diagnostics());
    }
}
