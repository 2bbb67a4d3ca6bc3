//! Forward constant propagation over register values (a flat lattice),
//! plus the combinational constant evaluator it shares with the
//! `unreachable-control` lint.
//!
//! Register facts flow forward through the pCFG with [`ConstVal`]'s flat
//! lattice: a group that must-write a register sets its fact to the
//! written value (evaluated through constants, `std_wire` chains, and
//! known combinational primitives), guarded writes join with the old
//! value, and merge points join pointwise. On top of the solved facts,
//! every `if`/`while` [`CondSite`](crate::analysis::pcfg::CondSite) gets
//! its condition evaluated twice:
//!
//! - **structurally** — from wiring alone, no register knowledge: the
//!   value is fixed no matter what the program does (the
//!   `unreachable-control` C0104 territory);
//! - **with register facts** — using the constants that reach the loop
//!   head (the `const-loop` C0206 territory: a condition over registers
//!   the loop never changes).

use super::solver::{solve, ConstVal, Direction, Lattice, Solution, Transfer};
use crate::analysis::cache::{Analysis, AnalysisCache};
use crate::analysis::pcfg::{CondKind, Pcfg};
use crate::analysis::read_write::ReadWriteSets;
use crate::analysis::regset::RegSet;
use crate::ir::{Atom, Component, Id, PortParent, PortRef, PrimKind};
use std::collections::BTreeMap;

/// Recursion budget for the port evaluator: deeper chains (or
/// combinational cycles, which the `comb-cycle` lint reports separately)
/// simply evaluate to "unknown".
const MAX_DEPTH: u32 = 16;

/// The constant fact map: register → flat constant value.
pub type ConstFacts = BTreeMap<Id, ConstVal>;

/// Which assignments may drive ports during evaluation.
#[derive(Clone, Copy)]
pub enum Scope<'a> {
    /// Every assignment in the component: a value provable here is fixed
    /// no matter which groups are active.
    All,
    /// The named group's assignments (when present) plus continuous ones
    /// — what is actually driving wires while a condition is sampled.
    Active(Option<Id>, &'a Component),
}

impl Scope<'_> {
    fn drivers<'c>(
        &self,
        comp: &'c Component,
        dst: PortRef,
    ) -> Box<dyn Iterator<Item = &'c crate::ir::Assignment> + 'c> {
        match self {
            Scope::All => Box::new(comp.all_assignments().filter(move |a| a.dst == dst)),
            Scope::Active(group, _) => {
                let in_group = group
                    .and_then(|g| comp.groups.get(g))
                    .map(|g| g.assignments.iter())
                    .into_iter()
                    .flatten();
                Box::new(
                    in_group
                        .chain(comp.continuous.iter())
                        .filter(move |a| a.dst == dst),
                )
            }
        }
    }
}

/// Evaluate `port` to a constant, if provable: through `std_wire` chains,
/// known combinational primitives with constant inputs, and (when `regs`
/// is supplied) register outputs with known constant values. Returns
/// `None` unless the value is one provable constant.
pub fn eval_port(
    comp: &Component,
    scope: Scope,
    regs: Option<&ConstFacts>,
    port: PortRef,
) -> Option<u64> {
    match eval_port_at(comp, scope, regs, port, MAX_DEPTH) {
        Some(v) => v.as_const(),
        None => None,
    }
}

/// Three-valued port evaluation: `None` is lattice bottom ("no fact has
/// reached this yet" — only possible when a register read is still
/// bottom in `regs`), `Some(Const)` a proven constant, `Some(Nac)`
/// unknowable. Keeping bottom distinct from Nac is what makes the
/// [`ConstTransfer`] monotone: as a register's fact rises
/// bottom → Const → Nac, the evaluated result can only rise with it.
fn eval_port_at(
    comp: &Component,
    scope: Scope,
    regs: Option<&ConstFacts>,
    port: PortRef,
    depth: u32,
) -> Option<ConstVal> {
    if depth == 0 {
        // Deeper chains (or combinational cycles, which `comb-cycle`
        // reports separately) are unknowable, not unreached.
        return Some(ConstVal::Nac);
    }
    let PortParent::Cell(cell_name) = port.parent else {
        return Some(ConstVal::Nac);
    };
    let Some(cell) = comp.cells.get(cell_name) else {
        return Some(ConstVal::Nac);
    };
    if cell.is_register() {
        if port.port == Id::OUT {
            return match regs {
                // Structural mode never assumes register contents.
                None => Some(ConstVal::Nac),
                Some(facts) => facts.get(&cell_name).copied(),
            };
        }
        return Some(ConstVal::Nac);
    }
    if port.port != Id::OUT {
        return Some(ConstVal::Nac);
    }
    // Stateful and `extern` primitives are not evaluated.
    let (Some(PrimKind::Comb(op)), Some(&[in_width, ..]), Some(width)) = (
        cell.kind(),
        cell.primitive_params(),
        cell.port_width(Id::OUT),
    ) else {
        return Some(ConstVal::Nac);
    };
    let input = |name| eval_input(comp, scope, regs, PortRef::cell(cell_name, name), depth - 1);
    let (left, right) = if op.is_binary() {
        (input(Id::LEFT), input(Id::RIGHT))
    } else {
        (input(Id::IN), Some(ConstVal::Const(0)))
    };
    // Bottom infects first, then Nac. A constant folds to what the
    // simulator computes.
    match (left?, right?) {
        (ConstVal::Const(l), ConstVal::Const(r)) => {
            Some(ConstVal::Const(op.eval(l, r, in_width as u32, width)))
        }
        _ => Some(ConstVal::Nac),
    }
}

/// The value driven onto input port `dst`. Guarded drivers, conflicting
/// drivers, and undriven ports are unknowable (Nac); a driver whose own
/// value is still bottom makes the whole input bottom.
fn eval_input(
    comp: &Component,
    scope: Scope,
    regs: Option<&ConstFacts>,
    dst: PortRef,
    depth: u32,
) -> Option<ConstVal> {
    let mut value: Option<ConstVal> = None;
    let mut any = false;
    for asgn in scope.drivers(comp, dst) {
        if !asgn.guard.is_true() {
            // A guarded driver may or may not fire: unknowable.
            return Some(ConstVal::Nac);
        }
        any = true;
        let v = match asgn.src {
            Atom::Const { val, .. } => Some(ConstVal::Const(val)),
            Atom::Port(p) => eval_port_at(comp, scope, regs, p, depth),
        }?;
        value = Some(match value {
            None => v,
            Some(prev) => prev.join(v),
        });
    }
    if !any {
        // An undriven input reads as an unknowable value.
        return Some(ConstVal::Nac);
    }
    value
}

/// A solved `if`/`while` condition site.
#[derive(Debug, Clone)]
pub struct CondFacts {
    /// The condition port.
    pub port: PortRef,
    /// The `with` condition group, when present.
    pub cond: Option<Id>,
    /// The construct and its arm/body shape.
    pub kind: CondKind,
    /// Condition value provable from wiring alone (constants through
    /// `std_wire` chains and combinational logic), independent of any
    /// register state.
    pub structural: Option<u64>,
    /// Condition value provable using the register constants reaching
    /// the site (a superset of `structural`).
    pub value: Option<u64>,
}

/// Constant propagation facts for one component: every condition site,
/// recursively through p-node children, with its proven values.
#[derive(Debug, Clone, Default)]
pub struct ConstProp {
    sites: Vec<CondFacts>,
}

impl ConstProp {
    /// Every `if`/`while` site in the component with its proven
    /// condition values.
    pub fn sites(&self) -> &[CondFacts] {
        &self.sites
    }
}

impl Analysis for ConstProp {
    type Output = ConstProp;
    const NAME: &'static str = "const-prop";

    fn compute(comp: &Component, cache: &mut AnalysisCache) -> ConstProp {
        let pcfg = cache.get::<Pcfg>(comp);
        let rw = cache.get::<ReadWriteSets>(comp);
        let transfer = ConstTransfer { comp, rw: &rw };
        // Power-on register values are undefined: seed every register as
        // not-a-constant at the schedule's entry.
        let boundary: ConstFacts = comp
            .cells
            .iter()
            .filter(|c| c.is_register())
            .map(|c| (c.name, ConstVal::Nac))
            .collect();
        // Every site of every nested sub-pCFG, evaluated under the facts
        // reaching its head node.
        let mut sites = Vec::new();
        solve(&pcfg, &transfer, boundary).walk(&pcfg, &mut |pcfg, sol| {
            sites.extend(pcfg.conds.iter().map(|site| CondFacts {
                port: site.port,
                cond: site.cond,
                kind: site.kind,
                structural: eval_port(comp, Scope::All, None, site.port),
                value: eval_port(
                    comp,
                    Scope::Active(site.cond, comp),
                    Some(&sol.input[site.node]),
                    site.port,
                ),
            }));
        });
        ConstProp { sites }
    }
}

struct ConstTransfer<'a> {
    comp: &'a Component,
    rw: &'a ReadWriteSets,
}

impl Transfer for ConstTransfer<'_> {
    type Fact = ConstFacts;
    const DIRECTION: Direction = Direction::Forward;

    fn group(&self, group: Id, fact: &Self::Fact) -> Self::Fact {
        let mut out = fact.clone();
        let must = self.rw.must_writes(group);
        for i in self.rw.may_writes(group).iter() {
            let r = self.rw.regs().name(i);
            let written = eval_input(
                self.comp,
                Scope::Active(Some(group), self.comp),
                Some(fact),
                PortRef::cell(r, Id::IN),
                MAX_DEPTH,
            );
            let new = if must.contains(i) {
                written
            } else {
                // A guarded write leaves either the old or the new value.
                match (out.get(&r).copied(), written) {
                    (None, w) => w,
                    (o, None) => o,
                    (Some(a), Some(b)) => Some(a.join(b)),
                }
            };
            // Bottom (no fact reached the written value yet) must stay
            // absent from the map, or the transfer loses monotonicity.
            match new {
                Some(v) => out.insert(r, v),
                None => out.remove(&r),
            };
        }
        out
    }

    fn par(
        &self,
        children: &[Pcfg],
        solved: &[Solution<Self::Fact>],
        fact: &Self::Fact,
    ) -> Self::Fact {
        // Writes inside any child are visible after the p-node. A
        // register written by exactly one child takes that child's exit
        // fact; two writers is a race (Nac); untouched registers keep the
        // incoming fact.
        let mut out = fact.clone();
        let mut votes: BTreeMap<Id, (Option<ConstVal>, usize)> = BTreeMap::new();
        for (child, solved) in children.iter().zip(solved) {
            let exit = &solved.output[child.exit];
            for r in may_written_regs(child, self.rw) {
                let v = exit.get(&r).copied();
                votes
                    .entry(r)
                    .and_modify(|(_, n)| *n += 1)
                    .or_insert((v, 1));
            }
        }
        for (r, (v, writers)) in votes {
            // Two writers is a race whatever the values: structurally
            // Nac, which is also monotone-constant in the inputs.
            let v = if writers > 1 { Some(ConstVal::Nac) } else { v };
            match v {
                Some(v) => out.insert(r, v),
                None => out.remove(&r),
            };
        }
        out
    }
}

/// Registers any group below `pcfg` may write, in name order.
fn may_written_regs(pcfg: &Pcfg, rw: &ReadWriteSets) -> Vec<Id> {
    let mut regs = RegSet::new();
    pcfg.for_each_group(&mut |g| {
        regs.join(rw.may_writes(g));
    });
    rw.regs().names(&regs).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::parse_context;

    fn analyze(src: &str) -> ConstProp {
        let ctx = parse_context(src).unwrap();
        let comp = ctx.component("main").unwrap();
        let mut cache = AnalysisCache::new();
        ConstProp::compute(comp, &mut cache)
    }

    const LOOP_SHELL: &str = r#"
        group init { i.in = 8'd0; i.write_en = 1'd1; init[done] = i.done; }
        group cond { lt.left = i.out; lt.right = 8'd10; cond[done] = 1'd1; }
    "#;

    #[test]
    fn unchanging_counter_proves_the_condition_true() {
        let cp = analyze(&format!(
            r#"component main() -> () {{
                cells {{ i = std_reg(8); lt = std_lt(8); t = std_reg(8); }}
                wires {{
                  {LOOP_SHELL}
                  group work {{ t.in = i.out; t.write_en = 1'd1; work[done] = t.done; }}
                }}
                control {{ seq {{ init; while lt.out with cond {{ work; }} }} }}
            }}"#
        ));
        let site = &cp.sites()[0];
        assert!(matches!(site.kind, CondKind::While { has_body: true }));
        assert_eq!(site.value, Some(1), "i stays 0, so 0 < 10 is provable");
        assert_eq!(site.structural, None, "wiring alone cannot prove it");
    }

    #[test]
    fn incremented_counter_is_not_constant() {
        let cp = analyze(&format!(
            r#"component main() -> () {{
                cells {{ i = std_reg(8); lt = std_lt(8); add = std_add(8); }}
                wires {{
                  {LOOP_SHELL}
                  group incr {{
                    add.left = i.out; add.right = 8'd1;
                    i.in = add.out; i.write_en = 1'd1;
                    incr[done] = i.done;
                  }}
                }}
                control {{ seq {{ init; while lt.out with cond {{ incr; }} }} }}
            }}"#
        ));
        assert_eq!(cp.sites()[0].value, None, "i varies around the back edge");
    }

    #[test]
    fn uninitialized_registers_prove_nothing() {
        let cp = analyze(
            r#"component main() -> () {
                cells { i = std_reg(8); lt = std_lt(8); t = std_reg(8); }
                wires {
                  group cond { lt.left = i.out; lt.right = 8'd10; cond[done] = 1'd1; }
                  group work { t.in = i.out; t.write_en = 1'd1; work[done] = t.done; }
                }
                control { while lt.out with cond { work; } }
            }"#,
        );
        assert_eq!(cp.sites()[0].value, None, "power-on values are undefined");
    }

    #[test]
    fn structural_value_sees_through_wire_chains() {
        let cp = analyze(
            r#"component main() -> () {
                cells { a = std_wire(1); b = std_wire(1); r = std_reg(8); }
                wires {
                  a.in = 1'd1;
                  b.in = a.out;
                  group set { r.in = 8'd1; r.write_en = 1'd1; set[done] = r.done; }
                }
                control { while b.out { set; } }
            }"#,
        );
        let site = &cp.sites()[0];
        assert_eq!(site.structural, Some(1), "constant through a 2-wire chain");
        assert_eq!(site.value, Some(1));
    }

    #[test]
    fn par_single_writer_keeps_the_constant() {
        let cp = analyze(&format!(
            r#"component main() -> () {{
                cells {{ i = std_reg(8); lt = std_lt(8); t = std_reg(8); }}
                wires {{
                  {LOOP_SHELL}
                  group tset {{ t.in = 8'd7; t.write_en = 1'd1; tset[done] = t.done; }}
                  group use {{ t.in = i.out; t.write_en = 1'd1; use[done] = t.done; }}
                }}
                control {{ seq {{ par {{ init; tset; }} while lt.out with cond {{ use; }} }} }}
            }}"#
        ));
        assert_eq!(
            cp.sites()[0].value,
            Some(1),
            "init runs in a par but is the unique writer of i"
        );
    }

    #[test]
    fn guarded_writes_fall_to_nac() {
        let cp = analyze(&format!(
            r#"component main() -> () {{
                cells {{ i = std_reg(8); lt = std_lt(8); c = std_reg(1); t = std_reg(8); }}
                wires {{
                  {LOOP_SHELL}
                  group maybe {{
                    i.in = 8'd3;
                    i.write_en = c.out ? 1'd1;
                    maybe[done] = 1'd1;
                  }}
                  group work {{ t.in = i.out; t.write_en = 1'd1; work[done] = t.done; }}
                }}
                control {{ seq {{ init; maybe; while lt.out with cond {{ work; }} }} }}
            }}"#
        ));
        assert_eq!(
            cp.sites()[0].value,
            None,
            "after the guarded write i is 0-or-3"
        );
    }
}
