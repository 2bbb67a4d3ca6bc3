//! Differential testing of the dataflow engine: the engine-backed
//! liveness must agree *tree for tree* with the hand-rolled reference
//! solver on every program the repository can produce.
//!
//! Both solvers compute the least fixpoint of the same monotone flow
//! equations over the same pCFG, so any disagreement — on any node of any
//! nested p-node child, in either direction — is a bug in one of them.
//! `Liveness` is a solution tree with `PartialEq`, so one `assert_eq!`
//! compares every child solution of every p-node, not just the top-level
//! vectors. The corpus is all 19 PolyBench kernels straight out of the
//! Dahlia frontend and again after each standard pipeline (`lower`,
//! `lower-static`, `opt`), plus the par-heavy programs: the unrollable
//! kernels at `unroll=2` and systolic arrays, raw and after
//! `resource-sharing`. On every one the `Interference` relation — what
//! `minimize-regs` merges by — must also answer every ordered register
//! pair as [`interference_oracle`] does: a plain set of pairs filled by
//! the rule in `Interference`'s doc comment, sharing neither its bit
//! matrix nor its register numbering nor its bottom-up touched masks.

use calyx::core::analysis::dataflow::solve_liveness;
use calyx::core::analysis::{
    AnalysisCache, BoundaryRegs, Interference, Liveness, Pcfg, PcfgNode, ReadWriteSets,
};
use calyx::core::ir::{parse_context, Context, Id};
use calyx::core::passes::PassManager;
use calyx::polybench::{compile_kernel, KERNELS};
use calyx::systolic::{generate, SystolicConfig};
use std::collections::BTreeSet;

/// Every ordered pair `(a, b)`, `a != b`, of `left × right`.
fn cross(edges: &mut BTreeSet<(Id, Id)>, left: &BTreeSet<Id>, right: &BTreeSet<Id>) {
    for &a in left {
        for &b in right.iter().filter(|&&b| b != a) {
            edges.insert((a, b));
        }
    }
}

/// The interference relation pair by pair, in both orders: a clique over
/// `live_out ∪ may_writes ∪ reads` at group nodes and over `live_out`
/// elsewhere, and the cross product of the touched sets of sibling `par`
/// children, each touched set re-read from the groups below the child.
fn interference_oracle(pcfg: &Pcfg, rw: &ReadWriteSets, live: &Liveness) -> BTreeSet<(Id, Id)> {
    let mut edges = BTreeSet::new();
    live.walk(pcfg, &mut |pcfg, live| {
        for (node, live_out) in pcfg.nodes.iter().zip(&live.output) {
            let mut set = live_out.clone();
            if let PcfgNode::Group(g) = node {
                set.extend(rw.may_writes(*g));
                set.extend(rw.reads(*g));
            }
            cross(&mut edges, &set, &set);
            let touched: Vec<BTreeSet<Id>> = node
                .children()
                .iter()
                .map(|child| {
                    let mut regs = BTreeSet::new();
                    child.for_each_group(&mut |g| {
                        regs.extend(rw.reads(g));
                        regs.extend(rw.may_writes(g));
                    });
                    regs
                })
                .collect();
            for (i, left) in touched.iter().enumerate() {
                for right in &touched[i + 1..] {
                    cross(&mut edges, left, right);
                    cross(&mut edges, right, left);
                }
            }
        }
    });
    edges
}

/// Assert reference/engine agreement on every component of `ctx`; returns
/// how many nested child solutions the comparison covered.
fn assert_liveness_agrees(ctx: &Context, label: &str) -> usize {
    let mut nested = 0;
    for comp in ctx.components.iter() {
        let mut cache = AnalysisCache::new();
        let boundary = cache.get::<BoundaryRegs>(comp);
        let rw = ReadWriteSets::analyze(comp);
        let pcfg = Pcfg::from_control(&comp.control);
        let reference = Liveness::solve(&pcfg, &rw, boundary.registers());
        let engine = solve_liveness(&pcfg, &rw, boundary.registers());
        assert_eq!(
            reference, engine,
            "{label}/{}: liveness trees diverge",
            comp.name
        );
        assert_eq!(
            *cache.get::<Liveness>(comp),
            reference,
            "{label}/{}: the cached tree diverges",
            comp.name
        );
        engine.walk(&pcfg, &mut |_, sol| {
            nested += sol.children.iter().map(Vec::len).sum::<usize>();
        });

        let oracle = interference_oracle(&pcfg, &rw, &engine);
        let cached = cache.get::<Interference>(comp);
        let by_hand = Interference::build(&pcfg, &rw, boundary.registers());
        // Every register, plus a name no program declares: one the
        // relation never met conflicts with nothing.
        let regs: Vec<Id> = comp
            .cells
            .iter()
            .filter(|c| c.is_register())
            .map(|c| c.name)
            .chain([Id::new("never$declared")])
            .collect();
        assert!(oracle.iter().all(|(a, b)| a != b && regs.contains(a)));
        for &a in &regs {
            for &b in &regs {
                for (built, relation) in [("cached", &*cached), ("by hand", &by_hand)] {
                    assert_eq!(
                        relation.conflict(a, b),
                        oracle.contains(&(a, b)),
                        "{label}/{}: {built} interference({a}, {b}) diverges from the oracle",
                        comp.name
                    );
                }
            }
        }
    }
    nested
}

fn run(ctx: &Context, pipeline: &str, label: &str) -> Context {
    let mut ctx = ctx.clone();
    PassManager::from_names(&[pipeline])
        .expect("registered pipeline")
        .run(&mut ctx)
        .unwrap_or_else(|e| panic!("{label}/{pipeline} fails: {e}"));
    ctx
}

/// All 19 kernels, raw and through each standard pipeline: the
/// engine-backed liveness tree equals the hand-rolled reference's.
#[test]
fn liveness_engine_matches_oracle_on_all_kernels() {
    assert_eq!(KERNELS.len(), 19);
    for def in KERNELS {
        let (_, raw) = compile_kernel(def, 4, 1)
            .unwrap_or_else(|e| panic!("kernel `{}` fails to compile: {e}", def.name));
        assert_liveness_agrees(&raw, &format!("{}/raw", def.name));
        for pipeline in ["lower", "lower-static", "opt"] {
            let ctx = run(&raw, pipeline, def.name);
            assert_liveness_agrees(&ctx, &format!("{}/{pipeline}", def.name));
        }
    }
}

/// No generated program lets two `par` siblings touch one register
/// unless it is live across the whole block, where the cliques already
/// hold every edge the cross product adds. Here `r` is written (and never
/// read) on both sides of a `par` at two depths, so those edges come from
/// the cross product alone.
const SHARED_BY_SIBLINGS: &str = r#"component main() -> () {
  cells { r = std_reg(8); s = std_reg(8); t = std_reg(8); u = std_reg(8); v = std_reg(8); }
  wires {
    group wu { u.in = 8'd0; u.write_en = 1'd1; wu[done] = u.done; }
    group wr0 { r.in = 8'd1; r.write_en = 1'd1; wr0[done] = r.done; }
    group ws { s.in = 8'd2; s.write_en = 1'd1; ws[done] = s.done; }
    group wr1 { r.in = 8'd3; r.write_en = 1'd1; wr1[done] = r.done; }
    group wt { t.in = 8'd4; t.write_en = 1'd1; wt[done] = t.done; }
    group wv { v.in = 8'd5; v.write_en = 1'd1; wv[done] = v.done; }
    group wr2 { r.in = 8'd6; r.write_en = 1'd1; wr2[done] = r.done; }
  }
  control { par { seq { wu; wr0; ws; } wr1; seq { wt; par { wv; wr2; } } } }
}"#;

/// The par-heavy corpus, where the tree has depth: unrolled kernels and
/// systolic arrays, raw and after `resource-sharing` (the pass that runs
/// ahead of `minimize-regs` under `opt`).
#[test]
fn liveness_trees_match_on_par_heavy_programs() {
    let mut programs: Vec<(String, Context)> = Vec::new();
    for def in KERNELS.iter().filter(|k| k.unrollable) {
        let (_, ctx) = compile_kernel(def, 4, 2)
            .unwrap_or_else(|e| panic!("kernel `{}` fails to unroll: {e}", def.name));
        programs.push((format!("{}/unroll2", def.name), ctx));
    }
    assert!(!programs.is_empty(), "some kernels unroll");
    for n in [2, 3, 4] {
        programs.push((
            format!("systolic{n}x{n}"),
            generate(&SystolicConfig::square(n)),
        ));
    }
    programs.push((
        "shared-by-siblings".to_string(),
        parse_context(SHARED_BY_SIBLINGS).expect("the hand-written program parses"),
    ));
    for (label, raw) in &programs {
        let nested = assert_liveness_agrees(raw, &format!("{label}/raw"));
        assert!(nested > 0, "{label}: expected p-node children to compare");
        let shared = run(raw, "resource-sharing", label);
        assert_liveness_agrees(&shared, &format!("{label}/resource-sharing"));
    }
}
