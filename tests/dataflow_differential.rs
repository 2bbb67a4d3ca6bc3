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
//! `resource-sharing`. On every one the `Interference` relation built
//! from the cached tree must also equal the reference's on every
//! register pair — that relation is what `minimize-regs` merges by.

use calyx::core::analysis::dataflow::solve_liveness;
use calyx::core::analysis::{
    AnalysisCache, BoundaryRegs, Interference, Liveness, Pcfg, ReadWriteSets,
};
use calyx::core::ir::{Context, Id};
use calyx::core::passes::PassManager;
use calyx::polybench::{compile_kernel, KERNELS};
use calyx::systolic::{generate, SystolicConfig};

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

        let cached = cache.get::<Interference>(comp);
        let by_hand = Interference::build(&pcfg, &rw, boundary.registers());
        let regs: Vec<Id> = comp
            .cells
            .iter()
            .filter(|c| c.is_register())
            .map(|c| c.name)
            .collect();
        for &a in &regs {
            for &b in &regs {
                assert_eq!(
                    cached.conflict(a, b),
                    by_hand.conflict(a, b),
                    "{label}/{}: interference({a}, {b}) diverges",
                    comp.name
                );
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
    for n in [2, 3] {
        programs.push((
            format!("systolic{n}x{n}"),
            generate(&SystolicConfig::square(n)),
        ));
    }
    for (label, raw) in &programs {
        let nested = assert_liveness_agrees(raw, &format!("{label}/raw"));
        assert!(nested > 0, "{label}: expected p-node children to compare");
        let shared = run(raw, "resource-sharing", label);
        assert_liveness_agrees(&shared, &format!("{label}/resource-sharing"));
    }
}
