//! Differential and integration tests for the analysis cache.
//!
//! The cache is an optimization, so it must be *invisible*: a pipeline run
//! with memoized analyses must produce byte-identical Calyx to a run where
//! every query recomputes (`AnalysisCache::recompute_every_query`). Any
//! divergence means a pass mutated a component without signaling dirty —
//! exactly the bug class the invalidation contract exists to prevent. The
//! suite pins this on all PolyBench kernels, and additionally checks the
//! invalidation machinery end-to-end (mutate → generation bump →
//! recompute) and that cache-mediated analysis dependencies match
//! hand-computed results.

use calyx::core::analysis::dataflow::solve_liveness;
use calyx::core::analysis::{
    AnalysisCache, BoundaryRegs, Interference, Liveness, Pcfg, PortUses, ReadWriteSets, RegSet,
};
use calyx::core::ir::{parse_context, Context, Id, Printer};
use calyx::core::passes::{self, Pass, PassManager};
use calyx::polybench::{compile_kernel, KERNELS};

const N: u64 = 4;

/// Run the pipeline named by `names` over a clone of `ctx` with the given
/// cache, and print the result.
fn printed_with(names: &[&str], ctx: &Context, cache: &mut AnalysisCache) -> String {
    let mut ctx = ctx.clone();
    PassManager::from_names(names)
        .expect("pipeline names are registered")
        .run_with_cache(&mut ctx, cache)
        .expect("pipeline succeeds");
    Printer::print_context(&ctx)
}

/// The headline differential: cache on vs cache force-disabled must be
/// byte-identical on every PolyBench kernel, for every standard pipeline.
#[test]
fn cached_and_uncached_pipelines_are_byte_identical_on_polybench() {
    for def in KERNELS {
        let (_ast, ctx) = compile_kernel(def, N, 1).expect("kernel compiles");
        for pipeline in [&["lower"][..], &["lower-static"][..], &["opt"][..]] {
            let cached = printed_with(pipeline, &ctx, &mut AnalysisCache::new());
            let uncached =
                printed_with(pipeline, &ctx, &mut AnalysisCache::recompute_every_query());
            assert_eq!(
                cached, uncached,
                "{}: pipeline {pipeline:?} diverges between cached and \
                 recompute-every-query runs",
                def.name
            );
        }
    }
}

/// The cached `opt` pipeline actually exercises the cache: it must record
/// hits (shared prerequisite analyses) on every kernel, and the uncached
/// run must record recomputes instead.
#[test]
fn opt_pipeline_reports_cache_activity() {
    let def = &KERNELS[0];
    let (_ast, ctx) = compile_kernel(def, N, 1).expect("kernel compiles");

    let mut pm = PassManager::from_names(&["opt"]).unwrap();
    let mut cache = AnalysisCache::new();
    let mut work = ctx.clone();
    pm.run_with_cache(&mut work, &mut cache).unwrap();
    let cached_stats = pm.total_cache_stats();
    assert!(
        cached_stats.hits > 0,
        "cached opt pipeline should share analyses: {cached_stats:?}"
    );

    let mut pm = PassManager::from_names(&["opt"]).unwrap();
    let mut work = ctx.clone();
    pm.run_with_cache(&mut work, &mut AnalysisCache::recompute_every_query())
        .unwrap();
    let uncached_stats = pm.total_cache_stats();
    assert_eq!(uncached_stats.hits, 0);
    assert!(
        uncached_stats.misses > cached_stats.misses,
        "disabling the cache must force extra computes: \
         {uncached_stats:?} vs {cached_stats:?}"
    );
}

const SRC: &str = r#"component main() -> () {
    cells { a = std_reg(8); b = std_reg(8); out = std_reg(8); add = std_add(8); }
    wires {
      group wa { a.in = 8'd1; a.write_en = 1'd1; wa[done] = a.done; }
      group wb { b.in = 8'd2; b.write_en = 1'd1; wb[done] = b.done; }
      group sum {
        add.left = a.out; add.right = b.out;
        out.in = add.out; out.write_en = 1'd1;
        sum[done] = out.done;
      }
    }
    control { seq { wa; wb; sum; } }
}"#;

/// Back-to-back disjoint lifetimes: `minimize-regs` merges `t1` into `t0`.
const MERGEABLE: &str = r#"component main() -> () {
    cells {
      t0 = std_reg(8); t1 = std_reg(8);
      @external m = std_mem_d1(8, 2, 1);
    }
    wires {
      group w0 { t0.in = 8'd5; t0.write_en = 1'd1; w0[done] = t0.done; }
      group s0 {
        m.addr0 = 1'd0; m.write_data = t0.out; m.write_en = 1'd1;
        s0[done] = m.done;
      }
      group w1 { t1.in = 8'd7; t1.write_en = 1'd1; w1[done] = t1.done; }
      group s1 {
        m.addr0 = 1'd1; m.write_data = t1.out; m.write_en = 1'd1;
        s1[done] = m.done;
      }
    }
    control { seq { w0; s0; w1; s1; } }
}"#;

/// Mutating a component through a pass bumps its generation and forces the
/// next query to recompute against the new program.
#[test]
fn mutation_bumps_generation_and_recomputes() {
    let mut ctx = parse_context(MERGEABLE).unwrap();
    let mut cache = AnalysisCache::new();
    let main = Id::new("main");

    // Warm the cache: t1 is used by groups w1 and s1.
    {
        let comp = ctx.component("main").unwrap();
        let uses = cache.get::<PortUses>(comp);
        assert_eq!(uses.cell_users(Id::new("t1")).len(), 2);
    }
    assert_eq!(cache.generation(main), 0);

    // `minimize-regs` merges `t1` into `t0` (disjoint live ranges) — a
    // real mutation, reported dirty, so the generation bumps.
    passes::MinimizeRegs.run_with(&mut ctx, &mut cache).unwrap();
    assert_eq!(cache.generation(main), 1, "rewrite must invalidate");

    // The next query recomputes and sees the rewritten program.
    cache.take_stats();
    let comp = ctx.component("main").unwrap();
    let uses = cache.get::<PortUses>(comp);
    let stats = cache.stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.recomputes, 1);
    assert!(
        uses.cell_users(Id::new("t1")).is_empty(),
        "recomputed PortUses reflects the register merge"
    );
    assert_eq!(uses.cell_users(Id::new("t0")).len(), 4);

    // A read-only pass leaves the warmed cache untouched.
    passes::WellFormed.run_with(&mut ctx, &mut cache).unwrap();
    assert_eq!(cache.generation(main), 1);
    cache.take_stats();
    let comp = ctx.component("main").unwrap();
    cache.get::<PortUses>(comp);
    assert_eq!(cache.stats().hits, 1);
}

/// Cross-analysis dependency: `Liveness` pulled through the cache (which
/// resolves `Pcfg`, `ReadWriteSets`, and `BoundaryRegs` itself) must equal
/// liveness computed by hand from directly-constructed inputs.
#[test]
fn cached_liveness_matches_hand_computed_liveness() {
    let ctx = parse_context(SRC).unwrap();
    let comp = ctx.component("main").unwrap();

    // By hand, the way `minimize-regs` did before the cache existed.
    let rw = ReadWriteSets::analyze(comp);
    let pcfg = Pcfg::from_control(&comp.control);
    let boundary = RegSet::new(); // no continuous/condition registers
    let by_hand = solve_liveness(&pcfg, &rw, &boundary);

    // Through the cache.
    let mut cache = AnalysisCache::new();
    assert!(cache.get::<BoundaryRegs>(comp).registers().is_empty());
    let cached = cache.get::<Liveness>(comp);

    assert_eq!(*cached, by_hand);

    // The interference relation built from cached facts agrees too.
    let cached_interference = cache.get::<Interference>(comp);
    let by_hand_interference = Interference::build_with(&pcfg, &rw, &by_hand);
    for x in ["a", "b", "out"] {
        for y in ["a", "b", "out"] {
            assert_eq!(
                cached_interference.conflict(Id::new(x), Id::new(y)),
                by_hand_interference.conflict(Id::new(x), Id::new(y)),
                "interference({x}, {y}) diverges"
            );
        }
    }

    // Dependencies were shared: liveness + interference pulled pcfg/rw/
    // boundary from the cache rather than recomputing them.
    assert!(cache.take_stats().hits >= 3);
}
