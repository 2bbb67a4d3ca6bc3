//! The pass registry drives real pipelines: alias-built pass managers must
//! behave *identically* to the pipeline constructors they replaced. Byte-identical
//! printed Calyx on every PolyBench kernel pins the alias expansions (and
//! the visitor-based pass framework behind them) to the known-good
//! pipelines. The par-heavy designs, where `minimize-regs` decides the most,
//! are pinned harder: by the digest of their optimized Verilog.

use calyx::core::ir::{Context, Printer};
use calyx::core::passes::{self, PassManager};
use calyx::polybench::{compile_kernel, KERNELS};
use calyx::service::{digest64, Job, Session};

const N: u64 = 4;

/// The pre-registry `lower_pipeline()`, reconstructed by registering the
/// pass structs directly — the known-good hand-built pipeline the aliases
/// must reproduce.
fn hand_built_lower() -> PassManager {
    let mut pm = PassManager::new();
    pm.register(passes::WellFormed);
    pm.register(passes::CollapseControl);
    pm.register(passes::DeadGroupRemoval::default());
    pm.register(passes::CompileControl);
    pm.register(passes::GoInsertion);
    pm.register(passes::RemoveGroups);
    pm.register(passes::GuardSimplify);
    pm.register(passes::DeadCellRemoval::default());
    pm
}

/// The pre-registry `lower_pipeline_static()`, hand-built.
fn hand_built_lower_static() -> PassManager {
    let mut pm = PassManager::new();
    pm.register(passes::WellFormed);
    pm.register(passes::CollapseControl);
    pm.register(passes::DeadGroupRemoval::default());
    pm.register(passes::InferStaticTiming);
    pm.register(passes::StaticTiming);
    pm.register(passes::CompileControl);
    pm.register(passes::GoInsertion);
    pm.register(passes::RemoveGroups);
    pm.register(passes::GuardSimplify);
    pm.register(passes::DeadCellRemoval::default());
    pm
}

/// Run `pm` over a clone of `ctx` and print the result.
fn printed(mut pm: PassManager, ctx: &Context) -> String {
    let mut ctx = ctx.clone();
    pm.run(&mut ctx).expect("pipeline succeeds");
    Printer::print_context(&ctx)
}

#[test]
fn lower_alias_matches_hand_built_pipeline_on_polybench() {
    for def in KERNELS {
        let (_ast, ctx) = compile_kernel(def, N, 1).expect("kernel compiles");
        let hand_built = printed(hand_built_lower(), &ctx);
        let alias = printed(PassManager::from_names(&["lower"]).unwrap(), &ctx);
        let wrapper = printed(passes::lower_pipeline(), &ctx);
        assert_eq!(hand_built, alias, "{}: alias `lower` diverged", def.name);
        assert_eq!(
            hand_built, wrapper,
            "{}: lower_pipeline() wrapper diverged",
            def.name
        );
    }
}

#[test]
fn opt_alias_matches_legacy_function_on_polybench() {
    for def in KERNELS {
        let (_ast, ctx) = compile_kernel(def, N, 1).expect("kernel compiles");
        let function = printed(passes::optimized_pipeline(true, true, true), &ctx);
        let opt = printed(PassManager::from_names(&["opt"]).unwrap(), &ctx);
        let all = printed(PassManager::from_names(&["all"]).unwrap(), &ctx);
        assert_eq!(function, opt, "{}: alias `opt` diverged", def.name);
        assert_eq!(function, all, "{}: alias `all` diverged", def.name);
    }
}

#[test]
fn lower_static_alias_matches_hand_built_pipeline_on_polybench() {
    for def in KERNELS {
        let (_ast, ctx) = compile_kernel(def, N, 1).expect("kernel compiles");
        let hand_built = printed(hand_built_lower_static(), &ctx);
        let alias = printed(PassManager::from_names(&["lower-static"]).unwrap(), &ctx);
        assert_eq!(
            hand_built, alias,
            "{}: alias `lower-static` diverged",
            def.name
        );
    }
}

/// `-p`-style hand-built pipelines compose passes one at a time exactly
/// like the one-shot alias pipeline.
#[test]
fn incremental_pass_names_compose_like_the_alias() {
    let def = &KERNELS[0];
    let (_ast, ctx) = compile_kernel(def, N, 1).expect("kernel compiles");
    let whole = printed(PassManager::from_names(&["lower"]).unwrap(), &ctx);

    let mut step_ctx = ctx.clone();
    for name in passes::ALIAS_LOWER {
        let mut pm = PassManager::from_names(&[name]).unwrap();
        pm.run(&mut step_ctx).expect("single pass succeeds");
    }
    assert_eq!(whole, Printer::print_context(&step_ctx));
}

/// `digest64` of what `futil - -f <frontend> --fopt … -p opt -b verilog`
/// prints, compiled through the same `Session` the driver calls.
fn opt_verilog_digest(frontend: &str, fopts: &[(&str, &str)]) -> u64 {
    let pipeline = ["opt".to_string()];
    let job = Job {
        frontend: Some(frontend),
        fopts: fopts
            .iter()
            .map(|(key, value)| (key.to_string(), value.to_string()))
            .collect(),
        pipeline: Some(&pipeline),
        backend: "verilog",
        ..Job::default()
    };
    let compiled = Session::default()
        .resolve(&job)
        .and_then(|mut resolved| resolved.compile("-", "", None))
        .unwrap_or_else(|e| panic!("{frontend} {fopts:?} fails to compile: {}", e.message));
    digest64(&compiled.output)
}

/// Register sharing on the par-heavy designs, byte for byte. The digests
/// were recorded from the `futil` of the commit before `Interference`
/// became a bit matrix and `Id` reads left the interner lock, and the
/// paper's 8×8 from the one before liveness facts became bitsets; which
/// registers merge there follows from liveness, interference and the
/// order registers are numbered and `Id`s sort in, so a change to any of
/// them that alters sharing shows here first.
#[test]
fn opt_verilog_of_par_heavy_designs_is_pinned() {
    for (n, expected) in [
        ("2", 0x4d13_c904_e2cc_c8df_u64),
        ("3", 0x3813_30aa_2f3c_eff0),
        ("4", 0x0d57_fb00_96b4_da99),
        ("6", 0x16fd_bd75_b8ab_69d6),
        ("8", 0xc4bd_a75a_9435_922d),
    ] {
        let digest = opt_verilog_digest("systolic", &[("rows", n), ("cols", n), ("inner", n)]);
        assert_eq!(digest, expected, "systolic {n}x{n}: {digest:#018x}");
    }
    let digest = opt_verilog_digest("polybench", &[("kernel", "gemver"), ("unroll", "2")]);
    assert_eq!(
        digest, 0x582e_e2ec_eb1c_abcd,
        "gemver unroll=2: {digest:#018x}"
    );
}
