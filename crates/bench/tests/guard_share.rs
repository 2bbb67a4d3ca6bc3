//! Lowering shares guards: a component's guards are one hash-consed pool,
//! so a walk that goes through each pool node once enters exactly the
//! structurally distinct sub-guards — while the guards, counted as trees,
//! are the ones lowering built when every reader held a copy
//! (`Σ GuardPool::tree_sizes()` recorded from the commit before guards were shared,
//! and for the kernels re-recorded once since, when `if`/`while` conditions
//! that settle in their cycle stopped latching into `cc`/`cs`; the printed
//! designs are pinned byte for byte by `tests/lowered_output_pinned.rs`).

use calyx_bench::stats::guard_sharing;
use calyx_core::ir::Context;
use calyx_core::passes::PassManager;
use calyx_polybench::{compile_kernel, KERNELS};
use calyx_systolic::{generate, SystolicConfig};

/// Check `ctx` lowered by `alias` against its recorded
/// `(assignments, tree nodes)`.
fn check(name: &str, mut ctx: Context, alias: &str, recorded: (usize, usize)) {
    let mut passes = PassManager::from_names(&[alias]).unwrap();
    passes.run(&mut ctx).unwrap();
    let s = guard_sharing(&ctx);
    assert_eq!((s.assignments, s.tree_nodes), recorded, "{name}: {s:?}");
    assert_eq!(s.entered_nodes, s.distinct_nodes, "{name}: {s:?}");
    assert!(s.entered_nodes * 2 < s.tree_nodes, "{name}: {s:?}");
}

#[test]
fn polybench_kernels_under_opt_share_their_guards() {
    const RECORDED: [(&str, (usize, usize)); 19] = [
        ("2mm", (165, 2671)),
        ("3mm", (234, 3790)),
        ("atax", (119, 1461)),
        ("doitgen", (134, 2618)),
        ("gemm", (91, 1469)),
        ("gemver", (211, 2568)),
        ("gesummv", (105, 1347)),
        ("gramschmidt", (233, 4680)),
        ("mvt", (113, 1391)),
        ("syr2k", (99, 1724)),
        ("syrk", (82, 1328)),
        ("bicg", (119, 1461)),
        ("cholesky", (157, 4780)),
        ("durbin", (256, 4276)),
        ("lu", (234, 6924)),
        ("ludcmp", (413, 10061)),
        ("symm", (148, 3259)),
        ("trisolv", (99, 1630)),
        ("trmm", (98, 2196)),
    ];
    assert_eq!(KERNELS.len(), RECORDED.len());
    for (def, (name, recorded)) in KERNELS.iter().zip(RECORDED) {
        assert_eq!(def.name, name);
        let (_, ctx) = compile_kernel(def, 4, 1).unwrap();
        check(name, ctx, "opt", recorded);
    }
}

#[test]
fn systolic_arrays_under_lower_static_share_their_guards() {
    for (n, recorded) in [(2, (100, 622)), (4, (288, 3410)), (6, (564, 9678))] {
        let ctx = generate(&SystolicConfig::square(n));
        check(&format!("systolic {n}x{n}"), ctx, "lower-static", recorded);
    }
}
