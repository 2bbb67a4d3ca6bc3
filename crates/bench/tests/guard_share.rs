//! Lowering shares guards: `remove-groups` hands every reader of a hole
//! the same node and the passes after it keep it one node, so a walk that
//! goes through each shared node once enters few more nodes than there are
//! distinct sub-guards — while the guards, counted as trees, are the ones
//! lowering built when every reader held a copy (`Σ Guard::size()`
//! recorded from the commit before guards were shared; the printed designs
//! are pinned byte for byte by `tests/lowered_output_pinned.rs`).

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
    assert!(s.entered_nodes <= 4 * s.distinct_nodes, "{name}: {s:?}");
    assert!(s.entered_nodes * 2 < s.tree_nodes, "{name}: {s:?}");
}

#[test]
fn polybench_kernels_under_opt_share_their_guards() {
    const RECORDED: [(&str, (usize, usize)); 19] = [
        ("2mm", (201, 3157)),
        ("3mm", (288, 4519)),
        ("atax", (143, 1713)),
        ("doitgen", (164, 3131)),
        ("gemm", (109, 1712)),
        ("gemver", (253, 2991)),
        ("gesummv", (117, 1473)),
        ("gramschmidt", (271, 4840)),
        ("mvt", (137, 1643)),
        ("syr2k", (117, 1967)),
        ("syrk", (100, 1571)),
        ("bicg", (143, 1713)),
        ("cholesky", (181, 4305)),
        ("durbin", (286, 4292)),
        ("lu", (272, 6474)),
        ("ludcmp", (479, 9645)),
        ("symm", (168, 3310)),
        ("trisolv", (113, 1647)),
        ("trmm", (118, 2302)),
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
