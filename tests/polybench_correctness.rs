//! End-to-end correctness: every PolyBench kernel, compiled through
//! Dahlia → Calyx → lowering under several pass pipelines, must reproduce
//! the reference semantics bit-for-bit.

use calyx::core::passes::opt_without;
use calyx::polybench::{kernel, simulate, KernelDef, KERNELS};

const N: u64 = 4;

fn check(def: &KernelDef, unroll: u64, pipeline: &[&str]) {
    simulate(def, N, unroll, pipeline)
        .unwrap_or_else(|e| panic!("{} (unroll {unroll}, {pipeline:?}): {e}", def.name));
}

#[test]
fn all_kernels_unoptimized() {
    for def in KERNELS {
        check(def, 1, &["lower"]);
    }
}

#[test]
fn all_kernels_fully_optimized() {
    for def in KERNELS {
        check(def, 1, &["opt"]);
    }
}

#[test]
fn all_kernels_resource_sharing_only() {
    let pipeline = opt_without(&["minimize-regs", "infer-static-timing", "static-timing"]);
    for def in KERNELS {
        check(def, 1, &pipeline);
    }
}

#[test]
fn all_kernels_register_sharing_only() {
    let pipeline = opt_without(&["resource-sharing", "infer-static-timing", "static-timing"]);
    for def in KERNELS {
        check(def, 1, &pipeline);
    }
}

#[test]
fn unrolled_kernels_all_configs() {
    for def in KERNELS.iter().filter(|k| k.unrollable) {
        check(def, 2, &["lower"]);
        check(def, 2, &["opt"]);
    }
}

#[test]
fn static_timing_is_no_slower() {
    // The latency-sensitive pass (§4.4) should never make a design slower.
    for name in ["gemm", "atax", "trisolv"] {
        let def = kernel(name).unwrap();
        let dynamic = simulate(def, N, 1, &["lower"]).unwrap();
        let static_ = simulate(def, N, 1, &["lower-static"]).unwrap();
        assert!(
            static_.cycles <= dynamic.cycles,
            "{name}: static {} vs dynamic {}",
            static_.cycles,
            dynamic.cycles
        );
    }
}
