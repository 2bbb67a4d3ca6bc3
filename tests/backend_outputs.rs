//! Backend integration: SystemVerilog emission and area estimation over
//! real designs from both frontends.

use calyx::backend::{area, verilog};
use calyx::core::passes::PassManager;
use calyx::polybench::kernel;
use calyx::systolic::{generate, SystolicConfig};

#[test]
fn systolic_array_emits_synthesizable_shaped_verilog() {
    let mut ctx = generate(&SystolicConfig::square(4));
    let mut pipeline = PassManager::from_names(&["lower-static"]).unwrap();
    pipeline.run(&mut ctx).unwrap();
    let sv = verilog::emit(&ctx).unwrap();
    // Structural sanity: balanced module/endmodule, a PE definition before
    // main, memories as instances, a threaded clock.
    assert_eq!(
        sv.matches("\nmodule ").count() + usize::from(sv.starts_with("module ")),
        sv.matches("endmodule").count()
    );
    assert!(sv.find("module mac_pe").unwrap() < sv.find("module main").unwrap());
    assert!(sv.contains("std_mem_d1 #("));
    assert!(sv.contains(".clk(clk)"));
    assert!(verilog::line_count(&sv) > 500);
}

#[test]
fn polybench_kernel_emits_verilog_and_area() {
    let def = kernel("gemm").unwrap();
    let run = calyx::polybench::simulate(def, 4, 1, &["opt"]).unwrap();
    let sv = verilog::emit(&run.lowered).unwrap();
    assert!(sv.contains("module main"));
    assert!(sv.contains("module std_mult_pipe"));
    let a = area::estimate(&run.lowered, "main").unwrap();
    assert!(a.luts > 0 && a.ffs > 0 && a.dsps > 0, "{a:?}");
}

#[test]
fn area_grows_with_array_size() {
    let small = {
        let mut ctx = generate(&SystolicConfig::square(2));
        let mut pipeline = PassManager::from_names(&["lower"]).unwrap();
        pipeline.run(&mut ctx).unwrap();
        area::estimate(&ctx, "main").unwrap()
    };
    let large = {
        let mut ctx = generate(&SystolicConfig::square(4));
        let mut pipeline = PassManager::from_names(&["lower"]).unwrap();
        pipeline.run(&mut ctx).unwrap();
        area::estimate(&ctx, "main").unwrap()
    };
    assert!(large.luts > small.luts);
    assert!(large.dsps > small.dsps);
    assert!(large.ffs > small.ffs);
}

#[test]
fn emitted_verilog_loc_tracks_design_size() {
    let loc = |n: usize| {
        let mut ctx = generate(&SystolicConfig::square(n));
        let mut pipeline = PassManager::from_names(&["lower-static"]).unwrap();
        pipeline.run(&mut ctx).unwrap();
        verilog::line_count(&verilog::emit(&ctx).unwrap())
    };
    assert!(loc(4) > loc(2));
}
