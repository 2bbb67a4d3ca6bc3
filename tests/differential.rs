//! Differential testing: random control programs executed by the reference
//! interpreter must leave exactly the same architectural state as the same
//! programs compiled (under every optimization configuration) and run on
//! the cycle-accurate RTL simulator.
//!
//! This exercises the entire compiler — `CompileControl`'s FSMs,
//! `GoInsertion`, `RemoveGroups`' interface-signal inlining, static timing,
//! and both sharing passes — against an executable semantics of the IL.

mod random_programs;

use calyx::core::passes::{opt_without, PassManager};
use calyx::sim::interp::Interpreter;
use calyx::sim::rtl::Simulator;
use proptest::prelude::*;
use random_programs::{build_program, observable_state, ProgramSpec};

/// Final state via the reference interpreter.
fn run_interp(spec: &ProgramSpec) -> Vec<(String, Vec<u64>)> {
    let ctx = build_program(spec);
    let mut interp = Interpreter::new(&ctx, "main").expect("interpretable");
    interp.run(200_000).expect("interpreter terminates");
    observable_state(
        spec,
        |cell| interp.register_value(cell).ok().map(|v| vec![v]),
        |cell| interp.memory(cell).ok(),
    )
}

/// Final state via lowering with `pipeline` + RTL simulation.
fn run_rtl(spec: &ProgramSpec, pipeline: &[&str]) -> Vec<(String, Vec<u64>)> {
    let mut ctx = build_program(spec);
    PassManager::from_names(pipeline)
        .unwrap()
        .run(&mut ctx)
        .expect("pipeline succeeds");
    let mut sim = Simulator::new(&ctx, "main").expect("elaborates");
    sim.run(500_000).expect("design terminates");
    observable_state(
        spec,
        |cell| sim.register_value(&[cell]).ok().map(|v| vec![v]),
        |cell| sim.memory(&[cell]).ok(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        max_shrink_iters: 200,
        .. ProptestConfig::default()
    })]

    /// The fundamental compiler-correctness property: interpretation and
    /// compiled execution agree on all observable state.
    #[test]
    fn compiled_execution_matches_interpreter(spec in random_programs::program_spec()) {
        let reference = run_interp(&spec);
        let lowered = run_rtl(&spec, &["lower"]);
        prop_assert_eq!(&reference, &lowered, "dynamic lowering diverged");
    }

    /// Optimization soundness: sharing and static timing never change
    /// architectural results.
    #[test]
    fn optimizations_preserve_semantics(spec in random_programs::program_spec()) {
        let baseline = run_rtl(&spec, &["lower"]);
        let shared = run_rtl(&spec, &opt_without(&["infer-static-timing", "static-timing"]));
        prop_assert_eq!(&baseline, &shared, "sharing passes diverged");
        let static_ = run_rtl(&spec, &["lower-static"]);
        prop_assert_eq!(&baseline, &static_, "static timing diverged");
        let all = run_rtl(&spec, &["opt"]);
        prop_assert_eq!(&baseline, &all, "combined pipeline diverged");
    }
}
