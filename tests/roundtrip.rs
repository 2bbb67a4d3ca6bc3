//! Printer/parser round-tripping: randomly generated programs print to
//! text that parses back to a program printing identically, at every
//! compilation stage.

mod random_programs;

use calyx::core::ir::{parse_context, Context, Printer};
use calyx::core::passes::PassManager;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, .. ProptestConfig::default() })]

    /// Frontend-level programs round-trip.
    #[test]
    fn generated_programs_roundtrip(spec in random_programs::program_spec()) {
        let ctx = random_programs::build_program(&spec);
        let printed = Printer::print_context(&ctx);
        let reparsed = parse_context(&printed)
            .map_err(|e| TestCaseError::fail(format!("reparse failed: {e}\n{printed}")))?;
        prop_assert_eq!(Printer::print_context(&reparsed), printed);
    }

    /// Lowered (FSM-compiled, group-free) programs also round-trip: the
    /// printer/parser cover the guard language the compiler emits.
    #[test]
    fn lowered_programs_roundtrip(spec in random_programs::program_spec()) {
        let mut ctx = random_programs::build_program(&spec);
        PassManager::from_names(&["lower"]).unwrap().run(&mut ctx).expect("lowers");
        let printed = Printer::print_context(&ctx);
        let reparsed = parse_context(&printed)
            .map_err(|e| TestCaseError::fail(format!("reparse failed: {e}\n{printed}")))?;
        prop_assert_eq!(Printer::print_context(&reparsed), printed);
    }
}

/// `extern` declarations survive printing, before and after lowering.
#[test]
fn extern_programs_roundtrip() {
    let src = r#"
        extern "blackbox.sv" { component my_unit(in: 8, go: 1) -> (out: 8, done: 1); }
        component main() -> () {
          cells { u = my_unit(); r = std_reg(8); }
          wires {
            group run { u.in = 8'd3; u.go = 1'd1; run[done] = u.done; }
            group save { r.in = u.out; r.write_en = 1'd1; save[done] = r.done; }
          }
          control { seq { run; save; } }
        }
    "#;
    let mut ctx = parse_context(src).unwrap();
    for stage in ["parsed", "lowered"] {
        let printed = Printer::print_context(&ctx);
        assert!(
            printed.starts_with("extern \"blackbox.sv\" {\n"),
            "{stage}:\n{printed}"
        );
        let reparsed = parse_context(&printed).unwrap_or_else(|e| panic!("{stage}: {e}"));
        assert_eq!(Printer::print_context(&reparsed), printed, "{stage}");
        PassManager::from_names(&["lower"])
            .unwrap()
            .run(&mut ctx)
            .unwrap();
    }
}

/// Print → parse → print is stable for `ctx` as given and after each of
/// `lower` and `opt`, each run from the program as given.
#[track_caller]
fn roundtrips_at_every_stage(name: &str, ctx: &Context) {
    for pipeline in [None, Some("lower"), Some("opt")] {
        let mut ctx = ctx.clone();
        if let Some(pipeline) = pipeline {
            PassManager::from_names(&[pipeline])
                .unwrap()
                .run(&mut ctx)
                .unwrap_or_else(|e| panic!("{name} under {pipeline}: {e}"));
        }
        let stage = pipeline.unwrap_or("as generated");
        let printed = Printer::print_context(&ctx);
        let reparsed = parse_context(&printed).unwrap_or_else(|e| panic!("{name} ({stage}): {e}"));
        assert_eq!(
            Printer::print_context(&reparsed),
            printed,
            "{name} ({stage}) did not round-trip"
        );
    }
}

#[test]
fn polybench_sources_roundtrip_through_calyx() {
    for def in calyx::polybench::KERNELS {
        let (_, ctx) = calyx::polybench::compile_kernel(def, 4, 1).unwrap();
        roundtrips_at_every_stage(def.name, &ctx);
    }
}

#[test]
fn systolic_arrays_roundtrip_through_calyx() {
    for n in 2..=6 {
        let ctx = calyx::systolic::generate(&calyx::systolic::SystolicConfig::square(n));
        roundtrips_at_every_stage(&format!("systolic {n}x{n}"), &ctx);
    }
}
