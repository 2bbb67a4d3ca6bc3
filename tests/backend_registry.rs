//! The `Backend` trait contract over real designs: the streaming
//! registry-based entry points must be byte-identical to the original
//! String-returning ones, and preconditions must gate emission cleanly.

use calyx::backend::{area, verilog};
use calyx::backend::{Backend, BackendOpts, BackendRegistry, CalyxBackend, VerilogBackend};
use calyx::core::ir::{parse_context, Context, Printer};
use calyx::core::passes::PassManager;
use calyx::polybench::{compile_kernel, KERNELS};

fn emit_via_registry(name: &str, ctx: &Context) -> Vec<u8> {
    let backend = BackendRegistry::default()
        .get(name, &BackendOpts::default())
        .unwrap();
    backend.validate(ctx).unwrap();
    let mut out = Vec::new();
    backend.emit(ctx, &mut out).unwrap();
    out
}

/// New-API output is byte-identical to the old entry points on every
/// PolyBench kernel, for both codegen backends.
#[test]
fn streaming_backends_match_string_entry_points_on_all_kernels() {
    assert_eq!(KERNELS.len(), 19);
    for def in KERNELS {
        let (_, mut ctx) = compile_kernel(def, 4, 1).unwrap();
        let mut pipeline = PassManager::from_names(&["lower"]).unwrap();
        pipeline.run(&mut ctx).unwrap();

        let old_sv = verilog::emit(&ctx).unwrap();
        let new_sv = emit_via_registry("verilog", &ctx);
        assert_eq!(
            old_sv.as_bytes(),
            new_sv.as_slice(),
            "verilog drift on `{}`",
            def.name
        );

        let old_calyx = Printer::print_context(&ctx);
        let new_calyx = emit_via_registry("calyx", &ctx);
        assert_eq!(
            old_calyx.as_bytes(),
            new_calyx.as_slice(),
            "calyx printer drift on `{}`",
            def.name
        );
    }
}

const UNLOWERED: &str = r#"
    component main() -> () {
      cells { r = std_reg(8); }
      wires { group g { r.in = 8'd7; r.write_en = 1'd1; g[done] = r.done; } }
      control { g; }
    }
"#;

/// `validate` rejects an unlowered program for every backend that
/// requires `lower`, and `emit` writes nothing when it fails.
#[test]
fn lowering_preconditions_gate_emission_without_partial_output() {
    let ctx = parse_context(UNLOWERED).unwrap();
    let registry = BackendRegistry::default();
    for name in ["verilog", "area", "sim"] {
        let backend = registry.get(name, &BackendOpts::default()).unwrap();
        assert_eq!(backend.required_pipeline(), &["lower"], "{name}");
        assert!(backend.validate(&ctx).is_err(), "{name} accepted unlowered");
        let mut out = Vec::new();
        assert!(backend.emit(&ctx, &mut out).is_err(), "{name}");
        assert!(out.is_empty(), "{name} left partial output: {out:?}");
    }
    // The printer and the interpreter accept the unlowered program.
    for name in ["calyx", "interp"] {
        let backend = registry.get(name, &BackendOpts::default()).unwrap();
        backend.validate(&ctx).unwrap();
    }
}

/// The report backends produce the stable formats the docs promise.
#[test]
fn area_reports_are_stable_and_consistent_across_formats() {
    let mut ctx = parse_context(UNLOWERED).unwrap();
    let mut pipeline = PassManager::from_names(&["lower"]).unwrap();
    pipeline.run(&mut ctx).unwrap();
    let a = area::estimate(&ctx, "main").unwrap();

    let text = String::from_utf8(emit_via_registry("area", &ctx)).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 5, "{text}");
    assert_eq!(lines[0], format!("luts {}", a.luts));
    assert_eq!(lines[1], format!("ffs {}", a.ffs));
    assert_eq!(lines[2], format!("dsps {}", a.dsps));
    assert_eq!(lines[3], format!("brams {}", a.brams));
    assert_eq!(lines[4], format!("register_cells {}", a.register_cells));

    let json_backend = BackendRegistry::default()
        .get(
            "area",
            &BackendOpts {
                format: calyx::backend::ReportFormat::Json,
                ..BackendOpts::default()
            },
        )
        .unwrap();
    let mut out = Vec::new();
    json_backend.emit(&ctx, &mut out).unwrap();
    let json = String::from_utf8(out).unwrap();
    assert_eq!(
        json.trim_end(),
        format!(
            "{{\"luts\": {}, \"ffs\": {}, \"dsps\": {}, \"brams\": {}, \"register_cells\": {}}}",
            a.luts, a.ffs, a.dsps, a.brams, a.register_cells
        )
    );
}

/// `sim` (on the lowered design) and `interp` (on the control tree) must
/// agree on final architectural state — the differential oracle, now
/// reachable through the backend registry alone.
#[test]
fn sim_and_interp_backends_agree_on_final_state() {
    let unlowered = parse_context(UNLOWERED).unwrap();
    let mut lowered = parse_context(UNLOWERED).unwrap();
    let mut pipeline = PassManager::from_names(&["lower"]).unwrap();
    pipeline.run(&mut lowered).unwrap();

    let state_lines = |report: Vec<u8>| -> Vec<String> {
        String::from_utf8(report)
            .unwrap()
            .lines()
            .filter(|l| !l.starts_with("done in "))
            // fsm registers are lowering artifacts; compare architecture.
            .filter(|l| !l.starts_with("fsm"))
            .map(str::to_string)
            .collect()
    };
    let sim = state_lines(emit_via_registry("sim", &lowered));
    let interp = state_lines(emit_via_registry("interp", &unlowered));
    assert_eq!(sim, interp);
    assert!(sim.iter().any(|l| l == "r = 7"), "{sim:?}");
}

/// Old String-returning `verilog::emit` is now a wrapper over the
/// streaming path; both reject unlowered input identically.
#[test]
fn wrapper_and_streaming_reject_identically() {
    let ctx = parse_context(UNLOWERED).unwrap();
    let via_string = verilog::emit(&ctx).unwrap_err();
    let mut out = Vec::new();
    let via_stream = verilog::emit_to(&ctx, &mut out).unwrap_err();
    assert_eq!(format!("{via_string}"), format!("{via_stream}"));
    assert!(out.is_empty());
}

/// Registry-constructed backends carry the driver options: a tiny cycle
/// budget must make the sim backend fail with a timeout, not emit.
#[test]
fn backend_opts_reach_registry_constructed_backends() {
    let mut ctx = parse_context(UNLOWERED).unwrap();
    let mut pipeline = PassManager::from_names(&["lower"]).unwrap();
    pipeline.run(&mut ctx).unwrap();
    let backend = BackendRegistry::default()
        .get(
            "sim",
            &BackendOpts {
                cycles: 1,
                ..BackendOpts::default()
            },
        )
        .unwrap();
    let mut out = Vec::new();
    let err = backend.emit(&ctx, &mut out).unwrap_err();
    assert!(format!("{err}").contains("did not complete"), "{err}");
}

/// A custom backend registers alongside the built-ins — the extension
/// story the trait exists for.
#[test]
fn third_party_backends_register_alongside_builtins() {
    struct CellCount;
    impl Backend for CellCount {
        const NAME: &'static str = "cell-count";
        const DESCRIPTION: &'static str = "count cells in the entry component";
        fn from_opts(_: &BackendOpts) -> Self {
            CellCount
        }
        fn required_pipeline(&self) -> &'static [&'static str] {
            &[]
        }
        fn validate(&self, ctx: &Context) -> calyx::core::errors::CalyxResult<()> {
            ctx.entry().map(|_| ())
        }
        fn emit(
            &self,
            ctx: &Context,
            out: &mut dyn std::io::Write,
        ) -> calyx::core::errors::CalyxResult<()> {
            writeln!(out, "{}", ctx.entry()?.cells.len())?;
            Ok(())
        }
    }

    let mut registry = BackendRegistry::default();
    registry.register::<CellCount>();
    let ctx = parse_context(UNLOWERED).unwrap();
    let backend = registry.get("cell-count", &BackendOpts::default()).unwrap();
    let mut out = Vec::new();
    backend.emit(&ctx, &mut out).unwrap();
    assert_eq!(String::from_utf8(out).unwrap().trim(), "1");
}

/// Smoke every registered backend over a design each can accept.
#[test]
fn every_registered_backend_emits_nonempty_output() {
    let unlowered = parse_context(UNLOWERED).unwrap();
    let mut lowered = parse_context(UNLOWERED).unwrap();
    let mut pipeline = PassManager::from_names(&["lower"]).unwrap();
    pipeline.run(&mut lowered).unwrap();
    for b in BackendRegistry::default().backends() {
        let ctx = if b.required_pipeline == ["lower"] {
            &lowered
        } else {
            &unlowered
        };
        let out = emit_via_registry(b.name, ctx);
        assert!(!out.is_empty(), "backend `{}` emitted nothing", b.name);
    }
}

// Keep the explicit type parameter path exercised (CalyxBackend and
// VerilogBackend are also public items, not just registry entries).
#[test]
fn concrete_backend_types_are_usable_directly() {
    let ctx = parse_context(UNLOWERED).unwrap();
    let mut out = Vec::new();
    CalyxBackend::from_opts(&BackendOpts::default())
        .emit(&ctx, &mut out)
        .unwrap();
    assert_eq!(out, Printer::print_context(&ctx).as_bytes());
    assert_eq!(VerilogBackend::NAME, "verilog");
}
