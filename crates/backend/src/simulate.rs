//! The `sim` and `interp` backends: execution as emission.
//!
//! Both run the program and stream the shared cycle/state report format
//! (see [`calyx_sim::report`]) — `done in N cycles` followed by one
//! `cell = value` line per stateful cell of the entry component:
//!
//! - [`SimBackend`] drives the cycle-accurate RTL engine over the
//!   *lowered* design. Its cycle counts are the paper's §7 measurements.
//! - [`InterpBackend`] executes the *control tree* directly with the
//!   reference interpreter — the IL's executable semantics, before any
//!   lowering. Cycle counts differ from RTL (no FSM overhead), but final
//!   architectural state must agree; diffing the two backends' reports is
//!   a compiler-correctness check from the command line.

use crate::api::{Backend, BackendOpts, SimThroughput};
use calyx_core::errors::{CalyxResult, Error};
use calyx_core::ir::{validate, Context};
use calyx_sim::interp::Interpreter;
use calyx_sim::report::write_state_report;
use calyx_sim::rtl::Simulator;
use calyx_sim::SimError;
use std::cell::Cell;
use std::io;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

/// Map a simulation failure into the compiler's error type, naming the
/// backend that hit it. These are *runtime* failures (timeouts, driver
/// conflicts) on well-formed programs, not malformed input.
fn sim_error(backend: &'static str, e: SimError) -> Error {
    Error::backend(backend, format!("simulation failed: {e}"))
}

/// Runs the cycle-accurate RTL simulator and reports cycles + final
/// state. Requires a lowered design (the RTL engine models the emitted
/// SystemVerilog 1:1).
pub struct SimBackend {
    cycles: u64,
    /// The flag given to [`Backend::cancel_on`], handed to the engine.
    cancel: Option<Arc<AtomicBool>>,
    /// Cycles/wall-time of the last successful `emit` (see
    /// [`Backend::throughput`]); interior-mutable because `emit` takes
    /// `&self`.
    throughput: Cell<Option<SimThroughput>>,
}

impl Backend for SimBackend {
    const NAME: &'static str = "sim";
    const DESCRIPTION: &'static str =
        "simulate the lowered design cycle-accurately and report cycles + final state";
    const EXTENSION: &'static str = "sim";

    fn from_opts(opts: &BackendOpts) -> Self {
        SimBackend {
            cycles: opts.cycles,
            cancel: None,
            throughput: Cell::new(None),
        }
    }

    fn required_pipeline(&self) -> &'static [&'static str] {
        &["lower"]
    }

    fn validate(&self, ctx: &Context) -> CalyxResult<()> {
        ctx.entry()?;
        validate::require_lowered(ctx)
    }

    fn emit(&self, ctx: &Context, out: &mut dyn io::Write) -> CalyxResult<()> {
        self.validate(ctx)?;
        let top = ctx.entrypoint.as_str();
        let mut sim = Simulator::new(ctx, top).map_err(|e| sim_error(Self::NAME, e))?;
        if let Some(flag) = &self.cancel {
            sim.cancel_on(Arc::clone(flag));
        }
        let start = Instant::now();
        let stats = sim.run(self.cycles).map_err(|e| sim_error(Self::NAME, e))?;
        self.throughput.set(Some(SimThroughput {
            cycles: stats.cycles,
            wall: start.elapsed(),
        }));
        write_state_report(sim.state(), ctx.entry()?, stats, out)?;
        Ok(())
    }

    fn throughput(&self) -> Option<SimThroughput> {
        self.throughput.get()
    }

    fn cancel_on(&mut self, flag: Arc<AtomicBool>) {
        self.cancel = Some(flag);
    }
}

/// Runs the reference control-tree interpreter and reports cycles +
/// final state. Consumes *un-lowered* programs (its declared pipeline is
/// `none`, i.e. validation only), component instances included: every
/// instance runs its own control, started by its `go` port.
pub struct InterpBackend {
    cycles: u64,
    /// See [`SimBackend`]'s field of the same name.
    cancel: Option<Arc<AtomicBool>>,
    /// See [`SimBackend`]'s field of the same name.
    throughput: Cell<Option<SimThroughput>>,
}

impl Backend for InterpBackend {
    const NAME: &'static str = "interp";
    const DESCRIPTION: &'static str =
        "execute the control tree with the reference interpreter and report cycles + final state";
    const EXTENSION: &'static str = "interp";

    fn from_opts(opts: &BackendOpts) -> Self {
        InterpBackend {
            cycles: opts.cycles,
            cancel: None,
            throughput: Cell::new(None),
        }
    }

    fn required_pipeline(&self) -> &'static [&'static str] {
        &["none"]
    }

    fn validate(&self, ctx: &Context) -> CalyxResult<()> {
        ctx.entry().map(drop)
    }

    fn emit(&self, ctx: &Context, out: &mut dyn io::Write) -> CalyxResult<()> {
        self.validate(ctx)?;
        let top = ctx.entrypoint.as_str();
        let mut interp = Interpreter::new(ctx, top).map_err(|e| sim_error(Self::NAME, e))?;
        if let Some(flag) = &self.cancel {
            interp.cancel_on(Arc::clone(flag));
        }
        let start = Instant::now();
        let stats = interp
            .run(self.cycles)
            .map_err(|e| sim_error(Self::NAME, e))?;
        self.throughput.set(Some(SimThroughput {
            cycles: stats.cycles,
            wall: start.elapsed(),
        }));
        write_state_report(interp.state(), ctx.entry()?, stats, out)?;
        Ok(())
    }

    fn throughput(&self) -> Option<SimThroughput> {
        self.throughput.get()
    }

    fn cancel_on(&mut self, flag: Arc<AtomicBool>) {
        self.cancel = Some(flag);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calyx_core::ir::parse_context;
    use calyx_core::passes::PassManager;

    const COUNTER: &str = r#"
        component main() -> () {
          cells {
            i = std_reg(8);
            add = std_add(8);
            lt = std_lt(8);
          }
          wires {
            group init { i.in = 8'd0; i.write_en = 1'd1; init[done] = i.done; }
            group cond { lt.left = i.out; lt.right = 8'd3; cond[done] = 1'd1; }
            group incr {
              add.left = i.out; add.right = 8'd1;
              i.in = add.out; i.write_en = 1'd1; incr[done] = i.done;
            }
          }
          control { seq { init; while lt.out with cond { incr; } } }
        }
    "#;

    #[test]
    fn sim_backend_reports_cycles_and_state_of_the_lowered_design() {
        let mut ctx = parse_context(COUNTER).unwrap();
        let mut pipeline = PassManager::from_names(&["lower"]).unwrap();
        pipeline.run(&mut ctx).unwrap();
        let backend = SimBackend::from_opts(&BackendOpts::default());
        backend.validate(&ctx).unwrap();
        let mut out = Vec::new();
        backend.emit(&ctx, &mut out).unwrap();
        let report = String::from_utf8(out).unwrap();
        assert!(report.starts_with("done in "), "{report}");
        assert!(report.contains("i = 3"), "{report}");
    }

    #[test]
    fn interp_backend_agrees_on_final_state_without_lowering() {
        let ctx = parse_context(COUNTER).unwrap();
        let backend = InterpBackend::from_opts(&BackendOpts::default());
        backend.validate(&ctx).unwrap();
        let mut out = Vec::new();
        backend.emit(&ctx, &mut out).unwrap();
        let report = String::from_utf8(out).unwrap();
        assert!(report.contains("i = 3"), "{report}");
    }

    #[test]
    fn sim_backend_rejects_unlowered_input_without_output() {
        let ctx = parse_context(COUNTER).unwrap();
        let backend = SimBackend::from_opts(&BackendOpts::default());
        assert!(backend.validate(&ctx).is_err());
        let mut out = Vec::new();
        assert!(backend.emit(&ctx, &mut out).is_err());
        assert!(out.is_empty(), "partial output on precondition failure");
    }

    #[test]
    fn cycle_budget_flows_through_backend_opts() {
        let mut ctx = parse_context(COUNTER).unwrap();
        let mut pipeline = PassManager::from_names(&["lower"]).unwrap();
        pipeline.run(&mut ctx).unwrap();
        let backend = SimBackend::from_opts(&BackendOpts {
            cycles: 1,
            ..BackendOpts::default()
        });
        let err = backend.emit(&ctx, &mut Vec::new()).unwrap_err();
        assert!(format!("{err}").contains("1 cycles"), "{err}");
    }

    #[test]
    fn simulation_backends_record_throughput_on_success() {
        let mut lowered = parse_context(COUNTER).unwrap();
        let mut pipeline = PassManager::from_names(&["lower"]).unwrap();
        pipeline.run(&mut lowered).unwrap();
        let sim = SimBackend::from_opts(&BackendOpts::default());
        assert!(
            Backend::throughput(&sim).is_none(),
            "throughput before any run"
        );
        sim.emit(&lowered, &mut Vec::new()).unwrap();
        let t = Backend::throughput(&sim).expect("throughput after a successful run");
        assert!(t.cycles > 0);
        assert!(t.cycles_per_sec() > 0.0);

        let ctx = parse_context(COUNTER).unwrap();
        let interp = InterpBackend::from_opts(&BackendOpts::default());
        interp.emit(&ctx, &mut Vec::new()).unwrap();
        let t = Backend::throughput(&interp).expect("interp throughput");
        assert!(t.cycles > 0);
    }
}
