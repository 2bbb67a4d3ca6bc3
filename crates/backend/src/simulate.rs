//! The `sim` and `interp` backends: execution as emission.
//!
//! Both are one backend, [`SimulationBackend`], generic over the engine
//! of the one simulation harness ([`calyx_sim::Harness`]): it builds the
//! harness, hands it the job's cancel flag, runs it within the cycle
//! budget and streams the shared cycle/state report format (see
//! [`calyx_sim::report`]) — `done in N cycles` followed by one
//! `cell = value` line per stateful cell of the entry component. What
//! differs is per-engine data ([`SimEngine`]):
//!
//! - `sim` ([`Rtl`]) drives the cycle-accurate RTL engine over the
//!   *lowered* design. Its cycle counts are the paper's §7 measurements.
//! - `interp` ([`Interp`]) executes the *control tree* directly with the
//!   reference interpreter — the IL's executable semantics, before any
//!   lowering — component instances included: every instance runs its
//!   own control, started by its `go` port. Cycle counts differ from RTL
//!   (no FSM overhead), but final architectural state must agree;
//!   diffing the two backends' reports is a compiler-correctness check
//!   from the command line.

use crate::api::{Backend, BackendOpts, SimThroughput};
use calyx_core::errors::{CalyxResult, Error};
use calyx_core::ir::{validate, Context};
use calyx_sim::interp::Interp;
use calyx_sim::report::write_state_report;
use calyx_sim::rtl::Rtl;
use calyx_sim::{Engine, Harness, SimError};
use std::cell::Cell;
use std::io;
use std::marker::PhantomData;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

/// What a simulation backend says of its engine.
pub trait SimEngine: Engine {
    /// [`Backend::NAME`].
    const NAME: &'static str;
    /// [`Backend::DESCRIPTION`].
    const DESCRIPTION: &'static str;
    /// [`Backend::EXTENSION`].
    const EXTENSION: &'static str;
    /// [`Backend::required_pipeline`].
    const PIPELINE: &'static [&'static str];

    /// [`Backend::validate`].
    ///
    /// # Errors
    ///
    /// The input is not one the engine runs.
    fn validate(ctx: &Context) -> CalyxResult<()>;
}

impl SimEngine for Rtl {
    const NAME: &'static str = "sim";
    const DESCRIPTION: &'static str =
        "simulate the lowered design cycle-accurately and report cycles + final state";
    const EXTENSION: &'static str = "sim";
    const PIPELINE: &'static [&'static str] = &["lower"];

    fn validate(ctx: &Context) -> CalyxResult<()> {
        ctx.entry()?;
        validate::require_lowered(ctx)
    }
}

impl SimEngine for Interp {
    const NAME: &'static str = "interp";
    const DESCRIPTION: &'static str =
        "execute the control tree with the reference interpreter and report cycles + final state";
    const EXTENSION: &'static str = "interp";
    const PIPELINE: &'static [&'static str] = &["none"];

    fn validate(ctx: &Context) -> CalyxResult<()> {
        ctx.entry().map(drop)
    }
}

/// Runs engine `E` and reports cycles + final state.
pub struct SimulationBackend<E> {
    cycles: u64,
    /// The flag given to [`Backend::cancel_on`], handed to the harness.
    cancel: Option<Arc<AtomicBool>>,
    /// Cycles/wall-time of the last successful `emit` (see
    /// [`Backend::throughput`]); interior-mutable because `emit` takes
    /// `&self`.
    throughput: Cell<Option<SimThroughput>>,
    engine: PhantomData<fn() -> E>,
}

impl<E: SimEngine> Backend for SimulationBackend<E> {
    const NAME: &'static str = E::NAME;
    const DESCRIPTION: &'static str = E::DESCRIPTION;
    const EXTENSION: &'static str = E::EXTENSION;

    fn from_opts(opts: &BackendOpts) -> Self {
        SimulationBackend {
            cycles: opts.cycles,
            cancel: None,
            throughput: Cell::new(None),
            engine: PhantomData,
        }
    }

    fn required_pipeline(&self) -> &'static [&'static str] {
        E::PIPELINE
    }

    fn validate(&self, ctx: &Context) -> CalyxResult<()> {
        E::validate(ctx)
    }

    /// These are *runtime* failures (timeouts, driver conflicts) on
    /// well-formed programs, not malformed input, each named with the
    /// backend that hit it.
    fn emit(&self, ctx: &Context, out: &mut dyn io::Write) -> CalyxResult<()> {
        self.validate(ctx)?;
        let failed = |e: SimError| Error::backend(E::NAME, format!("simulation failed: {e}"));
        let top = ctx.entrypoint.as_str();
        let mut harness = Harness::<E>::new(ctx, top).map_err(failed)?;
        if let Some(flag) = &self.cancel {
            harness.cancel_on(Arc::clone(flag));
        }
        let start = Instant::now();
        let stats = harness.run(self.cycles).map_err(failed)?;
        self.throughput.set(Some(SimThroughput {
            cycles: stats.cycles,
            wall: start.elapsed(),
        }));
        write_state_report(harness.state(), ctx.entry()?, stats, out)?;
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

    /// Name, description, extension and pipeline of backend `B`.
    fn metadata<B: Backend>() -> [&'static str; 4] {
        let pipeline = B::from_opts(&BackendOpts::default()).required_pipeline();
        let [pipeline] = pipeline else {
            panic!("{}: one pipeline name, not {pipeline:?}", B::NAME)
        };
        [B::NAME, B::DESCRIPTION, B::EXTENSION, pipeline]
    }

    #[test]
    fn each_engine_keeps_its_backend_metadata() {
        assert_eq!(
            metadata::<SimulationBackend<Rtl>>(),
            [
                "sim",
                "simulate the lowered design cycle-accurately and report cycles + final state",
                "sim",
                "lower",
            ]
        );
        assert_eq!(
            metadata::<SimulationBackend<Interp>>(),
            [
                "interp",
                "execute the control tree with the reference interpreter and report cycles + \
                 final state",
                "interp",
                "none",
            ]
        );
    }

    #[test]
    fn sim_backend_reports_cycles_and_state_of_the_lowered_design() {
        let mut ctx = parse_context(COUNTER).unwrap();
        let mut pipeline = PassManager::from_names(&["lower"]).unwrap();
        pipeline.run(&mut ctx).unwrap();
        let backend = SimulationBackend::<Rtl>::from_opts(&BackendOpts::default());
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
        let backend = SimulationBackend::<Interp>::from_opts(&BackendOpts::default());
        backend.validate(&ctx).unwrap();
        let mut out = Vec::new();
        backend.emit(&ctx, &mut out).unwrap();
        let report = String::from_utf8(out).unwrap();
        assert!(report.contains("i = 3"), "{report}");
    }

    #[test]
    fn sim_backend_rejects_unlowered_input_without_output() {
        let ctx = parse_context(COUNTER).unwrap();
        let backend = SimulationBackend::<Rtl>::from_opts(&BackendOpts::default());
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
        let backend = SimulationBackend::<Rtl>::from_opts(&BackendOpts {
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
        let sim = SimulationBackend::<Rtl>::from_opts(&BackendOpts::default());
        assert!(
            Backend::throughput(&sim).is_none(),
            "throughput before any run"
        );
        sim.emit(&lowered, &mut Vec::new()).unwrap();
        let t = Backend::throughput(&sim).expect("throughput after a successful run");
        assert!(t.cycles > 0);
        assert!(t.cycles_per_sec() > 0.0);

        let ctx = parse_context(COUNTER).unwrap();
        let interp = SimulationBackend::<Interp>::from_opts(&BackendOpts::default());
        interp.emit(&ctx, &mut Vec::new()).unwrap();
        let t = Backend::throughput(&interp).expect("interp throughput");
        assert!(t.cycles > 0);
    }
}
