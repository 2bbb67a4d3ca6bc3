//! The one simulation harness, generic over the engine that drives it.
//!
//! [`Harness`] owns everything about a simulation that does not depend on
//! how a cycle is driven: the elaborated [`FlatDesign`] and its [`Wires`],
//! the cancel flag, the cycle loop ([`Harness::run`]: the budget and a
//! look at the flag every 1,024 cycles), and every lookup —
//! [`Harness::set_input`], [`Harness::set_memory`], [`Harness::memory`],
//! [`Harness::register_value`], [`Harness::state`], [`Harness::design`],
//! [`Harness::primitive_count`] — each addressing a cell by one
//! hierarchical path ([`CellPath`]: `"pe_0_0.acc"`).
//!
//! An [`Engine`] keeps only what is its own: which designs it refuses,
//! its state beside the wires, and one cycle ([`Engine::step`]). The two
//! engines are [`crate::rtl::Rtl`] and [`crate::interp::Interp`], and
//! their harnesses are named [`crate::rtl::Simulator`] and
//! [`crate::interp::Interpreter`]. The loop calls the step of its engine
//! type directly: there is no dynamic call per cycle.

use crate::error::{SimError, SimResult};
use crate::flatten::{flatten, FlatDesign, FlatProgram, RunStats, Wires};
use calyx_core::ir::{Context, Id};
use calyx_core::prim::mask;
use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// How many cycles a run goes between looks at its cancel flag.
const CANCEL_EVERY: u64 = 1024;

/// What drives the cycle machine of a [`Harness`].
pub trait Engine: Sized {
    /// Refuse a design this engine cannot run, or set up its state over
    /// the elaborated `flat` of `ctx`.
    ///
    /// # Errors
    ///
    /// [`SimError::Elaboration`] or [`SimError::CombinationalLoop`] for a
    /// design the engine refuses.
    fn new(ctx: &Context, flat: &FlatDesign) -> SimResult<Self>;

    /// Where a run starts: the number of its first cycle, and whether it
    /// is over before that cycle.
    fn begin(&self) -> (u64, bool);

    /// Run cycle number `cycle`; whether the run is over after it.
    ///
    /// # Errors
    ///
    /// Driver-conflict and convergence errors from settling, and those of
    /// a tick.
    fn step(&mut self, flat: &mut FlatDesign, wires: &mut Wires, cycle: u64) -> SimResult<bool>;
}

/// A cell's hierarchical path: dotted (`"pe_0_0.acc"`), or its segments
/// (`["pe_0_0", "acc"]`).
pub trait CellPath {
    /// The dotted path.
    fn dotted(&self) -> Cow<'_, str>;
}

impl CellPath for str {
    fn dotted(&self) -> Cow<'_, str> {
        Cow::Borrowed(self)
    }
}

impl CellPath for String {
    fn dotted(&self) -> Cow<'_, str> {
        Cow::Borrowed(self)
    }
}

impl<S: AsRef<str>, const N: usize> CellPath for [S; N] {
    fn dotted(&self) -> Cow<'_, str> {
        Cow::Owned(self.each_ref().map(|s| s.as_ref()).join("."))
    }
}

/// A design elaborated once, run by engine `E`.
///
/// Typical use is `Harness::<E>::new(&ctx, "main")`, optional
/// [`Harness::set_memory`] calls, [`Harness::run`], then state inspection.
#[derive(Debug)]
pub struct Harness<E> {
    pub(crate) flat: FlatDesign,
    pub(crate) wires: Wires,
    pub(crate) engine: E,
    /// Set by whoever gave up on the run ([`Harness::cancel_on`]).
    cancel: Option<Arc<AtomicBool>>,
}

impl<E: Engine> Harness<E> {
    /// Elaborate the design rooted at component `top` of `ctx`, and hold
    /// its `go` high.
    ///
    /// # Errors
    ///
    /// Those of [`flatten`] and of the engine's [`Engine::new`].
    pub fn new(ctx: &Context, top: &str) -> SimResult<Self> {
        let flat = flatten(ctx, top)?;
        let engine = E::new(ctx, &flat)?;
        let mut wires = Wires::new(&flat.prog, &flat.graph);
        wires.set(&flat.graph, flat.prog.instances[0].go, 1);
        Ok(Harness {
            flat,
            wires,
            engine,
            cancel: None,
        })
    }

    /// Stop [`Harness::run`] once `flag` is set: the run looks at it every
    /// 1,024 cycles and fails with [`SimError::Cancelled`]. A service sets
    /// the flag of a job it abandoned at its deadline.
    pub fn cancel_on(&mut self, flag: Arc<AtomicBool>) {
        self.cancel = Some(flag);
    }

    /// Drive a top-level input port to `value` on every subsequent cycle.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownCell`] if `top` has no such input.
    pub fn set_input(&mut self, port: &str, value: u64) -> SimResult<()> {
        let Some(&idx) = self.flat.top_inputs.get(&Id::new(port)) else {
            return Err(SimError::UnknownCell(format!("top-level input `{port}`")));
        };
        let value = mask(value, self.flat.prog.ports[idx].width);
        self.wires.set(&self.flat.graph, idx, value);
        Ok(())
    }

    /// Load the memory at `path` (row-major for multi-dim):
    /// [`FlatProgram::set_memory`].
    ///
    /// # Errors
    ///
    /// Those of [`FlatProgram::set_memory`].
    pub fn set_memory<P: CellPath + ?Sized>(&mut self, path: &P, data: &[u64]) -> SimResult<()> {
        // A read port may show a new word under an unchanged address.
        self.wires.mark_all(&self.flat.graph);
        self.flat.prog.set_memory(&path.dotted(), data)
    }

    /// The contents of the memory at `path`.
    ///
    /// # Errors
    ///
    /// Those of [`FlatProgram::memory`].
    pub fn memory<P: CellPath + ?Sized>(&self, path: &P) -> SimResult<Vec<u64>> {
        self.flat.prog.memory(&path.dotted()).map(<[u64]>::to_vec)
    }

    /// The value of the register at `path`.
    ///
    /// # Errors
    ///
    /// Those of [`FlatProgram::register_value`].
    pub fn register_value<P: CellPath + ?Sized>(&self, path: &P) -> SimResult<u64> {
        self.flat.prog.register_value(&path.dotted())
    }

    /// The architectural state, for a report
    /// ([`crate::report::write_state_report`]).
    pub fn state(&self) -> &FlatProgram {
        &self.flat.prog
    }

    /// The flattened design this harness runs.
    pub fn design(&self) -> &FlatDesign {
        &self.flat
    }

    /// Number of primitive instances (used by compilation statistics).
    pub fn primitive_count(&self) -> usize {
        self.flat.prog.cells.len()
    }

    /// Step the engine until its run is over, and report the run's cycle
    /// count: the number after its last cycle, counted from where
    /// [`Engine::begin`] starts it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Timeout`] once the count reaches `max_cycles`
    /// with the run not over, [`SimError::Cancelled`] once the flag given
    /// to [`Harness::cancel_on`] is set, or the error of a step.
    pub fn run(&mut self, max_cycles: u64) -> SimResult<RunStats> {
        let (mut cycle, mut over) = self.engine.begin();
        while !over {
            if cycle >= max_cycles {
                return Err(SimError::Timeout { max_cycles });
            }
            if cycle.is_multiple_of(CANCEL_EVERY)
                && self
                    .cancel
                    .as_ref()
                    .is_some_and(|f| f.load(Ordering::Relaxed))
            {
                return Err(SimError::Cancelled { cycle });
            }
            over = self.engine.step(&mut self.flat, &mut self.wires, cycle)?;
            cycle += 1;
        }
        Ok(RunStats { cycles: cycle })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interp;
    use crate::rtl::Rtl;
    use calyx_core::ir::parse_context;
    use calyx_core::passes::PassManager;

    /// `src` as the interpreter runs it, and lowered for the RTL engine.
    fn both(src: &str) -> (Context, Context) {
        let mut lowered = parse_context(src).unwrap();
        let mut lower = PassManager::from_names(&["lower"]).unwrap();
        lower.run(&mut lowered).unwrap();
        (parse_context(src).unwrap(), lowered)
    }

    #[test]
    fn a_flag_set_before_the_run_stops_either_engine_at_cycle_zero() {
        /// How a run of 100 cycles ends, then one with the flag set.
        fn runs<E: Engine>(ctx: &Context) -> [SimResult<RunStats>; 2] {
            let free = Harness::<E>::new(ctx, "main").unwrap().run(100);
            let mut harness = Harness::<E>::new(ctx, "main").unwrap();
            harness.cancel_on(Arc::new(AtomicBool::new(true)));
            [free, harness.run(u64::MAX)]
        }
        // `lt.out` is always 1: the loop never ends.
        let (ctx, lowered) = both(
            r#"component main() -> () {
              cells { r = std_reg(1); lt = std_lt(2); }
              wires {
                group cond { lt.left = 2'd0; lt.right = 2'd1; cond[done] = 1'd1; }
                group body { r.in = 1'd1; r.write_en = 1'd1; body[done] = r.done; }
              }
              control { while lt.out with cond { body; } }
            }"#,
        );
        let ends = [
            Err(SimError::Timeout { max_cycles: 100 }),
            Err(SimError::Cancelled { cycle: 0 }),
        ];
        assert_eq!(runs::<Interp>(&ctx), ends);
        assert_eq!(runs::<Rtl>(&lowered), ends);
    }

    #[test]
    fn an_input_reaches_the_interpreter_as_it_reaches_the_lowered_design() {
        fn copied<E: Engine>(ctx: &Context) -> u64 {
            let mut harness = Harness::<E>::new(ctx, "main").unwrap();
            harness.set_input("x", 0x1a5).unwrap();
            harness.run(100).unwrap();
            harness.register_value("r").unwrap()
        }
        let (ctx, lowered) = both(
            r#"component main(x: 8) -> () {
              cells { r = std_reg(8); }
              wires { group copy { r.in = x; r.write_en = 1'd1; copy[done] = r.done; } }
              control { copy; }
            }"#,
        );
        // Cut to the input's 8 bits on both.
        assert_eq!(
            (copied::<Interp>(&ctx), copied::<Rtl>(&lowered)),
            (0xa5, 0xa5)
        );
    }
}
