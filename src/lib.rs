//! Umbrella crate for the Calyx reproduction.
//!
//! Re-exports the individual crates under stable module names so examples,
//! integration tests, and downstream users can depend on a single crate:
//!
//! - [`core`]: the Calyx intermediate language and the pass-based compiler
//!   (the paper's primary contribution).
//! - [`sim`]: a cycle-accurate RTL simulator (Verilator substitute) and a
//!   reference control-tree interpreter.
//! - [`backend`]: the `Backend` trait and registry, with the standard
//!   backends — Calyx printing, SystemVerilog emission, an FPGA area
//!   model (Vivado substitute), and cycle/state execution reports.
//! - [`frontend`]: the `Frontend` trait and registry — every generator
//!   below (plus the native parser) behind one ingestion API.
//! - [`systolic`]: the systolic array generator frontend (paper §6.1).
//! - [`dahlia`]: the Dahlia imperative language frontend (paper §6.2).
//! - [`hls`]: an HLS scheduling model standing in for Vivado HLS.
//! - [`polybench`]: the PolyBench linear-algebra kernels used in §7.2.
//! - [`service`]: the parallel compilation service behind `futil --batch`
//!   and `futil serve` — job queue, shared job cache, worker pool, and
//!   the JSON-lines protocol.
//! - [`plan`]: plan-based build orchestration behind `futil build` — a
//!   typed state graph derived from the four registries, a route
//!   planner, and a content-addressed artifact cache.
//!
//! # Quickstart
//!
//! ```
//! use calyx::core::ir::{Builder, Context};
//! use calyx::core::passes::PassManager;
//! use calyx::sim::rtl::Simulator;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Build a component that increments a register.
//! let mut ctx = Context::new();
//! let mut comp = ctx.new_component("main");
//! {
//!     let mut b = Builder::new(&mut comp, &ctx);
//!     let r = b.add_primitive("r", "std_reg", &[8]);
//!     let add = b.add_primitive("add", "std_add", &[8]);
//!     let g = b.add_group("incr");
//!     b.asgn(g, (add, "left"), (r, "out"));
//!     b.asgn_const(g, (add, "right"), 1, 8);
//!     b.asgn(g, (r, "in"), (add, "out"));
//!     b.asgn_const(g, (r, "write_en"), 1, 1);
//!     b.group_done(g, (r, "done"));
//!     b.set_control_enable(g);
//! }
//! ctx.add_component(comp);
//!
//! // Lower control to structural FSMs and simulate the result.
//! PassManager::from_names(&["lower"])?.run(&mut ctx)?;
//! let mut sim = Simulator::new(&ctx, "main")?;
//! let stats = sim.run(1000)?;
//! assert_eq!(sim.register_value(&["r"])?, 1);
//! assert!(stats.cycles > 0);
//! # Ok(())
//! # }
//! ```

pub use calyx_backend as backend;
pub use calyx_core as core;
pub use calyx_dahlia as dahlia;
pub use calyx_frontend as frontend;
pub use calyx_hls as hls;
pub use calyx_plan as plan;
pub use calyx_polybench as polybench;
pub use calyx_service as service;
pub use calyx_sim as sim;
pub use calyx_systolic as systolic;
