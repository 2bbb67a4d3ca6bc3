//! The Calyx intermediate language and its pass-based compiler.
//!
//! Calyx (Nigam et al., ASPLOS 2021) is an intermediate language for
//! compiling domain-specific languages to hardware. It combines a
//! hardware-like *structural* sub-language — components instantiate cells
//! and connect their ports with guarded, non-blocking assignments — with a
//! software-like *control* sub-language (`seq`, `par`, `if`, `while`) that
//! schedules *groups* of assignments.
//!
//! This crate contains:
//!
//! - [`ir`]: the program representation (components, cells, wires, groups,
//!   control, attributes), a builder API for frontends, a pretty printer,
//!   and a parser for the textual format.
//! - [`analysis`]: reusable analyses — control-flow conflict graphs,
//!   parallel control-flow graphs (pCFGs), live-range analysis, read/write
//!   sets, and port-use sites — served through a demand-driven, memoized
//!   query cache with generation-based invalidation.
//! - [`passes`]: the compiler passes, including the lowering pipeline
//!   (`GoInsertion` → `CompileControl` → `RemoveGroups`) that turns control
//!   programs into latency-insensitive finite-state machines, the
//!   latency-sensitive `StaticTiming` compiler, and the optimization passes
//!   described in the paper (resource sharing, register sharing, latency
//!   inference).
//! - [`lint`]: the `futil check` diagnostics engine — accumulating,
//!   position-carrying diagnostics and a registry of read-only lints
//!   (par-race detection, combinational cycles, dead code, …) that reuse
//!   the cached analyses.
//! - [`prim`]: what the primitive operators compute, shared by the
//!   simulator and constant folding.
//! - [`json`]: the one JSON value, reader and writer; every report and
//!   protocol response in the workspace is a [`json::Json`] rendered here.
//!
//! # Example
//!
//! Build the two-group sequence from Figure 2 of the paper and lower it:
//!
//! ```
//! use calyx_core::ir::{Builder, Context, Control};
//! use calyx_core::passes::PassManager;
//!
//! # fn main() -> Result<(), calyx_core::errors::Error> {
//! let mut ctx = Context::new();
//! let mut comp = ctx.new_component("main");
//! {
//!     let mut b = Builder::new(&mut comp, &ctx);
//!     let x = b.add_primitive("x", "std_reg", &[32]);
//!     let one = b.add_group("one");
//!     b.asgn_const(one, (x, "in"), 1, 32);
//!     b.asgn_const(one, (x, "write_en"), 1, 1);
//!     b.group_done(one, (x, "done"));
//!     let two = b.add_group("two");
//!     b.asgn_const(two, (x, "in"), 2, 32);
//!     b.asgn_const(two, (x, "write_en"), 1, 1);
//!     b.group_done(two, (x, "done"));
//!     b.set_control(Control::seq(vec![Control::enable(one), Control::enable(two)]));
//! }
//! ctx.add_component(comp);
//! PassManager::from_names(&["lower"])?.run(&mut ctx)?;
//! // After lowering, no groups or control statements remain.
//! let main = ctx.component("main").unwrap();
//! assert!(main.groups.is_empty());
//! assert!(main.control.is_empty());
//! # Ok(())
//! # }
//! ```

pub mod analysis;
pub mod errors;
pub mod ir;
pub mod json;
pub mod lint;
pub mod passes;
pub mod prim;
pub mod utils;
