//! Backends: interchangeable consumers of compiled Calyx programs.
//!
//! The paper's core claim (§4.2) is that Calyx is an *infrastructure*:
//! frontends lower into the IL, passes transform it, and any number of
//! backends consume the result. This crate makes the consuming side a
//! first-class API. Every backend implements the [`Backend`] trait:
//!
//! - [`Backend::NAME`] / [`Backend::DESCRIPTION`] identify it to drivers
//!   (`futil -b <name>`, `--list-backends`);
//! - [`Backend::required_pipeline`] declares, as pass-registry names and
//!   aliases, the pipeline its input is expected to have run;
//! - [`Backend::validate`] checks the structural consequences ("no
//!   groups, no control" for SystemVerilog) before any output exists;
//! - [`Backend::emit`] streams the result into any
//!   [`io::Write`](std::io::Write) sink — a file, a pipe, a `Vec<u8>` —
//!   without materializing it as one giant `String` first.
//!
//! [`BackendRegistry`] is a [`Registry`](calyx_core::utils::Registry) of
//! backends: kebab-case names, panics on registration mistakes, and
//! [`Error::Undefined`] (listing the valid choices) on unknown lookups —
//! the contract every registry in the workspace shares. The five standard
//! backends, in registry order:
//!
//! | backend | module | consumes |
//! |---|---|---|
//! | `calyx` | [`mod@print`] | any program — the [`Printer`](calyx_core::ir::Printer) as a backend |
//! | `verilog` | [`verilog`] | lowered programs → synthesizable SystemVerilog (the paper's `Lower` output, §4.2) |
//! | `area` | [`area`] | lowered programs → deterministic FPGA resource report (the Vivado substitute behind Figures 7b/8b/9) |
//! | `sim` | [`simulate`] | lowered programs → cycle-accurate execution report (the Verilator substitute) |
//! | `interp` | [`simulate`] | un-lowered programs → reference-interpreter execution report (the IL's executable semantics) |
//!
//! Driver-level options ([`BackendOpts`]: cycle budgets, report formats)
//! are captured at construction via [`Backend::from_opts`], so `emit`
//! keeps the uniform `(&Context, &mut dyn Write)` shape the registry
//! needs.
//!
//! [`Error::Undefined`]: calyx_core::errors::Error::Undefined

pub mod api;
pub mod area;
pub mod print;
pub mod simulate;
pub mod verilog;

pub use api::{
    Backend, BackendOpts, BackendRegistry, DynBackend, RegisteredBackend, ReportFormat,
    SimThroughput,
};
pub use area::{estimate, Area, AreaBackend};
pub use print::CalyxBackend;
pub use simulate::{SimEngine, SimulationBackend};
pub use verilog::{emit, VerilogBackend};
