//! The [`Frontend`] trait and [`FrontendRegistry`]: ingestion as a
//! first-class, data-driven API.
//!
//! The paper's thesis is that Calyx is *shared infrastructure for
//! accelerator generators*: many frontends — DSL compilers, parametric
//! hardware generators, benchmark suites — produce the one IL, and one
//! compiler lowers them all. This crate is the API that makes the first
//! half of that sentence concrete. A frontend is anything implementing
//! [`Frontend`]:
//!
//! - a unique kebab-case [`Frontend::NAME`] (the `futil -f` argument)
//!   and one-line [`Frontend::DESCRIPTION`],
//! - [`Frontend::extensions`] — the file extensions drivers infer it
//!   from (`.futil` → `calyx`, `.fuse` → `dahlia`),
//! - [`Frontend::options`] + [`Frontend::from_opts`] — the generator
//!   parameters it consumes from repeated `--fopt key=value` flags,
//!   with unknown keys rejected by name,
//! - [`Frontend::parse`] — source text in, Calyx
//!   [`Context`](calyx_core::ir::Context) out.
//!
//! [`FrontendRegistry`] is a [`Registry`](calyx_core::utils::Registry) of
//! frontends, under the contract every registry in the workspace shares:
//! selection by name with unknown names listing the valid choices, panics
//! on malformed or duplicate registrations, plus extension-based lookup
//! for inference.
//! Four frontends are registered by default:
//!
//! | Frontend | Source | Generates |
//! |---|---|---|
//! | [`CalyxFrontend`] | textual Calyx (`.futil`) | the parsed program, byte-identical to [`parse_context`](calyx_core::ir::parse_context) |
//! | [`DahliaFrontend`] | Dahlia (`.fuse`, §6.2) | the compiled imperative program |
//! | [`SystolicFrontend`] | a `rows/cols/inner/width` config (`.systolic`, §6.1) | a matrix-multiply systolic array |
//! | [`PolybenchFrontend`] | a kernel name (§7.2) | that benchmark's seed program |
//!
//! With both registries in hand, a driver is one straight line from any
//! source to any backend:
//!
//! ```
//! use calyx_backend::{BackendOpts, BackendRegistry};
//! use calyx_core::passes::PassManager;
//! use calyx_frontend::{FrontendOpts, FrontendRegistry};
//!
//! // futil - -f systolic --fopt rows=2 --fopt cols=2 --fopt inner=2 -b verilog
//! let mut fopts = FrontendOpts::default();
//! for flag in ["rows=2", "cols=2", "inner=2"] {
//!     fopts.push_flag(flag).unwrap();
//! }
//! let frontend = FrontendRegistry::default().get("systolic", &fopts).unwrap();
//! let mut ctx = frontend.parse("").unwrap();
//!
//! let backend = BackendRegistry::default()
//!     .get("verilog", &BackendOpts::default())
//!     .unwrap();
//! let mut pm = PassManager::from_names(backend.required_pipeline()).unwrap();
//! pm.run(&mut ctx).unwrap();
//! let mut out = Vec::new();
//! backend.emit(&ctx, &mut out).unwrap();
//! assert!(String::from_utf8(out).unwrap().contains("module main"));
//! ```
//!
//! (The doctest depends on `calyx_backend` only for illustration; the
//! crate itself does not.)

pub mod api;
mod dahlia;
mod native;
mod polybench;
mod systolic;

pub use api::{DynFrontend, Frontend, FrontendOpts, FrontendRegistry, RegisteredFrontend};
pub use dahlia::DahliaFrontend;
pub use native::CalyxFrontend;
pub use polybench::PolybenchFrontend;
pub use systolic::SystolicFrontend;
