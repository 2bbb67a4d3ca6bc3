//! `futil check` — the diagnostics engine and lint framework.
//!
//! Compilation fails fast: the first malformed construct aborts the
//! pipeline. Checking is the opposite discipline — run *every* check,
//! collect *every* finding, and report them all at once with source
//! positions. This module provides that machinery as the repo's fourth
//! registry (after passes, backends, and frontends):
//!
//! - [`Diagnostic`]: one finding — severity, a stable code (`C0101`), the
//!   producing lint's name, a message, an optional source position
//!   (rendered with the same caret machinery as parse errors), and notes.
//! - [`DiagnosticSink`]: accumulates findings instead of failing fast,
//!   sorts them by position, and renders text or schema-stable JSON.
//! - [`Lint`] + [`LintRegistry`]: named, described, registerable checks.
//!   Each lint runs read-only over `(&Context, &mut AnalysisCache)`,
//!   reusing the same cached analyses the optimizer queries
//!   ([`ParConflicts`](crate::analysis::ParConflicts),
//!   [`ReadWriteSets`](crate::analysis::ReadWriteSets),
//!   [`PortUses`](crate::analysis::PortUses)).
//!
//! Positions come from the parser's [`SourceMap`](crate::ir::SourceMap)
//! side table; generated programs simply produce position-free findings.
//!
//! # Registered lints
//!
//! | code | name | severity | description |
//! |------|------|----------|-------------|
//! | `C0100` | `well-formed` | error | structural violations: bad widths, duplicate drivers, undefined names, ghost groups |
//! | `C0101` | `par-race` | error | registers or memories touched by two groups that may run in parallel |
//! | `C0102` | `comb-cycle` | error | combinational feedback loops (no register on a cycle) |
//! | `C0103` | `multiple-drivers` | error | ports driven unconditionally from scopes that may be active together |
//! | `C0104` | `unreachable-control` | error | if/while conditions that are provably constant (dead branches, infinite loops) |
//! | `C0105` | `uninit-read` | error | register reads that always observe the undefined power-on value |
//! | `C0201` | `dead-cell` | warning | cells never referenced by any assignment or condition |
//! | `C0202` | `dead-group` | warning | groups the control program never enables |
//! | `C0203` | `unused-port` | warning | signature inputs never read, outputs never written |
//! | `C0204` | `width-truncation` | warning | constants whose value does not fit the declared width |
//! | `C0205` | `dead-write` | warning | register writes that are overwritten or never read afterwards |
//! | `C0206` | `const-loop` | warning | while conditions held constant by the register values reaching the loop |
//!
//! (This table is checked against the registry by a test; `futil
//! --list-lints` prints the same names and descriptions. The dataflow-
//! backed lints — `uninit-read`, `dead-write`, `const-loop`, and the
//! constant evaluation behind `unreachable-control` — all ride on the
//! fixpoint engine in [`analysis::dataflow`](crate::analysis::dataflow).)
//!
//! # Example
//!
//! ```
//! use calyx_core::analysis::AnalysisCache;
//! use calyx_core::ir::parse_context;
//! use calyx_core::lint::LintRegistry;
//!
//! let ctx = parse_context(
//!     r#"component main() -> () {
//!         cells { r = std_reg(8); }
//!         wires {
//!           group wa { r.in = 8'd1; r.write_en = 1'd1; wa[done] = r.done; }
//!           group wb { r.in = 8'd2; r.write_en = 1'd1; wb[done] = r.done; }
//!         }
//!         control { par { wa; wb; } }
//!     }"#,
//! ).unwrap();
//! let sink = LintRegistry::default().check_all(&ctx, &mut AnalysisCache::new());
//! assert!(sink.diagnostics().iter().any(|d| d.code == "C0101"));
//! ```

mod comb_cycle;
mod const_loop;
mod dead_cell;
mod dead_group;
mod dead_write;
mod diagnostic;
mod multiple_drivers;
mod par_race;
mod registry;
mod sink;
mod uninit_read;
mod unreachable_control;
mod unused_port;
mod well_formed;
mod width_truncation;

pub use comb_cycle::CombCycle;
pub use const_loop::ConstLoop;
pub use dead_cell::DeadCell;
pub use dead_group::DeadGroup;
pub use dead_write::DeadWrite;
pub use diagnostic::{Diagnostic, Severity};
pub use multiple_drivers::MultipleDrivers;
pub use par_race::ParRace;
pub use registry::{Lint, LintRegistry, RegisteredLint};
pub use sink::DiagnosticSink;
pub use uninit_read::UninitRead;
pub use unreachable_control::UnreachableControl;
pub use unused_port::UnusedPort;
pub use well_formed::WellFormedLint;
pub use width_truncation::WidthTruncation;
