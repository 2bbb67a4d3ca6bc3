//! The [`Backend`] trait and [`BackendRegistry`]: emission as a
//! first-class, data-driven API.
//!
//! A backend consumes a compiled [`Context`] and streams its output into
//! any [`io::Write`] sink. The trait splits that into a contract with
//! three obligations:
//!
//! 1. [`Backend::required_pipeline`] *declares* (as pass-registry names
//!    and aliases) which pipeline the input is expected to have run.
//!    Drivers use it as the default `-p` pipeline and quote it in
//!    precondition errors.
//! 2. [`Backend::validate`] *checks* the structural consequences of that
//!    pipeline (e.g. "no groups, no control" for SystemVerilog) before a
//!    single byte is written, so an unmet precondition can never produce
//!    partial output.
//! 3. [`Backend::emit`] streams the result. Emission never builds the
//!    whole output in memory first.
//!
//! [`BackendRegistry`] is a [`Registry`] of backends, under the contract
//! every registry shares: backends register a unique kebab-case
//! [`Backend::NAME`] plus a one-line [`Backend::DESCRIPTION`], lookups of
//! unknown names return [`Error::Undefined`] listing the valid choices,
//! and duplicate or ill-formatted names panic at registration time.
//!
//! [`Error::Undefined`]: calyx_core::errors::Error::Undefined
//!
//! ```
//! use calyx_backend::{BackendOpts, BackendRegistry};
//! use calyx_core::ir::parse_context;
//! use calyx_core::passes::PassManager;
//!
//! let mut ctx = parse_context(
//!     "component main() -> () {
//!        cells { r = std_reg(8); }
//!        wires { group g { r.in = 8'd7; r.write_en = 1'd1; g[done] = r.done; } }
//!        control { g; }
//!      }",
//! )
//! .unwrap();
//! let registry = BackendRegistry::default();
//! let backend = registry.get("verilog", &BackendOpts::default()).unwrap();
//!
//! // An unlowered input fails `validate`, cleanly, before any output.
//! assert!(backend.validate(&ctx).is_err());
//!
//! // The backend's declared pipeline is the fix.
//! let mut pm = PassManager::from_names(backend.required_pipeline()).unwrap();
//! pm.run(&mut ctx).unwrap();
//! backend.validate(&ctx).unwrap();
//! let mut out = Vec::new();
//! backend.emit(&ctx, &mut out).unwrap();
//! assert!(String::from_utf8(out).unwrap().contains("module main"));
//! ```

use calyx_core::errors::CalyxResult;
use calyx_core::ir::Context;
use calyx_core::utils::{Entry, Registry};
use std::io;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Output format for report-style backends (currently consumed by
/// [`area`](crate::area::AreaBackend)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReportFormat {
    /// Line-oriented `key value` text (stable; one metric per line).
    #[default]
    Text,
    /// A single JSON object.
    Json,
}

impl ReportFormat {
    /// The format's name as `--format` and a request's `format` spell it.
    pub fn name(self) -> &'static str {
        match self {
            ReportFormat::Text => "text",
            ReportFormat::Json => "json",
        }
    }
}

/// Driver-level options a backend may consume at construction time.
///
/// The driver parses these from its own flags (`futil --cycles`,
/// `--format`) and hands the whole bag to
/// [`BackendRegistry::get`]; each backend picks out the fields it cares
/// about and ignores the rest, so adding an option never touches
/// unrelated backends.
#[derive(Debug, Clone)]
pub struct BackendOpts {
    /// Simulation cycle budget (`sim` and `interp`).
    pub cycles: u64,
    /// Report format (`area`).
    pub format: ReportFormat,
}

impl Default for BackendOpts {
    fn default() -> Self {
        BackendOpts {
            cycles: 1_000_000,
            format: ReportFormat::Text,
        }
    }
}

/// Measured throughput of a simulation-style backend's most recent
/// [`Backend::emit`]: how many cycles the engine stepped and how long the
/// cycle loop took on the wall clock.
///
/// Engine construction (flattening, elaboration) is excluded — the
/// number answers "how fast does this engine simulate", which is what
/// `futil --time`/`--stats` report as `cycles/sec`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimThroughput {
    /// Simulated cycles completed.
    pub cycles: u64,
    /// Wall-clock time spent inside the cycle loop.
    pub wall: std::time::Duration,
}

impl SimThroughput {
    /// Simulated cycles per wall-clock second.
    pub fn cycles_per_sec(&self) -> f64 {
        // Sub-nanosecond walls (empty control) would divide by zero;
        // clamp to the clock's own resolution instead.
        self.cycles as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// A consumer of compiled Calyx programs.
///
/// See the [module docs](self) for the contract. Implementations are
/// cheap value types constructed from [`BackendOpts`]; all real work
/// happens in [`Backend::emit`].
pub trait Backend {
    /// Unique kebab-case name — the `-b` argument.
    const NAME: &'static str;

    /// One-line description for `--list-backends` and generated docs.
    const DESCRIPTION: &'static str;

    /// File extension (without the dot) drivers use when inventing an
    /// output file name for this backend (`futil --batch --out-dir`).
    /// Defaults to `out`; emitters of a well-known format override it.
    const EXTENSION: &'static str = "out";

    /// Construct the backend, capturing the options it consumes.
    fn from_opts(opts: &BackendOpts) -> Self
    where
        Self: Sized;

    /// Pass-registry names/aliases the input is expected to have run.
    ///
    /// Drivers append this pipeline when the user specifies none, and
    /// name it in the error when [`Backend::validate`] rejects an
    /// explicitly-compiled input. Empty means "consumes any program".
    fn required_pipeline(&self) -> &'static [&'static str];

    /// Check structural preconditions on the input *before* emission.
    ///
    /// # Errors
    ///
    /// Returns the violation ([`Error::Malformed`] for structural
    /// problems) without writing any output.
    ///
    /// [`Error::Malformed`]: calyx_core::errors::Error::Malformed
    fn validate(&self, ctx: &Context) -> CalyxResult<()>;

    /// Stream the backend's output into `out`.
    ///
    /// Implementations re-check [`Backend::validate`]'s preconditions
    /// before writing, so a failed emission on an invalid program
    /// produces no partial output.
    ///
    /// # Errors
    ///
    /// Returns precondition violations, backend-specific failures (e.g.
    /// a simulation timeout), or [`Error::Io`] when `out` fails.
    ///
    /// [`Error::Io`]: calyx_core::errors::Error::Io
    fn emit(&self, ctx: &Context, out: &mut dyn io::Write) -> CalyxResult<()>;

    /// Throughput of the most recent successful [`Backend::emit`], for
    /// backends that *run* the program rather than print it.
    ///
    /// Non-simulation backends keep the default `None`; drivers print
    /// the measurement (cycles, wall time, cycles/sec) under
    /// `--time`/`--stats` when it is present.
    fn throughput(&self) -> Option<SimThroughput> {
        None
    }

    /// Stop a later [`Backend::emit`] early once `flag` is set: a backend
    /// that runs the program fails with an error that names the
    /// cancellation. A service sets the flag of a job it abandoned at its
    /// deadline. Backends that only print ignore it.
    fn cancel_on(&mut self, _flag: Arc<AtomicBool>) {}
}

/// Object-safe view of a [`Backend`].
///
/// The associated consts make [`Backend`] itself non-object-safe; every
/// `Backend` automatically implements this companion, which is what
/// [`BackendRegistry::get`] hands back to drivers.
pub trait DynBackend {
    /// [`Backend::NAME`].
    fn name(&self) -> &'static str;
    /// [`Backend::EXTENSION`].
    fn extension(&self) -> &'static str;
    /// [`Backend::required_pipeline`].
    fn required_pipeline(&self) -> &'static [&'static str];
    /// [`Backend::validate`].
    ///
    /// # Errors
    ///
    /// See [`Backend::validate`].
    fn validate(&self, ctx: &Context) -> CalyxResult<()>;
    /// [`Backend::emit`].
    ///
    /// # Errors
    ///
    /// See [`Backend::emit`].
    fn emit(&self, ctx: &Context, out: &mut dyn io::Write) -> CalyxResult<()>;
    /// [`Backend::throughput`].
    fn throughput(&self) -> Option<SimThroughput>;
    /// [`Backend::cancel_on`].
    fn cancel_on(&mut self, flag: Arc<AtomicBool>);
}

impl<B: Backend> DynBackend for B {
    fn name(&self) -> &'static str {
        B::NAME
    }

    fn extension(&self) -> &'static str {
        B::EXTENSION
    }

    fn required_pipeline(&self) -> &'static [&'static str] {
        Backend::required_pipeline(self)
    }

    fn validate(&self, ctx: &Context) -> CalyxResult<()> {
        Backend::validate(self, ctx)
    }

    fn emit(&self, ctx: &Context, out: &mut dyn io::Write) -> CalyxResult<()> {
        Backend::emit(self, ctx, out)
    }

    fn throughput(&self) -> Option<SimThroughput> {
        Backend::throughput(self)
    }

    fn cancel_on(&mut self, flag: Arc<AtomicBool>) {
        Backend::cancel_on(self, flag);
    }
}

/// A backend known to the registry.
pub struct RegisteredBackend {
    /// The backend's unique kebab-case name.
    pub name: &'static str,
    /// One-line description (from [`Backend::DESCRIPTION`]).
    pub description: &'static str,
    /// The backend's declared pipeline (see
    /// [`Backend::required_pipeline`]), captured at registration.
    pub required_pipeline: &'static [&'static str],
    /// Output file extension (from [`Backend::EXTENSION`]), captured at
    /// registration — used by `--out-dir` and plan artifact naming.
    pub extension: &'static str,
    ctor: fn(&BackendOpts) -> Box<dyn DynBackend>,
}

impl Entry for RegisteredBackend {
    const KIND: &'static str = "backend";

    fn name(&self) -> &str {
        self.name
    }

    fn description(&self) -> &str {
        self.description
    }

    /// The declared pipeline, when there is one.
    fn note(&self) -> String {
        if self.required_pipeline.is_empty() {
            String::new()
        } else {
            format!(" [pipeline: {}]", self.required_pipeline.join(" -> "))
        }
    }
}

/// A registry of named backends.
///
/// [`BackendRegistry::default`] knows every backend in this crate;
/// drivers can [`register`](BackendRegistry::register) their own on top.
pub struct BackendRegistry {
    backends: Registry<RegisteredBackend>,
}

impl Default for BackendRegistry {
    /// The standard registry: `calyx`, `verilog`, `area`, `sim`, and
    /// `interp`, in listing order.
    fn default() -> Self {
        let mut reg = BackendRegistry::empty();
        reg.register::<crate::print::CalyxBackend>();
        reg.register::<crate::verilog::VerilogBackend>();
        reg.register::<crate::area::AreaBackend>();
        reg.register::<crate::simulate::SimulationBackend<calyx_sim::rtl::Rtl>>();
        reg.register::<crate::simulate::SimulationBackend<calyx_sim::interp::Interp>>();
        reg
    }
}

impl BackendRegistry {
    /// A registry with no backends, for drivers that want full control
    /// over what is selectable.
    pub fn empty() -> Self {
        BackendRegistry {
            backends: Registry::default(),
        }
    }

    /// Register backend `B` under [`Backend::NAME`].
    ///
    /// # Panics
    ///
    /// Panics as [`Registry::insert`] does: the name is already taken or
    /// is not kebab-case.
    pub fn register<B: Backend + 'static>(&mut self) {
        self.backends.insert(RegisteredBackend {
            name: B::NAME,
            description: B::DESCRIPTION,
            required_pipeline: Backend::required_pipeline(&B::from_opts(&BackendOpts::default())),
            extension: B::EXTENSION,
            ctor: |opts| Box::new(B::from_opts(opts)),
        });
    }

    /// All registered backends, in registration order.
    pub fn backends(&self) -> &[RegisteredBackend] {
        self.backends.entries()
    }

    /// The backend registered as `name`, without constructing it.
    pub fn find(&self, name: &str) -> Option<&RegisteredBackend> {
        self.backends.find(name)
    }

    /// Construct the backend registered as `name`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Undefined`] naming the offending entry and
    /// listing the valid choices when `name` is unknown.
    ///
    /// [`Error::Undefined`]: calyx_core::errors::Error::Undefined
    pub fn get(&self, name: &str, opts: &BackendOpts) -> CalyxResult<Box<dyn DynBackend>> {
        Ok((self.backends.get(name)?.ctor)(opts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calyx_core::errors::Error;
    use calyx_core::passes::PassManager;

    #[test]
    fn default_registry_has_all_five_backends() {
        let reg = BackendRegistry::default();
        let names: Vec<&str> = reg.backends().iter().map(|b| b.name).collect();
        assert_eq!(names, vec!["calyx", "verilog", "area", "sim", "interp"]);
    }

    /// Every declared pipeline must name real passes/aliases in the pass
    /// registry — this is the cross-registry integrity the driver's
    /// auto-append relies on.
    #[test]
    fn required_pipelines_resolve_in_the_pass_registry() {
        for b in BackendRegistry::default().backends() {
            let required = b.required_pipeline;
            PassManager::from_names(required).unwrap_or_else(|e| {
                panic!("backend `{}` declares unresolvable pipeline: {e}", b.name)
            });
        }
    }

    /// Every shipped backend must declare a real output extension: the
    /// generic `"out"` default is for prototypes only, and `--out-dir` /
    /// plan artifact names read much better with honest ones.
    #[test]
    fn no_registered_backend_uses_the_default_extension() {
        for b in BackendRegistry::default().backends() {
            assert_ne!(
                b.extension, "out",
                "backend `{}` inherits the generic `out` extension; give it a real one",
                b.name
            );
            assert!(
                !b.extension.is_empty() && !b.extension.starts_with('.'),
                "backend `{}` has a malformed extension `{}`",
                b.name,
                b.extension
            );
        }
    }

    #[test]
    fn unknown_backend_is_an_error_listing_choices() {
        let err = match BackendRegistry::default().get("verilgo", &BackendOpts::default()) {
            Err(e) => e,
            Ok(_) => panic!("unknown backend resolved"),
        };
        match err {
            Error::Undefined(msg) => {
                assert!(msg.contains("verilgo"), "{msg}");
                assert!(msg.contains("verilog"), "{msg}");
                assert!(msg.contains("interp"), "{msg}");
            }
            other => panic!("expected Undefined, got {other:?}"),
        }
    }

    /// The hand-written backend table in the README must quote the exact
    /// registry strings (the same ones `futil --list-backends` prints),
    /// or the copies drift apart — same guard as the pass table.
    #[test]
    fn readme_backend_table_quotes_registry() {
        let readme = include_str!("../../../README.md");
        for b in BackendRegistry::default().backends() {
            let pipeline = if b.required_pipeline.is_empty() {
                "—".to_string()
            } else {
                format!("`{}`", b.required_pipeline.join(" "))
            };
            let row = format!("| `{}` | {} | {} |", b.name, b.description, pipeline);
            assert!(
                readme.contains(&row),
                "README backend table out of sync for `{}`: expected row `{row}`",
                b.name
            );
        }
    }
}
