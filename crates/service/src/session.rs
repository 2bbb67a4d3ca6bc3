//! The compile core: one [`Session`] that the `futil` driver, the
//! batch/serve engine and the plan ops all call.
//!
//! A session owns the four registries (frontends, passes, backends,
//! lints). [`Session::resolve`] turns the names in a [`Job`] into a
//! [`Resolved`] — the constructed frontend and backend plus the built
//! pass pipeline — and `Resolved` exposes each compile stage exactly
//! once: [`parse`](Resolved::parse) (with the caret diagnostic),
//! [`run_passes`](Resolved::run_passes), and
//! [`emit`](Resolved::emit) (validate, then emit);
//! [`Session::lint`] is the optional stage between parse and passes.
//! [`Resolved::compile`] runs them in order into memory, with per-stage
//! wall times.
//!
//! Every failure is a [`StageError`]: the [`Stage`] that rejected the
//! job, the message every entry point reports for it, and the underlying
//! [`Error`]. The driver maps [`Stage::Resolve`] to exit 2 and the rest
//! to exit 1; the service puts the message in the response; the plan
//! executor takes the error.

use crate::cache::{digest64, ParseCache};
use crate::metrics::StageTimes;
use calyx_backend::{BackendOpts, BackendRegistry, DynBackend};
use calyx_core::analysis::AnalysisCache;
use calyx_core::errors::Error;
use calyx_core::ir::Context;
use calyx_core::lint::{DiagnosticSink, LintRegistry};
use calyx_core::passes::{PassManager, PassRegistry};
use calyx_core::utils::Entry;
use calyx_frontend::{DynFrontend, FrontendOpts, FrontendRegistry};
use std::io::Write;
use std::time::Instant;

/// The four registries a compile consults. [`Session::default`] holds
/// the standard ones; drivers and tests that register third-party
/// entries build theirs with struct-update syntax.
#[derive(Default)]
pub struct Session {
    /// Frontends, for `-f` and extension inference.
    pub frontends: FrontendRegistry,
    /// Passes and pipeline aliases, for `-p`.
    pub passes: PassRegistry,
    /// Backends, for `-b`.
    pub backends: BackendRegistry,
    /// Lints, for `--check` and `futil check`.
    pub lints: LintRegistry,
}

/// What to compile with, by name — the registry-independent half of a
/// `futil` invocation, a protocol request, or a plan op.
#[derive(Debug, Clone)]
pub struct Job<'a> {
    /// Frontend name; `None` infers it from `input`'s extension, falling
    /// back to `calyx`.
    pub frontend: Option<&'a str>,
    /// The input's path, consulted only for that inference.
    pub input: Option<&'a str>,
    /// Generator options as `--fopt`-style pairs (later pairs override).
    pub fopts: Vec<(String, String)>,
    /// Pass and alias names; `None` runs [`default_pipeline`] of the
    /// backend.
    pub pipeline: Option<&'a [String]>,
    /// Backend name.
    pub backend: &'a str,
    /// Backend options.
    pub bopts: BackendOpts,
}

impl Default for Job<'_> {
    /// Inferred frontend, default pipeline, the `calyx` printer.
    fn default() -> Self {
        Job {
            frontend: None,
            input: None,
            fopts: Vec::new(),
            pipeline: None,
            backend: "calyx",
            bopts: BackendOpts::default(),
        }
    }
}

/// The pipeline a backend gets when the job names none: the one it
/// declares it requires, else `lower` (backends that accept any program,
/// like `calyx`, declare nothing).
pub fn default_pipeline(required: &'static [&'static str]) -> &'static [&'static str] {
    if required.is_empty() {
        &["lower"]
    } else {
        required
    }
}

/// The stage of a compile that rejected the job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// A frontend, `--fopt` key, pass, alias or backend name did not
    /// resolve — a mistake in the invocation, not in the program.
    Resolve,
    /// The frontend rejected the source.
    Parse,
    /// A pass failed.
    Passes,
    /// The backend's precondition does not hold for the compiled program.
    Validate,
    /// The backend failed while emitting.
    Emit,
}

/// A compile failure, tagged with the stage it came from.
#[derive(Debug, Clone)]
pub struct StageError {
    /// Where the job was rejected.
    pub stage: Stage,
    /// The message every entry point reports: a caret diagnostic for
    /// positioned parse errors, `backend … precondition failed: …` for
    /// validation, the error's own text otherwise.
    pub message: String,
    /// The underlying error.
    pub error: Error,
}

impl StageError {
    fn new(stage: Stage, error: Error) -> Self {
        StageError {
            stage,
            message: error.to_string(),
            error,
        }
    }
}

impl std::fmt::Display for StageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for StageError {}

impl From<StageError> for Error {
    fn from(e: StageError) -> Self {
        e.error
    }
}

/// A [`Job`] with every name looked up: ready to run the stages.
pub struct Resolved {
    /// The constructed frontend.
    pub frontend: Box<dyn DynFrontend>,
    /// True when the frontend is a guess — no explicit name and no
    /// frontend claiming the input's extension — so drivers can say so.
    pub fell_back: bool,
    /// The constructed backend.
    pub backend: Box<dyn DynBackend>,
    /// The pass and alias names the pipeline was built from.
    pub pipeline: Vec<String>,
    /// The built pipeline; after [`Resolved::run_passes`] it holds the
    /// timings of every pass that ran, also on a failing run.
    pub passes: PassManager,
    /// The parse cache's frontend key: name plus canonicalized options.
    fingerprint: String,
}

/// What [`Resolved::compile`] produced.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The backend's output.
    pub output: Vec<u8>,
    /// The backend's file extension for that output.
    pub extension: &'static str,
    /// `hit` or `miss` when the parse went through a cache.
    pub cache: Option<&'static str>,
    /// Wall time per stage; `total` covers the three stages.
    pub stages: StageTimes,
}

/// The rows of one listing: `(name, description, note)` per entry, as
/// [`Entry::rows`] builds them.
type Rows<'a> = Vec<(&'a str, &'a str, String)>;

/// Where a listing's rows come from.
type RowsOf = for<'a> fn(&'a Session) -> Rows<'a>;

impl Session {
    /// The listings a session answers, one per registry: the kind word
    /// that `--list-<kind>` flags and `list` requests name it by, in the
    /// order the usage text advertises them, and where its rows come
    /// from.
    const LISTINGS: &'static [(&'static str, RowsOf)] = &[
        ("frontends", |s| Entry::rows(s.frontends.frontends())),
        ("backends", |s| Entry::rows(s.backends.backends())),
        ("passes", |s| Entry::rows(s.passes.passes())),
        ("lints", |s| Entry::rows(s.lints.lints())),
    ];

    /// The kinds [`Session::rows`] answers.
    pub fn list_kinds() -> Vec<&'static str> {
        Self::LISTINGS.iter().map(|(kind, _)| *kind).collect()
    }

    /// The rows of the registry `kind` names. Pipeline aliases are not
    /// among the `passes`: they are
    /// [`PassRegistry::alias_rows`](calyx_core::passes::PassRegistry::alias_rows).
    ///
    /// # Errors
    ///
    /// Returns a message naming the valid kinds when `kind` is not one.
    pub fn rows(&self, kind: &str) -> Result<Rows<'_>, String> {
        match Self::LISTINGS.iter().find(|(k, _)| *k == kind) {
            Some((_, rows)) => Ok(rows(self)),
            None => Err(format!(
                "unknown listing `{kind}`; valid kinds: {}",
                Self::list_kinds().join(", ")
            )),
        }
    }

    /// Look up everything `job` names: the backend, the frontend
    /// (constructed from the job's `--fopt` pairs), and the pipeline.
    ///
    /// # Errors
    ///
    /// A [`Stage::Resolve`] error carrying the registry's message, which
    /// lists the valid choices.
    pub fn resolve(&self, job: &Job) -> Result<Resolved, StageError> {
        let tag = |e| StageError::new(Stage::Resolve, e);
        let backend = self.backends.get(job.backend, &job.bopts).map_err(tag)?;
        let (name, fell_back) = self.frontends.resolve_name(job.frontend, job.input);
        let mut fopts = FrontendOpts::default();
        for (key, value) in &job.fopts {
            fopts.set(key.clone(), value.clone());
        }
        let frontend = self.frontends.get(name, &fopts).map_err(tag)?;
        let pipeline: Vec<String> = match job.pipeline {
            Some(names) => names.to_vec(),
            None => default_pipeline(backend.required_pipeline())
                .iter()
                .map(|name| (*name).to_string())
                .collect(),
        };
        let names: Vec<&str> = pipeline.iter().map(String::as_str).collect();
        let passes = self.passes.build(&names).map_err(tag)?;
        Ok(Resolved {
            fingerprint: ParseCache::fingerprint(name, &job.fopts),
            frontend,
            fell_back,
            backend,
            pipeline,
            passes,
        })
    }

    /// Run every registered lint over `ctx`.
    pub fn lint(&self, ctx: &Context) -> DiagnosticSink {
        self.lints.check_all(ctx, &mut AnalysisCache::new())
    }
}

impl Resolved {
    /// Ingest `src` with the frontend. `shown` is the input's name in
    /// the diagnostic.
    ///
    /// # Errors
    ///
    /// A [`Stage::Parse`] error whose message is the caret diagnostic
    /// (`parse error at <shown>:line:col: …`, the source line, a `^`)
    /// when the failure has a position.
    pub fn parse(&self, shown: &str, src: &str) -> Result<Context, StageError> {
        self.frontend.parse(src).map_err(|error| StageError {
            stage: Stage::Parse,
            message: error
                .caret_diagnostic(shown, src)
                .unwrap_or_else(|| format!("frontend `{}`: {error}", self.frontend.name())),
            error,
        })
    }

    /// Run the pipeline over `ctx`; `self.passes` keeps the timings.
    ///
    /// # Errors
    ///
    /// A [`Stage::Passes`] error from the first failing pass.
    pub fn run_passes(&mut self, ctx: &mut Context) -> Result<(), StageError> {
        self.passes
            .run(ctx)
            .map_err(|e| StageError::new(Stage::Passes, e))
    }

    /// Check the backend's precondition, then stream its output to `out`.
    /// Nothing is written when the precondition fails.
    ///
    /// # Errors
    ///
    /// A [`Stage::Validate`] or [`Stage::Emit`] error.
    pub fn emit(&self, ctx: &Context, out: &mut dyn Write) -> Result<(), StageError> {
        self.backend.validate(ctx).map_err(|error| StageError {
            stage: Stage::Validate,
            message: format!(
                "backend `{}` precondition failed: {error}",
                self.backend.name()
            ),
            error,
        })?;
        self.backend
            .emit(ctx, out)
            .map_err(|e| StageError::new(Stage::Emit, e))
    }

    /// Parse, run the passes, validate and emit into memory, timing each
    /// stage. With a `cache` the parse goes through it: a hit is a clone
    /// of the program an earlier identical job parsed.
    ///
    /// # Errors
    ///
    /// The first failing stage's error.
    pub fn compile(
        &mut self,
        shown: &str,
        src: &str,
        cache: Option<&ParseCache>,
    ) -> Result<Compiled, StageError> {
        let started = Instant::now();
        let (mut ctx, hit) = match cache {
            Some(cache) => {
                let digest = digest64(src.as_bytes());
                let parse = || self.parse(shown, src);
                let (ctx, hit) = cache.get_or_parse(&self.fingerprint, digest, parse)?;
                (ctx, Some(if hit { "hit" } else { "miss" }))
            }
            None => (self.parse(shown, src)?, None),
        };
        let parsed = Instant::now();
        self.run_passes(&mut ctx)?;
        let lowered = Instant::now();
        let mut output = Vec::new();
        self.emit(&ctx, &mut output)?;
        let emitted = Instant::now();
        Ok(Compiled {
            output,
            extension: self.backend.extension(),
            cache: hit,
            stages: StageTimes {
                parse: parsed - started,
                passes: lowered - parsed,
                emit: emitted - lowered,
                total: emitted - started,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROGRAM: &str = "component main() -> () {
        cells { r = std_reg(8); }
        wires { group g { r.in = 8'd7; r.write_en = 1'd1; g[done] = r.done; } }
        control { g; }
      }";

    #[test]
    fn no_pipeline_means_the_backends_required_one_else_lower() {
        let session = Session::default();
        for b in session.backends.backends() {
            let job = Job {
                backend: b.name,
                ..Job::default()
            };
            let resolved = session.resolve(&job).unwrap();
            let want: &[&str] = if b.required_pipeline.is_empty() {
                &["lower"]
            } else {
                b.required_pipeline
            };
            assert_eq!(resolved.pipeline, want, "backend `{}`", b.name);
        }
        // An explicit pipeline, even an empty one, is taken as given.
        let job = Job {
            pipeline: Some(&[]),
            backend: "verilog",
            ..Job::default()
        };
        assert!(session.resolve(&job).unwrap().pipeline.is_empty());
    }

    #[test]
    fn failures_are_tagged_with_their_stage() {
        let session = Session::default();
        let stage_of = |job: &Job, src: &str| {
            let mut resolved = match session.resolve(job) {
                Ok(r) => r,
                Err(e) => return e,
            };
            resolved.compile("<test>", src, None).unwrap_err()
        };

        let bad_pass = ["no-such-pass".to_string()];
        for job in [
            Job {
                backend: "verilgo",
                ..Job::default()
            },
            Job {
                fopts: vec![("rows".into(), "2".into())],
                ..Job::default()
            },
            Job {
                pipeline: Some(&bad_pass),
                ..Job::default()
            },
        ] {
            let e = stage_of(&job, PROGRAM);
            assert_eq!(e.stage, Stage::Resolve, "{e}");
            assert_eq!(e.message, e.error.to_string());
        }

        let e = stage_of(&Job::default(), "component main( {");
        assert_eq!(e.stage, Stage::Parse);
        assert!(e.message.starts_with("parse error at <test>:1:"), "{e}");
        assert!(e.message.ends_with('^'), "{e}");

        let none = ["none".to_string()];
        let unlowered = Job {
            pipeline: Some(&none),
            backend: "verilog",
            ..Job::default()
        };
        let e = stage_of(&unlowered, PROGRAM);
        assert_eq!(e.stage, Stage::Validate);
        assert!(
            e.message
                .starts_with("backend `verilog` precondition failed: "),
            "{e}"
        );
    }

    #[test]
    fn compile_matches_the_stages_run_by_hand() {
        let session = Session::default();
        let job = Job {
            backend: "verilog",
            ..Job::default()
        };
        let compiled = session
            .resolve(&job)
            .unwrap()
            .compile("<test>", PROGRAM, None)
            .unwrap();
        assert_eq!((compiled.extension, compiled.cache), ("sv", None));

        let mut resolved = session.resolve(&job).unwrap();
        let mut ctx = resolved.parse("<test>", PROGRAM).unwrap();
        assert!(session.lint(&ctx).is_empty());
        resolved.run_passes(&mut ctx).unwrap();
        assert!(!resolved.passes.timings().is_empty());
        let mut by_hand = Vec::new();
        resolved.emit(&ctx, &mut by_hand).unwrap();
        assert_eq!(compiled.output, by_hand);
    }

    fn assert_send_sync<T: Send + Sync>() {}

    /// Compile-time pin: worker threads share one session and one
    /// service.
    #[test]
    fn session_and_service_are_send_and_sync() {
        assert_send_sync::<Session>();
        assert_send_sync::<crate::CompileService>();
    }
}
