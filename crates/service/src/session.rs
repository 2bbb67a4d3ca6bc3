//! The compile core: one [`Session`] that the `futil` driver, the
//! batch/serve engine and the plan ops all call.
//!
//! A session owns the four registries (frontends, passes, backends,
//! lints). [`Session::resolve`] turns the names in a [`Job`] into a
//! [`Resolved`] — the constructed frontend and backend plus the built
//! pass pipeline — and `Resolved` runs the compile stages, each written
//! once: [`parse`](Resolved::parse) (with the caret diagnostic), then
//! [`compile_parsed`](Resolved::compile_parsed) (the passes, then
//! validate and emit into memory); [`Session::lint`] is the optional
//! stage between the two. [`Resolved::compile`] runs them in order, with
//! per-stage wall times. [`Session::job_key`] names a job for the
//! service's cache from the same names without resolving them, so a
//! cache hit constructs nothing.
//!
//! Every failure is a [`StageError`]: the [`Stage`] that rejected the
//! job, the message every entry point reports for it, and the underlying
//! [`Error`]. The driver maps [`Stage::Resolve`] to exit 2 and the rest
//! to exit 1; the service puts the message in the response; the plan
//! executor takes the error.

use crate::cache::KeyHasher;
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
use std::time::{Duration, Instant};

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
    /// The built pipeline; after [`Resolved::compile_parsed`] it holds
    /// the timings of every pass that ran, also on a failing run.
    pub passes: PassManager,
}

/// What [`Resolved::compile`] produced.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The backend's output.
    pub output: Vec<u8>,
    /// The backend's file extension for that output.
    pub extension: &'static str,
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
            frontend,
            fell_back,
            backend,
            pipeline,
            passes,
        })
    }

    /// The job cache's key for compiling `src`, shown as `shown`, as
    /// `job` says: the [`content_key`](crate::content_key) of everything
    /// a compile reads — the shown name, the source, the frontend's name,
    /// the canonical `--fopt`s (their count, then each key and value),
    /// the expanded pipeline (its length, then each pass), the backend's
    /// name, `cycles` and `format`. Each part is hashed with its length,
    /// so no byte of a name, an option or the source can be taken for a
    /// boundary.
    ///
    /// It reads names only: no frontend, backend or pass is constructed,
    /// so a cache hit costs this hash and one lookup. `None` when the
    /// backend or a pass name is unknown; a name that resolves here may
    /// still fail [`resolve`](Session::resolve) (an option the frontend
    /// rejects), but then no compile ever kept an outcome under the key.
    pub fn job_key(&self, job: &Job, shown: &str, src: &str) -> Option<u64> {
        let (frontend, _) = self.frontends.resolve_name(job.frontend, job.input);
        let required = self.backends.find(job.backend)?.required_pipeline;
        let mut key = KeyHasher::default();
        key.part(shown).part(src).part(frontend).fopts(&job.fopts);
        match job.pipeline {
            Some(names) => self.key_pipeline(&mut key, names.iter().map(String::as_str))?,
            None => self.key_pipeline(&mut key, default_pipeline(required).iter().copied())?,
        }
        key.part(job.backend)
            .number(job.bopts.cycles)
            .part(job.bopts.format.name());
        Some(key.finish())
    }

    /// Hash the passes `names` expand to: their count, then each pass.
    fn key_pipeline<'n>(
        &self,
        key: &mut KeyHasher,
        names: impl Iterator<Item = &'n str> + Clone,
    ) -> Option<()> {
        let mut len = 0;
        for name in names.clone() {
            len += self.passes.expansion(name)?.len();
        }
        key.number(len as u64);
        for name in names {
            for pass in self.passes.expansion(name)? {
                key.part(pass);
            }
        }
        Some(())
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
    fn run_passes(&mut self, ctx: &mut Context) -> Result<(), StageError> {
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
    fn emit(&self, ctx: &Context, out: &mut dyn Write) -> Result<(), StageError> {
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

    /// Parse, then [`compile_parsed`](Resolved::compile_parsed), timing
    /// every stage.
    ///
    /// # Errors
    ///
    /// The first failing stage's error.
    pub fn compile(&mut self, shown: &str, src: &str) -> Result<Compiled, StageError> {
        let started = Instant::now();
        let ctx = self.parse(shown, src)?;
        let parse = started.elapsed();
        let mut compiled = self.compile_parsed(ctx)?;
        compiled.stages.parse = parse;
        compiled.stages.total += parse;
        Ok(compiled)
    }

    /// The stages after the parse: run the pipeline over `ctx`, then
    /// validate and emit into memory, timing each (the parse's time is
    /// zero). `self.passes` keeps the pass timings, also when a pass
    /// fails.
    ///
    /// # Errors
    ///
    /// The first failing stage's error.
    pub fn compile_parsed(&mut self, mut ctx: Context) -> Result<Compiled, StageError> {
        let started = Instant::now();
        self.run_passes(&mut ctx)?;
        if self.passes.cancelled() {
            return Err(StageError::new(
                Stage::Emit,
                Error::backend(self.backend.name(), "the job was cancelled before the emit"),
            ));
        }
        let lowered = Instant::now();
        let mut output = Vec::new();
        self.emit(&ctx, &mut output)?;
        let emitted = Instant::now();
        Ok(Compiled {
            output,
            extension: self.backend.extension(),
            stages: StageTimes {
                parse: Duration::ZERO,
                passes: lowered - started,
                emit: emitted - lowered,
                total: emitted - started,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::canonical_fopts;

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
            resolved.compile("<test>", src).unwrap_err()
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
            .compile("<test>", PROGRAM)
            .unwrap();
        assert_eq!(compiled.extension, "sv");

        let mut resolved = session.resolve(&job).unwrap();
        let mut ctx = resolved.parse("<test>", PROGRAM).unwrap();
        assert!(session.lint(&ctx).is_empty());
        resolved.run_passes(&mut ctx).unwrap();
        assert!(!resolved.passes.timings().is_empty());
        let mut by_hand = Vec::new();
        resolved.emit(&ctx, &mut by_hand).unwrap();
        assert_eq!(compiled.output, by_hand);
    }

    /// The key as it was computed from a resolved job before keys were
    /// built from names: [`content_key`](crate::content_key) over the
    /// shown name, the source, then what `resolve` constructed — the
    /// frontend's name, the canonical options, the built pipeline's
    /// passes, the backend's name — and `cycles` and `format`, each
    /// formatted as a `String`. Kept here as the oracle.
    fn resolved_key(resolved: &Resolved, job: &Job, shown: &str, src: &str) -> u64 {
        let fopts = canonical_fopts(&job.fopts);
        let mut parts = vec![
            resolved.frontend.name().to_string(),
            fopts.len().to_string(),
        ];
        for (key, value) in fopts {
            parts.extend([key.to_string(), value.to_string()]);
        }
        let passes = resolved.passes.pass_names();
        parts.push(passes.len().to_string());
        parts.extend(passes.iter().map(|pass| (*pass).to_string()));
        parts.extend([
            resolved.backend.name().to_string(),
            job.bopts.cycles.to_string(),
            job.bopts.format.name().to_string(),
        ]);
        let mut bytes: Vec<&[u8]> = vec![shown.as_bytes(), src.as_bytes()];
        bytes.extend(parts.iter().map(String::as_bytes));
        crate::content_key(&bytes)
    }

    /// For every frontend (named, or inferred from an input's extension)
    /// × backend × pipeline (the backend's default, each alias, a pass
    /// and an alias) × option order × format × cycle budget, the key
    /// built from names is the key of what `resolve` builds.
    #[test]
    fn the_names_only_key_is_the_key_of_the_resolved_job() {
        use calyx_backend::ReportFormat;
        let session = Session::default();
        let mut frontends: Vec<(Option<&str>, Option<&str>)> = session
            .frontends
            .frontends()
            .iter()
            .map(|f| (Some(f.name), None))
            .collect();
        frontends.extend([
            (None, None),
            (None, Some("k.fuse")),
            (None, Some("a.systolic")),
        ]);
        let mut pipelines: Vec<Option<Vec<String>>> = vec![None];
        for (alias, _) in session.passes.aliases() {
            pipelines.push(Some(vec![alias.to_string()]));
        }
        pipelines.push(Some(vec!["well-formed".to_string(), "lower".to_string()]));
        let mut resolved_per_frontend = vec![0; frontends.len()];
        for (f, &(frontend, input)) in frontends.iter().enumerate() {
            let (name, _) = session.frontends.resolve_name(frontend, input);
            let keys = session
                .frontends
                .frontends()
                .iter()
                .find(|e| e.name == name);
            let keys: Vec<&str> = keys.unwrap().options.iter().map(|(k, _)| *k).collect();
            // Each key set to 2: in declared order, and reversed after
            // an earlier value that the later one overrides.
            let forward: Vec<(String, String)> = keys
                .iter()
                .map(|k| (k.to_string(), "2".to_string()))
                .collect();
            let mut reordered: Vec<(String, String)> = keys
                .iter()
                .map(|k| (k.to_string(), "9".to_string()))
                .collect();
            reordered.extend(forward.iter().rev().cloned());
            for backend in session.backends.backends() {
                for pipeline in &pipelines {
                    for (format, cycles) in
                        [(ReportFormat::Text, 1_000_000), (ReportFormat::Json, 7)]
                    {
                        let job = |fopts: &Vec<(String, String)>| Job {
                            frontend,
                            input,
                            fopts: fopts.clone(),
                            pipeline: pipeline.as_deref(),
                            backend: backend.name,
                            bopts: BackendOpts { cycles, format },
                        };
                        let (shown, src) = (input.unwrap_or("<request>"), "component main() {}");
                        let key = session.job_key(&job(&forward), shown, src).unwrap();
                        let again = session.job_key(&job(&reordered), shown, src);
                        assert_eq!(Some(key), again, "{name} {}: option order", backend.name);
                        let Ok(resolved) = session.resolve(&job(&forward)) else {
                            continue;
                        };
                        resolved_per_frontend[f] += 1;
                        assert_eq!(
                            key,
                            resolved_key(&resolved, &job(&forward), shown, src),
                            "frontend {name}, backend {}, pipeline {pipeline:?}, {format:?}",
                            backend.name
                        );
                    }
                }
            }
        }
        assert!(
            resolved_per_frontend.iter().all(|&n| n > 0),
            "{resolved_per_frontend:?}"
        );

        // A name that does not resolve has no key.
        let bad_pass = ["no-such-pass".to_string()];
        for job in [
            Job {
                backend: "verilgo",
                ..Job::default()
            },
            Job {
                pipeline: Some(&bad_pass),
                ..Job::default()
            },
        ] {
            assert_eq!(session.job_key(&job, "<request>", ""), None);
        }
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
