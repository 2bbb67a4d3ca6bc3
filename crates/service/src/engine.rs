//! The batch/serve engine: one [`CompileService`] executing
//! [`JobRequest`]s through the shared [`Session`] core.
//!
//! A service is a cheaply-clonable handle (`Arc` inside) shared by every
//! worker thread: a [`Session`] (the four registries) plus the
//! [`ParseCache`]. A job is a protocol shell around the core — fill the
//! request's gaps from the [`JobDefaults`], [`Session::resolve`] the
//! names, read the source, [`compile`](crate::session::Resolved::compile)
//! it through the cache, write the output — and terminates in a
//! [`JobResponse`] instead of a process exit, with per-stage wall times
//! attached. Jobs are bulkheaded: a panicking pass or generator becomes
//! a [`Status::Panic`] response, and a job that overruns its
//! `timeout_ms` budget is abandoned ([`Status::Timeout`]) without taking
//! its worker down.

use crate::cache::{CacheStats, ParseCache};
use crate::metrics::{BatchSummary, StageTimes};
use crate::pool::{catch_job_panic, WorkerPool};
use crate::protocol::{JobRequest, JobResponse, Status};
use crate::session::{Job, Session};
use calyx_backend::{BackendOpts, BackendRegistry, ReportFormat};
use calyx_frontend::FrontendRegistry;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Per-invocation defaults a [`JobRequest`]'s unset fields fall back to
/// — the batch/serve equivalent of `futil`'s own flags (`-f`, `--fopt`,
/// `-p`, `-b`, `--cycles`, `--format`, `--timeout`, `--out-dir`).
#[derive(Debug, Clone)]
pub struct JobDefaults {
    /// Frontend for jobs that name none (else inferred per job from the
    /// input extension, falling back to `calyx`).
    pub frontend: Option<String>,
    /// Base generator options; a job's own `fopts` append to (and thus
    /// override) these.
    pub fopts: Vec<(String, String)>,
    /// Pipeline for jobs that name none (else the backend's required
    /// pipeline, else `lower`).
    pub pipeline: Option<Vec<String>>,
    /// Backend for jobs that name none.
    pub backend: String,
    /// Simulation cycle budget.
    pub cycles: u64,
    /// Report format for report-style backends.
    pub format: ReportFormat,
    /// Wall-clock budget per job, in milliseconds.
    pub timeout_ms: Option<u64>,
    /// Directory for jobs without an `out` path: each writes
    /// `<out_dir>/<name>.<backend extension>`.
    pub out_dir: Option<String>,
    /// Return the output inline (serve mode) when a job has no output
    /// path; otherwise pathless output is discarded.
    pub inline_output: bool,
}

impl Default for JobDefaults {
    fn default() -> Self {
        JobDefaults {
            frontend: None,
            fopts: Vec::new(),
            pipeline: None,
            backend: "calyx".to_string(),
            cycles: BackendOpts::default().cycles,
            format: ReportFormat::Text,
            timeout_ms: None,
            out_dir: None,
            inline_output: false,
        }
    }
}

impl JobDefaults {
    /// The job `req` describes, its unset fields filled from `self`.
    /// The driver's single-shot mode is the same merge with a request
    /// that names only its input.
    pub fn job<'a>(&'a self, req: &'a JobRequest) -> Job<'a> {
        let mut fopts = self.fopts.clone();
        fopts.extend(req.fopts.iter().cloned());
        Job {
            frontend: req.frontend.as_deref().or(self.frontend.as_deref()),
            input: req.input.as_deref(),
            fopts,
            pipeline: req.pipeline.as_deref().or(self.pipeline.as_deref()),
            backend: req.backend.as_deref().unwrap_or(&self.backend),
            bopts: BackendOpts {
                cycles: req.cycles.unwrap_or(self.cycles),
                format: match req.format.as_deref() {
                    Some("json") => ReportFormat::Json,
                    Some(_) => ReportFormat::Text,
                    None => self.format,
                },
            },
        }
    }
}

struct ServiceInner {
    session: Session,
    cache: ParseCache,
}

/// A long-lived compilation service: a [`Session`] plus the shared
/// [`ParseCache`]. Clones share everything.
#[derive(Clone)]
pub struct CompileService {
    inner: Arc<ServiceInner>,
}

impl Default for CompileService {
    fn default() -> Self {
        Self::new()
    }
}

/// The label a job is reported under: its `name`, else its input's file
/// stem, else `job<id>`.
fn job_name(req: &JobRequest, id: usize) -> String {
    if let Some(name) = &req.name {
        return name.clone();
    }
    req.input
        .as_deref()
        .and_then(|p| Path::new(p).file_stem())
        .and_then(|s| s.to_str())
        .map_or_else(|| format!("job{id}"), str::to_string)
}

/// Write `bytes` to `path` atomically: stream to a sibling `.tmp` and
/// rename into place, so a failure never leaves partial output (the same
/// discipline as `futil -o`). Shared with the plan executor's artifact
/// cache, which needs the same no-partial-files guarantee.
///
/// # Errors
///
/// Returns the underlying I/O error; the `.tmp` sibling is removed on
/// failure.
pub fn write_atomic(path: &str, bytes: &[u8]) -> std::io::Result<()> {
    if let Some(parent) = Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let tmp = format!("{path}.tmp");
    let result = std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path));
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

impl CompileService {
    /// A service over the standard registries and an empty cache.
    pub fn new() -> Self {
        Self::with_session(Session::default())
    }

    /// A service over `session`'s registries and an empty cache.
    pub fn with_session(session: Session) -> Self {
        CompileService {
            inner: Arc::new(ServiceInner {
                session,
                cache: ParseCache::new(),
            }),
        }
    }

    /// A service over custom frontends and backends — drivers that
    /// register extra ones, and tests that inject misbehaving ones.
    pub fn with_registries(frontends: FrontendRegistry, backends: BackendRegistry) -> Self {
        Self::with_session(Session {
            frontends,
            backends,
            ..Session::default()
        })
    }

    /// The shared parse cache's hit/miss counters so far.
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.cache.stats()
    }

    /// The `(name, description)` items of one registry, for `list`
    /// requests: [`Session::rows`] without the notes, and for `passes`
    /// the pipeline aliases after them, marked `alias: `.
    ///
    /// # Errors
    ///
    /// Returns a message naming the valid kinds when `kind` is not one.
    pub fn list_items(&self, kind: &str) -> Result<Vec<(String, String)>, String> {
        let session = &self.inner.session;
        let rows = session.rows(kind)?;
        let mut items: Vec<(String, String)> = rows
            .iter()
            .map(|(name, description, _)| (name.to_string(), description.to_string()))
            .collect();
        if kind == "passes" {
            for (alias, expansion, _) in session.passes.alias_rows() {
                items.push((alias.to_string(), format!("alias: {expansion}")));
            }
        }
        Ok(items)
    }

    /// Execute one job to completion, honoring its timeout and catching
    /// its panics. This is the entry point workers call; it always
    /// returns a response, never unwinds.
    pub fn execute(&self, id: usize, req: &JobRequest, defaults: &JobDefaults) -> JobResponse {
        let cancelled = Arc::new(AtomicBool::new(false));
        let Some(ms) = req.timeout_ms.or(defaults.timeout_ms) else {
            return self.guarded(id, req, defaults, &cancelled);
        };
        // Run the job in a dedicated thread so this caller can give up
        // on it: a wedged pass must not wedge the worker. The abandoned
        // thread sees `cancelled` and discards its output.
        let name = job_name(req, id);
        let (tx, rx) = mpsc::channel();
        let service = self.clone();
        let req = req.clone();
        let defaults = defaults.clone();
        let flag = Arc::clone(&cancelled);
        let spawned = std::thread::Builder::new()
            .name(format!("futil-job-{id}"))
            .spawn(move || {
                let _ = tx.send(service.guarded(id, &req, &defaults, &flag));
            });
        if spawned.is_err() {
            return JobResponse::fail(id, name, Status::Error, "cannot spawn a job thread");
        }
        match rx.recv_timeout(Duration::from_millis(ms)) {
            Ok(resp) => resp,
            Err(_) => {
                cancelled.store(true, Ordering::SeqCst);
                JobResponse::fail(
                    id,
                    name,
                    Status::Timeout,
                    format!("job exceeded its {ms}ms timeout and was abandoned"),
                )
            }
        }
    }

    fn guarded(
        &self,
        id: usize,
        req: &JobRequest,
        defaults: &JobDefaults,
        cancelled: &AtomicBool,
    ) -> JobResponse {
        catch_job_panic(|| self.run_job(id, req, defaults, cancelled)).unwrap_or_else(|msg| {
            JobResponse::fail(
                id,
                job_name(req, id),
                Status::Panic,
                format!("job panicked: {msg}"),
            )
        })
    }

    /// One compile job, start to finish. Any structured failure becomes
    /// a [`Status::Error`] response carrying the failing stage's message.
    fn run_job(
        &self,
        id: usize,
        req: &JobRequest,
        defaults: &JobDefaults,
        cancelled: &AtomicBool,
    ) -> JobResponse {
        let started = Instant::now();
        let name = job_name(req, id);
        let fail = |msg: String| JobResponse::fail(id, name.clone(), Status::Error, msg);

        let mut resolved = match self.inner.session.resolve(&defaults.job(req)) {
            Ok(resolved) => resolved,
            Err(e) => return fail(e.message),
        };
        // Source: a file, inline text, or empty (pure generators).
        let src = match (&req.input, &req.source) {
            (Some(path), _) => match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => return fail(format!("cannot read `{path}`: {e}")),
            },
            (None, Some(text)) => text.clone(),
            (None, None) => String::new(),
        };
        let shown = req.input.as_deref().unwrap_or("<request>");
        // Into memory: batch outputs are per-job files (or inline
        // responses), never interleaved stdout.
        let compiled = match resolved.compile(shown, &src, Some(&self.inner.cache)) {
            Ok(compiled) => compiled,
            Err(e) => return fail(e.message),
        };

        let mut resp = JobResponse::new(id, name.clone(), Status::Ok);
        resp.cache = compiled.cache;
        let out_path = req.out.clone().or_else(|| {
            defaults
                .out_dir
                .as_ref()
                .map(|dir| format!("{dir}/{name}.{}", compiled.extension))
        });
        match out_path {
            // A timed-out job may still be running here, abandoned; it
            // must not race a retry for the output file.
            Some(path) if !cancelled.load(Ordering::SeqCst) => {
                if let Err(e) = write_atomic(&path, &compiled.output) {
                    return fail(format!("cannot write `{path}`: {e}"));
                }
                resp.out = Some(path);
            }
            Some(_) => {}
            None if defaults.inline_output => {
                resp.output = Some(String::from_utf8_lossy(&compiled.output).into_owned());
            }
            None => {}
        }
        resp.stages = Some(StageTimes {
            total: started.elapsed(),
            ..compiled.stages
        });
        resp
    }

    /// Run a whole batch on `jobs` workers and aggregate the responses.
    ///
    /// With `fail_fast`, the first failure aborts the queue: jobs not
    /// yet started report [`Status::Skipped`] (in-flight ones finish).
    /// The summary's cache counters cover this batch only.
    pub fn run_batch(
        &self,
        reqs: &[JobRequest],
        jobs: usize,
        fail_fast: bool,
        defaults: &JobDefaults,
    ) -> BatchSummary {
        let started = Instant::now();
        let before = self.cache_stats();
        let abort = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel::<JobResponse>();
        {
            let pool = WorkerPool::new(jobs);
            for (id, req) in reqs.iter().enumerate() {
                let service = self.clone();
                let req = req.clone();
                let defaults = defaults.clone();
                let abort = Arc::clone(&abort);
                let tx = tx.clone();
                pool.submit(move || {
                    let resp = if abort.load(Ordering::SeqCst) {
                        JobResponse::fail(
                            id,
                            job_name(&req, id),
                            Status::Skipped,
                            "not run: an earlier job failed (--fail-fast)",
                        )
                    } else {
                        service.execute(id, &req, &defaults)
                    };
                    if fail_fast && !resp.is_ok() && resp.status != Status::Skipped {
                        abort.store(true, Ordering::SeqCst);
                    }
                    let _ = tx.send(resp);
                });
            }
        } // joins the workers: every job has reported
        drop(tx);
        let mut results: Vec<JobResponse> = rx.iter().collect();
        results.sort_unstable_by_key(|r| r.id);
        let after = self.cache_stats();
        BatchSummary {
            results,
            wall: started.elapsed(),
            cache: CacheStats {
                hits: after.hits - before.hits,
                misses: after.misses - before.misses,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calyx_core::ir::Context;
    use std::sync::atomic::AtomicUsize;

    const PROGRAM: &str = "component main() -> () {
        cells { r = std_reg(8); }
        wires { group g { r.in = 8'd7; r.write_en = 1'd1; g[done] = r.done; } }
        control { g; }
      }";

    fn source_job(backend: &str) -> JobRequest {
        JobRequest {
            source: Some(PROGRAM.to_string()),
            backend: Some(backend.to_string()),
            ..JobRequest::default()
        }
    }

    #[test]
    fn a_job_compiles_like_single_shot_futil() {
        let service = CompileService::new();
        let defaults = JobDefaults {
            inline_output: true,
            ..JobDefaults::default()
        };
        let resp = service.execute(0, &source_job("verilog"), &defaults);
        assert_eq!(resp.status, Status::Ok, "{:?}", resp.error);
        assert_eq!(resp.cache, Some("miss"));
        assert!(resp.output.as_deref().unwrap().contains("module main"));
        let stages = resp.stages.unwrap();
        assert!(stages.total >= stages.passes);

        // Same source again: a cache hit, byte-identical output.
        let again = service.execute(1, &source_job("verilog"), &defaults);
        assert_eq!(again.cache, Some("hit"));
        assert_eq!(again.output, resp.output);
        assert_eq!(service.cache_stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn structured_failures_name_the_stage() {
        let service = CompileService::new();
        let defaults = JobDefaults::default();

        let resp = service.execute(0, &source_job("verilgo"), &defaults);
        assert_eq!(resp.status, Status::Error);
        assert!(resp.error.as_deref().unwrap().contains("valid backends"));

        let mut bad_pass = source_job("calyx");
        bad_pass.pipeline = Some(vec!["no-such-pass".to_string()]);
        let resp = service.execute(1, &bad_pass, &defaults);
        assert_eq!(resp.status, Status::Error);

        let mut bad_src = source_job("calyx");
        bad_src.source = Some("component main( {".to_string());
        let resp = service.execute(2, &bad_src, &defaults);
        assert_eq!(resp.status, Status::Error);
        // Parse failures carry the caret diagnostic.
        assert!(
            resp.error.as_deref().unwrap().contains('^'),
            "{:?}",
            resp.error
        );

        let missing = JobRequest {
            input: Some("/no/such/file.futil".to_string()),
            ..JobRequest::default()
        };
        let resp = service.execute(3, &missing, &defaults);
        assert_eq!(resp.status, Status::Error);
        assert!(resp.error.as_deref().unwrap().contains("cannot read"));
    }

    #[test]
    fn generator_jobs_need_no_source() {
        let service = CompileService::new();
        let req = JobRequest {
            frontend: Some("systolic".to_string()),
            fopts: vec![
                ("rows".to_string(), "2".to_string()),
                ("cols".to_string(), "2".to_string()),
                ("inner".to_string(), "2".to_string()),
            ],
            backend: Some("verilog".to_string()),
            name: Some("sa2x2".to_string()),
            ..JobRequest::default()
        };
        let defaults = JobDefaults {
            inline_output: true,
            ..JobDefaults::default()
        };
        let resp = service.execute(0, &req, &defaults);
        assert_eq!(resp.status, Status::Ok, "{:?}", resp.error);
        assert_eq!(resp.name, "sa2x2");
        assert!(resp.output.as_deref().unwrap().contains("module"));
    }

    #[test]
    fn batches_preserve_job_order_and_count_cache_deltas() {
        let service = CompileService::new();
        let reqs: Vec<JobRequest> = (0..6).map(|_| source_job("calyx")).collect();
        let summary = service.run_batch(&reqs, 3, false, &JobDefaults::default());
        assert_eq!(summary.results.len(), 6);
        assert!(summary.all_ok());
        for (i, r) in summary.results.iter().enumerate() {
            assert_eq!(r.id, i);
        }
        // Six identical sources: one miss, five hits — regardless of
        // which worker got there first.
        assert_eq!(summary.cache.misses, 1);
        assert_eq!(summary.cache.hits, 5);

        // A second batch reuses the warm cache but reports only its own
        // lookups.
        let summary = service.run_batch(&reqs[..2], 2, false, &JobDefaults::default());
        assert_eq!(summary.cache, CacheStats { hits: 2, misses: 0 });
    }

    /// A hit is a clone of the program the miss parsed, so diagnostics
    /// point into the text the user wrote both times.
    #[test]
    fn hits_and_misses_report_the_same_source_positions() {
        // Two components, deliberately not in the printer's layout: the
        // offending cell sits at 13:7 here and elsewhere in canonical
        // text.
        let src = "component helper() -> () {
  cells { r = std_reg(8); }
  wires {
    group g { r.in = 8'd1; r.write_en = 1'd1; g[done] = r.done; }
  }
  control { g; }
}


component main() -> () {
  cells {

      s = helper();
  }
  wires { group go { s.go = 1'd1; go[done] = s.done; } }
  control { go; }
}
";
        let service = CompileService::new();
        let job = JobRequest {
            source: Some(src.to_string()),
            backend: Some("interp".to_string()),
            ..JobRequest::default()
        };
        let miss = service.execute(0, &job, &JobDefaults::default());
        let hit = service.execute(1, &job, &JobDefaults::default());
        assert_eq!(service.cache_stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!((miss.status, hit.status), (Status::Error, Status::Error));
        let error = miss.error.unwrap();
        assert!(error.contains("cell `s` (declared at 13:7)"), "{error}");
        assert_eq!(hit.error.unwrap(), error);
    }

    static SLOW_PARSES: AtomicUsize = AtomicUsize::new(0);

    /// A generator slow enough that identical jobs on other workers
    /// arrive while the first is still parsing, counting its runs.
    struct SlowFrontend;

    impl calyx_frontend::Frontend for SlowFrontend {
        const NAME: &'static str = "slow";
        const DESCRIPTION: &'static str = "counts and sleeps in parse (test only)";

        fn extensions() -> &'static [&'static str] {
            &[]
        }

        fn from_opts(_: &calyx_frontend::FrontendOpts) -> calyx_core::errors::CalyxResult<Self> {
            Ok(SlowFrontend)
        }

        fn parse(&self, _: &str) -> calyx_core::errors::CalyxResult<Context> {
            SLOW_PARSES.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(20));
            calyx_core::ir::parse_context(PROGRAM)
        }
    }

    /// Lookup and insert are one step per key: of four identical jobs on
    /// four workers one runs the generator, three wait for it and clone.
    #[test]
    fn identical_concurrent_jobs_parse_once() {
        let mut frontends = calyx_frontend::FrontendRegistry::default();
        frontends.register::<SlowFrontend>();
        let service =
            CompileService::with_registries(frontends, calyx_backend::BackendRegistry::default());
        let req = JobRequest {
            frontend: Some("slow".to_string()),
            ..JobRequest::default()
        };
        let summary = service.run_batch(&vec![req; 4], 4, false, &JobDefaults::default());
        assert!(summary.all_ok(), "{}", summary.render_text(false));
        assert_eq!(SLOW_PARSES.load(Ordering::SeqCst), 1);
        assert_eq!(summary.cache, CacheStats { hits: 3, misses: 1 });
    }

    #[test]
    fn fail_fast_skips_later_jobs() {
        let service = CompileService::new();
        let mut reqs: Vec<JobRequest> = Vec::new();
        reqs.push(JobRequest {
            source: Some("component main( {".to_string()),
            ..JobRequest::default()
        });
        // Enough trailing work that the queue cannot drain before the
        // failure lands.
        for _ in 0..16 {
            reqs.push(source_job("calyx"));
        }
        let summary = service.run_batch(&reqs, 1, true, &JobDefaults::default());
        assert_eq!(summary.failed(), 1);
        assert_eq!(summary.skipped(), 16, "{}", summary.render_text(false));
        assert!(!summary.all_ok());
    }

    /// A frontend that stalls in `parse` long past any test deadline —
    /// a deterministic stand-in for a job that will not finish in time.
    struct StallFrontend;

    impl calyx_frontend::Frontend for StallFrontend {
        const NAME: &'static str = "stall";
        const DESCRIPTION: &'static str = "sleeps in parse (test only)";

        fn extensions() -> &'static [&'static str] {
            &[]
        }

        fn from_opts(_: &calyx_frontend::FrontendOpts) -> calyx_core::errors::CalyxResult<Self> {
            Ok(StallFrontend)
        }

        fn parse(&self, _: &str) -> calyx_core::errors::CalyxResult<Context> {
            std::thread::sleep(std::time::Duration::from_secs(5));
            calyx_core::ir::parse_context("component main() -> () { cells {} wires {} control {} }")
        }
    }

    #[test]
    fn timeouts_abandon_the_job() {
        let mut frontends = calyx_frontend::FrontendRegistry::default();
        frontends.register::<StallFrontend>();
        let service =
            CompileService::with_registries(frontends, calyx_backend::BackendRegistry::default());
        let req = JobRequest {
            frontend: Some("stall".to_string()),
            source: Some(String::new()),
            timeout_ms: Some(10),
            ..JobRequest::default()
        };
        let resp = service.execute(0, &req, &JobDefaults::default());
        assert_eq!(resp.status, Status::Timeout, "{:?}", resp.error);
        assert!(resp.error.as_deref().unwrap().contains("10ms"));
    }

    #[test]
    fn listings_cover_every_kind() {
        let service = CompileService::new();
        for kind in Session::list_kinds() {
            let items = service.list_items(kind).unwrap();
            assert!(!items.is_empty(), "no items for `{kind}`");
        }
        assert_eq!(service.list_items("frontends").unwrap()[0].0, "calyx");
        let err = service.list_items("register").unwrap_err();
        assert!(err.contains("valid kinds"), "{err}");
    }
}
