//! The batch/serve engine: one [`CompileService`] executing
//! [`JobRequest`]s through the shared [`Session`] core.
//!
//! A service is a cheaply-clonable handle (`Arc` inside) shared by every
//! worker thread: a [`Session`] (the four registries) plus the
//! [`JobCache`]. A job is a protocol shell around the core — fill the
//! request's gaps from the [`JobDefaults`], [`Session::resolve`] the
//! names, read the source, look its [`Session::job_key`] up in the cache
//! and [`compile`](crate::session::Resolved::compile) only on a miss,
//! write the output — and terminates in a [`JobResponse`] instead of a
//! process exit, with per-stage wall times attached. A hit runs no
//! stage: it shares the text an earlier identical job produced, or
//! returns the same stage error, and still writes its `out` file.
//!
//! A warm job does not wait for a worker. Before a job is queued, the
//! caller — [`run_batch`](CompileService::run_batch) before it starts
//! any worker, `serve`'s reader thread, [`execute`](CompileService::execute)
//! before it starts a timeout thread — asks the cache once, with a key
//! built from names alone (no frontend, backend or pass is constructed).
//! A hit is answered there when it needs no file I/O: no `input` to
//! read, no `out` or `out_dir` file to write. Everything else queues as
//! before: hits that read or write files (a FIFO or a slow disk must not
//! block a reader thread), misses (a key whose first job is still running
//! counts as one; its worker waits on the key's slot) and kept failures
//! (so `--fail-fast` sees a failure where a worker ran it).
//!
//! Jobs are bulkheaded: a panicking pass or generator becomes a
//! [`Status::Panic`] response, and a job that overruns its `timeout_ms`
//! budget is abandoned ([`Status::Timeout`]) without taking its worker
//! down — its pipeline stops at the next pass boundary — and neither
//! leaves anything in the cache.

use crate::cache::{CacheStats, JobCache, Outcome};
use crate::metrics::{BatchSummary, StageTimes};
use crate::pool::{catch_job_panic, WorkerPool};
use crate::protocol::{JobRequest, JobResponse, Status};
use crate::session::{Job, Session};
use calyx_backend::{BackendOpts, BackendRegistry, ReportFormat};
use calyx_frontend::FrontendRegistry;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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
    cache: JobCache,
}

/// A long-lived compilation service: a [`Session`] plus the shared
/// [`JobCache`]. Clones share everything.
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
/// Each call stages in its own sibling (process id plus a process-wide
/// counter), so concurrent writers of one path — two builds sharing a
/// cache, two batch jobs with one output name — each rename a whole file
/// into place and the last rename wins.
///
/// # Errors
///
/// Returns the underlying I/O error; the `.tmp` sibling is removed on
/// failure.
pub fn write_atomic(path: &str, bytes: &[u8]) -> std::io::Result<()> {
    static NEXT_TMP: AtomicU64 = AtomicU64::new(0);
    if let Some(parent) = Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let n = NEXT_TMP.fetch_add(1, Ordering::Relaxed);
    let tmp = format!("{path}.{}.{n}.tmp", std::process::id());
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
                cache: JobCache::default(),
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

    /// The shared job cache's hit/miss counters so far.
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
    /// returns a response, never unwinds. A hit that needs no file I/O is
    /// answered before any thread is started.
    pub fn execute(&self, id: usize, req: &JobRequest, defaults: &JobDefaults) -> JobResponse {
        if let Some(resp) = self.lookup(id, req, defaults) {
            return resp;
        }
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

    /// The response to `req` when the cache holds its output and
    /// answering needs no file I/O: no `input` to read and no `out` or
    /// `out_dir` file to write. `None` for every other job, which is then
    /// queued and counted by the worker that runs it. The lookup is the
    /// hit's parse stage, as on a worker.
    pub(crate) fn lookup(
        &self,
        id: usize,
        req: &JobRequest,
        defaults: &JobDefaults,
    ) -> Option<JobResponse> {
        if req.input.is_some() || req.out.is_some() || defaults.out_dir.is_some() {
            return None;
        }
        let started = Instant::now();
        let src = req.source.as_deref().unwrap_or_default();
        let key = self
            .inner
            .session
            .job_key(&defaults.job(req), "<request>", src)?;
        let looked_up = Instant::now();
        let text = self.inner.cache.get(key)?;
        let parse = looked_up.elapsed();
        let mut resp = JobResponse::new(id, job_name(req, id), Status::Ok);
        resp.cache = Some("hit");
        if defaults.inline_output {
            resp.output = Some(text);
        }
        resp.stages = Some(StageTimes {
            parse,
            total: started.elapsed(),
            ..StageTimes::default()
        });
        Some(resp)
    }

    fn guarded(
        &self,
        id: usize,
        req: &JobRequest,
        defaults: &JobDefaults,
        cancelled: &Arc<AtomicBool>,
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
        cancelled: &Arc<AtomicBool>,
    ) -> JobResponse {
        let started = Instant::now();
        let name = job_name(req, id);
        let fail = |msg: String| JobResponse::fail(id, name.clone(), Status::Error, msg);

        let job = defaults.job(req);
        let mut resolved = match self.inner.session.resolve(&job) {
            Ok(resolved) => resolved,
            Err(e) => return fail(e.message),
        };
        // An abandoned job stops at the next pass boundary.
        resolved.passes.cancel_on(Arc::clone(cancelled));
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
        let key = self
            .inner
            .session
            .job_key(&job, shown, &src)
            .expect("a resolved job's names have a key");
        let looked_up = Instant::now();
        let mut ran = None;
        // Into memory: batch outputs are per-job files (or inline
        // responses), never interleaved stdout.
        let (outcome, hit) = self.inner.cache.get_or_run(key, cancelled, || {
            let compiled = match resolved.compile(shown, &src) {
                Ok(compiled) => compiled,
                Err(e) => return Outcome::Failed(e.message.into()),
            };
            ran = Some(compiled.stages);
            match String::from_utf8(compiled.output) {
                Ok(text) => Outcome::Output {
                    text: text.into(),
                    extension: compiled.extension,
                },
                Err(_) => Outcome::Failed(
                    format!("backend `{}` emitted non-UTF-8", resolved.backend.name()).into(),
                ),
            }
        });
        let (text, extension) = match outcome {
            Outcome::Output { text, extension } => (text, extension),
            Outcome::Failed(message) => return fail(message.to_string()),
        };
        // A hit ran no stage; its lookup is its parse stage.
        let stages = ran.unwrap_or(StageTimes {
            parse: looked_up.elapsed(),
            ..StageTimes::default()
        });

        let mut resp = JobResponse::new(id, name.clone(), Status::Ok);
        resp.cache = Some(if hit { "hit" } else { "miss" });
        let out_path = req.out.clone().or_else(|| {
            defaults
                .out_dir
                .as_ref()
                .map(|dir| format!("{dir}/{name}.{extension}"))
        });
        match out_path {
            // A timed-out job may still be running here, abandoned; it
            // must not race a retry for the output file.
            Some(path) if !cancelled.load(Ordering::SeqCst) => {
                if let Err(e) = write_atomic(&path, text.as_bytes()) {
                    return fail(format!("cannot write `{path}`: {e}"));
                }
                resp.out = Some(path);
            }
            Some(_) => {}
            None if defaults.inline_output => resp.output = Some(text),
            None => {}
        }
        resp.stages = Some(StageTimes {
            total: started.elapsed(),
            ..stages
        });
        resp
    }

    /// Run a whole batch on `jobs` workers and aggregate the responses.
    ///
    /// Hits that need no file I/O are answered first, in request order,
    /// before any worker starts; workers are started only for the jobs
    /// left, and none when nothing is left. With `fail_fast`, the first
    /// failure aborts the queue: jobs not yet started report
    /// [`Status::Skipped`] (in-flight ones finish), and every job after
    /// the first queued one is queued too, so a failure skips it as it
    /// would on one worker. The summary's cache counters cover this
    /// batch only.
    pub fn run_batch(
        &self,
        reqs: &[JobRequest],
        jobs: usize,
        fail_fast: bool,
        defaults: &JobDefaults,
    ) -> BatchSummary {
        let started = Instant::now();
        let before = self.cache_stats();
        let mut results = Vec::with_capacity(reqs.len());
        let mut queued = Vec::new();
        for (id, req) in reqs.iter().enumerate() {
            let hit = if fail_fast && !queued.is_empty() {
                None
            } else {
                self.lookup(id, req, defaults)
            };
            match hit {
                Some(resp) => results.push(resp),
                None => queued.push(id),
            }
        }
        if !queued.is_empty() {
            let abort = Arc::new(AtomicBool::new(false));
            let (tx, rx) = mpsc::channel::<JobResponse>();
            {
                let pool = WorkerPool::new(jobs.min(queued.len()));
                for id in queued {
                    let service = self.clone();
                    let req = reqs[id].clone();
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
            } // joins the workers: every queued job has reported
            drop(tx);
            results.extend(rx.iter());
        }
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
    use calyx_core::analysis::AnalysisCache;
    use calyx_core::errors::CalyxResult;
    use calyx_core::ir::Context;
    use calyx_core::passes::Pass;
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

    /// Writers racing on one path each stage in their own temp file: every
    /// call succeeds and the survivor is one writer's whole payload.
    #[test]
    fn concurrent_writers_of_one_path_all_succeed() {
        const THREADS: usize = 8;
        const ROUNDS: usize = 20;
        const SIZE: usize = 1 << 18;
        let dir = std::env::temp_dir().join(format!("write-atomic-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("out.bin").to_str().unwrap().to_string();
        // Every round starts all writers together, so their writes overlap.
        let start = std::sync::Barrier::new(THREADS);
        let failures: usize = std::thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (path, start) = (&path, &start);
                    s.spawn(move || {
                        (0..ROUNDS)
                            .filter(|r| {
                                let payload = vec![(t * ROUNDS + r) as u8; SIZE];
                                start.wait();
                                write_atomic(path, &payload).is_err()
                            })
                            .count()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        let survivor = std::fs::read(&path).unwrap();
        let leftovers = std::fs::read_dir(&dir).unwrap().count();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(failures, 0, "of {} writes", THREADS * ROUNDS);
        assert_eq!(survivor.len(), SIZE);
        assert!(survivor.iter().all(|&b| b == survivor[0]), "torn write");
        assert_eq!(leftovers, 1, "temp files left behind");
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
        // offending assignment (a sub-component driving its own `done`,
        // which the interpreter refuses) sits at 6:9 here and elsewhere
        // in canonical text.
        let src = "component helper() -> () {
  cells { r = std_reg(8); }
  wires {
    r.in = 8'd1; r.write_en = 1'd1;

        done = r.done ? 1'd1;
  }
  control {}
}

component main() -> () {
  cells { s = helper(); }
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
        assert!(error.contains("`done` at 6:9"), "{error}");
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

    /// Two frontends that parse Calyx and take any option: jobs that
    /// differ only in the frontend's name, or in one option, compile alike.
    macro_rules! calyx_twin {
        ($ty:ident, $name:literal) => {
            struct $ty;

            impl calyx_frontend::Frontend for $ty {
                const NAME: &'static str = $name;
                const DESCRIPTION: &'static str = "parses Calyx, takes any option (test only)";

                fn extensions() -> &'static [&'static str] {
                    &[]
                }

                fn from_opts(
                    _: &calyx_frontend::FrontendOpts,
                ) -> calyx_core::errors::CalyxResult<Self> {
                    Ok($ty)
                }

                fn parse(&self, src: &str) -> calyx_core::errors::CalyxResult<Context> {
                    calyx_core::ir::parse_context(src)
                }
            }
        };
    }
    calyx_twin!(Twin, "twin");
    calyx_twin!(OtherTwin, "other-twin");

    /// A job differing from another in any one compile input is a miss
    /// that compiles as on a fresh service; the same job again is a hit
    /// with the same bytes.
    #[test]
    fn the_key_covers_every_compile_input() {
        let service = || {
            let mut frontends = calyx_frontend::FrontendRegistry::default();
            frontends.register::<Twin>();
            frontends.register::<OtherTwin>();
            CompileService::with_registries(frontends, calyx_backend::BackendRegistry::default())
        };
        let dir = std::env::temp_dir().join(format!("job-key-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("prog.futil");
        std::fs::write(&file, PROGRAM).unwrap();

        let base = JobRequest {
            frontend: Some("twin".to_string()),
            fopts: vec![("seed".to_string(), "1".to_string())],
            source: Some(PROGRAM.to_string()),
            pipeline: Some(vec!["lower".to_string()]),
            backend: Some("sim".to_string()),
            cycles: Some(100),
            format: Some("text".to_string()),
            ..JobRequest::default()
        };
        let variants: Vec<(&str, JobRequest)> = vec![
            (
                "shown name",
                JobRequest {
                    input: Some(file.to_str().unwrap().to_string()),
                    source: None,
                    ..base.clone()
                },
            ),
            (
                "frontend",
                JobRequest {
                    frontend: Some("other-twin".to_string()),
                    ..base.clone()
                },
            ),
            (
                "fopt",
                JobRequest {
                    fopts: vec![("seed".to_string(), "2".to_string())],
                    ..base.clone()
                },
            ),
            (
                "source",
                JobRequest {
                    source: Some(format!("{PROGRAM}\n")),
                    ..base.clone()
                },
            ),
            (
                "pipeline",
                JobRequest {
                    pipeline: Some(vec!["lower-static".to_string()]),
                    ..base.clone()
                },
            ),
            (
                "backend",
                JobRequest {
                    backend: Some("verilog".to_string()),
                    ..base.clone()
                },
            ),
            (
                "cycles",
                JobRequest {
                    cycles: Some(101),
                    ..base.clone()
                },
            ),
            (
                "format",
                JobRequest {
                    format: Some("json".to_string()),
                    ..base.clone()
                },
            ),
        ];
        let defaults = JobDefaults {
            inline_output: true,
            ..JobDefaults::default()
        };
        let shared = service();
        let first = shared.execute(0, &base, &defaults);
        assert_eq!(first.status, Status::Ok, "{:?}", first.error);
        assert_eq!(first.cache, Some("miss"));
        for (input, job) in &variants {
            let resp = shared.execute(1, job, &defaults);
            assert_eq!(resp.cache, Some("miss"), "a different {input} hit");
            let fresh = service().execute(1, job, &defaults);
            assert_eq!(
                (resp.status, &resp.error, &resp.output),
                (fresh.status, &fresh.error, &fresh.output),
                "{input}"
            );
        }
        let again = shared.execute(2, &base, &defaults);
        assert_eq!(again.cache, Some("hit"));
        assert_eq!(again.output, first.output);
        let _ = std::fs::remove_dir_all(&dir);
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

    static FRONTENDS_MADE: AtomicUsize = AtomicUsize::new(0);
    static BACKENDS_MADE: AtomicUsize = AtomicUsize::new(0);
    static PASSES_MADE: AtomicUsize = AtomicUsize::new(0);

    /// A Calyx parser that counts its constructions.
    struct CountedFrontend;

    impl calyx_frontend::Frontend for CountedFrontend {
        const NAME: &'static str = "counted";
        const DESCRIPTION: &'static str = "parses Calyx, counts constructions (test only)";

        fn extensions() -> &'static [&'static str] {
            &[]
        }

        fn from_opts(_: &calyx_frontend::FrontendOpts) -> CalyxResult<Self> {
            FRONTENDS_MADE.fetch_add(1, Ordering::SeqCst);
            Ok(CountedFrontend)
        }

        fn parse(&self, src: &str) -> CalyxResult<Context> {
            calyx_core::ir::parse_context(src)
        }
    }

    /// The `calyx` printer, counting its constructions.
    struct CountedBackend;

    impl calyx_backend::Backend for CountedBackend {
        const NAME: &'static str = "counted";
        const DESCRIPTION: &'static str = "prints Calyx, counts constructions (test only)";

        fn from_opts(_: &BackendOpts) -> Self {
            BACKENDS_MADE.fetch_add(1, Ordering::SeqCst);
            CountedBackend
        }

        fn required_pipeline(&self) -> &'static [&'static str] {
            &[]
        }

        fn validate(&self, _: &Context) -> CalyxResult<()> {
            Ok(())
        }

        fn emit(&self, ctx: &Context, out: &mut dyn std::io::Write) -> CalyxResult<()> {
            calyx_backend::print::CalyxBackend.emit(ctx, out)
        }
    }

    /// A pass that does nothing and counts its constructions.
    struct CountedPass;

    impl Default for CountedPass {
        fn default() -> Self {
            PASSES_MADE.fetch_add(1, Ordering::SeqCst);
            CountedPass
        }
    }

    impl Pass for CountedPass {
        fn name(&self) -> &'static str {
            "counted-pass"
        }

        fn description(&self) -> &'static str {
            "does nothing, counts constructions (test only)"
        }

        fn run_with(&mut self, _: &mut Context, _: &mut AnalysisCache) -> CalyxResult<()> {
            Ok(())
        }
    }

    /// An answered hit builds no pipeline: the frontend, the backend and
    /// the passes a miss constructs are not constructed again, whether
    /// the hit comes through `execute` or a batch.
    #[test]
    fn a_hit_constructs_nothing() {
        let mut session = Session::default();
        session.frontends.register::<CountedFrontend>();
        session.backends.register::<CountedBackend>();
        session.passes.register::<CountedPass>();
        let service = CompileService::with_session(session);
        let req = JobRequest {
            frontend: Some("counted".to_string()),
            source: Some(PROGRAM.to_string()),
            pipeline: Some(vec!["counted-pass".to_string(), "counted-pass".to_string()]),
            backend: Some("counted".to_string()),
            ..JobRequest::default()
        };
        let defaults = JobDefaults {
            inline_output: true,
            ..JobDefaults::default()
        };
        let made =
            || [&FRONTENDS_MADE, &BACKENDS_MADE, &PASSES_MADE].map(|n| n.load(Ordering::SeqCst));
        let before = made();
        let miss = service.execute(0, &req, &defaults);
        assert_eq!(miss.cache, Some("miss"), "{:?}", miss.error);
        let [f, b, p] = before;
        assert_eq!(made(), [f + 1, b + 1, p + 2], "a miss builds the pipeline");

        let built = made();
        let hit = service.execute(1, &req, &defaults);
        assert_eq!(hit.cache, Some("hit"));
        assert_eq!(hit.output, miss.output);
        let summary = service.run_batch(&vec![req; 3], 2, false, &defaults);
        assert_eq!(summary.cache, CacheStats { hits: 3, misses: 0 });
        assert_eq!(made(), built, "a hit constructed something");
    }

    static AFTER_SLOW_RAN: AtomicUsize = AtomicUsize::new(0);
    static SLOW_PASSES_DROPPED: AtomicUsize = AtomicUsize::new(0);

    /// A pass that outlasts any test deadline, and says when its
    /// pipeline is gone.
    #[derive(Default)]
    struct SlowPass;

    impl Pass for SlowPass {
        fn name(&self) -> &'static str {
            "slow-pass"
        }

        fn description(&self) -> &'static str {
            "sleeps (test only)"
        }

        fn run_with(&mut self, _: &mut Context, _: &mut AnalysisCache) -> CalyxResult<()> {
            std::thread::sleep(Duration::from_millis(200));
            Ok(())
        }
    }

    impl Drop for SlowPass {
        fn drop(&mut self) {
            SLOW_PASSES_DROPPED.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// A pass that counts its runs.
    #[derive(Default)]
    struct AfterSlow;

    impl Pass for AfterSlow {
        fn name(&self) -> &'static str {
            "after-slow"
        }

        fn description(&self) -> &'static str {
            "counts runs (test only)"
        }

        fn run_with(&mut self, _: &mut Context, _: &mut AnalysisCache) -> CalyxResult<()> {
            AFTER_SLOW_RAN.fetch_add(1, Ordering::SeqCst);
            Ok(())
        }
    }

    /// A job abandoned at its deadline stops at the next pass boundary:
    /// once the slow pass returns, the passes after it do not run.
    #[test]
    fn an_abandoned_job_runs_no_further_pass() {
        let mut session = Session::default();
        session.passes.register::<SlowPass>();
        session.passes.register::<AfterSlow>();
        let service = CompileService::with_session(session);
        let dropped = SLOW_PASSES_DROPPED.load(Ordering::SeqCst);
        let req = JobRequest {
            source: Some(PROGRAM.to_string()),
            pipeline: Some(vec!["slow-pass".to_string(), "after-slow".to_string()]),
            timeout_ms: Some(10),
            ..JobRequest::default()
        };
        let resp = service.execute(0, &req, &JobDefaults::default());
        assert_eq!(resp.status, Status::Timeout, "{:?}", resp.error);
        // The job's thread drops its pipeline when the compile returns.
        let deadline = Instant::now() + Duration::from_secs(10);
        while SLOW_PASSES_DROPPED.load(Ordering::SeqCst) == dropped {
            assert!(Instant::now() < deadline, "the abandoned job never ended");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(AFTER_SLOW_RAN.load(Ordering::SeqCst), 0);
        assert_eq!(service.cache_stats(), CacheStats { hits: 0, misses: 1 });
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
