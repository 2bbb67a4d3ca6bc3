//! The compile core, and a parallel compilation service over it.
//!
//! Single-shot `futil` pays its full startup cost — process spawn,
//! registry construction, frontend parse — for every kernel. Real
//! workloads (design-space sweeps, test suites, editor integrations)
//! compile *many* programs, most of them near-duplicates. This crate
//! turns the compiler into a service:
//!
//! - [`session::Session`] is the compile core: the four registries plus
//!   the compile stages — resolve, parse, lint, run passes, validate and
//!   emit — each implemented once, every failure tagged with its stage.
//!   The `futil` driver, this crate's engine and the `calyx_plan` ops
//!   are its three callers.
//! - [`engine::CompileService`] executes [`protocol::JobRequest`]s
//!   through that core, terminating in a [`protocol::JobResponse`] value
//!   instead of a process exit, with per-stage wall times attached. Jobs
//!   are bulkheaded: panics become [`protocol::Status::Panic`] responses
//!   and over-budget jobs are abandoned as
//!   [`protocol::Status::Timeout`].
//! - [`cache::ParseCache`] shares frontend work between jobs, keyed by
//!   `(frontend + options, source key)` and storing the parsed
//!   program itself: a hit is a clone, so cached and uncached jobs see
//!   the same IR and the same source positions, and concurrent
//!   identical jobs wait for one parse instead of each running the
//!   generator.
//! - [`pool::WorkerPool`] runs jobs on N `std::thread` workers;
//!   [`engine::CompileService::run_batch`] aggregates a whole batch into
//!   a [`metrics::BatchSummary`] (kernels/sec, p50/p99 latency).
//! - [`server::serve`] speaks a JSON-lines protocol
//!   ([`protocol::REQUEST_KEYS`] / [`protocol::RESPONSE_KEYS`]) over any
//!   reader/writer pair — stdin/stdout for `futil serve`, a unix socket
//!   for [`server::serve_socket`]. Requests are read and responses built
//!   with [`calyx_core::json`]. It is re-exported here as [`json`]
//!   because the benchmark package (`benchmark/`, built on its own
//!   against these crates by path) imports `calyx_service::json`.
//!
//! The `futil --batch` and `futil serve` driver modes are thin shells
//! over these pieces; single-shot `futil` calls the session's stages
//! directly.
//!
//! ```
//! use calyx_service::engine::{CompileService, JobDefaults};
//! use calyx_service::protocol::JobRequest;
//!
//! let service = CompileService::new();
//! let job = JobRequest {
//!     source: Some("component main() -> () { cells {} wires {} control {} }".into()),
//!     backend: Some("verilog".into()),
//!     ..JobRequest::default()
//! };
//! let defaults = JobDefaults { inline_output: true, ..JobDefaults::default() };
//! let summary = service.run_batch(&[job.clone(), job], 2, false, &defaults);
//! assert!(summary.all_ok());
//! // Identical sources share one parse.
//! assert_eq!((summary.cache.hits, summary.cache.misses), (1, 1));
//! ```

pub mod cache;
pub mod engine;
pub mod metrics;
pub mod pool;
pub mod protocol;
pub mod server;
pub mod session;

pub use calyx_core::json;

pub use cache::{content_key, digest64, CacheStats, ParseCache};
pub use engine::{write_atomic, CompileService, JobDefaults};
pub use metrics::{percentile, BatchSummary, StageTimes};
pub use pool::{catch_job_panic, WorkerPool};
pub use protocol::{
    render_listing, JobRequest, JobResponse, Request, Status, REQUEST_KEYS, RESPONSE_KEYS,
};
#[cfg(unix)]
pub use server::serve_socket;
pub use server::{serve, ServeOpts};
pub use session::{default_pipeline, Compiled, Job, Resolved, Session, Stage, StageError};
