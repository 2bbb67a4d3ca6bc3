//! Profile of the compile service's two paths: what one job costs when
//! the job cache answers it (a hit) and when it compiles (a miss), alone
//! and as a whole `run_batch`, over the 19 PolyBench kernels compiled to
//! SystemVerilog — the jobs of the ledger's `batch_warm` and
//! `batch_cold`. Two builds compare the service layer without a ledger
//! run.
//!
//! ```sh
//! cargo run --release -p calyx_bench --example service_profile
//! cargo run --release -p calyx_bench --example service_profile -- 200 2
//! ```
//!
//! Arguments: runs (default 50), workers for `run_batch` (default 2, the
//! ledger's). Each row is the median of `runs` sweeps over the 19 jobs:
//!
//! - `key` builds each job's cache key from its names
//!   (`Session::job_key`), and `resolve` constructs its frontend, backend
//!   and passes (`Session::resolve`, which only a miss pays);
//! - `execute` runs the jobs one at a time on the calling thread, against
//!   a primed service (hit) or a fresh one per sweep (miss, the
//!   service's construction untimed);
//! - `run_batch` hands all 19 to `CompileService::run_batch`, again
//!   primed or fresh.
//!
//! Every hit row checks that each job hit, and every miss row that each
//! job missed.

use calyx_service::{CompileService, JobDefaults, JobRequest, Session};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The median of `runs` timings of `sweep`.
fn median(runs: usize, mut sweep: impl FnMut() -> Duration) -> Duration {
    let mut samples: Vec<Duration> = (0..runs).map(|_| sweep()).collect();
    samples.sort();
    samples[samples.len() / 2]
}

/// Print a row: per job in µs, or per sweep in ms.
fn row(label: &str, sweep: Duration, jobs: usize, per_job: bool) {
    if per_job {
        let us = sweep.as_secs_f64() * 1e6 / jobs as f64;
        println!("  {label:<20} {us:>10.2} µs/job");
    } else {
        let ms = sweep.as_secs_f64() * 1e3;
        println!("  {label:<20} {ms:>10.3} ms/sweep");
    }
}

/// Run each job on the calling thread; every response must carry
/// `want` as its cache tag.
fn execute_all(service: &CompileService, reqs: &[JobRequest], defaults: &JobDefaults, want: &str) {
    for (id, req) in reqs.iter().enumerate() {
        let resp = service.execute(id, req, defaults);
        assert!(resp.is_ok(), "{}: {:?}", resp.name, resp.error);
        assert_eq!(resp.cache, Some(want), "{}", resp.name);
        black_box(resp);
    }
}

/// Run the jobs as one batch; every one must be a hit (`hits`) or a
/// miss.
fn batch(
    service: &CompileService,
    reqs: &[JobRequest],
    workers: usize,
    defaults: &JobDefaults,
    hits: bool,
) {
    let summary = service.run_batch(reqs, workers, false, defaults);
    assert!(summary.all_ok(), "{}", summary.render_text(false));
    let n = reqs.len() as u64;
    let want = if hits { (n, 0) } else { (0, n) };
    assert_eq!((summary.cache.hits, summary.cache.misses), want);
    black_box(summary);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let runs: usize = args
        .first()
        .and_then(|s| s.parse().ok())
        .unwrap_or(50)
        .max(1);
    let workers: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(2);

    let reqs: Vec<JobRequest> = calyx_polybench::KERNELS
        .iter()
        .map(|def| JobRequest {
            name: Some(def.name.to_string()),
            frontend: Some("polybench".to_string()),
            fopts: vec![("kernel".to_string(), def.name.to_string())],
            backend: Some("verilog".to_string()),
            ..JobRequest::default()
        })
        .collect();
    let defaults = JobDefaults {
        inline_output: true,
        ..JobDefaults::default()
    };
    let jobs = reqs.len();
    println!("service, {jobs} kernels -> verilog, {workers} workers, median of {runs} sweeps:");

    let session = Session::default();
    let key = median(runs, || {
        let start = Instant::now();
        for req in &reqs {
            black_box(session.job_key(&defaults.job(req), "<request>", ""));
        }
        start.elapsed()
    });
    row("key", key, jobs, true);
    let resolve = median(runs, || {
        let start = Instant::now();
        for req in &reqs {
            black_box(session.resolve(&defaults.job(req)).is_ok());
        }
        start.elapsed()
    });
    row("resolve", resolve, jobs, true);

    let primed = CompileService::new();
    execute_all(&primed, &reqs, &defaults, "miss");
    let hit = median(runs, || {
        let start = Instant::now();
        execute_all(&primed, &reqs, &defaults, "hit");
        start.elapsed()
    });
    row("hit execute", hit, jobs, true);
    let hit_batch = median(runs, || {
        let start = Instant::now();
        batch(&primed, &reqs, workers, &defaults, true);
        start.elapsed()
    });
    row("hit run_batch", hit_batch, jobs, false);

    let miss = median(runs, || {
        let fresh = CompileService::new();
        let start = Instant::now();
        execute_all(&fresh, &reqs, &defaults, "miss");
        start.elapsed()
    });
    row("miss execute", miss, jobs, true);
    let miss_batch = median(runs, || {
        let fresh = CompileService::new();
        let start = Instant::now();
        batch(&fresh, &reqs, workers, &defaults, false);
        start.elapsed()
    });
    row("miss run_batch", miss_batch, jobs, false);
}
