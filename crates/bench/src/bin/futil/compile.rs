//! Compile mode, `futil <file>`, and `futil <inputs...> --batch`.

use crate::flags::{usage_error, Args};
use crate::{exit_2, ingest, read_input, shown_name, write_output};
use calyx_backend::ReportFormat;
use calyx_service::{CompileService, JobRequest, Request, Session, Stage, WorkerPool};
use std::process::exit;

/// Compile the one input through the session's stages: parse, the
/// `--check` lints, then passes, validate and emit into memory. The
/// output goes to stdout, or atomically to `-o`.
pub fn single(session: &Session, mut args: Args) -> ! {
    if !args.deny.is_empty() {
        usage_error(
            session,
            "`--deny` expects `warnings`; lint names are for `futil check`",
        );
    }
    let file = args.file(session);
    let (mut resolved, src, ctx) = ingest(session, &args.defaults, &file);

    // `--check`: run every lint before compiling. Diagnostics go to
    // stderr (stdout belongs to the backend), and the run stops on
    // error-severity findings — or any finding under `--deny warnings`.
    if args.check {
        let sink = session.lint(&ctx);
        let rendered = sink.render_text(shown_name(&file), &src);
        if !rendered.is_empty() {
            eprintln!("{rendered}");
        }
        if sink.errors() > 0 || (args.deny_warnings && !sink.is_empty()) {
            eprintln!("futil: `--check` found fatal diagnostics; not compiling");
            exit(1);
        }
    }

    let compiled = resolved.compile_parsed(ctx);
    // Timings include every pass that ran — also on failing pipelines.
    let passes = &resolved.passes;
    if args.time {
        eprintln!("pass timings:");
        let total = ("total", passes.total_time());
        let rows = passes.timings().iter().map(|t| (t.name, t.duration));
        for (name, time) in rows.chain([total]) {
            eprintln!("  {name:<22}{time:>10.3?}");
        }
    }
    if args.stats {
        eprintln!("analysis cache stats:");
        eprintln!(
            "  {:<22}{:>8}{:>8}{:>12}",
            "pass", "hits", "misses", "recomputes"
        );
        let total = ("total", passes.total_cache_stats());
        let rows = passes.timings().iter().map(|t| (t.name, t.cache));
        for (name, c) in rows.chain([total]) {
            eprintln!(
                "  {name:<22}{:>8}{:>8}{:>12}",
                c.hits, c.misses, c.recomputes
            );
        }
    }
    match compiled {
        Ok(compiled) => write_output(args.out.as_deref(), &compiled.output),
        Err(e) => {
            eprintln!("futil: {e}");
            // An explicit pipeline that leaves the program in the wrong
            // shape fails the backend's precondition. Suggest the
            // backend's pipeline only when it wasn't already run.
            let required = resolved.backend.required_pipeline();
            let already_ran = required
                .iter()
                .all(|r| resolved.pipeline.iter().any(|p| p == r));
            if e.stage == Stage::Validate && !required.is_empty() && !already_ran {
                eprintln!(
                    "futil: note: `{}` requires the pipeline `-p {}`",
                    resolved.backend.name(),
                    required.join(" -p ")
                );
            }
            exit(1);
        }
    }

    // Simulation backends measure their cycle loop; report it next to
    // the pass timings (same stderr channel, same flags).
    let throughput = resolved.backend.throughput();
    if let Some(t) = throughput.filter(|_| args.time || args.stats) {
        eprintln!(
            "simulation: {} cycles in {:.3?} ({} cycles/sec)",
            t.cycles,
            t.wall,
            human_rate(t.cycles_per_sec())
        );
    }
    exit(0);
}

/// Render a cycles-per-second rate with a metric suffix (`412`,
/// `3.21K`, `1.07M`, …) for the `--time`/`--stats` throughput line.
fn human_rate(rate: f64) -> String {
    let units = [(1e9, "G"), (1e6, "M"), (1e3, "K")];
    match units.into_iter().find(|&(unit, _)| rate >= unit) {
        Some((unit, suffix)) => format!("{:.2}{suffix}", rate / unit),
        None => format!("{rate:.0}"),
    }
}

/// `--batch`: every positional is a job, or a JSON-lines manifest of
/// jobs; the job flags are the per-job defaults. Prints the summary and
/// exits 1 if any job failed.
pub fn batch(session: Session, args: Args) -> ! {
    if args.inputs.is_empty() {
        usage_error(
            &session,
            "`--batch` expects input files or `.jsonl` manifests",
        );
    }
    let mut reqs: Vec<JobRequest> = Vec::new();
    for f in &args.inputs {
        if f == "-" || f.ends_with(".jsonl") {
            // Manifest validation failures are usage errors: the whole
            // batch is rejected before any job runs.
            let text = read_input(f);
            match manifest_requests(shown_name(f), &text) {
                Ok(r) => reqs.extend(r),
                Err(msg) => exit_2(msg),
            }
        } else {
            reqs.push(JobRequest {
                input: Some(f.clone()),
                ..JobRequest::default()
            });
        }
    }
    let jobs = args.jobs.unwrap_or_else(WorkerPool::default_jobs);
    let service = CompileService::with_session(session);
    let summary = service.run_batch(&reqs, jobs, args.fail_fast, &args.defaults);
    // `--format` doubles as the summary format; `--time`/`--stats` add
    // the per-job stage table instead of interleaving stderr.
    match args.defaults.format {
        ReportFormat::Json => println!("{}", summary.render_json()),
        ReportFormat::Text => println!("{}", summary.render_text(args.time || args.stats)),
    }
    exit(i32::from(!summary.all_ok()));
}

/// Parse a JSON-lines job manifest into requests, prefixing every error
/// with `path:line` so a typo'd key is pinpointed across files.
fn manifest_requests(path: &str, text: &str) -> Result<Vec<JobRequest>, String> {
    let mut reqs = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match Request::from_json_line(line) {
            Ok(Request::Job(job)) => reqs.push(*job),
            Ok(Request::List(_)) => {
                return Err(format!(
                    "{path}:{}: `list` requests are only valid in serve mode",
                    idx + 1
                ));
            }
            Err(msg) => return Err(format!("{path}:{}: {msg}", idx + 1)),
        }
    }
    Ok(reqs)
}
