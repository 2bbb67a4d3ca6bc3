//! A `futil`-style command-line driver for the Calyx compiler, mirroring
//! the artifact's binary (paper appendix A) — now the paper's full
//! workflow: a *frontend* selected from the `FrontendRegistry` with `-f`
//! ingests the input (generator → IR), a pass pipeline built from `-p`
//! flags compiles it, and a backend selected from the `BackendRegistry`
//! with `-b` emits the result.
//!
//! The modes (`futil <file>`, `--batch`, `serve`, `check`, `build`,
//! `plan`) and every flag are documented in one place, the usage text:
//! run `futil --help`.
//!
//! The `--list-*` outputs — and the `-f`/`-b` choices in the usage text —
//! are derived from the registries, so help can never drift from what is
//! registered. `-` as the input path reads from stdin. Parse errors are
//! rendered as caret diagnostics pointing into the offending source
//! line.
//!
//! `futil check` runs the `LintRegistry` instead of compiling: every
//! finding is reported at once (caret-annotated text, or `--format json`
//! for the schema-stable report), and the exit status is 1 when any
//! error-severity diagnostic — or, under `--deny warnings`, any
//! diagnostic at all — was produced.
//!
//! `futil build` inverts the imperative `-f`/`-p`/`-b` interface: the
//! input's *state* is inferred from its extension (or named with
//! `--from`), the goal is named with `--to`, and the `calyx_plan` route
//! planner finds the cheapest op sequence between the two. Each step
//! runs through a content-addressed artifact cache (default
//! `.futil-cache/`), so a warm rebuild executes zero steps and an edit
//! re-runs only what it invalidates; per-step `ran`/`cached` status
//! lines go to stderr. `futil plan` prints the route without running
//! it (it accepts the build flags and ignores the execution-only
//! ones), and `--list-states`/`--list-ops` print the graph. Unknown
//! or unreachable states are usage errors (exit 2) listing the valid
//! or reachable states.
//!
//! Every mode compiles through one `calyx_service::Session`: compile
//! mode and `futil check` resolve one job and call its stages, `futil
//! build` runs plan ops that are jobs of the same session, and `futil
//! --batch` and `futil serve` are thin shells over the `calyx_service`
//! crate: a shared parse cache, a `std::thread` worker pool, and the
//! JSON-lines protocol documented in the README. Serve
//! reads one request per line from stdin (or a `--socket` unix socket)
//! and streams one response per line as jobs complete; EOF shuts it
//! down cleanly. A malformed request or a panicking job produces a
//! structured error response — the server itself survives.
//!
//! Example (no Calyx source in sight — generator straight to RTL):
//!
//! ```sh
//! cargo run -p calyx_bench --bin futil -- - -f systolic \
//!   --fopt rows=2 --fopt cols=2 --fopt inner=2 -b verilog < /dev/null
//! ```

use calyx_backend::ReportFormat;
use calyx_core::ir::Context;
use calyx_core::lint::DiagnosticSink;
use calyx_core::utils::Entry;
use calyx_service::{
    CompileService, JobDefaults, JobRequest, Request, Resolved, ServeOpts, Session, Stage,
    StageError, WorkerPool,
};
use std::io::{Read, Write};
use std::path::Path;
use std::process::exit;

/// The usage text, with the frontend and backend lists derived from the
/// registries.
fn usage(session: &Session) -> String {
    let fnames: Vec<&str> = session
        .frontends
        .frontends()
        .iter()
        .map(|f| f.name)
        .collect();
    let bnames: Vec<&str> = session.backends.backends().iter().map(|b| b.name).collect();
    format!(
        "usage: futil <file|-> [flags]
       futil <inputs...> --batch [--jobs N] [--fail-fast] [--timeout MS] \
[--out-dir DIR]
       futil serve [--jobs N] [--timeout MS] [--socket PATH] \
[--max-connections N]
       futil check <file|-> [-f <frontend>] [--fopt k=v] \
[--format text|json] [--deny warnings|<lint>] [--allow <lint>]
       futil check --explain <CODE>
       futil build <file|-> --to <state> [--from <state>] [-o <file>] \
[--cache-dir DIR] [--no-cache]
       futil plan <file|-> --to <state> [--from <state>]
  -f {}
                      frontend (default: inferred from the file
                      extension, falling back to calyx); run
                      --list-frontends for descriptions and options
  --fopt key=value    frontend/generator parameter (repeatable); run
                      --list-frontends for each frontend's keys
  -p <pass-or-alias>  append a pass or pipeline alias to the pipeline
                      (repeatable; default: the backend's required
                      pipeline). Run --list-passes for the full registry.
  -b {}
                      backend (default: calyx); run --list-backends for
                      descriptions and required pipelines
  -o <file>           write the backend's output to <file>
                      (default: stdout)
  --cycles N          simulation budget (default 1_000_000)
  --format text|json  report format for report-style backends and for
                      `futil check`
  --check             run every lint before compiling; diagnostics go to
                      stderr and error-severity findings stop the run
  --deny warnings     treat warning diagnostics as fatal
  --deny <lint>       promote one lint's findings to errors (repeatable;
                      `futil check` only)
  --allow <lint>      drop one lint's findings entirely (repeatable;
                      `futil check` only)
  --explain <CODE>    print a lint's long-form documentation and exit
                      (`futil check` only; accepts a code or a name)
  --time              report per-pass wall-clock timings on stderr;
                      simulation backends also report total cycles, wall
                      time, and cycles/sec
  --stats             report per-pass analysis-cache statistics
                      (hits/misses/recomputes) on stderr, plus the
                      simulation throughput line
  --batch             compile every positional input concurrently: plain
                      inputs are one job each, `.jsonl` arguments are
                      JSON-lines job manifests (`-` reads a manifest
                      from stdin), other flags become per-job defaults.
                      Prints a summary (--format json for the machine-
                      readable one) and exits 1 if any job failed.
  --jobs N            worker threads for --batch and serve (default:
                      available parallelism)
  --fail-fast         abort a batch at the first failing job
  --timeout MS        per-job wall-clock budget in milliseconds
  --out-dir DIR       write each job's output to DIR/<name>.<ext>
  --to <state>        goal state for `futil build`/`futil plan`; run
                      `futil build --list-states` for the choices
  --from <state>      start state (default: inferred from the input's
                      file extension)
  --cache-dir DIR     artifact cache for `futil build`
                      (default: .futil-cache)
  --no-cache          run every build step; neither read nor write the
                      artifact cache
  --list-states       list plan states, then exit (build/plan)
  --list-ops          list plan ops, then exit (build/plan)
  --list-frontends    list registered frontends, then exit
  --list-passes       list registered passes and aliases, then exit
  --list-backends     list registered backends, then exit
  --list-lints        list registered lints, then exit
  -h, --help          print this message and exit
",
        fnames.join("|"),
        bnames.join("|")
    )
}

/// A *user error* in the invocation (not in the input program): print the
/// message and the usage text to stderr and exit 2.
fn usage_error(session: &Session, msg: &str) -> ! {
    eprintln!("futil: {msg}");
    eprint!("{}", usage(session));
    exit(2);
}

/// Report a failed compile stage and exit: 2 when a name in the
/// invocation did not resolve (the message lists the valid choices), 1
/// when the input program was rejected.
fn fail(e: &StageError) -> ! {
    eprintln!("futil: {e}");
    exit(if e.stage == Stage::Resolve { 2 } else { 1 });
}

/// A registry lookup that failed on a name from the command line.
fn exit_2(e: impl std::fmt::Display) -> ! {
    eprintln!("futil: {e}");
    exit(2);
}

/// The flags more than one subcommand takes. Each subcommand lists the
/// ones it accepts and parses them with [`Args::shared`].
#[derive(Clone, Copy, PartialEq)]
enum Shared {
    Frontend,
    Fopt,
    Pass,
    Backend,
    Cycles,
    Format,
    Jobs,
    Timeout,
    OutDir,
}

/// Compile mode (with `--batch`) and `futil serve` take all of them.
const ALL_SHARED: &[Shared] = &[
    Shared::Frontend,
    Shared::Fopt,
    Shared::Pass,
    Shared::Backend,
    Shared::Cycles,
    Shared::Format,
    Shared::Jobs,
    Shared::Timeout,
    Shared::OutDir,
];

/// One subcommand's argument stream and what the shared flags said.
struct Args<'a> {
    session: &'a Session,
    it: std::vec::IntoIter<String>,
    /// The shared flags' values: the defaults of every job this
    /// invocation runs (batch and serve use them as is; the single-shot
    /// modes run one job under them).
    defaults: JobDefaults,
    /// `--jobs`.
    jobs: Option<usize>,
    /// Positional inputs (`-` is stdin).
    files: Vec<String>,
}

impl<'a> Args<'a> {
    fn new(session: &'a Session, args: Vec<String>) -> Self {
        Args {
            session,
            it: args.into_iter(),
            defaults: JobDefaults::default(),
            jobs: None,
            files: Vec::new(),
        }
    }

    fn next(&mut self) -> Option<String> {
        self.it.next()
    }

    /// The value of the flag just read; `msg` is the usage error when
    /// there is none.
    fn value(&mut self, msg: &str) -> String {
        match self.it.next() {
            Some(v) => v,
            None => usage_error(self.session, msg),
        }
    }

    /// Like [`Args::value`], parsed as a number.
    fn number<T: std::str::FromStr>(&mut self, msg: &str) -> T {
        match self.it.next().and_then(|v| v.parse().ok()) {
            Some(n) => n,
            None => usage_error(self.session, msg),
        }
    }

    /// If `arg` is a shared flag this subcommand `accepts`, record it
    /// (with its value) and return true.
    fn shared(&mut self, accepts: &[Shared], arg: &str) -> bool {
        let flag = match arg {
            "-f" => Shared::Frontend,
            "--fopt" => Shared::Fopt,
            "-p" => Shared::Pass,
            "-b" => Shared::Backend,
            "--cycles" => Shared::Cycles,
            "--format" => Shared::Format,
            "--jobs" => Shared::Jobs,
            "--timeout" => Shared::Timeout,
            "--out-dir" => Shared::OutDir,
            _ => return false,
        };
        if !accepts.contains(&flag) {
            return false;
        }
        match flag {
            Shared::Frontend => {
                self.defaults.frontend = Some(self.value("`-f` expects a frontend name"));
            }
            Shared::Fopt => {
                let f = self.value("`--fopt` expects `key=value`");
                match f.split_once('=') {
                    Some((k, v)) if !k.is_empty() => {
                        self.defaults.fopts.push((k.to_string(), v.to_string()));
                    }
                    _ => usage_error(
                        self.session,
                        &format!("`--fopt` argument `{f}`; expected `key=value`"),
                    ),
                }
            }
            Shared::Pass => {
                let p = self.value("`-p` expects a pass or alias name");
                self.defaults.pipeline.get_or_insert_with(Vec::new).push(p);
            }
            Shared::Backend => self.defaults.backend = self.value("`-b` expects a backend name"),
            Shared::Cycles => self.defaults.cycles = self.number("`--cycles` expects a number"),
            Shared::Format => {
                self.defaults.format = match self.it.next().as_deref() {
                    Some("text") => ReportFormat::Text,
                    Some("json") => ReportFormat::Json,
                    _ => usage_error(self.session, "`--format` expects `text` or `json`"),
                }
            }
            Shared::Jobs => self.jobs = Some(self.number("`--jobs` expects a number")),
            Shared::Timeout => {
                self.defaults.timeout_ms = Some(self.number("`--timeout` expects milliseconds"));
            }
            Shared::OutDir => {
                self.defaults.out_dir = Some(self.value("`--out-dir` expects a directory"));
            }
        }
        true
    }

    /// An argument that is none of the subcommand's flags: help, one of
    /// at most `max_files` inputs, or a usage error (`mode` names the
    /// subcommand in it).
    fn other(&mut self, arg: String, max_files: usize, mode: &str) {
        match arg.as_str() {
            // Help is not an error: print to stdout and exit 0.
            "-h" | "--help" => {
                print!("{}", usage(self.session));
                exit(0);
            }
            // `-` is stdin, not a flag.
            f if (f == "-" || !f.starts_with('-')) && self.files.len() < max_files => {
                self.files.push(arg);
            }
            other => usage_error(
                self.session,
                &format!("unexpected argument `{other}`{mode}"),
            ),
        }
    }

    /// The one input of a single-input subcommand.
    fn file(&mut self) -> String {
        match self.files.pop() {
            Some(file) => file,
            None => usage_error(self.session, "no input file"),
        }
    }
}

/// What every `--list-<kind>` flag prints: the heading, then one row per
/// registry entry — the name padded to a fixed width, its description,
/// and the entry's note (extensions, pipeline, code, `--fopt` lines).
fn list(kind: &str, rows: &[(&str, &str, String)]) {
    println!("{kind}:");
    for (name, description, note) in rows {
        println!("  {name:<22}{description}{note}");
    }
}

/// Read the input program (`-` reads stdin), exiting 1 on I/O failure.
fn read_input(file: &str) -> String {
    let read = if file == "-" {
        let mut s = String::new();
        std::io::stdin().read_to_string(&mut s).map(|_| s)
    } else {
        std::fs::read_to_string(file)
    };
    match read {
        Ok(s) => s,
        Err(e) if file == "-" => {
            eprintln!("futil: cannot read stdin: {e}");
            exit(1);
        }
        Err(e) => {
            eprintln!("futil: cannot read `{file}`: {e}");
            exit(1);
        }
    }
}

/// Exit 1 when writing output failed.
fn written(result: std::io::Result<()>, what: &str) {
    if let Err(e) = result {
        eprintln!("futil: {what}: {e}");
        exit(1);
    }
}

/// Write a finished artifact: atomically to `-o`'s path (a failure never
/// truncates or corrupts an existing file), else to stdout.
fn write_output(out_path: Option<&str>, bytes: &[u8]) {
    match out_path {
        Some(path) => written(
            calyx_service::write_atomic(path, bytes),
            &format!("cannot write `{path}`"),
        ),
        None => {
            let mut sink = std::io::stdout().lock();
            written(
                sink.write_all(bytes).and_then(|()| sink.flush()),
                "i/o error",
            );
        }
    }
}

/// Render a cycles-per-second rate with a metric suffix (`412`,
/// `3.21K`, `1.07M`, …) for the `--time`/`--stats` throughput line.
fn human_rate(rate: f64) -> String {
    if rate >= 1e9 {
        format!("{:.2}G", rate / 1e9)
    } else if rate >= 1e6 {
        format!("{:.2}M", rate / 1e6)
    } else if rate >= 1e3 {
        format!("{:.2}K", rate / 1e3)
    } else {
        format!("{rate:.0}")
    }
}

/// The input name shown in diagnostics.
fn shown_name(file: &str) -> &str {
    if file == "-" {
        "<stdin>"
    } else {
        file
    }
}

/// The front half of compile mode and of `futil check`: resolve the one
/// job `file` is under the shared flags, read it, parse it. Prints a
/// hint when the frontend is the fallback, since that choice is a guess.
fn ingest(session: &Session, defaults: &JobDefaults, file: &str) -> (Resolved, String, Context) {
    let req = JobRequest {
        input: Some(file.to_string()),
        ..JobRequest::default()
    };
    let resolved = session
        .resolve(&defaults.job(&req))
        .unwrap_or_else(|e| fail(&e));
    if resolved.fell_back && file == "-" {
        eprintln!("futil: note: reading from stdin; assuming `-f calyx` (pass `-f` to choose)");
    } else if resolved.fell_back {
        eprintln!(
            "futil: note: no frontend claims `{file}`'s extension; assuming `-f calyx` \
             (pass `-f` to choose)"
        );
    }
    let src = read_input(file);
    let ctx = resolved
        .parse(shown_name(file), &src)
        .unwrap_or_else(|e| fail(&e));
    (resolved, src, ctx)
}

/// Whether lint findings stop the run: any error, or any finding at all
/// under `--deny warnings`.
fn fatal(sink: &DiagnosticSink, deny_warnings: bool) -> bool {
    sink.errors() > 0 || (deny_warnings && !sink.is_empty())
}

/// The `futil check --explain <CODE>` mode: print one lint's long-form
/// documentation (looked up by code or name) and exit 0; unknown lints
/// exit 2 listing every valid code.
fn explain_lint(session: &Session, query: &str) -> ! {
    let lints = session.lints.lints();
    match lints.iter().find(|l| l.code == query || l.name == query) {
        Some(lint) => {
            println!("{}: {} ({})", lint.code, lint.name, lint.severity);
            println!("\n{}", lint.description);
            println!("\n{}", lint.explanation);
            exit(0);
        }
        None => {
            let codes: Vec<String> = lints
                .iter()
                .map(|l| format!("{} ({})", l.code, l.name))
                .collect();
            exit_2(format!(
                "no lint with code or name `{query}`; valid codes: {}",
                codes.join(", ")
            ));
        }
    }
}

/// The `futil check` subcommand: run every registered lint, report every
/// finding, exit 1 when the program should not be compiled as-is.
fn run_check(session: &Session, args: Vec<String>) -> ! {
    let mut args = Args::new(session, args);
    let mut deny_warnings = false;
    let mut allow: Vec<String> = Vec::new();
    let mut deny: Vec<String> = Vec::new();
    while let Some(arg) = args.next() {
        if args.shared(&[Shared::Frontend, Shared::Fopt, Shared::Format], &arg) {
            continue;
        }
        match arg.as_str() {
            "--deny" => match args.value("`--deny` expects `warnings` or a lint name") {
                what if what == "warnings" => deny_warnings = true,
                what => deny.push(what),
            },
            "--allow" => allow.push(args.value("`--allow` expects a lint name")),
            "--explain" => explain_lint(session, &args.value("`--explain` expects a lint code")),
            "--list-lints" => {
                list("lints", &Entry::rows(session.lints.lints()));
                exit(0);
            }
            _ => args.other(arg, 1, " for `futil check`"),
        }
    }
    let file = args.file();
    // Validate lint names before touching the input: a typo in `--allow`
    // or `--deny` is a usage error listing the valid lints.
    for name in allow.iter().chain(deny.iter()) {
        if let Err(e) = session.lints.get(name) {
            exit_2(e);
        }
    }
    let (_, src, ctx) = ingest(session, &args.defaults, &file);
    let mut sink = session.lint(&ctx);
    sink.apply_lint_levels(&allow, &deny);
    match args.defaults.format {
        ReportFormat::Text => {
            // A clean check prints nothing.
            let rendered = sink.render_text(shown_name(&file), &src);
            if !rendered.is_empty() {
                println!("{rendered}");
            }
        }
        ReportFormat::Json => println!("{}", sink.render_json(shown_name(&file))),
    }
    exit(i32::from(fatal(&sink, deny_warnings)));
}

/// The `futil build` and `futil plan` subcommands: route from the
/// input's state to `--to` over the session's plan graph, then (for
/// `build`) execute the route through the artifact cache. `plan`
/// accepts the same flags and ignores the execution-only ones, so an
/// invocation can be dry-run by swapping the subcommand name.
fn run_build(session: &Session, args: Vec<String>, execute_route: bool) -> ! {
    let graph = calyx_plan::derive::from_session(session);
    let mode = if execute_route {
        " for `futil build`"
    } else {
        " for `futil plan`"
    };
    let mut args = Args::new(session, args);
    let mut to_name: Option<String> = None;
    let mut from_name: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut build = calyx_plan::BuildOpts::default();
    while let Some(arg) = args.next() {
        if args.shared(&[Shared::Fopt, Shared::Cycles, Shared::Format], &arg) {
            continue;
        }
        match arg.as_str() {
            "--to" => to_name = Some(args.value("`--to` expects a state name")),
            "--from" => from_name = Some(args.value("`--from` expects a state name")),
            "-o" => out_path = Some(args.value("`-o` expects a file path")),
            "--cache-dir" => {
                build.cache_dir = args.value("`--cache-dir` expects a directory").into()
            }
            "--no-cache" => build.use_cache = false,
            "--list-states" => {
                list("states", &Entry::rows(graph.states()));
                exit(0);
            }
            "--list-ops" => {
                list("ops", &Entry::rows(graph.ops()));
                exit(0);
            }
            _ => args.other(arg, 1, mode),
        }
    }
    let file = args.file();
    build.opts = calyx_plan::OpOpts {
        fopts: args.defaults.fopts,
        cycles: args.defaults.cycles,
        format: args.defaults.format,
    };
    let Some(to_name) = to_name else {
        usage_error(
            session,
            "`--to <state>` is required; run `--list-states` for the choices",
        );
    };
    // Unknown `--to`/`--from` states get the registry's message listing
    // every valid state.
    let to = graph.expect_state(&to_name).unwrap_or_else(|e| exit_2(e));
    let from = match &from_name {
        Some(name) => graph.expect_state(name).unwrap_or_else(|e| exit_2(e)),
        None => graph.infer_state(&file).unwrap_or_else(|| {
            exit_2(format!(
                "cannot infer a state from `{}`; pass `--from <state>` \
                 (run `--list-states` for the choices)",
                shown_name(&file)
            ))
        }),
    };
    // An unreachable goal is a usage error too: the message names the
    // states that *are* reachable from the start.
    let route = graph.plan(from, to).unwrap_or_else(|e| exit_2(e));
    if !execute_route {
        println!(
            "plan: {} -> {} ({} step{})",
            graph.state(from).name,
            graph.state(to).name,
            route.steps.len(),
            if route.steps.len() == 1 { "" } else { "s" }
        );
        for (i, &idx) in route.steps.iter().enumerate() {
            let op = &graph.ops()[idx];
            println!(
                "  {}. {:<18}{} -> {}",
                i + 1,
                op.name(),
                graph.state(op.from()).name,
                graph.state(op.to()).name
            );
        }
        exit(0);
    }
    let src = read_input(&file);
    let outcome = match calyx_plan::execute(&graph, &route, &src, session, &build) {
        Ok(o) => o,
        Err(e) => {
            // Frontend parse errors inside the first step still render
            // caret diagnostics against the original source.
            match e.caret_diagnostic(shown_name(&file), &src) {
                Some(diagnostic) => eprintln!("futil: {diagnostic}"),
                None => eprintln!("futil: {e}"),
            }
            exit(1);
        }
    };
    // Step-status lines: `futil: step <op>: ran|cached (<time>)`. Tests
    // pin everything before the parenthesized timing.
    for step in &outcome.steps {
        eprintln!(
            "futil: step {}: {} ({:.1}ms)",
            step.op,
            step.status.label(),
            step.micros as f64 / 1000.0
        );
    }
    write_output(out_path.as_deref(), outcome.output.as_bytes());
    exit(0);
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

/// The `futil serve` subcommand: a long-lived JSON-lines compilation
/// server on stdin/stdout (or a `--socket` unix socket), sharing one
/// warm parse cache across every request.
fn run_serve(session: Session, args: Vec<String>) -> ! {
    let mut args = Args::new(&session, args);
    args.defaults.inline_output = true;
    let mut socket: Option<String> = None;
    let mut max_connections: Option<usize> = None;
    while let Some(arg) = args.next() {
        if args.shared(ALL_SHARED, &arg) {
            continue;
        }
        match arg.as_str() {
            "--socket" => socket = Some(args.value("`--socket` expects a path")),
            "--max-connections" => {
                max_connections = Some(args.number("`--max-connections` expects a number"));
            }
            _ => args.other(arg, 0, " for `futil serve`"),
        }
    }
    if max_connections.is_some() && socket.is_none() {
        usage_error(&session, "`--max-connections` requires `--socket`");
    }
    let opts = ServeOpts {
        jobs: args.jobs.unwrap_or_else(WorkerPool::default_jobs),
        defaults: args.defaults,
    };
    let service = CompileService::with_session(session);
    let result = match socket {
        Some(path) => {
            calyx_service::serve_socket(&service, Path::new(&path), &opts, max_connections)
        }
        None => calyx_service::serve(&service, std::io::stdin().lock(), std::io::stdout(), &opts)
            .map(|_| ()),
    };
    match result {
        Ok(()) => exit(0),
        Err(e) => {
            eprintln!("futil: serve: {e}");
            exit(1);
        }
    }
}

fn main() {
    let session = Session::default();
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    // The subcommands take over the whole invocation.
    let subcommand = argv.first().cloned();
    match subcommand.as_deref() {
        Some("check") => run_check(&session, argv.split_off(1)),
        Some("serve") => run_serve(session, argv.split_off(1)),
        Some("build") => run_build(&session, argv.split_off(1), true),
        Some("plan") => run_build(&session, argv.split_off(1), false),
        _ => {}
    }
    let mut args = Args::new(&session, argv);
    let mut out_path: Option<String> = None;
    let mut time = false;
    let mut stats = false;
    let mut check = false;
    let mut deny_warnings = false;
    let mut batch = false;
    let mut fail_fast = false;
    while let Some(arg) = args.next() {
        if args.shared(ALL_SHARED, &arg) {
            continue;
        }
        match arg.as_str() {
            "-o" => out_path = Some(args.value("`-o` expects a file path")),
            "--check" => check = true,
            "--deny" => match args.next().as_deref() {
                Some("warnings") => deny_warnings = true,
                _ => usage_error(&session, "`--deny` expects `warnings`"),
            },
            "--time" => time = true,
            "--stats" => stats = true,
            "--batch" => batch = true,
            "--fail-fast" => fail_fast = true,
            // `--list-<kind>` for each kind of registry the session holds.
            _ => match arg
                .strip_prefix("--list-")
                .map(|kind| (kind, session.rows(kind)))
            {
                Some((kind, Ok(rows))) => {
                    list(kind, &rows);
                    if kind == "passes" {
                        println!();
                        list("aliases", &session.passes.alias_rows());
                    }
                    exit(0);
                }
                _ => args.other(arg, usize::MAX, ""),
            },
        }
    }

    // `--batch`: every positional is a job (or a manifest of jobs); the
    // shared flags are the per-job defaults.
    if batch {
        if out_path.is_some() {
            usage_error(
                &session,
                "`-o` names one output; with `--batch` use `--out-dir` or a per-job `out`",
            );
        }
        if check {
            usage_error(
                &session,
                "`--check` is not supported with `--batch`; run `futil check` separately",
            );
        }
        if args.files.is_empty() {
            usage_error(
                &session,
                "`--batch` expects input files or `.jsonl` manifests",
            );
        }
        let mut reqs: Vec<JobRequest> = Vec::new();
        for f in &args.files {
            if f == "-" || f.ends_with(".jsonl") {
                // Manifest validation failures are usage errors: the
                // whole batch is rejected before any job runs.
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
        let defaults = args.defaults;
        let summary =
            CompileService::with_session(session).run_batch(&reqs, jobs, fail_fast, &defaults);
        // `--format` doubles as the summary format; `--time`/`--stats`
        // add the per-job stage table instead of interleaving stderr.
        match defaults.format {
            ReportFormat::Json => println!("{}", summary.render_json()),
            ReportFormat::Text => println!("{}", summary.render_text(time || stats)),
        }
        exit(i32::from(!summary.all_ok()));
    }
    let batch_only = &args.defaults;
    if args.jobs.is_some()
        || fail_fast
        || batch_only.timeout_ms.is_some()
        || batch_only.out_dir.is_some()
    {
        usage_error(
            &session,
            "`--jobs`, `--fail-fast`, `--timeout`, and `--out-dir` require `--batch` or `futil serve`",
        );
    }
    if args.files.len() > 1 {
        usage_error(&session, "multiple inputs require `--batch`");
    }
    let file = args.file();
    let (mut resolved, src, mut ctx) = ingest(&session, &args.defaults, &file);

    // `--check`: run every lint before compiling. Diagnostics go to
    // stderr (stdout belongs to the backend), and the run stops on
    // error-severity findings — or any finding under `--deny warnings`.
    if check {
        let sink = session.lint(&ctx);
        let rendered = sink.render_text(shown_name(&file), &src);
        if !rendered.is_empty() {
            eprintln!("{rendered}");
        }
        if fatal(&sink, deny_warnings) {
            eprintln!("futil: `--check` found fatal diagnostics; not compiling");
            exit(1);
        }
    }

    let result = resolved.run_passes(&mut ctx);
    let pm = &resolved.passes;
    if time {
        // Timings include every pass that ran — also on failing pipelines.
        eprintln!("pass timings:");
        for t in pm.timings() {
            eprintln!("  {:<22}{:>10.3?}", t.name, t.duration);
        }
        eprintln!("  {:<22}{:>10.3?}", "total", pm.total_time());
    }
    if stats {
        // Analysis-cache activity per pass (also on failing pipelines).
        eprintln!("analysis cache stats:");
        eprintln!(
            "  {:<22}{:>8}{:>8}{:>12}",
            "pass", "hits", "misses", "recomputes"
        );
        for t in pm.timings() {
            eprintln!(
                "  {:<22}{:>8}{:>8}{:>12}",
                t.name, t.cache.hits, t.cache.misses, t.cache.recomputes
            );
        }
        let total = pm.total_cache_stats();
        eprintln!(
            "  {:<22}{:>8}{:>8}{:>12}",
            "total", total.hits, total.misses, total.recomputes
        );
    }
    if let Err(e) = result {
        fail(&e);
    }

    // Validate, then emit: streamed to stdout, or with `-o` into memory
    // and from there atomically into place. An explicit pipeline that
    // leaves the program in the wrong shape fails the backend's
    // precondition gate, cleanly, before any output exists.
    let emitted = match &out_path {
        Some(path) => {
            let mut buffer = Vec::new();
            resolved
                .emit(&ctx, &mut buffer)
                .map(|()| write_output(Some(path), &buffer))
        }
        None => {
            let mut sink = std::io::stdout().lock();
            resolved
                .emit(&ctx, &mut sink)
                .map(|()| written(sink.flush(), "i/o error"))
        }
    };
    if let Err(e) = emitted {
        eprintln!("futil: {e}");
        let backend = &resolved.backend;
        let required = backend.required_pipeline();
        // Suggest the backend's pipeline only when it wasn't already run
        // — validate failures are not always pipeline-shaped.
        let already_ran = required
            .iter()
            .all(|r| resolved.pipeline.iter().any(|p| p == r));
        if e.stage == Stage::Validate && !required.is_empty() && !already_ran {
            eprintln!(
                "futil: note: `{}` requires the pipeline `-p {}`",
                backend.name(),
                required.join(" -p ")
            );
        }
        exit(1);
    }

    // Simulation backends measure their cycle loop; report it next to
    // the pass timings (same stderr channel, same flags).
    if time || stats {
        if let Some(t) = resolved.backend.throughput() {
            eprintln!(
                "simulation: {} cycles in {:.3?} ({} cycles/sec)",
                t.cycles,
                t.wall,
                human_rate(t.cycles_per_sec())
            );
        }
    }
}
