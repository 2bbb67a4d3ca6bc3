//! A `futil`-style command-line driver for the Calyx compiler, mirroring
//! the artifact's binary (paper appendix A) — now the paper's full
//! workflow: a *frontend* selected from the `FrontendRegistry` with `-f`
//! ingests the input (generator → IR), a pass pipeline built from `-p`
//! flags compiles it, and a backend selected from the `BackendRegistry`
//! with `-b` emits the result.
//!
//! The modes (`futil <file>`, `--batch`, `serve`, `check`, `build`,
//! `plan`) and every flag are rows of one table (`futil/flags.rs`), which
//! parses every invocation and renders `futil --help`. Each mode is a
//! module:
//!
//! - `compile`: `futil <file>` compiles one input through the session's
//!   stages, into memory, then to stdout or atomically to `-o`; `--batch`
//!   compiles many through `calyx_service`'s worker pool and job cache.
//! - `check`: `futil check` runs the `LintRegistry` instead of compiling
//!   and reports every finding at once (caret-annotated text, or `--format
//!   json`); it exits 1 when an error — or, under `--deny warnings`, any
//!   finding — was produced.
//! - `build`: `futil build` names only the input's *state* (inferred from
//!   its extension, or `--from`) and the goal (`--to`); the `calyx_plan`
//!   route planner finds the op sequence between them and runs it through
//!   a content-addressed artifact cache. `futil plan` prints the route.
//! - `serve`: a long-lived JSON-lines server over one warm job cache,
//!   on stdin/stdout or a `--socket` (protocol in the README).
//!
//! Every mode compiles through one `calyx_service::Session`. The
//! `--list-*` outputs and the `-f`/`-b` choices in `--help` are derived
//! from its registries. `-` as the input path reads from stdin. Usage
//! errors exit 2, a rejected program exits 1.
//!
//! Example (no Calyx source in sight — generator straight to RTL):
//!
//! ```sh
//! cargo run -p calyx_bench --bin futil -- - -f systolic \
//!   --fopt rows=2 --fopt cols=2 --fopt inner=2 -b verilog < /dev/null
//! ```

// The modules live in `futil/`, beside this file, so cargo does not take
// them for binaries of their own.
#[path = "futil/build.rs"]
mod build;
#[path = "futil/check.rs"]
mod check;
#[path = "futil/compile.rs"]
mod compile;
#[path = "futil/flags.rs"]
mod flags;
#[path = "futil/serve.rs"]
mod serve;

use calyx_core::ir::Context;
use calyx_core::utils::Entry;
use calyx_service::{JobDefaults, JobRequest, Resolved, Session, Stage, StageError};
use std::io::{Read, Write};
use std::process::exit;

fn main() {
    let session = Session::default();
    let args = flags::parse(&session, std::env::args().skip(1).collect());
    if let Some(kind) = args.list {
        list(&session, kind);
    }
    match args.mode.bit {
        flags::COMPILE => compile::single(&session, args),
        flags::BATCH => compile::batch(session, args),
        flags::CHECK => check::run(&session, args),
        flags::BUILD => build::run(&session, args),
        _ => serve::run(session, args),
    }
}

/// Print the listing `--list-<kind>` asks for — the heading, then one row
/// per registry entry: the name padded to a fixed width, its description,
/// and the entry's note (extensions, pipeline, code, `--fopt` lines) —
/// and exit 0.
fn list(session: &Session, kind: &str) -> ! {
    let graph = calyx_plan::derive::from_session(session);
    let rows = match kind {
        "states" => Entry::rows(graph.states()),
        "ops" => Entry::rows(graph.ops()),
        _ => session.rows(kind).unwrap_or_else(|e| exit_2(e)),
    };
    let print = |kind: &str, rows: &[(&str, &str, String)]| {
        println!("{kind}:");
        for (name, description, note) in rows {
            println!("  {name:<22}{description}{note}");
        }
    };
    print(kind, &rows);
    if kind == "passes" {
        println!();
        print("aliases", &session.passes.alias_rows());
    }
    exit(0);
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

/// Read the input program (`-` reads stdin), exiting 1 on I/O failure.
fn read_input(file: &str) -> String {
    let read = if file == "-" {
        let mut s = String::new();
        std::io::stdin().read_to_string(&mut s).map(|_| s)
    } else {
        std::fs::read_to_string(file)
    };
    read.unwrap_or_else(|e| {
        match file {
            "-" => eprintln!("futil: cannot read stdin: {e}"),
            _ => eprintln!("futil: cannot read `{file}`: {e}"),
        }
        exit(1)
    })
}

/// Write a finished artifact: atomically to `-o`'s path (a failure never
/// truncates or corrupts an existing file), else to stdout. Exit 1 when
/// writing failed.
fn write_output(out_path: Option<&str>, bytes: &[u8]) {
    let (result, what) = match out_path {
        Some(path) => (
            calyx_service::write_atomic(path, bytes),
            format!("cannot write `{path}`"),
        ),
        None => {
            let mut sink = std::io::stdout().lock();
            let result = sink.write_all(bytes).and_then(|()| sink.flush());
            (result, "i/o error".to_string())
        }
    };
    if let Err(e) = result {
        eprintln!("futil: {what}: {e}");
        exit(1);
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
/// job `file` is under the job flags, read it, parse it. Prints a hint
/// when the frontend is the fallback, since that choice is a guess.
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
