//! `futil check`: run every registered lint, report every finding, exit 1
//! when the program should not be compiled as-is.

use crate::flags::Args;
use crate::{exit_2, ingest, shown_name};
use calyx_backend::ReportFormat;
use calyx_service::Session;
use std::process::exit;

pub fn run(session: &Session, mut args: Args) -> ! {
    if let Some(query) = &args.explain {
        explain_lint(session, query);
    }
    let file = args.file(session);
    // Validate lint names before touching the input: a typo in `--allow`
    // or `--deny` is a usage error listing the valid lints.
    for name in args.allow.iter().chain(&args.deny) {
        if let Err(e) = session.lints.get(name) {
            exit_2(e);
        }
    }
    let (_, src, ctx) = ingest(session, &args.defaults, &file);
    let mut sink = session.lint(&ctx);
    sink.apply_lint_levels(&args.allow, &args.deny);
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
    let fatal = sink.errors() > 0 || (args.deny_warnings && !sink.is_empty());
    exit(i32::from(fatal));
}

/// `futil check --explain <CODE>`: print one lint's long-form
/// documentation (looked up by code or name) and exit 0; unknown lints
/// exit 2 listing every valid code.
fn explain_lint(session: &Session, query: &str) -> ! {
    let lints = session.lints.lints();
    let Some(lint) = lints.iter().find(|l| l.code == query || l.name == query) else {
        let codes: Vec<String> = lints
            .iter()
            .map(|l| format!("{} ({})", l.code, l.name))
            .collect();
        exit_2(format!(
            "no lint with code or name `{query}`; valid codes: {}",
            codes.join(", ")
        ));
    };
    println!("{}: {} ({})", lint.code, lint.name, lint.severity);
    println!("\n{}", lint.description);
    println!("\n{}", lint.explanation);
    exit(0);
}
