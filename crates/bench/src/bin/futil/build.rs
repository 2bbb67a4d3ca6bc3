//! `futil build` and `futil plan`: route from the input's state to `--to`
//! over the session's plan graph, then (for `build`) execute the route
//! through the artifact cache. `plan` takes the same flags and ignores
//! the execution-only ones, so an invocation can be dry-run by swapping
//! the subcommand name.

use crate::flags::{usage_error, Args};
use crate::{exit_2, read_input, shown_name, write_output};
use calyx_service::Session;
use std::process::exit;

pub fn run(session: &Session, mut args: Args) -> ! {
    let graph = calyx_plan::derive::from_session(session);
    let file = args.file(session);
    let Some(to_name) = &args.to else {
        usage_error(
            session,
            "`--to <state>` is required; run `--list-states` for the choices",
        );
    };
    // Unknown `--to`/`--from` states get the registry's message listing
    // every valid state.
    let to = graph.expect_state(to_name).unwrap_or_else(|e| exit_2(e));
    let from = match &args.from {
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
    let opts = calyx_plan::OpOpts {
        fopts: args.defaults.fopts,
        cycles: args.defaults.cycles,
        format: args.defaults.format,
    };
    // So are `--fopt`s the source's frontend does not take, as under the
    // direct driver.
    calyx_plan::check_fopts(&graph, &route, session, &opts).unwrap_or_else(|e| exit_2(e));
    if args.mode.word == Some("plan") {
        let steps = route.steps.len();
        let (from, to) = (&graph.state(from).name, &graph.state(to).name);
        println!(
            "plan: {from} -> {to} ({steps} step{})",
            if steps == 1 { "" } else { "s" }
        );
        for (i, &idx) in route.steps.iter().enumerate() {
            let op = &graph.ops()[idx];
            let (from, to) = (&graph.state(op.from()).name, &graph.state(op.to()).name);
            println!("  {}. {:<18}{from} -> {to}", i + 1, op.name());
        }
        exit(0);
    }
    let mut build = calyx_plan::BuildOpts {
        opts,
        use_cache: !args.no_cache,
        ..calyx_plan::BuildOpts::default()
    };
    if let Some(dir) = args.cache_dir {
        build.cache_dir = dir.into();
    }
    let src = read_input(&file);
    let outcome = calyx_plan::execute(&graph, &route, &src, session, &build).unwrap_or_else(|e| {
        // Frontend parse errors inside the first step still render caret
        // diagnostics against the original source.
        match e.caret_diagnostic(shown_name(&file), &src) {
            Some(diagnostic) => eprintln!("futil: {diagnostic}"),
            None => eprintln!("futil: {e}"),
        }
        exit(1);
    });
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
    write_output(args.out.as_deref(), outcome.output.as_bytes());
    exit(0);
}
