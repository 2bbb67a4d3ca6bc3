//! The three entry points — the direct `futil` driver,
//! `CompileService::execute`, and `calyx_plan::execute` — share one
//! compile core, so the same bad job must be rejected with the same
//! message on all three. (That good jobs produce the same bytes is
//! pinned by `batch_differential.rs` and `futil_plan_cli.rs`.)

use calyx_backend::{Backend, BackendOpts, BackendRegistry};
use calyx_core::errors::{CalyxResult, Error};
use calyx_core::ir::Context;
use calyx_plan::{derive, BuildOpts, ExecEnv, OpOpts};
use calyx_service::{CompileService, JobDefaults, JobRequest, Status};
use std::io::{ErrorKind, Write};
use std::process::{Command, Stdio};

const GOOD: &str = "component main() -> () {
    cells { r = std_reg(8); }
    wires { group g { r.in = 8'd7; r.write_en = 1'd1; g[done] = r.done; } }
    control { g; }
  }";

const BAD: &str = "component main( {";

/// Exit code and stderr of `futil - <args>` fed `src` on stdin.
fn direct(args: &[&str], src: &str) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_futil"))
        .arg("-")
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("futil spawns");
    // A job rejected before its input is read (an unknown pass or backend
    // is a usage error) may exit before this write lands: a closed pipe is
    // that exit, which the assertions below judge by code and message.
    let mut stdin = child.stdin.take().expect("piped stdin");
    if let Err(e) = stdin.write_all(src.as_bytes()) {
        assert_eq!(e.kind(), ErrorKind::BrokenPipe, "stdin writes: {e}");
    }
    drop(stdin);
    let out = child.wait_with_output().expect("futil exits");
    assert!(out.stdout.is_empty(), "a rejected job printed output");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// The error of a job the default service must reject.
fn service(req: JobRequest) -> String {
    let resp = CompileService::new().execute(0, &req, &JobDefaults::default());
    assert_eq!(resp.status, Status::Error);
    resp.error.expect("error responses carry a message")
}

/// The error of building `src` from state `from` to state `to`, over
/// the graph derived from `derived` and executed against `env`.
fn plan(derived: &ExecEnv, env: &ExecEnv, from: &str, to: &str, src: &str, opts: OpOpts) -> Error {
    let graph = derive::from_session(derived);
    let route = graph
        .plan(graph.state_id(from).unwrap(), graph.state_id(to).unwrap())
        .unwrap();
    let build = BuildOpts {
        opts,
        use_cache: false,
        ..BuildOpts::default()
    };
    calyx_plan::execute(&graph, &route, src, env, &build).expect_err("the build must fail")
}

/// A third-party backend the standard registries lack, declaring a
/// pipeline the pass registry lacks: the plan path's way to name an
/// unknown backend (derive with it, execute without) and an unknown
/// pass (its `emit-ghost` op runs its declared pipeline).
struct Ghost;

impl Backend for Ghost {
    const NAME: &'static str = "ghost";
    const DESCRIPTION: &'static str = "never emits (test only)";
    const EXTENSION: &'static str = "ghost";

    fn from_opts(_: &BackendOpts) -> Self {
        Ghost
    }

    fn required_pipeline(&self) -> &'static [&'static str] {
        &["no-such-pass"]
    }

    fn validate(&self, _: &Context) -> CalyxResult<()> {
        Ok(())
    }

    fn emit(&self, _: &Context, _: &mut dyn Write) -> CalyxResult<()> {
        Ok(())
    }
}

fn with_ghost() -> ExecEnv {
    let mut backends = BackendRegistry::default();
    backends.register::<Ghost>();
    ExecEnv {
        backends,
        ..ExecEnv::default()
    }
}

/// Names that do not resolve are the invocation's fault: exit 2 from
/// the driver, and the registry's message — which lists the valid
/// choices — verbatim from all three.
#[test]
fn unresolved_names_read_the_same_everywhere() {
    let std_env = ExecEnv::default();
    let source = |src: &str| JobRequest {
        source: Some(src.to_string()),
        ..JobRequest::default()
    };

    // An unknown `--fopt` key.
    let typo = vec![("rosw".to_string(), "2".to_string())];
    let from_plan = plan(
        &std_env,
        &std_env,
        "systolic",
        "calyx",
        "",
        OpOpts {
            fopts: typo.clone(),
            ..OpOpts::default()
        },
    );
    let want = from_plan.to_string();
    assert!(
        want.contains("option `rosw` for frontend `systolic`; valid options: rows"),
        "{want}"
    );
    let (code, err) = direct(&["-f", "systolic", "--fopt", "rosw=2"], "");
    assert_eq!(
        (code, err.trim_end()),
        (Some(2), &*format!("futil: {want}"))
    );
    let from_service = service(JobRequest {
        frontend: Some("systolic".to_string()),
        fopts: typo,
        ..JobRequest::default()
    });
    assert_eq!(from_service, want);

    // An unknown pass.
    let ghost = with_ghost();
    let from_plan = plan(
        &ghost,
        &ghost,
        "calyx",
        "ghost-report",
        GOOD,
        OpOpts::default(),
    );
    let want = from_plan.to_string();
    assert!(
        want.contains("pass or alias `no-such-pass`; valid passes: "),
        "{want}"
    );
    let (code, err) = direct(&["-p", "no-such-pass"], GOOD);
    assert_eq!(
        (code, err.trim_end()),
        (Some(2), &*format!("futil: {want}"))
    );
    let from_service = service(JobRequest {
        pipeline: Some(vec!["no-such-pass".to_string()]),
        ..source(GOOD)
    });
    assert_eq!(from_service, want);

    // An unknown backend.
    let from_plan = plan(
        &ghost,
        &std_env,
        "calyx",
        "ghost-report",
        GOOD,
        OpOpts::default(),
    );
    let want = from_plan.to_string();
    assert!(
        want.contains("backend `ghost`; valid backends: calyx"),
        "{want}"
    );
    let (code, err) = direct(&["-b", "ghost"], GOOD);
    assert_eq!(
        (code, err.trim_end()),
        (Some(2), &*format!("futil: {want}"))
    );
    let from_service = service(JobRequest {
        backend: Some("ghost".to_string()),
        ..source(GOOD)
    });
    assert_eq!(from_service, want);
}

/// A source the frontend rejects is the program's fault: exit 1 from
/// the driver, and one position and explanation from all three — with
/// the caret diagnostic wherever the source's name is known.
#[test]
fn parse_errors_read_the_same_everywhere() {
    let std_env = ExecEnv::default();
    let from_plan = plan(
        &std_env,
        &std_env,
        "calyx",
        "verilog",
        BAD,
        OpOpts::default(),
    );
    let Error::Parse { msg, line, col } = &from_plan else {
        panic!("not a parse error: {from_plan}");
    };
    let carets = |name: &str| {
        format!(
            "parse error at {name}:{line}:{col}: {msg}\n {line} | {BAD}\n   | {}^",
            " ".repeat(col - 1)
        )
    };

    let (code, err) = direct(&["-b", "verilog"], BAD);
    assert_eq!(code, Some(1));
    // After the note that `-f calyx` was assumed for stdin.
    assert!(
        err.trim_end()
            .ends_with(&format!("futil: {}", carets("<stdin>"))),
        "{err}"
    );

    let from_service = service(JobRequest {
        source: Some(BAD.to_string()),
        backend: Some("verilog".to_string()),
        ..JobRequest::default()
    });
    assert_eq!(from_service, carets("<request>"));
}
