//! End-to-end tests of the `futil` binary's frontend and backend
//! surfaces: registry-driven `-f`/`-b`, extension-based frontend
//! inference, stdin input, `--fopt` plumbing, caret diagnostics,
//! `--list-frontends`/`--list-backends`, `-o`, pipeline auto-append,
//! and clean precondition failures.

use calyx_backend::BackendRegistry;
use calyx_frontend::FrontendRegistry;
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn example(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../examples/{name}"))
}

fn counter() -> PathBuf {
    example("counter.futil")
}

fn futil(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_futil"))
        .args(args)
        .output()
        .expect("futil spawns")
}

/// Run futil with `input` piped to stdin (for the `-` input path).
fn futil_stdin(args: &[&str], input: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_futil"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("futil spawns");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(input.as_bytes())
        .expect("stdin writes");
    child.wait_with_output().expect("futil exits")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// An explicit pipeline that leaves the precondition unmet fails with a
/// clean error — exit 1, no partial output — naming the backend and the
/// missing passes.
#[test]
fn unmet_precondition_is_a_clean_exit_1_with_no_output() {
    let file = counter();
    let out = futil(&[file.to_str().unwrap(), "-b", "verilog", "-p", "none"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(out.stdout.is_empty(), "partial output: {}", stdout(&out));
    let err = stderr(&out);
    assert!(
        err.contains("backend `verilog` precondition failed"),
        "{err}"
    );
    assert!(err.contains("-p lower"), "{err}");
}

/// A component that instantiates itself is refused with one message by
/// every backend, with or without `well-formed` in the pipeline, and by
/// `futil check` — never by overflowing the stack in a hierarchy walk.
#[test]
fn cyclic_instantiation_is_a_clean_exit_1_everywhere() {
    let src = "component c() -> () {
          cells { x = c(); r = std_reg(1); }
          wires { group g { x.go = 1'd1; r.in = 1'd1; r.write_en = 1'd1; g[done] = r.done; } }
          control { g; }
        }
        component main() -> () {
          cells { y = c(); }
          wires { group h { y.go = 1'd1; h[done] = y.done; } }
          control { h; }
        }";
    let cyclic = "cyclic component instantiation through `c`";
    let unchecked = "-p compile-control -p go-insertion -p remove-groups";
    for backend in ["sim", "interp", "area", "verilog"] {
        for pipeline in ["", unchecked] {
            let mut args = vec!["-", "-b", backend];
            args.extend(pipeline.split_whitespace());
            let out = futil_stdin(&args, src);
            assert_eq!(out.status.code(), Some(1), "{args:?}: {}", stderr(&out));
            assert!(stderr(&out).contains(cyclic), "{args:?}: {}", stderr(&out));
        }
    }
    let out = futil_stdin(&["check", "-"], src);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let report = stdout(&out);
    assert!(report.contains("error[C0100]"), "{report}");
    assert!(report.contains(cyclic), "{report}");
}

/// The interpreter runs the paper's Fig 7 hierarchy un-lowered, PE
/// components and all, and leaves the `out` the lowered design does.
#[test]
fn interp_and_sim_leave_the_same_systolic_out() {
    let file = example("matmul2x2.systolic");
    let out_line = |backend: &str| {
        let out = futil(&[file.to_str().unwrap(), "-b", backend]);
        assert_eq!(out.status.code(), Some(0), "{backend}: {}", stderr(&out));
        let report = stdout(&out);
        let line = report.lines().find(|l| l.starts_with("out = "));
        line.unwrap_or_else(|| panic!("{backend}: no `out`: {report}"))
            .to_string()
    };
    assert_eq!(out_line("interp"), out_line("sim"));
}

/// Unknown backends exit 2 with the registry's message listing the valid
/// choices (derived, not hardcoded).
#[test]
fn unknown_backend_exits_2_listing_registry_choices() {
    let file = counter();
    let out = futil(&[file.to_str().unwrap(), "-b", "verilgo"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    for b in BackendRegistry::default().backends() {
        assert!(err.contains(b.name), "missing `{}` in: {err}", b.name);
    }
}

/// `--list-backends` names every registered backend with its description
/// and required pipeline.
#[test]
fn list_backends_reflects_the_registry() {
    let out = futil(&["--list-backends"]);
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    for b in BackendRegistry::default().backends() {
        assert!(text.contains(b.name), "{text}");
        assert!(text.contains(b.description), "{text}");
    }
    assert!(text.contains("[pipeline: lower]"), "{text}");
}

/// The usage text derives its `-b` choices from the registry.
#[test]
fn help_derives_backend_list_from_registry() {
    let out = futil(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let names: Vec<&str> = BackendRegistry::default()
        .backends()
        .iter()
        .map(|b| b.name)
        .collect();
    assert!(
        stdout(&out).contains(&format!("-b {}", names.join("|"))),
        "{}",
        stdout(&out)
    );
}

/// The full smoke matrix: every registered backend accepts the counter
/// with no explicit pipeline (the driver appends the backend's required
/// pipeline) and produces non-empty output.
#[test]
fn every_backend_runs_the_counter_end_to_end() {
    let file = counter();
    for b in BackendRegistry::default().backends() {
        let out = futil(&[file.to_str().unwrap(), "-b", b.name]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "backend `{}`: {}",
            b.name,
            stderr(&out)
        );
        assert!(
            !out.stdout.is_empty(),
            "backend `{}` emitted nothing",
            b.name
        );
    }
}

/// `-o` streams to a file; the bytes match the stdout mode.
#[test]
fn output_file_matches_stdout() {
    let file = counter();
    let via_stdout = futil(&[file.to_str().unwrap(), "-p", "lower", "-b", "verilog"]);
    assert_eq!(via_stdout.status.code(), Some(0));

    let target = std::env::temp_dir().join("futil_cli_counter.sv");
    let _ = std::fs::remove_file(&target);
    let out = futil(&[
        file.to_str().unwrap(),
        "-p",
        "lower",
        "-b",
        "verilog",
        "-o",
        target.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(out.stdout.is_empty(), "stdout not empty with -o");
    let written = std::fs::read(&target).unwrap();
    assert_eq!(written, via_stdout.stdout);
    let _ = std::fs::remove_file(&target);
}

/// A failed emission with `-o` must not destroy an existing output file
/// (emission goes to a temp file renamed into place on success).
#[test]
fn failed_emission_preserves_existing_output_file() {
    let file = counter();
    let target = std::env::temp_dir().join("futil_cli_preserved.out");
    std::fs::write(&target, b"previous good output").unwrap();
    // Valid program, runtime failure: the 2-cycle budget times out.
    let out = futil(&[
        file.to_str().unwrap(),
        "-b",
        "sim",
        "--cycles",
        "2",
        "-o",
        target.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert_eq!(
        std::fs::read(&target).unwrap(),
        b"previous good output",
        "failed emission clobbered the existing file"
    );
    let _ = std::fs::remove_file(&target);
}

/// `--cycles` flows through `BackendOpts` to the sim backend: an
/// impossible budget fails, and with a diagnostic quoting the budget.
#[test]
fn cycle_budget_reaches_the_sim_backend() {
    let file = counter();
    let out = futil(&[file.to_str().unwrap(), "-b", "sim", "--cycles", "2"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("2 cycles"), "{}", stderr(&out));
}

/// `--list-frontends` names every registered frontend with its
/// description, extensions, and `--fopt` keys.
#[test]
fn list_frontends_reflects_the_registry() {
    let out = futil(&["--list-frontends"]);
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    for f in FrontendRegistry::default().frontends() {
        assert!(text.contains(f.name), "{text}");
        assert!(text.contains(f.description), "{text}");
        for ext in f.extensions {
            assert!(text.contains(&format!(".{ext}")), "missing .{ext}: {text}");
        }
        for (key, what) in f.options {
            assert!(text.contains(&format!("--fopt {key}")), "{text}");
            assert!(text.contains(what), "{text}");
        }
    }
}

/// The usage text derives its `-f` choices from the registry.
#[test]
fn help_derives_frontend_list_from_registry() {
    let out = futil(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let names: Vec<&str> = FrontendRegistry::default()
        .frontends()
        .iter()
        .map(|f| f.name)
        .collect();
    assert!(
        stdout(&out).contains(&format!("-f {}", names.join("|"))),
        "{}",
        stdout(&out)
    );
}

/// Unknown frontends exit 2 with the registry's message listing the
/// valid choices (derived, not hardcoded).
#[test]
fn unknown_frontend_exits_2_listing_registry_choices() {
    let file = counter();
    let out = futil(&[file.to_str().unwrap(), "-f", "dahlai"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    for f in FrontendRegistry::default().frontends() {
        assert!(err.contains(f.name), "missing `{}` in: {err}", f.name);
    }
}

/// Unknown `--fopt` keys exit 2 naming the frontend and its valid keys.
#[test]
fn unknown_fopt_exits_2_naming_the_frontend() {
    let file = counter();
    let out = futil(&[file.to_str().unwrap(), "--fopt", "rows=2"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("option `rows` for frontend `calyx`"), "{err}");

    let out = futil(&["-", "-f", "systolic", "--fopt", "rosw=2"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("frontend `systolic`"), "{err}");
    assert!(err.contains("rows"), "{err}");

    // A malformed --fopt (no `=`) is also a usage error.
    let out = futil(&[file.to_str().unwrap(), "--fopt", "rows"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("key=value"), "{}", stderr(&out));
}

/// `-f` is inferred from the input's file extension: `.fuse` selects the
/// dahlia frontend, `.systolic` the systolic generator, `.futil` the
/// native parser — and an explicit `-f calyx` matches the default path
/// byte-for-byte.
#[test]
fn frontend_is_inferred_from_the_extension() {
    let fuse = example("dotprod.fuse");
    let out = futil(&[fuse.to_str().unwrap(), "-b", "verilog"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stdout(&out).contains("module main"), "{}", stdout(&out));

    let systolic = example("matmul2x2.systolic");
    let out = futil(&[systolic.to_str().unwrap(), "-b", "verilog"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stdout(&out).contains("module mac_pe"), "{}", stdout(&out));

    let file = counter();
    let inferred = futil(&[file.to_str().unwrap()]);
    let explicit = futil(&[file.to_str().unwrap(), "-f", "calyx"]);
    assert_eq!(inferred.status.code(), Some(0));
    assert_eq!(inferred.stdout, explicit.stdout);
}

/// `-` reads the program from stdin; without `-f` the driver assumes
/// the native parser and prints a hint naming `-f`.
#[test]
fn stdin_input_works_and_hints_at_dash_f() {
    let src = std::fs::read_to_string(counter()).unwrap();
    let via_stdin = futil_stdin(&["-", "-b", "verilog"], &src);
    assert_eq!(via_stdin.status.code(), Some(0), "{}", stderr(&via_stdin));
    assert!(
        stderr(&via_stdin).contains("`-f`"),
        "{}",
        stderr(&via_stdin)
    );

    // Same bytes as reading the file directly.
    let via_file = futil(&[counter().to_str().unwrap(), "-b", "verilog"]);
    assert_eq!(via_stdin.stdout, via_file.stdout);

    // With an explicit -f, stdin feeds any frontend (and no hint).
    let dahlia = std::fs::read_to_string(example("dotprod.fuse")).unwrap();
    let out = futil_stdin(&["-", "-f", "dahlia", "-b", "verilog"], &dahlia);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(!stderr(&out).contains("assuming"), "{}", stderr(&out));
    assert!(stdout(&out).contains("module main"), "{}", stdout(&out));
}

/// Generator frontends run with no source at all: every dimension can
/// arrive via `--fopt` (the acceptance-criteria invocation).
#[test]
fn systolic_frontend_runs_from_fopts_alone() {
    let out = futil_stdin(
        &[
            "-", "-f", "systolic", "--fopt", "rows=2", "--fopt", "cols=2", "--fopt", "inner=2",
            "-b", "sim",
        ],
        "",
    );
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let report = stdout(&out);
    assert!(report.starts_with("done in "), "{report}");
    assert!(report.contains("out = "), "{report}");

    // A missing dimension is an input error (exit 1) telling the user
    // both ways to supply it.
    let out = futil_stdin(&["-", "-f", "systolic", "--fopt", "rows=2"], "");
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("--fopt cols=N"), "{}", stderr(&out));
}

/// The polybench frontend selects kernels by name and honors `n`.
#[test]
fn polybench_frontend_selects_kernels() {
    let out = futil_stdin(
        &[
            "-",
            "-f",
            "polybench",
            "--fopt",
            "kernel=gemm",
            "-b",
            "calyx",
        ],
        "",
    );
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(!out.stdout.is_empty());

    // Unknown kernels list the valid ones.
    let out = futil_stdin(
        &[
            "-",
            "-f",
            "polybench",
            "--fopt",
            "kernel=gmem",
            "-b",
            "calyx",
        ],
        "",
    );
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("gemm"), "{err}");
    assert!(err.contains("trisolv"), "{err}");
}

/// Parse errors render caret diagnostics: file name, line:col, the
/// offending source line, and a `^` under the column.
#[test]
fn parse_errors_render_caret_diagnostics() {
    let dir = std::env::temp_dir().join("futil_cli_caret");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.futil");
    std::fs::write(&bad, "component main() -> () {\n  cells x\n}\n").unwrap();
    let out = futil(&[bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("bad.futil:2:"), "{err}");
    assert!(err.contains("  cells x"), "{err}");
    assert!(
        err.lines().last().unwrap().trim_end().ends_with('^'),
        "{err}"
    );
    let _ = std::fs::remove_file(&bad);

    // Stdin diagnostics are anchored to `<stdin>`.
    let out = futil_stdin(&["-"], "component main( {\n");
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("<stdin>:1:"), "{}", stderr(&out));
}

const EXTERN_PROGRAM: &str = "extern \"blackbox.sv\" { component my_unit(in: 8) -> (out: 8); }
component main() -> () {
  cells { r = std_reg(8); u = my_unit(); }
  wires { u.in = 8'd1; }
  control {}
}
";

/// An `extern` prints back as an `extern`, so `-b calyx` output is a
/// program `futil` reads back to the same text; the Verilog backend
/// refuses the black box before writing a byte.
#[test]
fn extern_programs_print_back_and_have_no_template() {
    let first = futil_stdin(&["-", "-b", "calyx", "-p", "none"], EXTERN_PROGRAM);
    assert_eq!(first.status.code(), Some(0), "{}", stderr(&first));
    assert!(
        stdout(&first)
            .starts_with("extern \"blackbox.sv\" {\n  component my_unit(in: 8) -> (out: 8);\n}\n"),
        "{}",
        stdout(&first)
    );
    let second = futil_stdin(&["-", "-b", "calyx", "-p", "none"], &stdout(&first));
    assert_eq!(second.status.code(), Some(0), "{}", stderr(&second));
    assert_eq!(stdout(&second), stdout(&first));

    let sv = futil_stdin(&["-", "-b", "verilog"], EXTERN_PROGRAM);
    assert_eq!(sv.status.code(), Some(1));
    assert!(sv.stdout.is_empty(), "{}", stdout(&sv));
    assert!(
        stderr(&sv).contains("`my_unit`, which has no SystemVerilog template"),
        "{}",
        stderr(&sv)
    );
}

/// An `extern` naming a std primitive is a parse error at the name, for
/// every backend — it used to replace `std_reg` for the rest of the
/// program.
#[test]
fn an_extern_cannot_shadow_a_std_primitive() {
    let src = "extern \"bb.sv\" { component std_reg(in: 8) -> (out: 8); }
component main() -> () { cells { r = std_reg(); } wires {} control {} }
";
    for backend in ["calyx", "verilog", "area", "sim"] {
        let out = futil_stdin(&["-", "-b", backend], src);
        assert_eq!(out.status.code(), Some(1), "{backend}");
        assert!(out.stdout.is_empty(), "{backend}: {}", stdout(&out));
        let err = stderr(&out);
        assert!(err.contains("<stdin>:1:28"), "{backend}: {err}");
        assert!(
            err.contains("redefines the standard primitive `std_reg`"),
            "{err}"
        );
        assert!(
            err.lines().last().unwrap().trim_end().ends_with('^'),
            "{err}"
        );
    }
}

/// `--format json` flows through `BackendOpts` to the area backend.
#[test]
fn area_backend_reports_text_and_json() {
    let file = counter();
    let text = futil(&[file.to_str().unwrap(), "-b", "area"]);
    assert_eq!(text.status.code(), Some(0), "{}", stderr(&text));
    assert!(stdout(&text).starts_with("luts "), "{}", stdout(&text));

    let json = futil(&[file.to_str().unwrap(), "-b", "area", "--format", "json"]);
    assert_eq!(json.status.code(), Some(0));
    let body = stdout(&json);
    assert!(body.trim_end().starts_with("{\"luts\": "), "{body}");
    assert!(body.trim_end().ends_with('}'), "{body}");
}
