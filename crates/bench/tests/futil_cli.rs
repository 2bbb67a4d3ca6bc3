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
use std::time::{Duration, Instant};

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

/// The caret counts characters: after a two-byte `é` it still lands under
/// the first letter of the offending name.
#[test]
fn the_caret_lands_under_the_name_after_a_non_ascii_character() {
    let src = "extern \"é.sv\" { component std_reg(in: 8) -> (out: 8); }\n";
    let out = futil_stdin(&["-"], src);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("<stdin>:1:27"), "{err}");
    let caret = err.lines().last().unwrap();
    let column = caret.chars().count() - " 1 | ".chars().count();
    assert_eq!(caret.trim_end().chars().last(), Some('^'), "{err}");
    assert_eq!(
        src.chars().skip(column - 1).take(7).collect::<String>(),
        "std_reg",
        "{err}"
    );
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

/// A program whose one guard is `guard`.
fn guarded_by(guard: &str) -> String {
    format!(
        "component main(a: 1, b: 1) -> (out: 1) {{
           cells {{ r = std_reg(1); }}
           wires {{
             out = r.out;
             group g {{ r.in = {guard} ? 1'd1; r.write_en = 1'd1; g[done] = r.done; }}
           }}
           control {{ g; }}
         }}"
    )
}

/// A 100,000-term `&` chain is one guard 100,000 nodes deep: every pass
/// and the Verilog writer walk it without recursing, so it reaches
/// Verilog, whole.
#[test]
fn a_flat_100000_term_chain_reaches_verilog() {
    let terms: Vec<&str> = (0..100_000).map(|i| ["a", "b"][i % 2]).collect();
    let out = futil_stdin(&["-", "-b", "verilog"], &guarded_by(&terms.join(" & ")));
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let sv = stdout(&out);
    // The chain is left-leaning, so its Verilog is `((a & b) & a) & …`
    // with every connective in parentheses.
    let mut chain = "(".repeat(terms.len() - 1) + terms[0];
    for term in &terms[1..] {
        chain.push_str(" & ");
        chain.push_str(term);
        chain.push(')');
    }
    let driver = sv
        .lines()
        .find(|l| l.starts_with("  assign r_in = "))
        .expect("r.in is driven");
    assert!(driver.contains(&chain), "{}", &driver[..80]);
}

/// A 200,000-term chain guarding a group under a `while` and under an
/// `if` whose condition is combinational: `compile-control` asks whether
/// the group reads what the condition drives through the pool's port
/// iterator, which keeps its own stack, so both lower to Verilog.
#[test]
fn a_200000_term_chain_under_while_and_if_lowers() {
    let terms: Vec<&str> = (0..200_000).map(|i| ["a", "b"][i % 2]).collect();
    for ctrl in ["while", "if"] {
        let src = format!(
            "component main(a: 1, b: 1) -> (out: 1) {{
               cells {{ r = std_reg(1); lt = std_lt(1); }}
               wires {{
                 out = r.out;
                 group cond {{ lt.left = r.out; lt.right = 1'd1; cond[done] = 1'd1; }}
                 group g {{ r.in = {} ? 1'd1; r.write_en = 1'd1; g[done] = r.done; }}
               }}
               control {{ {ctrl} lt.out with cond {{ g; }} }}
             }}",
            terms.join(" & ")
        );
        let out = futil_stdin(&["-", "-p", "lower", "-b", "verilog"], &src);
        assert_eq!(out.status.code(), Some(0), "{ctrl}: {}", stderr(&out));
        assert!(stdout(&out).contains("module main"), "{ctrl}");
    }
}

/// `!` and `(` nested past the parser's cap are a positioned parse error,
/// not a stack overflow.
#[test]
fn deeply_nested_guards_are_parse_errors() {
    for guard in [
        "(".repeat(20_000) + "a" + &")".repeat(20_000),
        "!".repeat(50_000) + "a",
    ] {
        let out = futil_stdin(&["-", "-b", "verilog"], &guarded_by(&guard));
        assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
        assert!(out.stdout.is_empty());
        let err = stderr(&out);
        assert!(
            err.contains("guard nests deeper than 256 levels of `!` and `(`"),
            "{}",
            &err[..err.len().min(300)]
        );
    }
}

/// A done condition that is a 100,000-term chain simulates under both
/// engines: the interpreter evaluates a condition that deep in index
/// order instead of recursing, and the RTL engine never recurses.
#[test]
fn a_flat_100000_term_done_condition_simulates() {
    let terms: Vec<&str> = std::iter::once("r.done")
        .chain((0..100_000).map(|i| ["!a", "!b"][i % 2]))
        .collect();
    let src = format!(
        "component main(a: 1, b: 1) -> (out: 1) {{
           cells {{ r = std_reg(1); }}
           wires {{
             out = r.out;
             group g {{ r.in = 1'd1; r.write_en = 1'd1; g[done] = {} ? 1'd1; }}
           }}
           control {{ g; }}
         }}",
        terms.join(" & ")
    );
    for backend in ["interp", "sim"] {
        let out = futil_stdin(&["-", "-b", backend], &src);
        assert_eq!(out.status.code(), Some(0), "{backend}: {}", stderr(&out));
        assert_eq!(stdout(&out), "done in 2 cycles\nr = 1\n", "{backend}");
    }
}

/// `-b area` keys guard nodes by their text, which grows with the square
/// of a chain's length: a 40,000-term chain is refused with an error
/// before any key is built, instead of exhausting memory.
#[test]
fn a_40000_term_chain_is_an_area_error_not_an_abort() {
    let n = 40_000;
    let cells: Vec<String> = (0..n).map(|i| format!("w{i} = std_reg(1);")).collect();
    let terms: Vec<String> = (0..n).map(|i| format!("w{i}.out")).collect();
    let src = format!(
        "component main() -> () {{
           cells {{ r = std_reg(1); {} }}
           wires {{ r.in = {} ? 1'd1; }}
           control {{}}
         }}",
        cells.join(" "),
        terms.join(" & ")
    );
    let started = Instant::now();
    let out = futil_stdin(&["-", "-p", "none", "-b", "area"], &src);
    assert!(started.elapsed() < Duration::from_secs(20));
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(out.stdout.is_empty(), "{}", stdout(&out));
    assert!(
        stderr(&out).contains("backend `area` failed: the guards print as more than"),
        "{}",
        stderr(&out)
    );
}

/// A memory too large to allocate is an elaboration error under both
/// engines, from textual Calyx and from Dahlia alike: exit 1 in well under
/// a second, not an allocation abort.
#[test]
fn a_huge_memory_is_an_elaboration_error_not_an_abort() {
    let calyx = "component main() -> () {
       cells { @external m = std_mem_d1(32, 1099511627776, 40); }
       wires {} control {}
     }";
    let dahlia = "decl a: ubit<32>[1099511627776];\nlet x: ubit<32> = 1;\n---\na[0] := x;\n";
    for (frontend, src) in [("calyx", calyx), ("dahlia", dahlia)] {
        for backend in ["interp", "sim"] {
            let started = Instant::now();
            let out = futil_stdin(&["-", "-f", frontend, "-b", backend], src);
            assert!(started.elapsed() < Duration::from_secs(1));
            assert_eq!(
                out.status.code(),
                Some(1),
                "{frontend}/{backend}: {}",
                stderr(&out)
            );
            assert!(out.stdout.is_empty(), "{}", stdout(&out));
            assert!(
                stderr(&out).contains("memories hold 1099511627776 words, more than the 16777216"),
                "{frontend}/{backend}: {}",
                stderr(&out)
            );
        }
    }
}

/// A Dahlia width outside 1..=64 is a positioned parse error: no panic,
/// and no width silently cut to its low 32 bits.
#[test]
fn dahlia_widths_outside_1_to_64_are_parse_errors() {
    for w in ["0", "65", "4294967297"] {
        let src = format!("let x: ubit<{w}> = 1;\n");
        let out = futil_stdin(&["-", "-f", "dahlia", "-b", "sim"], &src);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "ubit<{w}>: {err}");
        assert!(out.stdout.is_empty(), "{}", stdout(&out));
        assert!(!err.contains("panicked"), "{err}");
        assert!(
            err.contains(&format!("width {w} is outside 1..=64")),
            "{err}"
        );
        assert!(err.contains("<stdin>:1"), "{err}");
    }
}

/// `--deny warnings` only means something to the lints `--check` runs:
/// without it the flag is a usage error naming `--check`.
#[test]
fn deny_warnings_without_check_is_an_exit_2() {
    let dead_write = example("bad/dead_write.futil");
    let dead_write = dead_write.to_str().unwrap();
    let out = futil(&[dead_write, "--deny", "warnings", "-b", "calyx"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(
        stderr(&out).starts_with("futil: `--deny` requires `--check`"),
        "{}",
        stderr(&out)
    );
    // With `--check` the warning stops the compile.
    let out = futil(&[dead_write, "--deny", "warnings", "-b", "calyx", "--check"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
}

/// Each mode's synopsis in `--help` lists exactly the flags it takes: a
/// flag of the help text its synopsis leaves out is an exit-2 usage error
/// naming the flag, and a flag it lists that takes a value, given none,
/// is an exit-2 `expects` error.
#[test]
fn every_mode_takes_exactly_the_flags_its_synopsis_lists() {
    let help = stdout(&futil(&["--help"]));
    // The synopses come first, one per mode, continued on indented lines.
    let mut synopses: Vec<String> = Vec::new();
    for line in help.lines().take_while(|l| !l.starts_with("  -")) {
        let line = line.strip_prefix("usage:").unwrap_or(line).trim_start();
        match synopses.last_mut() {
            Some(last) if !line.starts_with("futil ") => last.push_str(&format!(" {line}")),
            _ => synopses.push(line.to_string()),
        }
    }
    assert_eq!(synopses.len(), 6, "{help}");
    // Then one help line per flag: the spelling, the value if it takes one.
    let flags: Vec<(&str, bool)> = help
        .lines()
        .filter(|l| l.starts_with("  -") && !l.contains("--help"))
        .map(|l| {
            let mut words = l.trim_start().split("  ").next().unwrap().split(' ');
            (words.next().unwrap(), words.next().is_some())
        })
        .collect();
    assert!(flags.len() > 20, "{help}");

    let counter = counter();
    let counter = counter.to_str().unwrap();
    for synopsis in &synopses {
        let words: Vec<&str> = synopsis.split_whitespace().collect();
        let invocation = match words[1] {
            "check" | "build" | "plan" => vec![words[1], counter],
            "serve" => vec!["serve"],
            _ if synopsis.contains(" --batch") => vec!["--batch", counter],
            _ => vec![counter],
        };
        let listed: Vec<&str> = words
            .iter()
            .map(|w| w.trim_start_matches('[').trim_end_matches(']'))
            .filter(|w| w.starts_with('-'))
            .collect();
        for &(flag, takes_value) in &flags {
            let mut args = invocation.clone();
            args.push(flag);
            if listed.contains(&flag) {
                if !takes_value {
                    continue;
                }
                let out = futil(&args);
                assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
                let err = stderr(&out);
                let expects = format!("futil: `{flag}` expects ");
                assert!(err.starts_with(&expects), "{args:?}: {err}");
            } else if flag != "--batch" || invocation.len() != 1 {
                // (`--batch` beside a single input selects batch mode.)
                if takes_value {
                    args.push("1");
                }
                let out = futil(&args);
                assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
                let err = stderr(&out);
                assert!(
                    err.starts_with(&format!("futil: `{flag}` ")),
                    "{args:?}: {err}"
                );
            }
        }
    }
}
