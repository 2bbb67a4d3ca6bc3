//! End-to-end tests of `futil build` and `futil plan`: route planning,
//! the content-addressed artifact cache (warm rebuilds, edit
//! invalidation, `--no-cache`), byte-identity with the direct
//! `-f`/`-p`/`-b` driver across the full PolyBench suite, and the
//! exit-2 diagnostics for unknown or unreachable states.

use calyx_polybench::KERNELS;
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn example(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../examples/{name}"))
}

fn futil(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_futil"))
        .args(args)
        .output()
        .expect("futil spawns")
}

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

/// A scratch directory (cache + inputs) that cleans up on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("futil-plan-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }

    fn cache(&self) -> String {
        self.path("cache").to_string_lossy().into_owned()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The step-status lines with their (non-deterministic) timings
/// stripped: `futil: step <op>: ran|cached`.
fn step_lines(err: &str) -> Vec<String> {
    err.lines()
        .filter(|l| l.starts_with("futil: step "))
        .map(|l| l.split(" (").next().unwrap().to_string())
        .collect()
}

/// The acceptance differential: for every PolyBench kernel, a
/// plan-built verilog artifact is byte-identical to the direct
/// `-f polybench -b verilog` compilation — both cold (first build) and
/// from a warm cache (which must execute zero steps).
#[test]
fn plan_builds_are_byte_identical_to_direct_compilation_for_all_kernels() {
    let scratch = Scratch::new("differential");
    let cache = scratch.cache();
    for def in KERNELS {
        let direct = futil_stdin(
            &[
                "-",
                "-f",
                "polybench",
                "--fopt",
                &format!("kernel={}", def.name),
                "-b",
                "verilog",
            ],
            "",
        );
        assert_eq!(direct.status.code(), Some(0), "{}", stderr(&direct));
        assert!(
            !direct.stdout.is_empty(),
            "direct `{}` emitted nothing",
            def.name
        );

        let cold = futil_stdin(
            &[
                "build",
                "-",
                "--from",
                "polybench",
                "--to",
                "verilog",
                "--cache-dir",
                &cache,
            ],
            def.name,
        );
        assert_eq!(cold.status.code(), Some(0), "{}", stderr(&cold));
        assert_eq!(
            stdout(&cold),
            stdout(&direct),
            "cold plan build of `{}` differs from direct compilation",
            def.name
        );
        assert_eq!(
            step_lines(&stderr(&cold)),
            [
                "futil: step polybench-to-calyx: ran",
                "futil: step emit-verilog: ran"
            ],
            "kernel `{}`",
            def.name
        );

        let warm = futil_stdin(
            &[
                "build",
                "-",
                "--from",
                "polybench",
                "--to",
                "verilog",
                "--cache-dir",
                &cache,
            ],
            def.name,
        );
        assert_eq!(
            stdout(&warm),
            stdout(&direct),
            "warm `{}` differs",
            def.name
        );
        assert_eq!(
            step_lines(&stderr(&warm)),
            [
                "futil: step polybench-to-calyx: cached",
                "futil: step emit-verilog: cached"
            ],
            "warm rebuild of `{}` must execute zero steps",
            def.name
        );
    }
}

/// Editing only a comment re-runs the frontend step (the input bytes
/// changed) but leaves every downstream step cached: the canonical
/// Calyx is unchanged, so content addressing skips the rest.
#[test]
fn comment_only_edit_reruns_only_the_frontend_step() {
    let scratch = Scratch::new("invalidate");
    let cache = scratch.cache();
    let input = scratch.path("prog.fuse");
    let dotprod = std::fs::read_to_string(example("dotprod.fuse")).expect("example exists");
    std::fs::write(&input, &dotprod).expect("input writes");
    let input = input.to_str().unwrap().to_string();

    let cold = futil(&["build", &input, "--to", "verilog", "--cache-dir", &cache]);
    assert_eq!(cold.status.code(), Some(0), "{}", stderr(&cold));
    assert_eq!(
        step_lines(&stderr(&cold)),
        [
            "futil: step dahlia-to-calyx: ran",
            "futil: step emit-verilog: ran"
        ]
    );

    // Comment-only edit: different bytes, same program.
    std::fs::write(&input, format!("// an edited comment\n{dotprod}")).expect("edit writes");
    let edited = futil(&["build", &input, "--to", "verilog", "--cache-dir", &cache]);
    assert_eq!(edited.status.code(), Some(0), "{}", stderr(&edited));
    assert_eq!(
        step_lines(&stderr(&edited)),
        [
            "futil: step dahlia-to-calyx: ran",
            "futil: step emit-verilog: cached"
        ],
        "downstream steps must stay cached across a comment-only edit"
    );
    assert_eq!(stdout(&edited), stdout(&cold));

    // Unchanged rerun: everything cached, zero compiles.
    let warm = futil(&["build", &input, "--to", "verilog", "--cache-dir", &cache]);
    assert_eq!(
        step_lines(&stderr(&warm)),
        [
            "futil: step dahlia-to-calyx: cached",
            "futil: step emit-verilog: cached"
        ]
    );

    // `--no-cache` forces every step, and writes nothing.
    let forced = futil(&[
        "build",
        &input,
        "--to",
        "verilog",
        "--cache-dir",
        &cache,
        "--no-cache",
    ]);
    assert_eq!(
        step_lines(&stderr(&forced)),
        [
            "futil: step dahlia-to-calyx: ran",
            "futil: step emit-verilog: ran"
        ]
    );
    assert_eq!(stdout(&forced), stdout(&cold));
}

/// A step's key covers everything its compile reads, and nothing else:
/// for each input of `Session::job_key` — the input text, the frontend,
/// `--fopt`, the pipeline (an alias), the backend, `--cycles`,
/// `--format` — a build that changes it after one that did not re-runs
/// exactly the steps that read it. A step whose input text comes out
/// unchanged stays cached downstream.
#[test]
fn cycles_change_invalidates_the_emission_but_not_the_frontend() {
    let scratch = Scratch::new("keys");
    let dotprod = std::fs::read_to_string(example("dotprod.fuse")).expect("example exists");
    let write = |name: &str, text: &str| {
        let path = scratch.path(name);
        std::fs::write(&path, text).expect("input writes");
        path.to_string_lossy().into_owned()
    };
    let fuse = write("prog.fuse", &dotprod);
    let edited = write("edited.fuse", &dotprod.replace("acc + t", "acc + t + t"));
    let canonical = futil(&["build", &fuse, "--to", "calyx", "--no-cache"]);
    assert_eq!(canonical.status.code(), Some(0), "{}", stderr(&canonical));
    let futil_file = write("prog.futil", &stdout(&canonical));
    let array = example("matmul2x2.systolic");
    let array = array.to_str().unwrap();

    let (ran, cached) = ("ran", "cached");
    // What changes, the first build's arguments, the second's, and the
    // second's step statuses.
    type Row<'a> = (
        &'a str,
        &'a [&'a str],
        &'a [&'a str],
        &'a [(&'a str, &'a str)],
    );
    #[rustfmt::skip]
    let rows: [Row; 12] = [
        ("nothing",
            &[&fuse, "--to", "verilog"], &[&fuse, "--to", "verilog"],
            &[("dahlia-to-calyx", cached), ("emit-verilog", cached)]),
        ("the input text",
            &[&fuse, "--to", "verilog"], &[&edited, "--to", "verilog"],
            &[("dahlia-to-calyx", ran), ("emit-verilog", ran)]),
        ("the frontend: the same Calyx text, from the `calyx` parser",
            &[&fuse, "--to", "verilog"], &[&futil_file, "--to", "verilog"],
            &[("emit-verilog", cached)]),
        ("a `--fopt` that changes the program",
            &[array, "--to", "verilog"], &[array, "--to", "verilog", "--fopt", "width=16"],
            &[("systolic-to-calyx", ran), ("emit-verilog", ran)]),
        ("a `--fopt` that restates the input",
            &[array, "--to", "verilog"], &[array, "--to", "verilog", "--fopt", "width=32"],
            &[("systolic-to-calyx", ran), ("emit-verilog", cached)]),
        ("the order of `--fopt`s",
            &[array, "--to", "verilog", "--fopt", "width=16", "--fopt", "inner=3"],
            &[array, "--to", "verilog", "--fopt", "inner=3", "--fopt", "width=16"],
            &[("systolic-to-calyx", cached), ("emit-verilog", cached)]),
        ("the pipeline: an alias after an emission that lowers",
            &[&fuse, "--to", "verilog"], &[&fuse, "--to", "calyx-lowered"],
            &[("dahlia-to-calyx", cached), ("lower", ran)]),
        ("the backend",
            &[&fuse, "--to", "sim-report"], &[&fuse, "--to", "interp-report"],
            &[("dahlia-to-calyx", cached), ("emit-interp", ran)]),
        ("`--cycles`",
            &[&fuse, "--to", "sim-report"], &[&fuse, "--to", "sim-report", "--cycles", "500"],
            &[("dahlia-to-calyx", cached), ("emit-sim", ran)]),
        ("`--format`",
            &[&fuse, "--to", "area-report"], &[&fuse, "--to", "area-report", "--format", "json"],
            &[("dahlia-to-calyx", cached), ("emit-area", ran)]),
        ("options no step reads",
            &[&fuse, "--to", "calyx-lowered"],
            &[&fuse, "--to", "calyx-lowered", "--cycles", "500", "--format", "json"],
            &[("dahlia-to-calyx", cached), ("lower", cached)]),
        ("`--format` of the lint report",
            &[&futil_file, "--to", "lint-report"],
            &[&futil_file, "--to", "lint-report", "--format", "json"],
            &[("check", ran)]),
    ];
    for (i, (what, first, second, want)) in rows.into_iter().enumerate() {
        let cache = scratch.path(&format!("cache-{i}"));
        let build = |args: &[&str]| {
            let mut argv = vec!["build"];
            argv.extend_from_slice(args);
            argv.extend(["--cache-dir", cache.to_str().unwrap()]);
            let out = futil(&argv);
            assert_eq!(out.status.code(), Some(0), "{what}: {}", stderr(&out));
            step_lines(&stderr(&out))
        };
        build(first);
        let want: Vec<String> = want
            .iter()
            .map(|(op, status)| format!("futil: step {op}: {status}"))
            .collect();
        assert_eq!(build(second), want, "changing {what}");
    }
}

/// `futil plan` prints the route without executing anything (and
/// without touching the cache).
#[test]
fn plan_is_a_dry_run_with_a_pinned_route_printout() {
    let scratch = Scratch::new("dry-run");
    let cache = scratch.cache();
    let file = example("dotprod.fuse");
    let out = futil(&["plan", file.to_str().unwrap(), "--to", "verilog"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert_eq!(
        stdout(&out),
        "plan: dahlia -> verilog (2 steps)\n\
         \x20 1. dahlia-to-calyx   dahlia -> calyx\n\
         \x20 2. emit-verilog      calyx -> verilog\n"
    );
    assert!(
        !scratch.path("cache").exists(),
        "plan must not write the cache"
    );
    let _ = cache;
}

/// A same-state route is zero steps: the output is the input, verbatim.
#[test]
fn same_state_build_echoes_the_input() {
    let out = futil(&[
        "build",
        example("dotprod.fuse").to_str().unwrap(),
        "--to",
        "dahlia",
        "--no-cache",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let original = std::fs::read_to_string(example("dotprod.fuse")).unwrap();
    assert_eq!(stdout(&out), original);
    assert!(step_lines(&stderr(&out)).is_empty());
}

/// Unknown `--to`/`--from` states are usage errors (exit 2) listing
/// every valid state; unreachable goals list the reachable ones.
#[test]
fn unknown_and_unreachable_states_exit_2_with_the_valid_choices() {
    let file = example("dotprod.fuse");
    let file = file.to_str().unwrap();
    let out = futil(&["build", file, "--to", "nonsense"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("state `nonsense`"), "{err}");
    for state in ["calyx", "dahlia", "verilog", "lint-report"] {
        assert!(err.contains(state), "missing `{state}` in {err}");
    }

    // dahlia is a source state: nothing routes *to* it.
    let out = futil(&["build", file, "--from", "calyx", "--to", "dahlia"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(
        err.contains("no route from state `calyx` to `dahlia`"),
        "{err}"
    );
    assert!(err.contains("reachable from `calyx`"), "{err}");
    assert!(err.contains("verilog"), "{err}");

    // An un-inferable input without `--from` is a usage error too.
    let out = futil_stdin(&["build", "-", "--to", "verilog"], "");
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("cannot infer a state"),
        "{}",
        stderr(&out)
    );

    // `--to` is required.
    let out = futil(&["build", file]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--to"), "{}", stderr(&out));
}

/// A `--fopt` the input's frontend does not take is a usage error (exit
/// 2) with the direct driver's message, whether or not a step of the
/// route runs that frontend, and under `plan` too.
#[test]
fn fopts_the_source_frontend_does_not_take_exit_2() {
    for (name, frontend) in [("counter.futil", "calyx"), ("dotprod.fuse", "dahlia")] {
        let file = example(name);
        let file = file.to_str().unwrap();
        let direct = futil(&[file, "--fopt", "n=8", "-b", "verilog"]);
        assert_eq!(direct.status.code(), Some(2), "{}", stderr(&direct));
        assert!(
            stderr(&direct).contains(&format!("option `n` for frontend `{frontend}`")),
            "{}",
            stderr(&direct)
        );
        for mode in ["build", "plan"] {
            let out = futil(&[mode, file, "--to", "verilog", "--fopt", "n=8", "--no-cache"]);
            assert_eq!(out.status.code(), Some(2), "{mode} {name}");
            assert_eq!(stderr(&out), stderr(&direct), "{mode} {name}");
            assert!(out.stdout.is_empty(), "{mode} {name}");
        }
    }
}

/// `--list-states` and `--list-ops` print the derived graph — pinned
/// against the library's own derivation so the CLI can never drift.
#[test]
fn list_states_and_ops_match_the_derived_graph() {
    let graph = calyx_plan::derive::standard();
    let states = futil(&["build", "--list-states"]);
    assert_eq!(states.status.code(), Some(0));
    let listing = stdout(&states);
    for s in graph.states() {
        assert!(
            listing.contains(&s.name),
            "missing state `{}` in listing",
            s.name
        );
        assert!(
            listing.contains(&s.description),
            "missing description of `{}`",
            s.name
        );
    }
    let ops = futil(&["plan", "--list-ops"]);
    assert_eq!(ops.status.code(), Some(0));
    let listing = stdout(&ops);
    for op in graph.ops() {
        assert!(
            listing.contains(op.name()),
            "missing op `{}` in listing",
            op.name()
        );
    }
}

/// `-o` writes the artifact to a file (atomically) instead of stdout.
#[test]
fn build_output_file_matches_stdout_output() {
    let scratch = Scratch::new("outfile");
    let cache = scratch.cache();
    let file = example("dotprod.fuse");
    let file = file.to_str().unwrap();
    let out_path = scratch.path("dotprod.sv");
    let to_file = futil(&[
        "build",
        file,
        "--to",
        "verilog",
        "--cache-dir",
        &cache,
        "-o",
        out_path.to_str().unwrap(),
    ]);
    assert_eq!(to_file.status.code(), Some(0), "{}", stderr(&to_file));
    assert!(to_file.stdout.is_empty());
    let direct = futil(&[file, "-f", "dahlia", "-b", "verilog"]);
    assert_eq!(
        std::fs::read_to_string(&out_path).expect("output written"),
        stdout(&direct)
    );
}

/// Frontend parse errors inside a build step still render caret
/// diagnostics against the original source, exit 1.
#[test]
fn build_renders_caret_diagnostics_for_bad_input() {
    let scratch = Scratch::new("caret");
    let input = scratch.path("bad.fuse");
    std::fs::write(&input, "let x: ubit<8> = ;\n").expect("input writes");
    let out = futil(&[
        "build",
        input.to_str().unwrap(),
        "--to",
        "verilog",
        "--no-cache",
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("bad.fuse"), "{err}");
    assert!(err.contains('^'), "caret missing: {err}");
}
