//! End-to-end tests of the `futil --batch` and `futil serve` surfaces:
//! mixed-frontend batches with `--out-dir`, JSON summaries, exit-code
//! aggregation, positioned manifest validation (exit 2), `--fail-fast`
//! skipping, the `--time` per-job table, and the JSON-lines server on a
//! stdin/stdout pipe.

use calyx_dahlia::parser::MAX_NESTING;
use calyx_service::json;
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

/// Run futil with `input` piped to stdin (manifests from `-`, serve).
fn futil_stdin(args: &[&str], input: impl AsRef<[u8]>) -> Output {
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
        .write_all(input.as_ref())
        .expect("stdin writes");
    child.wait_with_output().expect("futil exits")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("futil-batch-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The headline workflow: three inputs, three different frontends (each
/// inferred from its extension), one batch, one JSON summary, one
/// `--out-dir` of `.sv` files.
#[test]
fn mixed_frontend_batch_writes_out_dir_and_a_json_summary() {
    let dir = scratch("mixed");
    let inputs = [
        example("counter.futil"),
        example("dotprod.fuse"),
        example("matmul2x2.systolic"),
    ];
    let out = futil(&[
        "--batch",
        inputs[0].to_str().unwrap(),
        inputs[1].to_str().unwrap(),
        inputs[2].to_str().unwrap(),
        "-b",
        "verilog",
        "--jobs",
        "4",
        "--format",
        "json",
        "--out-dir",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let summary = json::parse(&stdout(&out)).expect("summary is valid JSON");
    assert_eq!(summary.get("jobs").unwrap().as_u64(), Some(3));
    assert_eq!(summary.get("ok").unwrap().as_u64(), Some(3));
    assert_eq!(summary.get("failed").unwrap().as_u64(), Some(0));
    // The verilog backend's extension names the per-job files.
    for name in ["counter.sv", "dotprod.sv", "matmul2x2.sv"] {
        let path = dir.join(name);
        let bytes =
            std::fs::read(&path).unwrap_or_else(|e| panic!("missing {}: {e}", path.display()));
        assert!(!bytes.is_empty(), "{name} is empty");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// One bad input does not stop the others (keep-going is the default),
/// but it does turn the exit code to 1 and shows up in the summary.
#[test]
fn a_failing_job_exits_1_but_the_rest_still_compile() {
    let dir = scratch("keep-going");
    let bad = dir.join("broken.futil");
    std::fs::write(&bad, "component main( {").unwrap();
    let out = futil(&[
        "--batch",
        example("counter.futil").to_str().unwrap(),
        bad.to_str().unwrap(),
        "--format",
        "json",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let summary = json::parse(&stdout(&out)).unwrap();
    assert_eq!(summary.get("ok").unwrap().as_u64(), Some(1));
    assert_eq!(summary.get("failed").unwrap().as_u64(), Some(1));
    let results = summary.get("results").unwrap();
    let broken = &results.as_arr().unwrap()[1];
    assert_eq!(broken.get("status").unwrap().as_str(), Some("error"));
    assert!(broken.get("error").unwrap().as_str().is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A Dahlia `+` chain of `terms` terms: `terms` levels deep.
fn dahlia_chain(terms: usize) -> String {
    format!(
        "let x: ubit<32> = 1;\n---\nlet y: ubit<32> = x{};\n",
        " + x".repeat(terms - 1)
    )
}

/// On one worker thread, a Dahlia chain at the nesting cap compiles, and
/// one a level past it fails its own job with a positioned parse error,
/// not the process: the job after it compiles.
#[test]
fn a_dahlia_chain_past_the_nesting_cap_fails_its_job_alone() {
    let dir = scratch("dahlia-cap");
    let (at, past) = (dir.join("at.fuse"), dir.join("past.fuse"));
    std::fs::write(&at, dahlia_chain(MAX_NESTING)).unwrap();
    std::fs::write(&past, dahlia_chain(MAX_NESTING + 1)).unwrap();
    let out = futil(&[
        "--batch",
        at.to_str().unwrap(),
        past.to_str().unwrap(),
        example("counter.futil").to_str().unwrap(),
        "-b",
        "verilog",
        "--jobs",
        "1",
        "--format",
        "json",
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let summary = json::parse(&stdout(&out)).unwrap();
    assert_eq!(summary.get("ok").unwrap().as_u64(), Some(2));
    assert_eq!(summary.get("failed").unwrap().as_u64(), Some(1));
    let results = summary.get("results").unwrap().as_arr().unwrap();
    let error = results[1].get("error").unwrap().as_str().unwrap();
    let expected = format!("past.fuse:3:0: blocks and expressions nest deeper than {MAX_NESTING}");
    assert!(error.contains(&expected), "{error}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--fail-fast` on one worker: the first failure aborts the queue and
/// every unstarted job reports `skipped`, not silence.
#[test]
fn fail_fast_skips_every_job_after_the_first_failure() {
    let dir = scratch("fail-fast");
    let manifest = dir.join("jobs.jsonl");
    let mut lines = String::from("{\"source\": \"component main( {\", \"name\": \"bad\"}\n");
    for i in 0..4 {
        lines.push_str(&format!(
            "{{\"input\": {:?}, \"name\": \"good{i}\"}}\n",
            example("counter.futil")
        ));
    }
    std::fs::write(&manifest, lines).unwrap();
    let out = futil(&[
        "--batch",
        manifest.to_str().unwrap(),
        "--jobs",
        "1",
        "--fail-fast",
        "--format",
        "json",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let summary = json::parse(&stdout(&out)).unwrap();
    assert_eq!(summary.get("failed").unwrap().as_u64(), Some(1));
    assert_eq!(summary.get("skipped").unwrap().as_u64(), Some(4));
    let results = summary.get("results").unwrap();
    let skipped = &results.as_arr().unwrap()[2];
    assert_eq!(skipped.get("status").unwrap().as_str(), Some("skipped"));
    assert!(
        skipped
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("--fail-fast"),
        "skips say why"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--time` (or `--stats`) upgrades the text summary with a per-job
/// stage table instead of interleaving timings on stderr.
#[test]
fn time_flag_adds_the_per_job_stage_table() {
    let out = futil(&[
        "--batch",
        example("counter.futil").to_str().unwrap(),
        "--time",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("batch: 1 jobs, 1 ok"), "{text}");
    assert!(text.contains("latency: p50"), "{text}");
    assert!(text.contains("\ncache: 0 hits, 1 misses"), "{text}");
    // The detail table: a header row and one row naming the job.
    assert!(text.contains("status"), "{text}");
    assert!(text.contains("counter"), "{text}");
}

/// Manifest validation happens before any job runs: an unknown field is
/// a positioned exit-2 error naming the file, line, column, and the
/// valid keys.
#[test]
fn unknown_manifest_field_is_a_positioned_exit_2() {
    let dir = scratch("manifest");
    let manifest = dir.join("jobs.jsonl");
    std::fs::write(&manifest, "{\"input\": \"a.futil\"}\n{\"sorce\": \"x\"}\n").unwrap();
    let out = futil(&["--batch", manifest.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(
        err.contains(&format!("{}:2:", manifest.display())),
        "names the manifest line: {err}"
    );
    assert!(err.contains("unknown key `sorce`"), "{err}");
    assert!(err.contains("valid keys"), "{err}");
    assert!(err.contains("source"), "lists the valid keys: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `list` requests belong to the server; a manifest that smuggles one in
/// is rejected up front.
#[test]
fn list_requests_in_a_manifest_are_rejected() {
    let out = futil_stdin(&["--batch", "-"], "{\"list\": \"frontends\"}\n");
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("only valid in serve mode"),
        "{}",
        stderr(&out)
    );
}

/// Batch-only flags outside `--batch`, multiple bare inputs, and `-o`
/// inside `--batch` are all usage errors that say what to do instead.
#[test]
fn batch_flag_misuse_is_an_exit_2_with_a_hint() {
    let counter = example("counter.futil");
    let counter = counter.to_str().unwrap();

    let out = futil(&[counter, "--jobs", "2"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("require `--batch`"),
        "{}",
        stderr(&out)
    );

    let out = futil(&[counter, counter]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("multiple inputs require `--batch`"),
        "{}",
        stderr(&out)
    );

    let out = futil(&["--batch", counter, "-o", "out.sv"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--out-dir"), "{}", stderr(&out));

    let out = futil(&["--batch"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("expects input files or `.jsonl` manifests"),
        "{}",
        stderr(&out)
    );

    // A batch runs no lints, so `--deny warnings` would deny nothing.
    let out = futil(&["--batch", counter, "--deny", "warnings"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    let err = stderr(&out);
    let first = err.lines().next().unwrap_or_default();
    assert!(first.contains("`--deny`"), "{err}");
    assert!(first.contains("`futil check`"), "{err}");
}

/// The server on a stdin/stdout pipe: a listing, a malformed request,
/// and a real job each get exactly one response line, and EOF is a
/// clean exit 0 — the acceptance smoke in test form.
#[test]
fn serve_answers_listings_jobs_and_malformed_requests_then_exits_0() {
    let src = "component main() -> () {
        cells { r = std_reg(8); }
        wires { group g { r.in = 8'd7; r.write_en = 1'd1; g[done] = r.done; } }
        control { g; }
      }";
    let input = format!(
        "{}\nthis is not json\n{{\"source\": {:?}, \"name\": \"pipe\"}}\n",
        r#"{"list": "frontends"}"#, src
    );
    let out = futil_stdin(&["serve", "--jobs", "2"], &input);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "{text}");
    let by_id = |id: u64| {
        lines
            .iter()
            .map(|l| json::parse(l).expect("responses are valid JSON"))
            .find(|v| v.get("id").unwrap().as_u64() == Some(id))
            .unwrap()
    };
    let listing = by_id(0);
    assert_eq!(listing.get("status").unwrap().as_str(), Some("ok"));
    let names: Vec<String> = listing
        .get("items")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|i| i.get("name").unwrap().as_str().unwrap().to_string())
        .collect();
    assert!(names.contains(&"calyx".to_string()), "{names:?}");

    let bad = by_id(1);
    assert_eq!(bad.get("status").unwrap().as_str(), Some("error"));
    assert!(
        bad.get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .starts_with("bad request:"),
        "{text}"
    );

    let job = by_id(2);
    assert_eq!(job.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(job.get("name").unwrap().as_str(), Some("pipe"));
    assert!(
        job.get("output")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("component main"),
        "inline output streams back"
    );
}

/// Parse the responses of a serve run, in `id` order, after checking it
/// exited 0 with one response per request.
fn serve_responses(out: &Output, requests: usize) -> Vec<json::Json> {
    assert_eq!(out.status.code(), Some(0), "{}", stderr(out));
    let mut responses: Vec<json::Json> = stdout(out)
        .lines()
        .map(|l| json::parse(l).expect("responses are valid JSON"))
        .collect();
    assert_eq!(responses.len(), requests, "{}", stdout(out));
    responses.sort_by_key(|r| r.get("id").and_then(json::Json::as_u64));
    responses
}

fn error_of(response: &json::Json) -> &str {
    response
        .get("error")
        .and_then(json::Json::as_str)
        .unwrap_or("")
}

/// A request nested 200,000 levels deep is a positioned bad request; the
/// server answers it and the next one, and exits 0 at EOF.
#[test]
fn serve_answers_a_deeply_nested_request_and_goes_on() {
    let input = format!("{}\n{{\"list\": \"lints\"}}\n", "[".repeat(200_000));
    let responses = serve_responses(&futil_stdin(&["serve"], input), 2);
    assert_eq!(
        error_of(&responses[0]),
        "bad request: column 129: nesting deeper than 128 levels"
    );
    assert_eq!(responses[1].get("list").unwrap().as_str(), Some("lints"));
}

/// A job whose guard nests 50,000 `!` deep gets one error response,
/// and the server answers the next request.
#[test]
fn serve_answers_a_deeply_nested_guard_and_goes_on() {
    let src = format!(
        "component main() -> () {{ cells {{ r = std_reg(1); }} \
         wires {{ group g {{ r.in = {}r.out ? 1'd1; g[done] = r.done; }} }} control {{ g; }} }}",
        "!".repeat(50_000)
    );
    let input =
        format!("{{\"source\": {src:?}, \"backend\": \"verilog\"}}\n{{\"list\": \"lints\"}}\n");
    let responses = serve_responses(&futil_stdin(&["serve"], input), 2);
    assert_eq!(responses[0].get("status").unwrap().as_str(), Some("error"));
    assert!(
        error_of(&responses[0]).contains("guard nests deeper than 256 levels of `!` and `(`"),
        "{}",
        &error_of(&responses[0])[..200]
    );
    assert_eq!(responses[1].get("list").unwrap().as_str(), Some("lints"));
}

/// The same line in a `--batch` manifest is a usage error naming the
/// manifest line, before any job runs.
#[test]
fn a_deeply_nested_manifest_line_is_a_positioned_exit_2() {
    let input = format!("{{\"input\": \"a.futil\"}}\n{}\n", "[".repeat(200_000));
    let out = futil_stdin(&["--batch", "-"], input);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("<stdin>:2: column 129: nesting deeper"),
        "{}",
        stderr(&out)
    );
}

/// A line that is not UTF-8 is a bad request under its own `id`; the
/// requests around it are answered.
#[test]
fn serve_answers_a_non_utf8_request_and_goes_on() {
    let input: &[u8] = b"{\"list\": \"backends\"}\n\xff\xfe\n{\"list\": \"lints\"}\n";
    let responses = serve_responses(&futil_stdin(&["serve"], input), 3);
    assert_eq!(responses[0].get("list").unwrap().as_str(), Some("backends"));
    assert_eq!(responses[1].get("status").unwrap().as_str(), Some("error"));
    assert_eq!(
        error_of(&responses[1]),
        "bad request: column 1: the request is not valid UTF-8"
    );
    assert_eq!(responses[2].get("list").unwrap().as_str(), Some("lints"));
}

/// Serve-side usage errors still exit 2: `--max-connections` is
/// meaningless without `--socket`.
#[test]
fn serve_max_connections_without_socket_is_an_exit_2() {
    let out = futil_stdin(&["serve", "--max-connections", "1"], "");
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--socket"), "{}", stderr(&out));
}
