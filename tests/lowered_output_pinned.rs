//! What lowering prints, byte for byte. `tests/lowered_output_pinned.txt`
//! holds, per design, `digest64` of the lowered Calyx (the guard trees
//! `remove-groups` builds, after `guard-simplify`) and of the emitted
//! SystemVerilog, recorded from the `futil` of the commit before
//! `remove-groups` resolved holes depth-first and the Verilog emitter
//! appended into one buffer. A change to either that alters a single
//! byte of any design shows here; a deliberate one re-pins the table with
//! `scripts/goldens.sh --lowered PATH/TO/futil`.

use calyx::polybench::KERNELS;
use calyx::service::{digest64, Job, Session};

const TABLE: &str = include_str!("lowered_output_pinned.txt");

/// One row of the table: the two digests and the `futil` arguments
/// (`-f`, `--fopt k=v`, `-p`) that select the design and the pipeline.
struct Row {
    calyx: u64,
    verilog: u64,
    args: &'static str,
    frontend: &'static str,
    fopts: Vec<(String, String)>,
    pipeline: Vec<String>,
}

fn rows() -> Vec<Row> {
    let hex = |word: &str| {
        u64::from_str_radix(word.trim_start_matches("0x"), 16)
            .unwrap_or_else(|e| panic!("digest `{word}`: {e}"))
    };
    TABLE
        .lines()
        .filter(|line| !line.starts_with('#'))
        .map(|line| {
            let mut words = line.splitn(3, ' ');
            let (calyx, verilog) = (hex(words.next().unwrap()), hex(words.next().unwrap()));
            let args = words.next().expect("row has arguments");
            let mut row = Row {
                calyx,
                verilog,
                args,
                frontend: "",
                fopts: Vec::new(),
                pipeline: Vec::new(),
            };
            let mut words = args.split(' ');
            while let Some(flag) = words.next() {
                let value = words.next().expect("every flag takes a value");
                match flag {
                    "-f" => row.frontend = value,
                    "-p" => row.pipeline.push(value.to_string()),
                    "--fopt" => {
                        let (key, value) = value.split_once('=').expect("--fopt key=value");
                        row.fopts.push((key.to_string(), value.to_string()));
                    }
                    other => panic!("unknown flag `{other}` in `{args}`"),
                }
            }
            row
        })
        .collect()
}

/// `digest64` of what `futil - ARGS -b <backend>` prints, compiled
/// through the same `Session` the driver calls.
fn digest(row: &Row, backend: &str) -> u64 {
    let job = Job {
        frontend: Some(row.frontend),
        fopts: row.fopts.clone(),
        pipeline: Some(&row.pipeline),
        backend,
        ..Job::default()
    };
    let compiled = Session::default()
        .resolve(&job)
        .and_then(|mut resolved| resolved.compile("-", "", None))
        .unwrap_or_else(|e| panic!("`{}` fails to compile: {}", row.args, e.message));
    digest64(&compiled.output)
}

#[test]
fn lowered_calyx_and_verilog_are_pinned() {
    for row in rows() {
        let calyx = digest(&row, "calyx");
        assert_eq!(calyx, row.calyx, "{} -b calyx: {calyx:#018x}", row.args);
        let verilog = digest(&row, "verilog");
        assert_eq!(
            verilog, row.verilog,
            "{} -b verilog: {verilog:#018x}",
            row.args
        );
    }
}

/// The table is the issue's list: every kernel under `lower`, the three
/// ledger systolic sizes under `lower-static`, gemm under `opt`.
#[test]
fn table_covers_every_kernel_and_the_ledger_systolic_sizes() {
    let rows = rows();
    for kernel in KERNELS {
        let wanted = format!(
            "-f polybench --fopt kernel={} --fopt n=4 -p lower",
            kernel.name
        );
        assert!(rows.iter().any(|r| r.args == wanted), "no row `{wanted}`");
    }
    for n in [2, 4, 6] {
        let wanted =
            format!("-f systolic --fopt rows={n} --fopt cols={n} --fopt inner={n} -p lower-static");
        assert!(rows.iter().any(|r| r.args == wanted), "no row `{wanted}`");
    }
    let wanted = "-f polybench --fopt kernel=gemm --fopt n=4 -p opt";
    assert!(rows.iter().any(|r| r.args == wanted), "no row `{wanted}`");
    assert_eq!(rows.len(), KERNELS.len() + 4);
}
