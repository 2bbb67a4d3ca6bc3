//! `ledger` — the benchmark's command line.
//!
//! ```text
//! ledger                                    run every workload, untraced then traced;
//!        [--seed N] [--seconds T]           print every metric, write a result file
//!        [--sets K] [--out FILE]
//! ledger --workload W --seed N              one run of one workload; the last line of
//!        --seconds T --trace 0|1            stdout is the result as one JSON object
//!        [--detail FILE]
//! ledger --smoke [--seed N]                 every workload, 1 warm-up + 2 timed sweeps
//! ledger diff A.json B.json                 compare two result files; exit 1 on `worse`
//! ```
//!
//! Run it from the repository root (it reads `BENCHMARK.json` there and
//! writes under `benchmark/out/`), through `benchmark/run.sh`, which
//! builds it and the `futil` binary first.

use ledger::report::{record_json, result_json};
use ledger::run::{run, RunCfg};
use ledger::spec::Spec;
use ledger::suite::{self, SuiteCfg};
use ledger::workloads::{Env, Kind};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Seed used when none is given; recorded in every result.
const DEFAULT_SEED: u64 = 20210419;

const USAGE: &str = "usage: ledger [--seed N] [--seconds T] [--sets K] [--out FILE]
       ledger --workload W --seed N --seconds T --trace 0|1 [--detail FILE]
       ledger --smoke [--seed N]
       ledger diff A.json B.json";

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    detail: Option<PathBuf>,
    smoke: bool,
    sets: Option<usize>,
    out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("`{flag}` needs a value\n{USAGE}"))
        };
        let bad = |what: &str| format!("`{flag}`: {what}\n{USAGE}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = Some(value()?.parse().map_err(|_| bad("not a whole number"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| bad("not a number"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("must be a non-negative number"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            "--detail" => args.detail = Some(PathBuf::from(value()?)),
            "--smoke" => args.smoke = true,
            "--sets" => {
                args.sets = match value()?.parse() {
                    Ok(n) if n >= 1 => Some(n),
                    _ => return Err(bad("must be a whole number, at least 1")),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "-h" | "--help" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(args)
}

/// The `futil` binary built beside this one.
fn futil_beside_me() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.join("futil")))
        .unwrap_or_else(|| PathBuf::from("futil"))
}

fn env_for(scratch: &Path) -> Env {
    Env {
        futil: futil_beside_me(),
        scratch: scratch.to_path_buf(),
        corrupt: None,
    }
}

fn one_run(args: &Args, name: &str, scratch: &Path) -> Result<bool, String> {
    let kind = Kind::from_name(name).ok_or_else(|| {
        let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        format!("unknown workload `{name}`; workloads: {}", names.join(", "))
    })?;
    let result = run(RunCfg {
        kind,
        seed: args.seed.unwrap_or(DEFAULT_SEED),
        seconds: args.seconds.unwrap_or(1.0),
        trace: args.trace,
        smoke: args.smoke,
        env: env_for(scratch),
    })?;
    if args.trace {
        let names: Vec<String> = result
            .prepared
            .designs
            .iter()
            .map(|d| d.name.clone())
            .collect();
        let path = scratch.join(format!("trace-{name}.json"));
        suite::write_file(&path, &result.tracer.chrome_trace(&names))?;
    }
    if let Some(path) = &args.detail {
        suite::write_file(path, &record_json(&result).render())?;
    }
    if let Some(why) = &result.first_failure {
        eprintln!("{name}: {why}");
    }
    println!("{}", result_json(&result).render());
    Ok(result.correct())
}

fn real_main(argv: &[String]) -> Result<ExitCode, String> {
    // Everything the benchmark writes goes under its own directory.
    let scratch = PathBuf::from("benchmark/out");
    let spec_path = Path::new("BENCHMARK.json");

    if argv.first().map(String::as_str) == Some("diff") {
        let [_, a, b] = argv else {
            return Err(USAGE.to_string());
        };
        let spec = Spec::load(spec_path)?;
        let (worse, _) = ledger::diff::diff(&spec, Path::new(a), Path::new(b))?;
        return Ok(ExitCode::from(u8::from(worse > 0)));
    }

    let args = parse_args(argv)?;
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("cannot create `{}`: {e}", scratch.display()))?;

    if let Some(name) = &args.workload {
        // The contract's run: exit 0 with the result as the last line,
        // whatever it says; `correct` carries the verdict.
        one_run(&args, name, &scratch)?;
        return Ok(ExitCode::SUCCESS);
    }
    if args.smoke {
        let mut all_correct = true;
        for kind in Kind::ALL {
            for trace in [false, true] {
                let args = Args {
                    trace,
                    smoke: true,
                    seed: args.seed,
                    ..Args::default()
                };
                print!("{:<16} trace={} ", kind.name(), u8::from(trace));
                all_correct &= one_run(&args, kind.name(), &scratch)?;
            }
        }
        return Ok(ExitCode::from(u8::from(!all_correct)));
    }

    let spec = Spec::load(spec_path)?;
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let cfg = SuiteCfg {
        seed,
        seconds: args.seconds.unwrap_or(spec.run_seconds),
        sets: args.sets.unwrap_or(1),
        out: args
            .out
            .unwrap_or_else(|| scratch.join(format!("ledger-seed{seed}.json"))),
        scratch,
    };
    let all_correct = suite::run(&spec, &cfg)?;
    Ok(ExitCode::from(u8::from(!all_correct)))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&argv) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("ledger: {msg}");
            ExitCode::from(2)
        }
    }
}
