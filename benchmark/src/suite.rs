//! The one command: run every workload untraced for the end-to-end
//! metrics, once more traced for the per-layer split, print every metric
//! by name, and write the whole set to a result file.
//!
//! Each run is a child process of this one (the same binary with
//! `--workload`), so peak memory is per workload and one workload's
//! allocator state never leaks into the next.

use crate::host;
use crate::report::obj;
use crate::spec::{MetricSpec, Spec};
use crate::workloads::Kind;
use calyx_service::json::{self, Json};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Version of the result file's layout.
pub const SCHEMA: u32 = 1;

/// Top-level keys of a result file, in order. Pinned.
pub const FILE_KEYS: [&str; 6] = ["schema", "host", "seed", "seconds", "workloads", "sets"];

/// What the full-set command was asked to do.
#[derive(Debug, Clone)]
pub struct SuiteCfg {
    pub seed: u64,
    pub seconds: f64,
    /// Full sets to run back to back.
    pub sets: usize,
    /// Result file to write.
    pub out: PathBuf,
    /// Scratch directory handed to the children.
    pub scratch: PathBuf,
}

fn child(cfg: &SuiteCfg, kind: Kind, trace: bool) -> Result<Json, String> {
    let detail = cfg
        .scratch
        .join(format!("detail-{}-{}.json", kind.name(), u8::from(trace)));
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", kind.name()])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--detail")
        .arg(&detail)
        .output()
        .map_err(|e| format!("cannot start the {} run: {e}", kind.name()))?;
    if !out.status.success() {
        return Err(format!(
            "the {} run failed: {}",
            kind.name(),
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let text = std::fs::read_to_string(&detail)
        .map_err(|e| format!("cannot read `{}`: {e}", detail.display()))?;
    let _ = std::fs::remove_file(&detail);
    json::parse(text.trim()).map_err(|e| format!("{}: {e}", detail.display()))
}

fn metric_value(record: &Json, name: &str) -> Option<f64> {
    match record
        .get("result")?
        .get("metrics")?
        .get(name)?
        .get("value")?
    {
        Json::Num(v) => Some(*v),
        _ => None,
    }
}

fn count(record: &Json, key: &str) -> u64 {
    record.get(key).and_then(Json::as_u64).unwrap_or(0)
}

fn print_metric(m: &MetricSpec, value: f64, note: &str) {
    let better = if m.lower_is_better { "lower" } else { "higher" };
    let bound = m
        .bound
        .map_or(String::new(), |b| format!("  bound {:.1}%", b * 100.0));
    println!(
        "  {:<44} {:>16.4} {:<7} {better:<6}{bound}{note}",
        m.name, value, m.unit
    );
}

fn print_run(spec: &Spec, untraced: &Json, traced: &Json) {
    let name = untraced
        .get("workload")
        .and_then(Json::as_str)
        .unwrap_or("?");
    println!(
        "\n== {name}: {}",
        untraced.get("sizes").and_then(Json::as_str).unwrap_or("")
    );
    let sweeps = format!("  [of {} sweeps]", count(untraced, "timed_sweeps"));
    println!(
        "  end to end (untraced; {} rounds, {} warm-up sweeps each, {} designs attempted, {} failed)",
        untraced
            .get("setups_s")
            .and_then(Json::as_arr)
            .map_or(0, <[Json]>::len),
        count(untraced, "warmup_sweeps"),
        untraced.get("result").map_or(0, |r| count(r, "attempted")),
        untraced.get("result").map_or(0, |r| count(r, "failed")),
    );
    for m in &spec.end_to_end {
        let note = match m.name.as_str() {
            "sweep_p10_ms" => sweeps.as_str(),
            "setup_s" => "  [fastest of the rounds' set-ups]",
            _ => "",
        };
        print_metric(m, metric_value(untraced, &m.name).unwrap_or(0.0), note);
    }
    let plain = |key| match untraced.get(key) {
        Some(Json::Num(v)) => *v,
        _ => 0.0,
    };
    println!(
        "  not gated: sweep p50 {:.4} ms, p90 {:.4} ms ({} sweeps beyond it)",
        plain("sweep_p50_ms"),
        plain("sweep_p90_ms"),
        count(untraced, "samples_beyond_p90")
    );
    println!(
        "  per layer (traced; median over {} traced sweeps; layers this workload never calls are left out)",
        count(traced, "traced_sweeps")
    );
    for m in &spec.per_layer {
        match metric_value(traced, &m.name) {
            Some(v) if v != 0.0 => {
                let note = if m.name.starts_with("service.job_p") {
                    format!("  [{} jobs pooled]", count(traced, "pooled_jobs"))
                } else {
                    String::new()
                };
                print_metric(m, v, &note);
            }
            _ => {}
        }
    }
    for record in [untraced, traced] {
        if let Some(why) = record.get("first_failure").and_then(Json::as_str) {
            println!("  FAILED: {why}");
        }
    }
}

/// Run the full set `cfg.sets` times; returns whether every run was correct.
///
/// # Errors
///
/// A child that cannot start, fails, or writes no record; an unwritable
/// result file.
pub fn run(spec: &Spec, cfg: &SuiteCfg) -> Result<bool, String> {
    std::fs::create_dir_all(&cfg.scratch)
        .map_err(|e| format!("cannot create `{}`: {e}", cfg.scratch.display()))?;
    let mut all_correct = true;
    let mut sets = Vec::new();
    for set in 0..cfg.sets {
        if cfg.sets > 1 {
            println!("\n#### set {} of {}", set + 1, cfg.sets);
        }
        let mut records = Vec::new();
        for kind in Kind::ALL {
            let untraced = child(cfg, kind, false)?;
            let traced = child(cfg, kind, true)?;
            print_run(spec, &untraced, &traced);
            for r in [&untraced, &traced] {
                let correct = r.get("result").and_then(|r| r.get("correct"));
                all_correct &= correct == Some(&Json::Bool(true));
            }
            records.extend([untraced, traced]);
        }
        sets.push(Json::Arr(records));
    }
    let workloads = Kind::ALL
        .iter()
        .map(|k| Json::Str(k.name().to_string()))
        .collect();
    let file = obj(vec![
        ("schema", Json::Num(f64::from(SCHEMA))),
        ("host", host::record()),
        ("seed", Json::Num(cfg.seed as f64)),
        ("seconds", Json::Num(cfg.seconds)),
        ("workloads", Json::Arr(workloads)),
        ("sets", Json::Arr(sets)),
    ]);
    write_file(&cfg.out, &file.render())?;
    println!(
        "\nresult file: {} ({})",
        cfg.out.display(),
        if all_correct {
            "every output correct"
        } else {
            "SOME OUTPUTS WRONG"
        }
    );
    Ok(all_correct)
}

/// Write `text` (plus a newline) to `path`, creating its directory.
///
/// # Errors
///
/// The directory cannot be created or the file cannot be written.
pub fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create `{}`: {e}", dir.display()))?;
    }
    std::fs::write(path, format!("{text}\n"))
        .map_err(|e| format!("cannot write `{}`: {e}", path.display()))
}
