//! What a run writes: the one-line result the driver reads, and the
//! detailed record (sample counts, per-design table, paper figures) the
//! full-set command collects into a result file.

use crate::run::RunResult;
use crate::stats::{geomean, median, percentile, samples_beyond, sorted};
use crate::workloads::{IrCounts, Kind};
use calyx_backend::{verilog, Backend, BackendOpts, VerilogBackend};
use calyx_core::ir::Context;
use calyx_core::passes::PassManager;
use calyx_service::json::{Json, Member};
use calyx_systolic::SystolicConfig;
use std::time::Instant;

/// Keys of the one-line result, in order. Pinned: the driver reads them.
pub const RESULT_KEYS: [&str; 4] = ["correct", "attempted", "failed", "metrics"];

/// Keys of a detailed run record, in order. Pinned: `ledger diff` and
/// anything else that reads result files depends on them.
pub const RECORD_KEYS: [&str; 19] = [
    "workload",
    "sizes",
    "trace",
    "seed",
    "seconds",
    "setups_s",
    "warmup_sweeps",
    "timed_sweeps",
    "traced_sweeps",
    "sweep_p50_ms",
    "sweep_p90_ms",
    "samples_beyond_p90",
    "pooled_jobs",
    "result",
    "first_failure",
    "self_time_ms",
    "sweep_ms",
    "designs",
    "paper",
];

/// A JSON object from `(key, value)` pairs, in the given order.
pub fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(key, value)| Member {
                key: key.to_string(),
                col: 0,
                value,
            })
            .collect(),
    )
}

fn num(v: impl Into<f64>) -> Json {
    Json::Num(v.into())
}

fn count(v: usize) -> Json {
    Json::Num(v as f64)
}

fn text(s: &str) -> Json {
    Json::Str(s.to_string())
}

/// The result object the contract asks for as the last line of stdout.
pub fn result_json(r: &RunResult) -> Json {
    let metrics = r
        .metrics
        .iter()
        .map(|m| {
            (
                m.name,
                obj(vec![("value", num(m.value)), ("unit", text(m.unit))]),
            )
        })
        .collect();
    obj(vec![
        ("correct", Json::Bool(r.correct())),
        ("attempted", num(r.tally.attempted as f64)),
        ("failed", num(r.tally.failed as f64)),
        ("metrics", obj(metrics)),
    ])
}

/// The detailed record of a run. A traced run's record carries the §7.4
/// comparison rows (they compile the paper's two largest designs, which
/// takes a moment).
pub fn record_json(r: &RunResult) -> Json {
    let self_time = r
        .tracer
        .self_time_ms()
        .into_iter()
        .map(|(name, v)| (name, num(v)))
        .collect();
    let sweeps = sorted(&r.sweep_ms);
    obj(vec![
        ("workload", text(r.cfg.kind.name())),
        ("sizes", text(&r.cfg.kind.sizes())),
        ("trace", Json::Bool(r.cfg.trace)),
        ("seed", num(r.cfg.seed as f64)),
        ("seconds", num(r.cfg.seconds)),
        (
            "setups_s",
            Json::Arr(r.setups_s.iter().map(|v| num(*v)).collect()),
        ),
        ("warmup_sweeps", count(r.warmup_sweeps)),
        ("timed_sweeps", count(r.sweep_ms.len())),
        ("traced_sweeps", count(r.traced_sweeps)),
        ("sweep_p50_ms", num(percentile(&sweeps, 50.0))),
        ("sweep_p90_ms", num(percentile(&sweeps, 90.0))),
        (
            "samples_beyond_p90",
            count(samples_beyond(r.sweep_ms.len(), 90.0)),
        ),
        ("pooled_jobs", count(r.prepared.job_ms.len())),
        ("result", result_json(r)),
        (
            "first_failure",
            r.first_failure.as_deref().map_or(Json::Null, text),
        ),
        ("self_time_ms", obj(self_time)),
        (
            "sweep_ms",
            Json::Arr(r.sweep_ms.iter().map(|v| num(*v)).collect()),
        ),
        ("designs", design_table(r)),
        (
            "paper",
            Json::Arr(if r.cfg.trace {
                paper_rows(r.cfg.kind)
            } else {
                Vec::new()
            }),
        ),
    ])
}

/// One informational row per design: its size, its quality (LoC, LUTs,
/// cycles), and — from a traced run — its median time per layer.
fn design_table(r: &RunResult) -> Json {
    let mut rows = Vec::new();
    let mut cycle_ratios = Vec::new();
    for (i, d) in r.prepared.designs.iter().enumerate() {
        let e = &d.expect;
        let layers = r.tracer.per_design[i]
            .iter()
            .filter(|(name, _)| !matches!(**name, "route" | "sweep"))
            .map(|(name, samples)| (*name, num(median(samples))))
            .collect();
        let mut row = vec![
            ("design", text(&d.name)),
            ("cells", num(e.before.cells as f64)),
            ("groups", num(e.before.groups as f64)),
            ("control_statements", num(e.before.control as f64)),
            ("assignments", num(e.before.assignments as f64)),
            ("cells_lowered", num(e.after.cells as f64)),
            ("assignments_lowered", num(e.after.assignments as f64)),
            ("verilog_loc", num(e.verilog_loc as f64)),
            ("verilog_bytes", num(e.verilog_bytes as f64)),
            ("luts", num(e.luts as f64)),
            ("rtl_cycles", num(e.cycles as f64)),
        ];
        if e.interp_cycles > 0 {
            let ratio = e.cycles as f64 / e.interp_cycles as f64;
            cycle_ratios.push(ratio);
            row.push(("interp_cycles", num(e.interp_cycles as f64)));
            row.push(("rtl_cycles_per_interp_cycle", num(ratio)));
        }
        row.push(("layer_median_ms", obj(layers)));
        rows.push(obj(row));
    }
    let mut table = vec![("rows", Json::Arr(rows))];
    if !cycle_ratios.is_empty() {
        // Base: the interpreter's cycle count of the un-lowered program.
        table.push((
            "geomean_rtl_cycles_per_interp_cycle",
            num(geomean(cycle_ratios)),
        ));
    }
    obj(table)
}

/// §7.4's compilation statistics, measured the way the paper states them:
/// wall time of lowering plus SystemVerilog emission, and the size of
/// the design before lowering.
struct CompileStats {
    size: IrCounts,
    loc: usize,
    seconds: f64,
}

fn compile_stats(make: impl Fn() -> Context) -> Option<CompileStats> {
    let mut times = Vec::new();
    let mut measured = None;
    for _ in 0..3 {
        let mut ctx = make();
        let size = IrCounts::of(&ctx);
        let started = Instant::now();
        PassManager::from_names(&["lower-static"])
            .and_then(|mut pm| pm.run(&mut ctx))
            .ok()?;
        let mut sv = Vec::new();
        VerilogBackend::from_opts(&BackendOpts::default())
            .emit(&ctx, &mut sv)
            .ok()?;
        times.push(started.elapsed().as_secs_f64());
        measured = Some((size, verilog::line_count(&String::from_utf8_lossy(&sv))));
    }
    measured.map(|(size, loc)| CompileStats {
        size,
        loc,
        seconds: median(&times),
    })
}

/// The paper's §7.4 figures beside ours, for the two designs it names.
/// Ratios are ours over the paper's (base: the paper's figure).
fn paper_rows(kind: Kind) -> Vec<Json> {
    let versus = |ours: f64, paper: f64| {
        obj(vec![
            ("ours", num(ours)),
            ("paper", num(paper)),
            ("ours_over_paper", num(ours / paper)),
        ])
    };
    match kind {
        Kind::PolybenchRtl => {
            let def = calyx_polybench::kernel("gemver").expect("gemver is a PolyBench kernel");
            let Some(s) = compile_stats(|| {
                calyx_polybench::compile_kernel(def, 8, 1)
                    .expect("gemver compiles")
                    .1
            }) else {
                return Vec::new();
            };
            vec![obj(vec![
                ("design", text("gemver (n=8), the largest PolyBench design")),
                ("compile_s", versus(s.seconds, 0.06)),
                ("verilog_loc", num(s.loc as f64)),
            ])]
        }
        Kind::SystolicLower => {
            let Some(s) = compile_stats(|| calyx_systolic::generate(&SystolicConfig::square(8)))
            else {
                return Vec::new();
            };
            vec![obj(vec![
                ("design", text("systolic 8x8, the largest design overall")),
                ("compile_s", versus(s.seconds, 0.7)),
                ("cells", versus(s.size.cells as f64, 241.0)),
                ("groups", versus(s.size.groups as f64, 224.0)),
                ("control_statements", versus(s.size.control as f64, 1744.0)),
                ("verilog_loc", versus(s.loc as f64, 8906.0)),
            ])]
        }
        _ => Vec::new(),
    }
}
