//! The eight workloads: what each one's designs are, the route a design
//! takes through the program, and how its outputs are checked.
//!
//! A workload is a fixed list of designs. A *sweep* takes every design
//! once through the workload's route, in an order drawn for that sweep,
//! closed loop: the next design starts when the previous one finishes.
//! One thread generates the load for the direct, CLI and plan workloads;
//! the batch workloads hand the whole list to `CompileService::run_batch`
//! with [`BATCH_JOBS`] workers.
//!
//! Everything the program does is called from here, through its public
//! API, with a span around each call (see `trace.rs`); nothing inside the
//! program is instrumented.

use crate::inputs::{polybench_image, systolic_image, Image};
use crate::metrics::pass_metric;
use crate::trace::{ms, Tracer, ALL_DESIGNS};
use calyx_backend::{area, verilog, Backend, BackendOpts, VerilogBackend};
use calyx_core::analysis::PortUses;
use calyx_core::ir::{parse_context, Context, Printer};
use calyx_core::passes::{AnalysisCache, PassRegistry};
use calyx_dahlia::backend::join_banks;
use calyx_plan::{BuildOpts, ExecEnv, PlanGraph, Route, StepStatus};
use calyx_polybench::{KernelDef, KERNELS};
use calyx_service::{digest64, CompileService, JobDefaults, JobRequest};
use calyx_sim::interp::Interpreter;
use calyx_sim::rtl::Simulator;
use calyx_systolic::SystolicConfig;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// PolyBench problem size on the two simulation workloads (cycles grow
/// as n³).
pub const POLYBENCH_SIM_N: u64 = 4;
/// PolyBench problem size on the compile-only workloads: the `polybench`
/// frontend's default, which is what `futil -f polybench` compiles.
pub const POLYBENCH_COMPILE_N: u64 = 4;
/// Systolic array sizes under `lower-static`.
pub const SYSTOLIC_LOWER_SIZES: &[usize] = &[2, 4, 6];
/// Systolic array sizes under `opt` (`minimize-regs` grows super-linearly).
pub const SYSTOLIC_OPT_SIZES: &[usize] = &[2, 3];
/// Worker threads of the batch workloads (this box has 2 cores).
pub const BATCH_JOBS: usize = 2;
/// Cycle budget of every simulation; no design comes near it.
const CYCLE_BUDGET: u64 = 100_000_000;

/// The eight workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PolybenchInterp,
    PolybenchRtl,
    SystolicLower,
    SystolicOpt,
    BatchCold,
    BatchWarm,
    PlanCold,
    PlanWarm,
}

impl Kind {
    /// Every workload, in report order.
    pub const ALL: [Kind; 8] = [
        Kind::PolybenchInterp,
        Kind::PolybenchRtl,
        Kind::SystolicLower,
        Kind::SystolicOpt,
        Kind::BatchCold,
        Kind::BatchWarm,
        Kind::PlanCold,
        Kind::PlanWarm,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Kind::PolybenchInterp => "polybench_interp",
            Kind::PolybenchRtl => "polybench_rtl",
            Kind::SystolicLower => "systolic_lower",
            Kind::SystolicOpt => "systolic_opt",
            Kind::BatchCold => "batch_cold",
            Kind::BatchWarm => "batch_warm",
            Kind::PlanCold => "plan_cold",
            Kind::PlanWarm => "plan_warm",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Warm-up sweeps per set-up, sized to roughly a quarter second here.
    pub fn warmup_sweeps(self) -> usize {
        match self {
            Kind::PolybenchInterp => 6,
            Kind::PolybenchRtl => 3,
            Kind::SystolicLower => 4,
            Kind::SystolicOpt => 4,
            Kind::BatchCold | Kind::BatchWarm => 6,
            Kind::PlanCold => 5,
            Kind::PlanWarm => 100,
        }
    }

    /// Designs and route, for the record.
    pub fn sizes(self) -> String {
        match self {
            Kind::PolybenchInterp => format!(
                "19 PolyBench kernels, n={POLYBENCH_SIM_N}: Dahlia -> interp on the un-lowered program"
            ),
            Kind::PolybenchRtl => format!(
                "19 PolyBench kernels, n={POLYBENCH_SIM_N}: Dahlia -> opt -> flatten -> rtl"
            ),
            Kind::SystolicLower => format!(
                "systolic {SYSTOLIC_LOWER_SIZES:?}: generate -> lower-static -> verilog emit -> flatten -> rtl"
            ),
            Kind::SystolicOpt => format!(
                "systolic {SYSTOLIC_OPT_SIZES:?}: generate -> opt -> verilog emit -> flatten -> rtl"
            ),
            Kind::BatchCold => format!(
                "19 kernels -> verilog, run_batch jobs={BATCH_JOBS}, fresh CompileService per sweep"
            ),
            Kind::BatchWarm => format!(
                "19 kernels -> verilog, run_batch jobs={BATCH_JOBS}, one primed CompileService"
            ),
            Kind::PlanCold => {
                "19 kernels, calyx_plan::execute polybench -> verilog, cache emptied per sweep".into()
            }
            Kind::PlanWarm => {
                "19 kernels, calyx_plan::execute polybench -> verilog, populated cache".into()
            }
        }
    }
}

/// Where a design comes from.
#[derive(Debug, Clone)]
pub enum Source {
    /// A PolyBench kernel's Dahlia source at size `n`.
    Polybench {
        def: &'static KernelDef,
        n: u64,
        src: String,
    },
    /// A systolic-array generator configuration.
    Systolic(SystolicConfig),
}

/// The route of a direct workload: which pipeline, and which stations
/// the design passes. Without `emit` and `rtl` the pipeline never runs.
#[derive(Debug, Clone, Copy)]
pub struct RouteCfg {
    /// Pass alias (`lower`, `lower-static`, `opt`).
    pub pipeline: &'static str,
    /// Run the reference interpreter on the un-lowered program.
    pub interp: bool,
    /// Emit SystemVerilog.
    pub emit: bool,
    /// Flatten the lowered design and run the RTL simulator.
    pub rtl: bool,
}

/// Size of a program, summed over its components.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IrCounts {
    pub cells: u64,
    pub groups: u64,
    pub control: u64,
    pub assignments: u64,
}

impl IrCounts {
    /// Count `ctx`.
    pub fn of(ctx: &Context) -> Self {
        let mut c = IrCounts::default();
        for comp in ctx.components.iter() {
            c.cells += comp.cells.len() as u64;
            c.groups += comp.groups.len() as u64;
            c.control += comp.control.statement_count() as u64;
            c.assignments += comp.all_assignments().count() as u64;
        }
        c
    }
}

/// What one pass of a design through the direct route produced. The
/// second block is measured beside the route and only in traced sweeps.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Observed {
    pub cycles: u64,
    pub interp_cycles: u64,
    pub verilog_digest: u64,
    pub verilog_bytes: u64,
    pub verilog_loc: u64,

    pub ir_digest: u64,
    pub luts: u64,
    pub before: IrCounts,
    pub after: IrCounts,
}

/// One design of a workload, its seeded inputs, and what a correct run of
/// it must produce (see [`establish`]).
#[derive(Debug, Clone)]
pub struct Design {
    pub name: String,
    pub source: Source,
    pub image: Image,
    pub expect: Observed,
}

impl Design {
    /// Build the design's inputs from `seed`.
    fn new(seed: u64, source: Source, expect: Observed) -> Result<Design, String> {
        let (name, image) = match &source {
            Source::Polybench { def, n, src } => {
                let (ast, _) = calyx_dahlia::compile_with_ast(src)
                    .map_err(|e| format!("{}: {e}", def.name))?;
                (
                    def.name.to_string(),
                    polybench_image(seed, def, *n, &ast.decls),
                )
            }
            Source::Systolic(c) => (
                format!("systolic_{}x{}", c.rows, c.cols),
                systolic_image(seed, c),
            ),
        };
        Ok(Design {
            name,
            source,
            image,
            expect,
        })
    }

    /// Whether `obs`, from a pass through `route`, is what this design
    /// must produce. What the route does not measure is not compared.
    fn accepts(&self, obs: &Observed, route: &RouteCfg) -> bool {
        let e = &self.expect;
        let same = |got: u64, want: u64| got == 0 || got == want;
        (!route.rtl || obs.cycles == e.cycles)
            && (!route.interp || obs.interp_cycles == e.interp_cycles)
            && (!route.emit || obs.verilog_digest == e.verilog_digest)
            && same(obs.ir_digest, e.ir_digest)
            && same(obs.luts, e.luts)
    }
}

/// The designs of `kind` and the full direct route that establishes what
/// they must produce. A direct workload times this route or a part of it.
fn designs_of(kind: Kind) -> (Vec<Source>, RouteCfg) {
    let full = |pipeline, interp| RouteCfg {
        pipeline,
        interp,
        emit: true,
        rtl: true,
    };
    match kind {
        Kind::PolybenchInterp | Kind::PolybenchRtl => {
            (polybench_sources(POLYBENCH_SIM_N), full("opt", true))
        }
        Kind::SystolicLower => (
            systolic_sources(SYSTOLIC_LOWER_SIZES),
            full("lower-static", false),
        ),
        Kind::SystolicOpt => (systolic_sources(SYSTOLIC_OPT_SIZES), full("opt", false)),
        // The compile-only workloads all build the same thing — each
        // kernel through the verilog backend's required pipeline — so the
        // direct route under `lower` is their oracle.
        _ => (polybench_sources(POLYBENCH_COMPILE_N), full("lower", false)),
    }
}

/// Establish what every design of `kind` must produce, in design order:
/// the full direct route runs twice and must agree with itself in IR
/// digest, Verilog digest, cycles and LUTs, both runs must match the
/// hand-written reference, and the per-pass traced pipeline must print
/// the same IR as the plain pipeline. This is the benchmark's own
/// checking, so a run does it once, before the set-up clock starts.
pub fn establish(kind: Kind, seed: u64) -> Result<Vec<Observed>, String> {
    let reg = PassRegistry::default();
    let (sources, full) = designs_of(kind);
    sources
        .into_iter()
        .map(|source| {
            let design = Design::new(seed, source, Observed::default())?;
            let observe = || {
                let mut tr = Tracer::new(1);
                tr.begin_sweep(true);
                direct_route(&design, &full, &reg, &mut tr)
            };
            let first = observe()?;
            let second = observe()?;
            if first != second {
                return Err(format!(
                    "{}: two runs of the same compile differ: {first:?} vs {second:?}",
                    design.name
                ));
            }
            let mut plain = frontend(&design.source, &mut Tracer::new(1))?;
            reg.build(&[full.pipeline])
                .and_then(|mut pm| pm.run(&mut plain))
                .map_err(|e| format!("{}: {e}", design.name))?;
            if digest64(Printer::print_context(&plain).as_bytes()) != first.ir_digest {
                return Err(format!(
                    "{}: the per-pass traced pipeline prints a different program than `{}`",
                    design.name, full.pipeline
                ));
            }
            Ok(first)
        })
        .collect()
}

fn frontend(source: &Source, tr: &mut Tracer) -> Result<Context, String> {
    match source {
        Source::Polybench { def, src, .. } => {
            let t = tr.begin("frontend.dahlia.ms");
            let compiled = calyx_dahlia::compile_with_ast(src);
            tr.end(t);
            tr.add("frontend.src_bytes", src.len() as f64);
            compiled
                .map(|(_, ctx)| ctx)
                .map_err(|e| format!("{}: {e}", def.name))
        }
        Source::Systolic(cfg) => {
            let t = tr.begin("frontend.systolic.ms");
            let ctx = calyx_systolic::generate(cfg);
            tr.end(t);
            Ok(ctx)
        }
    }
}

/// Cells some assignment still refers to. The sharing passes rename uses
/// and leave the orphaned cells for `dead-cell-removal`, so their
/// applications are counted on this, not on the cell list.
fn referenced_cells(ctx: &Context) -> u64 {
    ctx.components
        .iter()
        .map(|c| PortUses::analyze(c).referenced_cells().len() as u64)
        .sum()
}

/// Run `pipeline` over `ctx`. Untraced: the plain pipeline, as every
/// driver runs it. Traced: each pass as its own single-pass manager over
/// one shared analysis cache, so each gets a span and its cache counters.
fn run_passes(
    ctx: &mut Context,
    pipeline: &'static str,
    reg: &PassRegistry,
    tr: &mut Tracer,
) -> Result<(), String> {
    if !tr.on() {
        return reg
            .build(&[pipeline])
            .and_then(|mut pm| pm.run(ctx))
            .map_err(|e| e.to_string());
    }
    let mut cache = AnalysisCache::new();
    let mut result = Ok(());
    for name in reg.expand(&[pipeline]).map_err(|e| e.to_string())? {
        let applied = match name {
            "resource-sharing" => Some("core.passes.resource-sharing.cells_removed"),
            "minimize-regs" => Some("core.passes.minimize-regs.regs_removed"),
            "dead-cell-removal" => Some("core.passes.dead-cell-removal.cells_removed"),
            _ => None,
        };
        let size = |ctx: &Context| match name {
            "dead-cell-removal" => IrCounts::of(ctx).cells,
            _ => referenced_cells(ctx),
        };
        let before = applied.map(|_| {
            let x = tr.begin_excluded("bench.beside");
            let n = size(ctx);
            tr.end(x);
            n
        });
        let mut pm = reg.build(&[name]).map_err(|e| e.to_string())?;
        let t = tr.begin(pass_metric(name).expect("every registered pass has a metric"));
        let started = Instant::now();
        let ran = pm.run_with_cache(ctx, &mut cache);
        tr.add("core.passes.total_ms", ms(started.elapsed()));
        tr.end(t);
        let stats = pm.total_cache_stats();
        tr.add("core.analysis.cache_hits", stats.hits as f64);
        tr.add("core.analysis.cache_misses", stats.misses as f64);
        tr.add("core.analysis.cache_recomputes", stats.recomputes as f64);
        if let Err(e) = ran {
            result = Err(e.to_string());
            break;
        }
        if let (Some(metric), Some(before)) = (applied, before) {
            let x = tr.begin_excluded("bench.beside");
            tr.add(metric, before.saturating_sub(size(ctx)) as f64);
            tr.end(x);
        }
    }
    result
}

/// Compare the simulated design's output memories with the reference.
fn outputs_match(image: &Image, read: impl Fn(&str) -> Option<Vec<u64>>, tr: &mut Tracer) -> bool {
    let x = tr.begin_excluded("bench.verify_ms");
    let ok = image.outputs.iter().all(|o| {
        let banks: Option<Vec<Vec<u64>>> = o.banks.iter().map(|b| read(b)).collect();
        banks.is_some_and(|b| join_banks(&o.decl, &b) == o.want)
    });
    tr.end(x);
    ok
}

/// The direct route: frontend → [interp] → passes → [emit] → [flatten →
/// rtl], each station a span, every simulated result checked against the
/// design's reference outputs.
fn direct_route(
    d: &Design,
    cfg: &RouteCfg,
    reg: &PassRegistry,
    tr: &mut Tracer,
) -> Result<Observed, String> {
    let fail = |what: &str| format!("{}: {what}", d.name);
    let mut obs = Observed::default();
    let mut ctx = frontend(&d.source, tr)?;

    if tr.on() {
        // Beside the route: the size of what the frontend produced, and a
        // print → parse of it (the text round trip the service cache and
        // the plan engine pay between steps).
        let x = tr.begin_excluded("bench.beside");
        obs.before = IrCounts::of(&ctx);
        tr.add("core.ir.cells_in", obs.before.cells as f64);
        tr.add("core.ir.groups_in", obs.before.groups as f64);
        tr.add("core.ir.control_in", obs.before.control as f64);
        tr.add("core.ir.assignments_in", obs.before.assignments as f64);
        let t = tr.begin("core.printer.ms");
        let text = Printer::print_context(&ctx);
        tr.end(t);
        tr.add("core.printer.bytes", text.len() as f64);
        let t = tr.begin("core.parser.ms");
        let reparsed = parse_context(&text);
        tr.end(t);
        tr.end(x);
        reparsed.map_err(|e| fail(&format!("printed program does not re-parse: {e}")))?;
    }

    if cfg.interp {
        let t = tr.begin("sim.flatten.control_ms");
        let interp = Interpreter::new(&ctx, "main");
        tr.end(t);
        let mut interp = interp.map_err(|e| fail(&e.to_string()))?;
        for (mem, data) in &d.image.init {
            interp
                .set_memory(mem, data)
                .map_err(|e| fail(&e.to_string()))?;
        }
        let t = tr.begin("sim.interp.run_ms");
        let stats = interp.run(CYCLE_BUDGET);
        tr.end(t);
        obs.interp_cycles = stats.map_err(|e| fail(&e.to_string()))?.cycles;
        tr.add("sim.interp.cycles", obs.interp_cycles as f64);
        if !outputs_match(&d.image, |m| interp.memory(m).ok(), tr) {
            return Err(fail("interpreter output differs from the reference"));
        }
    }

    if !(cfg.emit || cfg.rtl) {
        return Ok(obs);
    }
    run_passes(&mut ctx, cfg.pipeline, reg, tr).map_err(|e| fail(&e))?;

    if cfg.emit {
        let mut sv = Vec::new();
        let t = tr.begin("backend.verilog.emit_ms");
        let emitted = VerilogBackend::from_opts(&BackendOpts::default()).emit(&ctx, &mut sv);
        tr.end(t);
        emitted.map_err(|e| fail(&e.to_string()))?;
        let x = tr.begin_excluded("bench.verify_ms");
        obs.verilog_digest = digest64(&sv);
        obs.verilog_bytes = sv.len() as u64;
        tr.add("backend.verilog.bytes", sv.len() as f64);
        if tr.on() {
            obs.verilog_loc = verilog::line_count(&String::from_utf8_lossy(&sv)) as u64;
            tr.add("backend.verilog.loc", obs.verilog_loc as f64);
        }
        tr.end(x);
    }

    if tr.on() {
        let x = tr.begin_excluded("bench.beside");
        obs.after = IrCounts::of(&ctx);
        tr.add("core.ir.cells_out", obs.after.cells as f64);
        tr.add("core.ir.assignments_out", obs.after.assignments as f64);
        obs.ir_digest = digest64(Printer::print_context(&ctx).as_bytes());
        let t = tr.begin("backend.area.estimate_ms");
        let estimate = area::estimate(&ctx, "main");
        tr.end(t);
        tr.end(x);
        obs.luts = estimate.map_err(|e| fail(&e.to_string()))?.luts;
    }

    if !cfg.rtl {
        return Ok(obs);
    }
    let t = tr.begin("sim.flatten.design_ms");
    let sim = Simulator::new(&ctx, "main");
    tr.end(t);
    let mut sim = sim.map_err(|e| fail(&e.to_string()))?;
    tr.add("sim.flatten.primitives", sim.primitive_count() as f64);
    for (mem, data) in &d.image.init {
        sim.set_memory(&[mem], data)
            .map_err(|e| fail(&e.to_string()))?;
    }
    let t = tr.begin("sim.rtl.run_ms");
    let stats = sim.run(CYCLE_BUDGET);
    tr.end(t);
    obs.cycles = stats.map_err(|e| fail(&e.to_string()))?.cycles;
    tr.add("sim.rtl.cycles", obs.cycles as f64);
    if !outputs_match(&d.image, |m| sim.memory(&[m]).ok(), tr) {
        return Err(fail("simulated output differs from the reference"));
    }
    Ok(obs)
}

/// How a workload takes its designs through the program.
enum Runner {
    Direct(RouteCfg),
    Batch {
        /// `None`: construct a fresh service every sweep (cold).
        service: Option<CompileService>,
        /// The `futil` binary whose single-shot compiles the traced
        /// sweeps of the cold workload measure beside the batch.
        futil: Option<PathBuf>,
        /// One request per design, in design order; a sweep submits them
        /// in its own order.
        reqs: Vec<JobRequest>,
        defaults: JobDefaults,
    },
    Plan {
        graph: PlanGraph,
        route: Route,
        env: ExecEnv,
        build: BuildOpts,
        /// Empty the cache before every sweep.
        cold: bool,
    },
}

/// Designs attempted and failed in one sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

/// What set-up needs to know beyond the workload and the seed.
#[derive(Debug, Clone)]
pub struct Env {
    /// The `futil` binary the traced sweeps of `batch_cold` spawn.
    pub futil: PathBuf,
    /// Directory for the plan workloads' artifact caches.
    pub scratch: PathBuf,
    /// Corrupt the expected output of this design (tests the failure path).
    pub corrupt: Option<usize>,
}

/// A workload after set-up: inputs generated, services and graphs
/// constructed, caches primed.
pub struct Prepared {
    pub kind: Kind,
    pub designs: Vec<Design>,
    reg: PassRegistry,
    runner: Runner,
    /// Layer costs paid once, in set-up: `(metric, ms)`.
    pub once: Vec<(&'static str, f64)>,
    /// Total time of every job of every traced batch sweep, for the
    /// pooled job percentiles.
    pub job_ms: Vec<f64>,
    /// First failure message, for the report.
    pub first_failure: Option<String>,
}

fn polybench_sources(n: u64) -> Vec<Source> {
    KERNELS
        .iter()
        .map(|def| Source::Polybench {
            def,
            n,
            src: (def.source)(n, 1),
        })
        .collect()
}

fn systolic_sources(sizes: &[usize]) -> Vec<Source> {
    sizes
        .iter()
        .map(|&n| Source::Systolic(SystolicConfig::square(n)))
        .collect()
}

impl Prepared {
    /// Set the workload up from `seed`: generate inputs, construct what
    /// the route needs, prime the caches the warm workloads read. `expected` is
    /// what [`establish`] returned for the same workload and seed.
    pub fn new(
        kind: Kind,
        seed: u64,
        env: &Env,
        expected: &[Observed],
    ) -> Result<Prepared, String> {
        let reg = PassRegistry::default();
        let (sources, full) = designs_of(kind);
        let mut designs = sources
            .into_iter()
            .zip(expected)
            .map(|(source, expect)| Design::new(seed, source, expect.clone()))
            .collect::<Result<Vec<_>, _>>()?;
        if let Some(d) = env.corrupt.and_then(|i| designs.get_mut(i)) {
            d.image.outputs[0].want[0] ^= 1;
            d.expect.verilog_digest ^= 1;
        }
        let mut once = Vec::new();

        // One request per design, in design order.
        let batch = |service: Option<CompileService>, futil: Option<PathBuf>| Runner::Batch {
            service,
            futil,
            reqs: designs
                .iter()
                .map(|d| JobRequest {
                    name: Some(d.name.clone()),
                    frontend: Some("polybench".to_string()),
                    fopts: vec![("kernel".to_string(), d.name.clone())],
                    backend: Some("verilog".to_string()),
                    ..JobRequest::default()
                })
                .collect(),
            defaults: JobDefaults {
                inline_output: true,
                ..JobDefaults::default()
            },
        };

        let runner = match kind {
            Kind::PolybenchInterp => Runner::Direct(RouteCfg {
                emit: false,
                rtl: false,
                ..full
            }),
            Kind::PolybenchRtl => Runner::Direct(RouteCfg {
                interp: false,
                emit: false,
                ..full
            }),
            Kind::SystolicLower | Kind::SystolicOpt => Runner::Direct(full),
            Kind::BatchCold => {
                if !env.futil.is_file() {
                    return Err(format!(
                        "no futil binary at `{}`; build the benchmark package first",
                        env.futil.display()
                    ));
                }
                batch(None, Some(env.futil.clone()))
            }
            Kind::BatchWarm => {
                let t = Instant::now();
                let service = CompileService::new();
                once.push(("service.construct_ms", ms(t.elapsed())));
                batch(Some(service), None)
            }
            Kind::PlanCold | Kind::PlanWarm => {
                let t = Instant::now();
                let graph = calyx_plan::derive::standard();
                once.push(("plan.derive_ms", ms(t.elapsed())));
                let t = Instant::now();
                let route = graph
                    .expect_state("polybench")
                    .and_then(|from| graph.plan(from, graph.expect_state("verilog")?))
                    .map_err(|e| e.to_string())?;
                once.push(("plan.route_ms", ms(t.elapsed())));
                let build = BuildOpts {
                    cache_dir: env.scratch.join(format!("plan-cache-{}", kind.name())),
                    ..BuildOpts::default()
                };
                let _ = std::fs::remove_dir_all(&build.cache_dir);
                Runner::Plan {
                    graph,
                    route,
                    env: ExecEnv::default(),
                    build,
                    cold: kind == Kind::PlanCold,
                }
            }
        };
        let mut prepared = Prepared {
            kind,
            designs,
            reg,
            runner,
            once,
            job_ms: Vec::new(),
            first_failure: None,
        };
        // Prime the caches the warm workloads read: one untimed sweep,
        // which misses everywhere and fills them.
        if matches!(kind, Kind::BatchWarm | Kind::PlanWarm) {
            let mut tr = Tracer::new(prepared.designs.len());
            tr.begin_sweep(false);
            let in_order: Vec<usize> = (0..prepared.designs.len()).collect();
            let primed = prepared.sweep(&in_order, &mut tr, true);
            let _ = tr.end_sweep();
            if primed.failed > 0 && env.corrupt.is_none() {
                return Err(prepared
                    .first_failure
                    .take()
                    .unwrap_or_else(|| "priming sweep failed".to_string()));
            }
        }
        Ok(prepared)
    }

    /// RTL cycles summed over the designs (the Fig 7a/8a/9c quantity).
    pub fn design_cycles(&self) -> u64 {
        self.designs.iter().map(|d| d.expect.cycles).sum()
    }

    /// Estimated LUTs summed over the designs (Fig 7b/8b/9a).
    pub fn design_luts(&self) -> u64 {
        self.designs.iter().map(|d| d.expect.luts).sum()
    }

    fn note(&mut self, tally: &mut Tally, ok: Result<(), String>) {
        tally.attempted += 1;
        if let Err(why) = ok {
            tally.failed += 1;
            self.first_failure.get_or_insert(why);
        }
    }

    /// One sweep: every design once through the route, in `order`, each
    /// checked. A design that errors, mis-verifies, or whose output differs
    /// from what [`establish`] found counts as failed. `priming` is the
    /// sweep that fills the warm workloads' caches, where misses are
    /// expected.
    ///
    /// The caller draws a fresh order for every sweep, because the time 19
    /// uneven jobs take on two workers depends on their order by up to
    /// 14 %: with one order per run the seed, not the code, would decide
    /// the batch workloads' numbers.
    pub fn sweep(&mut self, order: &[usize], tr: &mut Tracer, priming: bool) -> Tally {
        let mut tally = Tally::default();
        match &self.runner {
            Runner::Direct(cfg) => {
                let cfg = *cfg;
                for &i in order {
                    let r = tr.begin_route(i as u16);
                    let obs = direct_route(&self.designs[i], &cfg, &self.reg, tr);
                    let _ = tr.end_route(r);
                    let ok = obs.and_then(|o| {
                        let d = &self.designs[i];
                        if d.accepts(&o, &cfg) {
                            Ok(())
                        } else {
                            Err(format!("{}: got {o:?}, want {:?}", d.name, d.expect))
                        }
                    });
                    self.note(&mut tally, ok);
                }
            }
            Runner::Batch { .. } => self.batch_sweep(order, tr, priming, &mut tally),
            Runner::Plan { .. } => self.plan_sweep(order, tr, priming, &mut tally),
        }
        tally
    }

    fn batch_sweep(&mut self, order: &[usize], tr: &mut Tracer, priming: bool, tally: &mut Tally) {
        let Runner::Batch {
            service,
            futil,
            reqs,
            defaults,
        } = &self.runner
        else {
            unreachable!("batch_sweep runs batch workloads");
        };
        let want_cache = match (service.is_some(), priming) {
            (true, false) => "hit",
            _ => "miss",
        };
        let reqs: Vec<JobRequest> = order.iter().map(|&i| reqs[i].clone()).collect();
        let r = tr.begin_route(ALL_DESIGNS);
        let fresh;
        let service = match service {
            Some(s) => s,
            None => {
                let t = tr.begin("service.construct_ms");
                fresh = CompileService::new();
                tr.end(t);
                &fresh
            }
        };
        let t = tr.begin("service.run_batch");
        let summary = service.run_batch(&reqs, BATCH_JOBS, false, defaults);
        tr.end(t);

        let x = tr.begin_excluded("bench.verify_ms");
        let mut busy = Duration::ZERO;
        // By design, not by position in the sweep.
        let mut checks = vec![Err("the batch returned no response".to_string()); order.len()];
        for resp in &summary.results {
            let d = &self.designs[order[resp.id]];
            let digest = resp.output.as_deref().map(|o| digest64(o.as_bytes()));
            checks[order[resp.id]] = if !resp.is_ok() {
                Err(format!("{}: {:?}", d.name, resp.error))
            } else if digest != Some(d.expect.verilog_digest) {
                Err(format!(
                    "{}: batch Verilog differs from the direct path's",
                    d.name
                ))
            } else if resp.cache != Some(want_cache) {
                Err(format!(
                    "{}: parse cache {:?}, want {want_cache}",
                    d.name, resp.cache
                ))
            } else {
                Ok(())
            };
            if let Some(s) = resp.stages {
                busy += s.total;
                tr.add("service.stage.parse_ms", ms(s.parse));
                tr.add("service.stage.passes_ms", ms(s.passes));
                tr.add("service.stage.emit_ms", ms(s.emit));
                tr.add("service.stage.total_ms", ms(s.total));
                if tr.on() {
                    self.job_ms.push(ms(s.total));
                }
            }
            let out = resp.output.as_deref().unwrap_or("");
            tr.add("backend.verilog.bytes", out.len() as f64);
            if tr.on() {
                tr.add("backend.verilog.loc", verilog::line_count(out) as f64);
            }
        }
        tr.add("service.jobs", summary.results.len() as f64);
        tr.add("service.jobs_failed", summary.failed() as f64);
        tr.add("service.cache.hits", summary.cache.hits as f64);
        tr.add("service.cache.misses", summary.cache.misses as f64);
        tr.add(
            "service.pool.busy_share",
            busy.as_secs_f64() / (BATCH_JOBS as f64 * summary.wall.as_secs_f64()),
        );
        tr.end(x);
        let _ = tr.end_route(r);
        // Beside the sweep: the same kernels as one `futil` process each,
        // the single-shot path a batch amortizes.
        if let (true, Some(futil)) = (tr.on(), futil) {
            for &i in order {
                let ok = cli_job(futil, &self.designs[i], tr);
                if checks[i].is_ok() {
                    checks[i] = ok;
                }
            }
        }
        for ok in checks {
            self.note(tally, ok);
        }
    }

    fn plan_sweep(&mut self, order: &[usize], tr: &mut Tracer, priming: bool, tally: &mut Tally) {
        let Runner::Plan {
            graph,
            route,
            env,
            build,
            cold,
        } = &self.runner
        else {
            unreachable!("plan_sweep runs plan workloads");
        };
        if *cold {
            // Outside every route, so outside the sweep's time.
            let _ = std::fs::remove_dir_all(&build.cache_dir);
        }
        let want = if *cold || priming {
            StepStatus::Ran
        } else {
            StepStatus::Cached
        };
        let mut checks = Vec::with_capacity(order.len());
        for &i in order {
            let d = &self.designs[i];
            let r = tr.begin_route(i as u16);
            let t = tr.begin("plan.execute");
            let started = Instant::now();
            let outcome = calyx_plan::execute(graph, route, &d.name, env, build);
            let wall = started.elapsed();
            tr.end(t);
            let x = tr.begin_excluded("bench.verify_ms");
            checks.push(match &outcome {
                Err(e) => Err(format!("{}: {e}", d.name)),
                Ok(o) if digest64(o.output.as_bytes()) != d.expect.verilog_digest => Err(format!(
                    "{}: plan Verilog differs from the direct path's",
                    d.name
                )),
                Ok(o) if o.steps.iter().any(|s| s.status != want) => Err(format!(
                    "{}: steps {:?}, want all {want:?}",
                    d.name, o.steps
                )),
                Ok(_) => Ok(()),
            });
            if let Ok(o) = &outcome {
                let mut in_steps = 0.0;
                for step in &o.steps {
                    let step_ms = step.micros as f64 / 1e3;
                    in_steps += step_ms;
                    match step.op.as_str() {
                        "polybench-to-calyx" => tr.add("plan.step.polybench-to-calyx.ms", step_ms),
                        "emit-verilog" => tr.add("plan.step.emit-verilog.ms", step_ms),
                        _ => {}
                    }
                }
                tr.add("plan.steps_ran", o.ran() as f64);
                tr.add("plan.steps_cached", o.cached() as f64);
                tr.add("plan.exec_overhead_ms", (ms(wall) - in_steps).max(0.0));
                tr.add("backend.verilog.bytes", o.output.len() as f64);
                if tr.on() {
                    tr.add("backend.verilog.loc", verilog::line_count(&o.output) as f64);
                }
            }
            tr.end(x);
            let _ = tr.end_route(r);
        }
        if tr.on() {
            let (files, bytes) = dir_size(&build.cache_dir);
            tr.add("plan.cache.files", files as f64);
            tr.add("plan.cache.bytes", bytes as f64);
        }
        for ok in checks {
            self.note(tally, ok);
        }
    }
}

impl Drop for Prepared {
    fn drop(&mut self) {
        if let Runner::Plan { build, .. } = &self.runner {
            let _ = std::fs::remove_dir_all(&build.cache_dir);
        }
    }
}

fn dir_size(dir: &Path) -> (u64, u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (0, 0);
    };
    entries
        .flatten()
        .filter_map(|e| e.metadata().ok())
        .fold((0, 0), |(files, bytes), m| (files + 1, bytes + m.len()))
}

/// One `futil` process: `- -f polybench --fopt kernel=K -b verilog`, and
/// beside it the floor no such job can go below — process start plus
/// registry construction, no compile.
fn cli_job(futil: &Path, d: &Design, tr: &mut Tracer) -> Result<(), String> {
    let spawn = |args: &[&str]| {
        Command::new(futil)
            .args(args)
            .stdin(Stdio::null())
            .stderr(Stdio::piped())
            .output()
    };
    let t = tr.begin("cli.job");
    let out = spawn(&[
        "-",
        "-f",
        "polybench",
        "--fopt",
        &format!("kernel={}", d.name),
        "-b",
        "verilog",
    ]);
    tr.end(t);
    let t = tr.begin("cli.spawn_ms");
    let _ = spawn(&["--list-backends"]);
    tr.end(t);
    let x = tr.begin("bench.verify_ms");
    let ok = match &out {
        Err(e) => Err(format!("{}: cannot run futil: {e}", d.name)),
        Ok(o) if !o.status.success() => Err(format!(
            "{}: futil failed: {}",
            d.name,
            String::from_utf8_lossy(&o.stderr)
        )),
        Ok(o) if digest64(&o.stdout) != d.expect.verilog_digest => Err(format!(
            "{}: futil's Verilog differs from the direct path's",
            d.name
        )),
        Ok(o) => {
            tr.add("cli.stdout_bytes", o.stdout.len() as f64);
            Ok(())
        }
    };
    tr.end(x);
    ok
}
