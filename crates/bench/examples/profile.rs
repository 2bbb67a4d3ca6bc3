//! The profiling harness: one program that times each layer of the
//! paper's §7 evaluation over one design set — the 19 PolyBench kernels at
//! size `n` and the square systolic arrays — with nothing else in the
//! process. A sampling profiler (`perf record`, `gprofng collect app`)
//! sees only the loop under study, and two builds compare layer by layer
//! without a ledger run.
//!
//! ```sh
//! cargo run --release -p calyx_bench --example profile -- sim interp all 4 50
//! cargo run --release -p calyx_bench --example profile -- sim rtl systolic 4 50
//! cargo run --release -p calyx_bench --example profile -- passes lower 50
//! cargo run --release -p calyx_bench --example profile -- text 4 20 2,4,6
//! cargo run --release -p calyx_bench --example profile -- service 50 2
//! cargo run --release -p calyx_bench --example profile -- guards
//! ```
//!
//! The first argument is the mode; the rest are positional, each optional
//! with the default [`MODES`] gives after its `=`:
//!
//! - `sim`: one engine over one kernel (by name), `all` 19 or the `systolic`
//!   array of `SIZE`×`SIZE`. `rtl` runs a kernel after `opt` (the ledger's
//!   `polybench_rtl`) and the array after `lower-static`
//!   (`systolic_lower`); `interp` runs the program un-lowered
//!   (`polybench_interp`). Building the engine (`flatten`, ms) and running
//!   it to completion (`run`, ns/cycle) are rows apart, per design and, for
//!   `all`, per sweep of the 19.
//! - `passes`: ms per sweep of each pass of a pass or alias, over the
//!   kernels and over the arrays, each run on fresh untimed copies of the
//!   designs; then `emit` (SystemVerilog), if every design comes out
//!   lowered.
//! - `text`: per sweep over the kernels, over the arrays and over both,
//!   `parse` (the printed Calyx text → IR), `print` (IR → Calyx text),
//!   `emit` (the design after `lower` → SystemVerilog), and the two hashes
//!   over both texts, `key` (`content_key`, the caches' key) and `pin`
//!   (`digest64`, the pinned tables' FNV-1a), with the bytes each reads or
//!   writes and the rate at the median.
//! - `service`: the compile service on the 19 kernels → Verilog (the
//!   ledger's `batch_warm`/`batch_cold` jobs): `key` (`Session::job_key`)
//!   and `resolve` (`Session::resolve`, which only a miss pays) per job,
//!   then `execute` on the calling thread per job and `run_batch` per sweep,
//!   each against a primed service (`hit`) and a fresh one per sweep
//!   (`miss`, its construction untimed). Every hit row asserts that each
//!   job hit, and every miss row that each job missed.
//! - `guards`: per lowered design (the kernels at n=4 after `opt`, the
//!   arrays 2–8 after `lower-static` and 8×8 after `lower`), the
//!   assignments, their guards counted as trees, the pool nodes they reach
//!   and the structurally distinct sub-guards (equal to the pool nodes:
//!   the pool is hash-consed). Untimed.
//!
//! Every timed row prints the best run and the nearest-rank q1/median/q3
//! of the runs (`calyx_service::percentile`), never a mean, so one slow
//! run (a descheduled process, a cold cache) does not move an A/B.

use calyx_backend::verilog::emit_to;
use calyx_bench::stats::{guard_sharing, GuardSharing};
use calyx_core::ir::validate::require_lowered;
use calyx_core::ir::{parse_context, Context, Printer};
use calyx_core::passes::PassManager;
use calyx_polybench::{compile_kernel, kernel, memory_image, KernelDef, KERNELS};
use calyx_service::{content_key, digest64, percentile};
use calyx_service::{CompileService, JobDefaults, JobRequest, Session};
use calyx_sim::{interp::Interp, rtl::Rtl, Engine, Harness};
use calyx_systolic::{generate, matmul_operands, SystolicConfig};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// A mode's name, its arguments with their defaults, and what runs it on
/// its arguments, every one given or defaulted.
type Mode = (&'static str, &'static str, fn(&[&str]));

const MODES: [Mode; 5] = [
    ("sim", "ENGINE=rtl DESIGN=gemver SIZE=4 RUNS=20", sim),
    ("passes", "PASS=lower RUNS=20 N=4 SIZES=2,4,6", passes),
    ("text", "N=4 RUNS=20 SIZES=2,4,6", text),
    ("service", "RUNS=50 WORKERS=2", service),
    ("guards", "", guards),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, given) = args.split_first().unwrap_or_else(|| fail("no mode"));
    let Some(&(_, synopsis, run)) = MODES.iter().find(|(name, ..)| name == mode) else {
        fail(&format!("no mode `{mode}`"))
    };
    // Each argument not given takes the default after its `=`.
    let mut args: Vec<&str> = synopsis
        .split_whitespace()
        .map(|arg| arg.split_once('=').expect("a default").1)
        .collect();
    if given.len() > args.len() {
        fail(&format!("`{mode}` takes {} arguments", args.len()));
    }
    for (arg, given) in args.iter_mut().zip(given) {
        *arg = given;
    }
    run(&args)
}

/// Print `why` and the usage, and exit 2.
fn fail(why: &str) -> ! {
    eprintln!("profile: {why}\nusage: profile MODE [ARG...], every ARG optional:");
    for (name, synopsis, _) in MODES {
        eprintln!("  {name:<8}{synopsis}");
    }
    std::process::exit(2)
}

fn parse<T: std::str::FromStr>(arg: &str) -> T {
    arg.parse()
        .unwrap_or_else(|_| fail(&format!("`{arg}` is not a number")))
}

/// A count of runs: at least one.
fn runs(arg: &str) -> usize {
    parse::<usize>(arg).max(1)
}

/// Systolic sizes, comma-separated.
fn sizes(arg: &str) -> Vec<usize> {
    arg.split(',').map(parse).collect()
}

/// A design of the set, as its frontend generates it, and the memory
/// image a run of it loads.
struct Design {
    name: String,
    ctx: Context,
    image: Vec<(String, Vec<u64>)>,
}

/// The kernels `defs` at size `n`.
fn kernels<'a>(defs: impl IntoIterator<Item = &'a KernelDef>, n: u64) -> Vec<Design> {
    let design = |def: &KernelDef| {
        let (ast, ctx) = compile_kernel(def, n, 1).expect("kernel compiles");
        let (name, image) = (format!("{} n={n}", def.name), memory_image(def, &ast));
        Design { name, ctx, image }
    };
    defs.into_iter().map(design).collect()
}

/// The square systolic arrays of `sizes`.
fn arrays(sizes: &[usize]) -> Vec<Design> {
    let design = |&s: &usize| Design {
        name: format!("systolic {s}x{s}"),
        ctx: generate(&SystolicConfig::square(s)),
        image: matmul_operands(s).0,
    };
    sizes.iter().map(design).collect()
}

/// The set in its two named halves: the 19 kernels at `n`, and the arrays
/// of `sizes`.
fn design_set(n: u64, sizes: &[usize]) -> [(String, Vec<Design>); 2] {
    let polybench = (format!("19 kernels n={n}"), kernels(KERNELS, n));
    [polybench, (format!("systolic {sizes:?}"), arrays(sizes))]
}

/// Run the pass or alias `alias` over `ctx`; the pipeline holds its
/// timings.
fn lower(ctx: &mut Context, alias: &str) -> PassManager {
    let mut pipeline =
        PassManager::from_names(&[alias]).unwrap_or_else(|e| fail(&format!("`{alias}`: {e}")));
    pipeline.run(ctx).expect("the design compiles");
    pipeline
}

/// How long `work` takes.
fn timed(work: impl FnOnce()) -> Duration {
    let start = Instant::now();
    work();
    start.elapsed()
}

/// `runs` timings of `once`, which times its own work, so that it can
/// leave its setup out.
fn sample(runs: usize, once: impl FnMut() -> Duration) -> Vec<Duration> {
    std::iter::repeat_with(once).take(runs).collect()
}

/// A unit a row is printed in: how many of it make a second, and its name.
type Unit = (f64, &'static str);

const MS: Unit = (1e3, "ms");

/// The best run and the nearest-rank q1/median/q3 of `samples`.
fn quartiles(samples: &[Duration]) -> [Duration; 4] {
    let mut sorted = samples.to_vec();
    sorted.sort();
    [0, 25, 50, 75].map(|pct| percentile(&sorted, pct))
}

/// Print a timed row: the [`quartiles`] of `samples` in `unit`, then
/// `note`.
fn row(label: &str, samples: &[Duration], (per_sec, unit): Unit, note: &str) {
    let [best, q1, m, q3] = quartiles(samples).map(|d| d.as_secs_f64() * per_sec);
    println!("  {label:<28} {best:>10.3} best, {q1:.3}/{m:.3}/{q3:.3} q1/median/q3 {unit}{note}");
}

/// What a design costs to simulate: its cycles, and each run's flatten
/// and run time.
#[derive(Default)]
struct Cost {
    cycles: u64,
    flatten: Vec<Duration>,
    run: Vec<Duration>,
}

impl Cost {
    fn push(&mut self, (cycles, flatten, run): (u64, Duration, Duration)) {
        self.cycles = cycles;
        self.flatten.push(flatten);
        self.run.push(run);
    }

    fn print(&self, label: &str) {
        let per_cycle = (1e9 / self.cycles.max(1) as f64, "ns/cycle");
        row(&format!("{label} flatten"), &self.flatten, MS, "");
        let cycles = format!(", {} cycles", self.cycles);
        row(&format!("{label} run"), &self.run, per_cycle, &cycles);
    }
}

/// Build, load and run engine `E` on `design` once: the cycles, the time
/// to build the engine and the time to run it to completion.
fn measure<E: Engine>(design: &Design) -> (u64, Duration, Duration) {
    let built = Instant::now();
    let mut harness = Harness::<E>::new(&design.ctx, "main").expect("builds");
    let flatten = built.elapsed();
    for (name, data) in &design.image {
        harness.set_memory(name, data).expect("memory");
    }
    let ran = Instant::now();
    let cycles = harness.run(100_000_000).expect("completes").cycles;
    (cycles, flatten, ran.elapsed())
}

fn sim(args: &[&str]) {
    let (engine, which, size, runs) = (args[0], args[1], parse(args[2]), runs(args[3]));
    let (mut designs, pipeline) = match which {
        "systolic" => (arrays(&[size]), "lower-static"),
        "all" => (kernels(KERNELS, size as u64), "opt"),
        name => {
            let def = kernel(name).unwrap_or_else(|| fail(&format!("no kernel `{name}`")));
            (kernels([def], size as u64), "opt")
        }
    };
    let measure = match engine {
        "rtl" => {
            for design in &mut designs {
                lower(&mut design.ctx, pipeline);
            }
            measure::<Rtl>
        }
        "interp" => measure::<Interp>,
        other => fail(&format!("no engine `{other}`")),
    };
    let mut costs: Vec<Cost> = designs.iter().map(|_| Cost::default()).collect();
    let mut sweeps = Cost::default();
    for _ in 0..runs {
        let mut sweep = (0, Duration::ZERO, Duration::ZERO);
        for (design, cost) in designs.iter().zip(&mut costs) {
            let (cycles, flatten, run) = measure(design);
            cost.push((cycles, flatten, run));
            sweep = (sweep.0 + cycles, sweep.1 + flatten, sweep.2 + run);
        }
        sweeps.push(sweep);
    }
    println!("{engine}, {runs} runs:");
    for (design, cost) in designs.iter().zip(&costs) {
        cost.print(&design.name);
    }
    if designs.len() > 1 {
        sweeps.print(&format!("all n={size}, per sweep"));
    }
}

fn passes(args: &[&str]) {
    let (alias, runs, n, sizes) = (args[0], runs(args[1]), parse(args[2]), sizes(args[3]));
    for (set, designs) in design_set(n, &sizes) {
        // Per pass in pipeline order, the pipeline, then the emit: the
        // time of each run.
        let mut rows: Vec<(&str, Vec<Duration>)> = Vec::new();
        for _ in 0..runs {
            let mut sweep: Vec<(&str, Duration)> = Vec::new();
            let mut lowered = Vec::with_capacity(designs.len());
            for design in &designs {
                let mut ctx = design.ctx.clone();
                for (i, t) in lower(&mut ctx, alias).timings().iter().enumerate() {
                    match sweep.get_mut(i) {
                        Some((_, total)) => *total += t.duration,
                        None => sweep.push((t.name, t.duration)),
                    }
                }
                lowered.push(ctx);
            }
            sweep.push(("passes", sweep.iter().map(|(_, d)| *d).sum()));
            if lowered.iter().try_for_each(require_lowered).is_ok() {
                let mut sink = Vec::new();
                let mut emit = |ctx| {
                    sink.clear();
                    emit_to(ctx, &mut sink).expect("lowered programs emit");
                };
                sweep.push(("emit", timed(|| lowered.iter().for_each(&mut emit))));
            }
            if rows.is_empty() {
                rows = sweep.iter().map(|&(name, _)| (name, Vec::new())).collect();
            }
            for ((_, samples), (_, d)) in rows.iter_mut().zip(sweep) {
                samples.push(d);
            }
        }
        println!("{set}, {alias}, {runs} runs (per sweep):");
        for (name, samples) in &rows {
            row(name, samples, MS, "");
        }
    }
}

/// A design ready for each text layer.
struct Text {
    ctx: Context,
    /// `ctx` as Calyx text.
    calyx: String,
    /// `ctx` after `lower`.
    lowered: Context,
    /// `lowered` as SystemVerilog.
    verilog: Vec<u8>,
}

/// A text layer's name, and the layer run over one design, which returns
/// the bytes it read or wrote.
type Layer = (&'static str, fn(&Text) -> usize);

const LAYERS: [Layer; 5] = [
    ("parse", |d| {
        black_box(parse_context(&d.calyx).expect("printed text parses"));
        d.calyx.len()
    }),
    ("print", |d| black_box(Printer::print_context(&d.ctx)).len()),
    ("emit", |d| {
        let mut sink = Vec::with_capacity(d.verilog.len());
        emit_to(&d.lowered, &mut sink).expect("lowered programs emit");
        black_box(sink).len()
    }),
    ("key", |d| hashed(d, |t| content_key(&[t]))),
    ("pin", |d| hashed(d, digest64)),
];

/// Hash a design's Calyx and Verilog text with `hash`.
fn hashed(d: &Text, hash: fn(&[u8]) -> u64) -> usize {
    black_box(hash(black_box(d.calyx.as_bytes())));
    black_box(hash(black_box(&d.verilog)));
    d.calyx.len() + d.verilog.len()
}

fn text(args: &[&str]) {
    let (n, runs, sizes) = (parse(args[0]), runs(args[1]), sizes(args[2]));
    let [(kernel_set, kernels), (array_set, arrays)] = design_set(n, &sizes);
    let split = kernels.len();
    let texts: Vec<Text> = kernels
        .into_iter()
        .chain(arrays)
        .map(|Design { ctx, .. }| {
            let mut lowered = ctx.clone();
            lower(&mut lowered, "lower");
            let mut verilog = Vec::new();
            emit_to(&lowered, &mut verilog).expect("lowered programs emit");
            let calyx = Printer::print_context(&ctx);
            Text {
                ctx,
                calyx,
                lowered,
                verilog,
            }
        })
        .collect();
    let (kernels, arrays) = texts.split_at(split);
    let sets: [(&str, &[Text]); 3] = [
        (&kernel_set, kernels),
        (&array_set, arrays),
        ("all", &texts),
    ];
    for (set, texts) in sets {
        println!("{set}, {runs} runs (per sweep):");
        for (name, layer) in LAYERS {
            let bytes: usize = texts.iter().map(layer).sum();
            let samples = sample(runs, || timed(|| texts.iter().for_each(|d| _ = layer(d))));
            let rate = bytes as f64 / quartiles(&samples)[2].as_secs_f64().max(1e-12) / 1e6;
            let note = format!(", {bytes} bytes, {rate:.1} MB/s at the median");
            row(name, &samples, MS, &note);
        }
    }
}

fn service(args: &[&str]) {
    let (runs, workers) = (runs(args[0]), parse(args[1]));
    let reqs: Vec<JobRequest> = KERNELS
        .iter()
        .map(|def| JobRequest {
            name: Some(def.name.to_string()),
            frontend: Some("polybench".to_string()),
            fopts: vec![("kernel".to_string(), def.name.to_string())],
            backend: Some("verilog".to_string()),
            ..JobRequest::default()
        })
        .collect();
    let defaults = JobDefaults {
        inline_output: true,
        ..JobDefaults::default()
    };
    let jobs = reqs.len();
    // Run each job on the calling thread, or all as one batch; every job
    // must hit the job cache if `hit`, and miss it if not.
    let execute = |service: &CompileService, hit: bool| {
        for (id, req) in reqs.iter().enumerate() {
            let resp = service.execute(id, req, &defaults);
            assert!(resp.is_ok(), "{}: {:?}", resp.name, resp.error);
            let want = if hit { "hit" } else { "miss" };
            assert_eq!(resp.cache, Some(want), "{}", resp.name);
            black_box(resp);
        }
    };
    let batch = |service: &CompileService, hit: bool| {
        let summary = service.run_batch(&reqs, workers, false, &defaults);
        assert!(summary.all_ok(), "{}", summary.render_text(false));
        let n = jobs as u64;
        let want = if hit { (n, 0) } else { (0, n) };
        assert_eq!((summary.cache.hits, summary.cache.misses), want);
        black_box(summary);
    };
    let fresh = |run: &dyn Fn(&CompileService, bool)| {
        let service = CompileService::new();
        timed(|| run(&service, false))
    };
    let session = Session::default();
    let key = |r: &JobRequest| _ = black_box(session.job_key(&defaults.job(r), "<request>", ""));
    let resolve = |r: &JobRequest| _ = black_box(session.resolve(&defaults.job(r)).is_ok());
    let primed = CompileService::new();
    execute(&primed, false);
    let (job, sweep) = ((1e6 / jobs as f64, "µs/job"), (1e3, "ms/sweep"));
    println!("service, {jobs} kernels -> verilog, {workers} workers, {runs} runs:");
    let time = |work: &dyn Fn()| sample(runs, || timed(work));
    row("key", &time(&|| reqs.iter().for_each(key)), job, "");
    row("resolve", &time(&|| reqs.iter().for_each(resolve)), job, "");
    row("hit execute", &time(&|| execute(&primed, true)), job, "");
    row("hit run_batch", &time(&|| batch(&primed, true)), sweep, "");
    row("miss execute", &sample(runs, || fresh(&execute)), job, "");
    row("miss run_batch", &sample(runs, || fresh(&batch)), sweep, "");
}

fn guards(_: &[&str]) {
    println!(
        "{:<26} {:>6} {:>7} {:>8} {:>9} {:>7} {:>9}",
        "design", "asgns", "tree", "entered", "distinct", "tree/d", "entered/d"
    );
    let print = |name: &str, s: GuardSharing| {
        let (a, t) = (s.assignments, s.tree_nodes);
        let (e, d) = (s.entered_nodes, s.distinct_nodes);
        let (tree, entered) = (t as f64 / d.max(1) as f64, e as f64 / d.max(1) as f64);
        println!("{name:<26} {a:>6} {t:>7} {e:>8} {d:>9} {tree:>6.1}x {entered:>8.1}x");
    };
    let lowered = |mut design: Design, alias: &str| {
        lower(&mut design.ctx, alias);
        let s = guard_sharing(&design.ctx);
        print(&format!("{} {alias}", design.name), s);
        s
    };
    let mut all = GuardSharing::default();
    for s in kernels(KERNELS, 4).into_iter().map(|d| lowered(d, "opt")) {
        all.assignments += s.assignments;
        all.tree_nodes += s.tree_nodes;
        all.entered_nodes += s.entered_nodes;
        all.distinct_nodes += s.distinct_nodes;
    }
    print("19 kernels n=4 opt", all);
    let statics = arrays(&[2, 4, 6, 8])
        .into_iter()
        .map(|d| (d, "lower-static"));
    for (design, alias) in statics.chain(arrays(&[8]).into_iter().map(|d| (d, "lower"))) {
        lowered(design, alias);
    }
}
