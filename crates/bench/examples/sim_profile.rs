//! Profiling harness for the simulation engines: run ONE engine over one
//! PolyBench kernel, or all 19, or a systolic array, many times, with
//! nothing else in the process, so sampling profilers (`gprofng collect
//! app`, `perf record`) see only the loop under study and an engine A/B
//! needs no ledger run.
//!
//! ```sh
//! cargo run --release -p calyx_bench --example sim_profile -- rtl gemver 8 50
//! cargo run --release -p calyx_bench --example sim_profile -- interp all 4 50
//! cargo run --release -p calyx_bench --example sim_profile -- rtl systolic 4 50
//! ```
//!
//! Arguments: engine (`rtl` or `interp`), design (a kernel's name, `all`,
//! or `systolic`), size (default 4: a kernel's `n`, the ledger's, or the
//! array's rows and columns), runs per design (default 20). On a kernel
//! `rtl` compiles with the `opt` pipeline, as the ledger's `polybench_rtl`
//! does, and on the array with `lower-static`, as `systolic_lower` does;
//! `interp` runs the un-lowered program, as `polybench_interp` does. Each
//! run times building the engine (flattening) apart from simulating, and
//! the simulation is reported per cycle. A line gives the best run and
//! the quartiles of the runs (`q1/median/q3`), not their mean, so one
//! slow run (a descheduled process, a cold cache) does not move the
//! figure an A/B compares. With `all`, the runs go in sweeps — every
//! kernel once, then again — and the last line is the same statistics
//! over whole sweeps.

use calyx_core::ir::Context;
use calyx_core::passes::PassManager;
use calyx_polybench::{compile_kernel, input_data, kernel, logical_of, KernelDef, KERNELS};
use calyx_sim::interp::Interp;
use calyx_sim::rtl::Rtl;
use calyx_sim::{Engine, Harness};
use calyx_systolic::{generate, SystolicConfig};
use std::time::{Duration, Instant};

/// Memory name and initial contents, for each bank of each input.
type Image = Vec<(String, Vec<u64>)>;

/// What a design costs: its cycles, and the flatten and run time of
/// each run.
#[derive(Default)]
struct Cost {
    cycles: u64,
    flatten: Vec<Duration>,
    run: Vec<Duration>,
}

/// The least, lower quartile, median and upper quartile of `samples`, in
/// milliseconds (nearest rank).
fn quartiles(samples: &[Duration]) -> [f64; 4] {
    let mut ms: Vec<f64> = samples.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    ms.sort_by(f64::total_cmp);
    let at = |q: usize| ms[(ms.len() - 1) * q / 4];
    [at(0), at(1), at(2), at(3)]
}

impl Cost {
    fn push(&mut self, (cycles, flatten, run): (u64, Duration, Duration)) {
        self.cycles = cycles;
        self.flatten.push(flatten);
        self.run.push(run);
    }

    fn line(&self, label: &str) -> String {
        let [flatten, ..] = quartiles(&self.flatten);
        let run = quartiles(&self.run);
        let [best, q1, median, q3] = run.map(|ms| ms * 1e6 / self.cycles.max(1) as f64);
        format!(
            "{label}: {} cycles, flatten {flatten:.3} ms, run {:.3} ms, {best:.0} ns/cycle best, \
             {q1:.0}/{median:.0}/{q3:.0} q1/median/q3 over {} runs",
            self.cycles,
            run[0],
            self.run.len(),
        )
    }
}

/// The `n`×`n` systolic array, ready for `engine`, and the memory image
/// `examples/systolic_matmul.rs` loads.
fn prepare_systolic(n: usize, engine: &str) -> (Context, Image) {
    let mut ctx = generate(&SystolicConfig::square(n));
    if engine == "rtl" {
        let mut lower = PassManager::from_names(&["lower-static"]).expect("registered");
        lower.run(&mut ctx).expect("lowers");
    }
    let mut image = Image::new();
    for i in 0..n {
        image.push((
            format!("l{i}"),
            (0..n).map(|k| ((i + k) % 5 + 1) as u64).collect(),
        ));
    }
    for i in 0..n {
        image.push((
            format!("t{i}"),
            (0..n).map(|k| ((2 * k + i) % 7 + 1) as u64).collect(),
        ));
    }
    (ctx, image)
}

/// The kernel's program, ready for `engine`, and its memory image.
fn prepare(def: &KernelDef, n: u64, engine: &str) -> (Context, Image) {
    let (ast, mut ctx) = compile_kernel(def, n, 1).expect("kernel compiles");
    if engine == "rtl" {
        let mut opt = PassManager::from_names(&["opt"]).expect("`opt` is registered");
        opt.run(&mut ctx).expect("optimizes and lowers");
    }
    let mut image = Vec::new();
    for decl in &ast.decls {
        let lname = logical_of(decl.name.as_str());
        let data = input_data(def.name, &lname, decl.size() as usize);
        let banks = calyx_dahlia::backend::split_banks(decl, &data);
        for ((bank, _), bank_data) in calyx_dahlia::backend::memory_banks(decl).iter().zip(&banks) {
            image.push((bank.clone(), bank_data.clone()));
        }
    }
    (ctx, image)
}

/// Build, load and run engine `E` on `ctx` once: the cycles, the time to
/// build the engine and the time to run it.
fn measure<E: Engine>(ctx: &Context, image: &Image) -> (u64, Duration, Duration) {
    let built = Instant::now();
    let mut harness = Harness::<E>::new(ctx, "main").expect("builds");
    let flatten = built.elapsed();
    for (name, data) in image {
        harness.set_memory(name, data).expect("memory");
    }
    let ran = Instant::now();
    let cycles = harness.run(100_000_000).expect("completes").cycles;
    (cycles, flatten, ran.elapsed())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let engine = args.first().map(String::as_str).unwrap_or("rtl");
    let kname = args.get(1).map(String::as_str).unwrap_or("gemver");
    let n: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(4);
    let measure: fn(&Context, &Image) -> (u64, Duration, Duration) = match engine {
        "rtl" => measure::<Rtl>,
        "interp" => measure::<Interp>,
        other => panic!("unknown engine `{other}` (rtl or interp)"),
    };
    let iters: u32 = args
        .get(3)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20)
        .max(1);

    let designs: Vec<(String, Context, Image)> = if kname == "systolic" {
        let (ctx, image) = prepare_systolic(n as usize, engine);
        vec![(format!("{engine}/systolic {n}x{n}"), ctx, image)]
    } else {
        let defs: Vec<&KernelDef> = if kname == "all" {
            KERNELS.iter().collect()
        } else {
            vec![kernel(kname).expect("known kernel")]
        };
        defs.into_iter()
            .map(|def| {
                let (ctx, image) = prepare(def, n, engine);
                (format!("{engine}/{} n={n}", def.name), ctx, image)
            })
            .collect()
    };
    let mut costs: Vec<Cost> = designs.iter().map(|_| Cost::default()).collect();
    let mut sweeps = Cost::default();
    for _ in 0..iters {
        let mut sweep = (0, Duration::ZERO, Duration::ZERO);
        for ((_, ctx, image), cost) in designs.iter().zip(&mut costs) {
            let (cycles, flatten, run) = measure(ctx, image);
            cost.push((cycles, flatten, run));
            sweep = (sweep.0 + cycles, sweep.1 + flatten, sweep.2 + run);
        }
        sweeps.push(sweep);
    }
    for ((label, ..), cost) in designs.iter().zip(&costs) {
        println!("{}", cost.line(label));
    }
    if designs.len() > 1 {
        println!("{}", sweeps.line(&format!("{engine}/all n={n}, per sweep")));
    }
}
