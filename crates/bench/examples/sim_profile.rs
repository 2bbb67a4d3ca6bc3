//! Profiling harness for the simulation engines: run ONE engine over one
//! PolyBench kernel, or all 19, many times, with nothing else in the
//! process, so sampling profilers (`gprofng collect app`, `perf record`)
//! see only the loop under study and an engine A/B needs no ledger run.
//!
//! ```sh
//! cargo run --release -p calyx_bench --example sim_profile -- rtl gemver 8 50
//! cargo run --release -p calyx_bench --example sim_profile -- interp all 4 50
//! ```
//!
//! Arguments: engine (`rtl` or `interp`), kernel (a name, or `all`), size
//! `n` (default 4, the ledger's), runs per kernel (default 20). `rtl`
//! compiles with the `opt` pipeline, as the ledger's `polybench_rtl` does;
//! `interp` runs the un-lowered program, as `polybench_interp` does. Each
//! run times building the engine (flattening) apart from simulating, and
//! the simulation is reported per cycle.

use calyx_core::ir::Context;
use calyx_core::passes::PassManager;
use calyx_polybench::{compile_kernel, input_data, kernel, logical_of, KernelDef, KERNELS};
use std::time::{Duration, Instant};

/// Memory name and initial contents, for each bank of each input.
type Image = Vec<(String, Vec<u64>)>;

/// What one kernel costs per run, on average.
#[derive(Default)]
struct Cost {
    cycles: u64,
    flatten: Duration,
    run: Duration,
}

impl Cost {
    fn line(&self, label: &str) -> String {
        let ns_per_cycle = self.run.as_nanos() as f64 / self.cycles.max(1) as f64;
        format!(
            "{label}: {} cycles, flatten {:.3} ms, run {:.3} ms, {ns_per_cycle:.0} ns/cycle",
            self.cycles,
            self.flatten.as_secs_f64() * 1e3,
            self.run.as_secs_f64() * 1e3,
        )
    }
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

/// Build, load and run `engine` on `ctx` `iters` times.
fn measure(engine: &str, ctx: &Context, image: &Image, iters: u32) -> Cost {
    let mut cost = Cost::default();
    for _ in 0..iters {
        let built = Instant::now();
        let (cycles, ran) = match engine {
            "rtl" => {
                let mut sim = calyx_sim::rtl::Simulator::new(ctx, "main").expect("builds");
                cost.flatten += built.elapsed();
                for (name, data) in image {
                    sim.set_memory(&[name], data).expect("memory");
                }
                let ran = Instant::now();
                (sim.run(100_000_000).expect("completes").cycles, ran)
            }
            "interp" => {
                let mut interp = calyx_sim::interp::Interpreter::new(ctx, "main").expect("builds");
                cost.flatten += built.elapsed();
                for (name, data) in image {
                    interp.set_memory(name, data).expect("memory");
                }
                let ran = Instant::now();
                (interp.run(100_000_000).expect("completes").cycles, ran)
            }
            other => panic!("unknown engine `{other}` (rtl or interp)"),
        };
        cost.run += ran.elapsed();
        cost.cycles = cycles;
    }
    cost.flatten /= iters;
    cost.run /= iters;
    cost
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let engine = args.first().map(String::as_str).unwrap_or("rtl");
    let kname = args.get(1).map(String::as_str).unwrap_or("gemver");
    let n: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(4);
    let iters: u32 = args
        .get(3)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20)
        .max(1);

    let defs: Vec<&KernelDef> = if kname == "all" {
        KERNELS.iter().collect()
    } else {
        vec![kernel(kname).expect("known kernel")]
    };
    let mut total = Cost::default();
    for def in &defs {
        let (ctx, image) = prepare(def, n, engine);
        let cost = measure(engine, &ctx, &image, iters);
        println!("{}", cost.line(&format!("{engine}/{} n={n}", def.name)));
        total.cycles += cost.cycles;
        total.flatten += cost.flatten;
        total.run += cost.run;
    }
    if defs.len() > 1 {
        println!("{}", total.line(&format!("{engine}/all n={n}, per sweep")));
    }
}
